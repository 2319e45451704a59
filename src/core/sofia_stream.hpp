#ifndef SOFIA_CORE_SOFIA_STREAM_H_
#define SOFIA_CORE_SOFIA_STREAM_H_

#include <memory>
#include <string>
#include <vector>

#include "core/sofia_model.hpp"
#include "eval/streaming_method.hpp"

/// \file sofia_stream.hpp
/// \brief StreamingMethod adapter for SOFIA (used by the experiment
/// harness alongside the baselines).

namespace sofia {

/// Wraps SofiaModel behind the common streaming interface. Initialize()
/// consumes the start-up window (t_i = 3m slices), then Step()/Forecast()
/// delegate to the dynamic-update and HW-forecast phases.
class SofiaStream : public StreamingMethod {
 public:
  explicit SofiaStream(SofiaConfig config, SofiaAblation ablation = {},
                       std::string display_name = "SOFIA")
      : config_(config), ablation_(ablation), name_(std::move(display_name)) {}

  std::string name() const override { return name_; }
  size_t init_window() const override { return config_.InitWindow(); }

  std::vector<DenseTensor> Initialize(
      const std::vector<DenseTensor>& slices,
      const std::vector<Mask>& masks) override;

  /// Lazy step: the model's post-update Kruskal structure (factors +
  /// temporal row) wrapped as a StepResult — no dense reconstruction. A
  /// shared pattern is adopted by the model's shared_ptr pattern cache, so
  /// comparison runs never re-compact the mask inside SOFIA either.
  StepResult StepLazy(const DenseTensor& y, const Mask& omega,
                      std::shared_ptr<const CooList> pattern =
                          nullptr) override;

  /// Advances the model without materializing the dense reconstruction —
  /// with the sparse kernel path this keeps a forecast-only pass at
  /// O(|Ω_t| N R) per slice.
  void Observe(const DenseTensor& y, const Mask& omega) override;

  bool SupportsForecast() const override { return true; }
  StepResult ForecastLazy(size_t h) const override;

  /// The adopted pool runs Initialize (SofiaModel::Initialize); steps are
  /// one serial pass and take no pool.
  void AdoptWorkerPool(std::shared_ptr<WorkerPool> pool) override;

  /// Checkpointing delegates to SofiaModel::Serialize/Deserialize behind a
  /// model-present flag, so a pre-Initialize snapshot restores cleanly too.
  bool SupportsStateCheckpoint() const override { return true; }
  void SaveState(std::ostream& out) const override;
  void RestoreState(std::istream& in) override;

  /// The underlying model (valid after Initialize()).
  const SofiaModel& model() const;

 private:
  SofiaConfig config_;
  SofiaAblation ablation_;
  std::string name_;
  std::unique_ptr<SofiaModel> model_;
  std::shared_ptr<WorkerPool> adopted_pool_;  ///< Runs Initialize.
};

}  // namespace sofia

#endif  // SOFIA_CORE_SOFIA_STREAM_H_
