#ifndef SOFIA_CORE_SOFIA_MODEL_H_
#define SOFIA_CORE_SOFIA_MODEL_H_

#include <iosfwd>
#include <memory>
#include <optional>
#include <vector>

#include "core/sofia_config.hpp"
#include "core/sofia_init.hpp"
#include "linalg/matrix.hpp"
#include "tensor/coo_list.hpp"
#include "tensor/dense_tensor.hpp"
#include "tensor/mask.hpp"
#include "tensor/sparse_mask.hpp"
#include "timeseries/holt_winters.hpp"
#include "util/parallel.hpp"
#include "util/shard_executor.hpp"

/// \file sofia_model.hpp
/// \brief The streaming SOFIA model: HW fitting (Section V-B), dynamic
/// updates (Algorithm 3), and forecasting (Section V-D).

namespace sofia {

struct StepGradients;

/// Per-step output of the dynamic update.
///
/// The dense slice tensors are materialized lazily: Step works entirely on
/// observed entries, so consumers that only need the observed-entry views
/// (outlier detection, metrics at observed entries, pure forecasting) never
/// pay an O(volume) reconstruction. The first call to
/// imputed()/outliers()/forecast() materializes and caches the
/// corresponding dense tensor.
class SofiaStepResult {
 public:
  SofiaStepResult() = default;

  /// X̂_t = [[{U^(n)_t}; u^(N)_t]] (Eq. (27)).
  const DenseTensor& imputed() const;
  /// O_t estimated by Eq. (21) (0 where unobserved).
  const DenseTensor& outliers() const;
  /// Ŷ_{t|t-1} (Eq. (20)), the pre-update prediction.
  const DenseTensor& forecast() const;

  /// Whether the corresponding dense tensor has been materialized (Step
  /// leaves all three unmaterialized until first access).
  bool imputed_materialized() const { return imputed_.has_value(); }
  bool outliers_materialized() const { return outliers_.has_value(); }
  bool forecast_materialized() const { return forecast_.has_value(); }

  /// Shape of the incoming slice.
  const Shape& slice_shape() const { return shape_; }
  /// |Ω_t|: number of observed entries in this step's mask.
  size_t num_observed() const { return observed_.size(); }
  /// Linear indices of the observed entries, ascending.
  const std::vector<size_t>& observed_indices() const { return observed_; }
  /// O_t at the observed entries, aligned with observed_indices().
  const std::vector<double>& observed_outliers() const {
    return observed_outliers_;
  }
  /// Ŷ_{t|t-1} at the observed entries, aligned with observed_indices().
  const std::vector<double>& observed_forecast() const {
    return observed_forecast_;
  }
  /// The updated temporal row u^(N)_t.
  const std::vector<double>& temporal_row() const { return u_new_; }
  /// Post-update non-temporal factor snapshot — together with
  /// temporal_row() this is the Kruskal structure of imputed(), which the
  /// pipeline-wide lazy StepResult carries instead of the dense tensor.
  const std::vector<Matrix>& factors() const { return factors_after_; }

 private:
  friend class SofiaModel;

  Shape shape_;
  // Snapshots backing the lazy reconstructions: the factors before the
  // gradient step (forecast) and after it (imputed). O(sum_n I_n R) per
  // step — small next to the O(prod_n I_n) slice they replace.
  std::vector<Matrix> factors_before_;
  std::vector<Matrix> factors_after_;
  std::vector<double> u_hat_;
  std::vector<double> u_new_;
  std::vector<size_t> observed_;
  std::vector<double> observed_outliers_;
  std::vector<double> observed_forecast_;
  mutable std::optional<DenseTensor> imputed_;
  mutable std::optional<DenseTensor> outliers_;
  mutable std::optional<DenseTensor> forecast_;
};

/// Options controlling which ingredients of the dynamic update run; the
/// defaults are the full algorithm. Used by the ablation benches.
struct SofiaAblation {
  bool reject_outliers = true;  ///< Apply Eq. (21); off = O_t ≡ 0.
  bool scale_before_reject = false;  ///< Gelper ordering (update Σ̂ first).
  bool temporal_smoothness = true;   ///< λ1/λ2 terms in Eq. (25).
};

/// Streaming SOFIA. Construct via Initialize() on the first t_i slices,
/// then call Step() for every incoming subtensor.
class SofiaModel {
 public:
  /// Runs Algorithm 1 on the start-up slices, fits one Holt-Winters model
  /// per temporal-factor column (Section V-B), and seeds the error-scale
  /// tensor with λ3/100 (Algorithm 3 line 1). Init runs on the pool the
  /// steps will use: `pool` when given (adopted as by AdoptPool), else the
  /// model's own executor of config.num_threads workers. The result is
  /// bitwise the same for every pool.
  static SofiaModel Initialize(const std::vector<DenseTensor>& slices,
                               const std::vector<Mask>& masks,
                               const SofiaConfig& config,
                               const SofiaAblation& ablation = {},
                               std::shared_ptr<WorkerPool> pool = nullptr);

  /// Processes the subtensor Y_t with indicator Ω_t (Algorithm 3 lines
  /// 3-11) at O(|Ω_t| N R) per step (Lemma 2): forecast evaluation, outlier
  /// rejection, scale update, and gradient accumulation all run on the
  /// observed entries only, via a CooList that is cached across steps with
  /// identical masks (an O(|Ω_t|) SparseMask compare replaces the rebuild).
  SofiaStepResult Step(const DenseTensor& y, const Mask& omega);

  /// Step with an externally built coordinate pattern of `omega`: the
  /// internal cache is a shared_ptr, so SOFIA adopts the comparison
  /// runner's per-step build outright instead of re-compacting the same
  /// mask itself. Null `pattern` behaves exactly like the two-arg Step.
  SofiaStepResult Step(const DenseTensor& y, const Mask& omega,
                       std::shared_ptr<const CooList> pattern);

  /// h-step-ahead forecast Ŷ_{t+h|t} (Eq. (28)); h >= 1.
  DenseTensor Forecast(size_t h) const;

  /// Temporal row û_{t+h|t} of the Eq. (28) forecast — the Kruskal weights
  /// of Forecast(h), for consumers that keep the forecast lazy.
  std::vector<double> ForecastRow(size_t h) const;

  /// Reconstruction [[{U^(n)}; u]] for the given temporal row (diagnostics).
  DenseTensor Reconstruct(const std::vector<double>& temporal_row) const;

  const SofiaConfig& config() const { return config_; }
  const std::vector<Matrix>& nontemporal_factors() const { return factors_; }
  /// Completed batch tensor from the initialization phase (X̂_init).
  const DenseTensor& init_completed() const { return init_completed_; }
  /// Level / trend vectors of the vector HW model (length R).
  const std::vector<double>& level() const { return level_; }
  const std::vector<double>& trend() const { return trend_; }
  /// Most recent temporal row u^(N)_t.
  const std::vector<double>& last_temporal_row() const { return last_row_; }
  /// Error-scale tensor Σ̂_t.
  const DenseTensor& error_scale() const { return sigma_; }
  /// Fitted smoothing parameters per factor column.
  const std::vector<HwParams>& hw_params() const { return hw_params_; }
  /// Seasonal component that the next Step()/Forecast(1) will use (s_{t+1-m}).
  const std::vector<double>& next_season() const { return season_[season_pos_]; }
  /// Temporal row u^(N)_{t+1-m} that the next Step()'s λ2 term couples to.
  const std::vector<double>& lagged_temporal_row() const {
    return row_history_[row_pos_];
  }

  /// Runtime kernel knob (not learned state): the worker count of a live
  /// model. Results are bitwise identical for every count.
  void set_num_threads(size_t n) {
    config_.num_threads = n;
    pool_.reset();
  }
  /// Number of CooList builds Step() has performed: a run of identical
  /// masks costs one build total, and steps that adopt a shared pattern
  /// never build at all.
  size_t step_pattern_builds() const { return step_pattern_builds_; }
  /// Unshared Step() calls that hit the mask-reuse cache instead of
  /// rebuilding (the steady-state path; the compare is O(|Ω_t|)).
  size_t step_pattern_reuses() const { return step_pattern_reuses_; }

  /// Adopt an externally owned worker pool for the sparse Step kernels (a
  /// comparison run lends one per method). Bitwise-neutral; nullptr
  /// restores the model's own executor.
  void AdoptPool(std::shared_ptr<WorkerPool> pool) {
    external_pool_ = std::move(pool);
  }

  /// Checkpoints the full streaming state (config, factors, HW components,
  /// temporal-row history, error-scale tensor) to a text stream. Restoring
  /// with Deserialize() resumes Step()/Forecast() bit-for-bit. Deserialize
  /// throws state_io::StateError on a checkpoint that does not parse or
  /// whose fields disagree in shape, so a restored model can always Step.
  void Serialize(std::ostream& out) const;
  static SofiaModel Deserialize(std::istream& in);

  /// Copying branches the stream: learned state is duplicated while the
  /// derived working state (pattern cache, worker pool) resets and is
  /// rebuilt lazily — so copies still step bit-for-bit like the original.
  SofiaModel(const SofiaModel& other);
  SofiaModel& operator=(const SofiaModel& other);
  SofiaModel(SofiaModel&&) = default;
  SofiaModel& operator=(SofiaModel&&) = default;

 private:
  SofiaModel() = default;

  /// Algorithm 3 lines 4-8 on the observed entries via the CooList layer:
  /// forecast, outlier rejection, scale update and gradient accumulation;
  /// fills only the result's observed-entry views.
  void Accumulate(const DenseTensor& y, const Mask& omega,
                  const std::vector<double>& u_hat,
                  std::shared_ptr<const CooList> pattern, StepGradients* grads,
                  SofiaStepResult* result);
  /// The cached (or freshly built) coordinate list of `omega`; adopts
  /// `shared` outright when given.
  const CooList& StepPattern(const Mask& omega,
                             std::shared_ptr<const CooList> shared);
  WorkerPool* StepPool();

  SofiaConfig config_;
  SofiaAblation ablation_;
  std::vector<Matrix> factors_;  ///< Non-temporal factor matrices.
  DenseTensor init_completed_;

  // Vector Holt-Winters state (Eq. (26)): one scalar model per column r.
  std::vector<HwParams> hw_params_;
  std::vector<double> level_;              ///< l_{t} (length R).
  std::vector<double> trend_;              ///< b_{t}.
  std::vector<std::vector<double>> season_;  ///< Ring of m seasonal vectors.
  size_t season_pos_ = 0;                  ///< Slot of s_{t+1-m}.

  // Temporal-row history: ring of the last m rows u^(N)_{t-m+1..t}.
  std::vector<std::vector<double>> row_history_;
  size_t row_pos_ = 0;  ///< Slot of the oldest row (u_{t-m+1}).
  std::vector<double> last_row_;  ///< u^(N)_t.

  DenseTensor sigma_;  ///< Error-scale tensor Σ̂_t (slice shape).

  // Working state of Step (derived, never serialized): the
  // last mask's indicator as a SparseMask (O(|Ω_t|) to store and compare —
  // the dense Mask cache this replaces paid an O(volume) byte scan per
  // reuse check), its coordinate list (a shared_ptr, so comparison runners
  // can hand their per-step build straight in) and the kernel worker pool.
  SparseMask step_mask_;
  std::shared_ptr<const CooList> step_coo_;
  size_t step_pattern_builds_ = 0;
  size_t step_pattern_reuses_ = 0;
  std::unique_ptr<ShardExecutor> pool_;
  std::shared_ptr<WorkerPool> external_pool_;
};

}  // namespace sofia

#endif  // SOFIA_CORE_SOFIA_MODEL_H_
