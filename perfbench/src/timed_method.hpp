#ifndef PERFBENCH_TIMED_METHOD_H_
#define PERFBENCH_TIMED_METHOD_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "eval/streaming_method.hpp"
#include "obs/trace.hpp"

/// \file timed_method.hpp
/// \brief Pass-through StreamingMethod decorator that only timestamps calls.
///
/// The benchmark attributes time to layers from outside the library: one
/// TimedMethod sits under each wrapper (DurableGuard, StreamGuard) and
/// around each comparison method, forwards every virtual unchanged, and
/// records how long each call took. A layer's self time is its decorator's
/// time minus the time of the decorator directly inside it. When a trace
/// session is active, every timed call is also recorded as a span through
/// obs::TraceRecord, so the benchmark's spans land in the same Chrome trace
/// as the library's own.

namespace perfbench {

/// Monotonic nanoseconds (the trace clock, so spans and samples line up).
inline uint64_t NowNs() { return sofia::obs::NowNs(); }

class TimedMethod : public sofia::StreamingMethod {
 public:
  /// `span` names the trace span of StepLazy calls; it must be a string
  /// literal (the trace ring stores the pointer).
  TimedMethod(std::unique_ptr<sofia::StreamingMethod> inner, const char* span)
      : inner_(std::move(inner)), span_(span) {}

  std::string name() const override { return inner_->name(); }
  size_t init_window() const override { return inner_->init_window(); }

  std::vector<sofia::DenseTensor> Initialize(
      const std::vector<sofia::DenseTensor>& slices,
      const std::vector<sofia::Mask>& masks) override {
    const uint64_t start = NowNs();
    std::vector<sofia::DenseTensor> out = inner_->Initialize(slices, masks);
    init_ns_ += Record("bench.initialize", start);
    return out;
  }

  sofia::StepResult StepLazy(const sofia::DenseTensor& y,
                             const sofia::Mask& omega,
                             std::shared_ptr<const sofia::CooList> pattern =
                                 nullptr) override {
    const uint64_t start = NowNs();
    sofia::StepResult out = inner_->StepLazy(y, omega, std::move(pattern));
    const uint64_t dur = Record(span_, start);
    slice_step_ns_ += dur;
    starts_.push_back(start);
    durations_.push_back(dur);
    return out;
  }

  sofia::DenseTensor Step(const sofia::DenseTensor& y,
                          const sofia::Mask& omega) override {
    return inner_->Step(y, omega);
  }
  sofia::DenseTensor Step(
      const sofia::DenseTensor& y, const sofia::Mask& omega,
      std::shared_ptr<const sofia::CooList> pattern) override {
    return inner_->Step(y, omega, std::move(pattern));
  }
  void Observe(const sofia::DenseTensor& y, const sofia::Mask& omega) override {
    const uint64_t start = NowNs();
    inner_->Observe(y, omega);
    slice_step_ns_ += Record(span_, start);
  }

  bool SupportsForecast() const override { return inner_->SupportsForecast(); }
  sofia::DenseTensor Forecast(size_t h) const override {
    return inner_->Forecast(h);
  }
  sofia::StepResult ForecastLazy(size_t h) const override {
    const uint64_t start = NowNs();
    sofia::StepResult out = inner_->ForecastLazy(h);
    Record("bench.forecast", start);
    return out;
  }

  bool SupportsStateCheckpoint() const override {
    return inner_->SupportsStateCheckpoint();
  }
  void SaveState(std::ostream& out) const override {
    const uint64_t start = NowNs();
    inner_->SaveState(out);
    save_ns_ += Record("bench.save_state", start);
  }
  void RestoreState(std::istream& in) override {
    const uint64_t start = NowNs();
    inner_->RestoreState(in);
    Record("bench.restore_state", start);
  }
  void AdoptWorkerPool(std::shared_ptr<sofia::WorkerPool> pool) override {
    inner_->AdoptWorkerPool(std::move(pool));
  }

  /// Step time accumulated since the last call, then reset: the replay loop
  /// reads it once per slice (a guard may step its inner method more than
  /// once for one slice, e.g. to advance the clock after a rollback).
  uint64_t TakeSliceStepNs() { return std::exchange(slice_step_ns_, 0); }
  /// SaveState time since the last call, then reset (the guard saves
  /// checkpoints from its StepLazy, so this is read per slice too).
  uint64_t TakeSaveNs() { return std::exchange(save_ns_, 0); }

  uint64_t init_ns() const { return init_ns_; }
  /// Start (trace clock) and duration of every StepLazy call, in order.
  const std::vector<uint64_t>& starts() const { return starts_; }
  const std::vector<uint64_t>& durations() const { return durations_; }
  uint64_t first_step_ns() const {
    return starts_.empty() ? UINT64_MAX : starts_.front();
  }

 private:
  /// Duration since `start`; also a trace span when tracing is on.
  static uint64_t Record(const char* span, uint64_t start) {
    const uint64_t dur = NowNs() - start;
    if (sofia::obs::TraceActive()) {
      sofia::obs::TraceRecord(span, start, dur, 0, nullptr);
    }
    return dur;
  }

  std::unique_ptr<sofia::StreamingMethod> inner_;
  const char* span_;
  uint64_t init_ns_ = 0;
  uint64_t slice_step_ns_ = 0;
  std::vector<uint64_t> starts_;
  std::vector<uint64_t> durations_;
  mutable uint64_t save_ns_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_TIMED_METHOD_H_
