#include "eval/stream_guard.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <utility>

#include "eval/metrics.hpp"
#include "obs/obs.hpp"
#include "tensor/coo_list.hpp"
#include "util/check.hpp"
#include "util/state_io.hpp"

namespace sofia {

namespace {

/// Registry mirrors of GuardTelemetry (the struct stays as the per-run
/// compatibility view; these accumulate process-wide for the stats
/// emitter and obs_report).
struct GuardMetrics {
  obs::Counter* steps;
  obs::Counter* validation_passes;
  obs::Counter* input_trips;
  obs::Counter* health_trips;
  obs::Counter* skips;
  obs::Counter* rollbacks;
  obs::Counter* reinits;
  obs::Counter* checkpoints;
  obs::Counter* recoveries;
  obs::Counter* checkpoint_time_us;
  obs::Histogram* checkpoint_us;
};

GuardMetrics& Gm() {
  obs::Registry& r = obs::Registry::Global();
  static GuardMetrics m{
      r.FindOrCreateCounter("guard.steps"),
      r.FindOrCreateCounter("guard.validation_passes"),
      r.FindOrCreateCounter("guard.input_trips"),
      r.FindOrCreateCounter("guard.health_trips"),
      r.FindOrCreateCounter("guard.skips"),
      r.FindOrCreateCounter("guard.rollbacks"),
      r.FindOrCreateCounter("guard.reinits"),
      r.FindOrCreateCounter("guard.checkpoints"),
      r.FindOrCreateCounter("guard.recoveries"),
      r.FindOrCreateCounter("time.guard.checkpoint_us"),
      r.FindOrCreateHistogram("guard.checkpoint_us"),
  };
  return m;
}

/// streambuf that appends straight into a caller-owned string. Checkpoint
/// slots pass their ring string here so a save serializes in place and
/// reuses the slot's capacity — the previous ostringstream + `out.str()`
/// deep copy allocated twice per accepted step and dominated guarded wall
/// time for O(state)-heavy methods.
class StringSink : public std::streambuf {
 public:
  explicit StringSink(std::string* out) : out_(out) {}

 protected:
  int_type overflow(int_type ch) override {
    if (!traits_type::eq_int_type(ch, traits_type::eof())) {
      out_->push_back(traits_type::to_char_type(ch));
    }
    return traits_type::not_eof(ch);
  }
  std::streamsize xsputn(const char* s, std::streamsize n) override {
    out_->append(s, static_cast<size_t>(n));
    return n;
  }

 private:
  std::string* out_;
};

/// Serializes `method` state into `slot`, reusing its capacity, and times
/// it into the checkpoint histogram.
void SerializeInto(const StreamingMethod& method, std::string* slot) {
  const bool measured = obs::Enabled() || obs::TraceActive();
  const uint64_t start = measured ? obs::NowNs() : 0;
  slot->clear();
  StringSink sink(slot);
  std::ostream out(&sink);
  method.SaveState(out);
  if (measured) {
    const uint64_t dur = obs::NowNs() - start;
    Gm().checkpoint_time_us->Add(dur / 1000);
    Gm().checkpoint_us->Observe(static_cast<double>(dur) / 1e3);
    if (obs::TraceActive()) {
      obs::TraceRecord("guard.checkpoint", start, dur, slot->size(), "bytes");
    }
  }
}

constexpr const char* kGuardStateTag = "stream-guard";
constexpr int kGuardStateVersion = 1;

void WriteWindow(std::ostream& out, const std::deque<double>& window) {
  state_io::WriteVector(out, std::vector<double>(window.begin(), window.end()));
}

/// A rolling window of at most `cap` values (the guard never keeps more).
std::deque<double> ReadWindow(std::istream& in, size_t cap) {
  const std::vector<double> values = state_io::ReadVector(in);
  state_io::Require(values.size() <= cap,
                    "corrupt stream-guard checkpoint (window)");
  return std::deque<double>(values.begin(), values.end());
}

/// True when the next token of `in` is `tag`; `in` is left where it was.
bool StartsWithTag(std::istream& in, const char* tag) {
  const std::streampos start = in.tellg();
  state_io::Require(start != std::streampos(-1),
                    "stream-guard checkpoint stream is not seekable");
  std::string first;
  in >> first;
  in.clear();
  in.seekg(start);
  return first == tag;
}

template <typename T>
T ReadField(std::istream& in) {
  T value{};
  state_io::Require(static_cast<bool>(in >> value),
                    "corrupt stream-guard checkpoint");
  return value;
}

double WindowMean(const std::deque<double>& window) {
  if (window.empty()) return 0.0;
  double sum = 0.0;
  for (double v : window) sum += v;
  return sum / static_cast<double>(window.size());
}

double WindowMax(const std::deque<double>& window) {
  double max_v = 0.0;
  for (double v : window) max_v = std::max(max_v, v);
  return max_v;
}

}  // namespace

const char* GuardPolicyName(GuardPolicy policy) {
  switch (policy) {
    case GuardPolicy::kSkipSlice:
      return "skip";
    case GuardPolicy::kRollback:
      return "rollback";
    case GuardPolicy::kReinit:
      return "reinit";
  }
  return "unknown";
}

GuardPolicy ParseGuardPolicy(const std::string& name) {
  if (name == "skip") return GuardPolicy::kSkipSlice;
  if (name == "rollback") return GuardPolicy::kRollback;
  if (name == "reinit") return GuardPolicy::kReinit;
  SOFIA_CHECK(false) << "unknown guard policy '" << name
                     << "' (expected skip | rollback | reinit)";
  return GuardPolicy::kSkipSlice;
}

StreamGuard::StreamGuard(std::unique_ptr<StreamingMethod> inner,
                         StreamGuardOptions options)
    : inner_(std::move(inner)), options_(options) {
  SOFIA_CHECK(inner_ != nullptr) << "StreamGuard needs a method to wrap";
  ring_.resize(options_.checkpoint_slots);
}

bool StreamGuard::CanCheckpoint() const {
  return inner_->SupportsStateCheckpoint() && options_.checkpoint_slots > 0;
}

void StreamGuard::SaveCheckpoint() {
  const size_t slot = ring_saved_ % ring_.size();
  ++ring_saved_;
  ++telemetry_.checkpoints_saved;
  Gm().checkpoints->Add(1);
  // A fresh health-accepted checkpoint is the new best rollback target:
  // restart any in-episode walk-back from it.
  episode_rollback_depth_ = 0;
  SerializeInto(*inner_, &ring_[slot]);
}

void StreamGuard::CaptureReinitSnapshot() {
  SerializeInto(*inner_, &reinit_snapshot_);
}

void StreamGuard::SaveState(std::ostream& out) const {
  state_io::BeginState(out, kGuardStateTag, kGuardStateVersion);
  state_io::WriteShape(out, expected_shape_);
  WriteWindow(out, payload_window_);
  WriteWindow(out, nre_window_);
  WriteWindow(out, norm_window_);
  out << accepted_steps_ << ' ' << (in_fault_ ? 1 : 0) << ' '
      << steps_since_fault_ << ' ' << frozen_baseline_ << ' '
      << episode_rollback_depth_ << ' ' << steps_since_checkpoint_ << '\n';
  inner_->SaveState(out);
}

void StreamGuard::RestoreState(std::istream& in) {
  // Parse everything before assigning anything, so a corrupt checkpoint
  // leaves the guard as it was. A checkpoint without the guard's header was
  // written before the guard saved state of its own and holds the inner
  // state alone: the decision state then starts fresh, as it did there.
  Shape shape;
  std::deque<double> payload, nre, norm;
  size_t accepted = 0, since_fault = 0, rollback_depth = 0;
  size_t since_checkpoint = 0;
  int in_fault = 0;
  double baseline = 0.0;
  if (StartsWithTag(in, kGuardStateTag)) {
    state_io::ReadStateHeader(in, kGuardStateTag, kGuardStateVersion);
    shape = state_io::ReadShape(in);
    const size_t cap = options_.health_window;
    payload = ReadWindow(in, cap);
    nre = ReadWindow(in, cap);
    norm = ReadWindow(in, cap);
    accepted = ReadField<size_t>(in);
    in_fault = ReadField<int>(in);
    state_io::Require(in_fault == 0 || in_fault == 1,
                      "corrupt stream-guard checkpoint (fault flag)");
    since_fault = ReadField<size_t>(in);
    baseline = ReadField<double>(in);
    rollback_depth = ReadField<size_t>(in);
    since_checkpoint = ReadField<size_t>(in);
  }
  inner_->RestoreState(in);

  expected_shape_ = std::move(shape);
  payload_window_ = std::move(payload);
  nre_window_ = std::move(nre);
  norm_window_ = std::move(norm);
  accepted_steps_ = accepted;
  in_fault_ = in_fault == 1;
  steps_since_fault_ = since_fault;
  frozen_baseline_ = baseline;
  episode_rollback_depth_ = rollback_depth;
  steps_since_checkpoint_ = since_checkpoint;
  ring_saved_ = 0;  // The ring's states belong to another timeline.
}

std::vector<DenseTensor> StreamGuard::Initialize(
    const std::vector<DenseTensor>& slices, const std::vector<Mask>& masks) {
  // Init is an offline batch: a non-finite value here is a data bug the
  // caller must fix (the stream_io loader rejects them too), not a stream
  // fault to degrade around — so validation fails fast.
  for (size_t t = 0; t < slices.size(); ++t) {
    SOFIA_CHECK(t >= masks.size() ||
                slices[t].shape() == masks[t].shape())
        << name() << ": init slice " << t << " shape "
        << slices[t].shape().ToString() << " != mask shape";
    ++telemetry_.validation_passes;
    Gm().validation_passes->Add(1);
    const DenseTensor& slice = slices[t];
    const Mask& mask = masks[t];
    double slice_max = 0.0;
    for (size_t k = 0; k < slice.NumElements(); ++k) {
      SOFIA_CHECK(!mask.Get(k) || std::isfinite(slice[k]))
          << name() << ": init slice " << t
          << " contains a non-finite observed value";
      if (mask.Get(k)) slice_max = std::max(slice_max, std::fabs(slice[k]));
    }
    // Seed the payload-scale baseline so the watch is armed from the very
    // first streamed slice.
    payload_window_.push_back(slice_max);
    if (payload_window_.size() > options_.health_window) {
      payload_window_.pop_front();
    }
  }
  std::vector<DenseTensor> completed = inner_->Initialize(slices, masks);
  if (!slices.empty()) expected_shape_ = slices.front().shape();
  if (CanCheckpoint()) CaptureReinitSnapshot();
  return completed;
}

void StreamGuard::BeginFault() {
  if (!in_fault_) {
    frozen_baseline_ = nre_window_.empty() ? options_.nre_floor
                                           : WindowMean(nre_window_);
    in_fault_ = true;
  }
  steps_since_fault_ = 0;
}

bool StreamGuard::DegradeState() {
  switch (options_.policy) {
    case GuardPolicy::kSkipSlice:
      ++telemetry_.skips;
      Gm().skips->Add(1);
      return false;
    case GuardPolicy::kRollback: {
      // Walk back through the ring across consecutive trips of one fault
      // episode: the first trip restores the newest slot, a renewed trip
      // (the restored checkpoint was itself poisoned, so the next step
      // tripped again) the one before it, and so on until the ring's
      // history is exhausted — then fall through to the reinit snapshot.
      const size_t available = std::min(ring_saved_, ring_.size());
      if (CanCheckpoint() && episode_rollback_depth_ < available) {
        const size_t slot =
            (ring_saved_ - 1 - episode_rollback_depth_) % ring_.size();
        ++episode_rollback_depth_;
        std::istringstream in(ring_[slot]);
        inner_->RestoreState(in);
        ++telemetry_.rollbacks;
        Gm().rollbacks->Add(1);
        // The restored state predates the steps accepted since that save.
        steps_since_checkpoint_ = 0;
        return true;  // The restored clock lags the stream by one slice.
      }
      break;  // History exhausted: fall through to the reinit snapshot.
    }
    case GuardPolicy::kReinit:
      break;
  }
  if (!reinit_snapshot_.empty()) {
    std::istringstream in(reinit_snapshot_);
    inner_->RestoreState(in);
    if (options_.policy == GuardPolicy::kRollback) {
      ++telemetry_.rollbacks;
      Gm().rollbacks->Add(1);
    } else {
      ++telemetry_.reinits;
      Gm().reinits->Add(1);
    }
    return false;  // A reinit resets the phase; there is nothing to align.
  }
  ++telemetry_.skips;  // Nothing to restore: state keeps whatever it has.
  Gm().skips->Add(1);
  return false;
}

void StreamGuard::AdvanceInnerClock() {
  if (expected_shape_.order() == 0) return;  // No valid slice seen yet.
  inner_->StepLazy(DenseTensor(expected_shape_), Mask(expected_shape_, false));
}

StepResult StreamGuard::DegradedEstimate(const Shape& shape) {
  // Forecast-imputation needs a method that both forecasts and has seen
  // data; otherwise an all-zero estimate keeps the score finite (NRE <= 1).
  // The horizon is always 1: faulted slices advance the inner clock, so
  // the model's "now" tracks the stream even across fault runs.
  const bool has_state = accepted_steps_ > 0 || inner_->init_window() > 0;
  if (inner_->SupportsForecast() && has_state) {
    return inner_->ForecastLazy(1);
  }
  return StepResult::Dense(DenseTensor(shape));
}

bool StreamGuard::Healthy(double probe_nre, double norm) const {
  if (!std::isfinite(probe_nre) || !std::isfinite(norm)) return false;
  if (accepted_steps_ < options_.min_history) return true;  // Warm-up.
  const double nre_base =
      std::max(WindowMean(nre_window_), options_.nre_floor);
  if (probe_nre > options_.nre_spike_factor * nre_base) return false;
  const double norm_base = WindowMax(norm_window_);
  if (norm_base > 0.0 &&
      norm > options_.norm_explosion_factor * norm_base) {
    return false;
  }
  return true;
}

void StreamGuard::AcceptStep(double probe_nre, double norm) {
  nre_window_.push_back(probe_nre);
  if (nre_window_.size() > options_.health_window) nre_window_.pop_front();
  norm_window_.push_back(norm);
  if (norm_window_.size() > options_.health_window) norm_window_.pop_front();
  ++accepted_steps_;
  if (in_fault_) {
    ++steps_since_fault_;
    const double threshold = options_.recover_factor *
                             std::max(frozen_baseline_, options_.nre_floor);
    if (probe_nre <= threshold) {
      in_fault_ = false;
      ++telemetry_.recoveries;
      Gm().recoveries->Add(1);
      telemetry_.steps_to_recover.push_back(steps_since_fault_);
      steps_since_fault_ = 0;
      episode_rollback_depth_ = 0;  // The episode's walk-back is over.
    }
  }
}

StepResult StreamGuard::StepLazy(const DenseTensor& y, const Mask& omega,
                                 std::shared_ptr<const CooList> pattern) {
  ++telemetry_.steps;
  Gm().steps->Add(1);
  // Init-less methods: their pristine state is the kReinit target, captured
  // before the first slice can touch it.
  if (reinit_snapshot_.empty() && CanCheckpoint()) CaptureReinitSnapshot();

  // --- Layer 1a: shape validation (O(1)) -------------------------------
  const bool shape_ok =
      y.shape() == omega.shape() &&
      (expected_shape_.order() == 0 || y.shape() == expected_shape_) &&
      (pattern == nullptr || pattern->shape() == y.shape());
  if (!shape_ok) {
    ++telemetry_.input_trips;
    Gm().input_trips->Add(1);
    BeginFault();
    ++telemetry_.skips;
    Gm().skips->Add(1);
    StepResult degraded = DegradedEstimate(
        expected_shape_.order() != 0 ? expected_shape_ : y.shape());
    AdvanceInnerClock();  // Keep the inner phase aligned with the stream.
    return degraded;
  }
  if (expected_shape_.order() == 0) expected_shape_ = y.shape();

  // --- Layer 1b: the single O(|Ω|) payload scan ------------------------
  // Doubles as the collection pass of the strided health probe, so the
  // probe values come for free. It walks the observed entries in ascending
  // order: the pattern's records, or, in standalone use (handed no
  // pattern), the mask itself. The inner method then gets no pattern
  // either, so its own cache (SofiaModel::StepPattern,
  // ObservedSweep::BeginStep) still serves a run of repeated masks.
  ++telemetry_.validation_passes;
  Gm().validation_passes->Add(1);
  const size_t nnz =
      pattern != nullptr ? pattern->nnz() : omega.CountObserved();
  const size_t probe_cap = std::max<size_t>(1, options_.health_probe_entries);
  const size_t stride = std::max<size_t>(1, nnz / probe_cap);
  probe_linear_.clear();
  probe_scratch_.clear();
  double slice_max = 0.0;
  size_t k = 0;
  auto scan = [&](size_t linear) {
    const double v = y[linear];
    if (!std::isfinite(v)) return false;
    slice_max = std::max(slice_max, std::fabs(v));
    if (k++ % stride == 0 && probe_linear_.size() < probe_cap) {
      probe_linear_.push_back(linear);
      probe_scratch_.push_back(v);
    }
    return true;
  };
  bool finite = true;
  if (pattern != nullptr) {
    for (size_t i = 0; i < nnz && finite; ++i) {
      finite = scan(pattern->LinearIndex(i));
    }
  } else {
    const uint8_t* observed = omega.data();
    const size_t volume = omega.shape().NumElements();
    for (size_t linear = 0; linear < volume && finite; ++linear) {
      if (observed[linear] != 0) finite = scan(linear);
    }
  }
  // Payload-scale watch: huge-but-finite garbage saturates the NRE probe
  // near 1 (the garbage is the *reference*), so it must be caught here by
  // magnitude, before the inner method sees it.
  const double payload_base = WindowMax(payload_window_);
  const bool payload_ok =
      options_.payload_explosion_factor <= 0.0 || payload_base <= 0.0 ||
      slice_max <= options_.payload_explosion_factor * payload_base;
  if (!finite || nnz == 0 || !payload_ok) {
    ++telemetry_.input_trips;
    Gm().input_trips->Add(1);
    BeginFault();
    ++telemetry_.skips;  // Input never reached the inner method: state is
                         // clean, every policy degrades by skipping.
    Gm().skips->Add(1);
    StepResult degraded = DegradedEstimate(y.shape());
    AdvanceInnerClock();  // Keep the inner phase aligned with the stream.
    return degraded;
  }

  // --- The actual step --------------------------------------------------
  StepResult result = inner_->StepLazy(y, omega, pattern);

  // --- Layer 2: health watch -------------------------------------------
  const double norm = result.MaxAbsComponent();
  GatheredError probe;
  for (size_t i = 0; i < probe_linear_.size(); ++i) {
    expected_shape_.DelinearizeInto(probe_linear_[i], &probe_idx_);
    const double estimate = result.at(probe_idx_);
    const double reference = probe_scratch_[i];
    probe.err_sq += (estimate - reference) * (estimate - reference);
    probe.ref_sq += reference * reference;
    ++probe.count;
  }
  const double probe_nre = GatheredNre(probe);
  if (!Healthy(probe_nre, norm)) {
    ++telemetry_.health_trips;
    Gm().health_trips->Add(1);
    BeginFault();
    const bool rolled_back = DegradeState();
    StepResult degraded = DegradedEstimate(y.shape());
    // A rollback restores a clock that has not yet consumed this slice;
    // advance it (kSkipSlice's inner already consumed it, and kReinit
    // deliberately resets phase).
    if (rolled_back) AdvanceInnerClock();
    return degraded;
  }

  // --- Layer 3: accept + checkpoint cadence ----------------------------
  AcceptStep(probe_nre, norm);
  payload_window_.push_back(slice_max);
  if (payload_window_.size() > options_.health_window) {
    payload_window_.pop_front();
  }
  if (CanCheckpoint()) {
    ++steps_since_checkpoint_;
    if (steps_since_checkpoint_ >= options_.checkpoint_every) {
      SaveCheckpoint();
      steps_since_checkpoint_ = 0;
    }
  }
  return result;
}

}  // namespace sofia
