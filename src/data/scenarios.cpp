#include "data/scenarios.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/check.hpp"
#include "util/rng.hpp"

namespace sofia {

namespace {

// Stage salts: every stochastic stage draws from its own generator so the
// scenarios stay bitwise reproducible from one seed and adding a stage
// never perturbs the others.
constexpr uint64_t kOutageSalt = 0x0a17a6eULL;
constexpr uint64_t kBurstSalt = 0x0b1257ULL;

/// Re-prime the masks' observed-count caches after post-Corrupt()
/// mutations (the Set()s invalidate them); same rationale as the
/// corruption builders.
void PrimeMaskCaches(CorruptedStream* stream) {
  for (const Mask& m : stream->masks) m.CountObserved();
}

/// Markov bursty outages: each mode-0 row is an up/down chain; down rows
/// are fully missing. Records the per-step flip counts in `out`.
void ApplyMarkovOutages(ScenarioStream* out, const ScenarioOptions& options,
                       uint64_t seed) {
  CorruptedStream& stream = out->stream;
  SOFIA_CHECK(!stream.slices.empty());
  const Shape& slice_shape = stream.slices[0].shape();
  SOFIA_CHECK_GE(slice_shape.order(), 1u);
  const size_t rows = slice_shape.dim(0);

  Rng rng(seed ^ kOutageSalt);
  std::vector<uint8_t> down(rows, 0);
  std::vector<size_t> idx(slice_shape.order(), 0);
  out->outage_flips.assign(stream.slices.size(), 0);
  for (size_t t = 0; t < stream.slices.size(); ++t) {
    size_t flips = 0;
    bool any_down = false;
    for (size_t i = 0; i < rows; ++i) {
      if (down[i] == 0) {
        if (rng.Bernoulli(options.outage_fail_prob)) {
          down[i] = 1;
          ++flips;
        }
      } else if (rng.Bernoulli(options.outage_recover_prob)) {
        down[i] = 0;
        ++flips;
      }
      any_down = any_down || down[i] != 0;
    }
    out->outage_flips[t] = flips;
    if (!any_down) continue;
    Mask& mask = stream.masks[t];
    idx.assign(slice_shape.order(), 0);
    for (size_t linear = 0; linear < slice_shape.NumElements(); ++linear) {
      if (down[idx[0]] != 0) mask.Set(linear, false);
      slice_shape.Next(&idx);
    }
  }
}

/// Mode-aligned outlier bursts: a row in a burst offsets every observed
/// entry by the burst's ±magnitude for its whole duration.
void ApplyStructuredOutliers(ScenarioStream* out,
                             const ScenarioOptions& options, uint64_t seed) {
  CorruptedStream& stream = out->stream;
  const Shape& slice_shape = stream.slices[0].shape();
  SOFIA_CHECK_GE(slice_shape.order(), 1u);
  const size_t rows = slice_shape.dim(0);
  const double magnitude = options.burst_magnitude * stream.max_abs;

  Rng rng(seed ^ kBurstSalt);
  std::vector<size_t> remaining(rows, 0);
  std::vector<double> offset(rows, 0.0);
  std::vector<size_t> idx(slice_shape.order(), 0);
  for (size_t t = 0; t < stream.slices.size(); ++t) {
    bool any_burst = false;
    for (size_t i = 0; i < rows; ++i) {
      if (remaining[i] == 0 && rng.Bernoulli(options.burst_start_prob)) {
        remaining[i] = options.burst_length;
        offset[i] = rng.Bernoulli(0.5) ? magnitude : -magnitude;
      }
      any_burst = any_burst || remaining[i] > 0;
    }
    if (any_burst) {
      DenseTensor& y = stream.slices[t];
      const Mask& mask = stream.masks[t];
      Mask& outlier = stream.outlier_positions[t];
      idx.assign(slice_shape.order(), 0);
      for (size_t linear = 0; linear < slice_shape.NumElements(); ++linear) {
        if (remaining[idx[0]] > 0) {
          y[linear] += offset[idx[0]];
          // An outlier is only "injected" where it is observable.
          if (mask.Get(linear)) outlier.Set(linear, true);
        }
        slice_shape.Next(&idx);
      }
    }
    for (size_t i = 0; i < rows; ++i) {
      if (remaining[i] > 0) --remaining[i];
    }
  }
}

/// Periodic malformed payloads past the init window, alternating NaN
/// slices (input-validation faults) and huge-but-finite slices
/// (health-watch faults). Only observed entries are poisoned — missing
/// entries never reach a method anyway.
void InjectGarbageSlices(ScenarioStream* out, const ScenarioOptions& options) {
  CorruptedStream& stream = out->stream;
  const double huge =
      options.garbage_magnitude * std::max(stream.max_abs, 1.0);
  bool use_nan = true;
  for (size_t t = options.garbage_offset; t < stream.slices.size();
       t += std::max<size_t>(1, options.garbage_every)) {
    DenseTensor& y = stream.slices[t];
    const Mask& mask = stream.masks[t];
    const double payload =
        use_nan ? std::numeric_limits<double>::quiet_NaN() : huge;
    for (size_t k = 0; k < y.NumElements(); ++k) {
      if (mask.Get(k)) y[k] = payload;
    }
    out->fault_steps.push_back(t);
    use_nan = !use_nan;
  }
}

/// Amplitude regime change on the ground truth itself, from `regime_step`
/// on. The caller scores against the transformed truth.
void ApplyRegimeChange(std::vector<DenseTensor>* truth, size_t regime_step,
                       double amplitude) {
  for (size_t t = regime_step; t < truth->size(); ++t) {
    DenseTensor& slice = (*truth)[t];
    for (size_t k = 0; k < slice.NumElements(); ++k) slice[k] *= amplitude;
  }
}

}  // namespace

const char* ScenarioName(ScenarioKind kind) {
  switch (kind) {
    case ScenarioKind::kClean:
      return "clean";
    case ScenarioKind::kBurstyOutage:
      return "bursty-outage";
    case ScenarioKind::kRegimeChange:
      return "regime-change";
    case ScenarioKind::kStructuredOutliers:
      return "structured-outliers";
    case ScenarioKind::kGarbageSlices:
      return "garbage-slices";
    case ScenarioKind::kCombinedStress:
      return "combined-stress";
  }
  return "unknown";
}

ScenarioKind ParseScenario(const std::string& name) {
  for (ScenarioKind kind : ScenarioCatalog()) {
    if (name == ScenarioName(kind)) return kind;
  }
  SOFIA_CHECK(false) << "unknown scenario '" << name
                     << "' (expected clean | bursty-outage | regime-change | "
                        "structured-outliers | garbage-slices | "
                        "combined-stress)";
  return ScenarioKind::kClean;
}

std::vector<ScenarioKind> ScenarioCatalog() {
  return {ScenarioKind::kClean,
          ScenarioKind::kBurstyOutage,
          ScenarioKind::kRegimeChange,
          ScenarioKind::kStructuredOutliers,
          ScenarioKind::kGarbageSlices,
          ScenarioKind::kCombinedStress};
}

ScenarioStream MakeScenario(ScenarioKind kind,
                            const std::vector<DenseTensor>& truth,
                            const ScenarioOptions& options, uint64_t seed) {
  SOFIA_CHECK(!truth.empty());
  ScenarioStream out;
  out.name = ScenarioName(kind);
  out.kind = kind;
  out.truth = truth;

  // Regime change transforms the ground truth itself, before corruption.
  if (kind == ScenarioKind::kRegimeChange ||
      kind == ScenarioKind::kCombinedStress) {
    out.regime_step = std::max<size_t>(
        1, static_cast<size_t>(options.regime_fraction *
                               static_cast<double>(truth.size())));
    ApplyRegimeChange(&out.truth, out.regime_step, options.regime_amplitude);
  }

  // Element-wise substrate. Structured-outlier scenarios replace the
  // i.i.d. outliers with their bursts and keep only the missingness.
  CorruptionSetting element = options.element;
  if (kind == ScenarioKind::kStructuredOutliers ||
      kind == ScenarioKind::kCombinedStress) {
    element.outlier_percent = 0.0;
    element.magnitude = 0.0;
  }
  out.stream = Corrupt(out.truth, element, seed);

  if (kind == ScenarioKind::kBurstyOutage ||
      kind == ScenarioKind::kCombinedStress) {
    ApplyMarkovOutages(&out, options, seed);
  }
  if (kind == ScenarioKind::kStructuredOutliers ||
      kind == ScenarioKind::kCombinedStress) {
    ApplyStructuredOutliers(&out, options, seed);
  }
  if (kind == ScenarioKind::kGarbageSlices ||
      kind == ScenarioKind::kCombinedStress) {
    InjectGarbageSlices(&out, options);
  }

  PrimeMaskCaches(&out.stream);
  return out;
}

}  // namespace sofia
