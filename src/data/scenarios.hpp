#ifndef SOFIA_DATA_SCENARIOS_H_
#define SOFIA_DATA_SCENARIOS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "data/corruption.hpp"
#include "tensor/dense_tensor.hpp"

/// \file scenarios.hpp
/// \brief Adversarial corruption/drift scenario suite.
///
/// Corrupt() models one benign world: fixed Bernoulli missingness plus
/// i.i.d. element outliers. Real streams fail in structured ways, and a
/// robust-streaming comparison is only credible when methods are stressed
/// with them (Hawkins & Zhang 2018; Zhao et al. 2015). Each scenario
/// composes one structured failure mode on top of the element-wise
/// protocol:
///
///  - kClean: element-wise corruption only (the Corrupt() baseline).
///  - kBurstyOutage: every mode-0 row (sensor) follows a two-state Markov
///    chain (up -> down with `outage_fail_prob`, down -> up with
///    `outage_recover_prob`); down rows are fully missing. The drifting
///    masks exercise the runner's pattern rebuilds under realistic churn —
///    `outage_flips` records the per-step flip counts so tests can pin the
///    mask churn to the generated chain exactly.
///  - kRegimeChange: at step `regime_step` the ground truth's amplitude
///    scales by `regime_amplitude` — a mid-stream seasonal regime change
///    that invalidates every learned level/season. Scoring targets the
///    *transformed* truth (returned in `truth`).
///  - kStructuredOutliers: mode-aligned outlier bursts — a row starts a
///    burst with `burst_start_prob`, and for `burst_length` steps every
///    observed entry of that row carries the same ±magnitude offset (the
///    adversarial structure OR-MSTC targets and i.i.d. injection never
///    produces).
///  - kGarbageSlices: periodic malformed payloads past `garbage_offset`,
///    alternating NaN slices (caught by StreamGuard's input validation)
///    and huge-but-finite slices at `garbage_magnitude` x max|X| (caught
///    by the post-step health watch) — `fault_steps` records where.
///  - kCombinedStress: all of the above at once.
///
/// Generation is deterministic: the same (truth, options, seed) produces a
/// bitwise-identical stream (test-pinned), with every stage salted off the
/// one seed. All masks leave with primed count/hash caches, like Corrupt().

namespace sofia {

/// The scenario catalog (see file comment for semantics).
enum class ScenarioKind {
  kClean,
  kBurstyOutage,
  kRegimeChange,
  kStructuredOutliers,
  kGarbageSlices,
  kCombinedStress,
};

/// "clean", "bursty-outage", "regime-change", "structured-outliers",
/// "garbage-slices", "combined-stress".
const char* ScenarioName(ScenarioKind kind);
/// Inverse of ScenarioName (SOFIA_CHECK-fails on unknown names).
ScenarioKind ParseScenario(const std::string& name);
/// Every scenario, catalog order.
std::vector<ScenarioKind> ScenarioCatalog();

/// Knobs of MakeScenario. Defaults give each scenario a clearly visible
/// failure mode on the small synthetic streams of the bench/tests.
struct ScenarioOptions {
  /// Element-wise substrate applied by every scenario (kClean is exactly
  /// this). Structured-outlier scenarios drop its i.i.d. outlier part and
  /// keep only the missingness.
  CorruptionSetting element{20.0, 5.0, 2.0};

  // kBurstyOutage: the per-row two-state Markov chain.
  double outage_fail_prob = 0.05;    ///< P(up -> down) per row, per step.
  double outage_recover_prob = 0.5;  ///< P(down -> up) per row, per step.

  // kRegimeChange.
  double regime_fraction = 0.5;    ///< Change point as a fraction of T.
  double regime_amplitude = 3.0;   ///< Truth scale factor after the change.

  // kStructuredOutliers.
  double burst_start_prob = 0.03;  ///< Per-row, per-step burst start.
  size_t burst_length = 3;         ///< Steps a burst lasts.
  double burst_magnitude = 4.0;    ///< Offset in units of max|X|.

  // kGarbageSlices.
  size_t garbage_offset = 16;      ///< First garbage step (choose it past
                                   ///< every method's init window).
  size_t garbage_every = 12;       ///< Spacing between garbage slices.
  double garbage_magnitude = 1e6;  ///< Scale of the huge-finite payloads.
};

/// One generated scenario: the corrupted stream plus the ground truth to
/// score against and the injection bookkeeping the recovery metrics need.
struct ScenarioStream {
  std::string name;                 ///< ScenarioName(kind).
  ScenarioKind kind = ScenarioKind::kClean;
  CorruptedStream stream;           ///< What the methods consume.
  std::vector<DenseTensor> truth;   ///< Scoring target (regime-transformed
                                    ///< for kRegimeChange/kCombinedStress).
  std::vector<size_t> fault_steps;  ///< Garbage-slice indices, ascending.
  /// Per step: number of rows whose Markov outage state flipped (empty for
  /// scenarios without outages). Flips x the mode-0 row volume is exactly
  /// the mask delta the runner's telemetry must report.
  std::vector<size_t> outage_flips;
  size_t regime_step = 0;           ///< First transformed step (0 = none).
};

/// Generates `kind` over a ground-truth stream. Deterministic in
/// (truth, options, seed).
ScenarioStream MakeScenario(ScenarioKind kind,
                            const std::vector<DenseTensor>& truth,
                            const ScenarioOptions& options, uint64_t seed);

}  // namespace sofia

#endif  // SOFIA_DATA_SCENARIOS_H_
