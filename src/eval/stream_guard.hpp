#ifndef SOFIA_EVAL_STREAM_GUARD_H_
#define SOFIA_EVAL_STREAM_GUARD_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "eval/streaming_method.hpp"

/// \file stream_guard.hpp
/// \brief Fault-tolerance wrapper for any StreamingMethod.
///
/// A long-running stream eventually delivers bad input — NaN payloads from a
/// broken sensor, an all-missing blackout slice, a mis-shaped record — and a
/// single such slice silently poisons every downstream factor of an
/// unprotected method. StreamGuard wraps a method with three layers:
///
///  1. *Input validation*: every incoming slice pays one O(|Ω|) pass that
///     rejects NaN/Inf payloads, empty Ω, shape mismatches, and payload
///     scale explosions (max |y| beyond `payload_explosion_factor` x the
///     rolling max — huge-but-finite garbage) BEFORE the inner method sees
///     them, so invalid input can never corrupt state. A rejected slice
///     still advances the inner method's clock with an empty-Ω step, so
///     seasonal phase stays aligned with the stream.
///  2. *Health watch*: after each accepted step, the factor norms
///     (StepResult::MaxAbsComponent, O(sum I_n R)) and a strided ≤
///     `health_probe_entries` observed-NRE probe are compared against
///     rolling baselines; explosions and spikes trip the guard.
///  3. *Degradation policy* on trip: `kSkipSlice` returns a forecast-imputed
///     estimate and moves on; `kRollback` additionally restores the newest
///     ring-buffer checkpoint (StreamingMethod::RestoreState); `kReinit`
///     restores the post-Initialize snapshot. Input-validation trips never
///     reach the inner method, so state stays clean under every policy and
///     only the returned estimate degrades.
///
/// Clean-stream overhead is one O(|Ω|) validation scan per slice plus
/// O(probe N R) health probes and, every `checkpoint_every` accepted
/// steps, an O(state) checkpoint serialized on the calling thread —
/// never an extra pattern build, estimate materialization, or O(volume)
/// pass (counter-verified in tests/stream_guard_test.cc). Handed no
/// pattern (standalone use), the scan walks the mask's indicator bytes
/// instead of a pattern's records, and the inner method builds or reuses
/// its own pattern.
///
/// Recovery metric: a trip opens a fault episode; each later slice
/// increments the episode's step count (renewed trips reset it); the
/// episode closes when an accepted step's NRE probe returns to
/// `recover_factor` x the pre-fault baseline, recording steps-to-recover.

namespace sofia {

/// What the guard does to the inner method's state when it trips on a
/// *health* fault (input faults never touch state).
enum class GuardPolicy {
  kSkipSlice,  ///< Keep state as-is; only the returned estimate degrades.
  kRollback,   ///< Restore the newest ring-buffer checkpoint.
  kReinit,     ///< Restore the post-Initialize snapshot.
};

const char* GuardPolicyName(GuardPolicy policy);
/// Parses "skip" / "rollback" / "reinit" (SOFIA_CHECK-fails otherwise).
GuardPolicy ParseGuardPolicy(const std::string& name);

/// Knobs of StreamGuard.
struct StreamGuardOptions {
  GuardPolicy policy = GuardPolicy::kRollback;

  // Health watch.
  /// Trip when the NRE probe exceeds this factor x the rolling baseline.
  double nre_spike_factor = 10.0;
  /// Rolling window (accepted steps) behind the NRE/norm baselines.
  size_t health_window = 8;
  /// Accepted steps required before health trips can fire (warm-up).
  size_t min_history = 3;
  /// Baseline floor: spike thresholds never drop below spike_factor x this,
  /// so near-perfect streams don't trip on harmless wiggle.
  double nre_floor = 0.05;
  /// Trip when MaxAbsComponent exceeds this factor x the rolling norm max.
  double norm_explosion_factor = 1e3;
  /// Cap on entries read by the per-step NRE probe (strided over Ω).
  size_t health_probe_entries = 256;
  /// Input-layer payload-scale watch: a slice whose max |y| exceeds this
  /// factor x the rolling max of accepted slices is garbage and is rejected
  /// before the inner method sees it (0 disables). This catches
  /// huge-but-finite payloads the NRE probe cannot — against a huge
  /// reference the probe NRE saturates near 1, inside the spike threshold
  /// of any noisy baseline.
  double payload_explosion_factor = 100.0;

  // Checkpointing (kRollback / kReinit; ignored when the inner method
  // does not support state checkpoints).
  /// Save a ring checkpoint every k-th accepted step. A rollback then loses
  /// at most `checkpoint_every - 1` accepted steps; the default trades that
  /// bounded loss for 1/4 the O(state) serialization traffic (per-step
  /// checkpointing dominated guarded wall time for history-refit methods).
  size_t checkpoint_every = 4;
  /// Ring-buffer slots (oldest overwritten). The first rollback of a fault
  /// episode restores the newest slot; repeated trips within the episode
  /// walk back to strictly older slots before falling to the reinit
  /// snapshot, so a poisoned checkpoint is never restored twice in a row.
  size_t checkpoint_slots = 4;

  /// A fault episode ends when the NRE probe returns under this factor x
  /// the frozen pre-fault baseline.
  double recover_factor = 2.0;
};

/// Trip/recovery counters of one guarded run (all zero on clean streams
/// except steps/validation_passes/checkpoints_saved).
struct GuardTelemetry {
  size_t steps = 0;             ///< StepLazy calls seen by the guard.
  size_t validation_passes = 0; ///< O(|Ω|) input scans (== slices seen).
  size_t input_trips = 0;       ///< NaN/Inf payload, empty Ω, shape mismatch.
  size_t health_trips = 0;      ///< Norm explosion or NRE spike post-step.
  size_t skips = 0;             ///< Trips resolved by skip (incl. input trips).
  size_t rollbacks = 0;         ///< Ring-checkpoint restores.
  size_t reinits = 0;           ///< Post-Initialize snapshot restores.
  size_t checkpoints_saved = 0; ///< Ring writes (wraps after slots).
  size_t recoveries = 0;        ///< Fault episodes closed.
  /// Per closed episode: slices from the last trip until the NRE probe
  /// returned to baseline (1 = the very next slice was already healthy).
  std::vector<size_t> steps_to_recover;
};

/// Wraps (and owns) a StreamingMethod, adding validation, health watch,
/// checkpoint rotation, and degrade-on-trip. Forwards everything else.
class StreamGuard : public StreamingMethod {
 public:
  explicit StreamGuard(std::unique_ptr<StreamingMethod> inner,
                       StreamGuardOptions options = {});

  std::string name() const override { return inner_->name() + "+guard"; }
  size_t init_window() const override { return inner_->init_window(); }

  /// Forwards to the inner method after fail-fast validating the window
  /// (init is offline — bad input there is a data bug, not a stream fault),
  /// then captures the kReinit snapshot and seeds the checkpoint ring.
  std::vector<DenseTensor> Initialize(
      const std::vector<DenseTensor>& slices,
      const std::vector<Mask>& masks) override;

  StepResult StepLazy(const DenseTensor& y, const Mask& omega,
                      std::shared_ptr<const CooList> pattern =
                          nullptr) override;

  bool SupportsForecast() const override {
    return inner_->SupportsForecast();
  }
  StepResult ForecastLazy(size_t h) const override {
    return inner_->ForecastLazy(h);
  }

  void AdoptWorkerPool(std::shared_ptr<WorkerPool> pool) override {
    inner_->AdoptWorkerPool(std::move(pool));
  }

  /// Checkpoints are the guard's decision state followed by the inner
  /// method's state, under a versioned "stream-guard" header. The decision
  /// state is what the guard needs to judge the next slice exactly as
  /// before: the payload/NRE/norm windows, the accepted-step count, the
  /// fault episode, the locked slice shape, and the checkpoint cadence. So
  /// a journal replay through a restored guard (DurableGuard::Recover)
  /// rejects the same slices the live guard rejected. Not persisted: the
  /// rollback ring and the reinit snapshot (restoring empties the ring, and
  /// a fresh guard takes its reinit snapshot at its first step, from the
  /// restored state) and the telemetry counters. RestoreState throws
  /// state_io::StateError on a corrupt checkpoint. A checkpoint without the
  /// header (written before the guard saved state of its own) restores the
  /// inner method alone and starts the decision state fresh; such a replay
  /// can accept a garbage slice the live guard rejected.
  bool SupportsStateCheckpoint() const override {
    return inner_->SupportsStateCheckpoint();
  }
  void SaveState(std::ostream& out) const override;
  void RestoreState(std::istream& in) override;

  const GuardTelemetry& telemetry() const { return telemetry_; }
  const StreamingMethod& inner() const { return *inner_; }

 private:
  /// True when checkpoint/restore degradation is available.
  bool CanCheckpoint() const;
  /// Serializes the inner state into the next ring slot, on the calling
  /// thread, before the next step can mutate it.
  void SaveCheckpoint();
  /// Captures the snapshot kReinit restores (post-Initialize state, or the
  /// pristine pre-first-step state of init-less methods).
  void CaptureReinitSnapshot();
  /// Applies the degradation policy to the inner state after a health trip.
  /// Returns true when a ring checkpoint was restored (the inner clock then
  /// lags the stream by one slice and must be advanced).
  bool DegradeState();
  /// Advances the inner method over a faulted slice with an empty-Ω step
  /// (zero data): the slice contributes nothing, but the method's temporal
  /// state keeps its phase — skipping the time slot entirely would
  /// desynchronize every seasonal model behind it.
  void AdvanceInnerClock();
  /// The estimate returned for a faulted slice: forecast-impute when the
  /// inner method can, else an all-zero slice (NRE <= 1, always finite).
  StepResult DegradedEstimate(const Shape& shape);
  /// Post-step health verdict from the probe NRE and factor norm.
  bool Healthy(double probe_nre, double norm) const;
  /// Rolling-baseline bookkeeping of an accepted step + recovery tracking.
  void AcceptStep(double probe_nre, double norm);
  /// Trip bookkeeping shared by input and health faults.
  void BeginFault();

  std::unique_ptr<StreamingMethod> inner_;
  StreamGuardOptions options_;
  GuardTelemetry telemetry_;

  Shape expected_shape_;  ///< Slice shape locked in by the first valid slice.

  // Rolling health baselines over the last health_window accepted steps.
  std::deque<double> nre_window_;
  std::deque<double> norm_window_;
  std::deque<double> payload_window_;  ///< max |y| of accepted slices.
  size_t accepted_steps_ = 0;

  // Checkpoint ring (serialized inner states) + the kReinit snapshot.
  // Slot strings are reused across saves (clear keeps capacity), so
  // steady-state checkpointing is a serialize-in-place, not an allocate +
  // deep-copy per step.
  std::vector<std::string> ring_;
  std::string reinit_snapshot_;
  size_t steps_since_checkpoint_ = 0;
  /// Ring writes since the ring was last emptied (RestoreState empties it):
  /// the newest slot is (ring_saved_ - 1) % slots.
  size_t ring_saved_ = 0;

  // Fault-episode tracking.
  bool in_fault_ = false;
  size_t steps_since_fault_ = 0;  ///< Slices since the episode's last trip.
  double frozen_baseline_ = 0.0;  ///< Pre-fault NRE baseline of the episode.
  /// Ring slots already consumed by rollbacks of the current episode: the
  /// next rollback restores `ring_saved_ - 1 - depth`. Reset when a fresh
  /// (health-accepted) checkpoint lands or the episode closes.
  size_t episode_rollback_depth_ = 0;

  std::vector<double> probe_scratch_;  ///< Probe y-values (reused).
  std::vector<size_t> probe_linear_;   ///< Probe linear indices (reused).
  std::vector<size_t> probe_idx_;      ///< Delinearize scratch.
};

}  // namespace sofia

#endif  // SOFIA_EVAL_STREAM_GUARD_H_
