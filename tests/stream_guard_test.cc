// StreamGuard, the fault-tolerance wrapper:
//  - input validation rejects NaN payloads, empty omega, and shape
//    mismatches BEFORE the inner method sees them (call-counted on a fake);
//  - each degradation policy resolves health trips with the right state
//    action (skip / rollback / reinit);
//  - the acceptance pin: on the garbage-slice + bursty-outage scenario,
//    unguarded SOFIA ends non-finite (or an order of magnitude degraded)
//    while rollback-guarded SOFIA stays finite and closes every fault
//    episode within 3 steps;
//  - zero overhead on clean streams: guarded scores are bitwise identical
//    to unguarded ones, with exactly one O(|omega|) validation pass per
//    slice, zero estimate materializations, and zero trips;
//  - a guard checkpoint round-trips the decision state and rejects
//    truncated bytes; an inner-only checkpoint (written before the guard
//    saved state of its own) restores the inner method with a fresh
//    decision state.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <sstream>
#include <vector>

#include "baselines/online_sgd.hpp"
#include "core/sofia_stream.hpp"
#include "data/corruption.hpp"
#include "data/scenarios.hpp"
#include "data/synthetic.hpp"
#include "eval/stream_guard.hpp"
#include "eval/stream_runner.hpp"
#include "tensor/coo_list.hpp"
#include "util/state_io.hpp"

namespace sofia {
namespace {

std::vector<DenseTensor> MakeTruth(size_t i1, size_t i2, size_t steps,
                                   uint64_t seed) {
  SyntheticTensor syn = MakeSinusoidTensor(i1, i2, steps, 3, 4, seed);
  std::vector<DenseTensor> truth;
  for (size_t t = 0; t < steps; ++t) {
    truth.push_back(syn.tensor.SliceLastMode(t));
  }
  return truth;
}

SofiaConfig SmallSofiaConfig() {
  SofiaConfig config;
  config.rank = 3;
  config.period = 4;
  config.lambda1 = 0.5;
  config.lambda2 = 0.5;
  config.num_threads = 1;
  return config;
}

/// Records every slice that actually reaches it, split into data steps and
/// the empty-omega clock advances the guard issues for faulted slices.
class FakeMethod : public StreamingMethod {
 public:
  std::string name() const override { return "fake"; }
  StepResult StepLazy(const DenseTensor& y, const Mask& omega,
                      std::shared_ptr<const CooList> pattern) override {
    (void)pattern;
    if (omega.CountObserved() > 0) {
      ++data_calls;
    } else {
      ++clock_calls;
    }
    return StepResult::Dense(DenseTensor(y.shape(), 0.0));
  }
  size_t data_calls = 0;
  size_t clock_calls = 0;
};

TEST(StreamGuardTest, ParseGuardPolicyRoundTrips) {
  for (GuardPolicy policy : {GuardPolicy::kSkipSlice, GuardPolicy::kRollback,
                             GuardPolicy::kReinit}) {
    EXPECT_EQ(ParseGuardPolicy(GuardPolicyName(policy)), policy);
  }
  EXPECT_DEATH(ParseGuardPolicy("panic"), "policy");
}

TEST(StreamGuardTest, InputFaultsNeverReachInnerMethod) {
  auto owned = std::make_unique<FakeMethod>();
  FakeMethod* fake = owned.get();
  StreamGuard guard(std::move(owned));

  const Shape shape({4, 3});
  DenseTensor clean(shape, 1.0);
  Mask full(shape, true);

  // Valid slice: forwarded.
  guard.StepLazy(clean, full);
  EXPECT_EQ(fake->data_calls, 1u);

  // NaN payload: rejected before the inner method — only the empty-omega
  // clock advance (zero data) reaches it.
  DenseTensor poisoned = clean;
  poisoned[5] = std::numeric_limits<double>::quiet_NaN();
  StepResult degraded = guard.StepLazy(poisoned, full);
  EXPECT_EQ(fake->data_calls, 1u);
  EXPECT_EQ(fake->clock_calls, 1u);
  EXPECT_TRUE(std::isfinite(degraded.at({1, 2})));

  // Inf payload.
  poisoned[5] = std::numeric_limits<double>::infinity();
  guard.StepLazy(poisoned, full);
  EXPECT_EQ(fake->data_calls, 1u);
  EXPECT_EQ(fake->clock_calls, 2u);

  // Empty omega.
  guard.StepLazy(clean, Mask(shape, false));
  EXPECT_EQ(fake->data_calls, 1u);
  EXPECT_EQ(fake->clock_calls, 3u);

  // Shape mismatch against the locked-in stream shape (the clock advance
  // happens at the locked-in shape, never the bad one).
  DenseTensor wrong(Shape({3, 3}), 1.0);
  guard.StepLazy(wrong, Mask(Shape({3, 3}), true));
  EXPECT_EQ(fake->data_calls, 1u);
  EXPECT_EQ(fake->clock_calls, 4u);

  // Mismatched y/omega shapes.
  guard.StepLazy(clean, Mask(Shape({3, 3}), true));
  EXPECT_EQ(fake->data_calls, 1u);
  EXPECT_EQ(fake->clock_calls, 5u);

  EXPECT_EQ(guard.telemetry().steps, 6u);
  EXPECT_EQ(guard.telemetry().input_trips, 5u);
  EXPECT_EQ(guard.telemetry().health_trips, 0u);
  EXPECT_EQ(guard.telemetry().skips, 5u);

  // Recovery: the next valid slice flows through again.
  guard.StepLazy(clean, full);
  EXPECT_EQ(fake->data_calls, 2u);
  EXPECT_EQ(fake->clock_calls, 5u);
}

/// Drives `guard` over a clean prefix, then a hugely scaled slice that
/// passes input validation but trips the health watch (the caller must
/// disable the payload-scale watch, which would otherwise catch it first).
void DriveIntoHealthTrip(StreamGuard* guard, const CorruptedStream& stream,
                         size_t prefix) {
  for (size_t t = 0; t < prefix; ++t) {
    guard->StepLazy(stream.slices[t], stream.masks[t]);
  }
  DenseTensor huge = stream.slices[prefix];
  for (size_t k = 0; k < huge.NumElements(); ++k) {
    huge[k] = (stream.max_abs + 1.0) * 1e9;
  }
  guard->StepLazy(huge, stream.masks[prefix]);
}

TEST(StreamGuardTest, PoliciesResolveHealthTripsWithTheRightStateAction) {
  std::vector<DenseTensor> truth = MakeTruth(6, 5, 12, 221);
  CorruptedStream stream = Corrupt(truth, {20.0, 0.0, 0.0}, 222);

  {
    StreamGuardOptions options;
    options.policy = GuardPolicy::kSkipSlice;
    options.payload_explosion_factor = 0.0;
    StreamGuard guard(
        std::make_unique<OnlineSgd>(OnlineSgdOptions{.rank = 3}), options);
    DriveIntoHealthTrip(&guard, stream, 6);
    EXPECT_EQ(guard.telemetry().health_trips, 1u);
    EXPECT_EQ(guard.telemetry().skips, 1u);
    EXPECT_EQ(guard.telemetry().rollbacks, 0u);
    EXPECT_EQ(guard.telemetry().reinits, 0u);
  }
  {
    StreamGuardOptions options;
    options.policy = GuardPolicy::kRollback;
    options.payload_explosion_factor = 0.0;
    StreamGuard guard(
        std::make_unique<OnlineSgd>(OnlineSgdOptions{.rank = 3}), options);
    DriveIntoHealthTrip(&guard, stream, 6);
    EXPECT_EQ(guard.telemetry().health_trips, 1u);
    EXPECT_EQ(guard.telemetry().rollbacks, 1u);
    EXPECT_EQ(guard.telemetry().reinits, 0u);
  }
  {
    StreamGuardOptions options;
    options.policy = GuardPolicy::kReinit;
    options.payload_explosion_factor = 0.0;
    StreamGuard guard(
        std::make_unique<OnlineSgd>(OnlineSgdOptions{.rank = 3}), options);
    DriveIntoHealthTrip(&guard, stream, 6);
    EXPECT_EQ(guard.telemetry().health_trips, 1u);
    EXPECT_EQ(guard.telemetry().reinits, 1u);
    EXPECT_EQ(guard.telemetry().rollbacks, 0u);
  }
}

// ------------------------------------------------------- the acceptance pin

TEST(StreamGuardTest, GuardedSofiaRecoversWhereUnguardedDegrades) {
  // Garbage slices + bursty outages on top of element-wise corruption
  // (combined stress with the regime change and outlier bursts switched
  // off, so the faults are exactly the two modes the guard must absorb).
  const size_t steps = 40;
  std::vector<DenseTensor> truth = MakeTruth(8, 6, steps, 231);
  ScenarioOptions options;
  // Missingness only: element outliers would inflate the estimate-vs-y
  // probe baseline and mask the spike the huge-finite slice must produce.
  options.element = CorruptionSetting{20.0, 0.0, 0.0};
  options.regime_amplitude = 1.0;  // Identity regime transform.
  options.burst_start_prob = 0.0;  // No structured outlier bursts.
  options.garbage_offset = 16;     // Past SOFIA's 3 * period = 12 window.
  options.garbage_every = 12;      // Faults at steps 16 (NaN), 28 (huge).
  ScenarioStream scenario =
      MakeScenario(ScenarioKind::kCombinedStress, truth, options, 232);
  ASSERT_EQ(scenario.fault_steps, (std::vector<size_t>{16, 28}));

  SofiaStream unguarded(SmallSofiaConfig());
  StreamGuardOptions guard_options;
  guard_options.policy = GuardPolicy::kRollback;
  StreamGuard guarded(std::make_unique<SofiaStream>(SmallSofiaConfig()),
                      guard_options);

  StepResult::ResetMaterializations();
  std::vector<StreamingMethod*> methods = {&unguarded, &guarded};
  std::vector<MethodRunResult> results = RunImputationComparison(
      methods, scenario.stream, scenario.truth);
  // The guard never materializes an estimate, even while degrading.
  EXPECT_EQ(StepResult::materializations(), 0u);

  const StreamRunResult& u = results[0].run;
  const StreamRunResult& g = results[1].run;
  EXPECT_FALSE(results[0].run.guarded);
  ASSERT_TRUE(results[1].run.guarded);

  // Guarded: every score finite, every fault tripped the guard, and every
  // fault episode closed within 3 accepted steps.
  for (size_t t = 0; t < steps; ++t) {
    ASSERT_TRUE(std::isfinite(g.nre[t])) << "guarded NRE diverged at " << t;
  }
  const GuardTelemetry& telemetry = g.guard;
  // Both faults are caught at the input layer: the NaN slice at step 16 by
  // the finite scan, the huge-finite slice at 28 by the payload-scale
  // watch — SOFIA never sees either, so the health watch stays quiet.
  EXPECT_EQ(telemetry.input_trips, 2u);
  EXPECT_EQ(telemetry.health_trips, 0u);
  EXPECT_EQ(telemetry.recoveries,
            telemetry.input_trips + telemetry.health_trips)
      << "a fault episode never closed";
  ASSERT_EQ(telemetry.steps_to_recover.size(), 2u);
  for (size_t s : telemetry.steps_to_recover) {
    EXPECT_LE(s, 3u) << "recovery took more than 3 steps";
  }

  // Unguarded: the same stream leaves SOFIA non-finite or an order of
  // magnitude worse than the guarded run.
  bool unguarded_nonfinite = false;
  for (size_t t = 0; t < steps; ++t) {
    unguarded_nonfinite = unguarded_nonfinite || !std::isfinite(u.nre[t]);
  }
  EXPECT_TRUE(unguarded_nonfinite ||
              u.rae_post_init > 10.0 * g.rae_post_init)
      << "unguarded rae_post_init=" << u.rae_post_init
      << " guarded rae_post_init=" << g.rae_post_init;
}

// ------------------------------------------------------ zero-overhead pin

TEST(StreamGuardTest, CleanStreamsPayOnlyTheValidationScan) {
  const size_t steps = 24;
  std::vector<DenseTensor> truth = MakeTruth(6, 5, steps, 241);
  ScenarioStream scenario = MakeScenario(ScenarioKind::kClean, truth,
                                         ScenarioOptions{}, 242);

  SofiaStream plain(SmallSofiaConfig());
  StreamGuard guarded(std::make_unique<SofiaStream>(SmallSofiaConfig()));

  StepResult::ResetMaterializations();
  std::vector<StreamingMethod*> methods = {&plain, &guarded};
  std::vector<MethodRunResult> results = RunImputationComparison(
      methods, scenario.stream, scenario.truth);
  EXPECT_EQ(StepResult::materializations(), 0u);

  // Bitwise-identical scores: the guard observed, it never intervened.
  for (size_t t = 0; t < steps; ++t) {
    ASSERT_EQ(results[0].run.nre[t], results[1].run.nre[t]) << "t=" << t;
    ASSERT_EQ(results[0].run.observed_nre[t], results[1].run.observed_nre[t])
        << "t=" << t;
  }

  const GuardTelemetry& telemetry = results[1].run.guard;
  EXPECT_EQ(telemetry.input_trips, 0u);
  EXPECT_EQ(telemetry.health_trips, 0u);
  EXPECT_EQ(telemetry.skips, 0u);
  EXPECT_EQ(telemetry.rollbacks, 0u);
  EXPECT_EQ(telemetry.reinits, 0u);
  // Exactly one O(|omega|) validation pass per slice — init and stream.
  EXPECT_EQ(telemetry.validation_passes, steps);
  EXPECT_EQ(telemetry.steps + guarded.init_window(), steps);
  // Ring writes follow the default cadence: one checkpoint per
  // checkpoint_every accepted steps, not one per step.
  EXPECT_EQ(telemetry.checkpoints_saved,
            telemetry.steps / StreamGuardOptions{}.checkpoint_every);
}

TEST(StreamGuardTest, PatternlessStepsKeepTheInnerPatternCache) {
  // Handed no pattern, the guard scans the mask and hands none down, so
  // SOFIA's own cache still serves a run of identical masks from one build.
  SofiaConfig config;
  config.rank = 3;
  config.period = 4;
  config.max_init_iterations = 5;
  const size_t window = config.InitWindow();
  constexpr size_t kRun = 10;
  std::vector<DenseTensor> slices = MakeTruth(6, 5, window + kRun, 291);
  Mask omega(Shape({6, 5}), true);
  omega.Set(7, false);
  const std::vector<DenseTensor> init(slices.begin(),
                                      slices.begin() + window);

  StreamGuard guard(std::make_unique<SofiaStream>(config));
  guard.Initialize(init, std::vector<Mask>(window, omega));
  for (size_t t = 0; t < kRun; ++t) guard.StepLazy(slices[window + t], omega);
  const auto& sofia = dynamic_cast<const SofiaStream&>(guard.inner());
  EXPECT_EQ(sofia.model().step_pattern_builds(), 1u);
  EXPECT_EQ(sofia.model().step_pattern_reuses(), kRun - 1);
  EXPECT_EQ(guard.telemetry().validation_passes, window + kRun);
  EXPECT_EQ(guard.telemetry().input_trips + guard.telemetry().health_trips,
            0u);
}

// ------------------------------------------- checkpoint ring + walk-back

/// Checkpointable fake whose serialized state is a step counter, so a test
/// can read exactly which checkpoint a rollback restored. Returns accurate
/// estimates (probe NRE 0) until `poison` flips it to wildly wrong ones
/// that trip the health watch.
class VersionedFake : public StreamingMethod {
 public:
  std::string name() const override { return "versioned-fake"; }
  StepResult StepLazy(const DenseTensor& y, const Mask& omega,
                      std::shared_ptr<const CooList> pattern) override {
    (void)pattern;
    if (omega.CountObserved() > 0) ++version;
    DenseTensor estimate = y;
    if (poison) {
      for (size_t k = 0; k < estimate.NumElements(); ++k) {
        estimate[k] = 1e6;
      }
    }
    return StepResult::Dense(std::move(estimate));
  }
  bool SupportsStateCheckpoint() const override { return true; }
  void SaveState(std::ostream& out) const override { out << version; }
  void RestoreState(std::istream& in) override {
    in >> version;
    restored.push_back(version);
  }

  size_t version = 0;            ///< Accepted data steps consumed.
  bool poison = false;           ///< Return garbage estimates (health trip).
  std::vector<size_t> restored;  ///< Version of every RestoreState, in order.
};

TEST(StreamGuardTest, RepeatedTripsWalkBackThroughStrictlyOlderCheckpoints) {
  auto owned = std::make_unique<VersionedFake>();
  VersionedFake* fake = owned.get();
  StreamGuardOptions options;
  options.policy = GuardPolicy::kRollback;
  options.checkpoint_every = 1;  // One ring write per accepted step.
  options.checkpoint_slots = 4;
  StreamGuard guard(std::move(owned), options);

  const Shape shape({3, 2});
  DenseTensor y(shape, 1.0);
  Mask full(shape, true);

  // Six clean steps: ring holds versions {5, 6, 3, 4} in rotation order.
  for (size_t t = 0; t < 6; ++t) guard.StepLazy(y, full);
  ASSERT_EQ(guard.telemetry().checkpoints_saved, 6u);

  // Five consecutive trips within one fault episode: the guard must walk
  // newest -> older through the whole ring (6, 5, 4, 3), then fall through
  // to the reinit snapshot (the pristine pre-first-step state, version 0) —
  // never re-restoring the same possibly-poisoned slot twice.
  fake->poison = true;
  for (size_t trip = 0; trip < 5; ++trip) guard.StepLazy(y, full);
  EXPECT_EQ(guard.telemetry().health_trips, 5u);
  EXPECT_EQ(fake->restored, (std::vector<size_t>{6, 5, 4, 3, 0}));
  EXPECT_EQ(guard.telemetry().rollbacks, 5u);
  EXPECT_EQ(guard.telemetry().reinits, 0u);

  // Recovery closes the episode; the next episode's walk-back restarts at
  // the (fresh) newest checkpoint instead of resuming at depth 5.
  fake->poison = false;
  for (size_t t = 0; t < 2; ++t) guard.StepLazy(y, full);
  EXPECT_EQ(guard.telemetry().recoveries, 1u);
  const size_t saved_after_recovery = guard.telemetry().checkpoints_saved;
  ASSERT_GT(saved_after_recovery, 6u);
  fake->poison = true;
  guard.StepLazy(y, full);
  fake->poison = false;
  ASSERT_EQ(fake->restored.size(), 6u);
  // The newest post-recovery checkpoint: version 0 after the reinit fall-
  // through, +2 accepted recovery steps.
  EXPECT_EQ(fake->restored.back(), 2u);
}

TEST(StreamGuardTest, CheckpointCadenceBoundsRollbackLossAndCountsWraps) {
  auto owned = std::make_unique<VersionedFake>();
  VersionedFake* fake = owned.get();
  StreamGuardOptions options;
  options.policy = GuardPolicy::kRollback;
  options.checkpoint_every = 3;
  options.checkpoint_slots = 2;  // Force ring wraparound.
  StreamGuard guard(std::move(owned), options);

  const Shape shape({3, 2});
  DenseTensor y(shape, 1.0);
  Mask full(shape, true);

  // 14 accepted steps at cadence 3: checkpoints after steps 3, 6, 9, 12 —
  // telemetry counts all four ring writes even though only two slots exist.
  for (size_t t = 0; t < 14; ++t) guard.StepLazy(y, full);
  EXPECT_EQ(guard.telemetry().checkpoints_saved, 4u);

  // A rollback restores the newest checkpoint (version 12): of the 14
  // accepted steps, at most cadence - 1 = 2 are lost.
  fake->poison = true;
  guard.StepLazy(y, full);
  fake->poison = false;
  ASSERT_EQ(fake->restored.size(), 1u);
  EXPECT_EQ(fake->restored.back(), 12u);
  EXPECT_GE(fake->restored.back() + options.checkpoint_every - 1, 14u);
}

TEST(StreamGuardTest, CheckpointRoundTripsAndRejectsCorruptBytes) {
  // A guard checkpoint is the versioned decision state plus the inner
  // state: a fresh guard restored from it continues bit for bit, while a
  // truncated checkpoint is rejected as corrupt.
  std::vector<DenseTensor> truth = MakeTruth(6, 5, 12, 41);
  CorruptedStream stream = Corrupt(truth, {20.0, 0.0, 0.0}, 42);
  const auto make_guard = [] {
    return std::make_unique<StreamGuard>(
        std::make_unique<OnlineSgd>(OnlineSgdOptions{.rank = 3}));
  };
  std::unique_ptr<StreamGuard> live = make_guard();
  for (size_t t = 0; t < 8; ++t) {
    live->StepLazy(stream.slices[t], stream.masks[t]);
  }
  std::ostringstream guard_state;
  live->SaveState(guard_state);
  const std::string bytes = guard_state.str();

  std::unique_ptr<StreamGuard> restored = make_guard();
  std::istringstream truncated(bytes.substr(0, bytes.size() / 2));
  EXPECT_THROW(restored->RestoreState(truncated), state_io::StateError);
  std::istringstream whole(bytes);
  restored->RestoreState(whole);
  for (size_t t = 8; t < truth.size(); ++t) {
    const CooList pattern =
        CooList::Build(stream.masks[t], /*with_mode_buckets=*/false);
    EXPECT_EQ(live->StepLazy(stream.slices[t], stream.masks[t])
                  .GatherAt(pattern),
              restored->StepLazy(stream.slices[t], stream.masks[t])
                  .GatherAt(pattern))
        << "t=" << t;
  }
}

TEST(StreamGuardTest, InnerOnlyCheckpointRestoresInnerWithFreshDecisionState) {
  // Checkpoints written before the guard saved state of its own hold the
  // inner method's state alone. Restoring one into a guard with a history
  // of its own restores the inner method and resets the decision state to
  // a fresh guard's; on a trip-free stream it then continues bit for bit.
  std::vector<DenseTensor> truth = MakeTruth(6, 5, 12, 43);
  CorruptedStream stream = Corrupt(truth, {20.0, 0.0, 0.0}, 44);
  const auto make_inner = [] {
    return std::make_unique<OnlineSgd>(OnlineSgdOptions{.rank = 3});
  };
  StreamGuard live(make_inner());
  for (size_t t = 0; t < 8; ++t) {
    live.StepLazy(stream.slices[t], stream.masks[t]);
  }
  std::ostringstream inner_state;
  live.inner().SaveState(inner_state);

  StreamGuard legacy(make_inner());
  for (size_t t = 0; t < 4; ++t) {
    legacy.StepLazy(stream.slices[t], stream.masks[t]);
  }
  std::istringstream inner_only(inner_state.str());
  legacy.RestoreState(inner_only);

  std::unique_ptr<OnlineSgd> restored_inner = make_inner();
  std::istringstream inner_copy(inner_state.str());
  restored_inner->RestoreState(inner_copy);
  const StreamGuard fresh(std::move(restored_inner));
  std::ostringstream legacy_state, fresh_state;
  legacy.SaveState(legacy_state);
  fresh.SaveState(fresh_state);
  EXPECT_EQ(legacy_state.str(), fresh_state.str());

  for (size_t t = 8; t < truth.size(); ++t) {
    const CooList pattern =
        CooList::Build(stream.masks[t], /*with_mode_buckets=*/false);
    EXPECT_EQ(live.StepLazy(stream.slices[t], stream.masks[t])
                  .GatherAt(pattern),
              legacy.StepLazy(stream.slices[t], stream.masks[t])
                  .GatherAt(pattern))
        << "t=" << t;
  }
  EXPECT_EQ(legacy.telemetry().input_trips + legacy.telemetry().health_trips,
            0u);
}

}  // namespace
}  // namespace sofia
