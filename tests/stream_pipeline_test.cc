// Streaming-runtime contract tests (eval/stream_pipeline.hpp):
//  - a 60-step guarded comparison, and all nine methods guarded and
//    unguarded, are *bitwise* identical across workers in {1, 2, 4, 8} —
//    the lane count moves wall-clock shape only;
//  - a stable-mask stream runs allocation-free through the per-method
//    kernel scratch after each method's first step (arena growth pinned at
//    zero);
//  - every slice is exactly one lane-executor batch, and lane tasks never
//    hand work to other threads through any pool: each method's kernels
//    run inline on its own single-thread pool;
//  - a mid-stream stop (Run with a limit under the stream length) returns
//    cleanly and matches the full run's prefix, and the pipeline object is
//    reusable afterwards;
//  - the steady-state comparison loop performs zero O(volume) scans: one
//    pattern build per distinct mask run, SparseMask reuse compares, no
//    dense-mask byte compares (counter-pinned), and the rebuild telemetry
//    logs bitmap deltas instead of rebuilding silently.

#include "eval/stream_pipeline.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <stdexcept>
#include <vector>

#include "baselines/brst.hpp"
#include "baselines/cp_wopt_stream.hpp"
#include "baselines/cphw.hpp"
#include "baselines/mast.hpp"
#include "baselines/olstec.hpp"
#include "baselines/online_sgd.hpp"
#include "baselines/or_mstc.hpp"
#include "baselines/smf.hpp"
#include "core/sofia_stream.hpp"
#include "data/corruption.hpp"
#include "data/synthetic.hpp"
#include "eval/stream_guard.hpp"
#include "eval/stream_runner.hpp"
#include "obs/metrics.hpp"
#include "tensor/sparse_mask.hpp"
#include "util/parallel.hpp"

namespace sofia {
namespace {

std::vector<DenseTensor> MakeTruth(size_t steps, uint64_t seed) {
  SyntheticTensor syn = MakeSinusoidTensor(6, 5, steps, 3, 4, seed);
  std::vector<DenseTensor> truth;
  for (size_t t = 0; t < steps; ++t) {
    truth.push_back(syn.tensor.SliceLastMode(t));
  }
  return truth;
}

/// Fresh guarded-SOFIA + OnlineSGD pair. Methods are stateful, so every
/// runtime configuration gets its own instances; the guard's checkpoint
/// ring exercises the async aux-lane serialization whenever the pipeline's
/// executor is adopted.
std::vector<std::unique_ptr<StreamingMethod>> MakeMethods() {
  SofiaConfig config;
  config.rank = 3;
  config.period = 4;
  config.lambda1 = 0.5;
  config.lambda2 = 0.5;
  config.max_init_iterations = 15;
  std::vector<std::unique_ptr<StreamingMethod>> methods;
  methods.push_back(std::make_unique<StreamGuard>(
      std::make_unique<SofiaStream>(config), StreamGuardOptions{}));
  methods.push_back(std::make_unique<OnlineSgd>(OnlineSgdOptions{.rank = 3}));
  return methods;
}

/// All nine comparison methods, optionally each under a rollback guard.
std::vector<std::unique_ptr<StreamingMethod>> MakeNine(bool guarded) {
  SofiaConfig config;
  config.rank = 3;
  config.period = 4;
  config.lambda1 = 0.5;
  config.lambda2 = 0.5;
  config.max_init_iterations = 15;
  std::vector<std::unique_ptr<StreamingMethod>> methods;
  methods.push_back(std::make_unique<SofiaStream>(config));
  methods.push_back(std::make_unique<OnlineSgd>(OnlineSgdOptions{.rank = 3}));
  methods.push_back(std::make_unique<Olstec>(OlstecOptions{.rank = 3}));
  methods.push_back(std::make_unique<Mast>(MastOptions{.rank = 3}));
  methods.push_back(std::make_unique<OrMstc>(
      OrMstcOptions{.rank = 3, .outlier_lambda = 2.0}));
  methods.push_back(std::make_unique<BrstLite>(BrstOptions{.rank = 4}));
  methods.push_back(
      std::make_unique<Smf>(SmfOptions{.rank = 3, .period = 4}));
  methods.push_back(
      std::make_unique<Cphw>(CphwOptions{.rank = 3, .period = 4}));
  methods.push_back(std::make_unique<CpWoptStream>(
      CpWoptStreamOptions{.rank = 3, .iterations_per_step = 5}));
  if (guarded) {
    for (auto& method : methods) {
      method = std::make_unique<StreamGuard>(std::move(method),
                                             StreamGuardOptions{});
    }
  }
  return methods;
}

std::vector<StreamingMethod*> Raw(
    const std::vector<std::unique_ptr<StreamingMethod>>& owned) {
  std::vector<StreamingMethod*> out;
  for (const auto& m : owned) out.push_back(m.get());
  return out;
}

void ExpectBitwiseEqual(const StreamRunResult& got,
                        const StreamRunResult& want) {
  ASSERT_EQ(got.nre.size(), want.nre.size());
  for (size_t t = 0; t < want.nre.size(); ++t) {
    // EXPECT_EQ on doubles: exact, not approximate — the runtime claims
    // bitwise identity, not tolerance.
    EXPECT_EQ(got.nre[t], want.nre[t]) << "t=" << t;
  }
  ASSERT_EQ(got.observed_nre.size(), want.observed_nre.size());
  for (size_t t = 0; t < want.observed_nre.size(); ++t) {
    EXPECT_EQ(got.observed_nre[t], want.observed_nre[t]) << "t=" << t;
    EXPECT_EQ(got.missing_nre[t], want.missing_nre[t]) << "t=" << t;
  }
  EXPECT_EQ(got.rae, want.rae);
  EXPECT_EQ(got.rae_post_init, want.rae_post_init);
}

TEST(StreamPipelineTest, GuardedRunBitwiseIdenticalAcrossRuntimeKnobs) {
  const size_t steps = 60;
  std::vector<DenseTensor> truth = MakeTruth(steps, 71);
  CorruptedStream stream = Corrupt(truth, {30.0, 10.0, 3.0}, 72);

  StreamEvalOptions reference_options;
  reference_options.workers = 1;
  auto reference_owned = MakeMethods();
  std::vector<MethodRunResult> reference = RunImputationComparison(
      Raw(reference_owned), stream, truth, reference_options);
  ASSERT_EQ(reference.size(), 2u);
  ASSERT_EQ(reference[0].run.nre.size(), steps);
  ASSERT_TRUE(reference[0].run.guarded);
  ASSERT_GT(reference[0].run.guard.checkpoints_saved, 0u);

  // 8 workers oversubscribes the two methods (and 1-core CI boxes).
  for (const size_t workers : {2, 4, 8}) {
    SCOPED_TRACE(testing::Message() << "workers=" << workers);
    StreamEvalOptions options = reference_options;
    options.workers = workers;
    auto owned = MakeMethods();
    std::vector<MethodRunResult> got =
        RunImputationComparison(Raw(owned), stream, truth, options);
    ASSERT_EQ(got.size(), reference.size());
    for (size_t m = 0; m < got.size(); ++m) {
      SCOPED_TRACE(got[m].name);
      ExpectBitwiseEqual(got[m].run, reference[m].run);
    }
    // The guard saw the same stream: identical trip/checkpoint history
    // (async checkpointing changes when bytes are written, not what).
    EXPECT_EQ(got[0].run.guard.checkpoints_saved,
              reference[0].run.guard.checkpoints_saved);
    EXPECT_EQ(got[0].run.guard.input_trips,
              reference[0].run.guard.input_trips);
    EXPECT_EQ(got[0].run.guard.health_trips,
              reference[0].run.guard.health_trips);
    // Lane echo in the telemetry: two methods never need more than two
    // lanes.
    EXPECT_EQ(got[0].run.pipeline.workers, std::min<size_t>(workers, 2));
    EXPECT_EQ(got[0].run.pipeline.steps, steps);
  }
}

TEST(StreamPipelineTest, NineMethodsBitwiseIdenticalAcrossLanes) {
  // The comparison protocol's nine methods, guarded and unguarded: however
  // the lanes split them, every method's scores match the one-lane run.
  const size_t steps = 40;
  std::vector<DenseTensor> truth = MakeTruth(steps, 81);
  CorruptedStream stream = Corrupt(truth, {30.0, 10.0, 3.0}, 82);

  for (const bool guarded : {false, true}) {
    SCOPED_TRACE(guarded ? "guarded" : "unguarded");
    StreamEvalOptions reference_options;
    reference_options.workers = 1;
    auto reference_owned = MakeNine(guarded);
    std::vector<MethodRunResult> reference = RunImputationComparison(
        Raw(reference_owned), stream, truth, reference_options);
    ASSERT_EQ(reference.size(), 9u);
    EXPECT_EQ(reference[0].run.pipeline.workers, 1u);

    for (const size_t workers : {2, 4, 8}) {
      SCOPED_TRACE(testing::Message() << "workers=" << workers);
      StreamEvalOptions options = reference_options;
      options.workers = workers;
      auto owned = MakeNine(guarded);
      std::vector<MethodRunResult> got =
          RunImputationComparison(Raw(owned), stream, truth, options);
      ASSERT_EQ(got.size(), reference.size());
      for (size_t m = 0; m < got.size(); ++m) {
        SCOPED_TRACE(got[m].name);
        ExpectBitwiseEqual(got[m].run, reference[m].run);
        EXPECT_EQ(got[m].run.guard.checkpoints_saved,
                  reference[m].run.guard.checkpoints_saved);
        EXPECT_EQ(got[m].run.guard.health_trips,
                  reference[m].run.guard.health_trips);
      }
      EXPECT_EQ(got[0].run.pipeline.workers, workers);  // <= 9 methods.
    }
  }
}

/// Pass-through decorator that keeps the pool the pipeline lends its
/// method, to inspect after the run.
class PoolProbe : public StreamingMethod {
 public:
  explicit PoolProbe(std::unique_ptr<StreamingMethod> inner)
      : inner_(std::move(inner)) {}

  std::string name() const override { return inner_->name(); }
  size_t init_window() const override { return inner_->init_window(); }
  std::vector<DenseTensor> Initialize(
      const std::vector<DenseTensor>& slices,
      const std::vector<Mask>& masks) override {
    return inner_->Initialize(slices, masks);
  }
  StepResult StepLazy(const DenseTensor& y, const Mask& omega,
                      std::shared_ptr<const CooList> pattern) override {
    return inner_->StepLazy(y, omega, std::move(pattern));
  }
  void AdoptWorkerPool(std::shared_ptr<WorkerPool> pool) override {
    if (pool != nullptr) lent = std::dynamic_pointer_cast<ShardExecutor>(pool);
    inner_->AdoptWorkerPool(std::move(pool));
  }

  std::shared_ptr<ShardExecutor> lent;  ///< Last pool lent (not revoked).

 private:
  std::unique_ptr<StreamingMethod> inner_;
};

TEST(StreamPipelineTest, EverySliceIsOneBatchAndLanesKeepToTheirOwnPools) {
  const size_t steps = 24;
  std::vector<DenseTensor> truth = MakeTruth(steps, 11);
  CorruptedStream stream = Corrupt(truth, {30.0, 5.0, 2.0}, 12);

  std::vector<std::unique_ptr<StreamingMethod>> owned = MakeNine(false);
  std::vector<PoolProbe*> probes;
  for (auto& method : owned) {
    auto probe = std::make_unique<PoolProbe>(std::move(method));
    probes.push_back(probe.get());
    method = std::move(probe);
  }

  StreamEvalOptions options;
  options.workers = 4;
  StreamPipeline pipeline(stream, truth, options);
  EXPECT_EQ(pipeline.executor(), nullptr);  // Sized by the first Run.
  obs::Counter* batches =
      obs::Registry::Global().FindOrCreateCounter("executor.batches");
  const uint64_t batches_before = batches->Value();
  const uint64_t nested_before = NestedHandOffs();
  pipeline.Run(Raw(owned));

  ShardExecutor* lanes = pipeline.executor();
  ASSERT_NE(lanes, nullptr);
  EXPECT_EQ(lanes->num_threads(), 4u);
  EXPECT_EQ(pipeline.telemetry().workers, 4u);
  // One batch per slice, no more: a lane task that dispatched kernels back
  // to the lane executor would add batches here (and deadlock it).
  EXPECT_EQ(lanes->runs(), steps);

  // Each method got a pool of its own that runs tasks inline on the lane.
  std::set<const ShardExecutor*> distinct;
  uint64_t method_batches = 0;
  for (PoolProbe* probe : probes) {
    SCOPED_TRACE(probe->name());
    ASSERT_NE(probe->lent, nullptr);
    EXPECT_EQ(probe->lent->num_threads(), 1u);
    EXPECT_NE(probe->lent.get(), lanes);
    distinct.insert(probe->lent.get());
    method_batches += probe->lent->runs();
  }
  EXPECT_EQ(distinct.size(), probes.size());
  // SOFIA's kernels dispatched through the pool it was lent.
  EXPECT_GT(probes[0]->lent->runs(), 0u);
  // No lane task handed work to other threads through any executor.
  EXPECT_EQ(NestedHandOffs(), nested_before);
  // Every ShardExecutor batch of the run, inline ones included, was the
  // lane executor's or a lent pool's (counted by the metrics registry).
  if (obs::Enabled()) {
    EXPECT_EQ(batches->Value() - batches_before,
              lanes->runs() + method_batches);
  }

  // Fewer methods than workers: the lanes shrink to the method count, and
  // a single method runs inline on the caller.
  auto pair = MakeMethods();
  pipeline.Run(Raw(pair));
  EXPECT_EQ(pipeline.executor()->num_threads(), 2u);
  EXPECT_EQ(pipeline.telemetry().workers, 2u);
  auto single = MakeMethods();
  single.pop_back();
  pipeline.Run(Raw(single));
  EXPECT_EQ(pipeline.executor()->num_threads(), 1u);
}

/// Throws from its StepLazy on slice `fail_at`.
class ThrowingMethod : public StreamingMethod {
 public:
  explicit ThrowingMethod(size_t fail_at) : fail_at_(fail_at) {}
  std::string name() const override { return "Throwing"; }
  StepResult StepLazy(const DenseTensor& y, const Mask&,
                      std::shared_ptr<const CooList>) override {
    if (steps_++ == fail_at_) throw std::runtime_error("step failed");
    return StepResult::Dense(DenseTensor(y.shape()));
  }

 private:
  size_t fail_at_;
  size_t steps_ = 0;
};

TEST(StreamPipelineTest, LaneExceptionSurfacesOnTheCaller) {
  std::vector<DenseTensor> truth = MakeTruth(16, 21);
  CorruptedStream stream = Corrupt(truth, {30.0, 5.0, 2.0}, 22);
  std::vector<std::unique_ptr<StreamingMethod>> owned = MakeNine(false);
  owned.push_back(std::make_unique<ThrowingMethod>(5));
  StreamEvalOptions options;
  options.workers = 4;
  StreamPipeline pipeline(stream, truth, options);
  EXPECT_THROW(pipeline.Run(Raw(owned)), std::runtime_error);
}

TEST(StreamPipelineTest, SteadyStateStepsAreAllocationFree) {
  // One fixed outage mask across the whole stream: after each method's
  // first step warms its pool's arena, no kernel-scratch growth may occur.
  std::vector<DenseTensor> truth = MakeTruth(30, 31);
  CorruptedStream stream = Corrupt(truth, {40.0, 0.0, 0.0}, 32);
  for (size_t t = 1; t < stream.masks.size(); ++t) {
    stream.masks[t] = stream.masks[0];
  }

  StreamEvalOptions options;
  options.workers = 2;
  auto owned = MakeMethods();
  StreamPipeline pipeline(stream, truth, options);
  std::vector<MethodRunResult> results = pipeline.Run(Raw(owned));

  const PipelineTelemetry& telemetry = pipeline.telemetry();
  EXPECT_GT(telemetry.arena_growth_total, 0u) << "arena never used";
  EXPECT_EQ(telemetry.arena_growth_steady, 0u)
      << "a steady-state step allocated kernel scratch";
  EXPECT_EQ(results[0].run.pattern_builds, 1u);
  EXPECT_EQ(results[0].run.pattern_reuses, truth.size() - 1);
}

TEST(StreamPipelineTest, MidStreamDrainReturnsCleanlyAndMatchesPrefix) {
  const size_t steps = 40;
  std::vector<DenseTensor> truth = MakeTruth(steps, 51);
  CorruptedStream stream = Corrupt(truth, {30.0, 10.0, 3.0}, 52);

  StreamEvalOptions options;
  options.workers = 2;

  auto full_owned = MakeMethods();
  std::vector<MethodRunResult> full =
      RunImputationComparison(Raw(full_owned), stream, truth, options);

  // Same runtime, stopped mid-stream: the guard's async checkpoints still
  // in flight at the limit are drained, not leaked (TSan-checked in CI),
  // and the scored prefix must match the full run.
  const size_t limit = 20;
  auto drained_owned = MakeMethods();
  StreamPipeline pipeline(stream, truth, options);
  std::vector<MethodRunResult> drained =
      pipeline.Run(Raw(drained_owned), limit);
  ASSERT_EQ(drained.size(), full.size());
  for (size_t m = 0; m < drained.size(); ++m) {
    SCOPED_TRACE(drained[m].name);
    ASSERT_EQ(drained[m].run.nre.size(), limit);
    for (size_t t = 0; t < limit; ++t) {
      EXPECT_EQ(drained[m].run.nre[t], full[m].run.nre[t]) << "t=" << t;
    }
  }
  EXPECT_EQ(pipeline.telemetry().steps, limit);

  // The pipeline object survives the drain: a fresh full pass on the same
  // (persistent) executor reproduces the reference bitwise.
  const uint64_t runs_after_drain = pipeline.executor()->runs();
  auto reuse_owned = MakeMethods();
  std::vector<MethodRunResult> reused = pipeline.Run(Raw(reuse_owned));
  EXPECT_GT(pipeline.executor()->runs(), runs_after_drain);
  for (size_t m = 0; m < reused.size(); ++m) {
    SCOPED_TRACE(reused[m].name);
    ExpectBitwiseEqual(reused[m].run, full[m].run);
  }
}

TEST(StreamPipelineTest, SteadyStateLoopPerformsNoVolumeScans) {
  // One fixed outage mask across the whole stream: the loop must compact
  // exactly once, serve every later step from the SparseMask cache, log no
  // deltas, and never fall back to a dense mask byte compare. SOFIA adopts
  // the shared pattern without building.
  std::vector<DenseTensor> truth = MakeTruth(20, 31);
  CorruptedStream stream = Corrupt(truth, {50.0, 0.0, 0.0}, 32);
  for (size_t t = 1; t < stream.masks.size(); ++t) {
    stream.masks[t] = stream.masks[0];
  }

  SofiaConfig config;
  config.rank = 3;
  config.period = 4;
  SofiaStream sofia(config);
  OnlineSgd sgd(OnlineSgdOptions{.rank = 3});
  std::vector<StreamingMethod*> methods = {&sofia, &sgd};

  Mask::ResetDeepEqualityScans();
  std::vector<MethodRunResult> results =
      RunImputationComparison(methods, stream, truth);
  EXPECT_EQ(Mask::deep_equality_scans(), 0u)
      << "a steady-state step fell back to a dense mask byte compare";
  ASSERT_EQ(results.size(), 2u);
  for (const MethodRunResult& r : results) {
    EXPECT_EQ(r.run.pattern_builds, 1u);
    EXPECT_EQ(r.run.pattern_reuses, truth.size() - 1);
    EXPECT_TRUE(r.run.pattern_delta_sizes.empty());
  }
  EXPECT_EQ(sofia.model().step_pattern_builds(), 0u);
}

TEST(StreamPipelineTest, RebuildTelemetryLogsBitmapDeltas) {
  // Mask churn halfway through the stream: two builds, one logged delta of
  // exactly the masks' symmetric difference, everything else reuses.
  std::vector<DenseTensor> truth = MakeTruth(10, 41);
  CorruptedStream stream = Corrupt(truth, {30.0, 0.0, 0.0}, 42);
  const Mask mask_a = stream.masks[0];
  const Mask mask_b = stream.masks[5];
  for (size_t t = 0; t < 5; ++t) stream.masks[t] = mask_a;
  for (size_t t = 5; t < truth.size(); ++t) stream.masks[t] = mask_b;

  OnlineSgd sgd(OnlineSgdOptions{.rank = 3});
  std::vector<StreamingMethod*> methods = {&sgd};
  std::vector<MethodRunResult> results =
      RunImputationComparison(methods, stream, truth);

  const StreamRunResult& run = results[0].run;
  EXPECT_EQ(run.pattern_builds, 2u);
  EXPECT_EQ(run.pattern_reuses, truth.size() - 2);
  ASSERT_EQ(run.pattern_delta_sizes.size(), 1u);
  const size_t expected =
      SparseMask::FromMask(mask_a).DeltaSize(SparseMask::FromMask(mask_b));
  EXPECT_GT(expected, 0u);
  EXPECT_EQ(run.pattern_delta_sizes[0], expected);
}

}  // namespace
}  // namespace sofia
