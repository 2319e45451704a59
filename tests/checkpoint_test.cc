// StreamingMethod::SaveState / RestoreState across all nine methods:
//  - a checkpoint taken mid-stream and restored into a freshly constructed
//    method (same configuration) continues the stream bit-for-bit — the
//    contract StreamGuard's rollback policy is built on;
//  - re-serializing the restored state reproduces the checkpoint bytes
//    (bitwise-identical factors);
//  - corrupt bytes either throw StateError or restore into a state that
//    steps (truncation, mutation and hand-built shape-mismatch cases);
//  - StreamGuard's checkpoint ring wraps past its slot count, and a
//    rollback restores exactly the newest pre-fault state (pinned by
//    comparing against a twin that never saw the poisoned slice).

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <sstream>
#include <string>
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
#include "tensor/coo_list.hpp"
#include "util/rng.hpp"
#include "util/state_io.hpp"

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

/// All nine streaming methods, small configs (one factory call per
/// instance so paired instances share their configuration exactly).
std::vector<std::unique_ptr<StreamingMethod>> MakeAllMethods() {
  std::vector<std::unique_ptr<StreamingMethod>> methods;
  SofiaConfig config;
  config.rank = 3;
  config.period = 4;
  config.lambda1 = 0.5;
  config.lambda2 = 0.5;
  config.num_threads = 1;
  methods.push_back(std::make_unique<SofiaStream>(config));
  methods.push_back(std::make_unique<OnlineSgd>(OnlineSgdOptions{.rank = 3}));
  methods.push_back(std::make_unique<Olstec>(OlstecOptions{.rank = 3}));
  methods.push_back(std::make_unique<Mast>(MastOptions{.rank = 3}));
  methods.push_back(std::make_unique<OrMstc>(
      OrMstcOptions{.rank = 3, .outlier_lambda = 2.0}));
  methods.push_back(std::make_unique<BrstLite>(BrstOptions{.rank = 4}));
  methods.push_back(std::make_unique<Smf>(SmfOptions{.rank = 3, .period = 4}));
  methods.push_back(std::make_unique<Cphw>(CphwOptions{.rank = 3,
                                                       .period = 4}));
  methods.push_back(std::make_unique<CpWoptStream>(
      CpWoptStreamOptions{.rank = 3, .iterations_per_step = 5}));
  return methods;
}

/// Steps `method` over stream slices [from, to) and returns the estimates
/// gathered at every step's observed entries (the values rollback must
/// reproduce bit-for-bit).
std::vector<double> DriveAndGather(StreamingMethod* method,
                                   const CorruptedStream& stream, size_t from,
                                   size_t to) {
  std::vector<double> out;
  for (size_t t = from; t < to; ++t) {
    StepResult result = method->StepLazy(stream.slices[t], stream.masks[t]);
    CooList pattern =
        CooList::Build(stream.masks[t], /*with_mode_buckets=*/false);
    std::vector<double> gathered = result.GatherAt(pattern);
    out.insert(out.end(), gathered.begin(), gathered.end());
  }
  return out;
}

TEST(CheckpointTest, RoundTripContinuesBitwiseForAllNineMethods) {
  const size_t steps = 24;
  std::vector<DenseTensor> truth = MakeTruth(steps, 131);
  CorruptedStream stream = Corrupt(truth, {20.0, 5.0, 2.0}, 132);

  std::vector<std::unique_ptr<StreamingMethod>> originals = MakeAllMethods();
  std::vector<std::unique_ptr<StreamingMethod>> restored = MakeAllMethods();
  ASSERT_EQ(originals.size(), 9u);

  for (size_t m = 0; m < originals.size(); ++m) {
    StreamingMethod* a = originals[m].get();
    StreamingMethod* b = restored[m].get();
    SCOPED_TRACE(a->name());
    ASSERT_TRUE(a->SupportsStateCheckpoint());

    const size_t w = a->init_window();
    const size_t split = std::max<size_t>(w, 12) + 4;
    ASSERT_LT(split, steps);
    if (w > 0) {
      std::vector<DenseTensor> init_slices(stream.slices.begin(),
                                           stream.slices.begin() + w);
      std::vector<Mask> init_masks(stream.masks.begin(),
                                   stream.masks.begin() + w);
      a->Initialize(init_slices, init_masks);
    }
    DriveAndGather(a, stream, w, split);

    std::ostringstream snapshot;
    a->SaveState(snapshot);

    // `b` is a fresh instance: no Initialize, no steps — the checkpoint is
    // its entire state.
    std::istringstream in(snapshot.str());
    b->RestoreState(in);

    // Bitwise-identical state: re-serializing reproduces the bytes.
    std::ostringstream again;
    b->SaveState(again);
    EXPECT_EQ(snapshot.str(), again.str());

    // Bit-for-bit continuation on the shared tail.
    std::vector<double> tail_a = DriveAndGather(a, stream, split, steps);
    std::vector<double> tail_b = DriveAndGather(b, stream, split, steps);
    ASSERT_EQ(tail_a.size(), tail_b.size());
    for (size_t k = 0; k < tail_a.size(); ++k) {
      ASSERT_EQ(tail_a[k], tail_b[k]) << "diverged at gathered value " << k;
    }
  }
}

TEST(CheckpointTest, RestoreRejectsWrongMethodTag) {
  // A recoverable error, not an abort: the durability layer catches
  // StateError to fall back to an older checkpoint generation.
  OnlineSgd sgd(OnlineSgdOptions{.rank = 3});
  std::ostringstream snapshot;
  sgd.SaveState(snapshot);
  Mast mast(MastOptions{.rank = 3});
  std::istringstream in(snapshot.str());
  EXPECT_THROW(mast.RestoreState(in), state_io::StateError);
}

TEST(CheckpointTest, CpWoptRestoreRejectsWrongRank) {
  // A rank-5 checkpoint parses as a valid matrix list, but a rank-4
  // stream cannot warm-start from it: its next step would abort. Restore
  // must throw instead (DurableGuard then skips the generation) and leave
  // the stream's own state alone.
  std::vector<DenseTensor> truth = MakeTruth(3, 151);
  const Mask omega(truth[0].shape(), true);
  CpWoptStream rank5(CpWoptStreamOptions{.rank = 5, .iterations_per_step = 2});
  rank5.StepLazy(truth[0], omega);
  std::ostringstream snapshot;
  rank5.SaveState(snapshot);

  CpWoptStream rank4(CpWoptStreamOptions{.rank = 4, .iterations_per_step = 2});
  std::istringstream in(snapshot.str());
  EXPECT_THROW(rank4.RestoreState(in), state_io::StateError);
  EXPECT_TRUE(rank4.factors().empty());
  rank4.StepLazy(truth[1], omega);
  ASSERT_EQ(rank4.factors().size(), 2u);
  EXPECT_EQ(rank4.factors()[0].cols(), 4u);

  CpWoptStream same_rank(
      CpWoptStreamOptions{.rank = 5, .iterations_per_step = 2});
  std::istringstream again(snapshot.str());
  same_rank.RestoreState(again);
  ASSERT_EQ(same_rank.factors().size(), 2u);
  EXPECT_EQ(same_rank.factors()[1].MaxAbsDiff(rank5.factors()[1]), 0.0);
}

TEST(CheckpointTest, CpWoptMisShapedCheckpointTakesTheRandomStart) {
  // A checkpoint of the right rank but another slice shape (a state dir
  // reused after the stream changed) restores: the slice shape is unknown
  // until the next step. That step must not warm-start from it -- the
  // solver's shape check would abort, killing DurableGuard's journal
  // replay -- nor reinterpret a same-volume transpose. It takes the random
  // start of a fresh stream instead.
  std::vector<DenseTensor> truth = MakeTruth(1, 161);  // One 6x5 slice.
  const CpWoptStreamOptions options{.rank = 5, .iterations_per_step = 2};
  CpWoptStream saved(options);
  saved.StepLazy(truth[0], Mask(truth[0].shape(), true));
  std::ostringstream snapshot;
  saved.SaveState(snapshot);

  Rng rng(162);
  for (const Shape& shape : {Shape({5, 6}), Shape({7, 5}), Shape({6, 5, 2})}) {
    SCOPED_TRACE(shape.ToString());
    const DenseTensor y = DenseTensor::RandomNormal(shape, rng);
    const Mask omega(shape, true);
    CpWoptStream restored(options);
    std::istringstream in(snapshot.str());
    restored.RestoreState(in);
    restored.StepLazy(y, omega);
    CpWoptStream fresh(options);
    fresh.StepLazy(y, omega);
    ASSERT_EQ(restored.factors().size(), shape.order());
    for (size_t n = 0; n < shape.order(); ++n) {
      EXPECT_EQ(restored.factors()[n].rows(), shape.dim(n));
      EXPECT_EQ(restored.factors()[n].MaxAbsDiff(fresh.factors()[n]), 0.0);
    }
  }
}

TEST(CheckpointTest, RestoreSurvivesTruncationAndBitFlipFuzz) {
  // Corruption fuzz across all nine methods: every truncation and every
  // single-character mutation of a valid checkpoint must either restore
  // cleanly or throw StateError — never abort, crash, or allocate from a
  // poisoned size field. (ASan runs this same loop in CI.)
  const size_t steps = 20;
  std::vector<DenseTensor> truth = MakeTruth(steps, 171);
  CorruptedStream stream = Corrupt(truth, {20.0, 5.0, 2.0}, 172);

  std::vector<std::unique_ptr<StreamingMethod>> originals = MakeAllMethods();
  for (size_t m = 0; m < originals.size(); ++m) {
    StreamingMethod* a = originals[m].get();
    SCOPED_TRACE(a->name());
    const size_t w = a->init_window();
    if (w > 0) {
      std::vector<DenseTensor> init_slices(stream.slices.begin(),
                                           stream.slices.begin() + w);
      std::vector<Mask> init_masks(stream.masks.begin(),
                                   stream.masks.begin() + w);
      a->Initialize(init_slices, init_masks);
    }
    DriveAndGather(a, stream, w, std::max<size_t>(w, 12) + 4);
    std::ostringstream snapshot;
    a->SaveState(snapshot);
    const std::string bytes = snapshot.str();
    ASSERT_FALSE(bytes.empty());

    const auto restore_must_not_crash = [&](const std::string& corrupt) {
      std::unique_ptr<StreamingMethod> fresh =
          std::move(MakeAllMethods()[m]);
      std::istringstream in(corrupt);
      try {
        fresh->RestoreState(in);
      } catch (const state_io::StateError&) {
        // Rejected cleanly — the expected outcome for most mutations.
      }
    };

    // Truncations (torn writes at rest).
    for (const double frac : {0.0, 0.1, 0.3, 0.5, 0.7, 0.9}) {
      restore_must_not_crash(
          bytes.substr(0, static_cast<size_t>(frac * bytes.size())));
    }
    restore_must_not_crash(bytes.substr(0, bytes.size() - 1));

    // Single-character mutations (bit rot), spread across the buffer. '9'
    // inflates digits (stressing the allocation caps); '#' breaks parses.
    const size_t stride = std::max<size_t>(1, bytes.size() / 24);
    for (size_t pos = 0; pos < bytes.size(); pos += stride) {
      for (const char c : {'9', '#'}) {
        if (bytes[pos] == c) continue;
        std::string mutated = bytes;
        mutated[pos] = c;
        restore_must_not_crash(mutated);
      }
    }
  }
}

/// Restores `bytes` into a fresh instance of method `m` of MakeAllMethods()
/// and, when the restore succeeds, steps it once. Returns whether the
/// restore succeeded; a rejected checkpoint throws StateError and is
/// caught here. Crashes (CHECK aborts, out-of-bounds reads) fail the test
/// binary outright, and ASan reports the silent ones.
bool RestoreAndStep(size_t m, const std::string& bytes,
                    const CorruptedStream& stream, size_t t) {
  std::unique_ptr<StreamingMethod> fresh = std::move(MakeAllMethods()[m]);
  std::istringstream in(bytes);
  try {
    fresh->RestoreState(in);
  } catch (const state_io::StateError&) {
    return false;
  }
  // A restore can yield a pre-Initialize SOFIA stream (the model-present
  // flag flipped to 0): valid, but it takes Initialize, not Step.
  std::ostringstream state;
  fresh->SaveState(state);
  if (state.str() == "sofia-stream v1\n0\n") return true;
  fresh->StepLazy(stream.slices[t], stream.masks[t]);
  return true;
}

TEST(CheckpointTest, EveryRestoredMutantStepsWithoutCrashing) {
  // A checkpoint that restores must be able to step: DurableGuard replays
  // the journal straight onto whatever RestoreState accepted. Truncations
  // and single-character mutations (every size/400-th byte set to each of
  // '9', '#', '1', '0', ' ') of all nine methods' checkpoints either throw
  // StateError or restore into a state that steps. (ASan runs this same
  // loop in CI.)
  const size_t steps = 20;
  std::vector<DenseTensor> truth = MakeTruth(steps, 181);
  CorruptedStream stream = Corrupt(truth, {20.0, 5.0, 2.0}, 182);
  std::vector<std::unique_ptr<StreamingMethod>> originals = MakeAllMethods();
  std::string sofia_bytes;
  ASSERT_EQ(originals.size(), 9u);
  for (size_t m = 0; m < originals.size(); ++m) {
    StreamingMethod* a = originals[m].get();
    SCOPED_TRACE(a->name());
    const size_t w = a->init_window();
    if (w > 0) {
      std::vector<DenseTensor> init_slices(stream.slices.begin(),
                                           stream.slices.begin() + w);
      std::vector<Mask> init_masks(stream.masks.begin(),
                                   stream.masks.begin() + w);
      a->Initialize(init_slices, init_masks);
    }
    const size_t split = std::max<size_t>(w, 12) + 4;
    DriveAndGather(a, stream, w, split);
    std::ostringstream snapshot;
    a->SaveState(snapshot);
    const std::string bytes = snapshot.str();
    ASSERT_TRUE(RestoreAndStep(m, bytes, stream, split));
    if (m == 0) sofia_bytes = bytes;

    for (const double frac : {0.0, 0.1, 0.3, 0.5, 0.7, 0.9}) {
      RestoreAndStep(m, bytes.substr(0, static_cast<size_t>(frac *
                                                            bytes.size())),
                     stream, split);
    }
    RestoreAndStep(m, bytes.substr(0, bytes.size() - 1), stream, split);
    const size_t stride = std::max<size_t>(1, bytes.size() / 400);
    for (size_t pos = 0; pos < bytes.size(); pos += stride) {
      for (const char c : {'9', '#', '1', '0', ' '}) {
        if (bytes[pos] == c) continue;
        std::string mutated = bytes;
        mutated[pos] = c;
        RestoreAndStep(m, mutated, stream, split);
      }
    }
  }

  // Two hand-built SOFIA checkpoints that parse but whose fields disagree
  // with the rank or the error-scale shape: a trend vector cut to one
  // entry, and factor 0 re-declared 9 x 2 over its 18 values instead of
  // 6 x 3. Step would read past the trend or fail the kernels' factor
  // shape check; the restore must throw instead. Lines: stream header,
  // model flag, model header, config, ablation, factor count, one line per
  // factor, HW count, one line per HW triple, level, trend, ...
  std::vector<std::string> lines;
  std::istringstream split_lines(sofia_bytes);
  for (std::string line; std::getline(split_lines, line);) {
    lines.push_back(line);
  }
  ASSERT_GT(lines.size(), 13u);
  ASSERT_EQ(lines[2], "sofia-model v3");
  ASSERT_EQ(lines[5], "2");
  ASSERT_EQ(lines[6].compare(0, 4, "6 3 "), 0);
  ASSERT_EQ(lines[8], "3");
  const size_t trend = 13;
  ASSERT_EQ(lines[trend].compare(0, 2, "3 "), 0);
  auto join = [](const std::vector<std::string>& ls) {
    std::string out;
    for (const std::string& l : ls) out += l + "\n";
    return out;
  };
  ASSERT_EQ(join(lines), sofia_bytes);
  std::vector<std::string> cut_trend = lines;  // "3 a b c" -> "1 a".
  const size_t second = cut_trend[trend].find(' ', 2);
  cut_trend[trend] = "1 " + cut_trend[trend].substr(2, second - 2);
  std::vector<std::string> reshaped = lines;
  reshaped[6] = "9 2 " + reshaped[6].substr(4);
  for (const auto& corrupt : {cut_trend, reshaped}) {
    std::unique_ptr<StreamingMethod> fresh = std::move(MakeAllMethods()[0]);
    std::istringstream in(join(corrupt));
    EXPECT_THROW(fresh->RestoreState(in), state_io::StateError);
  }
}

TEST(CheckpointTest, GuardRingWrapsAndRollbackRestoresNewestState) {
  const size_t steps = 12;
  std::vector<DenseTensor> truth = MakeTruth(steps, 141);
  CorruptedStream stream = Corrupt(truth, {20.0, 0.0, 0.0}, 142);

  StreamGuardOptions options;
  options.policy = GuardPolicy::kRollback;
  options.checkpoint_every = 1;  // Per-step saves: rollback loses nothing.
  options.checkpoint_slots = 2;  // Force wraparound well within the run.
  // Disable the payload-scale watch so the huge slice reaches the health
  // layer (this test pins the rollback path, not input validation).
  options.payload_explosion_factor = 0.0;
  StreamGuard guard(std::make_unique<OnlineSgd>(OnlineSgdOptions{.rank = 3}),
                    options);
  // Twin that simply never receives the poisoned slice: after the guard's
  // rollback both must be in the same state bit-for-bit.
  OnlineSgd twin(OnlineSgdOptions{.rank = 3});

  const size_t fault_step = 8;
  for (size_t t = 0; t < fault_step; ++t) {
    guard.StepLazy(stream.slices[t], stream.masks[t]);
    twin.StepLazy(stream.slices[t], stream.masks[t]);
  }
  // More ring writes than slots: the ring wrapped.
  EXPECT_EQ(guard.telemetry().checkpoints_saved, fault_step);
  EXPECT_GT(guard.telemetry().checkpoints_saved, options.checkpoint_slots);

  // A hugely scaled payload passes input validation (finite) but trips the
  // health watch; rollback restores the newest checkpoint = the state after
  // step fault_step - 1, which is exactly the twin's state.
  DenseTensor poisoned = stream.slices[fault_step];
  for (size_t k = 0; k < poisoned.NumElements(); ++k) {
    poisoned[k] = (stream.max_abs + 1.0) * 1e9;
  }
  guard.StepLazy(poisoned, stream.masks[fault_step]);
  EXPECT_EQ(guard.telemetry().health_trips, 1u);
  EXPECT_EQ(guard.telemetry().rollbacks, 1u);

  std::vector<double> after_guard =
      DriveAndGather(&guard, stream, fault_step + 1, steps);
  std::vector<double> after_twin =
      DriveAndGather(&twin, stream, fault_step + 1, steps);
  ASSERT_EQ(after_guard.size(), after_twin.size());
  for (size_t k = 0; k < after_guard.size(); ++k) {
    ASSERT_EQ(after_guard[k], after_twin[k])
        << "rollback did not restore the pre-fault state (value " << k << ")";
  }
}

}  // namespace
}  // namespace sofia
