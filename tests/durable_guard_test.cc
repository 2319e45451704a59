// DurableGuard kill-and-recover matrix: for every injected crash point —
// snapshot mid-write (torn tmp), snapshot rename, journal mid-append (torn
// record), fsync, and recovery mid-replay — a restart from whatever the
// "disk" holds resumes the stream and produces estimates bitwise identical
// to a run that never crashed. Corrupted-at-rest snapshots degrade to the
// newest older uncorrupted generation (with the journal covering the gap),
// and when nothing on disk is usable the guard reports that instead of
// crashing, hanging, or silently answering wrong.

#include <dirent.h>
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "baselines/online_sgd.hpp"
#include "baselines/smf.hpp"
#include "core/sofia_stream.hpp"
#include "data/corruption.hpp"
#include "data/slice_format.hpp"
#include "data/synthetic.hpp"
#include "eval/durable_guard.hpp"
#include "eval/stream_guard.hpp"
#include "tensor/coo_list.hpp"
#include "util/durable_io.hpp"
#include "util/fault_injection.hpp"
#include "util/rng.hpp"

namespace sofia {
namespace {

constexpr size_t kSteps = 60;

std::string MakeTempDir() {
  char tmpl[] = "/tmp/sofia_dguard_XXXXXX";
  const char* dir = mkdtemp(tmpl);
  EXPECT_NE(dir, nullptr);
  return dir;
}

/// A 60-step corrupted stream, pre-decoded to the canonical form (observed
/// entries only) so raw methods and durable guards see identical inputs.
CorruptedStream MakeStream(uint64_t seed) {
  SyntheticTensor syn = MakeSinusoidTensor(6, 5, kSteps, 3, 4, seed);
  std::vector<DenseTensor> truth;
  for (size_t t = 0; t < kSteps; ++t) {
    truth.push_back(syn.tensor.SliceLastMode(t));
  }
  CorruptedStream stream = Corrupt(truth, {20.0, 5.0, 2.0}, seed + 1);
  for (size_t t = 0; t < stream.slices.size(); ++t) {
    stream.slices[t] = stream.masks[t].Apply(stream.slices[t]);
  }
  return stream;
}

std::unique_ptr<StreamingMethod> MakeInner() {
  return std::make_unique<OnlineSgd>(OnlineSgdOptions{.rank = 3});
}

DurableGuardOptions MakeOptions(const std::string& dir) {
  DurableGuardOptions options;
  options.state_dir = dir;
  options.snapshot_every = 7;  // Several generations within 60 steps.
  options.generations = 3;
  options.retry.sleep = false;
  return options;
}

/// Estimates gathered at the observed entries of step t.
std::vector<double> GatherStep(StreamingMethod* method,
                               const CorruptedStream& stream, size_t t) {
  StepResult result = method->StepLazy(stream.slices[t], stream.masks[t]);
  CooList pattern =
      CooList::Build(stream.masks[t], /*with_mode_buckets=*/false);
  return result.GatherAt(pattern);
}

/// Per-step gathered estimates of an uninterrupted, unguarded run — the
/// bitwise reference every recovered run must reproduce.
std::vector<std::vector<double>> Reference(const CorruptedStream& stream) {
  std::unique_ptr<StreamingMethod> method = MakeInner();
  std::vector<std::vector<double>> out;
  for (size_t t = 0; t < kSteps; ++t) {
    out.push_back(GatherStep(method.get(), stream, t));
  }
  return out;
}

/// Drives a fresh durable guard until `spec` kills it, "reboots" into a new
/// guard over the same state_dir, recovers, and finishes the stream.
/// Verifies every estimate produced after recovery is bitwise identical to
/// the reference, and that recovery lost at most the steps after the last
/// consistency point (it must never resume PAST the crash step).
void KillRecoverResume(const CorruptedStream& stream,
                       const std::vector<std::vector<double>>& reference,
                       const fault::FaultSpec& spec) {
  SCOPED_TRACE(spec.site + " at op " + std::to_string(spec.at));
  const std::string dir = MakeTempDir();

  // --- Phase 1: run until the injected crash kills the "process". -------
  size_t crash_step = kSteps;
  {
    DurableGuard guard(MakeInner(), MakeOptions(dir));
    fault::ScopedFaultPlan plan(spec);
    try {
      for (size_t t = 0; t < kSteps; ++t) {
        const std::vector<double> got = GatherStep(&guard, stream, t);
        ASSERT_EQ(got, reference[t]) << "pre-crash divergence at step " << t;
      }
      guard.Drain();
    } catch (const fault::SimulatedCrash& crash) {
      crash_step = guard.telemetry().steps;
      EXPECT_EQ(crash.site, spec.site);
    }
    fault::Reset();
    ASSERT_LT(crash_step, kSteps) << "fault never fired — dead matrix row";
  }  // Guard destroyed: whatever reached disk is all recovery gets.

  // --- Phase 2: reboot, recover, resume. --------------------------------
  DurableGuard rebooted(MakeInner(), MakeOptions(dir));
  const RecoveryReport report = rebooted.Recover();
  ASSERT_TRUE(report.restored) << "no usable snapshot after " << spec.site;
  ASSERT_LE(report.resume_step, crash_step + 1);
  for (size_t t = report.resume_step; t < kSteps; ++t) {
    const std::vector<double> got = GatherStep(&rebooted, stream, t);
    ASSERT_EQ(got, reference[t])
        << "recovered run diverged at step " << t << " (resumed from "
        << report.resume_step << ")";
  }
}

TEST(DurableGuardTest, UninterruptedRunMatchesRawMethodBitwise) {
  const CorruptedStream stream = MakeStream(211);
  const std::vector<std::vector<double>> reference = Reference(stream);
  DurableGuard guard(MakeInner(), MakeOptions(MakeTempDir()));
  for (size_t t = 0; t < kSteps; ++t) {
    EXPECT_EQ(GatherStep(&guard, stream, t), reference[t]) << "step " << t;
  }
  guard.Drain();
  EXPECT_EQ(guard.telemetry().steps, kSteps);
  EXPECT_EQ(guard.telemetry().journal_appends, kSteps);
  EXPECT_GT(guard.telemetry().snapshots_written, 0u);
  EXPECT_EQ(guard.telemetry().journal_failures, 0u);
}

TEST(DurableGuardTest, KillAndRecoverMatrixIsBitwiseIdentical) {
  const CorruptedStream stream = MakeStream(223);
  const std::vector<std::vector<double>> reference = Reference(stream);

  const fault::FaultSpec matrix[] = {
      // Snapshot mid-write: torn tmp file (never renamed in).
      {"atomic.write", fault::FaultKind::kTornWrite, 2, 1, 0.5},
      {"atomic.write", fault::FaultKind::kTornWrite, 4, 1, 0.1},
      // Snapshot crash before any bytes / at fsync / at rename.
      {"atomic.write", fault::FaultKind::kCrash, 3, 1, 0.5},
      {"atomic.fsync", fault::FaultKind::kCrash, 2, 1, 0.5},
      {"atomic.rename", fault::FaultKind::kCrash, 1, 1, 0.5},
      {"atomic.rename", fault::FaultKind::kCrash, 3, 1, 0.5},
      // Journal mid-append: torn record, various points in the run.
      {"journal.append", fault::FaultKind::kTornWrite, 5, 1, 0.5},
      {"journal.append", fault::FaultKind::kTornWrite, 20, 1, 0.8},
      {"journal.append", fault::FaultKind::kCrash, 33, 1, 0.5},
      // Journal group-commit fsync.
      {"journal.fsync", fault::FaultKind::kCrash, 2, 1, 0.5},
  };
  for (const fault::FaultSpec& spec : matrix) {
    KillRecoverResume(stream, reference, spec);
  }
}

TEST(DurableGuardTest, CrashDuringRecoveryReplayIsReRecoverable) {
  const CorruptedStream stream = MakeStream(227);
  const std::vector<std::vector<double>> reference = Reference(stream);
  const std::string dir = MakeTempDir();

  // Run partway, then stop without a final snapshot: the journal tail is
  // ahead of the newest snapshot, so recovery must replay.
  size_t ran = 24;
  {
    DurableGuard guard(MakeInner(), MakeOptions(dir));
    for (size_t t = 0; t < ran; ++t) GatherStep(&guard, stream, t);
    guard.Drain();
  }

  // First recovery attempt dies mid-replay; the second must succeed off
  // the same files (recovery mutates nothing until its final snapshot).
  {
    DurableGuard guard(MakeInner(), MakeOptions(dir));
    fault::ScopedFaultPlan plan(
        {"recover.replay", fault::FaultKind::kCrash, 1, 1, 0.5});
    EXPECT_THROW(guard.Recover(), fault::SimulatedCrash);
  }
  DurableGuard rebooted(MakeInner(), MakeOptions(dir));
  const RecoveryReport report = rebooted.Recover();
  ASSERT_TRUE(report.restored);
  EXPECT_EQ(report.resume_step, ran);  // Drained journal: nothing lost.
  EXPECT_GT(report.replayed_records, 0u);
  for (size_t t = report.resume_step; t < kSteps; ++t) {
    ASSERT_EQ(GatherStep(&rebooted, stream, t), reference[t])
        << "step " << t;
  }
}

TEST(DurableGuardTest, CorruptNewestSnapshotDegradesToOlderGeneration) {
  const CorruptedStream stream = MakeStream(229);
  const std::vector<std::vector<double>> reference = Reference(stream);
  const std::string dir = MakeTempDir();
  {
    DurableGuard guard(MakeInner(), MakeOptions(dir));
    for (size_t t = 0; t < 40; ++t) GatherStep(&guard, stream, t);
    guard.Drain();
  }

  // Bit-rot the newest snapshot generation at rest.
  durable::SnapshotStore store(dir, "snap", durable::SnapshotOptions{});
  const std::vector<uint64_t> gens = store.ListGenerations();
  ASSERT_GE(gens.size(), 2u);
  ASSERT_TRUE(fault::FlipFileBit(store.GenerationPath(gens.back()), 64, 2));

  DurableGuard rebooted(MakeInner(), MakeOptions(dir));
  const RecoveryReport report = rebooted.Recover();
  ASSERT_TRUE(report.restored);
  EXPECT_EQ(report.snapshot_seq, gens[gens.size() - 2]);
  EXPECT_EQ(report.skipped_generations, 1u);
  // The retained journal segments cover the gap up to the drained tail.
  EXPECT_EQ(report.resume_step, 40u);
  for (size_t t = report.resume_step; t < kSteps; ++t) {
    ASSERT_EQ(GatherStep(&rebooted, stream, t), reference[t])
        << "step " << t;
  }
}

TEST(DurableGuardTest, AllGenerationsCorruptReportsNotRestored) {
  const CorruptedStream stream = MakeStream(233);
  const std::string dir = MakeTempDir();
  {
    DurableGuard guard(MakeInner(), MakeOptions(dir));
    for (size_t t = 0; t < 20; ++t) GatherStep(&guard, stream, t);
    guard.Drain();
  }
  durable::SnapshotStore store(dir, "snap", durable::SnapshotOptions{});
  for (const uint64_t seq : store.ListGenerations()) {
    ASSERT_TRUE(fault::TruncateFile(store.GenerationPath(seq), 10));
  }
  DurableGuard rebooted(MakeInner(), MakeOptions(dir));
  const RecoveryReport report = rebooted.Recover();
  EXPECT_FALSE(report.restored);  // Caller streams from scratch — no crash,
  EXPECT_EQ(report.resume_step, 0u);  // no hang, no silent wrong answer.
  EXPECT_GE(report.skipped_generations, 2u);
}

TEST(DurableGuardTest, FailedJournalFsyncIsCountedAsALostJournal) {
  // The group-commit fsync at a snapshot boundary fails. The journal then
  // counts as lost, as after a failed per-record fsync; the stream goes
  // on, and the snapshot that lands there opens a fresh segment. The
  // pristine snapshot (this init-less stack's Initialize point) has no
  // segment to sync, so journal.fsync's first operation is the group
  // commit of the first cadence snapshot after it.
  const CorruptedStream stream = MakeStream(261);
  const std::vector<std::vector<double>> reference = Reference(stream);
  const std::string dir = MakeTempDir();
  {
    DurableGuard guard(MakeInner(), MakeOptions(dir));
    fault::ScopedFaultPlan plan(
        {"journal.fsync", fault::FaultKind::kIoError, 0, 1, 0.5});
    for (size_t t = 0; t < kSteps; ++t) {
      EXPECT_EQ(GatherStep(&guard, stream, t), reference[t]) << "step " << t;
    }
    guard.Drain();
    EXPECT_EQ(fault::InjectedCount(), 1u);
    EXPECT_GT(guard.telemetry().journal_failures, 0u);
  }
  DurableGuard rebooted(MakeInner(), MakeOptions(dir));
  const RecoveryReport report = rebooted.Recover();
  ASSERT_TRUE(report.restored);
  EXPECT_EQ(report.resume_step, kSteps);
}

/// Pass-through method that, each time it is handed a slice, reads the
/// newest journal segment in `dir` from disk and keeps its last record.
class JournalProbe : public StreamingMethod {
 public:
  explicit JournalProbe(std::string dir)
      : inner_(MakeInner()), dir_(std::move(dir)) {}

  std::string name() const override { return inner_->name(); }
  StepResult StepLazy(const DenseTensor& y, const Mask& omega,
                      std::shared_ptr<const CooList> pattern) override {
    ReadNewestRecord(y, omega);
    return inner_->StepLazy(y, omega, std::move(pattern));
  }
  void Observe(const DenseTensor& y, const Mask& omega) override {
    ReadNewestRecord(y, omega);
    inner_->Observe(y, omega);
  }
  bool SupportsStateCheckpoint() const override { return true; }
  void SaveState(std::ostream& out) const override { inner_->SaveState(out); }
  void RestoreState(std::istream& in) override { inner_->RestoreState(in); }

  /// Per slice handed in: the step of the newest segment's last record
  /// (UINT64_MAX when there was none), and whether that record decodes to
  /// exactly the slice and mask the probe was handed.
  std::vector<uint64_t> last_steps;
  std::vector<bool> same_slice;

 private:
  void ReadNewestRecord(const DenseTensor& y, const Mask& omega) {
    // Segment names are wal-<seq>.slices; the newest has the largest seq.
    std::string newest;
    uint64_t newest_seq = 0;
    if (DIR* d = ::opendir(dir_.c_str())) {
      while (const dirent* entry = ::readdir(d)) {
        const std::string name = entry->d_name;
        if (name.rfind("wal-", 0) != 0) continue;
        const uint64_t seq = std::stoull(name.substr(4));
        if (newest.empty() || seq > newest_seq) {
          newest = dir_ + "/" + name;
          newest_seq = seq;
        }
      }
      ::closedir(d);
    }
    slicefmt::SliceFileReader reader;
    if (newest.empty() || !reader.Open(newest) ||
        reader.num_records() == 0) {
      last_steps.push_back(UINT64_MAX);
      same_slice.push_back(false);
      return;
    }
    const size_t last = reader.num_records() - 1;
    DenseTensor slice;
    Mask mask;
    reader.Decode(last, &slice, &mask);
    last_steps.push_back(reader.record(last).step);
    same_slice.push_back(
        slice.shape() == y.shape() && mask == omega &&
        std::memcmp(slice.data(), y.data(),
                    y.NumElements() * sizeof(double)) == 0);
  }

  std::unique_ptr<StreamingMethod> inner_;
  std::string dir_;
};

TEST(DurableGuardTest, EachRecordIsOnDiskBeforeTheInnerMethodSeesIt) {
  // Write-ahead order: the guard writes a slice's record to the current
  // segment before it hands the slice on, so a crash inside the inner step
  // never loses a slice the method saw. Both entry points, on and between
  // snapshot boundaries.
  const CorruptedStream stream = MakeStream(263);
  const std::string dir = MakeTempDir();
  auto owned = std::make_unique<JournalProbe>(dir);
  const JournalProbe& probe = *owned;
  DurableGuard guard(std::move(owned), MakeOptions(dir));
  for (size_t t = 0; t < kSteps; ++t) {
    if (t % 3 == 2) {
      guard.Observe(stream.slices[t], stream.masks[t]);
    } else {
      guard.StepLazy(stream.slices[t], stream.masks[t]);
    }
  }
  ASSERT_EQ(probe.last_steps.size(), kSteps);
  for (size_t t = 0; t < kSteps; ++t) {
    EXPECT_EQ(probe.last_steps[t], t) << "slice " << t;
    EXPECT_TRUE(probe.same_slice[t]) << "slice " << t;
  }
  EXPECT_GT(guard.telemetry().snapshots_written, 2u);
}

TEST(DurableGuardTest, ComposesOverStreamGuardAndRecoversBitwise) {
  // The production stack: DurableGuard(StreamGuard(method)). On a
  // trip-free stream the guard's rolling windows stay quiescent, so a
  // kill-recover cycle reproduces the uninterrupted composite bitwise.
  const CorruptedStream stream = MakeStream(251);
  const std::string dir = MakeTempDir();
  // Trip-free configuration: this pins the plain composition; replays
  // through trips are covered by the garbage-slice test below.
  StreamGuardOptions guard_options;
  guard_options.payload_explosion_factor = 0.0;  // 0 disables the layer.
  guard_options.nre_spike_factor = 1e18;
  guard_options.norm_explosion_factor = 1e18;
  const auto make_composite = [&] {
    return std::make_unique<StreamGuard>(MakeInner(), guard_options);
  };

  std::vector<std::vector<double>> reference;
  {
    std::unique_ptr<StreamGuard> plain = make_composite();
    for (size_t t = 0; t < kSteps; ++t) {
      reference.push_back(GatherStep(plain.get(), stream, t));
    }
  }

  size_t crash_step = kSteps;
  {
    DurableGuard guard(make_composite(), MakeOptions(dir));
    fault::ScopedFaultPlan plan(
        {"journal.append", fault::FaultKind::kTornWrite, 30, 1, 0.5});
    try {
      for (size_t t = 0; t < kSteps; ++t) GatherStep(&guard, stream, t);
    } catch (const fault::SimulatedCrash&) {
      crash_step = guard.telemetry().steps;
    }
    fault::Reset();
    ASSERT_LT(crash_step, kSteps);
  }

  DurableGuard rebooted(make_composite(), MakeOptions(dir));
  const RecoveryReport report = rebooted.Recover();
  ASSERT_TRUE(report.restored);
  for (size_t t = report.resume_step; t < kSteps; ++t) {
    ASSERT_EQ(GatherStep(&rebooted, stream, t), reference[t])
        << "step " << t;
  }
}

TEST(DurableGuardTest, ReplayThroughGuardRejectsGarbageLikeTheLiveGuard) {
  // A huge-but-finite garbage slice lands in the journal tail after the
  // last snapshot. The live guard rejects it by payload scale; recovery
  // replays the tail through a fresh guard, which must reject it too —
  // its payload window comes from the snapshot — and then continue bit
  // for bit like a guard that never crashed.
  CorruptedStream stream = MakeStream(263);
  // The first slice after the snapshot at step 28, so a guard restored
  // without its payload window has nothing to compare the garbage against.
  const size_t garbage_step = 28;
  const size_t ran = 34;  // Crash point: tail = steps 28..33.
  for (size_t k = 0; k < stream.slices[garbage_step].NumElements(); ++k) {
    stream.slices[garbage_step][k] *= 1e6;
  }
  const std::string dir = MakeTempDir();
  const auto make_guard = [] {
    return std::make_unique<StreamGuard>(MakeInner(), StreamGuardOptions{});
  };

  std::vector<std::vector<double>> reference;
  {
    std::unique_ptr<StreamGuard> plain = make_guard();
    for (size_t t = 0; t < kSteps; ++t) {
      reference.push_back(GatherStep(plain.get(), stream, t));
    }
    ASSERT_EQ(plain->telemetry().input_trips, 1u);
  }

  {
    DurableGuard guard(make_guard(), MakeOptions(dir));
    for (size_t t = 0; t < ran; ++t) {
      ASSERT_EQ(GatherStep(&guard, stream, t), reference[t]) << "step " << t;
    }
    guard.Drain();
  }  // "Killed": no snapshot after step 28.

  auto recovered_guard = make_guard();
  const StreamGuard* recovered_view = recovered_guard.get();
  DurableGuard rebooted(std::move(recovered_guard), MakeOptions(dir));
  const RecoveryReport report = rebooted.Recover();
  ASSERT_TRUE(report.restored);
  ASSERT_EQ(report.snapshot_step, garbage_step);
  EXPECT_EQ(report.resume_step, ran);
  EXPECT_EQ(recovered_view->telemetry().input_trips, 1u)
      << "the replayed garbage slice reached the inner method";
  for (size_t t = report.resume_step; t < kSteps; ++t) {
    ASSERT_EQ(GatherStep(&rebooted, stream, t), reference[t])
        << "step " << t;
  }
}

TEST(DurableGuardTest, WrongShapedSlicesAfterSnapshotRecoverBitwise) {
  // DurableGuard(StreamGuard(SOFIA)) on 6x5 slices. After the newest
  // snapshot (step 64) the stack is handed a larger slice, a smaller one
  // (whose entries would fit a 6x5 record), and a 6x5 slice under a 7x5
  // mask. The live guard rejects each as a shape fault; the journal holds
  // an empty record at each step, which the replayed guard rejects as an
  // empty slice. Both only advance the inner clock, so the recovered stack
  // resumes where the live one stopped and continues bit for bit.
  constexpr size_t kSliceCount = 80;
  SofiaConfig config;
  config.rank = 3;
  config.period = 4;
  config.lambda1 = 0.5;
  config.lambda2 = 0.5;
  config.max_init_iterations = 5;  // Init quality is beside the point.
  const size_t window = config.InitWindow();
  SyntheticTensor syn = MakeSinusoidTensor(6, 5, window + kSliceCount, 3, 4,
                                           271);
  std::vector<DenseTensor> truth;
  for (size_t t = 0; t < window + kSliceCount; ++t) {
    truth.push_back(syn.tensor.SliceLastMode(t));
  }
  const CorruptedStream stream = Corrupt(truth, {20.0, 5.0, 2.0}, 272);
  const std::vector<DenseTensor> init_slices(stream.slices.begin(),
                                             stream.slices.begin() + window);
  const std::vector<Mask> init_masks(stream.masks.begin(),
                                     stream.masks.begin() + window);

  // Steps 65-67 carry the wrong shapes; the others the stream's slices.
  Rng rng(273);
  const DenseTensor larger = DenseTensor::RandomNormal(Shape({7, 5}), rng);
  const DenseTensor smaller = DenseTensor::RandomNormal(Shape({4, 5}), rng);
  const Mask larger_mask(Shape({7, 5}), true);
  const Mask smaller_mask(Shape({4, 5}), true);
  const auto slice_at = [&](size_t step) -> std::pair<const DenseTensor*,
                                                      const Mask*> {
    const size_t t = window + step;
    if (step == 65) return {&larger, &larger_mask};
    if (step == 66) return {&smaller, &smaller_mask};
    if (step == 67) return {&stream.slices[t], &larger_mask};
    return {&stream.slices[t], &stream.masks[t]};
  };
  // Estimates gathered at the stream mask of each step.
  const auto step_and_gather = [&](StreamingMethod* method, size_t step) {
    const auto [y, omega] = slice_at(step);
    StepResult result = method->StepLazy(*y, *omega);
    const CooList pattern = CooList::Build(
        stream.masks[window + step], /*with_mode_buckets=*/false);
    return result.GatherAt(pattern);
  };
  const auto make_guard = [&] {
    return std::make_unique<StreamGuard>(std::make_unique<SofiaStream>(config),
                                         StreamGuardOptions{});
  };
  DurableGuardOptions options = MakeOptions(MakeTempDir());
  options.snapshot_every = 16;

  std::vector<std::vector<double>> reference;
  {
    std::unique_ptr<StreamGuard> plain = make_guard();
    plain->Initialize(init_slices, init_masks);
    for (size_t step = 0; step < kSliceCount; ++step) {
      reference.push_back(step_and_gather(plain.get(), step));
    }
    ASSERT_EQ(plain->telemetry().input_trips, 3u);
  }

  const size_t ran = 70;  // Killed after step 69: tail = steps 64..69.
  {
    DurableGuard guard(make_guard(), options);
    guard.Initialize(init_slices, init_masks);
    for (size_t step = 0; step < ran; ++step) {
      ASSERT_EQ(step_and_gather(&guard, step), reference[step])
          << "step " << step;
    }
    guard.Drain();
  }

  auto recovered_guard = make_guard();
  const StreamGuard* recovered_view = recovered_guard.get();
  DurableGuard rebooted(std::move(recovered_guard), options);
  const RecoveryReport report = rebooted.Recover();
  ASSERT_TRUE(report.restored);
  EXPECT_EQ(report.snapshot_step, 64u);
  EXPECT_FALSE(report.journal_truncated);
  EXPECT_EQ(report.resume_step, ran);
  EXPECT_EQ(recovered_view->telemetry().input_trips, 3u);
  for (size_t step = report.resume_step; step < kSliceCount; ++step) {
    ASSERT_EQ(step_and_gather(&rebooted, step), reference[step])
        << "step " << step;
  }
}

TEST(DurableGuardTest, InconsistentFirstSlicesOfInitlessStackRecoverBitwise) {
  // DurableGuard(StreamGuard(SMF)), no Initialize. Steps 0 and 1 hand in a
  // tensor and a mask of different shapes. The live StreamGuard rejects
  // them before it has fixed a shape, so it leaves SMF's clock alone; a
  // journaled record of either would fix a shape on replay and advance the
  // clock. The durable guard therefore journals neither, and the first
  // consistent slice (step 2) takes the pristine snapshot.
  const CorruptedStream stream = MakeStream(281);
  const DenseTensor wide(Shape({7, 5}), 1.0);
  const Mask wide_mask(Shape({7, 5}), true);
  const auto step_and_gather = [&](StreamingMethod* method, size_t t) {
    if (t > 1) return GatherStep(method, stream, t);
    // The inconsistent slices' estimates have no stream shape to gather at.
    if (t == 0) method->StepLazy(stream.slices[t], wide_mask);
    if (t == 1) method->StepLazy(wide, stream.masks[t]);
    return std::vector<double>();
  };
  const auto make_guard = [] {
    return std::make_unique<StreamGuard>(
        std::make_unique<Smf>(SmfOptions{.rank = 3, .period = 4}),
        StreamGuardOptions{});
  };

  std::vector<std::vector<double>> reference;
  {
    std::unique_ptr<StreamGuard> plain = make_guard();
    for (size_t t = 0; t < kSteps; ++t) {
      reference.push_back(step_and_gather(plain.get(), t));
    }
    ASSERT_EQ(plain->telemetry().input_trips, 2u);
  }

  const std::string dir = MakeTempDir();
  const size_t ran = 6;  // Before the first cadence snapshot (every 7).
  {
    DurableGuard guard(make_guard(), MakeOptions(dir));
    for (size_t t = 0; t < ran; ++t) {
      ASSERT_EQ(step_and_gather(&guard, t), reference[t]) << "step " << t;
    }
    guard.Drain();
    EXPECT_EQ(guard.telemetry().journal_appends, ran - 2);
  }

  auto recovered_guard = make_guard();
  const StreamGuard* recovered_view = recovered_guard.get();
  DurableGuard rebooted(std::move(recovered_guard), MakeOptions(dir));
  const RecoveryReport report = rebooted.Recover();
  ASSERT_TRUE(report.restored);
  EXPECT_EQ(report.snapshot_step, 2u);
  EXPECT_FALSE(report.journal_truncated);
  EXPECT_EQ(report.resume_step, ran);
  EXPECT_EQ(recovered_view->telemetry().input_trips, 0u);
  for (size_t t = report.resume_step; t < kSteps; ++t) {
    ASSERT_EQ(step_and_gather(&rebooted, t), reference[t]) << "step " << t;
  }
}

TEST(DurableGuardTest, PatternlessStepsKeepTheInnerPatternCache) {
  // Handed no pattern, the guard journals from the mask and hands none
  // down, so SOFIA's own cache still serves a run of identical masks from
  // one build.
  SofiaConfig config;
  config.rank = 3;
  config.period = 4;
  config.max_init_iterations = 5;
  const size_t window = config.InitWindow();
  constexpr size_t kRun = 10;
  SyntheticTensor syn = MakeSinusoidTensor(6, 5, window + kRun, 3, 4, 291);
  std::vector<DenseTensor> slices;
  for (size_t t = 0; t < window + kRun; ++t) {
    slices.push_back(syn.tensor.SliceLastMode(t));
  }
  Mask omega(Shape({6, 5}), true);
  omega.Set(7, false);
  const std::vector<DenseTensor> init(slices.begin(),
                                      slices.begin() + window);

  DurableGuard guard(std::make_unique<SofiaStream>(config),
                     MakeOptions(MakeTempDir()));
  guard.Initialize(init, std::vector<Mask>(window, omega));
  for (size_t t = 0; t < kRun; ++t) guard.StepLazy(slices[window + t], omega);
  const auto& sofia = dynamic_cast<const SofiaStream&>(guard.inner());
  EXPECT_EQ(sofia.model().step_pattern_builds(), 1u);
  EXPECT_EQ(sofia.model().step_pattern_reuses(), kRun - 1);
  EXPECT_EQ(guard.telemetry().journal_appends, kRun);
}

TEST(DurableGuardTest, SnapshotIoErrorsDegradeWithoutDataLoss) {
  // Persistent EIO on snapshot writes: durability degrades (telemetry
  // says so) but the stream never stops, and the journal — still rooted
  // at the last good snapshot — recovers everything up to the drain.
  const CorruptedStream stream = MakeStream(257);
  const std::vector<std::vector<double>> reference = Reference(stream);
  const std::string dir = MakeTempDir();
  {
    DurableGuard guard(MakeInner(), MakeOptions(dir));
    for (size_t t = 0; t < 10; ++t) GatherStep(&guard, stream, t);
    guard.Drain();
    // From op 100 on (well past the early snapshots), every atomic write
    // fails — beyond the retry budget.
    fault::ScopedFaultPlan plan(
        {"atomic.write", fault::FaultKind::kIoError, 0, 1000000, 0.5});
    for (size_t t = 10; t < 30; ++t) {
      EXPECT_EQ(GatherStep(&guard, stream, t), reference[t]) << "step " << t;
    }
    guard.Drain();
    fault::Reset();
    EXPECT_GT(guard.telemetry().snapshot_failures, 0u);
  }
  DurableGuard rebooted(MakeInner(), MakeOptions(dir));
  const RecoveryReport report = rebooted.Recover();
  ASSERT_TRUE(report.restored);
  EXPECT_EQ(report.resume_step, 30u);
  for (size_t t = report.resume_step; t < kSteps; ++t) {
    ASSERT_EQ(GatherStep(&rebooted, stream, t), reference[t])
        << "step " << t;
  }
}

}  // namespace
}  // namespace sofia
