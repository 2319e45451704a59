// Crash-atomic file primitives (util/durable_io): framed roundtrips, CRC
// rejection of bit rot and torn tails, old-file preservation across every
// injected crash point of the write protocol, retry/backoff riding out
// transient IO-error windows, and SnapshotStore generation rotation with
// fail-soft fallback to older uncorrupted generations.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "util/durable_io.hpp"
#include "util/fault_injection.hpp"

namespace sofia {
namespace durable {
namespace {

/// Fresh scratch directory per test.
std::string MakeTempDir() {
  char tmpl[] = "/tmp/sofia_durable_XXXXXX";
  const char* dir = mkdtemp(tmpl);
  EXPECT_NE(dir, nullptr);
  return dir;
}

RetryPolicy FastRetry() {
  RetryPolicy retry;
  retry.sleep = false;  // Exercise the schedule without wall-clock waits.
  return retry;
}

/// Reference CRC-32 (reflected IEEE polynomial 0xEDB88320), one byte per
/// step with the byte shifted in bit by bit: no table, so it shares nothing
/// with the slicing-by-8 implementation under test.
uint32_t ReferenceCrc32(const unsigned char* p, size_t size, uint32_t seed) {
  uint32_t crc = ~seed;
  for (size_t i = 0; i < size; ++i) {
    crc ^= p[i];
    for (int k = 0; k < 8; ++k) {
      crc = (crc & 1u) ? 0xEDB88320u ^ (crc >> 1) : crc >> 1;
    }
  }
  return ~crc;
}

TEST(Crc32Test, MatchesBytewiseReferenceAtEveryLengthOffsetAndSplit) {
  // Lengths 0..300 cover the bytewise tail alone, every tail length after
  // whole 8-byte blocks, and many blocks; start offsets 0..7 cover every
  // alignment of the 8-byte loads. Each case, split at every point and
  // chained through `seed`, must equal the one-shot CRC.
  constexpr size_t kMaxLength = 300;
  std::vector<unsigned char> buf(kMaxLength + 8);
  uint64_t x = 0x9E3779B97F4A7C15ull;
  for (unsigned char& b : buf) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    b = static_cast<unsigned char>(x >> 56);
  }
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t length = 0; length <= kMaxLength; ++length) {
      const unsigned char* p = buf.data() + offset;
      const uint32_t expected = ReferenceCrc32(p, length, 0);
      ASSERT_EQ(Crc32(p, length), expected)
          << "offset " << offset << " length " << length;
      for (size_t split = 0; split <= length; ++split) {
        ASSERT_EQ(Crc32(p + split, length - split, Crc32(p, split)),
                  expected)
            << "offset " << offset << " length " << length << " split "
            << split;
      }
    }
  }
}

TEST(Crc32Test, MatchesKnownVectorAndChainsIncrementally) {
  // The IEEE 802.3 check value for "123456789".
  const char* data = "123456789";
  EXPECT_EQ(Crc32(data, 9), 0xCBF43926u);
  // Incremental chaining: crc(a+b) == crc(b, seed=crc(a)).
  const uint32_t head = Crc32(data, 4);
  EXPECT_EQ(Crc32(data + 4, 5, head), 0xCBF43926u);
  EXPECT_EQ(Crc32(nullptr, 0), 0u);
}

TEST(DurableIoTest, FramedRoundTripPreservesPayloadAndVersion) {
  const std::string dir = MakeTempDir();
  const std::string path = dir + "/file.bin";
  const std::string payload = "binary\0payload with nulls";
  ASSERT_EQ(WriteFileAtomic(path, payload, /*version=*/7, FastRetry()),
            IoStatus::kOk);
  std::string got;
  uint32_t version = 0;
  ASSERT_EQ(ReadFramedFile(path, &got, &version), IoStatus::kOk);
  EXPECT_EQ(got, payload);
  EXPECT_EQ(version, 7u);
  EXPECT_EQ(ReadFramedFile(dir + "/missing", &got), IoStatus::kNotFound);
}

TEST(DurableIoTest, EveryFlippedBitIsDetected) {
  const std::string dir = MakeTempDir();
  const std::string path = dir + "/file.bin";
  const std::string payload = "0123456789abcdef";
  ASSERT_EQ(WriteFileAtomic(path, payload, 1, FastRetry()), IoStatus::kOk);
  const size_t size = fault::FileSize(path);
  ASSERT_NE(size, SIZE_MAX);
  for (size_t offset = 0; offset < size; ++offset) {
    ASSERT_TRUE(fault::FlipFileBit(path, offset, offset % 8));
    std::string got;
    EXPECT_EQ(ReadFramedFile(path, &got), IoStatus::kCorrupt)
        << "flip at byte " << offset << " went undetected";
    ASSERT_TRUE(fault::FlipFileBit(path, offset, offset % 8));  // Undo.
  }
  std::string got;
  EXPECT_EQ(ReadFramedFile(path, &got), IoStatus::kOk);  // Restored.
}

TEST(DurableIoTest, TruncatedTailIsCorruptNotCrash) {
  const std::string dir = MakeTempDir();
  const std::string path = dir + "/file.bin";
  ASSERT_EQ(WriteFileAtomic(path, "a sizeable enough payload", 1,
                            FastRetry()),
            IoStatus::kOk);
  const size_t size = fault::FileSize(path);
  for (const size_t keep : {size - 1, size / 2, size_t{25}, size_t{0}}) {
    ASSERT_TRUE(fault::TruncateFile(path, keep));
    std::string got;
    EXPECT_EQ(ReadFramedFile(path, &got), IoStatus::kCorrupt)
        << "tail truncated to " << keep << " bytes";
  }
}

TEST(DurableIoTest, CrashAtEveryWriteSiteLeavesOldFileIntact) {
  // The atomicity contract: after a crash at ANY point of the write
  // protocol, a reader sees the complete old file (or the complete new
  // one after rename) — never a mix, never corruption.
  const std::string dir = MakeTempDir();
  const std::string path = dir + "/state.bin";
  ASSERT_EQ(WriteFileAtomic(path, "OLD GENERATION", 1, FastRetry()),
            IoStatus::kOk);

  const fault::FaultSpec crash_specs[] = {
      {"atomic.open", fault::FaultKind::kCrash, 0, 1, 0.5},
      {"atomic.write", fault::FaultKind::kCrash, 0, 1, 0.5},
      {"atomic.write", fault::FaultKind::kTornWrite, 0, 1, 0.4},
      {"atomic.fsync", fault::FaultKind::kCrash, 0, 1, 0.5},
      {"atomic.rename", fault::FaultKind::kCrash, 0, 1, 0.5},
  };
  for (const fault::FaultSpec& spec : crash_specs) {
    fault::ScopedFaultPlan plan(spec);
    bool crashed = false;
    try {
      WriteFileAtomic(path, "NEW GENERATION (never lands)", 2, FastRetry());
    } catch (const fault::SimulatedCrash& crash) {
      crashed = true;
      EXPECT_EQ(crash.site, spec.site);
    }
    fault::Reset();
    EXPECT_TRUE(crashed) << spec.site;
    std::string got;
    uint32_t version = 0;
    ASSERT_EQ(ReadFramedFile(path, &got, &version), IoStatus::kOk)
        << "crash at " << spec.site << " corrupted the old file";
    EXPECT_EQ(got, "OLD GENERATION");
    EXPECT_EQ(version, 1u);
  }
}

TEST(DurableIoTest, RetryRidesOutTransientErrorWindow) {
  const std::string dir = MakeTempDir();
  const std::string path = dir + "/retry.bin";
  // Two failing write ops, then success: within the 5-attempt budget.
  fault::ScopedFaultPlan plan(
      {"atomic.write", fault::FaultKind::kIoError, 0, /*count=*/2, 0.5});
  IoTelemetry telemetry;
  ASSERT_EQ(WriteFileAtomic(path, "persistent payload", 1, FastRetry(),
                            &telemetry),
            IoStatus::kOk);
  EXPECT_EQ(telemetry.write_retries, 2u);
  EXPECT_EQ(telemetry.write_failures, 0u);
  fault::Reset();
  std::string got;
  EXPECT_EQ(ReadFramedFile(path, &got), IoStatus::kOk);
  EXPECT_EQ(got, "persistent payload");
}

TEST(DurableIoTest, ExhaustedRetryBudgetReportsIoError) {
  const std::string dir = MakeTempDir();
  fault::ScopedFaultPlan plan(
      {"atomic.write", fault::FaultKind::kIoError, 0, /*count=*/100, 0.5});
  IoTelemetry telemetry;
  EXPECT_EQ(WriteFileAtomic(dir + "/never.bin", "payload", 1, FastRetry(),
                            &telemetry),
            IoStatus::kIoError);
  EXPECT_EQ(telemetry.write_failures, 1u);
  EXPECT_EQ(telemetry.write_retries, 4u);  // 5 attempts, 4 retries.
}

TEST(SnapshotStoreTest, RotatesGenerationsAndPrunesOldest) {
  const std::string dir = MakeTempDir();
  SnapshotOptions options;
  options.generations = 3;
  options.retry = FastRetry();
  SnapshotStore store(dir + "/snaps", "model", options);
  for (uint64_t seq = 0; seq < 6; ++seq) {
    ASSERT_EQ(store.Write(seq, "state " + std::to_string(seq)),
              IoStatus::kOk);
  }
  EXPECT_EQ(store.ListGenerations(), (std::vector<uint64_t>{3, 4, 5}));
  std::string payload;
  uint64_t seq = 0;
  ASSERT_EQ(store.LoadNewest(&payload, &seq), IoStatus::kOk);
  EXPECT_EQ(seq, 5u);
  EXPECT_EQ(payload, "state 5");
}

TEST(SnapshotStoreTest, LoadFallsBackPastCorruptGenerations) {
  const std::string dir = MakeTempDir();
  SnapshotOptions options;
  options.generations = 3;
  options.retry = FastRetry();
  SnapshotStore store(dir + "/snaps", "model", options);
  for (uint64_t seq = 0; seq < 3; ++seq) {
    ASSERT_EQ(store.Write(seq, "state " + std::to_string(seq)),
              IoStatus::kOk);
  }
  // Newest: bit rot. Middle: torn tail. Oldest: intact.
  ASSERT_TRUE(fault::FlipFileBit(store.GenerationPath(2), 30, 3));
  ASSERT_TRUE(fault::TruncateFile(store.GenerationPath(1),
                                  fault::FileSize(store.GenerationPath(1)) /
                                      2));
  std::string payload;
  uint64_t seq = 99;
  ASSERT_EQ(store.LoadNewest(&payload, &seq), IoStatus::kOk);
  EXPECT_EQ(seq, 0u);
  EXPECT_EQ(payload, "state 0");
  EXPECT_EQ(store.telemetry().corrupt_reads, 2u);

  // All generations corrupt: kNotFound, still no crash.
  ASSERT_TRUE(fault::TruncateFile(store.GenerationPath(0), 4));
  EXPECT_EQ(store.LoadNewest(&payload, &seq), IoStatus::kNotFound);
}

TEST(SnapshotStoreTest, FailedWriteLeavesPreviousGenerations) {
  const std::string dir = MakeTempDir();
  SnapshotOptions options;
  options.retry = FastRetry();
  SnapshotStore store(dir + "/snaps", "model", options);
  ASSERT_EQ(store.Write(0, "good state"), IoStatus::kOk);
  fault::ScopedFaultPlan plan(
      {"atomic.write", fault::FaultKind::kIoError, 0, /*count=*/100, 0.5});
  EXPECT_EQ(store.Write(1, "doomed state"), IoStatus::kIoError);
  fault::Reset();
  std::string payload;
  uint64_t seq = 0;
  ASSERT_EQ(store.LoadNewest(&payload, &seq), IoStatus::kOk);
  EXPECT_EQ(seq, 0u);
  EXPECT_EQ(payload, "good state");
}

TEST(DurableIoTest, EnsureDirCreatesNestedPaths) {
  const std::string dir = MakeTempDir();
  EXPECT_TRUE(EnsureDir(dir + "/a/b/c"));
  EXPECT_TRUE(EnsureDir(dir + "/a/b/c"));  // Idempotent.
  EXPECT_EQ(WriteFileAtomic(dir + "/a/b/c/f.bin", "x", 1, FastRetry()),
            IoStatus::kOk);
}

}  // namespace
}  // namespace durable
}  // namespace sofia
