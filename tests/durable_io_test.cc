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
/// step with the byte shifted in bit by bit: no table and no carry-less
/// multiply, so it shares nothing with either path under test.
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
  // Every length 0..4096 crosses each 64-byte fold boundary and each
  // 16-byte tail boundary of the carry-less-multiply path, and every tail
  // length of slicing-by-8; start offsets 0..15 cover every alignment of
  // the 16-byte loads. Short lengths are split at every point and chained
  // through `seed`; longer ones at the points around the fold boundaries.
  std::printf("Crc32 path for >= 64 bytes: %s\n", Crc32Path());
  RecordProperty("crc32_path", Crc32Path());
  constexpr size_t kMaxLength = 4096;
  constexpr size_t kFullSplitLength = 160;
  std::vector<unsigned char> buf(kMaxLength + 16);
  uint64_t x = 0x9E3779B97F4A7C15ull;
  for (unsigned char& b : buf) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    b = static_cast<unsigned char>(x >> 56);
  }
  for (size_t offset = 0; offset < 16; ++offset) {
    const unsigned char* p = buf.data() + offset;
    // The reference of every prefix, extended one byte at a time.
    std::vector<uint32_t> prefix(kMaxLength + 1);
    prefix[0] = ReferenceCrc32(p, 0, 0);
    for (size_t length = 1; length <= kMaxLength; ++length) {
      prefix[length] = ReferenceCrc32(p + length - 1, 1, prefix[length - 1]);
    }
    for (size_t length = 0; length <= kMaxLength; ++length) {
      const uint32_t expected = prefix[length];
      ASSERT_EQ(Crc32(p, length), expected)
          << "offset " << offset << " length " << length;
      std::vector<size_t> splits;
      if (length <= kFullSplitLength) {
        for (size_t split = 0; split <= length; ++split) {
          splits.push_back(split);
        }
      } else if (length % 61 == 0 || length % 64 <= 1 || length % 64 == 63) {
        for (const size_t split :
             {size_t{1}, size_t{15}, size_t{16}, size_t{17}, size_t{63},
              size_t{64}, size_t{65}, length / 2, length - 65, length - 64,
              length - 16, length - 1}) {
          splits.push_back(split);
        }
      }
      for (const size_t split : splits) {
        ASSERT_EQ(Crc32(p + split, length - split, prefix[split]), expected)
            << "offset " << offset << " length " << length << " split "
            << split;
      }
    }
  }
}

TEST(Crc32Test, NonZeroSeedsMatchReference) {
  // A seed is the CRC of earlier bytes; the folded path XORs it into its
  // first lane, the table path into its first word.
  std::vector<unsigned char> buf(4096 + 16);
  uint64_t x = 0x243F6A8885A308D3ull;
  for (unsigned char& b : buf) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    b = static_cast<unsigned char>(x >> 56);
  }
  for (const uint32_t seed : {1u, 0x80000000u, 0xDEADBEEFu, 0xFFFFFFFFu}) {
    for (const size_t offset : {size_t{0}, size_t{3}, size_t{8}, size_t{15}}) {
      for (const size_t length :
           {size_t{0}, size_t{1}, size_t{15}, size_t{63}, size_t{64},
            size_t{65}, size_t{79}, size_t{80}, size_t{127}, size_t{128},
            size_t{129}, size_t{1000}, size_t{4095}, size_t{4096}}) {
        const unsigned char* p = buf.data() + offset;
        EXPECT_EQ(Crc32(p, length, seed), ReferenceCrc32(p, length, seed))
            << "seed " << seed << " offset " << offset << " length "
            << length;
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
