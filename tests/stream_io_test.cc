#include "data/stream_io.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>

#include "data/corruption.hpp"
#include "data/synthetic.hpp"

namespace sofia {
namespace {

TensorStream MakeStream(uint64_t seed, double missing) {
  std::vector<DenseTensor> truth = MakeScalabilityStream(5, 4, 12, 2, 4, seed);
  CorruptedStream corrupted = Corrupt(truth, {missing, 0.0, 0.0}, seed + 1);
  return TensorStream{std::move(corrupted.slices),
                      std::move(corrupted.masks)};
}

TEST(StreamIoTest, RoundtripFullyObserved) {
  TensorStream original = MakeStream(1, 0.0);
  std::stringstream buffer;
  WriteStreamCsv(buffer, original);
  TensorStream restored = ReadStreamCsv(buffer);

  ASSERT_EQ(restored.slices.size(), original.slices.size());
  for (size_t t = 0; t < original.slices.size(); ++t) {
    DenseTensor diff = restored.slices[t] - original.slices[t];
    EXPECT_DOUBLE_EQ(diff.FrobeniusNorm(), 0.0) << "t=" << t;
    EXPECT_EQ(restored.masks[t].CountObserved(),
              original.masks[t].CountObserved());
  }
}

TEST(StreamIoTest, RoundtripPreservesMissingness) {
  TensorStream original = MakeStream(3, 40.0);
  std::stringstream buffer;
  WriteStreamCsv(buffer, original);
  TensorStream restored = ReadStreamCsv(buffer);
  for (size_t t = 0; t < original.slices.size(); ++t) {
    for (size_t k = 0; k < original.slices[t].NumElements(); ++k) {
      EXPECT_EQ(restored.masks[t].Get(k), original.masks[t].Get(k));
      if (original.masks[t].Get(k)) {
        EXPECT_DOUBLE_EQ(restored.slices[t][k], original.slices[t][k]);
      }
    }
  }
}

TEST(StreamIoTest, ParsesHandWrittenRecords) {
  std::stringstream in(
      "# shape 2 3 4\n"
      "0,0,0,1.5\n"
      "0,1,2,-2.25\n"
      "# a comment line\n"
      "3,1,1,7\n");
  TensorStream stream = ReadStreamCsv(in);
  ASSERT_EQ(stream.slices.size(), 4u);
  EXPECT_DOUBLE_EQ(stream.slices[0].At({0, 0}), 1.5);
  EXPECT_DOUBLE_EQ(stream.slices[0].At({1, 2}), -2.25);
  EXPECT_DOUBLE_EQ(stream.slices[3].At({1, 1}), 7.0);
  EXPECT_EQ(stream.masks[0].CountObserved(), 2u);
  EXPECT_EQ(stream.masks[1].CountObserved(), 0u);
  EXPECT_EQ(stream.masks[3].CountObserved(), 1u);
}

TEST(StreamIoTest, DuplicateRecordsKeepLastValue) {
  std::stringstream in(
      "# shape 2 2 1\n"
      "0,1,1,3.0\n"
      "0,1,1,9.0\n");
  TensorStream stream = ReadStreamCsv(in);
  EXPECT_DOUBLE_EQ(stream.slices[0].At({1, 1}), 9.0);
  EXPECT_EQ(stream.masks[0].CountObserved(), 1u);
}

TEST(StreamIoTest, FileRoundtrip) {
  TensorStream original = MakeStream(5, 25.0);
  const std::string path = "/tmp/sofia_stream_io_test.csv";
  ASSERT_TRUE(WriteStreamCsvFile(path, original));
  TensorStream restored = ReadStreamCsvFile(path);
  std::remove(path.c_str());
  ASSERT_EQ(restored.slices.size(), original.slices.size());
  for (size_t t = 0; t < original.slices.size(); ++t) {
    DenseTensor masked_a = original.masks[t].Apply(original.slices[t]);
    DenseTensor masked_b = restored.masks[t].Apply(restored.slices[t]);
    DenseTensor diff = masked_a - masked_b;
    EXPECT_DOUBLE_EQ(diff.FrobeniusNorm(), 0.0);
  }
}

TEST(StreamIoTest, RejectsMissingHeader) {
  std::stringstream in("0,0,0,1.0\n");
  EXPECT_DEATH(ReadStreamCsv(in), "header");
}

TEST(StreamIoTest, RejectsOutOfRangeIndices) {
  std::stringstream in(
      "# shape 2 2 2\n"
      "0,5,0,1.0\n");
  EXPECT_DEATH(ReadStreamCsv(in), "out of range");
}

TEST(StreamIoTest, RejectsHeaderVolumeOverflow) {
  // 2^32 x 2^32 wraps a 64-bit volume to 0: the record below would write
  // past a zero-sized slice.
  std::stringstream in(
      "# shape 4294967296 4294967296 1\n"
      "0,5,1,1.0\n");
  EXPECT_DEATH(ReadStreamCsv(in), "slice volume");
}

TEST(StreamIoTest, RejectsHeaderVolumeAboveCap) {
  // 2^14 x 2^15 = 2^29 entries per slice: no wrap, but past the 2^28 cap.
  std::stringstream in("# shape 16384 32768 1\n");
  EXPECT_DEATH(ReadStreamCsv(in), "slice volume");
}

TEST(StreamIoTest, RejectsHeaderStreamVolumeOverflow) {
  // A 2^28-entry slice is allowed, but 2^40 of them overflow the total.
  std::stringstream in("# shape 16384 16384 1099511627776\n");
  EXPECT_DEATH(ReadStreamCsv(in), "stream volume");
}

TEST(StreamIoTest, RejectsMalformedHeaderToken) {
  // Read as a stream of integers, this header stops at the "5" of "5x"
  // and loads 5 slices of shape (4) instead of failing.
  std::stringstream in("# shape 4 5x 3\n");
  EXPECT_DEATH(ReadStreamCsv(in), "bad index field '5x' at line 1");
}

TEST(StreamIoTest, RejectsHeaderTokenThatDoesNotFit) {
  std::stringstream in("# shape 4 18446744073709551616 3\n");
  EXPECT_DEATH(ReadStreamCsv(in), "bad index field");
}

TEST(StreamIoTest, RejectsZeroHeaderDimension) {
  std::stringstream zero_dim("# shape 4 0 3\n");
  EXPECT_DEATH(ReadStreamCsv(zero_dim), "zero dimension");
  std::stringstream zero_steps("# shape 4 5 0\n");
  EXPECT_DEATH(ReadStreamCsv(zero_steps), "zero dimension");
}

}  // namespace
}  // namespace sofia
