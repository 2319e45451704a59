// Binary slice format (data/slice_format): bitwise roundtrips, valid-prefix
// truncation at torn or bit-rotted records, canonical decode parity with
// the CSV stream format, and torn-append behavior under injected faults —
// the guarantees the write-ahead journal's replay correctness rests on.

#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "data/slice_format.hpp"
#include "data/stream_io.hpp"
#include "tensor/dense_tensor.hpp"
#include "tensor/mask.hpp"
#include "util/durable_io.hpp"
#include "util/fault_injection.hpp"
#include "util/rng.hpp"

namespace sofia {
namespace slicefmt {
namespace {

std::string MakeTempDir() {
  char tmpl[] = "/tmp/sofia_slicefmt_XXXXXX";
  const char* dir = mkdtemp(tmpl);
  EXPECT_NE(dir, nullptr);
  return dir;
}

/// Small stream with awkward doubles (no short decimal representation)
/// and ~30% missing entries.
TensorStream MakeStream(size_t steps, uint64_t seed) {
  TensorStream stream;
  Rng rng(seed);
  const Shape shape({3, 4});
  for (size_t t = 0; t < steps; ++t) {
    DenseTensor slice(shape);
    Mask mask(shape, /*observed=*/true);
    for (size_t k = 0; k < slice.NumElements(); ++k) {
      slice[k] = (rng.Uniform() - 0.5) / 3.0;
      if (rng.Uniform() < 0.3) {
        mask.Set(k, false);
        slice[k] = 0.0;  // Canonical form: unobserved entries are zero.
      }
    }
    stream.slices.push_back(std::move(slice));
    stream.masks.push_back(std::move(mask));
  }
  return stream;
}

void ExpectStreamsBitwiseEqual(const TensorStream& a, const TensorStream& b,
                               size_t limit = SIZE_MAX) {
  ASSERT_EQ(std::min(a.slices.size(), limit), b.slices.size());
  for (size_t t = 0; t < b.slices.size(); ++t) {
    ASSERT_EQ(a.slices[t].shape(), b.slices[t].shape());
    for (size_t k = 0; k < a.slices[t].NumElements(); ++k) {
      ASSERT_EQ(a.slices[t][k], b.slices[t][k])
          << "slice " << t << " entry " << k;
      ASSERT_EQ(a.masks[t].Get(k), b.masks[t].Get(k))
          << "mask " << t << " entry " << k;
    }
  }
}

TEST(SliceFormatTest, RoundTripIsBitwiseExact) {
  const std::string path = MakeTempDir() + "/stream.slices";
  TensorStream stream = MakeStream(7, 11);
  std::string error;
  ASSERT_TRUE(WriteSliceFile(path, stream, /*sequence=*/42, &error)) << error;

  SliceFileReader reader;
  ASSERT_TRUE(reader.Open(path, &error)) << error;
  EXPECT_EQ(reader.sequence(), 42u);
  EXPECT_EQ(reader.num_records(), 7u);
  EXPECT_FALSE(reader.truncated());
  EXPECT_EQ(reader.slice_shape(), Shape({3, 4}));
  for (size_t t = 0; t < reader.num_records(); ++t) {
    EXPECT_EQ(reader.record(t).step, t);
  }

  TensorStream got;
  ASSERT_TRUE(ReadSliceFile(path, &got, &error)) << error;
  ExpectStreamsBitwiseEqual(stream, got);
}

TEST(SliceFormatTest, TornTailTruncatesToValidPrefix) {
  const std::string path = MakeTempDir() + "/stream.slices";
  TensorStream stream = MakeStream(6, 12);
  ASSERT_TRUE(WriteSliceFile(path, stream, 0));
  const size_t full = fault::FileSize(path);

  // Chop the file at every byte boundary: the reader must expose only
  // whole validated records and flag the dropped tail — never crash.
  size_t last_records = 6;
  for (size_t keep = full - 1; keep >= 8; keep -= 7) {
    ASSERT_TRUE(fault::TruncateFile(path, keep));
    SliceFileReader reader;
    std::string error;
    if (!reader.Open(path, &error)) {
      // Header itself torn: fine, reported as an error, not a crash.
      continue;
    }
    EXPECT_TRUE(reader.truncated());
    EXPECT_LE(reader.num_records(), last_records);
    last_records = reader.num_records();
    TensorStream got;
    ASSERT_TRUE(ReadSliceFile(path, &got, &error)) << error;
    ExpectStreamsBitwiseEqual(stream, got, reader.num_records());
  }
}

TEST(SliceFormatTest, BitRotDropsTheRecordAndEverythingAfter) {
  const std::string dir = MakeTempDir();
  TensorStream stream = MakeStream(5, 13);
  const std::string clean = dir + "/clean.slices";
  ASSERT_TRUE(WriteSliceFile(clean, stream, 0));
  const size_t full = fault::FileSize(clean);

  // Sample byte positions across the whole file; a flip in record k keeps
  // records [0, k) replayable and drops the rest (header flips fail Open).
  for (size_t offset = 1; offset < full; offset += 11) {
    const std::string path = dir + "/rot.slices";
    ASSERT_TRUE(WriteSliceFile(path, stream, 0));
    ASSERT_TRUE(fault::FlipFileBit(path, offset, offset % 8));
    SliceFileReader reader;
    if (!reader.Open(path)) continue;  // Header flip.
    if (reader.num_records() < stream.slices.size()) {
      EXPECT_TRUE(reader.truncated()) << "flip at " << offset;
    }
    TensorStream got;
    ASSERT_TRUE(ReadSliceFile(path, &got));
    ExpectStreamsBitwiseEqual(stream, got, reader.num_records());
  }
}

TEST(SliceFormatTest, TornAppendLeavesPriorRecordsReplayable) {
  const std::string path = MakeTempDir() + "/journal.slices";
  TensorStream stream = MakeStream(4, 14);
  SliceFileWriter writer;
  ASSERT_TRUE(writer.Create(path, stream.slices[0].shape(), 9));
  ASSERT_TRUE(writer.Append(0, stream.slices[0], stream.masks[0]));
  ASSERT_TRUE(writer.Append(1, stream.slices[1], stream.masks[1]));

  // Ops are only counted while a plan is armed, so the next append is op 0
  // at journal.append; tear it partway through.
  fault::ScopedFaultPlan plan({"journal.append", fault::FaultKind::kTornWrite,
                               /*at=*/0, 1, /*fraction=*/0.5});
  bool crashed = false;
  try {
    writer.Append(2, stream.slices[2], stream.masks[2]);
  } catch (const fault::SimulatedCrash& crash) {
    crashed = true;
    EXPECT_EQ(crash.site, "journal.append");
  }
  fault::Reset();
  ASSERT_TRUE(crashed);

  SliceFileReader reader;
  std::string error;
  ASSERT_TRUE(reader.Open(path, &error)) << error;
  EXPECT_EQ(reader.num_records(), 2u);  // The torn record 2 is dropped.
  EXPECT_TRUE(reader.truncated());
  EXPECT_EQ(reader.sequence(), 9u);
  TensorStream got;
  ASSERT_TRUE(ReadSliceFile(path, &got));
  ExpectStreamsBitwiseEqual(stream, got, 2);
}

TEST(SliceFormatTest, CsvAndBinaryDecodeIdentically) {
  // The CSV stream format writes doubles at precision 17, so both formats
  // round-trip bitwise — slice_convert can translate either direction
  // without changing a single entry.
  const std::string dir = MakeTempDir();
  TensorStream stream = MakeStream(5, 15);

  std::ostringstream csv;
  WriteStreamCsv(csv, stream);
  std::istringstream csv_in(csv.str());
  TensorStream from_csv = ReadStreamCsv(csv_in);

  const std::string bin = dir + "/stream.slices";
  ASSERT_TRUE(WriteSliceFile(bin, stream, 0));
  TensorStream from_bin;
  ASSERT_TRUE(ReadSliceFile(bin, &from_bin));

  ExpectStreamsBitwiseEqual(from_csv, from_bin);
}

TEST(SliceFormatTest, TextBinaryTextRoundTripIsIdentity) {
  // The tools/slice_convert contract: csv -> binary -> csv reproduces the
  // text byte-for-byte (the CSV writer emits max_digits10 doubles, the
  // binary format raw IEEE bytes — nothing rounds anywhere).
  TensorStream stream = MakeStream(4, 16);
  std::ostringstream original;
  WriteStreamCsv(original, stream);

  const std::string bin = MakeTempDir() + "/via.slices";
  std::istringstream csv_in(original.str());
  ASSERT_TRUE(WriteSliceFile(bin, ReadStreamCsv(csv_in), 0));
  TensorStream back;
  ASSERT_TRUE(ReadSliceFile(bin, &back));
  std::ostringstream roundtripped;
  WriteStreamCsv(roundtripped, back);
  EXPECT_EQ(original.str(), roundtripped.str());
}

/// The per-entry record encoder the format was first written with: the
/// observed indices gathered into a vector, every field appended in turn.
/// Kept as the byte-for-byte oracle of EncodeRecord.
std::string OracleEncodeRecord(uint64_t step, const DenseTensor& slice,
                               const Mask& mask) {
  std::string out;
  const auto put = [&out](const void* p, size_t n) {
    out.append(static_cast<const char*>(p), n);
  };
  const uint32_t magic = 0x43455253u;  // "SREC"
  const uint32_t pad = 0;
  const std::vector<size_t> observed = mask.ObservedIndices();
  const uint64_t nnz = observed.size();
  put(&magic, 4);
  put(&pad, 4);
  put(&step, 8);
  put(&nnz, 8);
  for (const size_t idx : observed) {
    const uint64_t index = idx;
    const double value = slice[idx];
    put(&index, 8);
    put(&value, 8);
  }
  const uint32_t crc = durable::Crc32(out.data(), out.size());
  put(&crc, 4);
  put(&pad, 4);
  return out;
}

std::string ToHex(const std::string& bytes) {
  static const char* kDigits = "0123456789abcdef";
  std::string hex;
  for (const char c : bytes) {
    const unsigned char b = static_cast<unsigned char>(c);
    hex += kDigits[b >> 4];
    hex += kDigits[b & 0xF];
  }
  return hex;
}

TEST(SliceFormatTest, EncodeRecordMatchesGoldenBytes) {
  // A 2x3 slice at step 7 with entries 0, 2 and 5 observed; the unobserved
  // entries hold 9.0 and must not reach the record. The bytes were written
  // by the per-entry encoder (OracleEncodeRecord) before EncodeRecord
  // became a one-pass encoder: a change here is a journal format change.
  const Shape shape({2, 3});
  DenseTensor slice(shape, 9.0);
  Mask mask(shape, /*observed=*/false);
  slice[0] = 1.5;
  slice[2] = -0.1;
  slice[5] = 3.0e-7;
  for (const size_t k : {size_t{0}, size_t{2}, size_t{5}}) mask.Set(k, true);
  std::string out(200, 'x');  // Stale contents must not survive.
  EncodeRecord(7, slice, mask, &out);
  EXPECT_EQ(ToHex(out),
            "53524543000000000700000000000000"   // magic, pad, step
            "03000000000000000000000000000000"   // nnz, index 0
            "000000000000f83f0200000000000000"   // 1.5, index 2
            "9a9999999999b9bf0500000000000000"   // -0.1, index 5
            "76830df4f521943e42bef66400000000");  // 3e-7, crc, pad
}

TEST(SliceFormatTest, EncodeRecordMatchesPerEntryOracle) {
  // 2-way and 3-way slices with empty, partial and full Ω, encoded into one
  // reused buffer so it both grows and shrinks between records.
  Rng rng(23);
  std::string out;
  for (const Shape& shape : {Shape({4, 5}), Shape({3, 4, 5})}) {
    DenseTensor slice(shape);
    for (size_t k = 0; k < slice.NumElements(); ++k) {
      slice[k] = (rng.Uniform() - 0.5) * 1e3;
    }
    Mask partial(shape, /*observed=*/true);
    for (size_t k = 0; k < shape.NumElements(); ++k) {
      if (rng.Uniform() < 0.4) partial.Set(k, false);
    }
    const Mask full(shape, /*observed=*/true);
    const Mask empty(shape, /*observed=*/false);
    uint64_t step = 3;
    const std::vector<const Mask*> masks = {&full, &partial, &empty,
                                            &partial, &full};
    for (const Mask* mask : masks) {
      SCOPED_TRACE(shape.ToString() + " nnz " +
                   std::to_string(mask->CountObserved()));
      EncodeRecord(step, slice, *mask, &out);
      EXPECT_EQ(out, OracleEncodeRecord(step, slice, *mask));
      step += 1000;
    }
  }
}

void PutU32(std::string* out, uint32_t v) {
  out->append(reinterpret_cast<const char*>(&v), 4);
}
void PutU64(std::string* out, uint64_t v) {
  out->append(reinterpret_cast<const char*>(&v), 8);
}

/// A slice-file header of the given dims, CRC included.
std::string Header(const std::vector<uint64_t>& dims) {
  std::string bytes;
  PutU32(&bytes, 0x4C534653u);  // "SFSL"
  PutU32(&bytes, 1);            // version
  PutU32(&bytes, static_cast<uint32_t>(dims.size()));
  PutU32(&bytes, 0);  // flags
  PutU64(&bytes, 0);  // sequence
  for (const uint64_t d : dims) PutU64(&bytes, d);
  PutU32(&bytes, durable::Crc32(bytes.data(), bytes.size()));
  PutU32(&bytes, 0);
  return bytes;
}

TEST(SliceFormatTest, RecordCountCannotWrapTheRecordSize) {
  // A header volume of 2^60 admits a record claiming nnz = 2^60, whose
  // nnz * 16 wraps to 0: sized as a 32-byte record, it would pass the size
  // and CRC checks and send the index scan past the end of the file. The
  // rest of the 4096-byte file holds ascending in-range entries, so only
  // the end of the buffer would stop that scan. The scan runs over the
  // heap copy (mmap refused through its fault site), where AddressSanitizer
  // sees an overread; the mapping would hide it.
  std::string bytes = Header({uint64_t{1} << 32, uint64_t{1} << 28});
  const size_t record = bytes.size();
  PutU32(&bytes, 0x43455253u);  // "SREC"
  PutU32(&bytes, 0);
  PutU64(&bytes, 0);                   // step
  PutU64(&bytes, uint64_t{1} << 60);  // nnz
  PutU32(&bytes, durable::Crc32(bytes.data() + record, 24));
  PutU32(&bytes, 0);
  // The entries start at the CRC: entry 0's index is the CRC (below 2^32).
  PutU64(&bytes, 0);  // Entry 0's value.
  for (uint64_t index = uint64_t{1} << 33; bytes.size() < 4096; ++index) {
    PutU64(&bytes, index);
    PutU64(&bytes, 0);
  }
  bytes.resize(4096);
  const std::string path = MakeTempDir() + "/wrapped.slices";
  {
    std::ofstream out(path, std::ios::binary);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  fault::ScopedFaultPlan heap_copy(
      {"journal.mmap", fault::FaultKind::kIoError, 0, 1, 0.5});
  SliceFileReader reader;
  std::string error;
  ASSERT_TRUE(reader.Open(path, &error)) << error;
  EXPECT_EQ(fault::InjectedCount(), 1u) << "the scan ran over the mapping";
  EXPECT_EQ(reader.num_records(), 0u);
  EXPECT_TRUE(reader.truncated());
}

TEST(SliceFormatTest, RejectsHeaderWhoseVolumeOverflows) {
  // 2^32 * 2^32 * 2 = 2^65 entries: Shape would wrap the product silently.
  const std::string path = MakeTempDir() + "/overflow.slices";
  const std::string bytes =
      Header({uint64_t{1} << 32, uint64_t{1} << 32, 2});
  {
    std::ofstream out(path, std::ios::binary);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  SliceFileReader reader;
  std::string error;
  EXPECT_FALSE(reader.Open(path, &error));
  EXPECT_NE(error.find("overflows"), std::string::npos) << error;
}

TEST(SliceFormatTest, DecodeIntoStaleBuffersMatchesFreshDecode) {
  // A slice and mask of the file's shape are overwritten in place: stale
  // values and indicators from an earlier, denser record must not survive,
  // and the mask's count must be the new record's.
  const std::string path = MakeTempDir() + "/stream.slices";
  TensorStream stream = MakeStream(4, 13);
  stream.masks[1] = Mask(Shape({3, 4}), /*observed=*/false);
  stream.masks[1].Set(5, true);
  stream.slices[1] = stream.masks[1].Apply(stream.slices[1]);
  ASSERT_TRUE(WriteSliceFile(path, stream, 0));
  SliceFileReader reader;
  ASSERT_TRUE(reader.Open(path));

  DenseTensor slice(Shape({3, 4}), -7.0);  // Stale contents everywhere.
  Mask mask(Shape({3, 4}), /*observed=*/true);
  const double* storage = slice.data();
  for (const size_t i : {size_t{0}, size_t{1}, size_t{3}, size_t{2}}) {
    DenseTensor fresh_slice;
    Mask fresh_mask;
    reader.Decode(i, &fresh_slice, &fresh_mask);
    reader.Decode(i, &slice, &mask);
    EXPECT_EQ(slice.data(), storage) << "record " << i << " reallocated";
    ASSERT_EQ(slice.shape(), fresh_slice.shape());
    EXPECT_EQ(std::memcmp(slice.data(), fresh_slice.data(),
                          slice.NumElements() * sizeof(double)),
              0)
        << "record " << i;
    EXPECT_TRUE(mask == fresh_mask) << "record " << i;
    EXPECT_EQ(mask.CountObserved(), stream.masks[i].CountObserved())
        << "record " << i;
  }
}

TEST(SliceFormatTest, DecodeIntoAnotherShapeReallocates) {
  const std::string path = MakeTempDir() + "/stream.slices";
  const TensorStream stream = MakeStream(2, 14);
  ASSERT_TRUE(WriteSliceFile(path, stream, 0));
  SliceFileReader reader;
  ASSERT_TRUE(reader.Open(path));
  DenseTensor slice(Shape({2, 2}), 1.0);
  Mask mask(Shape({5}), /*observed=*/true);
  reader.Decode(1, &slice, &mask);
  ASSERT_EQ(slice.shape(), Shape({3, 4}));
  ASSERT_EQ(mask.shape(), Shape({3, 4}));
  for (size_t k = 0; k < slice.NumElements(); ++k) {
    EXPECT_EQ(slice[k], stream.slices[1][k]) << "entry " << k;
    EXPECT_EQ(mask.Get(k), stream.masks[1].Get(k)) << "entry " << k;
  }
  EXPECT_EQ(mask.CountObserved(), stream.masks[1].CountObserved());
}

TEST(SliceFormatTest, RejectsGarbageAndEmptyFiles) {
  const std::string dir = MakeTempDir();
  const std::string path = dir + "/garbage.slices";
  {
    SliceFileWriter writer;
    ASSERT_TRUE(writer.Create(path, Shape({2, 2}), 0));
  }
  ASSERT_TRUE(fault::FlipFileBit(path, 0, 4));  // Break the magic.
  SliceFileReader reader;
  std::string error;
  EXPECT_FALSE(reader.Open(path, &error));
  EXPECT_NE(error.find("magic"), std::string::npos);
  EXPECT_FALSE(reader.Open(dir + "/missing.slices", &error));

  TensorStream empty;
  EXPECT_FALSE(WriteSliceFile(dir + "/empty.slices", empty, 0, &error));
}

}  // namespace
}  // namespace slicefmt
}  // namespace sofia
