#ifndef SOFIA_DATA_SLICE_FORMAT_H_
#define SOFIA_DATA_SLICE_FORMAT_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "data/stream_io.hpp"
#include "tensor/dense_tensor.hpp"
#include "tensor/mask.hpp"
#include "tensor/shape.hpp"

/// \file slice_format.hpp
/// \brief Append-only binary slice files (the write-ahead journal format).
///
/// The durability layer journals every ingested slice before the model sees
/// it, so recovery can replay exactly the inputs the crashed process
/// consumed. CSV is the wrong tool for that: parsing dominates replay, and
/// a torn text tail is ambiguous. This format is designed for the journal's
/// access pattern instead:
///
///  - **Append-only records, each independently CRC-framed.** A crash mid-
///    append leaves a torn final record; the reader validates records
///    front-to-back and exposes exactly the valid prefix — no torn record
///    is ever replayed, and no byte after one is trusted.
///  - **Zero-copy, mmap-friendly layout.** All fields are little-endian and
///    8-byte aligned; observed entries are (u64 linear index, f64 value)
///    pairs readable in place from the mapping — replay decodes straight
///    from the page cache without a parse step.
///  - **Sparse, canonical encoding.** Only observed entries are stored
///    (ascending index order), and decoding zero-fills the rest — so the
///    decoded (slice, mask) pair is a pure function of the record bytes,
///    which is what makes replayed runs bitwise-identical to live ones.
///  - **Versioned file header** carrying the slice shape and the journal
///    sequence number that ties a segment to the snapshot it follows.
///
/// Layout (all integers little-endian):
///
///     file   := file_header record*
///     file_header := magic:u32 version:u32 order:u32 flags:u32
///                    sequence:u64 dim:u64^order crc:u32 pad:u32
///     record := magic:u32 pad:u32 step:u64 nnz:u64
///               (index:u64 value:f64)^nnz crc:u32 pad:u32
///
/// Header/record CRCs are durable::Crc32 over every preceding byte of the
/// header/record respectively.

namespace sofia {
namespace slicefmt {

/// One observed entry, exactly as laid out on disk (16 bytes).
struct SliceEntry {
  uint64_t index;  ///< Linear index into the slice shape.
  double value;
};
static_assert(sizeof(SliceEntry) == 16, "entries must be 16 bytes on disk");

/// A record exposed in place from the file mapping.
struct SliceRecordView {
  uint64_t step = 0;                  ///< Stream step this slice arrived at.
  const SliceEntry* entries = nullptr;  ///< nnz observed entries, ascending.
  size_t nnz = 0;
};

/// Serializes one record into `out`, replacing its contents: the step, then
/// (index, slice[index]) for each of the `nnz` strictly ascending linear
/// `indices`, then one CRC. Sized once, so every field is a store into
/// place; the cost is O(nnz), independent of the slice volume. Pure encode
/// — no IO — so the journal can reuse one buffer per append. The durable
/// guard passes the indices of the slice's CooList; nnz = 0 writes an
/// empty record (no observed entry) of any slice.
void EncodeRecord(uint64_t step, const DenseTensor& slice,
                  const size_t* indices, size_t nnz, std::string* out);

/// The record of the observed entries of `slice` under `mask`: the mask's
/// observed indices through the encoder above.
void EncodeRecord(uint64_t step, const DenseTensor& slice, const Mask& mask,
                  std::string* out);

/// Append-only writer. Creates the file (truncating any previous content)
/// and writes the header; Append adds one record. Every write consults the
/// fault-injection sites "journal.open" / "journal.append" /
/// "journal.fsync", which is how the crash matrix tears journal tails.
class SliceFileWriter {
 public:
  SliceFileWriter() = default;
  ~SliceFileWriter();
  SliceFileWriter(const SliceFileWriter&) = delete;
  SliceFileWriter& operator=(const SliceFileWriter&) = delete;

  /// Creates `path` with the given slice shape and journal sequence.
  /// Returns false on open/write failure (file is removed).
  bool Create(const std::string& path, const Shape& slice_shape,
              uint64_t sequence);

  /// Appends one record. `mask` selects the entries stored; shape must
  /// match Create's. Returns false on IO failure (the file is closed —
  /// a half-written tail is exactly what the reader's valid-prefix scan
  /// handles).
  bool Append(uint64_t step, const DenseTensor& slice, const Mask& mask);

  /// Appends bytes already produced by EncodeRecord (the durable guard
  /// encodes each record from its pattern's indices, then writes it here).
  bool AppendEncoded(const std::string& encoded);

  /// fsyncs the file. Append does NOT sync per record (group commit is the
  /// caller's policy); the durable guard syncs at snapshot boundaries.
  bool Sync();

  void Close();
  bool is_open() const { return fd_ >= 0; }
  uint64_t records_written() const { return records_written_; }
  uint64_t bytes_written() const { return bytes_written_; }

 private:
  int fd_ = -1;
  std::string path_;
  Shape slice_shape_;
  std::string scratch_;  ///< Reused encode buffer.
  uint64_t records_written_ = 0;
  uint64_t bytes_written_ = 0;
};

/// Read-only view of a slice file, mmap'ed when possible (falling back to a
/// heap buffer). Construction validates the header and scans records
/// front-to-back, stopping at the first invalid one: `num_records()` is the
/// valid prefix, `truncated()` reports whether bytes were dropped.
class SliceFileReader {
 public:
  SliceFileReader() = default;
  ~SliceFileReader();
  SliceFileReader(const SliceFileReader&) = delete;
  SliceFileReader& operator=(const SliceFileReader&) = delete;

  /// Opens and validates. Returns false (with `error` filled) only when
  /// the file is unreadable or its header is invalid — torn/corrupt
  /// *records* are not an error, they truncate the valid prefix.
  bool Open(const std::string& path, std::string* error = nullptr);
  void Close();

  const Shape& slice_shape() const { return slice_shape_; }
  uint64_t sequence() const { return sequence_; }
  uint32_t version() const { return version_; }
  size_t num_records() const { return records_.size(); }
  const SliceRecordView& record(size_t i) const { return records_[i]; }
  /// True when the file held bytes past the last valid record (torn tail
  /// or bit rot) that the scan dropped.
  bool truncated() const { return truncated_; }

  /// Materializes record `i` as a zero-filled slice + mask (the canonical
  /// decoded form every consumer — live or replay — sees). A `slice` and
  /// `mask` that already have the file's slice shape are overwritten in
  /// place (a fill and one store per entry, no allocation); any other
  /// shape is reallocated.
  void Decode(size_t i, DenseTensor* slice, Mask* mask) const;

 private:
  const char* data_ = nullptr;
  size_t size_ = 0;
  bool mapped_ = false;    ///< data_ is an mmap (else owned by buffer_).
  std::string buffer_;
  Shape slice_shape_;
  uint64_t sequence_ = 0;
  uint32_t version_ = 0;
  std::vector<SliceRecordView> records_;
  bool truncated_ = false;
};

/// Whole-stream conversions (tools/slice_convert and tests).
/// WriteSliceFile stores every slice of `stream`, steps 0..T-1; fails on IO
/// error or shape mismatch. ReadSliceFile decodes the valid prefix.
bool WriteSliceFile(const std::string& path, const TensorStream& stream,
                    uint64_t sequence = 0, std::string* error = nullptr);
bool ReadSliceFile(const std::string& path, TensorStream* stream,
                   std::string* error = nullptr);

}  // namespace slicefmt
}  // namespace sofia

#endif  // SOFIA_DATA_SLICE_FORMAT_H_
