#ifndef SOFIA_TENSOR_COO_LIST_H_
#define SOFIA_TENSOR_COO_LIST_H_

#include <cstdint>
#include <vector>

#include "tensor/dense_tensor.hpp"
#include "tensor/mask.hpp"
#include "tensor/shape.hpp"

/// \file coo_list.hpp
/// \brief Compacted coordinate list of the observed entries of a masked
/// tensor, with per-mode slice bucketing.
///
/// Every hot kernel of the paper is a sum over the observed set Ω (Lemma 1:
/// one ALS sweep is O(|Ω| N R (N + R)); Lemma 2: one dynamic update is
/// O(|Ω_t| N R)). A CooList pays one dense scan to extract Ω from a
/// (DenseTensor, Mask) pair and is then reused across all N modes and all
/// sweeps of a window, so the per-sweep cost scales with |Ω| instead of the
/// tensor volume. The per-mode buckets group records by their mode-n index
/// (the rows of the mode-n unfolding), which is what lets the sparse kernels
/// in tensor/sparse_kernels.hpp parallelize over output rows with no shared
/// mutable state — the SPLATT recipe (Smith et al.) restricted to COO.
///
/// The structure depends only on the mask, not the values: consumers whose
/// mask is fixed while values change (the SOFIA init loop re-subtracts a new
/// outlier tensor every outer iteration; CP-WOPT re-evaluates the loss at
/// every quasi-Newton iterate) build once and re-`Gather` per iteration.

namespace sofia {

/// Flat array of (multi-index, linear index) records for the observed
/// entries of a mask, in ascending linear order, plus per-mode buckets.
class CooList {
 public:
  CooList() = default;

  /// Compact the observed entries of `omega`. One branch-free pass over the
  /// mask, 8 indicator bytes per word with all-zero words skipped, writes
  /// each record's linear index and coordinates from the loop counters (no
  /// division); everything afterwards is O(|Ω|). `with_mode_buckets =
  /// false` skips the N per-mode bucket tables (O(N |Ω|) time and memory)
  /// for consumers that only stream the record list (gradients, norms).
  static CooList Build(const Mask& omega, bool with_mode_buckets = true);

  /// Build directly from already-sorted ascending linear indices — O(|Ω|
  /// order), no dense scan. Coordinates advance by carry from the previous
  /// record (a division only where a gap skips whole mode-0 fibers). This
  /// is how observed-only input (a decoded `.slices` record) reaches the
  /// kernel layer, and the |Ω|-scaling eval-pattern build of the comparison
  /// runner (which derives its held-out picks from the observed pattern's
  /// gaps instead of re-walking the index space).
  static CooList FromIndices(const Shape& shape, std::vector<size_t> sorted,
                             bool with_mode_buckets = true);

  /// Whether `omega` has this list's shape and exactly its observed set —
  /// the question every mask-reuse cache asks of its cached pattern. The
  /// count comparison rules out extra entries, then the record walk checks
  /// each record is observed: equal sizes plus containment is equality,
  /// and the walk never touches the volume − |Ω| unobserved entries.
  /// O(|Ω|) when omega's observed count is already cached; a cold mask pays
  /// its one CountObserved() scan here, so stream producers prime the count
  /// at generation time (Corrupt() does).
  bool SameObservedSet(const Mask& omega) const;

  /// True if mode `mode`'s slice bucket was built (required by the
  /// slice-parallel kernels CooMttkrp / CooRowSystems on that mode).
  bool has_mode_bucket(size_t mode) const {
    return mode < slice_ptr_.size() &&
           slice_ptr_[mode].size() == shape_.dim(mode) + 1;
  }

  const Shape& shape() const { return shape_; }
  size_t order() const { return shape_.order(); }
  /// Number of observed entries (|Ω|).
  size_t nnz() const { return linear_.size(); }

  /// Mode-`mode` index of record k (records are ordered by linear index).
  uint32_t Index(size_t record, size_t mode) const {
    return coords_[record * order_ + mode];
  }
  /// Pointer to the order() coordinates of record k.
  const uint32_t* Coords(size_t record) const {
    return coords_.data() + record * order_;
  }
  /// Linear index of record k into the dense tensor.
  size_t LinearIndex(size_t record) const { return linear_[record]; }
  /// All nnz linear indices, ascending (record-aligned).
  const std::vector<size_t>& LinearIndices() const { return linear_; }

  /// Gather x[k] for every record, aligned with record order.
  std::vector<double> Gather(const DenseTensor& x) const;
  /// Gather into a caller-owned buffer (resized to nnz) so per-step
  /// consumers can reuse scratch across steps instead of reallocating.
  void GatherInto(const DenseTensor& x, std::vector<double>* values) const;
  /// Gather (y - o)[k] for every record — the y* of Theorem 1.
  std::vector<double> GatherResidual(const DenseTensor& y,
                                     const DenseTensor& o) const;

  /// Per-mode slice buckets: the records whose mode-`mode` index equals s
  /// are ModeOrder(mode)[SlicePtr(mode)[s] ... SlicePtr(mode)[s + 1]), in
  /// ascending linear order (the bucketing sort is stable). The slowest
  /// mode's (order() - 1) permutation is the identity.
  const std::vector<uint32_t>& ModeOrder(size_t mode) const {
    return mode_order_[mode];
  }
  /// dim(mode) + 1 offsets into ModeOrder(mode).
  const std::vector<size_t>& SlicePtr(size_t mode) const {
    return slice_ptr_[mode];
  }

 private:
  /// CHECKs that coordinates and record indices fit in 32 bits.
  void CheckLimits(size_t nnz) const;
  /// Builds every mode's bucket from `coords_`.
  void BuildModeBuckets();

  Shape shape_;
  size_t order_ = 0;
  std::vector<uint32_t> coords_;  // nnz * order, record-major.
  std::vector<size_t> linear_;    // nnz linear indices, ascending.
  std::vector<std::vector<uint32_t>> mode_order_;  // One permutation per mode.
  std::vector<std::vector<size_t>> slice_ptr_;     // One offset table per mode.
};

}  // namespace sofia

#endif  // SOFIA_TENSOR_COO_LIST_H_
