#ifndef SOFIA_TENSOR_SPARSE_MASK_H_
#define SOFIA_TENSOR_SPARSE_MASK_H_

#include <cstddef>
#include <vector>

#include "tensor/mask.hpp"
#include "tensor/shape.hpp"

/// \file sparse_mask.hpp
/// \brief Sorted-coordinate observation indicator — the |Ω|-scaling twin of
/// the dense Mask.
///
/// The mask-reuse caches (SofiaModel::Step, ObservedSweep::BeginStep, the
/// comparison runner's per-mask pattern map) only ever ask one question of
/// their cached indicator: "is the incoming mask the same observed set?".
/// Holding the cache as a dense Mask makes that answer an O(volume) byte
/// compare — at 1% observed, ~100× more work than the kernels the cache
/// feeds. A SparseMask stores only the sorted linear indices of the observed
/// entries, so the cache costs O(|Ω|) to store, O(min(|Ω_a|, |Ω_b|)) to
/// compare against another SparseMask, and O(|Ω|) to compare against an
/// incoming dense Mask (given the mask's cached observed count) — never the
/// volume. Conversions to/from Mask and CooList close the loop with the
/// dense layer and the kernel layer.

namespace sofia {

class CooList;

/// Sorted linear indices of the observed entries of a tensor shape.
class SparseMask {
 public:
  /// Empty (shapeless) mask; valid() is false until assigned from a factory.
  SparseMask() = default;

  /// Compact a dense mask: one pass over the index space (the same pass a
  /// CooList build pays); everything afterwards is O(|Ω|).
  static SparseMask FromMask(const Mask& omega);

  /// Adopt already-sorted linear indices — O(|Ω|), no dense scan. This is
  /// how the pattern caches build their indicator from the CooList they
  /// just compacted (CooList::LinearIndices is the same sorted array).
  static SparseMask FromIndices(Shape shape, std::vector<size_t> sorted);

  /// FromIndices over a CooList's record array (copies the indices).
  static SparseMask FromCoo(const CooList& coo);

  /// Whether this mask was produced by a factory (a Shape is attached).
  /// An empty observed set over a real shape is still valid.
  bool valid() const { return shape_.order() > 0; }

  const Shape& shape() const { return shape_; }
  /// |Ω|: number of observed entries.
  size_t nnz() const { return indices_.size(); }
  /// Sorted linear indices of the observed entries (the iteration order).
  const std::vector<size_t>& indices() const { return indices_; }

  /// Inflate back to a dense Mask (O(volume) output, as any densify is).
  Mask ToMask() const;

  /// Same shape and same observed set. Unequal sizes reject in O(1); equal
  /// sizes stop at the first differing index, so the scan is bounded by
  /// O(min(|Ω_a|, |Ω_b|)).
  bool operator==(const SparseMask& other) const {
    return shape_ == other.shape_ && indices_ == other.indices_;
  }
  bool operator!=(const SparseMask& other) const { return !(*this == other); }

  /// Same observed set as the dense mask: the count comparison rules out
  /// extra entries, then the index walk verifies every cached entry is
  /// observed — equal sizes plus containment is equality, and the walk
  /// never touches the volume − |Ω| unobserved entries. O(|Ω|) when
  /// omega's observed count is already cached; a cold mask pays its one
  /// CountObserved() scan here, so stream producers should prime the
  /// cache at generation time (Corrupt() does) to keep steady-state step
  /// loops free of full-index-space work.
  bool Matches(const Mask& omega) const;

  /// Size of the symmetric difference |Ω_a Δ Ω_b| via one merge walk,
  /// O(|Ω_a| + |Ω_b|) — the bitmap-delta telemetry of the pattern caches
  /// (see StreamRunResult::pattern_delta_sizes). Shapes must match.
  size_t DeltaSize(const SparseMask& other) const;

 private:
  Shape shape_;
  std::vector<size_t> indices_;  ///< Sorted ascending, no duplicates.
};

/// SparseMask::Matches over any sorted, duplicate-free index array of
/// `shape` — e.g. a cached CooList's LinearIndices(), which needs no
/// SparseMask copy to be compared.
bool SameObservedSet(const Shape& shape, const std::vector<size_t>& sorted,
                     const Mask& omega);

}  // namespace sofia

#endif  // SOFIA_TENSOR_SPARSE_MASK_H_
