#ifndef SOFIA_TENSOR_MASK_H_
#define SOFIA_TENSOR_MASK_H_

#include <cstdint>
#include <vector>

#include "tensor/dense_tensor.hpp"
#include "tensor/shape.hpp"

/// \file mask.hpp
/// \brief Observation indicator tensors (the `Ω` of Definition 3).

namespace sofia {

/// Binary indicator over a tensor shape marking which entries are observed.
class Mask {
 public:
  Mask() = default;
  /// All-observed (if `observed`) or all-missing mask of the given shape.
  explicit Mask(Shape shape, bool observed = true);

  const Shape& shape() const { return shape_; }

  bool Get(size_t linear) const { return bits_[linear] != 0; }
  void Set(size_t linear, bool observed) {
    bits_[linear] = observed ? 1 : 0;
    count_ = kCountUnknown;
  }

  /// The indicator bytes (each 0 or 1), one per entry in linear order.
  const uint8_t* data() const { return bits_.data(); }

  /// Marks every entry observed (or missing), keeping the shape.
  void Fill(bool observed);

  bool At(const std::vector<size_t>& idx) const {
    return Get(shape_.Linearize(idx));
  }

  /// Number of observed entries (|Ω|). Computed once and cached; any Set()
  /// invalidates the cache, so repeated counts on a frozen mask are O(1).
  size_t CountObserved() const;

  /// Fraction of observed entries in [0, 1].
  double ObservedFraction() const;

  /// Linear indices of all observed entries, ascending.
  std::vector<size_t> ObservedIndices() const;

  /// Ω ⊛ T: zero out unobserved entries of a tensor (shape-checked copy).
  /// A bitwise select: observed entries keep their exact bits (−0.0, NaN
  /// payloads, ±∞), unobserved ones become +0.0 whatever they held.
  DenseTensor Apply(const DenseTensor& t) const;

  /// Frobenius norm of Ω ⊛ T without materializing the product.
  double MaskedFrobeniusNorm(const DenseTensor& t) const;

  /// Stack (N-1)-way masks along a new trailing temporal mode.
  static Mask StackSlices(const std::vector<Mask>& slices);

  /// Slice of the trailing mode (mirrors DenseTensor::SliceLastMode).
  Mask SliceLastMode(size_t t) const;

  /// Same shape and same observed set (a full indicator compare).
  bool operator==(const Mask& other) const {
    return shape_ == other.shape_ && bits_ == other.bits_;
  }
  bool operator!=(const Mask& other) const { return !(*this == other); }

 private:
  /// Sentinel for "observed count not computed yet".
  static constexpr size_t kCountUnknown = static_cast<size_t>(-1);

  Shape shape_;
  std::vector<uint8_t> bits_;
  mutable size_t count_ = kCountUnknown;  ///< CountObserved() cache.
};

}  // namespace sofia

#endif  // SOFIA_TENSOR_MASK_H_
