#include "tensor/sparse_mask.hpp"

#include <utility>

#include "tensor/coo_list.hpp"
#include "util/check.hpp"

namespace sofia {

SparseMask SparseMask::FromMask(const Mask& omega) {
  SparseMask m;
  m.shape_ = omega.shape();
  m.indices_ = omega.ObservedIndices();
  return m;
}

SparseMask SparseMask::FromIndices(Shape shape, std::vector<size_t> sorted) {
  SparseMask m;
  m.shape_ = std::move(shape);
  m.indices_ = std::move(sorted);
  if (!m.indices_.empty()) {
    SOFIA_CHECK_LT(m.indices_.back(), m.shape_.NumElements());
    for (size_t k = 1; k < m.indices_.size(); ++k) {
      SOFIA_CHECK_LT(m.indices_[k - 1], m.indices_[k])
          << "SparseMask indices must be strictly ascending";
    }
  }
  return m;
}

SparseMask SparseMask::FromCoo(const CooList& coo) {
  return FromIndices(coo.shape(), coo.LinearIndices());
}

Mask SparseMask::ToMask() const {
  SOFIA_CHECK(valid());
  Mask out(shape_, false);
  for (size_t idx : indices_) out.Set(idx, true);
  return out;
}

bool SparseMask::Matches(const Mask& omega) const {
  return valid() && SameObservedSet(shape_, indices_, omega);
}

bool SameObservedSet(const Shape& shape, const std::vector<size_t>& sorted,
                     const Mask& omega) {
  if (!(shape == omega.shape())) return false;
  if (omega.CountObserved() != sorted.size()) return false;
  for (size_t idx : sorted) {
    if (!omega.Get(idx)) return false;
  }
  return true;
}

size_t SparseMask::DeltaSize(const SparseMask& other) const {
  SOFIA_CHECK(shape_ == other.shape_);
  size_t a = 0, b = 0, delta = 0;
  while (a < indices_.size() && b < other.indices_.size()) {
    if (indices_[a] == other.indices_[b]) {
      ++a;
      ++b;
    } else if (indices_[a] < other.indices_[b]) {
      ++a;
      ++delta;
    } else {
      ++b;
      ++delta;
    }
  }
  return delta + (indices_.size() - a) + (other.indices_.size() - b);
}

}  // namespace sofia
