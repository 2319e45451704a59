#include "tensor/mask.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "util/check.hpp"

namespace sofia {

Mask::Mask(Shape shape, bool observed)
    : shape_(std::move(shape)),
      bits_(shape_.NumElements(), observed ? 1 : 0),
      count_(observed ? bits_.size() : 0) {}

size_t Mask::CountObserved() const {
  if (count_ == kCountUnknown) {
    size_t c = 0;
    for (uint8_t b : bits_) c += b;
    count_ = c;
  }
  return count_;
}

double Mask::ObservedFraction() const {
  if (bits_.empty()) return 0.0;
  return static_cast<double>(CountObserved()) /
         static_cast<double>(bits_.size());
}

std::vector<size_t> Mask::ObservedIndices() const {
  std::vector<size_t> idx;
  idx.reserve(CountObserved());
  for (size_t k = 0; k < bits_.size(); ++k) {
    if (bits_[k]) idx.push_back(k);
  }
  return idx;
}

void Mask::Fill(bool observed) {
  std::fill(bits_.begin(), bits_.end(), observed ? 1 : 0);
  count_ = observed ? bits_.size() : 0;
}

DenseTensor Mask::Apply(const DenseTensor& t) const {
  SOFIA_CHECK(t.shape() == shape_);
  DenseTensor out(shape_);
  const uint8_t* bits = bits_.data();
  const double* in = t.data();
  double* dst = out.data();
  // Each indicator byte widens to an all-ones or all-zero 64-bit mask, so
  // the loop has no branch and vectorizes.
  for (size_t k = 0; k < bits_.size(); ++k) {
    uint64_t v;
    std::memcpy(&v, in + k, sizeof(v));
    v &= uint64_t{0} - bits[k];
    std::memcpy(dst + k, &v, sizeof(v));
  }
  return out;
}

double Mask::MaskedFrobeniusNorm(const DenseTensor& t) const {
  SOFIA_CHECK(t.shape() == shape_);
  double s = 0.0;
  for (size_t k = 0; k < bits_.size(); ++k) {
    if (bits_[k]) s += t[k] * t[k];
  }
  return std::sqrt(s);
}

Mask Mask::StackSlices(const std::vector<Mask>& slices) {
  SOFIA_CHECK(!slices.empty());
  const Shape& slice_shape = slices[0].shape();
  const size_t slice_elems = slice_shape.NumElements();
  Mask out(slice_shape.AppendMode(slices.size()), false);
  for (size_t t = 0; t < slices.size(); ++t) {
    SOFIA_CHECK(slices[t].shape() == slice_shape);
    std::copy(slices[t].bits_.begin(), slices[t].bits_.end(),
              out.bits_.begin() + t * slice_elems);
  }
  out.count_ = kCountUnknown;  // Bits were written behind Set()'s back.
  return out;
}

Mask Mask::SliceLastMode(size_t t) const {
  SOFIA_CHECK_GE(shape_.order(), 1u);
  const size_t last = shape_.order() - 1;
  SOFIA_CHECK_LT(t, shape_.dim(last));
  Shape slice_shape = shape_.RemoveMode(last);
  const size_t slice_elems = slice_shape.NumElements();
  Mask out(slice_shape, false);
  std::copy(bits_.begin() + t * slice_elems,
            bits_.begin() + (t + 1) * slice_elems, out.bits_.begin());
  out.count_ = kCountUnknown;  // Bits were written behind Set()'s back.
  return out;
}

}  // namespace sofia
