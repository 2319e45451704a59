#include "tensor/coo_list.hpp"

#include <limits>

#include "util/check.hpp"

namespace sofia {

namespace {

/// Bucket records by their mode-n index with a stable counting sort, so
/// each bucket preserves ascending linear order.
void BucketMode(const CooList& coo, size_t n, std::vector<size_t>* ptr,
                std::vector<uint32_t>* ord) {
  const size_t dim = coo.shape().dim(n);
  const size_t nnz = coo.nnz();
  ptr->assign(dim + 1, 0);
  for (size_t k = 0; k < nnz; ++k) ++(*ptr)[coo.Index(k, n) + 1];
  for (size_t s = 0; s < dim; ++s) (*ptr)[s + 1] += (*ptr)[s];

  ord->resize(nnz);
  std::vector<size_t> fill(ptr->begin(), ptr->end() - 1);
  for (size_t k = 0; k < nnz; ++k) {
    (*ord)[fill[coo.Index(k, n)]++] = static_cast<uint32_t>(k);
  }
}

}  // namespace

CooList CooList::Build(const Mask& omega, bool with_mode_buckets) {
  const Shape& shape = omega.shape();
  CooList coo;
  coo.shape_ = shape;
  coo.order_ = shape.order();
  SOFIA_CHECK_GT(coo.order_, 0u);

  const size_t nnz = omega.CountObserved();
  coo.linear_.reserve(nnz);

  // One dense pass over the mask bits; only the |Ω| hits pay for the
  // multi-index (delinearized by stride division, order() ops per record).
  for (size_t linear = 0; linear < shape.NumElements(); ++linear) {
    if (omega.Get(linear)) coo.linear_.push_back(linear);
  }
  coo.FinishFromLinear(with_mode_buckets);
  return coo;
}

CooList CooList::FromIndices(const Shape& shape, std::vector<size_t> sorted,
                             bool with_mode_buckets) {
  CooList coo;
  coo.shape_ = shape;
  coo.order_ = shape.order();
  SOFIA_CHECK_GT(coo.order_, 0u);
  coo.linear_ = std::move(sorted);
  if (!coo.linear_.empty()) {
    SOFIA_CHECK_LT(coo.linear_.back(), shape.NumElements());
    for (size_t k = 1; k < coo.linear_.size(); ++k) {
      SOFIA_CHECK_LT(coo.linear_[k - 1], coo.linear_[k])
          << "CooList indices must be strictly ascending";
    }
  }
  coo.FinishFromLinear(with_mode_buckets);
  return coo;
}

void CooList::FinishFromLinear(bool with_mode_buckets) {
  const Shape& shape = shape_;
  for (size_t n = 0; n < order_; ++n) {
    SOFIA_CHECK_LT(shape.dim(n), std::numeric_limits<uint32_t>::max())
        << "CooList coordinates are 32-bit";
  }
  const size_t nnz = linear_.size();
  SOFIA_CHECK_LT(nnz, std::numeric_limits<uint32_t>::max())
      << "CooList record indices are 32-bit";

  coords_.resize(nnz * order_);
  for (size_t k = 0; k < nnz; ++k) {
    size_t rest = linear_[k];
    uint32_t* out = &coords_[k * order_];
    for (size_t n = order_; n-- > 0;) {
      const size_t i = rest / shape.stride(n);
      rest -= i * shape.stride(n);
      out[n] = static_cast<uint32_t>(i);
    }
  }

  if (!with_mode_buckets) return;

  mode_order_.resize(order_);
  slice_ptr_.resize(order_);
  for (size_t n = 0; n < order_; ++n) {
    BucketMode(*this, n, &slice_ptr_[n], &mode_order_[n]);
  }
}

bool CooList::SameObservedSet(const Mask& omega) const {
  if (!(shape_ == omega.shape())) return false;
  if (omega.CountObserved() != linear_.size()) return false;
  for (size_t idx : linear_) {
    if (!omega.Get(idx)) return false;
  }
  return true;
}

std::vector<double> CooList::Gather(const DenseTensor& x) const {
  std::vector<double> values;
  GatherInto(x, &values);
  return values;
}

void CooList::GatherInto(const DenseTensor& x,
                         std::vector<double>* values) const {
  SOFIA_CHECK(x.shape() == shape_);
  values->resize(nnz());
  for (size_t k = 0; k < linear_.size(); ++k) (*values)[k] = x[linear_[k]];
}

std::vector<double> CooList::GatherResidual(const DenseTensor& y,
                                            const DenseTensor& o) const {
  SOFIA_CHECK(y.shape() == shape_);
  SOFIA_CHECK(o.shape() == shape_);
  std::vector<double> values(nnz());
  for (size_t k = 0; k < linear_.size(); ++k) {
    values[k] = y[linear_[k]] - o[linear_[k]];
  }
  return values;
}

}  // namespace sofia
