#include "tensor/coo_list.hpp"

#include <algorithm>
#include <cstring>
#include <limits>
#include <numeric>

#include "tensor/simd.hpp"
#include "util/check.hpp"

namespace sofia {

namespace {

/// Bucket records by their mode-n index with a stable counting sort, so
/// each bucket preserves ascending linear order. The loops read and write
/// through restrict-qualified locals: the vectors' element stores could
/// otherwise alias the CooList's own fields and force a reload per record.
void BucketMode(const CooList& coo, size_t n, std::vector<size_t>* ptr,
                std::vector<uint32_t>* ord) {
  const size_t dim = coo.shape().dim(n);
  const size_t nnz = coo.nnz();
  const size_t order = coo.order();
  ptr->assign(dim + 1, 0);
  ord->resize(nnz);
  if (nnz == 0) return;
  size_t* SOFIA_RESTRICT offset = ptr->data();
  const uint32_t* SOFIA_RESTRICT index = coo.Coords(0) + n;
  uint32_t* SOFIA_RESTRICT out = ord->data();
  // Records ascend in linear order, so the slowest mode's index never
  // decreases along them: its stable bucket order is the identity, and
  // each bucket ends after its last record. Buckets without records end
  // where the previous one does.
  if (n + 1 == order) {
    for (size_t k = 0; k < nnz; ++k) offset[index[k * order] + 1] = k + 1;
    for (size_t s = 0; s < dim; ++s) {
      offset[s + 1] = std::max(offset[s + 1], offset[s]);
    }
    std::iota(out, out + nnz, 0u);
    return;
  }
  for (size_t k = 0; k < nnz; ++k) ++offset[index[k * order] + 1];
  for (size_t s = 0; s < dim; ++s) offset[s + 1] += offset[s];
  std::vector<size_t> fill_buf(offset, offset + dim);
  size_t* SOFIA_RESTRICT fill = fill_buf.data();
  for (size_t k = 0; k < nnz; ++k) {
    out[fill[index[k * order]]++] = static_cast<uint32_t>(k);
  }
}

/// Outer coordinates (modes 1..order-1) of the current mode-0 fiber: a
/// fixed array when the order is a compile-time kN, a vector otherwise.
template <size_t kN>
struct FiberIndex {
  explicit FiberIndex(size_t) {}
  uint32_t* get() { return fixed; }
  uint32_t fixed[kN] = {};
};
template <>
struct FiberIndex<0> {
  explicit FiberIndex(size_t order) : dynamic(order, 0) {}
  uint32_t* get() { return dynamic.data(); }
  std::vector<uint32_t> dynamic;
};

/// Advances the outer coordinates `outer[1..order)` by `fibers` mode-0
/// fibers. A division runs only where the count crosses a mode's bound by
/// more than one wrap.
void AdvanceFibers(const Shape& shape, size_t order, size_t fibers,
                   uint32_t* outer) {
  for (size_t m = 1; m < order && fibers > 0; ++m) {
    const size_t v = outer[m] + fibers;
    const size_t dim = shape.dim(m);
    if (v < dim) {
      outer[m] = static_cast<uint32_t>(v);
      return;
    }
    fibers = v < 2 * dim ? 1 : v / dim;
    outer[m] = static_cast<uint32_t>(v - fibers * dim);
  }
}

/// The compaction scan of CooList::Build. Walks the mask one mode-0 fiber
/// at a time, 8 indicator bytes per word, and skips all-zero words. Every
/// other byte writes a candidate record at slot `n` (linear index and
/// coordinates from the loop counters) and advances `n` by the byte, so
/// unobserved candidates are overwritten by the next one without a branch.
/// The buffers hold nnz + 1 records: the last candidate may land one past
/// the final record. Returns the record count.
template <size_t kN>
size_t CompactFibers(const Shape& shape, const uint8_t* bits,
                     size_t* SOFIA_RESTRICT linear,
                     uint32_t* SOFIA_RESTRICT coords) {
  const size_t order = kN == 0 ? shape.order() : kN;
  const size_t dim0 = shape.dim(0);
  const size_t volume = shape.NumElements();
  FiberIndex<kN> outer_buf(order);
  uint32_t* outer = outer_buf.get();
  size_t n = 0;
  for (size_t base = 0; base < volume; base += dim0) {
    const uint8_t* fiber = bits + base;
    const auto put = [&](size_t i) {
      linear[n] = base + i;
      uint32_t* SOFIA_RESTRICT c = coords + n * order;
      c[0] = static_cast<uint32_t>(i);
      for (size_t m = 1; m < order; ++m) c[m] = outer[m];
      n += fiber[i];
    };
    size_t i = 0;
    for (; i + 8 <= dim0; i += 8) {
      uint64_t word;
      std::memcpy(&word, fiber + i, 8);
      if (word == 0) continue;  // Eight unobserved entries.
      for (size_t j = 0; j < 8; ++j) put(i + j);
    }
    for (; i < dim0; ++i) put(i);
    AdvanceFibers(shape, order, 1, outer);
  }
  return n;
}

/// Coordinates of ascending linear indices by carry: each record's
/// coordinates are the previous record's advanced by the index gap. Within
/// a mode-0 fiber that is one subtraction; a division runs only when a gap
/// skips whole fibers.
template <size_t kN>
void CoordsByCarry(const Shape& shape, const size_t* SOFIA_RESTRICT linear,
                   size_t nnz, uint32_t* SOFIA_RESTRICT coords) {
  const size_t order = kN == 0 ? shape.order() : kN;
  const size_t dim0 = shape.dim(0);
  FiberIndex<kN> outer_buf(order);
  uint32_t* outer = outer_buf.get();
  size_t base = 0;  // Linear index of the current fiber's first entry.
  for (size_t k = 0; k < nnz; ++k) {
    size_t off = linear[k] - base;
    if (off >= dim0) {
      const size_t fibers = off < 2 * dim0 ? 1 : off / dim0;
      off -= fibers * dim0;
      base += fibers * dim0;
      AdvanceFibers(shape, order, fibers, outer);
    }
    uint32_t* SOFIA_RESTRICT c = coords + k * order;
    c[0] = static_cast<uint32_t>(off);
    for (size_t m = 1; m < order; ++m) c[m] = outer[m];
  }
}

}  // namespace

void CooList::CheckLimits(size_t nnz) const {
  for (size_t n = 0; n < order_; ++n) {
    SOFIA_CHECK_LT(shape_.dim(n), std::numeric_limits<uint32_t>::max())
        << "CooList coordinates are 32-bit";
  }
  SOFIA_CHECK_LT(nnz, std::numeric_limits<uint32_t>::max())
      << "CooList record indices are 32-bit";
}

CooList CooList::Build(const Mask& omega, bool with_mode_buckets) {
  CooList coo;
  coo.shape_ = omega.shape();
  coo.order_ = coo.shape_.order();
  SOFIA_CHECK_GT(coo.order_, 0u);
  const size_t nnz = omega.CountObserved();
  coo.CheckLimits(nnz);

  // One branch-free scan of the mask writes records and coordinates
  // together; the one spare slot takes the final unobserved candidate.
  // Order 2 (every stream slice) runs a fixed-order instantiation, like the
  // kernels' DispatchOrder<2>.
  coo.linear_.resize(nnz + 1);
  coo.coords_.resize((nnz + 1) * coo.order_);
  size_t found = 0;
  if (coo.shape_.NumElements() > 0) {
    found = coo.order_ == 2
                ? CompactFibers<2>(coo.shape_, omega.data(),
                                   coo.linear_.data(), coo.coords_.data())
                : CompactFibers<0>(coo.shape_, omega.data(),
                                   coo.linear_.data(), coo.coords_.data());
  }
  SOFIA_CHECK_EQ(found, nnz) << "mask indicator bytes must be 0 or 1";
  coo.linear_.resize(nnz);
  coo.coords_.resize(nnz * coo.order_);
  if (with_mode_buckets) coo.BuildModeBuckets();
  return coo;
}

CooList CooList::FromIndices(const Shape& shape, std::vector<size_t> sorted,
                             bool with_mode_buckets) {
  CooList coo;
  coo.shape_ = shape;
  coo.order_ = shape.order();
  SOFIA_CHECK_GT(coo.order_, 0u);
  coo.linear_ = std::move(sorted);
  const size_t nnz = coo.linear_.size();
  coo.CheckLimits(nnz);
  if (nnz > 0) {
    SOFIA_CHECK_LT(coo.linear_.back(), shape.NumElements());
    for (size_t k = 1; k < nnz; ++k) {
      SOFIA_CHECK_LT(coo.linear_[k - 1], coo.linear_[k])
          << "CooList indices must be strictly ascending";
    }
  }
  coo.coords_.resize(nnz * coo.order_);
  if (coo.order_ == 2) {
    CoordsByCarry<2>(coo.shape_, coo.linear_.data(), nnz, coo.coords_.data());
  } else {
    CoordsByCarry<0>(coo.shape_, coo.linear_.data(), nnz, coo.coords_.data());
  }
  if (with_mode_buckets) coo.BuildModeBuckets();
  return coo;
}

void CooList::BuildModeBuckets() {
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
