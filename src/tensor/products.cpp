#include "tensor/products.hpp"

#include "tensor/coo_list.hpp"
#include "tensor/sparse_kernels.hpp"
#include "util/check.hpp"

namespace sofia {

DenseTensor Ttm(const DenseTensor& x, const Matrix& m, size_t mode) {
  const Shape& shape = x.shape();
  SOFIA_CHECK_LT(mode, shape.order());
  SOFIA_CHECK_EQ(m.cols(), shape.dim(mode));

  std::vector<size_t> out_dims = shape.dims();
  out_dims[mode] = m.rows();
  DenseTensor out(Shape(out_dims), 0.0);
  const Shape& out_shape = out.shape();

  // For every input entry, scatter into all output rows of the contracted
  // mode. The linear offsets of the two tensors differ only in the mode
  // stride, so we walk both with one multi-index.
  std::vector<size_t> idx(shape.order(), 0);
  for (size_t linear = 0; linear < shape.NumElements(); ++linear) {
    const double v = x[linear];
    if (v != 0.0) {
      const size_t in_mode_index = idx[mode];
      // Base output offset with mode index 0.
      size_t base = 0;
      for (size_t n = 0; n < shape.order(); ++n) {
        base += (n == mode ? 0 : idx[n]) * out_shape.stride(n);
      }
      for (size_t j = 0; j < m.rows(); ++j) {
        out[base + j * out_shape.stride(mode)] += m(j, in_mode_index) * v;
      }
    }
    shape.Next(&idx);
  }
  return out;
}

namespace {

Matrix MttkrpImpl(const DenseTensor& x,
                  const std::vector<Matrix>& factors, size_t mode) {
  const Shape& shape = x.shape();
  SOFIA_CHECK_LT(mode, shape.order());
  SOFIA_CHECK_EQ(factors.size(), shape.order());
  const size_t rank = factors[0].cols();
  for (size_t n = 0; n < factors.size(); ++n) {
    SOFIA_CHECK_EQ(factors[n].rows(), shape.dim(n));
    SOFIA_CHECK_EQ(factors[n].cols(), rank);
  }

  Matrix out(shape.dim(mode), rank, 0.0);
  std::vector<size_t> idx(shape.order(), 0);
  std::vector<double> h(rank);
  for (size_t linear = 0; linear < shape.NumElements(); ++linear) {
    const double v = x[linear];
    if (v != 0.0) {
      for (size_t r = 0; r < rank; ++r) h[r] = v;
      for (size_t l = 0; l < factors.size(); ++l) {
        if (l == mode) continue;
        const double* row = factors[l].Row(idx[l]);
        for (size_t r = 0; r < rank; ++r) h[r] *= row[r];
      }
      double* orow = out.Row(idx[mode]);
      for (size_t r = 0; r < rank; ++r) orow[r] += h[r];
    }
    shape.Next(&idx);
  }
  return out;
}

}  // namespace

Matrix Mttkrp(const DenseTensor& x, const std::vector<Matrix>& factors,
              size_t mode) {
  return MttkrpImpl(x, factors, mode);
}

Matrix MaskedMttkrp(const DenseTensor& x, const Mask& omega,
                    const std::vector<Matrix>& factors, size_t mode) {
  SOFIA_CHECK(omega.shape() == x.shape());
  const CooList coo = CooList::Build(omega);
  return CooMttkrp(coo, coo.Gather(x), factors, mode);
}

}  // namespace sofia
