#ifndef SOFIA_TENSOR_PRODUCTS_H_
#define SOFIA_TENSOR_PRODUCTS_H_

#include <vector>

#include "linalg/matrix.hpp"
#include "tensor/dense_tensor.hpp"
#include "tensor/mask.hpp"

/// \file products.hpp
/// \brief Standard tensor-matrix kernels: TTM and MTTKRP.
///
/// These are the two workhorses of every CP/Tucker toolkit:
///  - TTM (tensor-times-matrix): contracts one mode with a matrix,
///    X ×_n M, giving a tensor whose mode-n length is M's row count.
///  - MTTKRP (matricized tensor times Khatri-Rao product):
///    X_(n) · (⊙_{l != n} U^(l)), the gradient core of CP-ALS. The masked
///    variant restricts the sum to observed entries, which is exactly the
///    `c` side of Theorem 1's normal equations stacked over rows.

namespace sofia {

/// X ×_n M: result(i_1,..,j,..,i_N) = Σ_{i_n} M(j, i_n) X(i_1,..,i_n,..).
/// M must have X.dim(mode) columns.
DenseTensor Ttm(const DenseTensor& x, const Matrix& m, size_t mode);

/// MTTKRP: returns the I_n x R matrix X_(n) · KhatriRaoSkip(factors, n).
/// `factors` supplies every mode's matrix (mode n's entries are ignored,
/// but its shape must match X).
Matrix Mttkrp(const DenseTensor& x, const std::vector<Matrix>& factors,
              size_t mode);

/// Masked MTTKRP: only observed entries contribute, i.e. the stacked
/// right-hand sides c^(n)_{i_n} of Theorem 1 (Eq. (15)) with y* = x.
/// Internally compacts the observed entries into a CooList and runs the
/// observed-entry kernel (tensor/sparse_kernels.hpp) — callers that need
/// several modes or repeated products against one mask should build the
/// CooList themselves and call CooMttkrp directly to amortize the scan.
Matrix MaskedMttkrp(const DenseTensor& x, const Mask& omega,
                    const std::vector<Matrix>& factors, size_t mode);

}  // namespace sofia

#endif  // SOFIA_TENSOR_PRODUCTS_H_
