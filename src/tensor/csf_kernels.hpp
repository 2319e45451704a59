#ifndef SOFIA_TENSOR_CSF_KERNELS_H_
#define SOFIA_TENSOR_CSF_KERNELS_H_

#include <vector>

#include "linalg/matrix.hpp"
#include "tensor/csf_tensor.hpp"
#include "tensor/sparse_kernels.hpp"
#include "util/parallel.hpp"

/// \file csf_kernels.hpp
/// \brief Fiber-tree (CSF) versions of the observed-entry kernels.
///
/// Same contracts as the Coo* kernels of tensor/sparse_kernels.hpp — same
/// result structs, record-aligned `values`/`residuals` arrays shared with
/// the CooList the CsfTensor was built from — but the traversal walks the
/// per-mode fiber trees and reuses partial Hadamard products along shared
/// fibers: an internal node's row product is computed once and reused by
/// every leaf below it, instead of once per observed entry.
///
/// Determinism: every kernel partitions work into root-node tasks or
/// fixed-size root slabs of the target tree (owner-per-fiber-slab — a root
/// node owns its output row and its subtree's leaves), and reductions
/// combine slab partials in slab order, so results are bitwise identical
/// for every thread count. Against the Coo backend the kernels agree to
/// floating-point reassociation (≤1e-12, tests/csf_test.cc): the fiber
/// traversal multiplies factor rows in tree-level order (descending mode
/// index — the fiber grouping order) and hoists partial sums per fiber,
/// both of which regroup the Coo kernels' per-record arithmetic.

namespace sofia {

/// MTTKRP over observed entries via the mode-rooted fiber tree: row i of
/// the result accumulates Σ values·(⊛ other rows) with the inner sums
/// hoisted per fiber. Contract of CooMttkrp.
Matrix CsfMttkrp(const CsfTensor& csf, const std::vector<double>& values,
                 const std::vector<Matrix>& factors, size_t mode,
                 WorkerPool* pool = nullptr);

/// Theorem-1 per-row normal equations of one mode (contract of
/// CooRowSystems); the regressor prefix is shared along fibers.
RowSystems CsfRowSystems(const CsfTensor& csf,
                         const std::vector<double>& values,
                         const std::vector<Matrix>& factors, size_t mode,
                         WorkerPool* pool = nullptr);

/// CsfRowSystems with the temporal weight folded into the regressor
/// prefix (contract of CooWeightedRowSystems).
RowSystems CsfWeightedRowSystems(const CsfTensor& csf,
                                 const std::vector<double>& values,
                                 const std::vector<Matrix>& factors,
                                 const std::vector<double>& temporal_row,
                                 size_t mode, WorkerPool* pool = nullptr);

/// Fused weighted row systems + proximal row solve (contract of
/// CooProximalRowUpdates; same ProximalRowSolve tail, one task per output
/// row so empty rows run the same short-circuit). `u` may alias
/// `factors[mode]`.
void CsfProximalRowUpdates(const CsfTensor& csf,
                           const std::vector<double>& values,
                           const std::vector<Matrix>& factors,
                           const std::vector<double>& temporal_row,
                           size_t mode, const Matrix& previous, double mu,
                           Matrix* u, WorkerPool* pool = nullptr);

/// Slice-global temporal normal equations (contract of CooNormalSystem);
/// fiber-hoisted prefixes, root-slab partials combined in slab order.
NormalSystem CsfNormalSystem(const CsfTensor& csf,
                             const std::vector<double>& values,
                             const std::vector<Matrix>& factors,
                             WorkerPool* pool = nullptr);

/// Per-mode gradients + curvature traces (contract of CooModeGradients).
ModeGradients CsfModeGradients(const CsfTensor& csf,
                               const std::vector<double>& residuals,
                               const std::vector<Matrix>& factors,
                               const std::vector<double>& temporal_row,
                               WorkerPool* pool = nullptr,
                               bool with_traces = true);

/// Kruskal evaluation at the observed entries, record-aligned (contract of
/// CooKruskalGather). The fiber prefix is shared by every leaf of a fiber.
std::vector<double> CsfKruskalGather(const CsfTensor& csf,
                                     const std::vector<Matrix>& factors,
                                     const std::vector<double>& temporal_row,
                                     WorkerPool* pool = nullptr);
void CsfKruskalGather(const CsfTensor& csf,
                      const std::vector<Matrix>& factors,
                      const std::vector<double>& temporal_row,
                      std::vector<double>* out, WorkerPool* pool = nullptr);

/// The Algorithm-3 per-step accumulation (contract of CooStepGradients):
/// per-mode gradient rows via the mode-rooted trees plus the temporal
/// gradient/trace via a fiber-hoisted reduction over the mode-0 tree.
StepGradients CsfStepGradients(const CsfTensor& csf,
                               const std::vector<double>& residuals,
                               const std::vector<Matrix>& factors,
                               const std::vector<double>& temporal_row,
                               WorkerPool* pool = nullptr);

}  // namespace sofia

#endif  // SOFIA_TENSOR_CSF_KERNELS_H_
