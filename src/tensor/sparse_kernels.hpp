#ifndef SOFIA_TENSOR_SPARSE_KERNELS_H_
#define SOFIA_TENSOR_SPARSE_KERNELS_H_

#include <vector>

#include "linalg/matrix.hpp"
#include "tensor/coo_list.hpp"
#include "tensor/dense_tensor.hpp"
#include "tensor/mask.hpp"
#include "timeseries/robust.hpp"
#include "util/parallel.hpp"

/// \file sparse_kernels.hpp
/// \brief Observed-entry (COO-driven) kernels of the ALS, the dynamic
/// update, and the streaming baselines.
///
/// The COO kernels realize the complexity claims of Lemmas 1-2: they touch
/// only the |Ω| records of a prebuilt CooList instead of rescanning the full
/// dense index space once per mode per sweep. Their dense-scan references
/// live in tests/dense_oracle.hpp, the oracle of the kernel parity tests.
/// Two kernels stay scalar and keep the dense scans' order of operations,
/// so on inputs of one reduction block they reproduce the oracle bit for
/// bit: CooKruskalSliceGather and CooResidualSquaredNorm.
/// All of them but SOFIA's step (CooSofiaStep) and OLSTEC's RLS sweep
/// (CooOlstecSweep), each one serial pass, split the
/// work into disjoint units (mode slices, or fixed-size record blocks for
/// the reductions) and run the units on the `pool` they are handed, or
/// inline when it is null. Results are bitwise identical for every pool:
/// only the assignment of units to threads varies, never the accumulation
/// order within a unit or the order units are combined in.
///
/// `values` arguments are record-aligned (see CooList::Gather); passing the
/// gathered y* = y - o of Theorem 1 yields the paper's robust updates.

namespace sofia {

/// Per-row normal equations of Theorem 1 for one mode: B[i] = Σ h h^T and
/// c[i] = Σ y* h over the observed entries of row i, where h is the
/// Hadamard product of the other modes' factor rows.
struct RowSystems {
  std::vector<Matrix> b;               // One R x R matrix per row.
  std::vector<std::vector<double>> c;  // One R vector per row.
};

/// Slice-global normal equations: B = Σ h h^T and c = Σ values[k] h over all
/// observed entries, with h the full Hadamard product of the factor rows at
/// the entry. This is the regressor system of every baseline's temporal-row
/// solve (ObservedSweep::SolveTemporalRow).
struct NormalSystem {
  Matrix b;
  std::vector<double> c;
};

/// Per-mode factor gradients of 0.5 ||Ω ⊛ (Y* - [[factors; w]])||^2 at the
/// current iterate, plus the per-row Gauss-Newton curvature traces used to
/// cap SGD steps (the SGD-style baselines' ObservedSweep::Gradients).
struct ModeGradients {
  std::vector<Matrix> row_grads;               ///< One (rows x R) per mode.
  std::vector<std::vector<double>> row_trace;  ///< Σ reg² per mode row.
};

/// MTTKRP over observed entries: row i of the result accumulates
/// values[k] * h_k for every record k in mode-`mode` slice i. Equals
/// MaskedMttkrp on the dense pair the CooList was built from. Requires a
/// CooList built with mode buckets.
Matrix CooMttkrp(const CooList& coo, const std::vector<double>& values,
                 const std::vector<Matrix>& factors, size_t mode,
                 WorkerPool* pool = nullptr);

/// Accumulate the Theorem-1 row systems for `mode` from observed entries.
/// Each row's B and c are held in registers over its records (rank-
/// specialized, and order-specialized for orders 2 and 3); B's upper
/// triangle is mirrored at the end, so it is exactly symmetric. Requires a
/// CooList built with mode buckets.
RowSystems CooRowSystems(const CooList& coo, const std::vector<double>& values,
                         const std::vector<Matrix>& factors, size_t mode,
                         WorkerPool* pool = nullptr);

/// Accumulate the slice-global temporal normal equations from observed
/// entries: h_k is the Hadamard product over *all* modes' factor rows at
/// record k (multiplied in mode order, matching the dense scan), on the
/// row systems' register-blocked accumulator. B's upper triangle is
/// mirrored, so it is exactly symmetric. Blocked over fixed 4096-record
/// ranges in record order with partials combined in block order — bitwise
/// identical for every thread count. The scalar instantiation gives the
/// bits of the record-order scalar kernel (tests/dense_oracle.hpp's
/// RecordOrderNormalSystem); the AVX2+FMA one differs by fused rounding.
/// Works on bucket-less CooLists.
NormalSystem CooNormalSystem(const CooList& coo,
                             const std::vector<double>& values,
                             const std::vector<Matrix>& factors,
                             WorkerPool* pool = nullptr);

/// CooRowSystems with the temporal weight folded into the regressor:
/// h = temporal_row ⊛ (⊛_{l != mode} u^(l)_{i_l}) — the per-row systems of
/// the MAST / OR-MSTC closed-form row updates. Requires a CooList built with
/// mode buckets.
RowSystems CooWeightedRowSystems(const CooList& coo,
                                 const std::vector<double>& values,
                                 const std::vector<Matrix>& factors,
                                 const std::vector<double>& temporal_row,
                                 size_t mode, WorkerPool* pool = nullptr);

/// Fused CooWeightedRowSystems + proximal row solve: for every row i of
/// `mode`, accumulate B_i = Σ h h^T and c_i = Σ vals h from the row's
/// records and immediately solve u_i <- (B_i + μI)^{-1} (c_i + μ u_i^prev)
/// in stack buffers, writing the rows of `u` in place — the MAST / OR-MSTC
/// closed-form row update (linalg/solve.hpp's ProximalRowSolve: empty-system
/// short-circuit, in-place Cholesky, SolveRidge fallback) without
/// materializing the row-system table, whose
/// Σ_n I_n per-sweep heap allocations dominate sparse slices. Each task
/// takes four consecutive rows and runs their Cholesky solves side by side,
/// one row per vector lane with the scalar solve's operations, so every row
/// gets ProximalRowSolve's bits; rows the Cholesky solve does not take go
/// to ProximalRowSolve itself. `u` may alias `factors[mode]`: the
/// regressors only read the *other* modes' rows, and each task owns exactly
/// its output rows. Requires mode buckets.
void CooProximalRowUpdates(const CooList& coo,
                           const std::vector<double>& values,
                           const std::vector<Matrix>& factors,
                           const std::vector<double>& temporal_row,
                           size_t mode, const Matrix& previous, double mu,
                           Matrix* u, WorkerPool* pool = nullptr);

/// Accumulate every mode's gradient rows and curvature traces from
/// record-aligned residuals: grow[r] += residuals[k] * h_r and
/// trace += h_r² with h = temporal_row ⊛ leave-one-out product — the
/// factor gradients of the SGD-style baselines. One mode
/// slice per task (owner-per-unit), so results are bitwise identical for
/// every thread count. Requires a CooList built with mode buckets.
/// `with_traces = false` skips the curvature accumulation entirely
/// (row_trace stays empty) for consumers that only need gradients.
ModeGradients CooModeGradients(const CooList& coo,
                               const std::vector<double>& residuals,
                               const std::vector<Matrix>& factors,
                               const std::vector<double>& temporal_row,
                               WorkerPool* pool = nullptr,
                               bool with_traces = true);

/// ||Ω ⊛ (Y* - X̂)||_F^2 with X̂ = [[factors]], without materializing X̂.
/// `values` holds the gathered Y* entries. Works on bucket-less CooLists.
double CooResidualSquaredNorm(const CooList& coo,
                              const std::vector<double>& values,
                              const std::vector<Matrix>& factors,
                              WorkerPool* pool = nullptr);

/// sqrt(CooResidualSquaredNorm(...)).
double CooResidualNorm(const CooList& coo, const std::vector<double>& values,
                       const std::vector<Matrix>& factors,
                       WorkerPool* pool = nullptr);

/// CP-WOPT's masked least-squares loss f = 0.5 ||Ω ⊛ (Y - [[U]])||_F^2 and
/// its gradient, evaluated on the quasi-Newton solver's packed parameters:
/// `x` holds every factor mode-major (U^(0), then U^(1), ...; each
/// I_n x `rank`, row-major), so factor rows are read in place with no
/// unpacking. Specialized at compile time on the common ranks (as every
/// kernel here) and on tensor order 2; other orders loop at run time with
/// the same arithmetic. Compiled for scalar and AVX2+FMA (the latter fuses
/// multiply-adds, so the two differ by rounding). Deterministic for every
/// pool.
///
/// CooCpWoptLoss returns f, summing fixed 4096-record blocks in block order
/// (the grouping of CooResidualSquaredNorm).
double CooCpWoptLoss(const CooList& coo, const std::vector<double>& values,
                     const std::vector<double>& x, size_t rank,
                     WorkerPool* pool = nullptr);

/// CooCpWoptGradient resizes `grad` to x.size() and writes ∂f/∂x in the
/// layout of `x`, built per record from prefix and suffix leave-one-out
/// products: ∂f/∂U^(l)(i_l, r) accumulates -resid · Π_{l' != l}
/// U^(l')(i_{l'}, r). The records split into min(16, ceil(|Ω| / 4096))
/// contiguous tasks with private accumulators added in task order; within
/// a task, the last mode's gradient row is held locally over its run of
/// records.
void CooCpWoptGradient(const CooList& coo, const std::vector<double>& values,
                       const std::vector<double>& x, size_t rank,
                       std::vector<double>* grad, WorkerPool* pool = nullptr);

/// Gather of the Kruskal slice [[{factors}; temporal_row]] at the observed
/// entries: out[k] = sum_r temporal_row[r] * prod_l factors[l](i_l, r) for
/// every record k — the Eq. (20) forecast evaluated only on Ω_t. Blocked
/// over records; each record's value is independent of the partition, so
/// results are bitwise identical for every thread count.
std::vector<double> CooKruskalGather(const CooList& coo,
                                     const std::vector<Matrix>& factors,
                                     const std::vector<double>& temporal_row,
                                     WorkerPool* pool = nullptr);

/// CooKruskalGather variant that replicates the KruskalSlice (Khatri-Rao
/// chain) evaluation order bitwise: out[k] = Σ_r u^(0)_r (w_r ((u^(N-1) ⊛
/// u^(N-2)) ⊛ ... ⊛ u^(1))_r). OR-MSTC thresholds its outlier slab on this
/// gather, so its slab decisions match the dense oracle's, which thresholds
/// a materialized KruskalSlice residual, bit for bit.
std::vector<double> CooKruskalSliceGather(const CooList& coo,
                                          const std::vector<Matrix>& factors,
                                          const std::vector<double>& temporal_row,
                                          WorkerPool* pool = nullptr);

/// CooKruskalSliceGather into a caller-owned buffer (resized to nnz): hot
/// per-step consumers (OR-MSTC's slab loop, the lazy StepResult gathers of
/// the eval protocols) reuse one scratch vector across steps instead of
/// allocating a fresh result per call.
void CooKruskalSliceGather(const CooList& coo,
                           const std::vector<Matrix>& factors,
                           const std::vector<double>& temporal_row,
                           std::vector<double>* out,
                           WorkerPool* pool = nullptr);

/// Everything the dynamic update (Algorithm 3 lines 7-9) accumulates over
/// the observed entries of one incoming slice: per-row gradients of the
/// non-temporal factors (Eq. (24)), the data gradient of the temporal row
/// (Eq. (25)), and the Gauss-Newton curvature traces that drive the
/// normalized-step cap (see SofiaConfig::normalized_step).
struct StepGradients {
  std::vector<Matrix> row_grads;  ///< One (rows x R) gradient per mode.
  std::vector<std::vector<double>> row_trace;  ///< tr(H_row) per mode row.
  std::vector<double> temporal_grad;           ///< Length R.
  double temporal_trace = 0.0;                 ///< tr(H) of the row solve.
};

/// The robust-statistics settings of one SOFIA step: Eq. (8)'s smoothing
/// phi, the Huber cap k and biweight plateau ck of Eqs. (7)-(8), and the
/// two robust arms of SofiaAblation.
struct SofiaStepRobust {
  double phi = 0.0;
  double huber_k = kHuberK;
  double biweight_ck = kBiweightCk;
  bool reject_outliers = true;      ///< Eq. (21); off = O_t ≡ 0.
  bool scale_before_reject = false;  ///< Gelper order: update Σ̂ first.
};

/// SOFIA's dynamic update over Ω_t (Algorithm 3 lines 4-8) in one pass over
/// the records, in record order. Per record it gathers y, evaluates the
/// Eq. (20) forecast f = Σ_r u_hat_r Π_l u^(l)_{i_l r}, applies the Eq. (21)
/// Huber rejection and the Eq. (8) error-scale update (reject first, so an
/// extreme value cannot inflate the scale it is judged by; the reverse with
/// scale_before_reject), forms the residual y - o - f, and scatters it into
/// every mode's gradient row and curvature trace (regressor u_hat ⊛ the
/// other modes' rows) and into the temporal gradient and trace (regressor
/// the product of all `factors` rows) — Lemma 2's O(|Ω_t| N R).
///
/// `forecast` and `outliers` are resized to nnz and written record-aligned;
/// `sigma` (slice-shaped Σ̂) is updated in place at the observed entries;
/// `grads` is resized to the factors and overwritten, reusing its storage
/// across calls. Each mode row adds its records in ascending linear order;
/// the temporal terms are summed per fixed 4096-record block and the blocks
/// added in order. Runs inline, on no pool; specialized on rank and on
/// order 2, and compiled for scalar and AVX2+FMA (the latter fuses
/// multiply-adds, so the two differ by rounding). Works on bucket-less
/// CooLists.
void CooSofiaStep(const CooList& coo, const DenseTensor& y,
                  const std::vector<Matrix>& factors,
                  const std::vector<double>& u_hat,
                  const SofiaStepRobust& robust, DenseTensor* sigma,
                  std::vector<double>* forecast,
                  std::vector<double>* outliers, StepGradients* grads);

/// OLSTEC's recursive-least-squares sweep over Ω_t (Kasai, ICASSP 2016):
/// for every record in record order, and for each mode n in ascending
/// order, the regressor h = w ⊛ (⊛_{l != n} u^(l)_{i_l}) (multiplied in mode
/// order), the row's inverse covariance P (block i_n of cov[n]), the gain
/// k = P h / (λ_f + hᵀ P h), then u^(n)_{i_n} += k (values[k] - u^(n)_{i_n}
/// · h) and P <- (P - k (P h)ᵀ) / λ_f. Both divisions are taken as
/// multiplications by a reciprocal: one division per mode and record, and
/// one per call. Each mode's update feeds the next mode's regressor and
/// the next record, so the sweep is one serial pass, run inline on no pool.
///
/// `factors` are updated in place; `cov[n]` holds dim(n) R x R blocks,
/// contiguous and row-major (a (dim(n)·R) x R matrix), updated in place.
/// Specialized on rank and on order 2 (other orders take a run-time-order
/// loop with the same arithmetic), and compiled for scalar and AVX2+FMA
/// (the latter fuses multiply-adds, so the two differ by rounding). Works
/// on bucket-less CooLists.
void CooOlstecSweep(const CooList& coo, const std::vector<double>& values,
                    const std::vector<double>& w, double forgetting,
                    std::vector<Matrix>* factors, std::vector<Matrix>* cov);

/// ||values||_2 — e.g. the masked data norm ||Ω ⊛ Y*||_F of the fitness
/// denominator when `values` is a GatherResidual result.
double CooDataNorm(const std::vector<double>& values);

}  // namespace sofia

#endif  // SOFIA_TENSOR_SPARSE_KERNELS_H_
