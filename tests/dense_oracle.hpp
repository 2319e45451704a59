// Dense-scan reference implementations, kept as test oracles for the
// observed-entry (CooList) kernels the library runs. Every routine here
// walks the full index space of a slice in ascending linear order and acts
// on the entries Ω marks observed: a traversal independent of the CooList
// records, so the parity suites compare each kernel against arithmetic it
// does not share. Contents:
//
//  - the division-based CooList build (DivisionCooBuild), the oracle of the
//    branch-free CooList::Build and the carry-based CooList::FromIndices;
//  - SOFIA's dense kernels: the Theorem 1 row systems and fitness norms of
//    the ALS (DenseRowSystems, DenseResidualNorm, DenseDataNorm), and the
//    dynamic update's Algorithm 3 lines 4-8 (DenseStepGradients,
//    DenseSofiaStep, SofiaDenseStep) — the oracles of the fused
//    CooSofiaStep — plus the three-pass CooList gradient kernel that the
//    fused step replaced (CooStepGradients);
//  - the baselines' shared motifs: the temporal-row solve, factor
//    gradients, per-row slice systems and the proximal row update, plus the
//    scalar record-order temporal system that CooNormalSystem replaced
//    (RecordOrderNormalSystem);
//  - a dense reference of each of the six streaming baselines built on
//    ObservedSweep (MakeDenseBaseline), which tests/baseline_parity_test.cc
//    steps in lockstep with the library method;
//  - the dense eval protocol the lazy one replaced: every estimate
//    materialized and scored over the full volume (RunDenseImputation,
//    RunDenseForecast), and a Materializing decorator that densifies each
//    estimate before the library's own protocols score it.
//
// Header-only: every test binary compiles exactly one tests/*_test.cc.

#ifndef SOFIA_TESTS_DENSE_ORACLE_H_
#define SOFIA_TESTS_DENSE_ORACLE_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "baselines/brst.hpp"
#include "baselines/common.hpp"
#include "baselines/mast.hpp"
#include "baselines/olstec.hpp"
#include "baselines/online_sgd.hpp"
#include "baselines/or_mstc.hpp"
#include "baselines/smf.hpp"
#include "core/sofia_als.hpp"
#include "core/sofia_model.hpp"
#include "data/corruption.hpp"
#include "eval/metrics.hpp"
#include "eval/stream_runner.hpp"
#include "eval/streaming_method.hpp"
#include "linalg/matrix.hpp"
#include "linalg/solve.hpp"
#include "linalg/vector_ops.hpp"
#include "tensor/dense_tensor.hpp"
#include "tensor/kruskal.hpp"
#include "tensor/mask.hpp"
#include "tensor/sparse_kernels.hpp"
#include "timeseries/robust.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace sofia {
namespace dense_oracle {

// --- CooList construction ---------------------------------------------------

/// A CooList's contents as plain vectors: linear indices, record-major
/// coordinates, and (when built) each mode's bucket permutation and offsets.
struct CooRecords {
  std::vector<size_t> linear;
  std::vector<uint32_t> coords;
  std::vector<std::vector<uint32_t>> mode_order;
  std::vector<std::vector<size_t>> slice_ptr;
};

/// The division-based CooList::Build the branch-free one replaced: a
/// bytewise scan of the mask, each record's coordinates by stride division,
/// and every mode's bucket by a stable counting sort (the slowest mode's
/// included).
inline CooRecords DivisionCooBuild(const Mask& omega, bool with_mode_buckets) {
  const Shape& shape = omega.shape();
  const size_t order = shape.order();
  CooRecords out;
  for (size_t linear = 0; linear < shape.NumElements(); ++linear) {
    if (omega.Get(linear)) out.linear.push_back(linear);
  }
  const size_t nnz = out.linear.size();
  out.coords.resize(nnz * order);
  for (size_t k = 0; k < nnz; ++k) {
    size_t rest = out.linear[k];
    for (size_t n = order; n-- > 0;) {
      const size_t i = rest / shape.stride(n);
      rest -= i * shape.stride(n);
      out.coords[k * order + n] = static_cast<uint32_t>(i);
    }
  }
  if (!with_mode_buckets) return out;
  out.mode_order.resize(order);
  out.slice_ptr.resize(order);
  for (size_t n = 0; n < order; ++n) {
    std::vector<size_t>& ptr = out.slice_ptr[n];
    ptr.assign(shape.dim(n) + 1, 0);
    for (size_t k = 0; k < nnz; ++k) ++ptr[out.coords[k * order + n] + 1];
    for (size_t s = 0; s < shape.dim(n); ++s) ptr[s + 1] += ptr[s];
    std::vector<size_t> fill(ptr.begin(), ptr.end() - 1);
    out.mode_order[n].resize(nnz);
    for (size_t k = 0; k < nnz; ++k) {
      out.mode_order[n][fill[out.coords[k * order + n]]++] =
          static_cast<uint32_t>(k);
    }
  }
  return out;
}

// --- SOFIA kernels ----------------------------------------------------------

/// Theorem 1 row systems of `mode` (B[i] = Σ h h^T, c[i] = Σ (y - o) h),
/// accumulated on the upper triangle and mirrored, like CooRowSystems.
inline RowSystems DenseRowSystems(const DenseTensor& y, const Mask& omega,
                                  const DenseTensor& o,
                                  const std::vector<Matrix>& factors,
                                  size_t mode) {
  SOFIA_CHECK(y.shape() == omega.shape());
  SOFIA_CHECK(y.shape() == o.shape());
  const Shape& shape = y.shape();
  const size_t rank = factors[0].cols();
  const size_t rows = shape.dim(mode);

  RowSystems sys;
  sys.b.assign(rows, Matrix(rank, rank));
  sys.c.assign(rows, std::vector<double>(rank, 0.0));

  std::vector<size_t> idx(shape.order(), 0);
  std::vector<double> h(rank);
  for (size_t linear = 0; linear < shape.NumElements(); ++linear) {
    if (omega.Get(linear)) {
      for (size_t r = 0; r < rank; ++r) h[r] = 1.0;
      for (size_t l = 0; l < factors.size(); ++l) {
        if (l == mode) continue;
        const double* row = factors[l].Row(idx[l]);
        for (size_t r = 0; r < rank; ++r) h[r] *= row[r];
      }
      const double ystar = y[linear] - o[linear];
      Matrix& b = sys.b[idx[mode]];
      std::vector<double>& c = sys.c[idx[mode]];
      for (size_t r = 0; r < rank; ++r) {
        const double hr = h[r];
        c[r] += ystar * hr;
        double* brow = b.Row(r);
        for (size_t q = r; q < rank; ++q) brow[q] += hr * h[q];
      }
    }
    shape.Next(&idx);
  }
  for (size_t i = 0; i < rows; ++i) {
    Matrix& b = sys.b[i];
    for (size_t r = 0; r < rank; ++r) {
      for (size_t q = r + 1; q < rank; ++q) b(q, r) = b(r, q);
    }
  }
  return sys;
}

/// ||Ω ⊛ (Y - O - [[factors]])||_F.
inline double DenseResidualNorm(const DenseTensor& y, const Mask& omega,
                                const DenseTensor& o,
                                const std::vector<Matrix>& factors) {
  const Shape& shape = y.shape();
  std::vector<size_t> idx(shape.order(), 0);
  double s = 0.0;
  for (size_t linear = 0; linear < shape.NumElements(); ++linear) {
    if (omega.Get(linear)) {
      const double r = (y[linear] - o[linear]) - KruskalEntry(factors, idx);
      s += r * r;
    }
    shape.Next(&idx);
  }
  return std::sqrt(s);
}

/// ||Ω ⊛ (Y - O)||_F.
inline double DenseDataNorm(const DenseTensor& y, const Mask& omega,
                            const DenseTensor& o) {
  double s = 0.0;
  for (size_t linear = 0; linear < y.NumElements(); ++linear) {
    if (omega.Get(linear)) {
      const double v = y[linear] - o[linear];
      s += v * v;
    }
  }
  return std::sqrt(s);
}

/// Reference for CooSofiaStep's gradients: one pass over the full index
/// space with prefix/suffix leave-one-out products, on the residual
/// Ω ⊛ (Y - O - Ŷ).
inline StepGradients DenseStepGradients(
    const DenseTensor& y, const Mask& omega, const DenseTensor& outliers,
    const DenseTensor& forecast, const std::vector<Matrix>& factors,
    const std::vector<double>& temporal_row) {
  SOFIA_CHECK(y.shape() == omega.shape());
  SOFIA_CHECK(y.shape() == outliers.shape());
  SOFIA_CHECK(y.shape() == forecast.shape());
  const size_t num_modes = factors.size();
  const size_t rank = factors.empty() ? 0 : factors[0].cols();
  SOFIA_CHECK_EQ(temporal_row.size(), rank);

  StepGradients g;
  g.row_grads.reserve(num_modes);
  g.row_trace.resize(num_modes);
  for (size_t n = 0; n < num_modes; ++n) {
    g.row_grads.emplace_back(factors[n].rows(), rank, 0.0);
    g.row_trace[n].assign(factors[n].rows(), 0.0);
  }
  g.temporal_grad.assign(rank, 0.0);

  const Shape& shape = y.shape();
  std::vector<size_t> idx(shape.order(), 0);
  std::vector<double> prefix((num_modes + 1) * rank);
  std::vector<double> suffix((num_modes + 1) * rank);
  for (size_t linear = 0; linear < shape.NumElements(); ++linear) {
    if (omega.Get(linear)) {
      const double resid = y[linear] - outliers[linear] - forecast[linear];
      for (size_t r = 0; r < rank; ++r) prefix[r] = 1.0;
      for (size_t l = 0; l < num_modes; ++l) {
        const double* row = factors[l].Row(idx[l]);
        double* cur = &prefix[l * rank];
        double* nxt = &prefix[(l + 1) * rank];
        for (size_t r = 0; r < rank; ++r) nxt[r] = cur[r] * row[r];
      }
      for (size_t r = 0; r < rank; ++r) {
        suffix[num_modes * rank + r] = 1.0;
      }
      for (size_t l = num_modes; l-- > 0;) {
        const double* row = factors[l].Row(idx[l]);
        double* cur = &suffix[(l + 1) * rank];
        double* nxt = &suffix[l * rank];
        for (size_t r = 0; r < rank; ++r) nxt[r] = cur[r] * row[r];
      }
      // Full product (all non-temporal modes) feeds the temporal gradient.
      const double* full = &prefix[num_modes * rank];
      for (size_t r = 0; r < rank; ++r) {
        g.temporal_trace += full[r] * full[r];
        if (resid != 0.0) g.temporal_grad[r] += resid * full[r];
      }
      for (size_t l = 0; l < num_modes; ++l) {
        double* grow = g.row_grads[l].Row(idx[l]);
        double& trace = g.row_trace[l][idx[l]];
        const double* pre = &prefix[l * rank];
        const double* suf = &suffix[(l + 1) * rank];
        for (size_t r = 0; r < rank; ++r) {
          const double reg = pre[r] * suf[r] * temporal_row[r];
          trace += reg * reg;
          if (resid != 0.0) grow[r] += resid * reg;
        }
      }
    }
    shape.Next(&idx);
  }
  return g;
}

/// Temporal gradient + trace of CooStepGradients: fixed-size record blocks,
/// each owning R + 1 partial accumulators, combined in block order.
inline void CooTemporalGradientImpl(const CooList& coo,
                                    const std::vector<double>& residuals,
                                    const std::vector<Matrix>& factors,
                                    size_t rank,
                                    std::vector<double>* temporal_grad,
                                    double* temporal_trace) {
  constexpr size_t kReductionBlock = 4096;
  const size_t num_modes = factors.size();
  const size_t num_blocks = (coo.nnz() + kReductionBlock - 1) / kReductionBlock;
  std::vector<double> partial(num_blocks * (rank + 1), 0.0);
  std::vector<double> full(rank);
  for (size_t block = 0; block < num_blocks; ++block) {
    double* out = partial.data() + block * (rank + 1);
    const size_t begin = block * kReductionBlock;
    const size_t end = std::min(begin + kReductionBlock, coo.nnz());
    for (size_t k = begin; k < end; ++k) {
      const uint32_t* idx = coo.Coords(k);
      std::fill(full.begin(), full.end(), 1.0);
      for (size_t l = 0; l < num_modes; ++l) {
        const double* row = factors[l].Row(idx[l]);
        for (size_t r = 0; r < rank; ++r) full[r] *= row[r];
      }
      const double resid = residuals[k];
      for (size_t r = 0; r < rank; ++r) out[rank] += full[r] * full[r];
      if (resid != 0.0) {
        for (size_t r = 0; r < rank; ++r) out[r] += resid * full[r];
      }
    }
  }
  for (size_t block = 0; block < num_blocks; ++block) {
    const double* out = partial.data() + block * (rank + 1);
    for (size_t r = 0; r < rank; ++r) (*temporal_grad)[r] += out[r];
    *temporal_trace += out[rank];
  }
}

/// The library's step gradients before the fused CooSofiaStep, from
/// record-aligned residuals y - o - f: per-mode gradients and traces from
/// CooModeGradients (one pass per mode through its slice buckets), then the
/// temporal pass. Requires a CooList built with mode buckets.
inline StepGradients CooStepGradients(const CooList& coo,
                                      const std::vector<double>& residuals,
                                      const std::vector<Matrix>& factors,
                                      const std::vector<double>& temporal_row,
                                      WorkerPool* pool = nullptr) {
  const size_t rank = factors.empty() ? 0 : factors[0].cols();
  ModeGradients modes =
      CooModeGradients(coo, residuals, factors, temporal_row, pool);
  StepGradients g;
  g.row_grads = std::move(modes.row_grads);
  g.row_trace = std::move(modes.row_trace);
  g.temporal_grad.assign(rank, 0.0);
  CooTemporalGradientImpl(coo, residuals, factors, rank, &g.temporal_grad,
                          &g.temporal_trace);
  return g;
}

/// What SofiaModel::Step computes before its gradient step (Algorithm 3
/// lines 3-8), as dense slices.
struct SofiaStepReference {
  std::vector<double> u_hat;  ///< Eq. (19) temporal-row forecast.
  DenseTensor forecast;       ///< Ŷ_{t|t-1} (Eq. (20)).
  DenseTensor outliers;       ///< O_t (Eq. (21)), 0 where unobserved.
  DenseTensor error_scale;    ///< Σ̂_t after the Eq. (22) update.
  StepGradients grads;        ///< Eq. (24)/(25) accumulations.
};

/// Dense reference of CooSofiaStep: the forecast from `factors` and
/// `u_hat`, the robust updates of Eqs. (21) and (8) against `sigma` (the
/// error scale before the step) in the order `robust` selects, and the
/// gradients, each as its own scan over the full index space.
inline SofiaStepReference DenseSofiaStep(const DenseTensor& y,
                                         const Mask& omega,
                                         const std::vector<Matrix>& factors,
                                         const std::vector<double>& u_hat,
                                         const DenseTensor& sigma_before,
                                         const SofiaStepRobust& robust) {
  SofiaStepReference ref;
  ref.u_hat = u_hat;
  ref.forecast = KruskalSlice(factors, u_hat);
  ref.error_scale = sigma_before;
  DenseTensor& sigma = ref.error_scale;
  const DenseTensor& forecast = ref.forecast;

  DenseTensor outliers(y.shape(), 0.0);
  auto update_scale = [&]() {
    for (size_t k = 0; k < y.NumElements(); ++k) {
      if (!omega.Get(k)) continue;
      sigma[k] = UpdateErrorScale(y[k], forecast[k], sigma[k], robust.phi,
                                  robust.huber_k, robust.biweight_ck);
    }
  };
  auto reject = [&]() {
    if (!robust.reject_outliers) return;
    for (size_t k = 0; k < y.NumElements(); ++k) {
      if (!omega.Get(k)) continue;
      const double resid = y[k] - forecast[k];
      outliers[k] =
          resid - HuberPsi(resid / sigma[k], robust.huber_k) * sigma[k];
    }
  };
  if (robust.scale_before_reject) {
    update_scale();
    reject();
  } else {
    reject();
    update_scale();
  }
  ref.grads =
      DenseStepGradients(y, omega, outliers, forecast, factors, u_hat);
  ref.outliers = std::move(outliers);
  return ref;
}

/// Computes SofiaStepReference from the model's public state before a Step
/// on (y, omega); `ablation` must be the one the model was built with.
inline SofiaStepReference SofiaDenseStep(const SofiaModel& model,
                                         const DenseTensor& y,
                                         const Mask& omega,
                                         const SofiaAblation& ablation = {}) {
  const SofiaConfig& config = model.config();
  SofiaStepRobust robust;
  robust.phi = config.phi;
  robust.huber_k = config.huber_k;
  robust.biweight_ck = config.biweight_ck;
  robust.reject_outliers = ablation.reject_outliers;
  robust.scale_before_reject = ablation.scale_before_reject;
  return DenseSofiaStep(y, omega, model.nontemporal_factors(),
                        model.ForecastRow(1), model.error_scale(), robust);
}

// --- Baseline motifs --------------------------------------------------------

/// Walks the observed entries of a slice, handing the callback the
/// multi-index, the entry value (minus `subtract`), and the per-rank factor
/// products h_r = ⊛_l u^(l)_{i_l}.
template <typename Fn>
void ForEachObserved(const DenseTensor& y, const Mask& omega,
                     const DenseTensor* subtract,
                     const std::vector<Matrix>& factors, Fn&& fn) {
  const Shape& shape = y.shape();
  const size_t rank = factors[0].cols();
  std::vector<size_t> idx(shape.order(), 0);
  std::vector<double> h(rank);
  for (size_t linear = 0; linear < shape.NumElements(); ++linear) {
    if (omega.Get(linear)) {
      for (size_t r = 0; r < rank; ++r) h[r] = 1.0;
      for (size_t l = 0; l < factors.size(); ++l) {
        const double* row = factors[l].Row(idx[l]);
        for (size_t r = 0; r < rank; ++r) h[r] *= row[r];
      }
      const double value = y[linear] - (subtract ? (*subtract)[linear] : 0.0);
      fn(idx, linear, value, h);
    }
    shape.Next(&idx);
  }
}

/// Solves `min_w ||Ω ⊛ (Y - O - [[factors; w]])||^2 + ridge ||w||^2`.
/// `subtract` may be null (treated as zero).
inline std::vector<double> SolveTemporalRow(const DenseTensor& y,
                                            const Mask& omega,
                                            const DenseTensor* subtract,
                                            const std::vector<Matrix>& factors,
                                            double ridge) {
  const size_t rank = factors[0].cols();
  Matrix b(rank, rank);
  std::vector<double> c(rank, 0.0);
  ForEachObserved(y, omega, subtract, factors,
                  [&](const std::vector<size_t>&, size_t, double value,
                      const std::vector<double>& h) {
                    for (size_t r = 0; r < rank; ++r) {
                      c[r] += value * h[r];
                      double* brow = b.Row(r);
                      for (size_t q = 0; q < rank; ++q) {
                        brow[q] += h[r] * h[q];
                      }
                    }
                  });
  for (size_t r = 0; r < rank; ++r) b(r, r) += ridge;
  return SolveRidge(b, c);
}

/// The scalar CooNormalSystem the lane accumulator replaced: per record,
/// h = the product of every mode's factor row (ones, then each mode in
/// ascending order), then c[r] += values[k] h[r] and B[r][q] += h[r] h[q]
/// over the full R x R matrix, in record order within fixed 4096-record
/// blocks whose partials are added in block order. Every product rounds
/// before its add, even in builds that contract multiply-adds (-mfma), as in
/// CooNormalSystem's scalar instantiation, which must equal it bit for bit.
inline NormalSystem RecordOrderNormalSystem(
    const CooList& coo, const std::vector<double>& values,
    const std::vector<Matrix>& factors) {
  constexpr size_t kBlock = 4096;
  const size_t rank = factors.empty() ? 0 : factors[0].cols();
  NormalSystem sys;
  sys.b = Matrix(rank, rank);
  sys.c.assign(rank, 0.0);
  std::vector<double> h(rank);
  for (size_t begin = 0; begin < coo.nnz(); begin += kBlock) {
    Matrix b(rank, rank);
    std::vector<double> c(rank, 0.0);
    for (size_t k = begin; k < std::min(begin + kBlock, coo.nnz()); ++k) {
      const uint32_t* idx = coo.Coords(k);
      std::fill(h.begin(), h.end(), 1.0);
      for (size_t l = 0; l < factors.size(); ++l) {
        const double* row = factors[l].Row(idx[l]);
        for (size_t r = 0; r < rank; ++r) h[r] *= row[r];
      }
      for (size_t r = 0; r < rank; ++r) {
        volatile double term = values[k] * h[r];  // Rounded: no FMA.
        c[r] += term;
        for (size_t q = 0; q < rank; ++q) {
          volatile double product = h[r] * h[q];
          b(r, q) += product;
        }
      }
    }
    for (size_t r = 0; r < rank; ++r) {
      sys.c[r] += c[r];
      for (size_t q = 0; q < rank; ++q) sys.b(r, q) += b(r, q);
    }
  }
  return sys;
}

/// Descent direction (resid * regressor) of
/// `0.5 ||Ω ⊛ (Y - O - [[factors; w]])||^2` w.r.t. each non-temporal
/// factor, all at the current factors. If `row_traces` is non-null it
/// receives, per mode and row, the trace of the instantaneous Gauss-Newton
/// Hessian of that row (sum of squared regressors).
inline std::vector<Matrix> FactorGradients(
    const DenseTensor& y, const Mask& omega, const DenseTensor* subtract,
    const std::vector<Matrix>& factors, const std::vector<double>& w,
    std::vector<std::vector<double>>* row_traces = nullptr) {
  const Shape& shape = y.shape();
  const size_t rank = factors[0].cols();
  const size_t num_modes = factors.size();
  std::vector<Matrix> grads;
  grads.reserve(num_modes);
  for (const Matrix& f : factors) grads.emplace_back(f.rows(), rank, 0.0);
  if (row_traces != nullptr) {
    row_traces->assign(num_modes, {});
    for (size_t l = 0; l < num_modes; ++l) {
      (*row_traces)[l].assign(factors[l].rows(), 0.0);
    }
  }

  std::vector<size_t> idx(shape.order(), 0);
  std::vector<double> prefix((num_modes + 1) * rank);
  std::vector<double> suffix((num_modes + 1) * rank);
  for (size_t linear = 0; linear < shape.NumElements(); ++linear) {
    if (omega.Get(linear)) {
      for (size_t r = 0; r < rank; ++r) prefix[r] = 1.0;
      for (size_t l = 0; l < num_modes; ++l) {
        const double* row = factors[l].Row(idx[l]);
        const double* cur = &prefix[l * rank];
        double* nxt = &prefix[(l + 1) * rank];
        for (size_t r = 0; r < rank; ++r) nxt[r] = cur[r] * row[r];
      }
      for (size_t r = 0; r < rank; ++r) suffix[num_modes * rank + r] = 1.0;
      for (size_t l = num_modes; l-- > 0;) {
        const double* row = factors[l].Row(idx[l]);
        const double* cur = &suffix[(l + 1) * rank];
        double* nxt = &suffix[l * rank];
        for (size_t r = 0; r < rank; ++r) nxt[r] = cur[r] * row[r];
      }
      // Residual of this entry at the current state.
      double recon = 0.0;
      const double* full = &prefix[num_modes * rank];
      for (size_t r = 0; r < rank; ++r) recon += full[r] * w[r];
      const double value = y[linear] - (subtract ? (*subtract)[linear] : 0.0);
      const double resid = value - recon;
      for (size_t l = 0; l < num_modes; ++l) {
        double* grow = grads[l].Row(idx[l]);
        double* trace =
            row_traces ? &(*row_traces)[l][idx[l]] : nullptr;
        const double* pre = &prefix[l * rank];
        const double* suf = &suffix[(l + 1) * rank];
        for (size_t r = 0; r < rank; ++r) {
          const double reg = pre[r] * suf[r] * w[r];
          if (trace != nullptr) *trace += reg * reg;
          if (resid != 0.0) grow[r] += resid * reg;
        }
      }
    }
    shape.Next(&idx);
  }
  return grads;
}

/// Per-row normal equations of a slice: for each row i of mode `mode`,
/// B_i = Σ h h^T and c_i = Σ (y - o) h over observed entries with that row
/// index, where h = w ⊛ (⊛_{l != mode} u^(l)_{i_l}).
struct SliceRowSystems {
  std::vector<Matrix> b;
  std::vector<std::vector<double>> c;
};
inline SliceRowSystems BuildSliceRowSystems(const DenseTensor& y,
                                            const Mask& omega,
                                            const DenseTensor* subtract,
                                            const std::vector<Matrix>& factors,
                                            const std::vector<double>& w,
                                            size_t mode) {
  const size_t rank = factors[0].cols();
  SliceRowSystems sys;
  sys.b.assign(factors[mode].rows(), Matrix(rank, rank));
  sys.c.assign(factors[mode].rows(), std::vector<double>(rank, 0.0));
  std::vector<double> h(rank);
  ForEachObserved(
      y, omega, subtract, factors,
      [&](const std::vector<size_t>& idx, size_t, double value,
          const std::vector<double>&) {
        // Leave-one-out regressor seeded with w and multiplied through in
        // mode order, the accumulation order of CooWeightedRowSystems.
        for (size_t r = 0; r < rank; ++r) h[r] = w[r];
        for (size_t l = 0; l < factors.size(); ++l) {
          if (l == mode) continue;
          const double* row = factors[l].Row(idx[l]);
          for (size_t r = 0; r < rank; ++r) h[r] *= row[r];
        }
        Matrix& b = sys.b[idx[mode]];
        std::vector<double>& c = sys.c[idx[mode]];
        for (size_t r = 0; r < rank; ++r) {
          c[r] += value * h[r];
          double* brow = b.Row(r);
          for (size_t q = 0; q < rank; ++q) brow[q] += h[r] * h[q];
        }
      });
  return sys;
}

/// Closed-form proximal row updates of MAST / OR-MSTC:
/// u_i <- (B_i + μI)^{-1} (c_i + μ u_i^prev) for every row of `u`, through
/// the library's ProximalRowSolve. Accepts any systems type with aligned
/// `b` / `c` vectors (SliceRowSystems, RowSystems).
template <typename Systems>
void ApplyProximalRowUpdates(const Systems& sys, const Matrix& previous,
                             double mu, Matrix* u) {
  const size_t rank = u->cols();
  std::vector<double> a(rank * rank);
  std::vector<double> rhs(rank);
  for (size_t i = 0; i < u->rows(); ++i) {
    ProximalRowSolve(sys.b[i].data(), sys.c[i].data(), previous.Row(i), mu,
                     rank, a.data(), rhs.data(), u->Row(i));
  }
}

// --- Dense references of the six ObservedSweep baselines ---------------------
//
// Each class takes the library method's options and seed, starts from the
// same random factors, and steps with the dense scans above; StepLazy
// returns the estimate the library method returns.

class DenseOnlineSgd : public StreamingMethod {
 public:
  explicit DenseOnlineSgd(OnlineSgdOptions options) : options_(options) {}
  std::string name() const override { return "OnlineSGD (dense)"; }

  StepResult StepLazy(const DenseTensor& y, const Mask& omega,
                      std::shared_ptr<const CooList> = nullptr) override {
    if (factors_.empty()) {
      factors_ = RandomNontemporalFactors(y.shape(), options_.rank,
                                          options_.seed);
    }
    std::vector<double> w =
        SolveTemporalRow(y, omega, nullptr, factors_, options_.ridge);
    std::vector<std::vector<double>> traces;
    std::vector<Matrix> grads =
        FactorGradients(y, omega, nullptr, factors_, w, &traces);
    for (size_t l = 0; l < factors_.size(); ++l) {
      for (size_t i = 0; i < factors_[l].rows(); ++i) {
        const double trace = traces[l][i];
        const double mu =
            trace > 0.0 ? std::min(options_.learning_rate, 0.5 / trace)
                        : options_.learning_rate;
        double* row = factors_[l].Row(i);
        const double* grow = grads[l].Row(i);
        for (size_t r = 0; r < options_.rank; ++r) {
          row[r] += 2.0 * mu * grow[r];
        }
      }
    }
    return StepResult::Kruskal(factors_, std::move(w));
  }

 private:
  OnlineSgdOptions options_;
  std::vector<Matrix> factors_;
};

class DenseOlstec : public StreamingMethod {
 public:
  explicit DenseOlstec(OlstecOptions options) : options_(options) {}
  std::string name() const override { return "OLSTEC (dense)"; }

  StepResult StepLazy(const DenseTensor& y, const Mask& omega,
                      std::shared_ptr<const CooList> = nullptr) override {
    const size_t rank = options_.rank;
    if (factors_.empty()) {
      factors_ = RandomNontemporalFactors(y.shape(), rank, options_.seed);
      cov_.resize(factors_.size());
      for (size_t l = 0; l < factors_.size(); ++l) {
        cov_[l].assign(factors_[l].rows(),
                       Matrix::Identity(rank) * options_.delta);
      }
    }
    std::vector<double> w =
        SolveTemporalRow(y, omega, nullptr, factors_, options_.ridge);
    const Shape& shape = y.shape();
    std::vector<size_t> idx(shape.order(), 0);
    std::vector<double> h(rank), ph(rank);
    for (size_t linear = 0; linear < shape.NumElements(); ++linear) {
      if (omega.Get(linear)) RlsUpdate(idx, y[linear], w, &h, &ph);
      shape.Next(&idx);
    }
    // Re-solve the temporal row against the refreshed factors.
    w = SolveTemporalRow(y, omega, nullptr, factors_, options_.ridge);
    return StepResult::Kruskal(factors_, std::move(w));
  }

 private:
  /// Olstec's entry-wise RLS update of every mode's factor row, dividing
  /// by the gain's denominator and by λ_f through their reciprocals, as
  /// CooOlstecSweep does.
  void RlsUpdate(const std::vector<size_t>& idx, double value,
                 const std::vector<double>& w, std::vector<double>* h_buf,
                 std::vector<double>* ph_buf) {
    const size_t rank = options_.rank;
    const double lambda_f = options_.forgetting;
    const double inv_lambda = 1.0 / lambda_f;
    std::vector<double>& h = *h_buf;
    std::vector<double>& ph = *ph_buf;
    for (size_t mode = 0; mode < factors_.size(); ++mode) {
      for (size_t r = 0; r < rank; ++r) {
        double p = w[r];
        for (size_t l = 0; l < factors_.size(); ++l) {
          if (l != mode) p *= factors_[l](idx[l], r);
        }
        h[r] = p;
      }
      Matrix& p_mat = cov_[mode][idx[mode]];
      for (size_t r = 0; r < rank; ++r) {
        const double* prow = p_mat.Row(r);
        double s = 0.0;
        for (size_t q = 0; q < rank; ++q) s += prow[q] * h[q];
        ph[r] = s;
      }
      const double inv_denom = 1.0 / (lambda_f + Dot(h, ph));
      double* urow = factors_[mode].Row(idx[mode]);
      double pred = 0.0;
      for (size_t r = 0; r < rank; ++r) pred += urow[r] * h[r];
      const double err = value - pred;
      for (size_t r = 0; r < rank; ++r) {
        const double gain = ph[r] * inv_denom;
        urow[r] += gain * err;
        double* prow = p_mat.Row(r);
        for (size_t q = 0; q < rank; ++q) {
          prow[q] = (prow[q] - gain * ph[q]) * inv_lambda;
        }
      }
    }
  }

  OlstecOptions options_;
  std::vector<Matrix> factors_;
  std::vector<std::vector<Matrix>> cov_;
};

class DenseMast : public StreamingMethod {
 public:
  explicit DenseMast(MastOptions options) : options_(options) {}
  std::string name() const override { return "MAST (dense)"; }

  StepResult StepLazy(const DenseTensor& y, const Mask& omega,
                      std::shared_ptr<const CooList> = nullptr) override {
    if (factors_.empty()) {
      factors_ = RandomNontemporalFactors(y.shape(), options_.rank,
                                          options_.seed);
    }
    const double mu = options_.prox_weight;
    const std::vector<Matrix> previous = factors_;
    std::vector<double> w(options_.rank, 0.0);
    for (int iter = 0; iter < options_.inner_iterations; ++iter) {
      w = SolveTemporalRow(y, omega, nullptr, factors_, options_.ridge);
      for (size_t mode = 0; mode < factors_.size(); ++mode) {
        SliceRowSystems sys =
            BuildSliceRowSystems(y, omega, nullptr, factors_, w, mode);
        ApplyProximalRowUpdates(sys, previous[mode], mu, &factors_[mode]);
      }
    }
    w = SolveTemporalRow(y, omega, nullptr, factors_, options_.ridge);
    return StepResult::Kruskal(factors_, std::move(w));
  }

 private:
  MastOptions options_;
  std::vector<Matrix> factors_;
};

class DenseOrMstc : public StreamingMethod {
 public:
  explicit DenseOrMstc(OrMstcOptions options) : options_(options) {}
  std::string name() const override { return "OR-MSTC (dense)"; }

  StepResult StepLazy(const DenseTensor& y, const Mask& omega,
                      std::shared_ptr<const CooList> = nullptr) override {
    if (factors_.empty()) {
      factors_ = RandomNontemporalFactors(y.shape(), options_.rank,
                                          options_.seed);
    }
    const double mu = options_.prox_weight;
    const std::vector<Matrix> previous = factors_;
    DenseTensor outliers(y.shape(), 0.0);
    std::vector<double> w(options_.rank, 0.0);
    for (int iter = 0; iter < options_.inner_iterations; ++iter) {
      w = SolveTemporalRow(y, omega, &outliers, factors_, options_.ridge);
      for (size_t mode = 0; mode < factors_.size(); ++mode) {
        SliceRowSystems sys =
            BuildSliceRowSystems(y, omega, &outliers, factors_, w, mode);
        ApplyProximalRowUpdates(sys, previous[mode], mu, &factors_[mode]);
      }
      // Sparse slab: soft-threshold the observed residual.
      DenseTensor recon = KruskalSlice(factors_, w);
      for (size_t k = 0; k < y.NumElements(); ++k) {
        outliers[k] = omega.Get(k) ? SoftThreshold(y[k] - recon[k],
                                                   options_.outlier_lambda)
                                   : 0.0;
      }
    }
    w = SolveTemporalRow(y, omega, &outliers, factors_, options_.ridge);
    return StepResult::Kruskal(factors_, std::move(w));
  }

 private:
  OrMstcOptions options_;
  std::vector<Matrix> factors_;
};

class DenseBrst : public StreamingMethod {
 public:
  explicit DenseBrst(BrstOptions options) : options_(options) {}
  std::string name() const override { return "BRST (dense)"; }

  StepResult StepLazy(const DenseTensor& y, const Mask& omega,
                      std::shared_ptr<const CooList> = nullptr) override {
    const size_t rank = options_.rank;
    if (factors_.empty()) {
      factors_ = RandomNontemporalFactors(y.shape(), rank, options_.seed);
      ard_precision_.assign(rank, 1.0);
    }
    const double nu = options_.student_nu;

    // Temporal row with ARD-weighted ridge.
    const Shape& shape = y.shape();
    Matrix b(rank, rank);
    std::vector<double> c(rank, 0.0);
    std::vector<size_t> idx(shape.order(), 0);
    std::vector<double> h(rank);
    for (size_t linear = 0; linear < shape.NumElements(); ++linear) {
      if (omega.Get(linear)) {
        for (size_t r = 0; r < rank; ++r) {
          double p = 1.0;
          for (size_t l = 0; l < factors_.size(); ++l) {
            p *= factors_[l](idx[l], r);
          }
          h[r] = p;
        }
        for (size_t r = 0; r < rank; ++r) {
          c[r] += y[linear] * h[r];
          double* brow = b.Row(r);
          for (size_t q = 0; q < rank; ++q) brow[q] += h[r] * h[q];
        }
      }
      shape.Next(&idx);
    }
    for (size_t r = 0; r < rank; ++r) {
      b(r, r) += options_.ridge + noise_var_ * ard_precision_[r];
    }
    std::vector<double> w = SolveRidge(b, c);

    // Student-t responsibility gating: heavy residuals get weight ~ nu/r².
    std::vector<Matrix> grads;
    grads.reserve(factors_.size());
    for (const Matrix& f : factors_) grads.emplace_back(f.rows(), rank, 0.0);
    double weighted_sq = 0.0, weight_sum = 0.0;
    idx.assign(shape.order(), 0);
    for (size_t linear = 0; linear < shape.NumElements(); ++linear) {
      if (omega.Get(linear)) {
        double recon = 0.0;
        for (size_t r = 0; r < rank; ++r) {
          double p = w[r];
          for (size_t l = 0; l < factors_.size(); ++l) {
            p *= factors_[l](idx[l], r);
          }
          h[r] = p;
          recon += p;
        }
        const double resid = y[linear] - recon;
        const double gate =
            (nu + 1.0) / (nu + resid * resid / std::max(noise_var_, 1e-12));
        weighted_sq += gate * resid * resid;
        weight_sum += gate;
        const double g = gate * resid;
        for (size_t l = 0; l < factors_.size(); ++l) {
          double* grow = grads[l].Row(idx[l]);
          for (size_t r = 0; r < rank; ++r) {
            // Leave-one-out product seeded with w, multiplied through in
            // mode order (CooModeGradients' accumulation).
            double loo = w[r];
            for (size_t l2 = 0; l2 < factors_.size(); ++l2) {
              if (l2 != l) loo *= factors_[l2](idx[l2], r);
            }
            grow[r] += g * loo;
          }
        }
      }
      shape.Next(&idx);
    }

    // MAP gradient step with the ARD decay, noise smoothing, ARD update.
    for (size_t l = 0; l < factors_.size(); ++l) {
      grads[l] *= 2.0 * options_.learning_rate;
      factors_[l] += grads[l];
      for (size_t r = 0; r < rank; ++r) {
        const double decay = std::max(
            0.1, 1.0 - options_.learning_rate * noise_var_ *
                           ard_precision_[r] /
                           static_cast<double>(factors_[l].rows()));
        for (size_t i = 0; i < factors_[l].rows(); ++i) {
          factors_[l](i, r) *= decay;
        }
      }
    }
    if (weight_sum > 0.0) {
      noise_var_ = 0.9 * noise_var_ + 0.1 * (weighted_sq / weight_sum);
    }
    for (size_t r = 0; r < rank; ++r) {
      double energy = w[r] * w[r];
      size_t count = 1;
      for (const Matrix& f : factors_) {
        energy += f.ColNorm(r) * f.ColNorm(r);
        count += f.rows();
      }
      ard_precision_[r] = options_.ard_strength *
                          static_cast<double>(count) /
                          std::max(energy, 1e-12);
    }
    // Zero out the temporal weight of pruned columns.
    for (size_t r = 0; r < rank; ++r) {
      double energy = 0.0;
      for (const Matrix& f : factors_) energy += f.ColNorm(r) * f.ColNorm(r);
      if (energy < options_.prune_threshold) w[r] = 0.0;
    }
    return StepResult::Kruskal(factors_, std::move(w));
  }

 private:
  BrstOptions options_;
  std::vector<Matrix> factors_;
  std::vector<double> ard_precision_;
  double noise_var_ = 1.0;
};

class DenseSmf : public StreamingMethod {
 public:
  explicit DenseSmf(SmfOptions options) : options_(options) {}
  std::string name() const override { return "SMF (dense)"; }

  StepResult StepLazy(const DenseTensor& y, const Mask& omega,
                      std::shared_ptr<const CooList> = nullptr) override {
    const size_t rank = options_.rank;
    const size_t m = options_.period;
    if (loadings_ == nullptr) {
      Rng rng(options_.seed);
      loadings_ = std::make_shared<Matrix>(
          Matrix::Random(y.NumElements(), rank, rng, 0.0, 1.0));
      level_.assign(rank, 0.0);
      trend_.assign(rank, 0.0);
      season_.assign(m, std::vector<double>(rank, 0.0));
    } else {
      loadings_ = std::make_shared<Matrix>(*loadings_);
    }
    Matrix& loadings = *loadings_;

    // Latent weights: ridge LS of the observed entries against A's rows.
    Matrix b(rank, rank);
    std::vector<double> c(rank, 0.0);
    for (size_t k = 0; k < y.NumElements(); ++k) {
      if (!omega.Get(k)) continue;
      const double* arow = loadings.Row(k);
      for (size_t r = 0; r < rank; ++r) {
        c[r] += y[k] * arow[r];
        double* brow = b.Row(r);
        for (size_t q = 0; q < rank; ++q) brow[q] += arow[r] * arow[q];
      }
    }
    for (size_t r = 0; r < rank; ++r) b(r, r) += options_.ridge;
    std::vector<double> w(rank, 0.0);
    if (steps_seen_ < m) {
      w = SolveRidge(b, c);
    } else {
      double trace = 0.0;
      for (size_t r = 0; r < rank; ++r) {
        w[r] = level_[r] + trend_[r] + season_[season_pos_][r];
        trace += b(r, r);
      }
      const double mu = trace > 0.0
                            ? std::min(options_.learning_rate, 0.5 / trace)
                            : options_.learning_rate;
      std::vector<double> bw = MatVec(b, w);
      for (size_t r = 0; r < rank; ++r) {
        w[r] += 2.0 * mu * (c[r] - bw[r]);
      }
    }

    // Capped SGD drift of the loadings toward the residual.
    double w_energy = 0.0;
    for (size_t r = 0; r < rank; ++r) w_energy += w[r] * w[r];
    const double mu = w_energy > 0.0
                          ? std::min(options_.learning_rate, 0.5 / w_energy)
                          : options_.learning_rate;
    for (size_t k = 0; k < y.NumElements(); ++k) {
      if (!omega.Get(k)) continue;
      double* arow = loadings.Row(k);
      double recon = 0.0;
      for (size_t r = 0; r < rank; ++r) recon += arow[r] * w[r];
      const double resid = y[k] - recon;
      for (size_t r = 0; r < rank; ++r) {
        arow[r] += 2.0 * mu * resid * w[r];
      }
    }

    // Level/trend/seasonal update of the latent weights.
    for (size_t r = 0; r < rank; ++r) {
      const double s_old = season_[season_pos_][r];
      const double l_prev = level_[r];
      const double b_prev = trend_[r];
      double l_new, s_new;
      if (steps_seen_ < m) {
        l_new = steps_seen_ == 0 ? w[r]
                                 : options_.level_alpha * w[r] +
                                       (1.0 - options_.level_alpha) *
                                           (l_prev + b_prev);
        s_new = w[r] - l_new;
      } else {
        l_new = options_.level_alpha * (w[r] - s_old) +
                (1.0 - options_.level_alpha) * (l_prev + b_prev);
        s_new = options_.season_gamma * (w[r] - l_prev - b_prev) +
                (1.0 - options_.season_gamma) * s_old;
      }
      trend_[r] = steps_seen_ == 0
                      ? 0.0
                      : options_.trend_beta * (l_new - l_prev) +
                            (1.0 - options_.trend_beta) * b_prev;
      level_[r] = l_new;
      season_[season_pos_][r] = s_new;
    }
    season_pos_ = (season_pos_ + 1) % m;
    ++steps_seen_;
    return StepResult::LinearMap(loadings_, std::move(w), y.shape());
  }

 private:
  SmfOptions options_;
  std::shared_ptr<Matrix> loadings_;
  std::vector<double> level_, trend_;
  std::vector<std::vector<double>> season_;
  size_t season_pos_ = 0;
  size_t steps_seen_ = 0;
};

// --- The dense eval protocol -------------------------------------------------
//
// The library scores every estimate lazily, by gathering it at the entries
// it scores. These protocols materialize every estimate instead and score it
// with NormalizedResidualError over the full volume: with
// max_eval_entries = 0 the library's scores equal theirs up to summation
// order.

/// Imputation protocol, dense: run `method` over the stream, compare each
/// materialized imputed slice against the truth over the full volume. The
/// init window (if any) is scored from Initialize()'s completions. Fills
/// nre, rae and rae_post_init.
inline StreamRunResult RunDenseImputation(
    StreamingMethod* method, const CorruptedStream& stream,
    const std::vector<DenseTensor>& truth) {
  SOFIA_CHECK_EQ(stream.slices.size(), truth.size());
  const size_t total = truth.size();
  const size_t window = method->init_window();
  SOFIA_CHECK_LE(window, total);

  StreamRunResult result;
  if (window > 0) {
    std::vector<DenseTensor> init_slices(stream.slices.begin(),
                                         stream.slices.begin() + window);
    std::vector<Mask> init_masks(stream.masks.begin(),
                                 stream.masks.begin() + window);
    std::vector<DenseTensor> completed =
        method->Initialize(init_slices, init_masks);
    SOFIA_CHECK_EQ(completed.size(), window);
    for (size_t t = 0; t < window; ++t) {
      result.nre.push_back(NormalizedResidualError(completed[t], truth[t]));
    }
  }
  for (size_t t = window; t < total; ++t) {
    DenseTensor imputed = method->Step(stream.slices[t], stream.masks[t]);
    result.nre.push_back(NormalizedResidualError(imputed, truth[t]));
  }
  result.rae = Mean(result.nre);
  result.rae_post_init = Mean(std::vector<double>(
      result.nre.begin() + static_cast<long>(window), result.nre.end()));
  return result;
}

/// Forecasting protocol, dense: feed all but the last `horizon` slices,
/// then return the mean full-volume NRE of the materialized forecasts
/// h = 1..horizon against the held-out truth.
inline double RunDenseForecast(StreamingMethod* method,
                               const CorruptedStream& stream,
                               const std::vector<DenseTensor>& truth,
                               size_t horizon) {
  SOFIA_CHECK_EQ(stream.slices.size(), truth.size());
  SOFIA_CHECK_GE(horizon, 1u);
  SOFIA_CHECK_LT(horizon, truth.size());
  const size_t train = truth.size() - horizon;
  const size_t window = method->init_window();
  SOFIA_CHECK_LE(window, train);
  if (window > 0) {
    std::vector<DenseTensor> init_slices(stream.slices.begin(),
                                         stream.slices.begin() + window);
    std::vector<Mask> init_masks(stream.masks.begin(),
                                 stream.masks.begin() + window);
    method->Initialize(init_slices, init_masks);
  }
  for (size_t t = window; t < train; ++t) {
    method->Observe(stream.slices[t], stream.masks[t]);
  }
  double sum = 0.0;
  for (size_t h = 1; h <= horizon; ++h) {
    sum += NormalizedResidualError(method->Forecast(h), truth[train + h - 1]);
  }
  return sum / static_cast<double>(horizon);
}

/// Pass-through decorator whose estimates and forecasts are the inner
/// method's materialized ones, as dense StepResults. Driven through
/// RunImputationComparison or RunForecast it scores the same entries as
/// the inner method run directly, read from dense tensors instead of lazy
/// handles.
class Materializing : public StreamingMethod {
 public:
  explicit Materializing(std::unique_ptr<StreamingMethod> inner)
      : inner_(std::move(inner)) {}

  std::string name() const override { return inner_->name(); }
  size_t init_window() const override { return inner_->init_window(); }
  std::vector<DenseTensor> Initialize(
      const std::vector<DenseTensor>& slices,
      const std::vector<Mask>& masks) override {
    return inner_->Initialize(slices, masks);
  }
  StepResult StepLazy(const DenseTensor& y, const Mask& omega,
                      std::shared_ptr<const CooList> pattern) override {
    return StepResult::Dense(inner_->Step(y, omega, std::move(pattern)));
  }
  void Observe(const DenseTensor& y, const Mask& omega) override {
    inner_->Observe(y, omega);
  }
  bool SupportsForecast() const override {
    return inner_->SupportsForecast();
  }
  StepResult ForecastLazy(size_t h) const override {
    return StepResult::Dense(inner_->Forecast(h));
  }
  void AdoptWorkerPool(std::shared_ptr<WorkerPool> pool) override {
    inner_->AdoptWorkerPool(std::move(pool));
  }

 private:
  std::unique_ptr<StreamingMethod> inner_;
};

}  // namespace dense_oracle
}  // namespace sofia

#endif  // SOFIA_TESTS_DENSE_ORACLE_H_
