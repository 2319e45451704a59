#include "tensor/sparse_kernels.hpp"
#include "obs/kernel_stats.hpp"

#include <algorithm>
#include <cmath>

#include "linalg/solve.hpp"
#include "tensor/kernel_dispatch.hpp"
#include "tensor/simd.hpp"
#include "util/check.hpp"
#include "util/parallel.hpp"

namespace sofia {

namespace {

using kernel::DispatchRank;
using kernel::FactorView;
using kernel::MakeViews;
using kernel::RankBuffer;
using kernel::RankSquareBuffer;
using kernel::ReduceScratch;
using kernel::kReductionBlock;

void CheckFactors(const CooList& coo, const std::vector<Matrix>& factors,
                  size_t rank) {
  SOFIA_CHECK_EQ(factors.size(), coo.order());
  for (size_t n = 0; n < factors.size(); ++n) {
    SOFIA_CHECK_EQ(factors[n].rows(), coo.shape().dim(n));
    SOFIA_CHECK_EQ(factors[n].cols(), rank);
  }
}

template <size_t kR>
void CooMttkrpImpl(const CooList& coo, const std::vector<double>& values,
                   const std::vector<FactorView>& views, size_t mode,
                   WorkerPool* pool, size_t rank,
                   Matrix* out) {
  const std::vector<uint32_t>& order = coo.ModeOrder(mode);
  const std::vector<size_t>& ptr = coo.SlicePtr(mode);
  const size_t num_modes = views.size();
  // One task per mode slice: each task owns one output row, so no two
  // threads ever write the same accumulator and the per-row order is the
  // bucket order regardless of thread count.
  auto task = [&](size_t slice) {
    const size_t R = kR == 0 ? rank : kR;
    RankBuffer<kR> buf;
    double* SOFIA_RESTRICT h = buf.get(R);
    double* SOFIA_RESTRICT orow = out->Row(slice);
    for (size_t p = ptr[slice]; p < ptr[slice + 1]; ++p) {
      const size_t k = order[p];
      const double v = values[k];
      if (v == 0.0) continue;
      const uint32_t* idx = coo.Coords(k);
      simd::Fill(h, R, v);
      for (size_t l = 0; l < num_modes; ++l) {
        if (l == mode) continue;
        const double* row = views[l].data + idx[l] * views[l].cols;
        simd::MulIn(h, row, R);
      }
      simd::AddIn(orow, h, R);
    }
  };
  RunTasks(pool, out->rows(), simd::Select(task));
}

/// Accumulate one mode slice's normal equations into raw b/c buffers
/// (assumed zeroed by the caller): h = weights ⊛ leave-one-out product
/// (weights == nullptr starts h at 1 — the plain Theorem-1 systems), rank-1
/// updates on the upper triangle, mirrored once at the end. The single
/// source of this arithmetic for both the materialized row-system kernels
/// and the fused proximal updates, so the two stay bitwise aligned.
template <size_t kR>
void AccumulateSliceRowSystem(const CooList& coo,
                              const std::vector<double>& values,
                              const std::vector<FactorView>& views,
                              const double* weights, size_t mode,
                              size_t slice, size_t rank,
                              double* SOFIA_RESTRICT h,
                              double* SOFIA_RESTRICT bdata,
                              double* SOFIA_RESTRICT c) {
  const std::vector<uint32_t>& order = coo.ModeOrder(mode);
  const std::vector<size_t>& ptr = coo.SlicePtr(mode);
  const size_t num_modes = views.size();
  const size_t R = kR == 0 ? rank : kR;
  for (size_t p = ptr[slice]; p < ptr[slice + 1]; ++p) {
    const size_t k = order[p];
    const uint32_t* idx = coo.Coords(k);
    if (weights != nullptr) {
      simd::Copy(h, weights, R);
    } else {
      simd::Fill(h, R, 1.0);
    }
    for (size_t l = 0; l < num_modes; ++l) {
      if (l == mode) continue;
      const double* row = views[l].data + idx[l] * views[l].cols;
      simd::MulIn(h, row, R);
    }
    // c and each triangle row of B are independent accumulators: hoisting
    // the c update out of the row loop changes no sum's order.
    const double ystar = values[k];
    simd::MulAddIn(c, ystar, h, R);
    for (size_t r = 0; r < R; ++r) {
      simd::MulAddIn(bdata + r * R + r, h[r], h + r, R - r);
    }
  }
  for (size_t r = 0; r < R; ++r) {
    for (size_t q = r + 1; q < R; ++q) bdata[q * R + r] = bdata[r * R + q];
  }
}

/// Shared accumulation of CooRowSystems / CooWeightedRowSystems: one task
/// per mode slice (= one output row system), so no two threads ever write
/// the same accumulator.
template <size_t kR>
void CooRowSystemsImpl(const CooList& coo, const std::vector<double>& values,
                       const std::vector<FactorView>& views,
                       const double* weights, size_t mode, WorkerPool* pool,
                       size_t rank, RowSystems* sys) {
  auto task = [&](size_t slice) {
    const size_t R = kR == 0 ? rank : kR;
    RankBuffer<kR> buf;
    AccumulateSliceRowSystem<kR>(coo, values, views, weights, mode, slice,
                                 rank, buf.get(R), sys->b[slice].data(),
                                 sys->c[slice].data());
  };
  RunTasks(pool, sys->b.size(), simd::Select(task));
}

/// Fused row-system accumulation + proximal solve of one mode. Per task
/// (= one mode slice = one output row): accumulate B/c via the shared
/// AccumulateSliceRowSystem, then hand the system to the shared
/// ProximalRowSolve in stack buffers — the same routines the materialized
/// kernels and the dense oracle's proximal updates run, so the fused and
/// materialized paths stay bitwise aligned.
template <size_t kR>
void CooProximalRowUpdatesImpl(const CooList& coo,
                               const std::vector<double>& values,
                               const std::vector<FactorView>& views,
                               const double* weights, size_t mode,
                               const Matrix& previous, double mu,
                               WorkerPool* pool,
                               size_t rank, Matrix* u) {
  auto task = [&](size_t slice) {
    const size_t R = kR == 0 ? rank : kR;
    RankBuffer<kR> hbuf, cbuf, rhsbuf;
    RankSquareBuffer<kR> bbuf, abuf;
    double* b = bbuf.get(R);
    double* c = cbuf.get(R);
    for (size_t e = 0; e < R * R; ++e) b[e] = 0.0;
    for (size_t r = 0; r < R; ++r) c[r] = 0.0;
    AccumulateSliceRowSystem<kR>(coo, values, views, weights, mode, slice,
                                 rank, hbuf.get(R), b, c);
    // ProximalRowSolve is an out-of-line call: its arithmetic stays scalar
    // under both instantiations; only the B/c accumulation vectorizes.
    ProximalRowSolve(b, c, previous.Row(slice), mu, R, abuf.get(R),
                     rhsbuf.get(R), u->Row(slice));
  };
  RunTasks(pool, u->rows(), simd::Select(task));
}

/// Blocked accumulation of the slice-global temporal system: each block owns
/// a packed [B | c] accumulator of R*R + R doubles, combined in block order
/// by the caller. Per record the full R x R matrix is accumulated in the
/// dense-scan order (c then each row of B), so a single-block run matches
/// the test oracle's SolveTemporalRow accumulation bitwise. That pin is why
/// this kernel stays scalar-only (no simd::Select): FMA contraction would
/// break the bit-for-bit match.
template <size_t kR>
void CooNormalSystemImpl(const CooList& coo, const std::vector<double>& values,
                         const std::vector<FactorView>& views,
                         WorkerPool* pool, size_t rank,
                         double* partial) {
  const size_t num_modes = views.size();
  const size_t num_blocks = (coo.nnz() + kReductionBlock - 1) / kReductionBlock;
  RunTasks(pool, num_blocks, [&](size_t block) {
    const size_t R = kR == 0 ? rank : kR;
    RankBuffer<kR> buf;
    double* h = buf.get(R);
    double* out = partial + block * (R * R + R);  // [B rows | c].
    const size_t begin = block * kReductionBlock;
    const size_t end = std::min(begin + kReductionBlock, coo.nnz());
    for (size_t k = begin; k < end; ++k) {
      const uint32_t* idx = coo.Coords(k);
      for (size_t r = 0; r < R; ++r) h[r] = 1.0;
      for (size_t l = 0; l < num_modes; ++l) {
        const double* row = views[l].data + idx[l] * views[l].cols;
        for (size_t r = 0; r < R; ++r) h[r] *= row[r];
      }
      const double v = values[k];
      double* c = out + R * R;
      for (size_t r = 0; r < R; ++r) {
        const double hr = h[r];
        c[r] += v * hr;
        double* brow = out + r * R;
        for (size_t q = 0; q < R; ++q) brow[q] += hr * h[q];
      }
    }
  });
}

template <size_t kR>
void CooResidualBlocksImpl(const CooList& coo,
                           const std::vector<double>& values,
                           const std::vector<FactorView>& views,
                           WorkerPool* pool, size_t rank,
                           size_t num_blocks, double* partial) {
  const size_t num_modes = views.size();
  RunTasks(pool, num_blocks, [&](size_t block) {
    const size_t R = kR == 0 ? rank : kR;
    RankBuffer<kR> buf;
    double* prod = buf.get(R);
    const size_t begin = block * kReductionBlock;
    const size_t end = std::min(begin + kReductionBlock, coo.nnz());
    double s = 0.0;
    for (size_t k = begin; k < end; ++k) {
      const uint32_t* idx = coo.Coords(k);
      for (size_t r = 0; r < R; ++r) prod[r] = 1.0;
      for (size_t l = 0; l < num_modes; ++l) {
        const double* row = views[l].data + idx[l] * views[l].cols;
        for (size_t r = 0; r < R; ++r) prod[r] *= row[r];
      }
      double recon = 0.0;
      for (size_t r = 0; r < R; ++r) recon += prod[r];
      const double d = values[k] - recon;
      s += d * d;
    }
    partial[block] = s;
  });
}

/// Invoke fn(integral_constant<size_t, N>) with N = 2 for order-2 tensors
/// (the slices every CP-WOPT workload streams, compare-nine's 40x40
/// included), or 0 (= run-time order) otherwise. With rank and order both
/// fixed, CP-WOPT's per-record leave-one-out chains unroll completely.
template <typename Fn>
void DispatchOrder(size_t order, Fn&& fn) {
  if (order == 2) {
    fn(std::integral_constant<size_t, 2>{});
  } else {
    fn(std::integral_constant<size_t, 0>{});
  }
}

/// Offsets of each mode's factor in CP-WOPT's packed parameter vector:
/// stack storage for a compile-time order, heap for a run-time one.
template <size_t kN>
struct PackedOffsets {
  size_t* get(size_t) { return fixed; }
  size_t fixed[kN];
};
template <>
struct PackedOffsets<0> {
  size_t* get(size_t order) {
    dynamic.resize(order);
    return dynamic.data();
  }
  std::vector<size_t> dynamic;
};

/// Gradient tasks cap: past 4096 records the gradient splits into at most
/// this many contiguous record ranges.
constexpr size_t kMaxCpWoptGradientTasks = 16;

/// Σ (values[k] - Σ_r Π_l U^(l)(i_l, r))² over records [begin, end), in
/// record order, with each row product formed in mode order — the
/// arithmetic of CooResidualBlocksImpl, reading rows from the packed `x`.
template <size_t kR, size_t kN>
double CpWoptLossRange(const CooList& coo, const std::vector<double>& values,
                       const double* x, const size_t* offsets, size_t rank,
                       size_t begin, size_t end) {
  const size_t R = kR == 0 ? rank : kR;
  const size_t N = kN == 0 ? coo.order() : kN;
  RankBuffer<kR> buf;
  double* prod = buf.get(R);
  double s = 0.0;
  for (size_t k = begin; k < end; ++k) {
    const uint32_t* idx = coo.Coords(k);
    for (size_t r = 0; r < R; ++r) prod[r] = 1.0;
    for (size_t l = 0; l < N; ++l) {
      const double* row = x + offsets[l] + idx[l] * R;
      for (size_t r = 0; r < R; ++r) prod[r] *= row[r];
    }
    double recon = 0.0;
    for (size_t r = 0; r < R; ++r) recon += prod[r];
    const double d = values[k] - recon;
    s += d * d;
  }
  return s;
}

/// Accumulates the gradient of records [begin, end) into `g` (packed like
/// `x`). Per record, prefix[l] = Π_{l' < l} and suffix[l] = Π_{l' >= l} of
/// the factor rows, and row i_l of mode l takes
/// -resid · prefix[l] ⊛ suffix[l + 1].
template <size_t kR, size_t kN>
void CpWoptGradientRange(const CooList& coo,
                           const std::vector<double>& values, const double* x,
                           const size_t* offsets, size_t rank, size_t begin,
                           size_t end, double* g) {
  const size_t R = kR == 0 ? rank : kR;
  const size_t N = kN == 0 ? coo.order() : kN;
  constexpr size_t kChain = kN == 0 ? 0 : (kN + 1) * kR;
  RankBuffer<kChain> prefix_buf, suffix_buf;
  double* prefix = prefix_buf.get((N + 1) * R);
  double* suffix = suffix_buf.get((N + 1) * R);
  for (size_t k = begin; k < end; ++k) {
    const uint32_t* idx = coo.Coords(k);
    for (size_t r = 0; r < R; ++r) prefix[r] = 1.0;
    for (size_t l = 0; l < N; ++l) {
      const double* row = x + offsets[l] + idx[l] * R;
      const double* cur = prefix + l * R;
      double* nxt = prefix + (l + 1) * R;
      for (size_t r = 0; r < R; ++r) nxt[r] = cur[r] * row[r];
    }
    // suffix[0] would be the full product again; nothing reads it.
    for (size_t r = 0; r < R; ++r) suffix[N * R + r] = 1.0;
    for (size_t l = N; l-- > 1;) {
      const double* row = x + offsets[l] + idx[l] * R;
      const double* cur = suffix + (l + 1) * R;
      double* nxt = suffix + l * R;
      for (size_t r = 0; r < R; ++r) nxt[r] = cur[r] * row[r];
    }
    double recon = 0.0;
    const double* full = prefix + N * R;
    for (size_t r = 0; r < R; ++r) recon += full[r];
    const double resid = values[k] - recon;
    for (size_t l = 0; l < N; ++l) {
      double* grow = g + offsets[l] + idx[l] * R;
      const double* pre = prefix + l * R;
      const double* suf = suffix + (l + 1) * R;
      for (size_t r = 0; r < R; ++r) grow[r] -= resid * pre[r] * suf[r];
    }
  }
}

/// Loss pass: fixed record blocks, partial sums added in block order.
template <size_t kR, size_t kN>
double CpWoptLossImpl(const CooList& coo, const std::vector<double>& values,
                      const double* x, const size_t* offsets, size_t rank,
                      WorkerPool* pool) {
  const size_t nnz = coo.nnz();
  const size_t num_blocks = (nnz + kReductionBlock - 1) / kReductionBlock;
  auto block = [&](size_t b) {
    const size_t begin = b * kReductionBlock;
    return CpWoptLossRange<kR, kN>(coo, values, x, offsets, rank, begin,
                                   std::min(begin + kReductionBlock, nnz));
  };
  if (num_blocks <= 1) return block(0);
  ReduceScratch scratch(pool, num_blocks, 0);
  RunTasks(pool, num_blocks,
           [&](size_t b) { scratch.partials[b] = block(b); });
  double total = 0.0;
  for (size_t b = 0; b < num_blocks; ++b) total += scratch.partials[b];
  return total;
}

/// Gradient pass: the task count depends on |Ω| alone, never on the pool,
/// so the summation grouping is the same on every machine. Task 0
/// accumulates straight into `grad`; task t > 0 into its own zeroed slab,
/// and the slabs are added in task order afterwards.
template <size_t kR, size_t kN>
void CpWoptGradientImpl(const CooList& coo, const std::vector<double>& values,
                        const double* x, const size_t* offsets, size_t rank,
                        size_t params, double* grad, WorkerPool* pool) {
  const size_t nnz = coo.nnz();
  const size_t tasks = std::max<size_t>(
      1, std::min(kMaxCpWoptGradientTasks,
                  (nnz + kReductionBlock - 1) / kReductionBlock));
  std::fill(grad, grad + params, 0.0);
  auto range = [&](size_t t, double* g) {
    CpWoptGradientRange<kR, kN>(coo, values, x, offsets, rank,
                                t * nnz / tasks, (t + 1) * nnz / tasks, g);
  };
  if (tasks == 1) {
    range(0, grad);
    return;
  }
  ReduceScratch scratch(pool, (tasks - 1) * params, 0);
  double* slabs = scratch.partials;
  RunTasks(pool, tasks, [&](size_t t) {
    range(t, t == 0 ? grad : slabs + (t - 1) * params);
  });
  for (size_t t = 1; t < tasks; ++t) {
    const double* slab = slabs + (t - 1) * params;
    for (size_t i = 0; i < params; ++i) grad[i] += slab[i];
  }
}

/// Runs fn(kR, kN, offsets) on the rank- and order-specialized
/// instantiation, after checking `x` against the packed layout: mode l's
/// factor starts at offsets[l], and the last one ends at x.size().
template <typename Fn>
void DispatchPacked(const CooList& coo, const std::vector<double>& values,
                    const std::vector<double>& x, size_t rank, Fn&& fn) {
  SOFIA_CHECK_EQ(values.size(), coo.nnz());
  DispatchOrder(coo.order(), [&](auto order_tag) {
    constexpr size_t kN = decltype(order_tag)::value;
    PackedOffsets<kN> offset_buf;
    size_t* offsets = offset_buf.get(coo.order());
    size_t params = 0;
    for (size_t l = 0; l < coo.order(); ++l) {
      offsets[l] = params;
      params += coo.shape().dim(l) * rank;
    }
    SOFIA_CHECK_EQ(x.size(), params);
    DispatchRank(rank, [&](auto rank_tag) {
      fn(rank_tag, order_tag, offsets);
    });
  });
}

template <size_t kR>
void CooKruskalGatherImpl(const CooList& coo,
                          const std::vector<FactorView>& views,
                          const double* temporal_row, WorkerPool* pool,
                          size_t rank,
                          std::vector<double>* out) {
  const size_t num_modes = views.size();
  const size_t num_blocks = (coo.nnz() + kReductionBlock - 1) / kReductionBlock;
  auto task = [&](size_t block) {
    const size_t R = kR == 0 ? rank : kR;
    RankBuffer<kR> buf;
    double* SOFIA_RESTRICT h = buf.get(R);
    const size_t begin = block * kReductionBlock;
    const size_t end = std::min(begin + kReductionBlock, coo.nnz());
    for (size_t k = begin; k < end; ++k) {
      const uint32_t* idx = coo.Coords(k);
      simd::Copy(h, temporal_row, R);
      for (size_t l = 0; l < num_modes; ++l) {
        const double* row = views[l].data + idx[l] * views[l].cols;
        simd::MulIn(h, row, R);
      }
      // The final fold is a reduction: scalar ascending, never vectorized.
      double v = 0.0;
      for (size_t r = 0; r < R; ++r) v += h[r];
      (*out)[k] = v;
    }
  };
  RunTasks(pool, num_blocks, simd::Select(task));
}

/// KruskalSlice-order gather: chain = fold of the non-leading modes from
/// highest to lowest (KhatriRaoChain's accumulation order), then
/// u^(0) · (w ⊛ chain) — bit-for-bit the arithmetic of KruskalFromChain.
/// Scalar-only (no simd::Select): the lazy StepResult pipeline pins this
/// gather bitwise against the dense KruskalSlice chain.
template <size_t kR>
void CooKruskalSliceGatherImpl(const CooList& coo,
                               const std::vector<FactorView>& views,
                               const double* temporal_row, WorkerPool* pool,
                               size_t rank,
                               std::vector<double>* out) {
  const size_t num_modes = views.size();
  const size_t num_blocks = (coo.nnz() + kReductionBlock - 1) / kReductionBlock;
  RunTasks(pool, num_blocks, [&](size_t block) {
    const size_t R = kR == 0 ? rank : kR;
    RankBuffer<kR> buf;
    double* chain = buf.get(R);
    const size_t begin = block * kReductionBlock;
    const size_t end = std::min(begin + kReductionBlock, coo.nnz());
    for (size_t k = begin; k < end; ++k) {
      const uint32_t* idx = coo.Coords(k);
      for (size_t r = 0; r < R; ++r) chain[r] = 1.0;
      for (size_t l = num_modes; l-- > 1;) {
        const double* row = views[l].data + idx[l] * views[l].cols;
        for (size_t r = 0; r < R; ++r) chain[r] *= row[r];
      }
      const double* lead = views[0].data + idx[0] * views[0].cols;
      double v = 0.0;
      for (size_t r = 0; r < R; ++r) {
        v += lead[r] * (temporal_row[r] * chain[r]);
      }
      (*out)[k] = v;
    }
  });
}

/// Gradient + curvature trace of one non-temporal mode: each task owns one
/// mode slice (= one gradient row and one trace scalar), with records in
/// ascending linear order within the slice. `kTrace = false` compiles out
/// the curvature accumulation for consumers that only want gradients
/// (BRST's gated MAP step).
template <size_t kR, bool kTrace = true>
void CooModeGradientImpl(const CooList& coo,
                         const std::vector<double>& residuals,
                         const std::vector<FactorView>& views,
                         const double* temporal_row, size_t mode,
                         WorkerPool* pool, size_t rank,
                         Matrix* grad, std::vector<double>* trace) {
  const std::vector<uint32_t>& order = coo.ModeOrder(mode);
  const std::vector<size_t>& ptr = coo.SlicePtr(mode);
  const size_t num_modes = views.size();
  auto task = [&](size_t slice) {
    const size_t R = kR == 0 ? rank : kR;
    RankBuffer<kR> buf;
    double* SOFIA_RESTRICT h = buf.get(R);
    double* SOFIA_RESTRICT grow = grad->Row(slice);
    double tr = 0.0;
    for (size_t p = ptr[slice]; p < ptr[slice + 1]; ++p) {
      const size_t k = order[p];
      const uint32_t* idx = coo.Coords(k);
      simd::Copy(h, temporal_row, R);
      for (size_t l = 0; l < num_modes; ++l) {
        if (l == mode) continue;
        const double* row = views[l].data + idx[l] * views[l].cols;
        simd::MulIn(h, row, R);
      }
      const double resid = residuals[k];
      // Trace (scalar reduction) and gradient row are independent
      // accumulators: split loops, same sums, same order.
      if constexpr (kTrace) {
        for (size_t r = 0; r < R; ++r) tr += h[r] * h[r];
      }
      if (resid != 0.0) simd::MulAddIn(grow, resid, h, R);
    }
    if constexpr (kTrace) (*trace)[slice] = tr;
  };
  RunTasks(pool, grad->rows(), simd::Select(task));
}

/// Temporal gradient + trace: fixed-size record blocks, each owning R + 1
/// partial accumulators, combined in block order after the batch.
template <size_t kR>
void CooTemporalGradientImpl(const CooList& coo,
                             const std::vector<double>& residuals,
                             const std::vector<FactorView>& views,
                             WorkerPool* pool, size_t rank,
                             std::vector<double>* temporal_grad,
                             double* temporal_trace) {
  const size_t num_modes = views.size();
  const size_t num_blocks = (coo.nnz() + kReductionBlock - 1) / kReductionBlock;
  ReduceScratch scratch(pool, num_blocks * (rank + 1), 0);
  double* partial = scratch.partials;
  auto task = [&](size_t block) {
    const size_t R = kR == 0 ? rank : kR;
    RankBuffer<kR> buf;
    double* SOFIA_RESTRICT full = buf.get(R);
    double* SOFIA_RESTRICT out = partial + block * (R + 1);
    const size_t begin = block * kReductionBlock;
    const size_t end = std::min(begin + kReductionBlock, coo.nnz());
    for (size_t k = begin; k < end; ++k) {
      const uint32_t* idx = coo.Coords(k);
      simd::Fill(full, R, 1.0);
      for (size_t l = 0; l < num_modes; ++l) {
        const double* row = views[l].data + idx[l] * views[l].cols;
        simd::MulIn(full, row, R);
      }
      const double resid = residuals[k];
      // out[R] (the trace) is a scalar reduction; out[0..R) are
      // independent slots — split loops, same sums, same order.
      for (size_t r = 0; r < R; ++r) out[R] += full[r] * full[r];
      if (resid != 0.0) simd::MulAddIn(out, resid, full, R);
    }
  };
  RunTasks(pool, num_blocks, simd::Select(task));
  for (size_t block = 0; block < num_blocks; ++block) {
    const double* out = partial + block * (rank + 1);
    for (size_t r = 0; r < rank; ++r) (*temporal_grad)[r] += out[r];
    *temporal_trace += out[rank];
  }
}

}  // namespace

Matrix CooMttkrp(const CooList& coo, const std::vector<double>& values,
                 const std::vector<Matrix>& factors, size_t mode,
                 WorkerPool* pool) {
  static const obs::KernelStats kStats = obs::MakeKernelStats("coo.mttkrp");
  obs::CountKernel(kStats, coo.nnz(), 2 * (factors.empty() ? 0 : factors[0].cols()) * coo.order());
  SOFIA_CHECK_LT(mode, coo.order());
  SOFIA_CHECK_EQ(values.size(), coo.nnz());
  SOFIA_CHECK(coo.has_mode_bucket(mode));
  const size_t rank = factors.empty() ? 0 : factors[0].cols();
  CheckFactors(coo, factors, rank);

  Matrix out(coo.shape().dim(mode), rank, 0.0);
  const std::vector<FactorView> views = MakeViews(factors);
  DispatchRank(rank, [&](auto tag) {
    CooMttkrpImpl<decltype(tag)::value>(coo, values, views, mode, pool, rank,
                                        &out);
  });
  return out;
}

RowSystems CooRowSystems(const CooList& coo, const std::vector<double>& values,
                         const std::vector<Matrix>& factors, size_t mode,
                         WorkerPool* pool) {
  static const obs::KernelStats kStats = obs::MakeKernelStats("coo.row_systems");
  obs::CountKernel(kStats, coo.nnz(), (factors.empty() ? 0 : factors[0].cols()) * (coo.order() + 2 * (factors.empty() ? 0 : factors[0].cols())));
  SOFIA_CHECK_LT(mode, coo.order());
  SOFIA_CHECK_EQ(values.size(), coo.nnz());
  SOFIA_CHECK(coo.has_mode_bucket(mode));
  const size_t rank = factors.empty() ? 0 : factors[0].cols();
  CheckFactors(coo, factors, rank);

  RowSystems sys;
  sys.b.assign(coo.shape().dim(mode), Matrix(rank, rank));
  sys.c.assign(coo.shape().dim(mode), std::vector<double>(rank, 0.0));
  const std::vector<FactorView> views = MakeViews(factors);
  DispatchRank(rank, [&](auto tag) {
    CooRowSystemsImpl<decltype(tag)::value>(coo, values, views,
                                            /*weights=*/nullptr, mode,
                                            pool, rank, &sys);
  });
  return sys;
}

RowSystems CooWeightedRowSystems(const CooList& coo,
                                 const std::vector<double>& values,
                                 const std::vector<Matrix>& factors,
                                 const std::vector<double>& temporal_row,
                                 size_t mode, WorkerPool* pool) {
  static const obs::KernelStats kStats = obs::MakeKernelStats("coo.weighted_row_systems");
  obs::CountKernel(kStats, coo.nnz(), (factors.empty() ? 0 : factors[0].cols()) * (coo.order() + 2 * (factors.empty() ? 0 : factors[0].cols())));
  SOFIA_CHECK_LT(mode, coo.order());
  SOFIA_CHECK_EQ(values.size(), coo.nnz());
  SOFIA_CHECK(coo.has_mode_bucket(mode));
  const size_t rank = factors.empty() ? 0 : factors[0].cols();
  CheckFactors(coo, factors, rank);
  SOFIA_CHECK_EQ(temporal_row.size(), rank);

  RowSystems sys;
  sys.b.assign(coo.shape().dim(mode), Matrix(rank, rank));
  sys.c.assign(coo.shape().dim(mode), std::vector<double>(rank, 0.0));
  const std::vector<FactorView> views = MakeViews(factors);
  DispatchRank(rank, [&](auto tag) {
    CooRowSystemsImpl<decltype(tag)::value>(coo, values, views,
                                            temporal_row.data(), mode,
                                            pool, rank, &sys);
  });
  return sys;
}

void CooProximalRowUpdates(const CooList& coo,
                           const std::vector<double>& values,
                           const std::vector<Matrix>& factors,
                           const std::vector<double>& temporal_row,
                           size_t mode, const Matrix& previous, double mu,
                           Matrix* u, WorkerPool* pool) {
  SOFIA_CHECK_LT(mode, coo.order());
  SOFIA_CHECK_EQ(values.size(), coo.nnz());
  SOFIA_CHECK(coo.has_mode_bucket(mode));
  const size_t rank = factors.empty() ? 0 : factors[0].cols();
  CheckFactors(coo, factors, rank);
  SOFIA_CHECK_EQ(temporal_row.size(), rank);
  SOFIA_CHECK_EQ(u->rows(), coo.shape().dim(mode));
  SOFIA_CHECK_EQ(u->cols(), rank);
  SOFIA_CHECK_EQ(previous.rows(), u->rows());
  SOFIA_CHECK_EQ(previous.cols(), rank);

  const std::vector<FactorView> views = MakeViews(factors);
  DispatchRank(rank, [&](auto tag) {
    CooProximalRowUpdatesImpl<decltype(tag)::value>(
        coo, values, views, temporal_row.data(), mode, previous, mu,
        pool, rank, u);
  });
}

NormalSystem CooNormalSystem(const CooList& coo,
                             const std::vector<double>& values,
                             const std::vector<Matrix>& factors,
                             WorkerPool* pool) {
  SOFIA_CHECK_EQ(values.size(), coo.nnz());
  const size_t rank = factors.empty() ? 0 : factors[0].cols();
  CheckFactors(coo, factors, rank);

  const size_t num_blocks = (coo.nnz() + kReductionBlock - 1) / kReductionBlock;
  ReduceScratch scratch(pool, num_blocks * (rank * rank + rank), 0);
  const std::vector<FactorView> views = MakeViews(factors);
  DispatchRank(rank, [&](auto tag) {
    CooNormalSystemImpl<decltype(tag)::value>(coo, values, views, pool, rank,
                                              scratch.partials);
  });

  NormalSystem sys;
  sys.b = Matrix(rank, rank);
  sys.c.assign(rank, 0.0);
  for (size_t block = 0; block < num_blocks; ++block) {
    const double* out = scratch.partials + block * (rank * rank + rank);
    double* bdata = sys.b.data();
    for (size_t e = 0; e < rank * rank; ++e) bdata[e] += out[e];
    for (size_t r = 0; r < rank; ++r) sys.c[r] += out[rank * rank + r];
  }
  return sys;
}

ModeGradients CooModeGradients(const CooList& coo,
                               const std::vector<double>& residuals,
                               const std::vector<Matrix>& factors,
                               const std::vector<double>& temporal_row,
                               WorkerPool* pool,
                               bool with_traces) {
  SOFIA_CHECK_EQ(residuals.size(), coo.nnz());
  const size_t rank = factors.empty() ? 0 : factors[0].cols();
  CheckFactors(coo, factors, rank);
  SOFIA_CHECK_EQ(temporal_row.size(), rank);

  ModeGradients g;
  g.row_grads.reserve(factors.size());
  g.row_trace.resize(factors.size());
  for (size_t n = 0; n < factors.size(); ++n) {
    g.row_grads.emplace_back(factors[n].rows(), rank, 0.0);
    if (with_traces) g.row_trace[n].assign(factors[n].rows(), 0.0);
  }

  const std::vector<FactorView> views = MakeViews(factors);
  DispatchRank(rank, [&](auto tag) {
    for (size_t mode = 0; mode < factors.size(); ++mode) {
      SOFIA_CHECK(coo.has_mode_bucket(mode));
      if (with_traces) {
        CooModeGradientImpl<decltype(tag)::value, true>(
            coo, residuals, views, temporal_row.data(), mode, pool, rank,
            &g.row_grads[mode], &g.row_trace[mode]);
      } else {
        CooModeGradientImpl<decltype(tag)::value, false>(
            coo, residuals, views, temporal_row.data(), mode, pool, rank,
            &g.row_grads[mode], nullptr);
      }
    }
  });
  return g;
}

double CooResidualSquaredNorm(const CooList& coo,
                              const std::vector<double>& values,
                              const std::vector<Matrix>& factors,
                              WorkerPool* pool) {
  SOFIA_CHECK_EQ(values.size(), coo.nnz());
  const size_t rank = factors.empty() ? 0 : factors[0].cols();
  CheckFactors(coo, factors, rank);

  // Fixed-size record blocks -> per-block partial sums, combined in block
  // order; both the block boundaries and the combine order are independent
  // of the thread count.
  const size_t num_blocks = (coo.nnz() + kReductionBlock - 1) / kReductionBlock;
  ReduceScratch scratch(pool, num_blocks, 0);
  const std::vector<FactorView> views = MakeViews(factors);
  DispatchRank(rank, [&](auto tag) {
    CooResidualBlocksImpl<decltype(tag)::value>(
        coo, values, views, pool, rank, num_blocks,
        scratch.partials);
  });
  double total = 0.0;
  for (size_t block = 0; block < num_blocks; ++block) {
    total += scratch.partials[block];
  }
  return total;
}

double CooResidualNorm(const CooList& coo, const std::vector<double>& values,
                       const std::vector<Matrix>& factors, WorkerPool* pool) {
  return std::sqrt(
      CooResidualSquaredNorm(coo, values, factors, pool));
}

double CooCpWoptLoss(const CooList& coo, const std::vector<double>& values,
                     const std::vector<double>& x, size_t rank,
                     WorkerPool* pool) {
  double total = 0.0;
  DispatchPacked(coo, values, x, rank,
                 [&](auto rank_tag, auto order_tag, const size_t* offsets) {
                   total = CpWoptLossImpl<decltype(rank_tag)::value,
                                          decltype(order_tag)::value>(
                       coo, values, x.data(), offsets, rank, pool);
                 });
  return 0.5 * total;
}

void CooCpWoptGradient(const CooList& coo, const std::vector<double>& values,
                       const std::vector<double>& x, size_t rank,
                       std::vector<double>* grad, WorkerPool* pool) {
  grad->resize(x.size());
  DispatchPacked(coo, values, x, rank,
                 [&](auto rank_tag, auto order_tag, const size_t* offsets) {
                   CpWoptGradientImpl<decltype(rank_tag)::value,
                                      decltype(order_tag)::value>(
                       coo, values, x.data(), offsets, rank, x.size(),
                       grad->data(), pool);
                 });
}

std::vector<double> CooKruskalGather(const CooList& coo,
                                     const std::vector<Matrix>& factors,
                                     const std::vector<double>& temporal_row,
                                     WorkerPool* pool) {
  const size_t rank = factors.empty() ? 0 : factors[0].cols();
  CheckFactors(coo, factors, rank);
  SOFIA_CHECK_EQ(temporal_row.size(), rank);

  std::vector<double> out(coo.nnz());
  const std::vector<FactorView> views = MakeViews(factors);
  DispatchRank(rank, [&](auto tag) {
    CooKruskalGatherImpl<decltype(tag)::value>(
        coo, views, temporal_row.data(), pool, rank, &out);
  });
  return out;
}

std::vector<double> CooKruskalSliceGather(
    const CooList& coo, const std::vector<Matrix>& factors,
    const std::vector<double>& temporal_row, WorkerPool* pool) {
  std::vector<double> out;
  CooKruskalSliceGather(coo, factors, temporal_row, &out, pool);
  return out;
}

void CooKruskalSliceGather(const CooList& coo,
                           const std::vector<Matrix>& factors,
                           const std::vector<double>& temporal_row,
                           std::vector<double>* out, WorkerPool* pool) {
  static const obs::KernelStats kStats = obs::MakeKernelStats("coo.kruskal_gather");
  obs::CountKernel(kStats, coo.nnz(), 2 * (factors.empty() ? 0 : factors[0].cols()) * coo.order());
  const size_t rank = factors.empty() ? 0 : factors[0].cols();
  CheckFactors(coo, factors, rank);
  SOFIA_CHECK_EQ(temporal_row.size(), rank);

  out->resize(coo.nnz());
  const std::vector<FactorView> views = MakeViews(factors);
  DispatchRank(rank, [&](auto tag) {
    CooKruskalSliceGatherImpl<decltype(tag)::value>(
        coo, views, temporal_row.data(), pool, rank, out);
  });
}

StepGradients CooStepGradients(const CooList& coo,
                               const std::vector<double>& residuals,
                               const std::vector<Matrix>& factors,
                               const std::vector<double>& temporal_row,
                               WorkerPool* pool) {
  static const obs::KernelStats kStats = obs::MakeKernelStats("coo.step_gradients");
  obs::CountKernel(kStats, coo.nnz(), 2 * (factors.empty() ? 0 : factors[0].cols()) * coo.order() * (coo.order() + 1));
  SOFIA_CHECK_EQ(residuals.size(), coo.nnz());
  const size_t rank = factors.empty() ? 0 : factors[0].cols();
  CheckFactors(coo, factors, rank);
  SOFIA_CHECK_EQ(temporal_row.size(), rank);

  StepGradients g;
  g.row_grads.reserve(factors.size());
  g.row_trace.resize(factors.size());
  for (size_t n = 0; n < factors.size(); ++n) {
    g.row_grads.emplace_back(factors[n].rows(), rank, 0.0);
    g.row_trace[n].assign(factors[n].rows(), 0.0);
  }
  g.temporal_grad.assign(rank, 0.0);

  const std::vector<FactorView> views = MakeViews(factors);
  DispatchRank(rank, [&](auto tag) {
    for (size_t mode = 0; mode < factors.size(); ++mode) {
      SOFIA_CHECK(coo.has_mode_bucket(mode));
      CooModeGradientImpl<decltype(tag)::value>(
          coo, residuals, views, temporal_row.data(), mode, pool,
          rank, &g.row_grads[mode], &g.row_trace[mode]);
    }
    CooTemporalGradientImpl<decltype(tag)::value>(
        coo, residuals, views, pool, rank, &g.temporal_grad,
        &g.temporal_trace);
  });
  return g;
}

double CooDataNorm(const std::vector<double>& values) {
  double s = 0.0;
  for (double v : values) s += v * v;
  return std::sqrt(s);
}

}  // namespace sofia
