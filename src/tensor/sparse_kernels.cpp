#include "tensor/sparse_kernels.hpp"
#include "obs/kernel_stats.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <type_traits>

#include "linalg/solve.hpp"
#include "tensor/simd.hpp"
#include "timeseries/robust.hpp"
#include "util/check.hpp"
#include "util/parallel.hpp"

namespace sofia {

namespace {

/// Records per task in the blocked reductions. Fixed (never derived from the
/// thread count) so the partial-sum tree is identical for every pool.
constexpr size_t kReductionBlock = 4096;

/// Raw row-base view of a factor matrix, snapshotted before the record loop
/// so the inner kernels touch plain pointers instead of Matrix methods.
struct FactorView {
  const double* data;
  size_t cols;
};

std::vector<FactorView> MakeViews(const std::vector<Matrix>& factors) {
  std::vector<FactorView> views(factors.size());
  for (size_t n = 0; n < factors.size(); ++n) {
    views[n] = {factors[n].data(), factors[n].cols()};
  }
  return views;
}

/// Invoke fn(integral_constant<size_t, R>) with R a compile-time copy of
/// `rank` for the common small CP ranks, or 0 (= dynamic rank) otherwise.
/// The fixed-rank instantiations let the compiler unroll and vectorize the
/// R-length loops of the record kernels, which dominate the ALS sweep.
template <typename Fn>
void DispatchRank(size_t rank, Fn&& fn) {
  switch (rank) {
    case 1: fn(std::integral_constant<size_t, 1>{}); break;
    case 2: fn(std::integral_constant<size_t, 2>{}); break;
    case 3: fn(std::integral_constant<size_t, 3>{}); break;
    case 4: fn(std::integral_constant<size_t, 4>{}); break;
    case 5: fn(std::integral_constant<size_t, 5>{}); break;
    case 6: fn(std::integral_constant<size_t, 6>{}); break;
    case 8: fn(std::integral_constant<size_t, 8>{}); break;
    case 10: fn(std::integral_constant<size_t, 10>{}); break;
    case 12: fn(std::integral_constant<size_t, 12>{}); break;
    case 16: fn(std::integral_constant<size_t, 16>{}); break;
    default: fn(std::integral_constant<size_t, 0>{}); break;
  }
}

/// Scratch R-vector: stack storage for fixed ranks, heap for dynamic.
/// Fixed storage is 64-byte aligned so the AVX2 instantiations (see
/// tensor/simd.hpp) load the rank block with aligned, cache-line-local
/// accesses.
template <size_t kR>
struct RankBuffer {
  double* get(size_t) { return fixed; }
  alignas(64) double fixed[kR];
};
template <>
struct RankBuffer<0> {
  double* get(size_t rank) {
    dynamic.resize(rank);
    return dynamic.data();
  }
  std::vector<double> dynamic;
};

/// Scratch R x R matrix, same storage policy (and alignment).
template <size_t kR>
struct RankSquareBuffer {
  double* get(size_t) { return fixed; }
  alignas(64) double fixed[kR * kR];
};
template <>
struct RankSquareBuffer<0> {
  double* get(size_t rank) {
    dynamic.resize(rank * rank);
    return dynamic.data();
  }
  std::vector<double> dynamic;
};

/// Rank rounded up to whole 4-lane vectors: the row width of PaddedRows and
/// of the row-system kernel's accumulator rows.
constexpr size_t PaddedRank(size_t rank) { return (rank + 3) / 4 * 4; }

/// The regressor inputs of the normal-system accumulator, set up once per
/// call: every factor but the solved `mode`'s (every factor when `mode` is
/// factors.size()) with its rows padded to PaddedRank(R) doubles (zero pad
/// lanes), so a record's h is built from whole-vector loads, and the row h
/// starts from (the weights, or ones) at the same width. Ranks that are a
/// multiple of 4 read the factors in place.
struct PaddedRows {
  std::vector<double> local;
  std::vector<const double*> base;  // Per mode; the solved mode's is null.
  const double* start = nullptr;

  PaddedRows(const std::vector<Matrix>& factors, const double* weights,
             size_t mode, size_t rank)
      : base(factors.size(), nullptr) {
    const size_t width = PaddedRank(rank);
    const bool pad = width != rank;
    size_t count = width;
    for (size_t l = 0; l < factors.size() && pad; ++l) {
      if (l != mode) count += factors[l].rows() * width;
    }
    local.resize(count);
    double* buf = local.data();
    for (size_t r = 0; r < width; ++r) {
      buf[r] = r >= rank ? 0.0 : weights != nullptr ? weights[r] : 1.0;
    }
    start = buf;
    double* next = buf + width;
    for (size_t l = 0; l < factors.size(); ++l) {
      if (l == mode) continue;
      if (!pad) {
        base[l] = factors[l].data();
        continue;
      }
      for (size_t i = 0; i < factors[l].rows(); ++i) {
        double* row = next + i * width;
        std::copy_n(factors[l].Row(i), rank, row);
        std::fill(row + rank, row + width, 0.0);
      }
      base[l] = next;
      next += factors[l].rows() * width;
    }
  }
};

/// `count` vectors of lane type V, 32-byte aligned: a local array when
/// kCount fixes the count at compile time, a heap block otherwise.
template <size_t kCount, typename V>
struct LaneBuffer {
  V* get(size_t) { return fixed; }
  alignas(32) V fixed[kCount];
};
template <typename V>
struct LaneBuffer<0, V> {
  V* get(size_t count) {
    const size_t bytes = (count * sizeof(V) + 31) / 32 * 32;
    storage.reset(static_cast<V*>(std::aligned_alloc(32, bytes)));
    return storage.get();
  }
  struct Free {
    void operator()(void* p) const { std::free(p); }
  };
  std::unique_ptr<V, Free> storage;
};

/// Accumulator rows of one normal system: R rows of B, then c, then the
/// current record's h, each PaddedRank(R) lanes of type V wide. A fixed
/// rank keeps them in a local array, which the compiler holds in registers
/// at small ranks; the dynamic rank allocates per task. Both are 32-byte
/// aligned: the AVX2 instantiation moves Vec4s with aligned stores.
template <size_t kR, typename V>
struct LaneRows {
  V* get(size_t rank) {
    return buf.get((rank + 2) * PaddedRank(rank) / (sizeof(V) / 8));
  }
  LaneBuffer<(kR + 2) * PaddedRank(kR) / (sizeof(V) / 8), V> buf;
};

void CheckFactors(const CooList& coo, const std::vector<Matrix>& factors,
                  size_t rank) {
  SOFIA_CHECK_EQ(factors.size(), coo.order());
  for (size_t n = 0; n < factors.size(); ++n) {
    SOFIA_CHECK_EQ(factors[n].rows(), coo.shape().dim(n));
    SOFIA_CHECK_EQ(factors[n].cols(), rank);
  }
}

/// Invoke fn(integral_constant<size_t, N>) with N a compile-time copy of
/// `order` when it is one of kOrders, or 0 (= run-time order) otherwise.
/// CP-WOPT, SOFIA's step and OLSTEC's RLS sweep fix order 2 (the stream
/// slices they run on, compare-nine's 40x40 included); the row-system
/// kernels fix orders 2 and 3 (stream slices and init windows). With rank
/// and order both fixed, the per-record leave-one-out chains unroll
/// completely.
template <size_t... kOrders, typename Fn>
void DispatchOrder(size_t order, Fn&& fn) {
  const bool fixed =
      ((order == kOrders &&
        (fn(std::integral_constant<size_t, kOrders>{}), true)) ||
       ...);
  if (!fixed) fn(std::integral_constant<size_t, 0>{});
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

/// One normal system B = Σ h h^T, c = Σ values[k] h, written (not added)
/// to `bdata` (full R x R, row-major) and `c`. With kBucket it walks
/// records [begin, end) of mode `mode`'s bucket order and leaves `mode` out
/// of h: one Theorem-1 row system. Without, it walks records [begin, end)
/// in record order, ignores `mode`, and h takes every mode: one block of
/// the temporal system. Per record, h = start ⊛ the padded rows of those
/// modes, multiplied in ascending mode order. B and c stay in rows of
/// PaddedRank(R) lanes for the whole walk, as vectors of type V (Vec4 in
/// the AVX2+FMA instantiation, Vec2 in the scalar one) that the compiler
/// holds in registers at small ranks, and h is built from whole-vector
/// loads of the padded factor rows. Each B and c element takes exactly one
/// multiply-add per record, in walk order: a fused one in the AVX2+FMA
/// instantiation, multiply-then-add in the scalar one. Full rows of B are
/// accumulated and the upper triangle is mirrored at the end, so B is
/// exactly symmetric. The single source of this arithmetic for the
/// materialized row systems, the fused proximal updates and the temporal
/// system.
template <size_t kR, size_t kN, typename V, bool kBucket>
void AccumulateNormalSystem(const CooList& coo,
                            const std::vector<double>& values,
                            const PaddedRows& rows, size_t mode, size_t begin,
                            size_t end, size_t rank,
                            double* SOFIA_RESTRICT bdata,
                            double* SOFIA_RESTRICT c) {
  constexpr size_t L = sizeof(V) / sizeof(double);
  const uint32_t* order = kBucket ? coo.ModeOrder(mode).data() : nullptr;
  const size_t R = kR == 0 ? rank : kR;
  const size_t stride = PaddedRank(R);
  const size_t W = stride / L;
  const size_t modes = (kN == 0 ? coo.order() : kN) - (kBucket ? 1 : 0);
  LaneRows<kR, V> lanes;
  V* SOFIA_RESTRICT acc = lanes.get(R);
  V* SOFIA_RESTRICT cacc = acc + R * W;
  V* SOFIA_RESTRICT h = cacc + W;
  V zero;
  for (size_t i = 0; i < L; ++i) zero[i] = 0.0;
  for (size_t j = 0; j < (R + 1) * W; ++j) acc[j] = zero;
  for (size_t p = begin; p < end; ++p) {
    const size_t k = kBucket ? order[p] : p;
    const uint32_t* idx = coo.Coords(k);
    for (size_t j = 0; j < W; ++j) {
      std::memcpy(&h[j], rows.start + L * j, sizeof(V));
    }
    for (size_t o = 0; o < modes; ++o) {
      const size_t l = kBucket && o >= mode ? o + 1 : o;  // o-th mode in h.
      const double* row = rows.base[l] + idx[l] * stride;
      for (size_t j = 0; j < W; ++j) {
        V x;
        std::memcpy(&x, row + L * j, sizeof(x));
        h[j] *= x;
      }
    }
    const double ystar = values[k];
    for (size_t j = 0; j < W; ++j) cacc[j] += ystar * h[j];
    for (size_t r = 0; r < R; ++r) {
      const double hr = h[r / L][r % L];
      for (size_t j = 0; j < W; ++j) acc[r * W + j] += hr * h[j];
    }
  }
  // Lane-wise stores keep every access to the accumulators a whole-vector
  // or constant-lane one, which is what lets them live in registers.
  for (size_t r = 0; r < R; ++r) {
    c[r] = cacc[r / L][r % L];
    for (size_t q = r; q < R; ++q) {
      bdata[r * R + q] = bdata[q * R + r] = acc[r * W + q / L][q % L];
    }
  }
}

/// Shared accumulation of CooRowSystems / CooWeightedRowSystems: one task
/// per mode slice (= one output row system), so no two threads ever write
/// the same accumulator.
template <size_t kR, size_t kN>
void CooRowSystemsImpl(const CooList& coo, const std::vector<double>& values,
                       const PaddedRows& rows, size_t mode, WorkerPool* pool,
                       size_t rank, RowSystems* sys) {
  const std::vector<size_t>& ptr = coo.SlicePtr(mode);
  auto task = [&](auto lanes, size_t slice) {
    AccumulateNormalSystem<kR, kN, typename decltype(lanes)::type, true>(
        coo, values, rows, mode, ptr[slice], ptr[slice + 1], rank,
        sys->b[slice].data(), sys->c[slice].data());
  };
  RunTasks(pool, sys->b.size(), simd::SelectLanes(task));
}

/// Rows per task of the fused proximal update: their Cholesky solves run
/// side by side, one row per vector lane.
constexpr size_t kSolveRows = 4;

/// Lane-wise square root, in place.
#if SOFIA_SIMD_X86
SOFIA_ALWAYS_INLINE void SqrtIn(simd::Vec2* v) {
  *v = __builtin_ia32_sqrtpd(*v);
}
/// Not always_inline: it is inlined once its caller sits in an AVX2 body.
__attribute__((target("avx2"))) inline void SqrtIn(simd::Vec4* v) {
  *v = __builtin_ia32_sqrtpd256(*v);
}
#else
template <typename V>
SOFIA_ALWAYS_INLINE void SqrtIn(V* v) {
  for (size_t i = 0; i < sizeof(V) / sizeof(double); ++i) {
    (*v)[i] = std::sqrt((*v)[i]);
  }
}
#endif

/// CholeskySolveInPlace (linalg/solve.hpp) on lane vectors: lane j of `a`
/// (R x R) and `rhs` (R) is one system, and every lane takes the scalar
/// solve's operations in its order. Vector square roots and divisions round
/// like scalar ones, and the callers compile this without fused
/// multiply-adds, so each lane gets the scalar solve's bits. Where the
/// scalar solve stops at a pivot that is not positive, the lane runs on and
/// ends with a non-finite solution: the square root of a negative or NaN
/// pivot is NaN, and a zero pivot divides by zero.
template <size_t kR, typename V>
SOFIA_ALWAYS_INLINE void CholeskyLanes(V* SOFIA_RESTRICT a,
                                       V* SOFIA_RESTRICT rhs, size_t n) {
  const size_t N = kR == 0 ? n : kR;
  for (size_t j = 0; j < N; ++j) {
    V d = a[j * N + j];
    for (size_t k = 0; k < j; ++k) d -= a[j * N + k] * a[j * N + k];
    V ljj = d;
    SqrtIn(&ljj);
    a[j * N + j] = ljj;
    for (size_t i = j + 1; i < N; ++i) {
      V s = a[i * N + j];
      for (size_t k = 0; k < j; ++k) s -= a[i * N + k] * a[j * N + k];
      a[i * N + j] = s / ljj;
    }
  }
  for (size_t i = 0; i < N; ++i) {
    V s = rhs[i];
    for (size_t k = 0; k < i; ++k) s -= a[i * N + k] * rhs[k];
    rhs[i] = s / a[i * N + i];
  }
  for (size_t i = N; i-- > 0;) {
    V s = rhs[i];
    for (size_t k = i + 1; k < N; ++k) s -= a[k * N + i] * rhs[k];
    rhs[i] = s / a[i * N + i];
  }
}

/// The regular case of ProximalRowSolve for rows [0, count) (count <=
/// kSolveRows), in groups of one row per lane of V: out[j] = (B_j + μI)^{-1}
/// (c_j + μ prev_j). Lanes past `count` solve an identity system. Returns a
/// bit mask of the rows left to the scalar ProximalRowSolve: an empty system
/// (its short-circuit) or a non-finite solution, which a non-positive pivot
/// also leaves (its ridge fallback); their `out` is not written.
template <size_t kR, typename V>
SOFIA_ALWAYS_INLINE unsigned ProximalSolveLanes(
    const double* const* b, const double* const* c,
    const double* const* prev, double mu, size_t n, size_t count,
    double* const* out) {
  constexpr size_t L = sizeof(V) / sizeof(double);
  const size_t N = kR == 0 ? n : kR;
  LaneBuffer<kR * (kR + 1), V> buf;
  V* SOFIA_RESTRICT a = buf.get(N * (N + 1));
  V* SOFIA_RESTRICT rhs = a + N * N;
  unsigned irregular = 0;
  for (size_t g = 0; g < count; g += L) {
    for (size_t j = 0; j < L; ++j) {
      const size_t row = g + j;
      for (size_t e = 0; e < N * N; ++e) {
        a[e][j] = row < count ? b[row][e] : (e % (N + 1) == 0 ? 1.0 : 0.0);
      }
      for (size_t r = 0; r < N; ++r) {
        rhs[r][j] = row < count ? c[row][r] : 0.0;
      }
    }
    V mu_prev;
    for (size_t r = 0; r < N; ++r) {
      for (size_t j = 0; j < L; ++j) {
        mu_prev[j] = g + j < count ? mu * prev[g + j][r] : 0.0;
      }
      a[r * N + r] += mu;
      rhs[r] += mu_prev;
    }
    CholeskyLanes<kR>(a, rhs, N);
    for (size_t j = 0; j < L && g + j < count; ++j) {
      const size_t row = g + j;
      // ProximalRowSolve's short-circuit: B = 0 and c = 0 with μ != 0.
      bool empty = mu != 0.0;
      for (size_t e = 0; e < N * N && empty; ++e) empty = b[row][e] == 0.0;
      for (size_t r = 0; r < N && empty; ++r) empty = c[row][r] == 0.0;
      bool regular = true;
      for (size_t r = 0; r < N && regular; ++r) {
        regular = std::isfinite(rhs[r][j]);
      }
      if (empty || !regular) {
        irregular |= 1u << row;
        continue;
      }
      for (size_t r = 0; r < N; ++r) out[row][r] = rhs[r][j];
    }
  }
  return irregular;
}

/// ProximalSolveLanes on 128-bit lanes, out of line (one copy per rank,
/// not one per kernel instantiation) and without contraction.
template <size_t kR>
__attribute__((noinline)) SOFIA_NO_CONTRACT unsigned
ProximalSolvePairs(const double* const* b, const double* const* c,
                   const double* const* prev, double mu, size_t n,
                   size_t count, double* const* out) {
  return ProximalSolveLanes<kR, simd::Vec2>(b, c, prev, mu, n, count, out);
}

#if SOFIA_SIMD_X86
/// ProximalSolveLanes on 256-bit lanes. Out of line, for AVX2 without FMA
/// and without contraction, so the lanes keep the scalar solve's bits
/// inside the AVX2+FMA instantiation of the fused kernel.
template <size_t kR>
__attribute__((target("avx2"), noinline)) SOFIA_NO_CONTRACT unsigned
ProximalSolveAvx2(const double* const* b, const double* const* c,
                  const double* const* prev, double mu, size_t n,
                  size_t count, double* const* out) {
  return ProximalSolveLanes<kR, simd::Vec4>(b, c, prev, mu, n, count, out);
}
#endif

/// Fused row-system accumulation + proximal solve of one mode. Per task
/// (= kSolveRows consecutive mode slices = output rows): build each row's
/// B/c via the shared AccumulateNormalSystem, then solve the rows side by
/// side (ProximalSolveLanes), and hand any row whose solve is not the
/// regular one to the shared ProximalRowSolve — the routines the
/// materialized kernels and the dense oracle's proximal updates run, so
/// the fused and materialized paths stay bitwise aligned.
template <size_t kR, size_t kN>
void CooProximalRowUpdatesImpl(const CooList& coo,
                               const std::vector<double>& values,
                               const PaddedRows& rows, size_t mode,
                               const Matrix& previous, double mu,
                               WorkerPool* pool, size_t rank, Matrix* u) {
  const std::vector<size_t>& ptr = coo.SlicePtr(mode);
  const size_t num_rows = u->rows();
  auto task = [&](auto lanes, size_t group) {
    using V = typename decltype(lanes)::type;
    const size_t R = kR == 0 ? rank : kR;
    const size_t first = group * kSolveRows;
    const size_t count = std::min(kSolveRows, num_rows - first);
    RankSquareBuffer<kR> bbuf[kSolveRows];
    RankBuffer<kR> cbuf[kSolveRows];
    const double* b[kSolveRows];
    const double* c[kSolveRows];
    const double* prev[kSolveRows];
    double* out[kSolveRows];
    for (size_t j = 0; j < count; ++j) {
      const size_t row = first + j;
      double* bj = bbuf[j].get(R);
      double* cj = cbuf[j].get(R);
      AccumulateNormalSystem<kR, kN, V, true>(coo, values, rows, mode,
                                              ptr[row], ptr[row + 1], rank,
                                              bj, cj);
      b[j] = bj;
      c[j] = cj;
      prev[j] = previous.Row(row);
      out[j] = u->Row(row);
    }
    unsigned irregular;
#if SOFIA_SIMD_X86
    if constexpr (sizeof(V) == 32) {
      irregular = ProximalSolveAvx2<kR>(b, c, prev, mu, R, count, out);
    } else
#endif
    {
      irregular = ProximalSolvePairs<kR>(b, c, prev, mu, R, count, out);
    }
    if (irregular == 0) return;
    RankSquareBuffer<kR> abuf;
    RankBuffer<kR> rhsbuf;
    for (size_t j = 0; j < count; ++j) {
      if ((irregular >> j & 1u) == 0) continue;
      ProximalRowSolve(b[j], c[j], prev[j], mu, R, abuf.get(R),
                       rhsbuf.get(R), out[j]);
    }
  };
  RunTasks(pool, (num_rows + kSolveRows - 1) / kSolveRows,
           simd::SelectLanes(task));
}

/// Runs fn(kR, kN) on the rank- and order-specialized instantiation of the
/// normal-system kernels.
template <typename Fn>
void DispatchRowSystems(size_t order, size_t rank, Fn&& fn) {
  DispatchOrder<2, 3>(order, [&](auto order_tag) {
    DispatchRank(rank, [&](auto rank_tag) { fn(rank_tag, order_tag); });
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

/// One T per mode: stack storage for a compile-time order, heap for a
/// run-time one (e.g. the offsets of each mode's factor in CP-WOPT's packed
/// parameter vector).
template <size_t kN, typename T>
struct PerMode {
  T* get(size_t) { return fixed; }
  T fixed[kN];
};
template <typename T>
struct PerMode<0, T> {
  T* get(size_t order) {
    dynamic.resize(order);
    return dynamic.data();
  }
  std::vector<T> dynamic;
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
  double* SOFIA_RESTRICT prod = buf.get(R);
  double s = 0.0;
  for (size_t k = begin; k < end; ++k) {
    const uint32_t* idx = coo.Coords(k);
    simd::Copy(prod, x + offsets[0] + idx[0] * R, R);
    for (size_t l = 1; l < N; ++l) {
      simd::MulIn(prod, x + offsets[l] + idx[l] * R, R);
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
/// -resid · (prefix[l] ⊛ suffix[l + 1]). Records are in ascending linear
/// order and the last mode varies slowest, so the last mode's gradient row
/// takes a contiguous run of records: it is held in a local row for the
/// run (no store-to-load chain through memory) and written back when the
/// index moves on.
template <size_t kR, size_t kN>
void CpWoptGradientRange(const CooList& coo,
                         const std::vector<double>& values, const double* x,
                         const size_t* offsets, size_t rank, size_t begin,
                         size_t end, double* g) {
  if (begin == end) return;
  const size_t R = kR == 0 ? rank : kR;
  const size_t N = kN == 0 ? coo.order() : kN;
  const size_t last = N - 1;
  constexpr size_t kChain = kN == 0 ? 0 : (kN + 1) * kR;
  RankBuffer<kChain> prefix_buf, suffix_buf;
  RankBuffer<kR> loo_buf, run_buf;
  double* SOFIA_RESTRICT prefix = prefix_buf.get((N + 1) * R);
  double* SOFIA_RESTRICT suffix = suffix_buf.get((N + 1) * R);
  double* SOFIA_RESTRICT loo = loo_buf.get(R);
  double* SOFIA_RESTRICT run = run_buf.get(R);
  double* last_grad = g + offsets[last];
  size_t run_row = coo.Coords(begin)[last];
  simd::Copy(run, last_grad + run_row * R, R);
  simd::Fill(prefix, R, 1.0);
  simd::Fill(suffix + N * R, R, 1.0);
  for (size_t k = begin; k < end; ++k) {
    const uint32_t* idx = coo.Coords(k);
    if (idx[last] != run_row) {
      simd::Copy(last_grad + run_row * R, run, R);
      run_row = idx[last];
      simd::Copy(run, last_grad + run_row * R, R);
    }
    for (size_t l = 0; l < N; ++l) {
      simd::MulTo(prefix + (l + 1) * R, prefix + l * R,
                  x + offsets[l] + idx[l] * R, R);
    }
    // suffix[0] would be the full product again; nothing reads it.
    for (size_t l = N; l-- > 1;) {
      simd::MulTo(suffix + l * R, suffix + (l + 1) * R,
                  x + offsets[l] + idx[l] * R, R);
    }
    double recon = 0.0;
    const double* full = prefix + N * R;
    for (size_t r = 0; r < R; ++r) recon += full[r];
    const double scale = recon - values[k];  // -resid.
    for (size_t l = 0; l < last; ++l) {
      simd::MulTo(loo, prefix + l * R, suffix + (l + 1) * R, R);
      simd::MulAddIn(g + offsets[l] + idx[l] * R, scale, loo, R);
    }
    simd::MulTo(loo, prefix + last * R, suffix + N * R, R);
    simd::MulAddIn(run, scale, loo, R);
  }
  simd::Copy(last_grad + run_row * R, run, R);
}

/// Loss pass: fixed record blocks, partial sums added in block order. Each
/// block runs in the ISA simd::SelectLanes picks for the call.
template <size_t kR, size_t kN>
double CpWoptLossImpl(const CooList& coo, const std::vector<double>& values,
                      const double* x, const size_t* offsets, size_t rank,
                      WorkerPool* pool) {
  const size_t nnz = coo.nnz();
  const size_t num_blocks = (nnz + kReductionBlock - 1) / kReductionBlock;
  double single = 0.0;
  std::vector<double> partials(num_blocks > 1 ? num_blocks : 0);
  double* out = num_blocks > 1 ? partials.data() : &single;
  auto block = [&](auto, size_t b) {
    const size_t begin = b * kReductionBlock;
    out[b] = CpWoptLossRange<kR, kN>(coo, values, x, offsets, rank, begin,
                                     std::min(begin + kReductionBlock, nnz));
  };
  if (num_blocks <= 1) {
    simd::SelectLanes(block)(0);
    return single;
  }
  RunTasks(pool, num_blocks, simd::SelectLanes(block));
  double total = 0.0;
  for (size_t b = 0; b < num_blocks; ++b) total += partials[b];
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
  std::vector<double> slabs((tasks - 1) * params, 0.0);
  auto range = [&](auto, size_t t) {
    CpWoptGradientRange<kR, kN>(
        coo, values, x, offsets, rank, t * nnz / tasks,
        (t + 1) * nnz / tasks,
        t == 0 ? grad : slabs.data() + (t - 1) * params);
  };
  if (tasks == 1) {
    simd::SelectLanes(range)(0);
    return;
  }
  RunTasks(pool, tasks, simd::SelectLanes(range));
  for (size_t t = 1; t < tasks; ++t) {
    const double* slab = slabs.data() + (t - 1) * params;
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
  DispatchOrder<2>(coo.order(), [&](auto order_tag) {
    constexpr size_t kN = decltype(order_tag)::value;
    PerMode<kN, size_t> offset_buf;
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

/// The fused SOFIA step (CooSofiaStep) over every record, in record order.
/// Per record: the leave-one-out regressors h_l = u_hat ⊛ (⊛_{l' != l}
/// u^(l')_{i_l'}), multiplied in ascending mode order; the Eq. (20)
/// forecast f = Σ_r h_{N-1}[r] u^(N-1)_{i_{N-1} r}; the robust update at
/// y[lin] and sigma[lin], with one (y - f) / σ divide in the default
/// reject-then-scale order; then the residual e = y - o - f scattered into
/// each mode's gradient row (e h_l) and trace (Σ_r h_l[r]²) and into the
/// temporal terms (regressor: the product of every mode's row).
///
/// Records are in ascending linear order and the last mode varies slowest,
/// so each last-mode row's records form one contiguous run: its gradient
/// row and trace lanes stay in registers for the run and are stored when
/// the index moves on. The other modes' rows take their records in the same
/// ascending order straight in memory. The temporal sums keep lane-wise
/// partials per kReductionBlock records, added to `grads` in block order.
template <size_t kR, size_t kN>
void SofiaStepPass(const CooList& coo, const double* y,
                   const std::vector<Matrix>& factors, const double* u_hat,
                   const SofiaStepRobust& robust, size_t rank, double* sigma,
                   double* forecast, double* outliers, StepGradients* grads) {
  const size_t R = kR == 0 ? rank : kR;
  const size_t N = kN == 0 ? coo.order() : kN;
  const size_t last = N - 1;
  const size_t nnz = coo.nnz();
  const double phi = robust.phi;
  const double k = robust.huber_k;
  const double ck = robust.biweight_ck;
  const bool reject = robust.reject_outliers;
  const bool scale_first = robust.scale_before_reject;

  PerMode<kN, const double*> factor_buf;
  PerMode<kN, double*> grad_buf, trace_buf;
  const double** factor = factor_buf.get(N);
  double** grad = grad_buf.get(N);
  double** trace = trace_buf.get(N);
  for (size_t l = 0; l < N; ++l) {
    factor[l] = factors[l].data();
    grad[l] = grads->row_grads[l].data();
    trace[l] = grads->row_trace[l].data();
  }
  constexpr size_t kRegressors = kN == 0 || kR == 0 ? 0 : kN * kR;
  RankBuffer<kRegressors> h_buf;
  RankBuffer<kR> full_buf, run_grad_buf, run_trace_buf, block_grad_buf,
      block_trace_buf;
  double* SOFIA_RESTRICT h = h_buf.get(N * R);
  double* SOFIA_RESTRICT full = full_buf.get(R);
  double* SOFIA_RESTRICT run_grad = run_grad_buf.get(R);
  double* SOFIA_RESTRICT run_trace = run_trace_buf.get(R);
  double* SOFIA_RESTRICT block_grad = block_grad_buf.get(R);
  double* SOFIA_RESTRICT block_trace = block_trace_buf.get(R);

  size_t run_row = nnz == 0 ? 0 : coo.Coords(0)[last];
  simd::Fill(run_grad, R, 0.0);
  simd::Fill(run_trace, R, 0.0);
  auto store_run = [&]() {
    simd::Copy(grad[last] + run_row * R, run_grad, R);
    double t = 0.0;
    for (size_t r = 0; r < R; ++r) t += run_trace[r];
    trace[last][run_row] = t;
  };

  for (size_t begin = 0; begin < nnz; begin += kReductionBlock) {
    const size_t end = std::min(begin + kReductionBlock, nnz);
    simd::Fill(block_grad, R, 0.0);
    simd::Fill(block_trace, R, 0.0);
    for (size_t rec = begin; rec < end; ++rec) {
      const uint32_t* idx = coo.Coords(rec);
      if (idx[last] != run_row) {
        store_run();
        run_row = idx[last];
        simd::Fill(run_grad, R, 0.0);
        simd::Fill(run_trace, R, 0.0);
      }
      simd::Copy(full, factor[0] + idx[0] * R, R);
      for (size_t l = 1; l < N; ++l) {
        simd::MulIn(full, factor[l] + idx[l] * R, R);
      }
      for (size_t l = 0; l < N; ++l) {
        double* SOFIA_RESTRICT hl = h + l * R;
        simd::Copy(hl, u_hat, R);
        for (size_t m = 0; m < N; ++m) {
          if (m != l) simd::MulIn(hl, factor[m] + idx[m] * R, R);
        }
      }

      // Eq. (20) at this entry, then Eqs. (21) and (8).
      const double* h_last = h + last * R;
      const double* row_last = factor[last] + idx[last] * R;
      double f = 0.0;
      for (size_t r = 0; r < R; ++r) f += h_last[r] * row_last[r];
      const size_t lin = coo.LinearIndex(rec);
      const double yv = y[lin];
      const double resid = yv - f;
      const double sig = sigma[lin];
      const double z = resid / sig;
      double o = 0.0;
      if (scale_first) {
        const double updated = UpdateErrorScaleStandardized(z, sig, phi, k, ck);
        sigma[lin] = updated;
        if (reject) o = resid - HuberPsi(resid / updated, k) * updated;
      } else {
        if (reject) o = resid - HuberPsi(z, k) * sig;
        sigma[lin] = UpdateErrorScaleStandardized(z, sig, phi, k, ck);
      }
      forecast[rec] = f;
      outliers[rec] = o;
      const double e = yv - o - f;

      // Eqs. (24)-(25): gradients and curvature traces.
      for (size_t l = 0; l < last; ++l) {
        const double* hl = h + l * R;
        double& t = trace[l][idx[l]];
        for (size_t r = 0; r < R; ++r) t += hl[r] * hl[r];
        if (e != 0.0) simd::MulAddIn(grad[l] + idx[l] * R, e, hl, R);
      }
      simd::MulArrAddIn(run_trace, h_last, h_last, R);
      simd::MulArrAddIn(block_trace, full, full, R);
      if (e != 0.0) {
        simd::MulAddIn(run_grad, e, h_last, R);
        simd::MulAddIn(block_grad, e, full, R);
      }
    }
    double t = 0.0;
    for (size_t r = 0; r < R; ++r) {
      grads->temporal_grad[r] += block_grad[r];
      t += block_trace[r];
    }
    grads->temporal_trace += t;
  }
  if (nnz > 0) store_run();
}

/// The RLS sweep of CooOlstecSweep over every record, in record order.
template <size_t kR, size_t kN>
void OlstecSweepPass(const CooList& coo, const double* values,
                     const double* w, double forgetting, size_t rank,
                     double* const* factor, double* const* cov) {
  const size_t R = kR == 0 ? rank : kR;
  const size_t N = kN == 0 ? coo.order() : kN;
  const double inv_forgetting = 1.0 / forgetting;
  RankBuffer<kR> h_buf, ph_buf;
  double* SOFIA_RESTRICT h = h_buf.get(R);
  double* SOFIA_RESTRICT ph = ph_buf.get(R);
  for (size_t rec = 0; rec < coo.nnz(); ++rec) {
    const uint32_t* idx = coo.Coords(rec);
    const double value = values[rec];
    for (size_t mode = 0; mode < N; ++mode) {
      for (size_t r = 0; r < R; ++r) h[r] = w[r];
      for (size_t l = 0; l < N; ++l) {
        if (l == mode) continue;
        const double* row = factor[l] + idx[l] * R;
        for (size_t r = 0; r < R; ++r) h[r] *= row[r];
      }
      double* SOFIA_RESTRICT p = cov[mode] + idx[mode] * R * R;
      double hph = 0.0;
      for (size_t r = 0; r < R; ++r) {
        double s = 0.0;
        for (size_t q = 0; q < R; ++q) s += p[r * R + q] * h[q];
        ph[r] = s;
      }
      for (size_t r = 0; r < R; ++r) hph += h[r] * ph[r];
      const double inv_denom = 1.0 / (forgetting + hph);
      double* SOFIA_RESTRICT urow = factor[mode] + idx[mode] * R;
      double pred = 0.0;
      for (size_t r = 0; r < R; ++r) pred += urow[r] * h[r];
      const double err = value - pred;
      for (size_t r = 0; r < R; ++r) {
        const double gain = ph[r] * inv_denom;
        urow[r] += gain * err;
        for (size_t q = 0; q < R; ++q) {
          p[r * R + q] = (p[r * R + q] - gain * ph[q]) * inv_forgetting;
        }
      }
    }
  }
}

/// Shapes `grads` to `factors` (reusing its storage) and zeroes it.
void ResetStepGradients(const std::vector<Matrix>& factors, size_t rank,
                        StepGradients* grads) {
  grads->row_grads.resize(factors.size());
  grads->row_trace.resize(factors.size());
  for (size_t n = 0; n < factors.size(); ++n) {
    Matrix& g = grads->row_grads[n];
    if (g.rows() != factors[n].rows() || g.cols() != rank) {
      g = Matrix(factors[n].rows(), rank, 0.0);
    } else {
      std::fill(g.data(), g.data() + g.rows() * g.cols(), 0.0);
    }
    grads->row_trace[n].assign(factors[n].rows(), 0.0);
  }
  grads->temporal_grad.assign(rank, 0.0);
  grads->temporal_trace = 0.0;
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
  const PaddedRows rows(factors, /*weights=*/nullptr, mode, rank);
  DispatchRowSystems(coo.order(), rank, [&](auto rank_tag, auto order_tag) {
    CooRowSystemsImpl<decltype(rank_tag)::value, decltype(order_tag)::value>(
        coo, values, rows, mode, pool, rank, &sys);
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
  const PaddedRows rows(factors, temporal_row.data(), mode, rank);
  DispatchRowSystems(coo.order(), rank, [&](auto rank_tag, auto order_tag) {
    CooRowSystemsImpl<decltype(rank_tag)::value, decltype(order_tag)::value>(
        coo, values, rows, mode, pool, rank, &sys);
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

  const PaddedRows rows(factors, temporal_row.data(), mode, rank);
  DispatchRowSystems(coo.order(), rank, [&](auto rank_tag, auto order_tag) {
    CooProximalRowUpdatesImpl<decltype(rank_tag)::value,
                              decltype(order_tag)::value>(
        coo, values, rows, mode, previous, mu, pool, rank, u);
  });
}

NormalSystem CooNormalSystem(const CooList& coo,
                             const std::vector<double>& values,
                             const std::vector<Matrix>& factors,
                             WorkerPool* pool) {
  SOFIA_CHECK_EQ(values.size(), coo.nnz());
  const size_t rank = factors.empty() ? 0 : factors[0].cols();
  CheckFactors(coo, factors, rank);

  // Fixed kReductionBlock-record blocks, each writing its [B | c] to its
  // own partial, added in block order: the same sums on every pool.
  const size_t nnz = coo.nnz();
  const size_t num_blocks = (nnz + kReductionBlock - 1) / kReductionBlock;
  const size_t partial_size = rank * rank + rank;
  std::vector<double> partials(num_blocks * partial_size, 0.0);
  const size_t no_mode = factors.size();  // h takes every mode.
  const PaddedRows rows(factors, /*weights=*/nullptr, no_mode, rank);
  DispatchRowSystems(coo.order(), rank, [&](auto rank_tag, auto order_tag) {
    auto task = [&](auto lanes, size_t block) {
      double* out = partials.data() + block * partial_size;
      const size_t begin = block * kReductionBlock;
      AccumulateNormalSystem<decltype(rank_tag)::value,
                             decltype(order_tag)::value,
                             typename decltype(lanes)::type, false>(
          coo, values, rows, no_mode, begin,
          std::min(begin + kReductionBlock, nnz), rank, out, out + rank * rank);
    };
    RunTasks(pool, num_blocks, simd::SelectLanes(task));
  });

  NormalSystem sys;
  sys.b = Matrix(rank, rank);
  sys.c.assign(rank, 0.0);
  for (size_t block = 0; block < num_blocks; ++block) {
    const double* out = partials.data() + block * partial_size;
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
  std::vector<double> partials(num_blocks, 0.0);
  const std::vector<FactorView> views = MakeViews(factors);
  DispatchRank(rank, [&](auto tag) {
    CooResidualBlocksImpl<decltype(tag)::value>(
        coo, values, views, pool, rank, num_blocks, partials.data());
  });
  double total = 0.0;
  for (size_t block = 0; block < num_blocks; ++block) total += partials[block];
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

void CooSofiaStep(const CooList& coo, const DenseTensor& y,
                  const std::vector<Matrix>& factors,
                  const std::vector<double>& u_hat,
                  const SofiaStepRobust& robust, DenseTensor* sigma,
                  std::vector<double>* forecast,
                  std::vector<double>* outliers, StepGradients* grads) {
  static const obs::KernelStats kStats =
      obs::MakeKernelStats("coo.sofia_step");
  const size_t rank = factors.empty() ? 0 : factors[0].cols();
  obs::CountKernel(kStats, coo.nnz(),
                   2 * rank * coo.order() * (coo.order() + 2));
  CheckFactors(coo, factors, rank);
  SOFIA_CHECK_EQ(u_hat.size(), rank);
  SOFIA_CHECK(y.shape() == coo.shape());
  SOFIA_CHECK(sigma->shape() == coo.shape());

  ResetStepGradients(factors, rank, grads);
  forecast->resize(coo.nnz());
  outliers->resize(coo.nnz());
  DispatchOrder<2>(coo.order(), [&](auto order_tag) {
    DispatchRank(rank, [&](auto rank_tag) {
      auto pass = [&](auto, size_t) {
        SofiaStepPass<decltype(rank_tag)::value, decltype(order_tag)::value>(
            coo, y.data(), factors, u_hat.data(), robust, rank,
            sigma->data(), forecast->data(), outliers->data(), grads);
      };
      simd::SelectLanes(pass)(0);
    });
  });
}

void CooOlstecSweep(const CooList& coo, const std::vector<double>& values,
                    const std::vector<double>& w, double forgetting,
                    std::vector<Matrix>* factors, std::vector<Matrix>* cov) {
  static const obs::KernelStats kStats =
      obs::MakeKernelStats("coo.olstec_sweep");
  const size_t rank = factors->empty() ? 0 : (*factors)[0].cols();
  obs::CountKernel(kStats, coo.nnz(),
                   coo.order() * rank * (4 * rank + coo.order() + 6));
  CheckFactors(coo, *factors, rank);
  SOFIA_CHECK_EQ(values.size(), coo.nnz());
  SOFIA_CHECK_EQ(w.size(), rank);
  SOFIA_CHECK_EQ(cov->size(), factors->size());
  const size_t order = coo.order();
  std::vector<double*> factor(order), block(order);
  for (size_t l = 0; l < order; ++l) {
    SOFIA_CHECK_EQ((*cov)[l].rows(), (*factors)[l].rows() * rank);
    SOFIA_CHECK_EQ((*cov)[l].cols(), rank);
    factor[l] = (*factors)[l].data();
    block[l] = (*cov)[l].data();
  }
  DispatchOrder<2>(order, [&](auto order_tag) {
    DispatchRank(rank, [&](auto rank_tag) {
      auto pass = [&](auto, size_t) {
        OlstecSweepPass<decltype(rank_tag)::value, decltype(order_tag)::value>(
            coo, values.data(), w.data(), forgetting, rank, factor.data(),
            block.data());
      };
      simd::SelectLanes(pass)(0);
    });
  });
}

double CooDataNorm(const std::vector<double>& values) {
  double s = 0.0;
  for (double v : values) s += v * v;
  return std::sqrt(s);
}

}  // namespace sofia
