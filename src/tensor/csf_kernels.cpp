#include "tensor/csf_kernels.hpp"

#include "obs/kernel_stats.hpp"

#include <algorithm>

#include "linalg/solve.hpp"
#include "tensor/kernel_dispatch.hpp"
#include "tensor/simd.hpp"
#include "util/check.hpp"

namespace sofia {

namespace {

using kernel::DispatchRank;
using kernel::FactorView;
using kernel::MakeViews;
using kernel::RankBuffer;
using kernel::RankSquareBuffer;
using kernel::ReduceScratch;

/// Root nodes per task in the slab-blocked reductions (normal system,
/// temporal gradient, gathers). Fixed — never derived from the thread
/// count — so the partial-sum tree is identical for every pool.
constexpr size_t kRootSlab = 256;

void CheckFactors(const CsfTensor& csf, const std::vector<Matrix>& factors,
                  size_t rank) {
  SOFIA_CHECK_EQ(factors.size(), csf.order());
  for (size_t n = 0; n < factors.size(); ++n) {
    SOFIA_CHECK_EQ(factors[n].rows(), csf.shape().dim(n));
    SOFIA_CHECK_EQ(factors[n].cols(), rank);
  }
}

/// Per-task traversal scratch: one R-vector per tree level (plus the base
/// prefix). Stack storage for the common small (order, rank) pairs.
struct LevelBuffer {
  double* get(size_t doubles) {
    if (doubles <= sizeof(fixed) / sizeof(fixed[0])) return fixed;
    dynamic.resize(doubles);
    return dynamic.data();
  }
  alignas(64) double fixed[5 * 16];  // Up to order-4 trees at rank 16.
  std::vector<double> dynamic;
};

/// Flattened per-level view of one tree: node ids, child offsets, and the
/// row base of the factor matrix this level multiplies — hoisted out of
/// the traversal loops so the inner nests touch only raw pointers.
struct LevelView {
  const uint32_t* ids;
  const size_t* ptr;   // Null at the leaf level.
  const double* fdata;
  size_t fcols;
};

std::vector<LevelView> MakeLevelViews(const CsfTree& t,
                                      const FactorView* views) {
  const size_t order = t.level_mode.size();
  std::vector<LevelView> lv(order);
  for (size_t l = 0; l < order; ++l) {
    const FactorView& f = views[t.level_mode[l]];
    lv[l] = {t.ids[l].data(), l + 1 < order ? t.ptr[l].data() : nullptr,
             f.data, f.cols};
  }
  return lv;
}

// The traversals come in two flavors per kernel family: a compile-time
// nest for the common tree depths (kOrder 1..4 — the template recursion
// unrolls into plain nested loops the compiler inlines and vectorizes) and
// a dynamic-depth fallback for deeper tensors. Both execute the identical
// arithmetic in the identical order, so they are bitwise interchangeable.

// ------------------------------------------------ upward (MTTKRP) walks

/// Adds the subtree sum Σ values · (⊛ rows below the root) into `acc`: an
/// internal node's child sum is computed once and multiplied by the node's
/// row once — the fiber reuse this storage exists for.
template <size_t kR, size_t kLevel, size_t kOrder>
inline void MttkrpSubtreeFixed(const LevelView* lv, const double* values,
                               const uint32_t* record, size_t v, size_t rank,
                               double* levels, double* acc) {
  const size_t R = kR == 0 ? rank : kR;
  const LevelView& L = lv[kLevel];
  const double* row = L.fdata + static_cast<size_t>(L.ids[v]) * L.fcols;
  if constexpr (kLevel + 1 == kOrder) {
    const double val = values[record[v]];
    if (val == 0.0) return;
    simd::MulAddIn(acc, val, row, R);
  } else {
    double* child = levels + (kLevel + 1) * R;
    simd::Fill(child, R, 0.0);
    const size_t end = L.ptr[v + 1];
    for (size_t w = L.ptr[v]; w < end; ++w) {
      MttkrpSubtreeFixed<kR, kLevel + 1, kOrder>(lv, values, record, w, rank,
                                                 levels, child);
    }
    simd::MulArrAddIn(acc, row, child, R);
  }
}

template <size_t kR>
void MttkrpSubtreeDyn(const LevelView* lv, const double* values,
                      const uint32_t* record, size_t l, size_t v,
                      size_t order, size_t rank, double* levels,
                      double* acc) {
  const size_t R = kR == 0 ? rank : kR;
  const LevelView& L = lv[l];
  const double* row = L.fdata + static_cast<size_t>(L.ids[v]) * L.fcols;
  if (l + 1 == order) {
    const double val = values[record[v]];
    if (val == 0.0) return;
    simd::MulAddIn(acc, val, row, R);
    return;
  }
  double* child = levels + (l + 1) * R;
  simd::Fill(child, R, 0.0);
  for (size_t w = L.ptr[v]; w < L.ptr[v + 1]; ++w) {
    MttkrpSubtreeDyn<kR>(lv, values, record, l + 1, w, order, rank, levels,
                         child);
  }
  simd::MulArrAddIn(acc, row, child, R);
}

/// MTTKRP accumulation of one root node into its output row (the root
/// mode's own row is excluded from the product).
template <size_t kR>
inline void MttkrpRoot(const LevelView* lv, const double* values,
                       const uint32_t* record, size_t a, size_t order,
                       size_t rank, double* levels, double* orow) {
  const size_t R = kR == 0 ? rank : kR;
  if (order == 1) {
    const double val = values[record[a]];
    for (size_t r = 0; r < R; ++r) orow[r] += val;
    return;
  }
  const size_t begin = lv[0].ptr[a];
  const size_t end = lv[0].ptr[a + 1];
  switch (order) {
    case 2:
      for (size_t w = begin; w < end; ++w) {
        MttkrpSubtreeFixed<kR, 1, 2>(lv, values, record, w, rank, levels,
                                     orow);
      }
      break;
    case 3:
      for (size_t w = begin; w < end; ++w) {
        MttkrpSubtreeFixed<kR, 1, 3>(lv, values, record, w, rank, levels,
                                     orow);
      }
      break;
    case 4:
      for (size_t w = begin; w < end; ++w) {
        MttkrpSubtreeFixed<kR, 1, 4>(lv, values, record, w, rank, levels,
                                     orow);
      }
      break;
    default:
      for (size_t w = begin; w < end; ++w) {
        MttkrpSubtreeDyn<kR>(lv, values, record, 1, w, order, rank, levels,
                             orow);
      }
  }
}

// ------------------------------------------- downward (prefix) walks

/// Extends `prefix` by the node's factor row at every internal level and
/// hands each leaf the pair (prefix through the leaf's parent, leaf row):
/// consumers form h = prefix ⊛ row in registers instead of a per-leaf
/// round-trip through the scratch buffer. A null row means h = prefix (the
/// order-1 excluded-root degenerate). Per-level products are computed once
/// per fiber node and shared by the whole subtree; rows multiply in
/// tree-level order (the fiber grouping order), a reassociation of the Coo
/// kernels' ascending-mode product (≤1e-12 parity).
template <size_t kR, size_t kLevel, size_t kOrder, typename LeafFn>
inline void PrefixDownFixed(const LevelView* lv, size_t v, size_t rank,
                            const double* prefix, double* levels,
                            const LeafFn& leaf_fn) {
  const size_t R = kR == 0 ? rank : kR;
  const LevelView& L = lv[kLevel];
  const double* row = L.fdata + static_cast<size_t>(L.ids[v]) * L.fcols;
  if constexpr (kLevel + 1 == kOrder) {
    leaf_fn(v, prefix, row);
  } else {
    double* next = levels + (kLevel + 1) * R;
    simd::MulTo(next, prefix, row, R);
    const size_t end = L.ptr[v + 1];
    for (size_t w = L.ptr[v]; w < end; ++w) {
      PrefixDownFixed<kR, kLevel + 1, kOrder>(lv, w, rank, next, levels,
                                              leaf_fn);
    }
  }
}

template <size_t kR, typename LeafFn>
void PrefixDownDyn(const LevelView* lv, size_t l, size_t v, size_t order,
                   size_t rank, const double* prefix, double* levels,
                   const LeafFn& leaf_fn) {
  const size_t R = kR == 0 ? rank : kR;
  const LevelView& L = lv[l];
  const double* row = L.fdata + static_cast<size_t>(L.ids[v]) * L.fcols;
  if (l + 1 == order) {
    leaf_fn(v, prefix, row);
    return;
  }
  double* next = levels + (l + 1) * R;
  simd::MulTo(next, prefix, row, R);
  for (size_t w = L.ptr[v]; w < L.ptr[v + 1]; ++w) {
    PrefixDownDyn<kR>(lv, l + 1, w, order, rank, next, levels, leaf_fn);
  }
}

/// Full walk of one root's subtree with the root row included in the
/// prefix (the global kernels: normal system, gathers, temporal terms).
template <size_t kR, typename LeafFn>
inline void RootIncludedWalk(const LevelView* lv, size_t a, size_t order,
                             size_t rank, const double* base, double* levels,
                             const LeafFn& leaf_fn) {
  switch (order) {
    case 1: PrefixDownFixed<kR, 0, 1>(lv, a, rank, base, levels, leaf_fn);
      break;
    case 2: PrefixDownFixed<kR, 0, 2>(lv, a, rank, base, levels, leaf_fn);
      break;
    case 3: PrefixDownFixed<kR, 0, 3>(lv, a, rank, base, levels, leaf_fn);
      break;
    case 4: PrefixDownFixed<kR, 0, 4>(lv, a, rank, base, levels, leaf_fn);
      break;
    default:
      PrefixDownDyn<kR>(lv, 0, a, order, rank, base, levels, leaf_fn);
  }
}

/// Walk of one root's subtree with the root row excluded — the regressor h
/// of the row-targeted kernels omits the root mode. Order-1 trees have no
/// non-root level: h degenerates to `base` at the root's own leaf.
template <size_t kR, typename LeafFn>
inline void RootExcludedWalk(const LevelView* lv, size_t a, size_t order,
                             size_t rank, const double* base, double* levels,
                             const LeafFn& leaf_fn) {
  if (order == 1) {
    leaf_fn(a, base, /*row=*/nullptr);
    return;
  }
  const size_t begin = lv[0].ptr[a];
  const size_t end = lv[0].ptr[a + 1];
  switch (order) {
    case 2:
      for (size_t w = begin; w < end; ++w) {
        PrefixDownFixed<kR, 1, 2>(lv, w, rank, base, levels, leaf_fn);
      }
      break;
    case 3:
      for (size_t w = begin; w < end; ++w) {
        PrefixDownFixed<kR, 1, 3>(lv, w, rank, base, levels, leaf_fn);
      }
      break;
    case 4:
      for (size_t w = begin; w < end; ++w) {
        PrefixDownFixed<kR, 1, 4>(lv, w, rank, base, levels, leaf_fn);
      }
      break;
    default:
      for (size_t w = begin; w < end; ++w) {
        PrefixDownDyn<kR>(lv, 1, w, order, rank, base, levels, leaf_fn);
      }
  }
}

// ------------------------------------------------------- kernel bodies

template <size_t kR>
void CsfMttkrpImpl(const CsfTensor& csf, const std::vector<double>& values,
                   const std::vector<FactorView>& views, size_t mode,
                   WorkerPool* pool, size_t rank,
                   Matrix* out) {
  const CsfTree& t = csf.tree(mode);
  const size_t order = csf.order();
  const std::vector<LevelView> lv = MakeLevelViews(t, views.data());
  const uint32_t* record = t.record.data();
  // One task per root node: each owns exactly its output row.
  auto task = [&](size_t a) {
    const size_t R = kR == 0 ? rank : kR;
    LevelBuffer buf;
    double* levels = buf.get((order + 1) * R);
    MttkrpRoot<kR>(lv.data(), values.data(), record, a, order, rank, levels,
                   out->Row(t.ids[0][a]));
  };
  RunTasks(pool, t.num_roots(), simd::Select(task));
}

/// h = prefix ⊛ row, or h = prefix for the null-row degenerate — computed
/// into a stack buffer the compiler keeps in registers.
template <size_t kR>
inline void LeafProduct(const double* prefix, const double* row, size_t rank,
                        double* h) {
  const size_t R = kR == 0 ? rank : kR;
  if (row != nullptr) {
    simd::MulTo(h, prefix, row, R);
  } else {
    simd::Copy(h, prefix, R);
  }
}

/// Rank-1 update of one leaf into a packed [B | c] system — the
/// AccumulateSliceRowSystem leaf step of sparse_kernels on a fiber-shared
/// regressor prefix.
template <size_t kR>
inline void RowSystemLeaf(double ystar, const double* h, size_t rank,
                          double* bdata, double* c) {
  const size_t R = kR == 0 ? rank : kR;
  // c and each triangle row of B are independent accumulators: hoisting
  // the c update out of the row loop changes no sum's order.
  simd::MulAddIn(c, ystar, h, R);
  for (size_t r = 0; r < R; ++r) {
    simd::MulAddIn(bdata + r * R + r, h[r], h + r, R - r);
  }
}

template <size_t kR>
void MirrorUpper(size_t rank, double* bdata) {
  const size_t R = kR == 0 ? rank : kR;
  for (size_t r = 0; r < R; ++r) {
    for (size_t q = r + 1; q < R; ++q) bdata[q * R + r] = bdata[r * R + q];
  }
}

template <size_t kR>
void CsfRowSystemsImpl(const CsfTensor& csf, const std::vector<double>& values,
                       const std::vector<FactorView>& views,
                       const double* weights, size_t mode, WorkerPool* pool,
                       size_t rank, RowSystems* sys) {
  const CsfTree& t = csf.tree(mode);
  const size_t order = csf.order();
  const std::vector<LevelView> lv = MakeLevelViews(t, views.data());
  const uint32_t* record = t.record.data();
  auto task = [&](size_t a) {
    const size_t R = kR == 0 ? rank : kR;
    LevelBuffer buf;
    RankBuffer<kR> hbuf;
    double* levels = buf.get((order + 1) * R);
    double* SOFIA_RESTRICT h = hbuf.get(R);
    double* base = levels;
    if (weights != nullptr) {
      simd::Copy(base, weights, R);
    } else {
      simd::Fill(base, R, 1.0);
    }
    const size_t row = t.ids[0][a];
    double* bdata = sys->b[row].data();
    double* c = sys->c[row].data();
    RootExcludedWalk<kR>(
        lv.data(), a, order, rank, base, levels,
        [&](size_t leaf, const double* prefix, const double* frow) {
          LeafProduct<kR>(prefix, frow, rank, h);
          RowSystemLeaf<kR>(values[record[leaf]], h, rank, bdata, c);
        });
    MirrorUpper<kR>(rank, bdata);
  };
  RunTasks(pool, t.num_roots(), simd::Select(task));
}

template <size_t kR>
void CsfProximalRowUpdatesImpl(const CsfTensor& csf,
                               const std::vector<double>& values,
                               const std::vector<FactorView>& views,
                               const double* weights, size_t mode,
                               const Matrix& previous, double mu,
                               WorkerPool* pool,
                               size_t rank, Matrix* u) {
  const CsfTree& t = csf.tree(mode);
  const size_t order = csf.order();
  const std::vector<LevelView> lv = MakeLevelViews(t, views.data());
  const uint32_t* record = t.record.data();
  const std::vector<uint32_t>& roots = t.ids[0];  // Ascending root ids.
  // One task per output row (not per root node): rows without observations
  // still run the empty-system short-circuit of ProximalRowSolve, exactly
  // like the Coo kernel's one-task-per-slice partition.
  auto task = [&](size_t row) {
    const size_t R = kR == 0 ? rank : kR;
    LevelBuffer buf;
    double* levels = buf.get((order + 1) * R);
    RankBuffer<kR> cbuf, rhsbuf, hbuf;
    RankSquareBuffer<kR> bbuf, abuf;
    double* b = bbuf.get(R);
    double* c = cbuf.get(R);
    double* h = hbuf.get(R);
    for (size_t e = 0; e < R * R; ++e) b[e] = 0.0;
    for (size_t r = 0; r < R; ++r) c[r] = 0.0;
    const auto it = std::lower_bound(roots.begin(), roots.end(),
                                     static_cast<uint32_t>(row));
    if (it != roots.end() && *it == row) {
      const size_t a = static_cast<size_t>(it - roots.begin());
      double* base = levels;
      if (weights != nullptr) {
        simd::Copy(base, weights, R);
      } else {
        simd::Fill(base, R, 1.0);
      }
      RootExcludedWalk<kR>(
          lv.data(), a, order, rank, base, levels,
          [&](size_t leaf, const double* prefix, const double* frow) {
            LeafProduct<kR>(prefix, frow, rank, h);
            RowSystemLeaf<kR>(values[record[leaf]], h, rank, b, c);
          });
      MirrorUpper<kR>(rank, b);
    }
    ProximalRowSolve(b, c, previous.Row(row), mu, R, abuf.get(R),
                     rhsbuf.get(R), u->Row(row));
  };
  RunTasks(pool, u->rows(), simd::Select(task));
}

template <size_t kR, bool kTrace>
void CsfModeGradientImpl(const CsfTensor& csf,
                         const std::vector<double>& residuals,
                         const std::vector<FactorView>& views,
                         const double* temporal_row, size_t mode,
                         WorkerPool* pool, size_t rank,
                         Matrix* grad, std::vector<double>* trace) {
  const CsfTree& t = csf.tree(mode);
  const size_t order = csf.order();
  const std::vector<LevelView> lv = MakeLevelViews(t, views.data());
  const uint32_t* record = t.record.data();
  auto task = [&](size_t a) {
    const size_t R = kR == 0 ? rank : kR;
    LevelBuffer buf;
    RankBuffer<kR> hbuf;
    double* levels = buf.get((order + 1) * R);
    double* SOFIA_RESTRICT h = hbuf.get(R);
    double* base = levels;
    simd::Copy(base, temporal_row, R);
    const size_t row = t.ids[0][a];
    double* grow = grad->Row(row);
    double tr = 0.0;
    RootExcludedWalk<kR>(
        lv.data(), a, order, rank, base, levels,
        [&](size_t leaf, const double* prefix, const double* frow) {
          LeafProduct<kR>(prefix, frow, rank, h);
          const double resid = residuals[record[leaf]];
          // Trace and gradient accumulate into independent slots, so the
          // loops split (and vectorize) without changing any sum's order.
          if constexpr (kTrace) {
            for (size_t r = 0; r < R; ++r) tr += h[r] * h[r];
          }
          if (resid != 0.0) simd::MulAddIn(grow, resid, h, R);
        });
    if constexpr (kTrace) (*trace)[row] = tr;
  };
  RunTasks(pool, t.num_roots(), simd::Select(task));
}

/// Slab-blocked full-product reduction over the mode-0 tree: each slab of
/// root nodes owns a packed partial accumulator, combined in slab order by
/// the caller. `LeafFn(record, h, partial)` accumulates one leaf; h is
/// formed here in a task-scoped buffer (no per-leaf scratch construction).
template <size_t kR, typename LeafFn>
void RootSlabReduce(const CsfTensor& csf, const std::vector<FactorView>& views,
                    const double* base_prefix, WorkerPool* pool, size_t rank,
                    size_t partial_stride,
                    double* partials, const LeafFn& leaf_fn) {
  const CsfTree& t = csf.tree(0);
  const size_t order = csf.order();
  const std::vector<LevelView> lv = MakeLevelViews(t, views.data());
  const uint32_t* record = t.record.data();
  const size_t num_slabs = (t.num_roots() + kRootSlab - 1) / kRootSlab;
  auto task = [&](size_t slab) {
    const size_t R = kR == 0 ? rank : kR;
    LevelBuffer buf;
    RankBuffer<kR> hbuf;
    double* levels = buf.get((order + 1) * R);
    double* SOFIA_RESTRICT h = hbuf.get(R);
    double* base = levels;
    simd::Copy(base, base_prefix, R);
    double* out = partials + slab * partial_stride;
    const size_t begin = slab * kRootSlab;
    const size_t end = std::min(begin + kRootSlab, t.num_roots());
    for (size_t a = begin; a < end; ++a) {
      RootIncludedWalk<kR>(
          lv.data(), a, order, rank, base, levels,
          [&](size_t leaf, const double* prefix, const double* frow) {
            LeafProduct<kR>(prefix, frow, rank, h);
            leaf_fn(record[leaf], h, out);
          });
    }
  };
  RunTasks(pool, num_slabs, simd::Select(task));
}

template <size_t kR>
void CsfKruskalGatherImpl(const CsfTensor& csf,
                          const std::vector<FactorView>& views,
                          const double* temporal_row, WorkerPool* pool,
                          size_t rank,
                          std::vector<double>* out) {
  const CsfTree& t = csf.tree(0);
  const size_t order = csf.order();
  const std::vector<LevelView> lv = MakeLevelViews(t, views.data());
  const uint32_t* record = t.record.data();
  const size_t num_slabs = (t.num_roots() + kRootSlab - 1) / kRootSlab;
  // Slab tasks; every leaf owns its distinct out[record] slot.
  auto task = [&](size_t slab) {
    const size_t R = kR == 0 ? rank : kR;
    LevelBuffer buf;
    double* levels = buf.get((order + 1) * R);
    double* base = levels;
    simd::Copy(base, temporal_row, R);
    const size_t begin = slab * kRootSlab;
    const size_t end = std::min(begin + kRootSlab, t.num_roots());
    double* outp = out->data();
    for (size_t a = begin; a < end; ++a) {
      RootIncludedWalk<kR>(
          lv.data(), a, order, rank, base, levels,
          [&](size_t leaf, const double* prefix, const double* frow) {
            double v = 0.0;
            for (size_t r = 0; r < R; ++r) v += prefix[r] * frow[r];
            outp[record[leaf]] = v;
          });
    }
  };
  RunTasks(pool, num_slabs, simd::Select(task));
}

}  // namespace

Matrix CsfMttkrp(const CsfTensor& csf, const std::vector<double>& values,
                 const std::vector<Matrix>& factors, size_t mode,
                 WorkerPool* pool) {
  static const obs::KernelStats kStats = obs::MakeKernelStats("csf.mttkrp");
  obs::CountKernel(kStats, csf.nnz(), 2 * (factors.empty() ? 0 : factors[0].cols()) * csf.order());
  SOFIA_CHECK_LT(mode, csf.order());
  SOFIA_CHECK_EQ(values.size(), csf.nnz());
  const size_t rank = factors.empty() ? 0 : factors[0].cols();
  CheckFactors(csf, factors, rank);

  Matrix out(csf.shape().dim(mode), rank, 0.0);
  const std::vector<FactorView> views = MakeViews(factors);
  DispatchRank(rank, [&](auto tag) {
    CsfMttkrpImpl<decltype(tag)::value>(csf, values, views, mode, pool, rank,
                                        &out);
  });
  return out;
}

RowSystems CsfRowSystems(const CsfTensor& csf,
                         const std::vector<double>& values,
                         const std::vector<Matrix>& factors, size_t mode,
                         WorkerPool* pool) {
  static const obs::KernelStats kStats = obs::MakeKernelStats("csf.row_systems");
  obs::CountKernel(kStats, csf.nnz(), (factors.empty() ? 0 : factors[0].cols()) * (csf.order() + 2 * (factors.empty() ? 0 : factors[0].cols())));
  SOFIA_CHECK_LT(mode, csf.order());
  SOFIA_CHECK_EQ(values.size(), csf.nnz());
  const size_t rank = factors.empty() ? 0 : factors[0].cols();
  CheckFactors(csf, factors, rank);

  RowSystems sys;
  sys.b.assign(csf.shape().dim(mode), Matrix(rank, rank));
  sys.c.assign(csf.shape().dim(mode), std::vector<double>(rank, 0.0));
  const std::vector<FactorView> views = MakeViews(factors);
  DispatchRank(rank, [&](auto tag) {
    CsfRowSystemsImpl<decltype(tag)::value>(csf, values, views,
                                            /*weights=*/nullptr, mode,
                                            pool, rank, &sys);
  });
  return sys;
}

RowSystems CsfWeightedRowSystems(const CsfTensor& csf,
                                 const std::vector<double>& values,
                                 const std::vector<Matrix>& factors,
                                 const std::vector<double>& temporal_row,
                                 size_t mode, WorkerPool* pool) {
  SOFIA_CHECK_LT(mode, csf.order());
  SOFIA_CHECK_EQ(values.size(), csf.nnz());
  const size_t rank = factors.empty() ? 0 : factors[0].cols();
  CheckFactors(csf, factors, rank);
  SOFIA_CHECK_EQ(temporal_row.size(), rank);

  RowSystems sys;
  sys.b.assign(csf.shape().dim(mode), Matrix(rank, rank));
  sys.c.assign(csf.shape().dim(mode), std::vector<double>(rank, 0.0));
  const std::vector<FactorView> views = MakeViews(factors);
  DispatchRank(rank, [&](auto tag) {
    CsfRowSystemsImpl<decltype(tag)::value>(csf, values, views,
                                            temporal_row.data(), mode,
                                            pool, rank, &sys);
  });
  return sys;
}

void CsfProximalRowUpdates(const CsfTensor& csf,
                           const std::vector<double>& values,
                           const std::vector<Matrix>& factors,
                           const std::vector<double>& temporal_row,
                           size_t mode, const Matrix& previous, double mu,
                           Matrix* u, WorkerPool* pool) {
  SOFIA_CHECK_LT(mode, csf.order());
  SOFIA_CHECK_EQ(values.size(), csf.nnz());
  const size_t rank = factors.empty() ? 0 : factors[0].cols();
  CheckFactors(csf, factors, rank);
  SOFIA_CHECK_EQ(temporal_row.size(), rank);
  SOFIA_CHECK_EQ(u->rows(), csf.shape().dim(mode));
  SOFIA_CHECK_EQ(u->cols(), rank);
  SOFIA_CHECK_EQ(previous.rows(), u->rows());
  SOFIA_CHECK_EQ(previous.cols(), rank);

  const std::vector<FactorView> views = MakeViews(factors);
  DispatchRank(rank, [&](auto tag) {
    CsfProximalRowUpdatesImpl<decltype(tag)::value>(
        csf, values, views, temporal_row.data(), mode, previous, mu,
        pool, rank, u);
  });
}

NormalSystem CsfNormalSystem(const CsfTensor& csf,
                             const std::vector<double>& values,
                             const std::vector<Matrix>& factors,
                             WorkerPool* pool) {
  static const obs::KernelStats kStats = obs::MakeKernelStats("csf.normal_system");
  obs::CountKernel(kStats, csf.nnz(), (factors.empty() ? 0 : factors[0].cols()) * (2 + 2 * (factors.empty() ? 0 : factors[0].cols())));
  SOFIA_CHECK_EQ(values.size(), csf.nnz());
  const size_t rank = factors.empty() ? 0 : factors[0].cols();
  CheckFactors(csf, factors, rank);

  const size_t num_slabs =
      (csf.tree(0).num_roots() + kRootSlab - 1) / kRootSlab;
  const size_t stride = rank * rank + rank;
  ReduceScratch scratch(pool, num_slabs * stride, rank);
  const std::vector<FactorView> views = MakeViews(factors);
  DispatchRank(rank, [&](auto tag) {
    constexpr size_t kR = decltype(tag)::value;
    RootSlabReduce<kR>(
        csf, views, scratch.ones, pool, rank, stride,
        scratch.partials,
        [&](uint32_t record, const double* h, double* out) {
          const size_t R = kR == 0 ? rank : kR;
          const double v = values[record];
          // c and each full row of B are independent accumulators:
          // hoisting c out of the row loop changes no sum's order.
          simd::MulAddIn(out + R * R, v, h, R);
          for (size_t r = 0; r < R; ++r) {
            simd::MulAddIn(out + r * R, h[r], h, R);
          }
        });
  });

  NormalSystem sys;
  sys.b = Matrix(rank, rank);
  sys.c.assign(rank, 0.0);
  for (size_t slab = 0; slab < num_slabs; ++slab) {
    const double* out = scratch.partials + slab * stride;
    double* bdata = sys.b.data();
    for (size_t e = 0; e < rank * rank; ++e) bdata[e] += out[e];
    for (size_t r = 0; r < rank; ++r) sys.c[r] += out[rank * rank + r];
  }
  return sys;
}

ModeGradients CsfModeGradients(const CsfTensor& csf,
                               const std::vector<double>& residuals,
                               const std::vector<Matrix>& factors,
                               const std::vector<double>& temporal_row,
                               WorkerPool* pool,
                               bool with_traces) {
  SOFIA_CHECK_EQ(residuals.size(), csf.nnz());
  const size_t rank = factors.empty() ? 0 : factors[0].cols();
  CheckFactors(csf, factors, rank);
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
      if (with_traces) {
        CsfModeGradientImpl<decltype(tag)::value, true>(
            csf, residuals, views, temporal_row.data(), mode, pool, rank,
            &g.row_grads[mode], &g.row_trace[mode]);
      } else {
        CsfModeGradientImpl<decltype(tag)::value, false>(
            csf, residuals, views, temporal_row.data(), mode, pool, rank,
            &g.row_grads[mode], nullptr);
      }
    }
  });
  return g;
}

std::vector<double> CsfKruskalGather(const CsfTensor& csf,
                                     const std::vector<Matrix>& factors,
                                     const std::vector<double>& temporal_row,
                                     WorkerPool* pool) {
  std::vector<double> out;
  CsfKruskalGather(csf, factors, temporal_row, &out, pool);
  return out;
}

void CsfKruskalGather(const CsfTensor& csf, const std::vector<Matrix>& factors,
                      const std::vector<double>& temporal_row,
                      std::vector<double>* out, WorkerPool* pool) {
  static const obs::KernelStats kStats = obs::MakeKernelStats("csf.kruskal_gather");
  obs::CountKernel(kStats, csf.nnz(), 2 * (factors.empty() ? 0 : factors[0].cols()) * csf.order());
  const size_t rank = factors.empty() ? 0 : factors[0].cols();
  CheckFactors(csf, factors, rank);
  SOFIA_CHECK_EQ(temporal_row.size(), rank);

  out->resize(csf.nnz());
  const std::vector<FactorView> views = MakeViews(factors);
  DispatchRank(rank, [&](auto tag) {
    CsfKruskalGatherImpl<decltype(tag)::value>(
        csf, views, temporal_row.data(), pool, rank, out);
  });
}

StepGradients CsfStepGradients(const CsfTensor& csf,
                               const std::vector<double>& residuals,
                               const std::vector<Matrix>& factors,
                               const std::vector<double>& temporal_row,
                               WorkerPool* pool) {
  static const obs::KernelStats kStats = obs::MakeKernelStats("csf.step_gradients");
  obs::CountKernel(kStats, csf.nnz(), 2 * (factors.empty() ? 0 : factors[0].cols()) * csf.order() * (csf.order() + 1));
  SOFIA_CHECK_EQ(residuals.size(), csf.nnz());
  const size_t rank = factors.empty() ? 0 : factors[0].cols();
  CheckFactors(csf, factors, rank);
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
  const size_t num_slabs =
      (csf.tree(0).num_roots() + kRootSlab - 1) / kRootSlab;
  const size_t stride = rank + 1;
  ReduceScratch scratch(pool, num_slabs * stride, rank);
  DispatchRank(rank, [&](auto tag) {
    constexpr size_t kR = decltype(tag)::value;
    for (size_t mode = 0; mode < factors.size(); ++mode) {
      CsfModeGradientImpl<kR, true>(csf, residuals, views,
                                    temporal_row.data(), mode, pool, rank,
                                    &g.row_grads[mode], &g.row_trace[mode]);
    }
    // Temporal gradient + trace: full-product reduction over the mode-0
    // tree, slab partials combined in slab order below.
    RootSlabReduce<kR>(
        csf, views, scratch.ones, pool, rank, stride,
        scratch.partials,
        [&](uint32_t record, const double* h, double* out) {
          const size_t R = kR == 0 ? rank : kR;
          const double resid = residuals[record];
          // Independent accumulators: split loops, same sums, same order.
          for (size_t r = 0; r < R; ++r) out[R] += h[r] * h[r];
          if (resid != 0.0) simd::MulAddIn(out, resid, h, R);
        });
  });
  for (size_t slab = 0; slab < num_slabs; ++slab) {
    const double* out = scratch.partials + slab * stride;
    for (size_t r = 0; r < rank; ++r) g.temporal_grad[r] += out[r];
    g.temporal_trace += out[rank];
  }
  return g;
}

}  // namespace sofia
