#ifndef SOFIA_TENSOR_KERNEL_DISPATCH_H_
#define SOFIA_TENSOR_KERNEL_DISPATCH_H_

#include <algorithm>
#include <type_traits>
#include <vector>

#include "linalg/matrix.hpp"
#include "util/shard_executor.hpp"

/// \file kernel_dispatch.hpp
/// \brief Implementation helpers shared by the observed-entry kernel
/// backends (tensor/sparse_kernels.cpp and tensor/csf_kernels.cpp): raw
/// factor views, compile-time rank dispatch, and rank-sized scratch
/// buffers. Internal to the kernel layer — include from .cpp files only.

namespace sofia {
namespace kernel {

/// Records per task in the blocked reductions. Fixed (never derived from the
/// thread count) so the partial-sum tree is identical for every pool.
constexpr size_t kReductionBlock = 4096;

/// Raw row-base view of a factor matrix, snapshotted before the record loop
/// so the inner kernels touch plain pointers instead of Matrix methods.
struct FactorView {
  const double* data;
  size_t cols;
};

inline std::vector<FactorView> MakeViews(const std::vector<Matrix>& factors) {
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

/// Scratch behind the blocked reductions (CSF root slabs, COO record
/// blocks): zeroed per-block partial accumulators plus an optional all-ones
/// weight row. Arena-backed when the pool provides one (ShardExecutor) —
/// the buffers then persist across calls and steps, so a steady-state
/// stream step performs zero scratch allocations
/// (ScratchArena::growth_events pins this). Call-local vector otherwise.
/// The block boundaries and combine order never depend on which storage
/// backs the scratch, so results are bitwise identical either way.
struct ReduceScratch {
  std::vector<double> local;
  double* partials = nullptr;
  double* ones = nullptr;

  ReduceScratch(WorkerPool* pool, size_t partial_count, size_t ones_count) {
    ScratchArena* arena = pool == nullptr ? nullptr : pool->arena();
    if (arena != nullptr) {
      partials = arena->Doubles(arena_slots::kReducePartials, partial_count);
      if (ones_count > 0) {
        ones = arena->RawDoubles(arena_slots::kReduceOnes, ones_count);
      }
    } else {
      local.assign(partial_count + ones_count, 0.0);
      partials = local.data();
      if (ones_count > 0) ones = local.data() + partial_count;
    }
    if (ones_count > 0) std::fill(ones, ones + ones_count, 1.0);
  }
};

}  // namespace kernel
}  // namespace sofia

#endif  // SOFIA_TENSOR_KERNEL_DISPATCH_H_
