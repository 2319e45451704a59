#ifndef SOFIA_TENSOR_SIMD_H_
#define SOFIA_TENSOR_SIMD_H_

#include <cstddef>
#include <functional>

/// \file simd.hpp
/// \brief Runtime-dispatched AVX2+FMA instantiation of the sparse kernels.
///
/// The hot Coo kernels split work into per-task lambdas (one mode slice or
/// record block per task — see sparse_kernels.cpp). Each such
/// body is compiled twice:
///
///  * the *scalar* instantiation — the plain lambda, built under the
///    project-wide flags, bit-identical to the pre-SIMD kernels; and
///  * the *AVX2+FMA* instantiation — the same lambda inlined (flattened)
///    into a `target("avx2,fma")` trampoline, where the explicit Vec4
///    helpers below lower to 256-bit lanes and fused multiply-adds over
///    the rank-blocked inner loops.
///
/// `simd::Select(body)` picks one per kernel call from a process-wide
/// switch that defaults to on when the CPU supports AVX2+FMA. The choice is
/// hoisted out of the task loop, so every task of a call — and hence every
/// thread — runs the same instantiation: the bitwise thread-determinism
/// contract of the kernel layer (owner-per-task writes, fixed combine
/// order) is unaffected by vectorization. Results *between* the two
/// instantiations differ by reassociation/contraction ulps only; the
/// scalar path is the ≤1e-12 parity reference (tests/simd_test.cc).
///
/// Kernels whose outputs are bitwise-pinned against a differently-ordered
/// reference chain (CooKruskalSliceGather vs the dense KruskalSlice fold)
/// and the residual norms (CooResidualSquaredNorm, CooResidualNorm)
/// intentionally stay scalar-only. Every other Coo kernel — SOFIA's step,
/// OLSTEC's RLS sweep, CP-WOPT's loss and gradient included — runs through
/// Select or SelectLanes. The proximal row solves of the fused MAST /
/// OR-MSTC update run one row per lane in an AVX2 body compiled without
/// FMA, so they keep the scalar solve's bits.

#if defined(__GNUC__) && defined(__x86_64__)
#define SOFIA_SIMD_X86 1
#else
#define SOFIA_SIMD_X86 0
#endif

/// Marks the AVX2+FMA trampoline: `flatten` pulls the task body (and its
/// inline callees) into the trampoline so the vectorizer sees the loops
/// under the wider ISA. Out-of-line callees (e.g. ProximalRowSolve, and the
/// lane solve of the fused proximal update) stay calls and keep the
/// arithmetic they were compiled with.
#if SOFIA_SIMD_X86
#define SOFIA_TARGET_AVX2 __attribute__((target("avx2,fma"), flatten))
#else
#define SOFIA_TARGET_AVX2
#endif

/// Compiles a function, and the callees flattened into it, without
/// floating-point contraction, so it multiplies then adds even in builds
/// whose baseline ISA has FMA (-mfma, -march=native): the scalar
/// trampoline of SelectLanes, and the lane solves of the fused proximal
/// update, which must round like linalg/solve.cpp's scalar solves. (GCC
/// only; Clang has no per-function switch and keeps its build-wide default
/// there.)
#if defined(__GNUC__) && !defined(__clang__)
#define SOFIA_NO_CONTRACT __attribute__((optimize("fp-contract=off"), flatten))
#else
#define SOFIA_NO_CONTRACT
#endif

#if defined(__GNUC__) || defined(__clang__)
#define SOFIA_RESTRICT __restrict__
#define SOFIA_ALWAYS_INLINE inline __attribute__((always_inline))
#else
#define SOFIA_RESTRICT
#define SOFIA_ALWAYS_INLINE inline
#endif

namespace sofia::simd {

/// True when this build carries AVX2+FMA instantiations and the CPU
/// executes them (`__builtin_cpu_supports`).
bool Available();

/// Process-wide switch, initialized to Available(). Toggle via SetEnabled
/// (CLI `--simd=on|off`); never enabled beyond Available(). Not
/// synchronized — flip it between runs, not while kernels execute.
bool Enabled();
void SetEnabled(bool enabled);

/// "avx2+fma" when Enabled(), else "scalar" — for bench/CLI banners.
const char* IsaName();

// Lane types (GCC/Clang vector extensions): Vec4 is one ymm register in
// the AVX2+FMA instantiation; Vec2 is the default target's native width
// (one SSE2 register on x86-64). Element-wise ops on either are the plain
// per-element multiplies and adds.
typedef double Vec2 __attribute__((vector_size(16)));
typedef double Vec4 __attribute__((vector_size(32)));

/// Names a lane type without passing a vector by value (a 32-byte vector
/// argument would change the calling convention between the two
/// instantiations).
template <typename V>
struct LaneTag {
  using type = V;
};

#if SOFIA_SIMD_X86
template <typename Body>
SOFIA_TARGET_AVX2 void RunAvx2(const Body& body, size_t task) {
  body(task);
}

template <typename Body>
SOFIA_TARGET_AVX2 void RunAvx2Lanes(const Body& body, size_t task) {
  body(LaneTag<Vec4>{}, task);
}
#endif

template <typename Body>
SOFIA_NO_CONTRACT void RunScalarLanes(const Body& body, size_t task) {
  body(LaneTag<Vec2>{}, task);
}

/// Wraps a kernel task body in the ISA choice. The returned callable
/// borrows `body` — pass it straight to RunTasks within the same full
/// expression; do not store it.
template <typename Body>
std::function<void(size_t)> Select(const Body& body) {
#if SOFIA_SIMD_X86
  if (Enabled()) {
    return [&body](size_t task) { RunAvx2(body, task); };
  }
#endif
  return [&body](size_t task) { body(task); };
}

/// Select for task bodies written over a lane type, called as
/// body(LaneTag<V>{}, task) with V = Vec4 in the AVX2+FMA instantiation
/// and Vec2 in the scalar one. Lane rows a body keeps in locals then stay
/// in registers on both: the default target has no 4-lane register, so a
/// local Vec4 would live in memory there. The scalar instantiation never
/// fuses a multiply-add (SOFIA_NO_CONTRACT), so its bits do not depend
/// on the build's baseline ISA.
template <typename Body>
std::function<void(size_t)> SelectLanes(const Body& body) {
#if SOFIA_SIMD_X86
  if (Enabled()) {
    return [&body](size_t task) { RunAvx2Lanes(body, task); };
  }
#endif
  return [&body](size_t task) { RunScalarLanes(body, task); };
}

// ---------------------------------------------------------------------
// Element-wise rank-vector helpers.
//
// GCC fully unrolls the compile-time-rank inner loops and scalarizes the
// rank buffers into individual registers, which defeats its own
// vectorizer inside the AVX2 trampolines (every op compiles to a scalar
// vmulsd/vaddsd on both paths). These helpers make the data-parallel
// shape explicit with GCC vector extensions: four double lanes whose
// element-wise ops lower to two 128-bit SSE2 ops on the default target —
// bit-identical to the plain scalar loops, since the per-element
// multiplies and adds are unchanged and the baseline ISA has no FMA to
// contract into — and to single 256-bit ymm ops (with mul+add contracted
// to vfmadd) once always_inline pulls them into the target("avx2,fma")
// instantiation. Strictly element-wise by design: reductions (curvature
// traces, leaf dot products) stay scalar ascending loops at the call
// sites, so vectorization never reorders a summation. The lanes live
// only in locals (loads/stores spelled as memcpy), so no vector type
// ever crosses a function-call ABI boundary.

/// h[r] = v for r in [0, n).
SOFIA_ALWAYS_INLINE void Fill(double* SOFIA_RESTRICT h, size_t n, double v) {
  size_t r = 0;
#if SOFIA_SIMD_X86
  const Vec4 vv = {v, v, v, v};
  const size_t m = n & ~static_cast<size_t>(3);
  for (; r < m; r += 4) __builtin_memcpy(h + r, &vv, sizeof(vv));
#endif
  for (; r < n; ++r) h[r] = v;
}

/// h[r] = a[r].
SOFIA_ALWAYS_INLINE void Copy(double* SOFIA_RESTRICT h,
                              const double* SOFIA_RESTRICT a, size_t n) {
  size_t r = 0;
#if SOFIA_SIMD_X86
  const size_t m = n & ~static_cast<size_t>(3);
  for (; r < m; r += 4) {
    Vec4 x;
    __builtin_memcpy(&x, a + r, sizeof(x));
    __builtin_memcpy(h + r, &x, sizeof(x));
  }
#endif
  for (; r < n; ++r) h[r] = a[r];
}

/// h[r] *= a[r].
SOFIA_ALWAYS_INLINE void MulIn(double* SOFIA_RESTRICT h,
                               const double* SOFIA_RESTRICT a, size_t n) {
  size_t r = 0;
#if SOFIA_SIMD_X86
  const size_t m = n & ~static_cast<size_t>(3);
  for (; r < m; r += 4) {
    Vec4 x, y;
    __builtin_memcpy(&x, h + r, sizeof(x));
    __builtin_memcpy(&y, a + r, sizeof(y));
    x *= y;
    __builtin_memcpy(h + r, &x, sizeof(x));
  }
#endif
  for (; r < n; ++r) h[r] *= a[r];
}

/// out[r] += h[r].
SOFIA_ALWAYS_INLINE void AddIn(double* SOFIA_RESTRICT out,
                               const double* SOFIA_RESTRICT h, size_t n) {
  size_t r = 0;
#if SOFIA_SIMD_X86
  const size_t m = n & ~static_cast<size_t>(3);
  for (; r < m; r += 4) {
    Vec4 x, y;
    __builtin_memcpy(&x, out + r, sizeof(x));
    __builtin_memcpy(&y, h + r, sizeof(y));
    x += y;
    __builtin_memcpy(out + r, &x, sizeof(x));
  }
#endif
  for (; r < n; ++r) out[r] += h[r];
}

/// out[r] += s * h[r] — the axpy shape FMA contraction targets.
SOFIA_ALWAYS_INLINE void MulAddIn(double* SOFIA_RESTRICT out, double s,
                                  const double* SOFIA_RESTRICT h, size_t n) {
  size_t r = 0;
#if SOFIA_SIMD_X86
  const Vec4 sv = {s, s, s, s};
  const size_t m = n & ~static_cast<size_t>(3);
  for (; r < m; r += 4) {
    Vec4 x, y;
    __builtin_memcpy(&x, out + r, sizeof(x));
    __builtin_memcpy(&y, h + r, sizeof(y));
    x += sv * y;
    __builtin_memcpy(out + r, &x, sizeof(x));
  }
#endif
  for (; r < n; ++r) out[r] += s * h[r];
}

/// out[r] = a[r] * b[r].
SOFIA_ALWAYS_INLINE void MulTo(double* SOFIA_RESTRICT out,
                               const double* SOFIA_RESTRICT a,
                               const double* SOFIA_RESTRICT b, size_t n) {
  size_t r = 0;
#if SOFIA_SIMD_X86
  const size_t m = n & ~static_cast<size_t>(3);
  for (; r < m; r += 4) {
    Vec4 x, y;
    __builtin_memcpy(&x, a + r, sizeof(x));
    __builtin_memcpy(&y, b + r, sizeof(y));
    x *= y;
    __builtin_memcpy(out + r, &x, sizeof(x));
  }
#endif
  for (; r < n; ++r) out[r] = a[r] * b[r];
}

/// acc[r] += a[r] * b[r].
SOFIA_ALWAYS_INLINE void MulArrAddIn(double* SOFIA_RESTRICT acc,
                                     const double* SOFIA_RESTRICT a,
                                     const double* SOFIA_RESTRICT b,
                                     size_t n) {
  size_t r = 0;
#if SOFIA_SIMD_X86
  const size_t m = n & ~static_cast<size_t>(3);
  for (; r < m; r += 4) {
    Vec4 x, y, z;
    __builtin_memcpy(&x, acc + r, sizeof(x));
    __builtin_memcpy(&y, a + r, sizeof(y));
    __builtin_memcpy(&z, b + r, sizeof(z));
    x += y * z;
    __builtin_memcpy(acc + r, &x, sizeof(x));
  }
#endif
  for (; r < n; ++r) acc[r] += a[r] * b[r];
}

}  // namespace sofia::simd

#endif  // SOFIA_TENSOR_SIMD_H_
