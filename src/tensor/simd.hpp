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
/// reference chain (CooKruskalSliceGather vs the dense KruskalSlice fold,
/// CooNormalSystem vs the dense oracle's SolveTemporalRow in
/// tests/dense_oracle.hpp) intentionally stay scalar-only.

#if defined(__GNUC__) && defined(__x86_64__)
#define SOFIA_SIMD_X86 1
#else
#define SOFIA_SIMD_X86 0
#endif

/// Marks the AVX2+FMA trampoline: `flatten` pulls the task body (and its
/// inline callees) into the trampoline so the vectorizer sees the loops
/// under the wider ISA. Out-of-line callees (e.g. ProximalRowSolve) stay
/// calls and keep their scalar code — only the accumulation around them
/// vectorizes.
#if SOFIA_SIMD_X86
#define SOFIA_TARGET_AVX2 __attribute__((target("avx2,fma"), flatten))
#else
#define SOFIA_TARGET_AVX2
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

#if SOFIA_SIMD_X86
template <typename Body>
SOFIA_TARGET_AVX2 void RunAvx2(const Body& body, size_t task) {
  body(task);
}
#endif

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

#if SOFIA_SIMD_X86
typedef double Vec4 __attribute__((vector_size(32)));
#endif

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
