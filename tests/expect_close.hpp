// Tolerance comparison of a kernel's output against its oracle, for pins
// whose arithmetic order legitimately differs from the reference (fused
// multiply-adds, reordered reductions).
//
// CloseTo(oracle, got, rel_tol, ulps) passes when every element satisfies
//
//   |got[i] - oracle[i]| <= rel_tol * max_j |oracle[j]| + ulps * ulp(oracle[i])
//
// i.e. the relative bound is scaled by the oracle's max-abs (so entries
// that cancel to near zero are judged at the scale of the whole output),
// and `ulps` adds a per-element slack in units in the last place of the
// oracle entry. A NaN on either side always fails; an infinity passes only
// against the same infinity, and infinities never widen the scale.
// Shapes must agree. ExpectClose wraps CloseTo in a non-fatal EXPECT.
//
// Header-only: every test binary compiles exactly one tests/*_test.cc.

#ifndef SOFIA_TESTS_EXPECT_CLOSE_H_
#define SOFIA_TESTS_EXPECT_CLOSE_H_

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <vector>

#include "linalg/matrix.hpp"
#include "tensor/dense_tensor.hpp"

namespace sofia {

inline ::testing::AssertionResult CloseTo(const double* oracle,
                                          const double* got, size_t n,
                                          double rel_tol, int ulps = 0) {
  double scale = 0.0;
  for (size_t i = 0; i < n; ++i) {
    if (std::isfinite(oracle[i])) {
      scale = std::max(scale, std::fabs(oracle[i]));
    }
  }
  for (size_t i = 0; i < n; ++i) {
    const double want = oracle[i];
    const double have = got[i];
    if (std::isnan(want) || std::isnan(have)) {
      return ::testing::AssertionFailure()
             << "NaN at [" << i << "]: oracle " << want << ", got " << have;
    }
    if (std::isinf(want) || std::isinf(have)) {
      if (want == have) continue;
      return ::testing::AssertionFailure()
             << "infinity at [" << i << "]: oracle " << want << ", got "
             << have;
    }
    const double mag = std::fabs(want);
    const double ulp =
        std::nextafter(mag, std::numeric_limits<double>::infinity()) - mag;
    const double bound = rel_tol * scale + ulps * ulp;
    const double diff = std::fabs(have - want);
    if (!(diff <= bound)) {
      return ::testing::AssertionFailure()
             << std::scientific << "at [" << i << "] of " << n << ": oracle "
             << want << ", got " << have << ", |diff| " << diff
             << " > bound " << bound << " (rel_tol " << rel_tol
             << " x max-abs " << scale << " + " << ulps << " ulp)";
    }
  }
  return ::testing::AssertionSuccess();
}

inline ::testing::AssertionResult CloseTo(const std::vector<double>& oracle,
                                          const std::vector<double>& got,
                                          double rel_tol, int ulps = 0) {
  if (oracle.size() != got.size()) {
    return ::testing::AssertionFailure() << "size " << got.size()
                                         << " != oracle size "
                                         << oracle.size();
  }
  return CloseTo(oracle.data(), got.data(), oracle.size(), rel_tol, ulps);
}

inline ::testing::AssertionResult CloseTo(const Matrix& oracle,
                                          const Matrix& got, double rel_tol,
                                          int ulps = 0) {
  if (oracle.rows() != got.rows() || oracle.cols() != got.cols()) {
    return ::testing::AssertionFailure()
           << "shape " << got.rows() << "x" << got.cols() << " != oracle "
           << oracle.rows() << "x" << oracle.cols();
  }
  return CloseTo(oracle.data(), got.data(), oracle.size(), rel_tol, ulps);
}

inline ::testing::AssertionResult CloseTo(const DenseTensor& oracle,
                                          const DenseTensor& got,
                                          double rel_tol, int ulps = 0) {
  if (!(oracle.shape() == got.shape())) {
    return ::testing::AssertionFailure() << "tensor shapes differ";
  }
  return CloseTo(oracle.data(), got.data(), oracle.NumElements(), rel_tol,
                 ulps);
}

inline void ExpectClose(const std::vector<double>& oracle,
                        const std::vector<double>& got, double rel_tol,
                        int ulps = 0) {
  EXPECT_TRUE(CloseTo(oracle, got, rel_tol, ulps));
}

inline void ExpectClose(const Matrix& oracle, const Matrix& got,
                        double rel_tol, int ulps = 0) {
  EXPECT_TRUE(CloseTo(oracle, got, rel_tol, ulps));
}

inline void ExpectClose(const DenseTensor& oracle, const DenseTensor& got,
                        double rel_tol, int ulps = 0) {
  EXPECT_TRUE(CloseTo(oracle, got, rel_tol, ulps));
}

}  // namespace sofia

#endif  // SOFIA_TESTS_EXPECT_CLOSE_H_
