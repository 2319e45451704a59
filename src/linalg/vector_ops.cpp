#include "linalg/vector_ops.hpp"

#include <algorithm>
#include <cmath>

#include "util/check.hpp"

namespace sofia {

namespace {

/// Two double lanes (GCC/Clang vector extension): one SSE2 register.
typedef double Lanes __attribute__((vector_size(16)));

Lanes Load(const double* p) {
  Lanes v;
  __builtin_memcpy(&v, p, sizeof(v));
  return v;
}

}  // namespace

double Dot(const std::vector<double>& a, const std::vector<double>& b) {
  SOFIA_CHECK_EQ(a.size(), b.size());
  const size_t n = a.size();
  const double* pa = a.data();
  const double* pb = b.data();
  // Eight running sums (element i goes to sum i mod 8) over the leading
  // multiple of 8, so no add waits on the one before it; they combine in a
  // fixed tree, and the tail adds on in order. The grouping depends on n
  // alone, and below 8 elements it is the plain sequential sum.
  const size_t m = n & ~static_cast<size_t>(7);
  Lanes s0 = {0.0, 0.0}, s1 = s0, s2 = s0, s3 = s0;
  for (size_t i = 0; i < m; i += 8) {
    s0 += Load(pa + i) * Load(pb + i);
    s1 += Load(pa + i + 2) * Load(pb + i + 2);
    s2 += Load(pa + i + 4) * Load(pb + i + 4);
    s3 += Load(pa + i + 6) * Load(pb + i + 6);
  }
  const Lanes sum = (s0 + s1) + (s2 + s3);
  double s = sum[0] + sum[1];
  for (size_t i = m; i < n; ++i) s += pa[i] * pb[i];
  return s;
}

double SquaredNorm2(const std::vector<double>& a) { return Dot(a, a); }

double Norm2(const std::vector<double>& a) { return std::sqrt(SquaredNorm2(a)); }

void Axpy(double alpha, const std::vector<double>& x, std::vector<double>* y) {
  SOFIA_CHECK_EQ(x.size(), y->size());
  for (size_t i = 0; i < x.size(); ++i) (*y)[i] += alpha * x[i];
}

void Scale(double alpha, std::vector<double>* x) {
  for (auto& v : *x) v *= alpha;
}

std::vector<double> Add(const std::vector<double>& a,
                        const std::vector<double>& b) {
  SOFIA_CHECK_EQ(a.size(), b.size());
  std::vector<double> c(a.size());
  for (size_t i = 0; i < a.size(); ++i) c[i] = a[i] + b[i];
  return c;
}

std::vector<double> Sub(const std::vector<double>& a,
                        const std::vector<double>& b) {
  SOFIA_CHECK_EQ(a.size(), b.size());
  std::vector<double> c(a.size());
  for (size_t i = 0; i < a.size(); ++i) c[i] = a[i] - b[i];
  return c;
}

std::vector<double> HadamardVec(const std::vector<double>& a,
                                const std::vector<double>& b) {
  SOFIA_CHECK_EQ(a.size(), b.size());
  std::vector<double> c(a.size());
  for (size_t i = 0; i < a.size(); ++i) c[i] = a[i] * b[i];
  return c;
}

double MaxAbsDiffVec(const std::vector<double>& a,
                     const std::vector<double>& b) {
  SOFIA_CHECK_EQ(a.size(), b.size());
  double m = 0.0;
  for (size_t i = 0; i < a.size(); ++i) {
    m = std::max(m, std::fabs(a[i] - b[i]));
  }
  return m;
}

}  // namespace sofia
