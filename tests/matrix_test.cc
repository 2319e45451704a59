#include "linalg/matrix.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "linalg/vector_ops.hpp"

#include "util/rng.hpp"

namespace sofia {
namespace {

TEST(MatrixTest, ConstructionAndIndexing) {
  Matrix m(2, 3, 1.5);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_DOUBLE_EQ(m(1, 2), 1.5);
  m(0, 1) = -2.0;
  EXPECT_DOUBLE_EQ(m(0, 1), -2.0);
}

TEST(MatrixTest, FromRowsAndRowAccess) {
  Matrix m = Matrix::FromRows({{1, 2}, {3, 4}, {5, 6}});
  EXPECT_EQ(m.rows(), 3u);
  EXPECT_EQ(m.cols(), 2u);
  EXPECT_DOUBLE_EQ(m(2, 1), 6.0);
  std::vector<double> row = m.RowVector(1);
  EXPECT_EQ(row, (std::vector<double>{3, 4}));
  std::vector<double> col = m.ColVector(0);
  EXPECT_EQ(col, (std::vector<double>{1, 3, 5}));
}

TEST(MatrixTest, SetRowSetCol) {
  Matrix m(2, 2);
  m.SetRow(0, {1, 2});
  m.SetCol(1, {7, 8});
  EXPECT_DOUBLE_EQ(m(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(m(0, 1), 7.0);
  EXPECT_DOUBLE_EQ(m(1, 1), 8.0);
}

TEST(MatrixTest, IdentityAndTranspose) {
  Matrix eye = Matrix::Identity(3);
  EXPECT_DOUBLE_EQ(eye(1, 1), 1.0);
  EXPECT_DOUBLE_EQ(eye(0, 1), 0.0);
  Matrix m = Matrix::FromRows({{1, 2, 3}, {4, 5, 6}});
  Matrix t = m.Transpose();
  EXPECT_EQ(t.rows(), 3u);
  EXPECT_EQ(t.cols(), 2u);
  EXPECT_DOUBLE_EQ(t(2, 1), 6.0);
}

TEST(MatrixTest, ArithmeticOperators) {
  Matrix a = Matrix::FromRows({{1, 2}, {3, 4}});
  Matrix b = Matrix::FromRows({{5, 6}, {7, 8}});
  Matrix sum = a + b;
  EXPECT_DOUBLE_EQ(sum(0, 0), 6.0);
  Matrix diff = b - a;
  EXPECT_DOUBLE_EQ(diff(1, 1), 4.0);
  Matrix scaled = a * 2.0;
  EXPECT_DOUBLE_EQ(scaled(1, 0), 6.0);
  Matrix scaled2 = 3.0 * a;
  EXPECT_DOUBLE_EQ(scaled2(0, 1), 6.0);
}

TEST(MatrixTest, HadamardProduct) {
  Matrix a = Matrix::FromRows({{1, 2}, {3, 4}});
  Matrix b = Matrix::FromRows({{2, 0}, {-1, 5}});
  Matrix h = a.Hadamard(b);
  EXPECT_DOUBLE_EQ(h(0, 0), 2.0);
  EXPECT_DOUBLE_EQ(h(0, 1), 0.0);
  EXPECT_DOUBLE_EQ(h(1, 0), -3.0);
  EXPECT_DOUBLE_EQ(h(1, 1), 20.0);
}

TEST(MatrixTest, Norms) {
  Matrix m = Matrix::FromRows({{3, 4}});
  EXPECT_DOUBLE_EQ(m.FrobeniusNorm(), 5.0);
  EXPECT_DOUBLE_EQ(m.SquaredFrobeniusNorm(), 25.0);
  Matrix c = Matrix::FromRows({{3}, {4}});
  EXPECT_DOUBLE_EQ(c.ColNorm(0), 5.0);
}

TEST(MatrixTest, MatMulKnownResult) {
  Matrix a = Matrix::FromRows({{1, 2}, {3, 4}});
  Matrix b = Matrix::FromRows({{5, 6}, {7, 8}});
  Matrix c = MatMul(a, b);
  EXPECT_DOUBLE_EQ(c(0, 0), 19.0);
  EXPECT_DOUBLE_EQ(c(0, 1), 22.0);
  EXPECT_DOUBLE_EQ(c(1, 0), 43.0);
  EXPECT_DOUBLE_EQ(c(1, 1), 50.0);
}

TEST(MatrixTest, MatTMulEqualsExplicitTranspose) {
  Rng rng(5);
  Matrix a = Matrix::RandomNormal(7, 3, rng);
  Matrix b = Matrix::RandomNormal(7, 4, rng);
  Matrix lhs = MatTMul(a, b);
  Matrix rhs = MatMul(a.Transpose(), b);
  EXPECT_LT(lhs.MaxAbsDiff(rhs), 1e-12);
}

TEST(MatrixTest, MatVecAndMatTVec) {
  Matrix a = Matrix::FromRows({{1, 2}, {3, 4}, {5, 6}});
  std::vector<double> x = {1, -1};
  std::vector<double> y = MatVec(a, x);
  EXPECT_EQ(y, (std::vector<double>{-1, -1, -1}));
  std::vector<double> z = {1, 0, 1};
  std::vector<double> w = MatTVec(a, z);
  EXPECT_EQ(w, (std::vector<double>{6, 8}));
}

TEST(MatrixTest, GramMatchesDefinition) {
  Rng rng(9);
  Matrix a = Matrix::RandomNormal(6, 3, rng);
  Matrix g = Gram(a);
  Matrix expected = MatMul(a.Transpose(), a);
  EXPECT_LT(g.MaxAbsDiff(expected), 1e-12);
  // Gram matrices are symmetric.
  EXPECT_LT(g.MaxAbsDiff(g.Transpose()), 1e-12);
}

// Property: transpose reverses products, (AB)^T = B^T A^T.
class MatMulPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(MatMulPropertyTest, TransposeReversesProduct) {
  Rng rng(GetParam());
  const size_t m = 2 + GetParam() % 5;
  const size_t k = 1 + GetParam() % 4;
  const size_t n = 3 + GetParam() % 3;
  Matrix a = Matrix::RandomNormal(m, k, rng);
  Matrix b = Matrix::RandomNormal(k, n, rng);
  Matrix lhs = MatMul(a, b).Transpose();
  Matrix rhs = MatMul(b.Transpose(), a.Transpose());
  EXPECT_LT(lhs.MaxAbsDiff(rhs), 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MatMulPropertyTest,
                         ::testing::Range(1, 13));

/// Dot sums eight interleaved partial sums from 8 elements up, so its
/// summation order depends on the length alone.
TEST(VectorOpsTest, DotBelowEightElementsIsTheSequentialSum) {
  Rng rng(41);
  for (size_t n = 0; n < 8; ++n) {
    const std::vector<double> a = rng.NormalVector(n);
    const std::vector<double> b = rng.NormalVector(n);
    double sequential = 0.0;
    for (size_t i = 0; i < n; ++i) sequential += a[i] * b[i];
    EXPECT_EQ(Dot(a, b), sequential) << "n = " << n;
  }
}

TEST(VectorOpsTest, DotOfFourHundredIsAccurateAndRepeatable) {
  Rng rng(43);
  std::vector<double> a(400), b(400);
  for (size_t i = 0; i < a.size(); ++i) {
    a[i] = rng.Uniform(0.0, 1.0);
    b[i] = rng.Uniform(0.0, 1.0);
  }
  long double exact = 0.0L;
  for (size_t i = 0; i < a.size(); ++i) {
    exact += static_cast<long double>(a[i]) * static_cast<long double>(b[i]);
  }
  const double dot = Dot(a, b);
  EXPECT_LE(std::fabs(static_cast<long double>(dot) - exact),
            1e-15L * std::fabs(exact));
  // The same inputs give the same bits on every call, and from a copy.
  const std::vector<double> a_copy = a, b_copy = b;
  for (int call = 0; call < 3; ++call) {
    EXPECT_EQ(Dot(a, b), dot);
    EXPECT_EQ(Dot(a_copy, b_copy), dot);
  }
  EXPECT_EQ(SquaredNorm2(a), Dot(a, a));
  EXPECT_EQ(Norm2(a), std::sqrt(Dot(a, a)));
}

}  // namespace
}  // namespace sofia
