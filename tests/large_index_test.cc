// Regression for 32-bit overflow in the linearization chain: a shape whose
// volume exceeds 2^32 must round-trip record coordinates ↔ linear indices
// exactly (strides and products promoted to size_t throughout) and produce
// correct kernel results for records whose linear index does not fit in 32
// bits. No dense structure is ever allocated — the
// pattern holds a handful of records spread across the huge index space.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "linalg/matrix.hpp"
#include "tensor/coo_list.hpp"
#include "tensor/shape.hpp"
#include "tensor/sparse_kernels.hpp"
#include "util/rng.hpp"

namespace sofia {
namespace {

TEST(LargeIndexTest, LinearizationSurvivesVolumesBeyond32Bits) {
  // 3 * 2048 * 2048 * 513 = 6,455,033,856 > 2^32. Every per-mode dimension
  // still fits uint32 (the coordinate storage width); only products of
  // dimensions overflow 32 bits.
  Shape shape({3, 2048, 2048, 513});
  ASSERT_GT(shape.NumElements(), uint64_t{1} << 32);

  // Records spread over the whole range, the back half past 2^32; built
  // from coordinates so the expected round trip is independent of any
  // stride arithmetic inside the library.
  Rng rng(77);
  std::vector<std::vector<size_t>> coords;
  for (size_t k = 0; k < 200; ++k) {
    coords.push_back({static_cast<size_t>(rng.Uniform(0.0, 3.0)),
                      static_cast<size_t>(rng.Uniform(0.0, 2048.0)),
                      static_cast<size_t>(rng.Uniform(0.0, 2048.0)),
                      static_cast<size_t>(rng.Uniform(0.0, 513.0))});
  }
  std::vector<size_t> linear;
  for (const std::vector<size_t>& c : coords) {
    size_t lin = 0;
    for (size_t n = shape.order(); n-- > 0;) {
      lin = lin * shape.dim(n) + c[n];
    }
    EXPECT_EQ(lin, shape.Linearize(c));
    linear.push_back(lin);
  }
  std::sort(linear.begin(), linear.end());
  linear.erase(std::unique(linear.begin(), linear.end()), linear.end());
  ASSERT_GT(linear.back(), uint64_t{1} << 32);

  CooList coo = CooList::FromIndices(shape, linear);
  ASSERT_EQ(coo.nnz(), linear.size());
  for (size_t k = 0; k < coo.nnz(); ++k) {
    // Coordinate decode and re-linearize must be the identity — a 32-bit
    // intermediate anywhere in the stride chain would corrupt the back
    // half of the records.
    const uint32_t* c = coo.Coords(k);
    size_t lin = 0;
    for (size_t n = shape.order(); n-- > 0;) {
      lin = lin * shape.dim(n) + c[n];
    }
    EXPECT_EQ(lin, coo.LinearIndex(k)) << "record " << k;
    EXPECT_EQ(coo.LinearIndex(k), linear[k]) << "record " << k;
  }

  // Kernel sanity at rank 2 against a per-record reference computed from
  // the decoded coordinates — wrong coordinates would misroute rows.
  size_t rank = 2;
  std::vector<Matrix> factors;
  for (size_t n = 0; n < shape.order(); ++n) {
    factors.push_back(Matrix::Random(shape.dim(n), rank, rng, -1.0, 1.0));
  }
  std::vector<double> temporal_row = {0.7, -1.3};
  std::vector<double> gathered =
      CooKruskalGather(coo, factors, temporal_row);
  ASSERT_EQ(gathered.size(), coo.nnz());
  for (size_t k = 0; k < coo.nnz(); ++k) {
    const uint32_t* c = coo.Coords(k);
    double expect = 0.0;
    for (size_t r = 0; r < rank; ++r) {
      double h = temporal_row[r];
      for (size_t n = 0; n < shape.order(); ++n) {
        h *= factors[n](c[n], r);
      }
      expect += h;
    }
    EXPECT_NEAR(gathered[k], expect, 1e-12 * (1.0 + std::abs(expect)))
        << "record " << k;
  }
}

}  // namespace
}  // namespace sofia
