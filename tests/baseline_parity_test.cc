// Randomized dense≡sparse parity for every baseline ported onto the
// ObservedSweep core: a dense-scan reference of each method's step
// (tests/dense_oracle.hpp), stepped in lockstep with the library method,
// must agree with it to 1e-12 of the oracle's max-abs on every step output
// of a corrupted stream (tests/expect_close.hpp), in builds with and
// without FMA contraction;
// the library method must be bitwise identical for every thread count, and
// an externally shared CooList must change nothing. Degenerate masks
// (empty Ω, full Ω) are exercised explicitly.

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "baselines/brst.hpp"
#include "baselines/mast.hpp"
#include "baselines/observed_sweep.hpp"
#include "baselines/olstec.hpp"
#include "baselines/online_sgd.hpp"
#include "baselines/or_mstc.hpp"
#include "baselines/smf.hpp"
#include "data/corruption.hpp"
#include "data/synthetic.hpp"
#include "dense_oracle.hpp"
#include "eval/streaming_method.hpp"
#include "expect_close.hpp"
#include "tensor/kruskal.hpp"
#include "tensor/simd.hpp"
#include "util/rng.hpp"
#include "util/shard_executor.hpp"

namespace sofia {
namespace {

// This binary pins the *scalar* dense↔sparse arithmetic chain: the FMA
// contraction of the vectorized instantiations drifts past the 1e-12 pin
// over a full stream by design. The vectorized-vs-scalar parity contract
// has its own coverage in tests/simd_test.cc.
const bool kForceScalarKernels = [] {
  simd::SetEnabled(false);
  return true;
}();

double MaxAbsDiff(const DenseTensor& a, const DenseTensor& b) {
  DenseTensor diff = a;
  diff -= b;
  return diff.MaxAbs();
}

std::vector<DenseTensor> MakeTruth(size_t steps, uint64_t seed) {
  SyntheticTensor syn = MakeSinusoidTensor(6, 5, steps, 3, 4, seed);
  std::vector<DenseTensor> truth;
  for (size_t t = 0; t < steps; ++t) {
    truth.push_back(syn.tensor.SliceLastMode(t));
  }
  return truth;
}

/// A rank-3 Kruskal stream of `dims`-shaped slices whose temporal weights
/// follow a period-4 season.
std::vector<DenseTensor> MakeKruskalStream(const std::vector<size_t>& dims,
                                           size_t steps, uint64_t seed) {
  constexpr size_t kRank = 3;
  Rng rng(seed);
  std::vector<Matrix> factors;
  for (size_t dim : dims) {
    factors.push_back(Matrix::Random(dim, kRank, rng, 0.0, 1.0));
  }
  std::vector<DenseTensor> slices;
  std::vector<double> w(kRank);
  for (size_t t = 0; t < steps; ++t) {
    for (size_t r = 0; r < kRank; ++r) {
      w[r] = 1.5 + std::sin(1.5707963267948966 * static_cast<double>(t % 4) +
                            static_cast<double>(r));
    }
    slices.push_back(KruskalSlice(factors, w));
  }
  return slices;
}

/// The library method `name` (dense = false) or its dense-scan reference
/// (dense = true), with the test's small configuration.
std::unique_ptr<StreamingMethod> MakeMethod(const std::string& name,
                                            bool dense) {
  if (name == "online_sgd") {
    OnlineSgdOptions o;
    o.rank = 3;
    if (dense) return std::make_unique<dense_oracle::DenseOnlineSgd>(o);
    return std::make_unique<OnlineSgd>(o);
  }
  if (name == "olstec") {
    OlstecOptions o;
    o.rank = 3;
    if (dense) return std::make_unique<dense_oracle::DenseOlstec>(o);
    return std::make_unique<Olstec>(o);
  }
  if (name == "mast") {
    MastOptions o;
    o.rank = 3;
    if (dense) return std::make_unique<dense_oracle::DenseMast>(o);
    return std::make_unique<Mast>(o);
  }
  if (name == "or_mstc") {
    OrMstcOptions o;
    o.rank = 3;
    o.outlier_lambda = 2.0;
    if (dense) return std::make_unique<dense_oracle::DenseOrMstc>(o);
    return std::make_unique<OrMstc>(o);
  }
  if (name == "brst") {
    BrstOptions o;
    o.rank = 4;
    if (dense) return std::make_unique<dense_oracle::DenseBrst>(o);
    return std::make_unique<BrstLite>(o);
  }
  if (name == "smf") {
    SmfOptions o;
    o.rank = 3;
    o.period = 4;
    if (dense) return std::make_unique<dense_oracle::DenseSmf>(o);
    return std::make_unique<Smf>(o);
  }
  return nullptr;
}

class BaselineParityTest : public ::testing::TestWithParam<std::string> {};

TEST_P(BaselineParityTest, DenseAndSparsePathsAgreeOnCorruptedStream) {
  std::vector<DenseTensor> truth = MakeTruth(24, 91);
  CorruptedStream stream = Corrupt(truth, {25.0, 10.0, 3.0}, 92);

  std::unique_ptr<StreamingMethod> dense = MakeMethod(GetParam(), true);
  std::unique_ptr<StreamingMethod> sparse = MakeMethod(GetParam(), false);
  std::unique_ptr<StreamingMethod> shared = MakeMethod(GetParam(), false);
  ASSERT_NE(dense, nullptr);
  // Methods on adopted executors of two sizes: two task-to-thread maps.
  std::vector<std::unique_ptr<StreamingMethod>> threaded;
  for (size_t threads : {2, 3}) {
    threaded.push_back(MakeMethod(GetParam(), false));
    threaded.back()->AdoptWorkerPool(std::make_shared<ShardExecutor>(threads));
  }

  for (size_t t = 0; t < truth.size(); ++t) {
    const DenseTensor& slice = stream.slices[t];
    const Mask& omega = stream.masks[t];
    DenseTensor a = dense->Step(slice, omega);
    DenseTensor b = sparse->Step(slice, omega);
    DenseTensor d = shared->Step(slice, omega, MakeSharedPattern(omega));
    // Dense oracle vs the library's observed-entry step: same math over
    // the same observed set, different traversal and contraction — 1e-12
    // relative across the whole stream.
    EXPECT_TRUE(CloseTo(a, b, 1e-12)) << GetParam() << " t=" << t;
    // Thread count must not change a single bit.
    for (const auto& method : threaded) {
      EXPECT_EQ(MaxAbsDiff(b, method->Step(slice, omega)), 0.0)
          << GetParam() << " t=" << t;
    }
    // An externally shared pattern must not change a single bit either.
    EXPECT_EQ(MaxAbsDiff(b, d), 0.0) << GetParam() << " t=" << t;
  }
}

TEST_P(BaselineParityTest, DenseAndSparsePathsAgreeOnMultiwaySlices) {
  // The other tests stream 2-way slices. Order 3 runs the row-system
  // kernels' order-3 instantiations and the other kernels' run-time-order
  // loops, order 4 every kernel's run-time-order loop; both stay pinned to
  // the dense oracles at the same bound.
  for (const std::vector<size_t>& dims :
       {std::vector<size_t>{5, 4, 3}, std::vector<size_t>{4, 3, 2, 2}}) {
    SCOPED_TRACE(::testing::Message() << dims.size() << "-way slices");
    std::vector<DenseTensor> truth = MakeKruskalStream(dims, 16, 97);
    CorruptedStream stream = Corrupt(truth, {25.0, 10.0, 3.0}, 98);
    std::unique_ptr<StreamingMethod> dense = MakeMethod(GetParam(), true);
    std::unique_ptr<StreamingMethod> sparse = MakeMethod(GetParam(), false);
    std::unique_ptr<StreamingMethod> threaded = MakeMethod(GetParam(), false);
    threaded->AdoptWorkerPool(std::make_shared<ShardExecutor>(3));
    for (size_t t = 0; t < truth.size(); ++t) {
      const DenseTensor& slice = stream.slices[t];
      const Mask& omega = stream.masks[t];
      DenseTensor a = dense->Step(slice, omega);
      DenseTensor b = sparse->Step(slice, omega);
      EXPECT_TRUE(CloseTo(a, b, 1e-12)) << GetParam() << " t=" << t;
      EXPECT_EQ(MaxAbsDiff(b, threaded->Step(slice, omega)), 0.0)
          << GetParam() << " t=" << t;
    }
  }
}

TEST_P(BaselineParityTest, ObserveAdvancesStateExactlyLikeStep) {
  // Observe() skips only output-only work (the returned dense estimate and
  // its final temporal re-solve), so a stream consumed through Observe must
  // leave bitwise the same state as one consumed through Step.
  std::vector<DenseTensor> truth = MakeTruth(12, 95);
  CorruptedStream stream = Corrupt(truth, {25.0, 10.0, 3.0}, 96);
  std::unique_ptr<StreamingMethod> stepping = MakeMethod(GetParam(), false);
  std::unique_ptr<StreamingMethod> observing = MakeMethod(GetParam(), false);
  for (size_t t = 0; t < truth.size(); ++t) {
    const bool score = t % 3 == 2;  // Score every third slice.
    DenseTensor a = stepping->Step(stream.slices[t], stream.masks[t]);
    if (score) {
      DenseTensor b = observing->Step(stream.slices[t], stream.masks[t]);
      EXPECT_EQ(MaxAbsDiff(a, b), 0.0) << GetParam() << " t=" << t;
    } else {
      observing->Observe(stream.slices[t], stream.masks[t]);
    }
  }
}

TEST_P(BaselineParityTest, DegenerateMasksAgreeAcrossPaths) {
  std::vector<DenseTensor> truth = MakeTruth(6, 93);
  Rng rng(94);
  std::vector<Mask> masks;
  for (size_t t = 0; t < truth.size(); ++t) {
    Mask omega(truth[t].shape(), true);
    if (t == 1 || t == 3) {
      omega = Mask(truth[t].shape(), false);  // Empty Ω: nothing observed.
    } else if (t >= 4) {
      for (size_t k = 0; k < omega.shape().NumElements(); ++k) {
        omega.Set(k, rng.Bernoulli(0.5));
      }
    }  // t == 0, 2: full Ω.
    masks.push_back(omega);
  }

  std::unique_ptr<StreamingMethod> dense = MakeMethod(GetParam(), true);
  std::unique_ptr<StreamingMethod> sparse = MakeMethod(GetParam(), false);
  for (size_t t = 0; t < truth.size(); ++t) {
    DenseTensor a = dense->Step(truth[t], masks[t]);
    DenseTensor b = sparse->Step(truth[t], masks[t]);
    EXPECT_TRUE(CloseTo(a, b, 1e-12)) << GetParam() << " t=" << t;
  }
}

INSTANTIATE_TEST_SUITE_P(Methods, BaselineParityTest,
                         ::testing::Values("online_sgd", "olstec", "mast",
                                           "or_mstc", "brst", "smf"));

}  // namespace
}  // namespace sofia
