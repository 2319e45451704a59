#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <sstream>
#include <vector>

#include "core/sofia_model.hpp"
#include "dense_oracle.hpp"
#include "expect_close.hpp"
#include "linalg/vector_ops.hpp"
#include "tensor/kruskal.hpp"
#include "tensor/simd.hpp"
#include "tensor/sparse_kernels.hpp"
#include "util/rng.hpp"
#include "util/shard_executor.hpp"

namespace sofia {
namespace {

/// Dense≡sparse parity harness for the dynamic update: SofiaModel::Step,
/// one fused pass over the observed entries (CooSofiaStep), must produce
/// the imputed/outlier/forecast slices and the Holt-Winters state that the
/// dense-scan oracle (tests/dense_oracle.hpp) predicts from the model's
/// public state to ≤ 1e-12 relative, under either ISA and every robust
/// arm, and must step bitwise alike whatever executor ran its init.

constexpr double kTol = 1e-12;

Mask RandomMask(const Shape& shape, double density, Rng& rng) {
  Mask omega(shape, false);
  for (size_t k = 0; k < shape.NumElements(); ++k) {
    omega.Set(k, rng.Bernoulli(density));
  }
  return omega;
}

/// Seasonal rank-R slices of arbitrary order: random non-temporal factors
/// and sinusoidal temporal rows, so Initialize() sees real HW structure.
std::vector<DenseTensor> MakeSlices(const std::vector<size_t>& dims,
                                    size_t rank, size_t period, size_t count,
                                    uint64_t seed) {
  Rng rng(seed);
  std::vector<Matrix> factors;
  for (size_t d : dims) {
    factors.push_back(Matrix::Random(d, rank, rng, 0.0, 1.0));
  }
  std::vector<DenseTensor> slices;
  slices.reserve(count);
  std::vector<double> row(rank);
  for (size_t t = 0; t < count; ++t) {
    for (size_t r = 0; r < rank; ++r) {
      const double phase = 2.0 * M_PI * static_cast<double>(t) /
                           static_cast<double>(period);
      row[r] = std::sin(phase + static_cast<double>(r)) + 1.5 +
               0.3 * static_cast<double>(r);
    }
    slices.push_back(KruskalSlice(factors, row));
  }
  return slices;
}

SofiaConfig MakeConfig(size_t rank, size_t period) {
  SofiaConfig config;
  config.rank = rank;
  config.period = period;
  config.init_seasons = 3;
  config.max_init_iterations = 4;
  config.max_als_iterations = 20;
  return config;
}

SofiaModel MakeModel(const std::vector<size_t>& dims, size_t rank,
                     uint64_t seed, const SofiaAblation& ablation = {},
                     WorkerPool* pool = nullptr) {
  SofiaConfig config = MakeConfig(rank, /*period=*/4);
  config.seed = seed;
  const size_t w = config.InitWindow();
  std::vector<DenseTensor> slices = MakeSlices(dims, rank, config.period,
                                               w, seed);
  Rng rng(seed + 1);
  std::vector<Mask> masks;
  for (size_t t = 0; t < w; ++t) {
    masks.push_back(RandomMask(slices[t].shape(), 0.8, rng));
  }
  return SofiaModel::Initialize(slices, masks, config, ablation, pool);
}

/// Checkpoint-based clone: Serialize/Deserialize restores the exact
/// streaming state, so clones step from identical bits.
SofiaModel Clone(const SofiaModel& model) {
  std::stringstream buffer;
  model.Serialize(buffer);
  return SofiaModel::Deserialize(buffer);
}

double MaxAbsDiff(const DenseTensor& a, const DenseTensor& b) {
  DenseTensor diff = a;
  diff -= b;
  return diff.MaxAbs();
}

/// The model state one Step must reach, from the dense oracle's forecast,
/// outliers, error scale and gradients plus the update rules of Algorithm 3
/// lines 7-10 (Eqs. (24)-(26)) applied to the pre-step public state.
struct ExpectedStep {
  dense_oracle::SofiaStepReference ref;
  std::vector<Matrix> factors;        ///< Non-temporal factors after Eq. (24).
  std::vector<double> temporal_row;   ///< u^(N)_t from Eq. (25).
  std::vector<double> level, trend;   ///< Eq. (26).
  std::vector<double> written_season; ///< The season slot Eq. (26) rewrote.
  DenseTensor imputed;                ///< Eq. (27).
};

ExpectedStep PredictStep(const SofiaModel& model, const DenseTensor& y,
                         const Mask& omega, const SofiaAblation& ablation) {
  const SofiaConfig& config = model.config();
  ExpectedStep e;
  e.ref = dense_oracle::SofiaDenseStep(model, y, omega, ablation);
  const StepGradients& g = e.ref.grads;
  const std::vector<double>& u_hat = e.ref.u_hat;
  const size_t rank = config.rank;
  auto capped_mu = [&](double trace) {
    if (!config.normalized_step || trace <= 0.0) return config.mu;
    return std::min(config.mu, 0.5 / trace);
  };
  e.factors = model.nontemporal_factors();
  for (size_t n = 0; n < e.factors.size(); ++n) {
    for (size_t i = 0; i < e.factors[n].rows(); ++i) {
      const double step = 2.0 * capped_mu(g.row_trace[n][i]);
      for (size_t r = 0; r < rank; ++r) {
        e.factors[n](i, r) += step * g.row_grads[n](i, r);
      }
    }
  }
  const std::vector<double>& u_prev = model.last_temporal_row();
  const std::vector<double>& u_season = model.lagged_temporal_row();
  const double lambda1 = config.lambda1;
  const double lambda2 = config.lambda2;
  const double temporal_step = 2.0 * capped_mu(g.temporal_trace);
  e.temporal_row.resize(rank);
  e.level.resize(rank);
  e.trend.resize(rank);
  e.written_season.resize(rank);
  for (size_t r = 0; r < rank; ++r) {
    const double u = u_hat[r] +
                     temporal_step * (g.temporal_grad[r] + lambda1 * u_prev[r] +
                                      lambda2 * u_season[r] -
                                      (lambda1 + lambda2) * u_hat[r]);
    const HwParams& p = model.hw_params()[r];
    const double l_prev = model.level()[r];
    const double b_prev = model.trend()[r];
    const double s_old = model.next_season()[r];
    e.temporal_row[r] = u;
    e.level[r] = p.alpha * (u - s_old) + (1.0 - p.alpha) * (l_prev + b_prev);
    e.trend[r] = p.beta * (e.level[r] - l_prev) + (1.0 - p.beta) * b_prev;
    e.written_season[r] =
        p.gamma * (u - l_prev - b_prev) + (1.0 - p.gamma) * s_old;
  }
  e.imputed = KruskalSlice(e.factors, e.temporal_row);
  return e;
}

/// The three robust arms of SofiaAblation.
std::vector<SofiaAblation> RobustArms() {
  SofiaAblation scale_first;
  scale_first.scale_before_reject = true;
  SofiaAblation no_reject;
  no_reject.reject_outliers = false;
  return {SofiaAblation{}, scale_first, no_reject};
}

/// Step one model through seeded slices and compare every per-step output
/// and all HW state against the dense oracle's prediction: the observed
/// forecast, error scale, factors and temporal row at 1e-12 relative to
/// the oracle's max-abs, the dense slices, outliers and HW state at 1e-12
/// of the reconstruction's scale.
void RunStepParity(const std::vector<size_t>& dims, size_t rank,
                   double missing, uint64_t seed,
                   const SofiaAblation& ablation) {
  SCOPED_TRACE(::testing::Message() << "rank=" << rank
                                    << " missing=" << missing
                                    << " seed=" << seed);
  SofiaModel model = MakeModel(dims, rank, seed, ablation);
  const size_t m = model.config().period;

  const size_t kSteps = 5;
  std::vector<DenseTensor> slices =
      MakeSlices(dims, rank, /*period=*/4, 12 + kSteps, seed + 7);
  Rng rng(seed + 13);
  for (size_t t = 0; t < kSteps; ++t) {
    DenseTensor y = slices[12 + t];
    // One spiked entry per step exercises the Huber clip of Eq. (21).
    if (y.NumElements() > 0) y[t % y.NumElements()] += 25.0;
    Mask omega = RandomMask(y.shape(), 1.0 - missing, rng);

    const ExpectedStep e = PredictStep(model, y, omega, ablation);
    SofiaStepResult b = model.Step(y, omega);

    const double scale = 1.0 + e.imputed.MaxAbs();
    EXPECT_LE(MaxAbsDiff(e.ref.forecast, b.forecast()), kTol * scale);
    EXPECT_LE(MaxAbsDiff(e.ref.outliers, b.outliers()), kTol * scale);
    EXPECT_LE(MaxAbsDiff(e.imputed, b.imputed()), kTol * scale);
    ASSERT_EQ(omega.CountObserved(), b.num_observed());
    std::vector<size_t> observed;
    std::vector<double> forecast_at;
    for (size_t k = 0; k < omega.shape().NumElements(); ++k) {
      if (!omega.Get(k)) continue;
      observed.push_back(k);
      forecast_at.push_back(e.ref.forecast[k]);
    }
    EXPECT_EQ(observed, b.observed_indices());
    ExpectClose(forecast_at, b.observed_forecast(), kTol);
    ExpectClose(e.ref.error_scale, model.error_scale(), kTol);
    for (size_t n = 0; n < e.factors.size(); ++n) {
      ExpectClose(e.factors[n], model.nontemporal_factors()[n], kTol);
    }
    ExpectClose(e.temporal_row, model.last_temporal_row(), kTol);
    EXPECT_LE(MaxAbsDiffVec(e.level, model.level()), kTol * scale);
    EXPECT_LE(MaxAbsDiffVec(e.trend, model.trend()), kTol * scale);
    // The slot Eq. (26) rewrote is the one ForecastRow(m) reads.
    std::vector<double> forecast_m(rank);
    for (size_t r = 0; r < rank; ++r) {
      forecast_m[r] = e.level[r] + static_cast<double>(m) * e.trend[r] +
                      e.written_season[r];
    }
    EXPECT_LE(MaxAbsDiffVec(forecast_m, model.ForecastRow(m)), kTol * scale);
  }
}

/// Ranks 1-8 (7 takes the run-time-rank path), Ω from full to empty, all
/// three robust arms, both ISAs.
void RunStepParityGrid(const std::vector<size_t>& dims, uint64_t seed) {
  const bool prev = simd::Enabled();
  for (bool vectorized : {false, true}) {
    SCOPED_TRACE(vectorized ? "avx2" : "scalar");
    simd::SetEnabled(vectorized);
    for (const SofiaAblation& ablation : RobustArms()) {
      SCOPED_TRACE(::testing::Message()
                   << "reject " << ablation.reject_outliers
                   << " scale-first " << ablation.scale_before_reject);
      for (size_t rank = 1; rank <= 8; ++rank) {
        for (double missing : {0.0, 0.5, 0.99, 1.0}) {
          RunStepParity(dims, rank, missing, seed++, ablation);
        }
      }
    }
  }
  simd::SetEnabled(prev);
}

TEST(SofiaStepSparseTest, DenseSparseStepParityOrderThree) {
  RunStepParityGrid({6, 5}, 510);
}

TEST(SofiaStepSparseTest, DenseSparseStepParityOrderFour) {
  RunStepParityGrid({4, 3, 3}, 530);
}

/// Init's result is bitwise the same on any executor, and the step runs
/// no pool, so models initialized on 1-, 2- and 4-thread executors step
/// bitwise alike.
TEST(SofiaStepSparseTest, StepBitwiseDeterministicAcrossThreadCounts) {
  const std::vector<size_t> dims = {7, 6};
  const size_t kSteps = 4;
  std::vector<DenseTensor> slices = MakeSlices(dims, 4, 4, 12 + kSteps, 557);

  std::vector<SofiaModel> models;
  for (size_t threads : {1u, 2u, 4u}) {
    ShardExecutor pool(threads);
    models.push_back(MakeModel(dims, /*rank=*/4, 551, {}, &pool));
  }
  for (size_t i = 1; i < models.size(); ++i) {
    for (size_t n = 0; n < dims.size(); ++n) {
      EXPECT_EQ(models[0].nontemporal_factors()[n].MaxAbsDiff(
                    models[i].nontemporal_factors()[n]),
                0.0);
    }
  }
  Rng rng(559);
  for (size_t t = 0; t < kSteps; ++t) {
    const DenseTensor& y = slices[12 + t];
    Mask omega = RandomMask(y.shape(), 0.4, rng);
    SofiaStepResult ref = models[0].Step(y, omega);
    for (size_t i = 1; i < models.size(); ++i) {
      SofiaStepResult out = models[i].Step(y, omega);
      EXPECT_EQ(MaxAbsDiff(ref.imputed(), out.imputed()), 0.0);
      EXPECT_EQ(ref.observed_outliers(), out.observed_outliers());
      EXPECT_EQ(ref.observed_forecast(), out.observed_forecast());
      EXPECT_EQ(ref.temporal_row(), out.temporal_row());
      EXPECT_EQ(models[0].level(), models[i].level());
      EXPECT_EQ(models[0].trend(), models[i].trend());
      EXPECT_EQ(MaxAbsDiff(models[0].error_scale(), models[i].error_scale()),
                0.0);
    }
  }
}

/// Kernel-level parity: CooSofiaStep against the dense-scan oracle and
/// against the three-pass CooList gradients it replaced (fed the fused
/// pass's own residuals), at several densities and slice orders, 1e-12
/// relative.
TEST(SofiaStepSparseTest, CooSofiaStepMatchesOracles) {
  Rng rng(571);
  SofiaStepRobust robust;
  robust.phi = 0.2;
  robust.huber_k = 2.0;
  robust.biweight_ck = 2.52;
  for (const auto& dims : {std::vector<size_t>{7, 5},
                           std::vector<size_t>{4, 3, 5}}) {
    Shape shape(dims);
    const size_t rank = 4;
    std::vector<Matrix> factors;
    for (size_t d : dims) {
      factors.push_back(Matrix::RandomNormal(d, rank, rng));
    }
    std::vector<double> u_hat = rng.NormalVector(rank);
    DenseTensor y = DenseTensor::RandomNormal(shape, rng);
    DenseTensor sigma0(shape, 0.0);
    for (size_t k = 0; k < shape.NumElements(); ++k) {
      sigma0[k] = rng.Uniform(0.1, 2.0);
    }
    for (double density : {0.0, 0.1, 0.6, 1.0}) {
      SCOPED_TRACE(::testing::Message() << shape.ToString() << " density "
                                        << density);
      Mask omega = RandomMask(shape, density, rng);
      const dense_oracle::SofiaStepReference dense =
          dense_oracle::DenseSofiaStep(y, omega, factors, u_hat, sigma0,
                                       robust);

      CooList coo = CooList::Build(omega);
      DenseTensor sigma = sigma0;
      std::vector<double> forecast, outliers;
      StepGradients fused;
      CooSofiaStep(coo, y, factors, u_hat, robust, &sigma, &forecast,
                   &outliers, &fused);
      std::vector<double> resid(coo.nnz());
      for (size_t k = 0; k < coo.nnz(); ++k) {
        resid[k] = y[coo.LinearIndex(k)] - outliers[k] - forecast[k];
      }
      const StepGradients three_pass =
          dense_oracle::CooStepGradients(coo, resid, factors, u_hat);

      ExpectClose(dense.error_scale, sigma, kTol);
      for (const StepGradients* want : {&dense.grads, &three_pass}) {
        ASSERT_EQ(want->row_grads.size(), fused.row_grads.size());
        for (size_t n = 0; n < fused.row_grads.size(); ++n) {
          ExpectClose(want->row_grads[n], fused.row_grads[n], kTol);
          ExpectClose(want->row_trace[n], fused.row_trace[n], kTol);
        }
        ExpectClose(want->temporal_grad, fused.temporal_grad, kTol);
        ExpectClose({want->temporal_trace}, {fused.temporal_trace}, kTol);
      }
    }
  }
}

TEST(SofiaStepSparseTest, CooKruskalGatherMatchesKruskalSlice) {
  Rng rng(583);
  Shape shape({6, 4, 3});
  const size_t rank = 5;
  std::vector<Matrix> factors;
  for (size_t n = 0; n < shape.order(); ++n) {
    factors.push_back(Matrix::RandomNormal(shape.dim(n), rank, rng));
  }
  std::vector<double> u_hat = rng.NormalVector(rank);
  DenseTensor slice = KruskalSlice(factors, u_hat);
  Mask omega = RandomMask(shape, 0.5, rng);
  CooList coo = CooList::Build(omega);
  std::vector<double> got = CooKruskalGather(coo, factors, u_hat);
  ASSERT_EQ(got.size(), coo.nnz());
  for (size_t k = 0; k < coo.nnz(); ++k) {
    EXPECT_NEAR(got[k], slice[coo.LinearIndex(k)],
                kTol * (1.0 + std::fabs(got[k])));
  }
  for (size_t threads : {2, 4}) {
    ShardExecutor pool(threads);
    EXPECT_EQ(CooKruskalGather(coo, factors, u_hat, &pool), got);
  }
}

/// The mask-reuse fast path: consecutive steps with an identical mask (the
/// fixed-sensor-outage case) build the CooList exactly once, and a step
/// that adopted a shared pattern seeds the cache for the next unshared one.
TEST(SofiaStepSparseTest, IdenticalMasksReuseTheStepPattern) {
  const std::vector<size_t> dims = {6, 5};
  SofiaModel model = MakeModel(dims, /*rank=*/3, 591);
  std::vector<DenseTensor> slices = MakeSlices(dims, 3, 4, 21, 593);
  Rng rng(595);
  Mask fixed = RandomMask(slices[0].shape(), 0.5, rng);

  EXPECT_EQ(model.step_pattern_builds(), 0u);
  for (size_t t = 12; t < 16; ++t) model.Step(slices[t], fixed);
  EXPECT_EQ(model.step_pattern_builds(), 1u);
  EXPECT_EQ(model.step_pattern_reuses(), 3u);

  Mask changed = RandomMask(slices[0].shape(), 0.5, rng);
  model.Step(slices[16], changed);
  EXPECT_EQ(model.step_pattern_builds(), 2u);
  model.Step(slices[17], changed);
  EXPECT_EQ(model.step_pattern_builds(), 2u);
  // Flipping one bit invalidates the cache.
  changed.Set(0, !changed.Get(0));
  model.Step(slices[18], changed);
  EXPECT_EQ(model.step_pattern_builds(), 3u);

  Mask shared_mask = RandomMask(slices[0].shape(), 0.5, rng);
  model.Step(slices[19], shared_mask, MakeSharedPattern(shared_mask));
  model.Step(slices[20], shared_mask);
  EXPECT_EQ(model.step_pattern_builds(), 3u);
  EXPECT_EQ(model.step_pattern_reuses(), 5u);
}

/// Copying a model branches the stream: learned state duplicates, derived
/// working state (pattern cache, step scratch) resets, and both branches
/// step bit-for-bit.
TEST(SofiaStepSparseTest, CopiedModelStepsBitwiseIdentically) {
  const std::vector<size_t> dims = {6, 5};
  SofiaModel original = MakeModel(dims, /*rank=*/3, 611);
  std::vector<DenseTensor> slices = MakeSlices(dims, 3, 4, 16, 613);
  Rng rng(615);
  Mask omega = RandomMask(slices[0].shape(), 0.5, rng);
  original.Step(slices[12], omega);  // Warm the pattern cache first.

  SofiaModel copy = original;
  EXPECT_EQ(copy.step_pattern_builds(), 0u);  // Derived cache reset.
  for (size_t t = 13; t < 16; ++t) {
    SofiaStepResult a = original.Step(slices[t], omega);
    SofiaStepResult b = copy.Step(slices[t], omega);
    EXPECT_EQ(MaxAbsDiff(a.imputed(), b.imputed()), 0.0) << "t=" << t;
    EXPECT_EQ(a.observed_outliers(), b.observed_outliers()) << "t=" << t;
  }
  EXPECT_EQ(original.level(), copy.level());
  EXPECT_EQ(original.trend(), copy.trend());
}

/// Pure-forecasting / observed-entry workloads never materialize a dense
/// slice on the sparse path; the accessors materialize on first touch.
TEST(SofiaStepSparseTest, SparseStepResultIsLazyUntilAccessed) {
  const std::vector<size_t> dims = {6, 5};
  SofiaModel model = MakeModel(dims, /*rank=*/3, 601);
  std::vector<DenseTensor> slices = MakeSlices(dims, 3, 4, 13, 603);
  Rng rng(605);
  Mask omega = RandomMask(slices[0].shape(), 0.3, rng);

  SofiaStepResult out = model.Step(slices[12], omega);
  EXPECT_FALSE(out.imputed_materialized());
  EXPECT_FALSE(out.outliers_materialized());
  EXPECT_FALSE(out.forecast_materialized());
  EXPECT_EQ(out.num_observed(), omega.CountObserved());

  // First touch materializes; the dense views agree with the sparse ones.
  const DenseTensor& o = out.outliers();
  EXPECT_TRUE(out.outliers_materialized());
  for (size_t k = 0; k < out.num_observed(); ++k) {
    EXPECT_EQ(o[out.observed_indices()[k]], out.observed_outliers()[k]);
  }
  const DenseTensor& f = out.forecast();
  for (size_t k = 0; k < out.num_observed(); ++k) {
    EXPECT_NEAR(f[out.observed_indices()[k]], out.observed_forecast()[k],
                kTol * (1.0 + std::fabs(out.observed_forecast()[k])));
  }
  EXPECT_EQ(out.imputed().shape(), slices[12].shape());
  EXPECT_TRUE(out.imputed_materialized());
}

}  // namespace
}  // namespace sofia
