// The CSF storage subsystem, end to end:
//  - CsfTensor trees reproduce the exact coordinate sets of the CooList
//    they compile, across orders, densities, and degenerate shapes;
//  - every CSF kernel agrees with its Coo twin and the dense reference to
//    ≤1e-12 (the downward-prefix kernels bitwise), including empty Ω,
//    full Ω, single-fiber and length-1 modes, ranks 1..8;
//  - CSF kernels are bitwise identical for every thread count;
//  - RunImputationComparison under csf storage matches the coo run to
//    ≤1e-12 for all nine streaming methods;
//  - the steady-state comparison loop performs zero O(volume) scans:
//    one pattern build per distinct mask run, SparseMask reuse compares,
//    no dense-mask byte compares (counter-pinned), and the rebuild
//    telemetry logs bitmap deltas instead of rebuilding silently.

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <vector>

#include "baselines/brst.hpp"
#include "baselines/cp_wopt_stream.hpp"
#include "baselines/cphw.hpp"
#include "baselines/mast.hpp"
#include "baselines/observed_sweep.hpp"
#include "baselines/olstec.hpp"
#include "baselines/online_sgd.hpp"
#include "baselines/or_mstc.hpp"
#include "baselines/smf.hpp"
#include "core/sofia_stream.hpp"
#include "data/corruption.hpp"
#include "data/synthetic.hpp"
#include "dense_oracle.hpp"
#include "eval/stream_runner.hpp"
#include "tensor/csf_kernels.hpp"
#include "tensor/csf_tensor.hpp"
#include "tensor/kruskal.hpp"
#include "tensor/products.hpp"
#include "tensor/sparse_kernels.hpp"
#include "tensor/sparse_mask.hpp"
#include "util/rng.hpp"
#include "util/shard_executor.hpp"

namespace sofia {
namespace {

Mask RandomMask(const Shape& shape, double density, uint64_t seed) {
  Rng rng(seed);
  Mask omega(shape, false);
  for (size_t k = 0; k < shape.NumElements(); ++k) {
    omega.Set(k, rng.Bernoulli(density));
  }
  return omega;
}

std::vector<Matrix> RandomFactors(const Shape& shape, size_t rank,
                                  uint64_t seed) {
  Rng rng(seed);
  std::vector<Matrix> factors;
  for (size_t n = 0; n < shape.order(); ++n) {
    factors.push_back(Matrix::Random(shape.dim(n), rank, rng, -1.0, 1.0));
  }
  return factors;
}

std::vector<double> RandomValues(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<double> v(n);
  for (double& x : v) x = rng.Uniform(-2.0, 2.0);
  return v;
}

/// Shapes the parity sweep runs over: order 3 and 4, a single-fiber shape,
/// and a degenerate length-1 mode.
std::vector<Shape> ParityShapes() {
  return {Shape({6, 5, 4}), Shape({5, 4, 3, 2}), Shape({4, 1, 1}),
          Shape({1, 7, 3})};
}

constexpr double kDensities[] = {0.0, 0.01, 0.05, 0.5, 1.0};
constexpr size_t kRanks[] = {1, 3, 8};

double Tol(double reference) { return 1e-12 * (1.0 + std::abs(reference)); }

// ------------------------------------------------------------- structure

TEST(CsfTensorTest, TreesReproduceTheRecordSet) {
  for (const Shape& shape : ParityShapes()) {
    for (double density : kDensities) {
      Mask omega = RandomMask(shape, density, 7 + shape.order());
      CooList coo = CooList::Build(omega);
      CsfTensor csf = CsfTensor::Build(coo);
      ASSERT_EQ(csf.order(), shape.order());
      ASSERT_EQ(csf.nnz(), coo.nnz());
      for (size_t mode = 0; mode < shape.order(); ++mode) {
        const CsfTree& t = csf.tree(mode);
        ASSERT_EQ(t.root_mode, mode);
        ASSERT_EQ(t.record.size(), coo.nnz());
        ASSERT_EQ(t.ids[shape.order() - 1].size(), coo.nnz());
        // Walk every leaf's root-to-leaf path and check it spells exactly
        // the coordinates of the record it points to, in the bucket order.
        const std::vector<uint32_t>& perm = coo.ModeOrder(mode);
        std::vector<size_t> node_at(shape.order(), 0);  // Path per level.
        for (size_t leaf = 0; leaf < t.record.size(); ++leaf) {
          EXPECT_EQ(t.record[leaf], perm[leaf]);
          const uint32_t* c = coo.Coords(t.record[leaf]);
          // Leaf coordinate is stored directly.
          EXPECT_EQ(t.ids[shape.order() - 1][leaf],
                    c[t.level_mode[shape.order() - 1]]);
          // Ancestors: find the node owning this leaf per level via ptr.
          size_t node = leaf;
          for (size_t l = shape.order() - 1; l-- > 0;) {
            while (t.ptr[l][node_at[l] + 1] <= node) ++node_at[l];
            node = node_at[l];
            EXPECT_EQ(t.ids[l][node], c[t.level_mode[l]]);
          }
        }
        // Sentinels close every level at its full child count.
        for (size_t l = 0; l + 1 < shape.order(); ++l) {
          ASSERT_EQ(t.ptr[l].size(), t.ids[l].size() + 1);
          EXPECT_EQ(t.ptr[l].back(), t.ids[l + 1].size());
        }
      }
    }
  }
}

// ---------------------------------------------------------- kernel parity

TEST(CsfKernelsTest, MttkrpMatchesCooAndDense) {
  for (const Shape& shape : ParityShapes()) {
    for (double density : kDensities) {
      for (size_t rank : kRanks) {
        Mask omega = RandomMask(shape, density, 11);
        CooList coo = CooList::Build(omega);
        CsfTensor csf = CsfTensor::Build(coo);
        std::vector<Matrix> factors = RandomFactors(shape, rank, 13);
        std::vector<double> values = RandomValues(coo.nnz(), 17);
        // Dense reference: scatter the values into a tensor.
        DenseTensor y(shape, 0.0);
        for (size_t k = 0; k < coo.nnz(); ++k) {
          y[coo.LinearIndex(k)] = values[k];
        }
        for (size_t mode = 0; mode < shape.order(); ++mode) {
          SCOPED_TRACE(::testing::Message()
                       << shape.ToString() << " density " << density
                       << " rank " << rank << " mode " << mode);
          Matrix coo_out = CooMttkrp(coo, values, factors, mode);
          Matrix csf_out = CsfMttkrp(csf, values, factors, mode);
          Matrix dense_out = MaskedMttkrp(y, omega, factors, mode);
          ASSERT_EQ(csf_out.rows(), coo_out.rows());
          for (size_t i = 0; i < csf_out.rows(); ++i) {
            for (size_t r = 0; r < rank; ++r) {
              EXPECT_NEAR(csf_out(i, r), coo_out(i, r), Tol(coo_out(i, r)));
              EXPECT_NEAR(csf_out(i, r), dense_out(i, r),
                          Tol(dense_out(i, r)));
            }
          }
        }
      }
    }
  }
}

TEST(CsfKernelsTest, RowSystemsMatchCooAndDense) {
  for (const Shape& shape : ParityShapes()) {
    for (double density : {0.05, 0.5}) {
      for (size_t rank : kRanks) {
        Mask omega = RandomMask(shape, density, 19);
        CooList coo = CooList::Build(omega);
        CsfTensor csf = CsfTensor::Build(coo);
        std::vector<Matrix> factors = RandomFactors(shape, rank, 23);
        std::vector<double> values = RandomValues(coo.nnz(), 29);
        DenseTensor y(shape, 0.0);
        for (size_t k = 0; k < coo.nnz(); ++k) {
          y[coo.LinearIndex(k)] = values[k];
        }
        const DenseTensor zeros(shape, 0.0);
        for (size_t mode = 0; mode < shape.order(); ++mode) {
          SCOPED_TRACE(::testing::Message()
                       << shape.ToString() << " density " << density
                       << " rank " << rank << " mode " << mode);
          RowSystems coo_sys = CooRowSystems(coo, values, factors, mode);
          RowSystems csf_sys = CsfRowSystems(csf, values, factors, mode);
          RowSystems dense_sys = dense_oracle::DenseRowSystems(
              y, omega, zeros, factors, mode);
          ASSERT_EQ(csf_sys.b.size(), coo_sys.b.size());
          for (size_t i = 0; i < csf_sys.b.size(); ++i) {
            for (size_t r = 0; r < rank; ++r) {
              EXPECT_NEAR(csf_sys.c[i][r], coo_sys.c[i][r],
                          Tol(coo_sys.c[i][r]));
              EXPECT_NEAR(csf_sys.c[i][r], dense_sys.c[i][r],
                          Tol(dense_sys.c[i][r]));
              for (size_t q = 0; q < rank; ++q) {
                EXPECT_NEAR(csf_sys.b[i](r, q), coo_sys.b[i](r, q),
                            Tol(coo_sys.b[i](r, q)));
                EXPECT_NEAR(csf_sys.b[i](r, q), dense_sys.b[i](r, q),
                            Tol(dense_sys.b[i](r, q)));
              }
            }
          }
        }
      }
    }
  }
}

TEST(CsfKernelsTest, WeightedRowSystemsAndProximalMatchCoo) {
  for (const Shape& shape : ParityShapes()) {
    for (size_t rank : kRanks) {
      Mask omega = RandomMask(shape, 0.3, 31);
      CooList coo = CooList::Build(omega);
      CsfTensor csf = CsfTensor::Build(coo);
      std::vector<Matrix> factors = RandomFactors(shape, rank, 37);
      std::vector<double> values = RandomValues(coo.nnz(), 41);
      std::vector<double> w = RandomValues(rank, 43);
      Rng rng(47);
      for (size_t mode = 0; mode < shape.order(); ++mode) {
        SCOPED_TRACE(::testing::Message() << shape.ToString() << " rank "
                                          << rank << " mode " << mode);
        RowSystems coo_sys =
            CooWeightedRowSystems(coo, values, factors, w, mode);
        RowSystems csf_sys =
            CsfWeightedRowSystems(csf, values, factors, w, mode);
        for (size_t i = 0; i < csf_sys.b.size(); ++i) {
          for (size_t r = 0; r < rank; ++r) {
            EXPECT_NEAR(csf_sys.c[i][r], coo_sys.c[i][r],
                        Tol(coo_sys.c[i][r]));
            for (size_t q = 0; q < rank; ++q) {
              EXPECT_NEAR(csf_sys.b[i](r, q), coo_sys.b[i](r, q),
                          Tol(coo_sys.b[i](r, q)));
            }
          }
        }
        const Matrix previous =
            Matrix::Random(shape.dim(mode), rank, rng, -1.0, 1.0);
        Matrix u_coo = previous;
        Matrix u_csf = previous;
        CooProximalRowUpdates(coo, values, factors, w, mode, previous, 0.7,
                              &u_coo);
        CsfProximalRowUpdates(csf, values, factors, w, mode, previous, 0.7,
                              &u_csf);
        for (size_t i = 0; i < u_coo.rows(); ++i) {
          for (size_t r = 0; r < rank; ++r) {
            // Same ProximalRowSolve tail on ≤1e-12-close systems —
            // including rows with no observations (empty-system path,
            // which is exactly shared and so exactly equal).
            EXPECT_NEAR(u_csf(i, r), u_coo(i, r), Tol(u_coo(i, r)));
          }
        }
      }
    }
  }
}

TEST(CsfKernelsTest, GlobalKernelsMatchCoo) {
  for (const Shape& shape : ParityShapes()) {
    for (double density : kDensities) {
      for (size_t rank : kRanks) {
        SCOPED_TRACE(::testing::Message() << shape.ToString() << " density "
                                          << density << " rank " << rank);
        Mask omega = RandomMask(shape, density, 53);
        CooList coo = CooList::Build(omega);
        CsfTensor csf = CsfTensor::Build(coo);
        std::vector<Matrix> factors = RandomFactors(shape, rank, 59);
        std::vector<double> values = RandomValues(coo.nnz(), 61);
        std::vector<double> w = RandomValues(rank, 67);

        NormalSystem coo_sys = CooNormalSystem(coo, values, factors);
        NormalSystem csf_sys = CsfNormalSystem(csf, values, factors);
        for (size_t r = 0; r < rank; ++r) {
          EXPECT_NEAR(csf_sys.c[r], coo_sys.c[r], Tol(coo_sys.c[r]));
          for (size_t q = 0; q < rank; ++q) {
            EXPECT_NEAR(csf_sys.b(r, q), coo_sys.b(r, q),
                        Tol(coo_sys.b(r, q)));
          }
        }

        std::vector<double> coo_gather =
            CooKruskalGather(coo, factors, w);
        std::vector<double> csf_gather =
            CsfKruskalGather(csf, factors, w);
        ASSERT_EQ(csf_gather.size(), coo_gather.size());
        for (size_t k = 0; k < coo_gather.size(); ++k) {
          EXPECT_NEAR(csf_gather[k], coo_gather[k], Tol(coo_gather[k]));
        }
        // Dense reference for the gather.
        DenseTensor recon = KruskalSlice(factors, w);
        for (size_t k = 0; k < csf_gather.size(); ++k) {
          EXPECT_NEAR(csf_gather[k], recon[coo.LinearIndex(k)],
                      Tol(recon[coo.LinearIndex(k)]));
        }

        ModeGradients coo_g = CooModeGradients(coo, values, factors, w);
        ModeGradients csf_g = CsfModeGradients(csf, values, factors, w);
        StepGradients coo_s = CooStepGradients(coo, values, factors, w);
        StepGradients csf_s = CsfStepGradients(csf, values, factors, w);
        for (size_t n = 0; n < shape.order(); ++n) {
          for (size_t i = 0; i < factors[n].rows(); ++i) {
            EXPECT_NEAR(csf_g.row_trace[n][i], coo_g.row_trace[n][i],
                        Tol(coo_g.row_trace[n][i]));
            for (size_t r = 0; r < rank; ++r) {
              EXPECT_NEAR(csf_g.row_grads[n](i, r), coo_g.row_grads[n](i, r),
                          Tol(coo_g.row_grads[n](i, r)));
              EXPECT_NEAR(csf_s.row_grads[n](i, r), coo_s.row_grads[n](i, r),
                          Tol(coo_s.row_grads[n](i, r)));
            }
          }
        }
        for (size_t r = 0; r < rank; ++r) {
          EXPECT_NEAR(csf_s.temporal_grad[r], coo_s.temporal_grad[r],
                      Tol(coo_s.temporal_grad[r]));
        }
        EXPECT_NEAR(csf_s.temporal_trace, coo_s.temporal_trace,
                    Tol(coo_s.temporal_trace));
      }
    }
  }
}

TEST(CsfKernelsTest, BitwiseThreadDeterminism) {
  const Shape shape({7, 6, 5});
  Mask omega = RandomMask(shape, 0.3, 71);
  CooList coo = CooList::Build(omega);
  CsfTensor csf = CsfTensor::Build(coo);
  const size_t rank = 5;
  std::vector<Matrix> factors = RandomFactors(shape, rank, 73);
  std::vector<double> values = RandomValues(coo.nnz(), 79);
  std::vector<double> w = RandomValues(rank, 83);

  // Each executor size is a different task-to-thread map.
  for (size_t threads : {2, 3}) {
    SCOPED_TRACE(threads);
    ShardExecutor pool(threads);
    for (size_t mode = 0; mode < shape.order(); ++mode) {
      Matrix serial = CsfMttkrp(csf, values, factors, mode);
      Matrix threaded = CsfMttkrp(csf, values, factors, mode, &pool);
      for (size_t i = 0; i < serial.rows(); ++i) {
        for (size_t r = 0; r < rank; ++r) {
          EXPECT_EQ(serial(i, r), threaded(i, r));
        }
      }
      RowSystems s1 = CsfWeightedRowSystems(csf, values, factors, w, mode);
      RowSystems s2 =
          CsfWeightedRowSystems(csf, values, factors, w, mode, &pool);
      for (size_t i = 0; i < s1.b.size(); ++i) {
        EXPECT_EQ(s1.c[i], s2.c[i]);
      }
    }
    NormalSystem n1 = CsfNormalSystem(csf, values, factors);
    NormalSystem n2 = CsfNormalSystem(csf, values, factors, &pool);
    EXPECT_EQ(n1.c, n2.c);
    EXPECT_EQ(CsfKruskalGather(csf, factors, w),
              CsfKruskalGather(csf, factors, w, &pool));
    StepGradients g1 = CsfStepGradients(csf, values, factors, w);
    StepGradients g2 = CsfStepGradients(csf, values, factors, w, &pool);
    EXPECT_EQ(g1.temporal_grad, g2.temporal_grad);
    EXPECT_EQ(g1.temporal_trace, g2.temporal_trace);
  }
}

TEST(CsfKernelsTest, ObservedSweepCsfBackendMatchesCoo) {
  const Shape shape({6, 5, 4});
  Mask omega = RandomMask(shape, 0.2, 89);
  DenseTensor y(shape, 0.0);
  Rng rng(97);
  for (size_t k = 0; k < y.NumElements(); ++k) y[k] = rng.Uniform(-1.0, 1.0);
  const size_t rank = 3;
  std::vector<Matrix> factors = RandomFactors(shape, rank, 101);
  std::vector<double> w = RandomValues(rank, 103);

  ObservedSweepOptions coo_opts;
  ObservedSweepOptions csf_opts;
  csf_opts.pattern_storage = PatternStorage::kCsf;
  ObservedSweep coo_sweep(coo_opts);
  ObservedSweep csf_sweep(csf_opts);
  coo_sweep.BeginStep(y, omega);
  csf_sweep.BeginStep(y, omega);
  EXPECT_EQ(coo_sweep.csf(), nullptr);
  ASSERT_NE(csf_sweep.csf(), nullptr);

  const std::vector<double> recon_coo = coo_sweep.Reconstruct(factors, w);
  const std::vector<double> recon_csf = csf_sweep.Reconstruct(factors, w);
  ASSERT_EQ(recon_csf.size(), recon_coo.size());
  for (size_t k = 0; k < recon_coo.size(); ++k) {
    EXPECT_NEAR(recon_csf[k], recon_coo[k], Tol(recon_coo[k]));
  }
  const std::vector<double> ridge_coo =
      coo_sweep.SolveTemporalRow(factors, coo_sweep.values(), 1e-6);
  const std::vector<double> ridge_csf =
      csf_sweep.SolveTemporalRow(factors, csf_sweep.values(), 1e-6);
  for (size_t r = 0; r < rank; ++r) {
    EXPECT_NEAR(ridge_csf[r], ridge_coo[r], Tol(ridge_coo[r]));
  }
  // Mask reuse keeps the compiled trees: same pattern object, no rebuild.
  const CsfTensor* before = csf_sweep.csf();
  csf_sweep.BeginStep(y, omega);
  EXPECT_EQ(csf_sweep.csf(), before);
  EXPECT_EQ(csf_sweep.pattern_builds(), 1u);
  EXPECT_EQ(csf_sweep.pattern_reuses(), 1u);

  // A bucket-less shared pattern cannot compile fiber trees: the kCsf
  // sweep must fall back to the COO backend instead of aborting.
  ObservedSweep fallback(csf_opts);
  fallback.BeginStep(y, omega,
                     MakeSharedPattern(omega, /*with_mode_buckets=*/false));
  EXPECT_EQ(fallback.csf(), nullptr);
  EXPECT_EQ(fallback.Reconstruct(factors, w).size(), omega.CountObserved());
}

// ------------------------------------------- nine-method storage parity

std::vector<DenseTensor> MakeTruth(size_t steps, uint64_t seed) {
  SyntheticTensor syn = MakeSinusoidTensor(6, 5, steps, 3, 4, seed);
  std::vector<DenseTensor> truth;
  for (size_t t = 0; t < steps; ++t) {
    truth.push_back(syn.tensor.SliceLastMode(t));
  }
  return truth;
}

/// All nine streaming methods of the comparison protocols, small configs
/// (mirrors tests/step_result_test.cc).
std::vector<std::unique_ptr<StreamingMethod>> MakeAllMethods() {
  std::vector<std::unique_ptr<StreamingMethod>> methods;
  SofiaConfig config;
  config.rank = 3;
  config.period = 4;
  config.lambda1 = 0.5;
  config.lambda2 = 0.5;
  config.num_threads = 1;
  methods.push_back(std::make_unique<SofiaStream>(config));
  methods.push_back(std::make_unique<OnlineSgd>(OnlineSgdOptions{.rank = 3}));
  methods.push_back(std::make_unique<Olstec>(OlstecOptions{.rank = 3}));
  methods.push_back(std::make_unique<Mast>(MastOptions{.rank = 3}));
  methods.push_back(std::make_unique<OrMstc>(
      OrMstcOptions{.rank = 3, .outlier_lambda = 2.0}));
  methods.push_back(std::make_unique<BrstLite>(BrstOptions{.rank = 4}));
  methods.push_back(std::make_unique<Smf>(SmfOptions{.rank = 3, .period = 4}));
  methods.push_back(std::make_unique<Cphw>(CphwOptions{.rank = 3,
                                                       .period = 4}));
  methods.push_back(std::make_unique<CpWoptStream>(
      CpWoptStreamOptions{.rank = 3, .iterations_per_step = 5}));
  return methods;
}

TEST(CsfPipelineTest, CsfStorageMatchesCooForAllNineMethods) {
  std::vector<DenseTensor> truth = MakeTruth(20, 91);
  CorruptedStream stream = Corrupt(truth, {40.0, 10.0, 2.0}, 92);
  // Edge steps: empty Ω, full Ω, and a mask-reuse run under csf storage.
  stream.masks[9] = Mask(truth[0].shape(), false);
  stream.masks[10] = Mask(truth[0].shape(), true);
  stream.masks[12] = stream.masks[11];
  stream.masks[13] = stream.masks[11];

  StreamEvalOptions coo_options;
  coo_options.max_eval_entries = 8;
  StreamEvalOptions csf_options = coo_options;
  csf_options.pattern_storage = PatternStorage::kCsf;

  std::vector<std::unique_ptr<StreamingMethod>> coo_owned = MakeAllMethods();
  std::vector<std::unique_ptr<StreamingMethod>> csf_owned = MakeAllMethods();
  std::vector<StreamingMethod*> coo_methods, csf_methods;
  for (auto& m : coo_owned) coo_methods.push_back(m.get());
  for (auto& m : csf_owned) csf_methods.push_back(m.get());
  ASSERT_EQ(coo_methods.size(), 9u);

  std::vector<MethodRunResult> coo =
      RunImputationComparison(coo_methods, stream, truth, coo_options);
  std::vector<MethodRunResult> csf =
      RunImputationComparison(csf_methods, stream, truth, csf_options);

  ASSERT_EQ(coo.size(), csf.size());
  for (size_t m = 0; m < coo.size(); ++m) {
    SCOPED_TRACE(coo[m].name);
    ASSERT_EQ(csf[m].run.nre.size(), truth.size());
    for (size_t t = 0; t < truth.size(); ++t) {
      EXPECT_NEAR(csf[m].run.nre[t], coo[m].run.nre[t],
                  Tol(coo[m].run.nre[t]))
          << "t=" << t;
      EXPECT_NEAR(csf[m].run.observed_nre[t], coo[m].run.observed_nre[t],
                  Tol(coo[m].run.observed_nre[t]))
          << "t=" << t;
      EXPECT_NEAR(csf[m].run.missing_nre[t], coo[m].run.missing_nre[t],
                  Tol(coo[m].run.missing_nre[t]))
          << "t=" << t;
    }
    EXPECT_NEAR(csf[m].run.rae, coo[m].run.rae, Tol(coo[m].run.rae));
  }
}

// ------------------------------------------------- steady-state counters

TEST(CsfPipelineTest, SteadyStateLoopPerformsNoVolumeScans) {
  // One fixed outage mask across the whole stream, csf storage: the loop
  // must compact exactly once, serve every later step from the SparseMask
  // cache, log no deltas, and never fall back to a dense mask byte
  // compare. SOFIA adopts the shared pattern without building.
  std::vector<DenseTensor> truth = MakeTruth(20, 31);
  CorruptedStream stream = Corrupt(truth, {50.0, 0.0, 0.0}, 32);
  for (size_t t = 1; t < stream.masks.size(); ++t) {
    stream.masks[t] = stream.masks[0];
  }

  SofiaConfig config;
  config.rank = 3;
  config.period = 4;
  SofiaStream sofia(config);
  OnlineSgd sgd(OnlineSgdOptions{.rank = 3});
  std::vector<StreamingMethod*> methods = {&sofia, &sgd};
  StreamEvalOptions options;
  options.pattern_storage = PatternStorage::kCsf;

  Mask::ResetDeepEqualityScans();
  std::vector<MethodRunResult> results =
      RunImputationComparison(methods, stream, truth, options);
  EXPECT_EQ(Mask::deep_equality_scans(), 0u)
      << "a steady-state step fell back to a dense mask byte compare";
  ASSERT_EQ(results.size(), 2u);
  for (const MethodRunResult& r : results) {
    EXPECT_EQ(r.run.pattern_builds, 1u);
    EXPECT_EQ(r.run.pattern_reuses, truth.size() - 1);
    EXPECT_TRUE(r.run.pattern_delta_sizes.empty());
  }
  EXPECT_EQ(sofia.model().step_pattern_builds(), 0u);
}

TEST(CsfPipelineTest, RebuildTelemetryLogsBitmapDeltas) {
  // Mask churn halfway through the stream: two builds, one logged delta of
  // exactly the masks' symmetric difference, everything else reuses.
  std::vector<DenseTensor> truth = MakeTruth(10, 41);
  CorruptedStream stream = Corrupt(truth, {30.0, 0.0, 0.0}, 42);
  const Mask mask_a = stream.masks[0];
  const Mask mask_b = stream.masks[5];
  for (size_t t = 0; t < 5; ++t) stream.masks[t] = mask_a;
  for (size_t t = 5; t < truth.size(); ++t) stream.masks[t] = mask_b;

  OnlineSgd sgd(OnlineSgdOptions{.rank = 3});
  std::vector<StreamingMethod*> methods = {&sgd};
  std::vector<MethodRunResult> results =
      RunImputationComparison(methods, stream, truth);

  const StreamRunResult& run = results[0].run;
  EXPECT_EQ(run.pattern_builds, 2u);
  EXPECT_EQ(run.pattern_reuses, truth.size() - 2);
  ASSERT_EQ(run.pattern_delta_sizes.size(), 1u);
  const size_t expected =
      SparseMask::FromMask(mask_a).DeltaSize(SparseMask::FromMask(mask_b));
  EXPECT_GT(expected, 0u);
  EXPECT_EQ(run.pattern_delta_sizes[0], expected);
}

}  // namespace
}  // namespace sofia
