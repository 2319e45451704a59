// Microbenchmarks of the library's hot kernels, including empirical checks
// of the complexity claims:
//  - Lemma 1: one SOFIA_ALS sweep costs O(|Ω| N R (N + R)) — linear in the
//    number of observed entries for fixed N, R.
//  - Lemma 2: one dynamic update costs O(|Ω_t| N R) — linear in the number
//    of observed entries per slice and *independent of the stream length*.
// Run with --benchmark_filter=... to select kernels.

#include <benchmark/benchmark.h>

#include "baselines/observed_sweep.hpp"
#include "core/sofia_als.hpp"
#include "core/sofia_model.hpp"
#include "data/corruption.hpp"
#include "data/slice_format.hpp"
#include "data/synthetic.hpp"
#include "tensor/coo_list.hpp"
#include "tensor/khatri_rao.hpp"
#include "tensor/kruskal.hpp"
#include "tensor/sparse_kernels.hpp"
#include "tensor/unfold.hpp"
#include "timeseries/hw_fit.hpp"
#include "util/durable_io.hpp"
#include "util/rng.hpp"

namespace sofia {
namespace {

Mask BernoulliMask(const Shape& shape, double density, Rng& rng) {
  Mask omega(shape, false);
  for (size_t k = 0; k < shape.NumElements(); ++k) {
    omega.Set(k, rng.Bernoulli(density));
  }
  return omega;
}

void BM_KhatriRao(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Rng rng(1);
  Matrix a = Matrix::RandomNormal(n, 8, rng);
  Matrix b = Matrix::RandomNormal(n, 8, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(KhatriRao(a, b));
  }
  state.SetComplexityN(static_cast<int64_t>(n * n));
}
BENCHMARK(BM_KhatriRao)->Range(16, 256)->Complexity(benchmark::oN);

void BM_Unfold(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Rng rng(2);
  DenseTensor t = DenseTensor::RandomNormal(Shape({n, n, 8}), rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Unfold(t, 1));
  }
  state.SetComplexityN(static_cast<int64_t>(t.NumElements()));
}
BENCHMARK(BM_Unfold)->Range(16, 128)->Complexity(benchmark::oN);

void BM_KruskalSlice(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Rng rng(3);
  std::vector<Matrix> factors = {Matrix::RandomNormal(n, 8, rng),
                                 Matrix::RandomNormal(n, 8, rng)};
  std::vector<double> w = rng.NormalVector(8);
  for (auto _ : state) {
    benchmark::DoNotOptimize(KruskalSlice(factors, w));
  }
  state.SetComplexityN(static_cast<int64_t>(n * n));
}
BENCHMARK(BM_KruskalSlice)->Range(16, 256)->Complexity(benchmark::oN);

/// Lemma 1: ALS sweep cost scales linearly with |Ω| (fixed N, R).
void BM_SofiaAlsSweep(benchmark::State& state) {
  const size_t duration = static_cast<size_t>(state.range(0));
  SyntheticTensor syn = MakeSinusoidTensor(24, 24, duration, 4, 12, 4);
  Mask omega(syn.tensor.shape(), true);
  DenseTensor o(syn.tensor.shape(), 0.0);
  SofiaConfig config;
  config.rank = 4;
  config.period = 12;
  config.max_als_iterations = 1;  // Exactly one sweep per iteration.
  config.tolerance = 0.0;
  Rng rng(5);
  std::vector<Matrix> factors;
  for (size_t n = 0; n < 3; ++n) {
    factors.push_back(Matrix::Random(syn.tensor.dim(n), 4, rng, 0.0, 1.0));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(SofiaAls(syn.tensor, omega, o, config, &factors));
  }
  state.SetComplexityN(static_cast<int64_t>(syn.tensor.NumElements()));
}
BENCHMARK(BM_SofiaAlsSweep)->RangeMultiplier(2)->Range(12, 96)
    ->Complexity(benchmark::oN);

/// Lemma 2: dynamic-update cost scales linearly with |Ω_t|.
void BM_SofiaDynamicStep(benchmark::State& state) {
  const size_t rows = static_cast<size_t>(state.range(0));
  const size_t period = 8;
  std::vector<DenseTensor> truth =
      MakeScalabilityStream(rows, 64, 3 * period + 64, 4, period, 6);
  CorruptedStream stream = Corrupt(truth, {0.0, 0.0, 0.0}, 7);
  SofiaConfig config;
  config.rank = 4;
  config.period = period;
  config.max_init_iterations = 2;
  const size_t w = config.InitWindow();
  std::vector<DenseTensor> init_slices(truth.begin(), truth.begin() + w);
  std::vector<Mask> init_masks(stream.masks.begin(),
                               stream.masks.begin() + w);
  SofiaModel model =
      SofiaModel::Initialize(init_slices, init_masks, config);
  size_t t = w;
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.Step(stream.slices[t], stream.masks[t]));
    t = w + (t + 1 - w) % (truth.size() - w);
  }
  state.SetComplexityN(static_cast<int64_t>(rows * 64));
}
BENCHMARK(BM_SofiaDynamicStep)->RangeMultiplier(2)->Range(16, 128)
    ->Complexity(benchmark::oN);

/// COO row-system accumulation (all modes of one sweep) at a given observed
/// density (argument = percent observed). The CooList build sits outside
/// the timed loop because SOFIA builds it once per window and reuses it
/// across all modes and sweeps; the timed cost is O(|Ω|) per Lemma 1 and
/// shrinks with the density.
void BM_CooAccumulate(benchmark::State& state) {
  const double density = static_cast<double>(state.range(0)) / 100.0;
  Rng rng(21);
  Shape shape({48, 48, 64});
  DenseTensor y = DenseTensor::RandomNormal(shape, rng);
  DenseTensor o(shape, 0.0);
  Mask omega = BernoulliMask(shape, density, rng);
  std::vector<Matrix> factors;
  for (size_t n = 0; n < shape.order(); ++n) {
    factors.push_back(Matrix::RandomNormal(shape.dim(n), 8, rng));
  }
  const CooList coo = CooList::Build(omega);
  const std::vector<double> ystar = coo.GatherResidual(y, o);
  for (auto _ : state) {
    for (size_t mode = 0; mode < shape.order(); ++mode) {
      benchmark::DoNotOptimize(CooRowSystems(coo, ystar, factors, mode));
    }
  }
  state.SetComplexityN(static_cast<int64_t>(coo.nnz()));
}
BENCHMARK(BM_CooAccumulate)->Arg(1)->Arg(10)->Arg(100);

/// The baselines' temporal normal system (CooNormalSystem) at rank 5 and
/// 70% observed: order 2 is one 40x40 slice of compare-nine (~1,100
/// records, one block), order 3 a 24x24x24 slice (~9,700 records, three
/// blocks). Single thread.
void BM_NormalSystem(benchmark::State& state) {
  const size_t order = static_cast<size_t>(state.range(0));
  const Shape shape = order == 2 ? Shape({40, 40}) : Shape({24, 24, 24});
  Rng rng(45);
  const CooList coo = CooList::Build(BernoulliMask(shape, 0.7, rng), false);
  std::vector<Matrix> factors;
  for (size_t n = 0; n < shape.order(); ++n) {
    factors.push_back(Matrix::RandomNormal(shape.dim(n), 5, rng));
  }
  std::vector<double> values(coo.nnz());
  for (double& v : values) v = rng.Normal();
  for (auto _ : state) {
    benchmark::DoNotOptimize(CooNormalSystem(coo, values, factors));
  }
  state.SetComplexityN(static_cast<int64_t>(coo.nnz()));
}
BENCHMARK(BM_NormalSystem)->Arg(2)->Arg(3)->ArgName("order");

/// End-to-end SOFIA_ALS (3 sweeps) on a 10%-observed synthetic tensor; see
/// BENCH_kernels.json.
void BM_SofiaAls10pct(benchmark::State& state) {
  Rng rng(23);
  SyntheticTensor syn = MakeSinusoidTensor(32, 32, 48, 4, 12, 4);
  const Shape& shape = syn.tensor.shape();
  Mask omega = BernoulliMask(shape, 0.10, rng);
  DenseTensor o(shape, 0.0);
  SofiaConfig config;
  config.rank = 4;
  config.period = 12;
  config.max_als_iterations = 3;
  config.tolerance = 0.0;
  Rng frng(25);
  std::vector<Matrix> init;
  for (size_t n = 0; n < shape.order(); ++n) {
    init.push_back(Matrix::Random(shape.dim(n), 4, frng, 0.0, 1.0));
  }
  for (auto _ : state) {
    std::vector<Matrix> factors = init;
    benchmark::DoNotOptimize(SofiaAls(syn.tensor, omega, o, config, &factors));
  }
}
BENCHMARK(BM_SofiaAls10pct);

/// Dynamic update (SofiaModel::Step) at a given observed density (argument
/// = percent observed). A fixed mask across steps — the fixed-sensor-outage
/// case — lets the pattern cache hold, so the timed cost is Lemma 2's
/// O(|Ω_t| N R); see BENCH_stream.json.
void BM_SofiaStepSparse(benchmark::State& state) {
  const double density = static_cast<double>(state.range(0)) / 100.0;
  const size_t period = 8;
  std::vector<DenseTensor> truth =
      MakeScalabilityStream(48, 48, 3 * period + 16, 4, period, 31);
  SofiaConfig config;
  config.rank = 4;
  config.period = period;
  config.max_init_iterations = 2;
  config.num_threads = 1;
  const size_t w = config.InitWindow();
  std::vector<DenseTensor> init_slices(truth.begin(), truth.begin() + w);
  std::vector<Mask> init_masks(w, Mask(truth[0].shape(), true));
  SofiaModel model = SofiaModel::Initialize(init_slices, init_masks, config);
  Rng rng(33);
  Mask omega = BernoulliMask(truth[0].shape(), density, rng);
  size_t t = w;
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.Step(truth[t], omega));
    t = w + (t + 1 - w) % (truth.size() - w);
  }
  state.SetComplexityN(static_cast<int64_t>(omega.CountObserved()));
}

BENCHMARK(BM_SofiaStepSparse)->Arg(1)->Arg(10)->Arg(100);

/// MakeSharedPattern on 64x64 slices (argument 0 = percent observed,
/// argument 1 = with mode buckets): the per-slice ingest of a stream. The
/// loop cycles through 64 random masks so the branch predictor cannot learn
/// one; each mask's observed count is cached up front, as a decoded
/// stream mask's is by its first use.
void BM_PatternBuild(benchmark::State& state) {
  const double density = static_cast<double>(state.range(0)) / 100.0;
  const bool buckets = state.range(1) != 0;
  Rng rng(41);
  std::vector<Mask> masks;
  for (size_t i = 0; i < 64; ++i) {
    masks.push_back(BernoulliMask(Shape({64, 64}), density, rng));
    masks.back().CountObserved();
  }
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(MakeSharedPattern(masks[i], buckets));
    i = (i + 1) % masks.size();
  }
}
BENCHMARK(BM_PatternBuild)
    ->ArgsProduct({{25, 75, 100}, {0, 1}})
    ->ArgNames({"pct", "buckets"});

/// One 64x64 journal record at 75% observed (~49 KB): the index-driven
/// encode plus its CRC-32, into a reused buffer (DurableGuard's append).
void BM_JournalEncode(benchmark::State& state) {
  Rng rng(43);
  const Shape shape({64, 64});
  const DenseTensor slice = DenseTensor::RandomNormal(shape, rng);
  const CooList pattern =
      CooList::Build(BernoulliMask(shape, 0.75, rng), false);
  const std::vector<size_t>& indices = pattern.LinearIndices();
  std::string record;
  uint64_t step = 0;
  for (auto _ : state) {
    slicefmt::EncodeRecord(step++, slice, indices.data(), indices.size(),
                           &record);
    benchmark::DoNotOptimize(record.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations() *
                                               record.size()));
  state.SetLabel(durable::Crc32Path());
}
BENCHMARK(BM_JournalEncode);

void BM_HoltWintersFit(benchmark::State& state) {
  const size_t seasons = static_cast<size_t>(state.range(0));
  std::vector<double> series =
      MakeSeasonalSeries(seasons * 12, 12, 1.0, 0.05, 0.01, 8);
  for (auto _ : state) {
    benchmark::DoNotOptimize(FitHoltWinters(series, 12));
  }
}
BENCHMARK(BM_HoltWintersFit)->Arg(3)->Arg(6)->Arg(12);

}  // namespace
}  // namespace sofia

BENCHMARK_MAIN();
