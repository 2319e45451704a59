// Raw-speed kernel pass: every hot Coo kernel timed with the AVX2+FMA
// trampoline enabled vs forced scalar (simd::SetEnabled), at ranks 4, 5
// (one lane past a whole 4-lane vector), 8 and 16, on one machine. The speedup entries are the acceptance
// numbers; on hardware without AVX2+FMA every pair degenerates to 1x and
// the JSON says so.
//
// Emits its summary JSON directly:
//
//   bench_simd [--out=BENCH_simd.json] [--d0=96] [--d1=32] [--d2=32]
//              [--density=5] [--reps=5]

#include <cstdio>
#include <functional>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "linalg/matrix.hpp"
#include "tensor/coo_list.hpp"
#include "tensor/mask.hpp"
#include "tensor/simd.hpp"
#include "tensor/sparse_kernels.hpp"
#include "util/bench_json.hpp"
#include "util/flags.hpp"
#include "util/rng.hpp"
#include "util/stopwatch.hpp"

namespace sofia {
namespace {

Mask BernoulliMask(const Shape& shape, double density, Rng& rng) {
  Mask omega(shape, false);
  for (size_t k = 0; k < shape.NumElements(); ++k) {
    omega.Set(k, rng.Bernoulli(density));
  }
  return omega;
}

std::vector<Matrix> RandomFactors(const Shape& shape, size_t rank, Rng& rng) {
  std::vector<Matrix> factors;
  for (size_t n = 0; n < shape.order(); ++n) {
    factors.push_back(Matrix::Random(shape.dim(n), rank, rng, -1.0, 1.0));
  }
  return factors;
}

/// Best (minimum) wall seconds of `fn` over `reps` runs.
double Best(size_t reps, const std::function<void()>& fn) {
  double best = 0.0;
  for (size_t rep = 0; rep < reps; ++rep) {
    Stopwatch timer;
    fn();
    const double s = timer.ElapsedSeconds();
    if (rep == 0 || s < best) best = s;
  }
  return best;
}

/// Times `fn` once with the simd knob off and once with it on, recording
/// both and the scalar/simd ratio under `name`.
void SimdPair(const std::string& name, size_t reps,
              std::map<std::string, double>* results,
              std::map<std::string, double>* speedups,
              const std::function<void()>& fn) {
  simd::SetEnabled(false);
  const double scalar_s = Best(reps, fn);
  simd::SetEnabled(true);
  const double simd_s = Best(reps, fn);
  simd::SetEnabled(false);
  (*results)[name + "_scalar_s"] = scalar_s;
  (*results)[name + "_simd_s"] = simd_s;
  (*speedups)[name] = simd_s > 0.0 ? scalar_s / simd_s : 0.0;
}

}  // namespace
}  // namespace sofia

int main(int argc, char** argv) {
  using namespace sofia;
  Flags flags(argc, argv);
  const std::string out_path = flags.GetString("out", "BENCH_simd.json");
  const size_t d0 = static_cast<size_t>(flags.GetInt("d0", 96));
  const size_t d1 = static_cast<size_t>(flags.GetInt("d1", 32));
  const size_t d2 = static_cast<size_t>(flags.GetInt("d2", 32));
  const int density = flags.GetInt("density", 5);
  const size_t reps = static_cast<size_t>(flags.GetInt("reps", 5));

  const Shape shape({d0, d1, d2});
  std::map<std::string, double> results;
  std::map<std::string, double> speedups;

  if (!simd::Available()) {
    std::printf("note: no AVX2+FMA on this host — simd pairs will be ~1x\n");
  }

  for (size_t rank : {size_t{4}, size_t{5}, size_t{8}, size_t{16}}) {
    Rng rng(301 + rank);
    Mask omega = BernoulliMask(shape, density / 100.0, rng);
    CooList coo = CooList::Build(omega);
    std::vector<Matrix> factors = RandomFactors(shape, rank, rng);
    std::vector<double> values(coo.nnz());
    for (double& v : values) v = rng.Uniform(-2.0, 2.0);
    std::vector<double> w(rank, 0.7);
    const std::string r = "/r" + std::to_string(rank);
    // SOFIA's fused step on the same pattern, factors and temporal row.
    DenseTensor y(shape, 0.0);
    for (size_t k = 0; k < coo.nnz(); ++k) {
      y[coo.LinearIndex(k)] = rng.Uniform(-2.0, 2.0);
    }
    DenseTensor sigma(shape, 0.5);
    SofiaStepRobust robust;
    robust.phi = 0.01;
    robust.huber_k = 2.0;
    robust.biweight_ck = 2.52;
    std::vector<double> forecast, outliers;
    StepGradients grads;

    SimdPair("mttkrp_coo" + r, reps, &results, &speedups, [&] {
      for (size_t mode = 0; mode < shape.order(); ++mode) {
        CooMttkrp(coo, values, factors, mode);
      }
    });
    SimdPair("sofia_step_coo" + r, reps, &results, &speedups, [&] {
      CooSofiaStep(coo, y, factors, w, robust, &sigma, &forecast,
                   &outliers, &grads);
    });
    SimdPair("row_systems_coo" + r, reps, &results, &speedups, [&] {
      for (size_t mode = 0; mode < shape.order(); ++mode) {
        CooRowSystems(coo, values, factors, mode);
      }
    });
    SimdPair("kruskal_gather_coo" + r, reps, &results, &speedups,
             [&] { CooKruskalGather(coo, factors, w); });

    std::printf(
        "simd r=%-2zu: mttkrp %.2fx | sofia-step %.2fx | row-sys %.2fx | "
        "gather %.2fx\n",
        rank, speedups["mttkrp_coo" + r], speedups["sofia_step_coo" + r],
        speedups["row_systems_coo" + r], speedups["kruskal_gather_coo" + r]);
  }
  // Back to the shipping position, which the machine block reports.
  simd::SetEnabled(simd::Available());

  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(f, "{\n");
  std::fprintf(
      f,
      "  \"description\": \"Raw-speed kernel levers on %zux%zux%zu, %d%% "
      "observed. simd pairs time each hot Coo kernel with the AVX2+FMA "
      "trampoline on vs forced scalar (simd::SetEnabled) at ranks 4, 5, 8 "
      "and 16 (simd ISA here: %s). Best (min) wall time over %zu repetitions, "
      "single thread (bench_simd --out=BENCH_simd.json).\",\n",
      d0, d1, d2, density, simd::Available() ? "avx2+fma" : "scalar-only",
      reps);
  bench::WriteMachineBlock(f);
  std::fprintf(f, "  \"unit\": \"s\",\n");
  std::fprintf(f, "  \"results\": {\n");
  size_t i = 0;
  for (const auto& [key, value] : results) {
    std::fprintf(f, "    \"%s\": %.7f%s\n", key.c_str(), value,
                 ++i < results.size() ? "," : "");
  }
  std::fprintf(f, "  },\n");
  std::fprintf(f, "  \"speedup\": {\n");
  i = 0;
  for (const auto& [key, value] : speedups) {
    std::fprintf(f, "    \"%s\": %.2f%s\n", key.c_str(), value,
                 ++i < speedups.size() ? "," : "");
  }
  std::fprintf(f, "  }\n");
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}
