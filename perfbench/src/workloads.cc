#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <vector>

#include "data/corruption.hpp"
#include "data/scenarios.hpp"
#include "data/slice_format.hpp"
#include "data/synthetic.hpp"

namespace perfbench {
namespace {

using sofia::DenseTensor;
using sofia::Mask;
using sofia::Shape;

constexpr size_t kRank = 5;
constexpr size_t kPeriod = 7;
constexpr size_t kInitWindow = 3 * kPeriod;  // SofiaConfig::InitWindow().
/// Cap on scored entries per slice, the library's default eval cap
/// (StreamEvalOptions::max_eval_entries).
constexpr size_t kEvalCap = 1024;
/// The latent (clean) streams are fixed; --seed drives the corruption,
/// masks, noise and faults of the streamed slices — the paper's protocol
/// of one dataset under repeated random corruption.
constexpr uint64_t kLatentSeed = 20210419;
/// The init window is corrupted with this fixed seed instead, so every
/// seed starts from the same model: set-up does the same work for every
/// seed, and accuracy differences come from the streamed slices only.
constexpr uint64_t kInitSeed = 7;

/// Replaces the first kInitWindow slices of `stream` by `init`'s.
void SpliceInitWindow(const sofia::CorruptedStream& init,
                      sofia::CorruptedStream* stream) {
  for (size_t t = 0; t < kInitWindow; ++t) {
    stream->slices[t] = init.slices[t];
    stream->masks[t] = init.masks[t];
  }
}

/// Appends records given as sorted (index, value) lists, through the dense
/// slice + mask the journal writer takes. Only the touched entries are
/// reset between records, so no dense stream is ever held.
class SparseWriter {
 public:
  bool Create(const std::string& path, const Shape& shape) {
    slice_ = DenseTensor(shape, 0.0);
    mask_ = Mask(shape, false);
    return writer_.Create(path, shape, /*sequence=*/0);
  }
  bool Append(uint64_t step, const std::vector<size_t>& indices,
              const std::vector<double>& values) {
    for (size_t k = 0; k < indices.size(); ++k) {
      slice_[indices[k]] = values[k];
      mask_.Set(indices[k], true);
    }
    const bool ok = writer_.Append(step, slice_, mask_);
    for (const size_t idx : indices) {
      slice_[idx] = 0.0;
      mask_.Set(idx, false);
    }
    return ok;
  }
  bool Close() {
    const bool ok = writer_.Sync();
    writer_.Close();
    return ok;
  }

 private:
  sofia::slicefmt::SliceFileWriter writer_;
  DenseTensor slice_;
  Mask mask_;
};

/// Evenly strided pick of at most kEvalCap entries of `candidates`.
std::vector<size_t> Strided(const std::vector<size_t>& candidates) {
  if (candidates.size() <= kEvalCap) return candidates;
  std::vector<size_t> out;
  out.reserve(kEvalCap);
  for (size_t k = 0; k < kEvalCap; ++k) {
    out.push_back(candidates[k * candidates.size() / kEvalCap]);
  }
  return out;
}

/// Held-out entries of a streamed slice: the unobserved ones, strided.
std::vector<size_t> HeldOut(const Mask& omega) {
  std::vector<size_t> missing;
  for (size_t k = 0; k < omega.shape().NumElements(); ++k) {
    if (!omega.Get(k)) missing.push_back(k);
  }
  return Strided(missing);
}

/// Every entry of a slice, strided (the forecast-horizon sample).
std::vector<size_t> AllEntries(const Shape& shape) {
  std::vector<size_t> all(shape.NumElements());
  for (size_t k = 0; k < all.size(); ++k) all[k] = k;
  return Strided(all);
}

std::vector<double> ValuesAt(const DenseTensor& x,
                             const std::vector<size_t>& indices) {
  std::vector<double> out;
  out.reserve(indices.size());
  for (const size_t idx : indices) out.push_back(x[idx]);
  return out;
}

/// λ3 policy of MakeExperimentConfig (3x the 75th percentile of
/// |observed|), taken over the init window only: later slices may carry
/// injected garbage, and setup must not need the whole stream.
double Lambda3(std::vector<double> observed_abs) {
  if (observed_abs.empty()) return 10.0;
  const size_t pos = std::min(observed_abs.size() - 1,
                              static_cast<size_t>(0.75 * observed_abs.size()));
  std::nth_element(observed_abs.begin(), observed_abs.begin() + pos,
                   observed_abs.end());
  const double q = observed_abs[pos];
  return q > 0.0 ? 3.0 * q : 10.0;
}

double InitLambda3(const std::vector<DenseTensor>& slices,
                   const std::vector<Mask>& masks) {
  std::vector<double> values;
  for (size_t t = 0; t < kInitWindow; ++t) {
    for (size_t k = 0; k < slices[t].NumElements(); ++k) {
      if (masks[t].Get(k)) values.push_back(std::fabs(slices[t][k]));
    }
  }
  return Lambda3(std::move(values));
}

/// Writes a dense-held corrupted stream plus its truth sidecar. With
/// `full_truth` the streamed truth records hold every entry.
bool WriteDenseStream(const std::string& dir,
                      const std::vector<DenseTensor>& slices,
                      const std::vector<Mask>& masks,
                      const std::vector<DenseTensor>& truth, size_t streamed,
                      bool full_truth) {
  const Shape& shape = truth[0].shape();
  sofia::slicefmt::SliceFileWriter stream;
  if (!stream.Create(dir + "/stream.slices", shape, 0)) return false;
  for (size_t t = 0; t < streamed; ++t) {
    if (!stream.Append(t, slices[t], masks[t])) return false;
  }
  if (!stream.Sync()) return false;
  stream.Close();

  SparseWriter sidecar;
  if (!sidecar.Create(dir + "/truth.slices", shape)) return false;
  const std::vector<size_t> all = AllEntries(shape);
  for (size_t t = 0; t < truth.size(); ++t) {
    std::vector<size_t> picks;
    if (t >= streamed) {
      picks = all;
    } else if (full_truth) {
      picks.resize(shape.NumElements());
      for (size_t k = 0; k < picks.size(); ++k) picks[k] = k;
    } else {
      picks = HeldOut(masks[t]);
    }
    if (!sidecar.Append(t, picks, ValuesAt(truth[t], picks))) return false;
  }
  return sidecar.Close();
}

bool GenerateCompare(Meta* meta, bool quick, const std::string& dir) {
  meta->rows = meta->cols = 40;
  meta->streamed = kInitWindow + (quick ? 60 : 1200);
  meta->horizon = 2 * kPeriod;
  const std::vector<DenseTensor> truth = sofia::MakeScalabilityStream(
      meta->rows, meta->cols, meta->streamed + meta->horizon, kRank, kPeriod,
      kLatentSeed);
  const sofia::CorruptionSetting setting{30.0, 10.0, 3.0};
  sofia::CorruptedStream stream = sofia::Corrupt(truth, setting, meta->seed);
  SpliceInitWindow(sofia::Corrupt(truth, setting, kInitSeed), &stream);
  meta->lambda3 = InitLambda3(stream.slices, stream.masks);
  return WriteDenseStream(dir, stream.slices, stream.masks, truth,
                          meta->streamed, /*full_truth=*/true);
}

bool GenerateGuarded(Meta* meta, bool quick, const std::string& dir) {
  meta->rows = meta->cols = 64;
  meta->streamed = kInitWindow + (quick ? 100 : 1000);
  meta->horizon = 2 * kPeriod;
  const std::vector<DenseTensor> latent = sofia::MakeScalabilityStream(
      meta->rows, meta->cols, meta->streamed + meta->horizon, kRank, kPeriod,
      kLatentSeed);
  sofia::ScenarioOptions options;
  // Faults start past the init window: init is offline, where the guard
  // fail-fasts on bad input by design.
  options.garbage_offset = kInitWindow + 4;
  // No mode-aligned outlier bursts: a burst inside the init window makes
  // SOFIA's init diverge (held-out NRE of 4-20 right after init, decaying
  // over ~300 steps), so accuracy would hinge on where the seed puts the
  // bursts. This workload measures the write path beside the step.
  options.burst_start_prob = 0.0;
  // No regime change either: after the amplitude jump the rollback policy
  // can trip on every later step and keep restoring the pre-change
  // checkpoint (one seed in ten: 462 rollbacks, held-out NRE stuck at
  // 0.94), which would make a write-path workload fail its output check.
  options.regime_amplitude = 1.0;
  sofia::ScenarioStream scenario = sofia::MakeScenario(
      sofia::ScenarioKind::kCombinedStress, latent, options, meta->seed);
  SpliceInitWindow(sofia::MakeScenario(sofia::ScenarioKind::kCombinedStress,
                                       latent, options, kInitSeed)
                       .stream,
                   &scenario.stream);
  for (const size_t step : scenario.fault_steps) {
    if (step >= kInitWindow && step < meta->streamed) ++meta->garbage_slices;
  }
  meta->lambda3 =
      InitLambda3(scenario.stream.slices, scenario.stream.masks);
  return WriteDenseStream(dir, scenario.stream.slices, scenario.stream.masks,
                          scenario.truth, meta->streamed,
                          /*full_truth=*/false);
}

}  // namespace

bool IsWorkload(const std::string& name) {
  return name == "compare-nine" || name == "guarded-durable";
}

bool Generate(const std::string& workload, uint64_t seed, bool quick,
              const std::string& dir) {
  Meta meta;
  meta.workload = workload;
  meta.seed = seed;
  bool ok = false;
  if (workload == "compare-nine") {
    ok = GenerateCompare(&meta, quick, dir);
  } else if (workload == "guarded-durable") {
    ok = GenerateGuarded(&meta, quick, dir);
  }
  if (!ok) {
    std::fprintf(stderr, "generation of %s into %s failed\n",
                 workload.c_str(), dir.c_str());
    return false;
  }
  return WriteMeta(dir + "/meta.txt", meta);
}

bool WriteMeta(const std::string& path, const Meta& meta) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f,
               "workload %s\nseed %llu\nrows %zu\ncols %zu\nrank %zu\n"
               "period %zu\nstreamed %zu\nhorizon %zu\nlambda1 %.17g\n"
               "lambda2 %.17g\nlambda3 %.17g\nmax_init_iterations %d\n"
               "garbage_slices %zu\n",
               meta.workload.c_str(),
               static_cast<unsigned long long>(meta.seed), meta.rows,
               meta.cols, meta.rank, meta.period, meta.streamed,
               meta.horizon, meta.lambda1, meta.lambda2, meta.lambda3,
               meta.max_init_iterations, meta.garbage_slices);
  return std::fclose(f) == 0;
}

bool ReadMeta(const std::string& path, Meta* meta) {
  std::ifstream in(path);
  std::map<std::string, std::string> kv;
  std::string key, value;
  while (in >> key >> value) kv[key] = value;
  const char* required[] = {"workload", "seed",     "rows",
                            "cols",     "rank",     "period",
                            "streamed", "horizon",  "lambda1",
                            "lambda2",  "lambda3",  "max_init_iterations",
                            "garbage_slices"};
  for (const char* k : required) {
    if (kv.count(k) == 0) return false;
  }
  try {
    meta->workload = kv["workload"];
    meta->seed = std::stoull(kv["seed"]);
    meta->rows = std::stoul(kv["rows"]);
    meta->cols = std::stoul(kv["cols"]);
    meta->rank = std::stoul(kv["rank"]);
    meta->period = std::stoul(kv["period"]);
    meta->streamed = std::stoul(kv["streamed"]);
    meta->horizon = std::stoul(kv["horizon"]);
    meta->lambda1 = std::stod(kv["lambda1"]);
    meta->lambda2 = std::stod(kv["lambda2"]);
    meta->lambda3 = std::stod(kv["lambda3"]);
    meta->max_init_iterations = std::stoi(kv["max_init_iterations"]);
    meta->garbage_slices = std::stoul(kv["garbage_slices"]);
  } catch (const std::exception&) {
    return false;
  }
  return IsWorkload(meta->workload) && meta->rank > 0 && meta->period > 0 &&
         meta->streamed > 3 * meta->period;
}

}  // namespace perfbench
