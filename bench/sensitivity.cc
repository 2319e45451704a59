// Hyperparameter sensitivity sweeps (Section VI-A notes the paper adjusted
// the rank over {4..20} by grid search and fixed λ1 = λ2 = 1e-3, λ3 = 10,
// µ = 0.1, φ = 0.01 for its data). This bench maps the sensitivity of the
// imputation RAE to each knob on a mid-corruption taxi-like stream, so a
// user can see which choices matter:
//   - rank R (under- and over-parameterization),
//   - smoothness λ1 = λ2 (too weak -> degeneracy, too strong -> bias),
//   - λ3 relative to the data scale (outlier threshold),
//   - step size µ (with the stability cap active, large µ is safe).
//
// Usage: sensitivity [--seed=31]

#include <cstdio>
#include <vector>

#include "core/sofia_stream.hpp"
#include "data/corruption.hpp"
#include "data/dataset_sim.hpp"
#include "eval/experiment.hpp"
#include "eval/stream_runner.hpp"
#include "util/flags.hpp"
#include "util/table.hpp"

namespace sofia {
namespace {

double RunWith(const SofiaConfig& config, const CorruptedStream& stream,
               const std::vector<DenseTensor>& truth) {
  SofiaStream method(config);
  StreamEvalOptions options;
  options.max_eval_entries = 0;  // Every entry scored: the full-volume RAE.
  return RunImputationComparison({&method}, stream, truth, options)[0].run.rae;
}

int Main(int argc, char** argv) {
  Flags flags(argc, argv);
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 31));

  Dataset taxi = MakeChicagoTaxi(DatasetScale::kSmall);
  taxi.slices.resize(6 * taxi.period);
  CorruptedStream stream = Corrupt(taxi.slices, {40.0, 15.0, 4.0}, seed);
  const SofiaConfig base = MakeExperimentConfig(taxi, stream);

  std::printf("Sensitivity sweeps — ChicagoTaxi (40,15,4), base config from "
              "eval/experiment.hpp (R=%zu, λ1=λ2=%.2g, λ3=%.3g, µ=%.2g)\n\n",
              base.rank, base.lambda1, base.lambda3, base.mu);

  {
    Table t({"rank R", "RAE"});
    for (size_t rank : {4, 6, 8, 10, 14, 20}) {
      SofiaConfig c = base;
      c.rank = rank;
      t.AddRow({std::to_string(rank), Table::Num(RunWith(c, stream,
                                                         taxi.slices))});
    }
    std::printf("rank (true generative rank is 10):\n%s\n",
                t.ToString().c_str());
  }
  {
    Table t({"lambda1=lambda2", "RAE"});
    for (double lam : {1e-3, 1e-2, 1e-1, 0.5, 2.0, 10.0}) {
      SofiaConfig c = base;
      c.lambda1 = lam;
      c.lambda2 = lam;
      t.AddRow({Table::Num(lam), Table::Num(RunWith(c, stream,
                                                    taxi.slices))});
    }
    std::printf("smoothness weight:\n%s\n", t.ToString().c_str());
  }
  {
    Table t({"lambda3 / base", "RAE"});
    for (double mult : {0.1, 0.3, 1.0, 3.0, 10.0}) {
      SofiaConfig c = base;
      c.lambda3 = base.lambda3 * mult;
      t.AddRow({Table::Num(mult), Table::Num(RunWith(c, stream,
                                                     taxi.slices))});
    }
    std::printf("outlier threshold (relative to the data-scaled default):\n%s\n",
                t.ToString().c_str());
  }
  {
    Table t({"mu", "RAE"});
    for (double mu : {0.01, 0.05, 0.1, 0.3, 0.9}) {
      SofiaConfig c = base;
      c.mu = mu;
      t.AddRow({Table::Num(mu), Table::Num(RunWith(c, stream,
                                                   taxi.slices))});
    }
    std::printf("dynamic step size (stability cap active):\n%s\n",
                t.ToString().c_str());
  }
  return 0;
}

}  // namespace
}  // namespace sofia

int main(int argc, char** argv) { return sofia::Main(argc, argv); }
