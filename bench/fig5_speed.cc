// Reproduces Fig. 5: average running time (ART) to process one subtensor,
// for SOFIA and the four streaming completion baselines across the setting
// grid. Initialization time is excluded, as in the paper.
//
// The paper's headline is that SOFIA is up to 935x faster than the
// *second-most accurate* competitor (usually OLSTEC, whose per-entry RLS
// costs O(|Ω| N R^2) against SOFIA's O(|Ω| N R)).
//
// Usage: fig5_speed [--scale=small|paper] [--seasons=5] [--seed=13]

#include <cstdio>
#include <string>
#include <vector>

#include "baselines/mast.hpp"
#include "baselines/olstec.hpp"
#include "baselines/online_sgd.hpp"
#include "baselines/or_mstc.hpp"
#include "core/sofia_stream.hpp"
#include "data/corruption.hpp"
#include "data/dataset_sim.hpp"
#include "eval/experiment.hpp"
#include "eval/stream_runner.hpp"
#include "util/flags.hpp"
#include "util/table.hpp"

namespace sofia {
namespace {

int Main(int argc, char** argv) {
  Flags flags(argc, argv);
  const DatasetScale scale = flags.GetString("scale", "small") == "paper"
                                 ? DatasetScale::kPaper
                                 : DatasetScale::kSmall;
  const size_t seasons = static_cast<size_t>(flags.GetInt("seasons", 5));
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 13));

  // One lane: each method's steps are timed alone. ART is the step only;
  // scoring runs outside the step timer.
  StreamEvalOptions options;
  options.workers = 1;

  std::printf("Fig. 5 — average running time per subtensor (seconds), "
              "initialization excluded\n\n");

  for (Dataset& dataset : MakeAllDatasets(scale)) {
    if (scale == DatasetScale::kSmall) {
      dataset.slices.resize(
          std::min(dataset.slices.size(), seasons * dataset.period));
    }
    Table table({"setting", "SOFIA", "OnlineSGD", "OLSTEC", "MAST",
                 "OR-MSTC", "OLSTEC/SOFIA"});
    for (const CorruptionSetting& setting : PaperSettingGrid()) {
      CorruptedStream stream = Corrupt(dataset.slices, setting, seed);

      SofiaStream sofia_method(MakeExperimentConfig(dataset, stream));
      OnlineSgd sgd(OnlineSgdOptions{.rank = dataset.rank});
      Olstec olstec(OlstecOptions{.rank = dataset.rank});
      Mast mast(MastOptions{.rank = dataset.rank});
      OrMstc ormstc(OrMstcOptions{.rank = dataset.rank});

      const std::vector<MethodRunResult> results = RunImputationComparison(
          {&sofia_method, &sgd, &olstec, &mast, &ormstc}, stream,
          dataset.slices, options);
      const double sofia_art = results[0].run.art_seconds;
      const double sgd_art = results[1].run.art_seconds;
      const double olstec_art = results[2].run.art_seconds;
      const double mast_art = results[3].run.art_seconds;
      const double ormstc_art = results[4].run.art_seconds;

      table.AddRow({setting.ToString(), Table::Num(sofia_art),
                    Table::Num(sgd_art), Table::Num(olstec_art),
                    Table::Num(mast_art), Table::Num(ormstc_art),
                    Table::Num(sofia_art > 0 ? olstec_art / sofia_art : 0.0,
                               3)});
    }
    std::printf("=== %s ===\n%s\n", dataset.name.c_str(),
                table.ToString().c_str());
  }
  std::printf("Paper's shape: SOFIA fastest or tied; the second-most\n"
              "accurate method (OLSTEC / OR-MSTC, which solve per-row\n"
              "systems per step) is orders of magnitude slower.\n");
  return 0;
}

}  // namespace
}  // namespace sofia

int main(int argc, char** argv) { return sofia::Main(argc, argv); }
