// Reproduces Fig. 3 (per-step imputation NRE over the stream) and Fig. 4
// (running average error bars): SOFIA vs OLSTEC, OnlineSGD, MAST, and
// OR-MSTC on all four (simulated) datasets under the paper's setting grid
// (20,10,2) .. (70,20,5). BRST's estimated rank is reported alongside (the
// paper excludes its curves because it degenerates to rank 0).
//
// Usage: fig3_imputation [--scale=small|paper] [--seasons=6] [--seed=11]
//                        [--csv_dir=.]

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "baselines/brst.hpp"
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
  const size_t seasons = static_cast<size_t>(flags.GetInt("seasons", 6));
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 11));
  const std::string csv_dir = flags.GetString("csv_dir", "");

  // Every entry scored: the paper's full-volume NRE.
  StreamEvalOptions options;
  options.max_eval_entries = 0;

  std::printf("Fig. 3 / Fig. 4 — imputation accuracy (NRE / RAE)\n");
  std::printf("Settings: (missing%%, outlier%%, magnitude) per the paper.\n\n");

  for (Dataset& dataset : MakeAllDatasets(scale)) {
    if (scale == DatasetScale::kSmall) {
      // At least ~100 steps even for short periods (NYC's m = 7), so the
      // post-init phase is long enough to be meaningful.
      dataset.slices.resize(std::min(
          dataset.slices.size(),
          std::max<size_t>(seasons * dataset.period, 100)));
    }
    Table rae_table({"setting", "SOFIA", "OnlineSGD", "OLSTEC", "MAST",
                     "OR-MSTC", "BRST est. rank"});
    Table nre_table({"setting", "t", "SOFIA", "OnlineSGD", "OLSTEC", "MAST",
                     "OR-MSTC"});
    for (const CorruptionSetting& setting : PaperSettingGrid()) {
      CorruptedStream stream = Corrupt(dataset.slices, setting, seed);
      const double outlier_lambda =
          3.0 * ObservedAbsQuantile(stream, 0.75);

      SofiaStream sofia_method(MakeExperimentConfig(dataset, stream));
      OnlineSgd sgd(OnlineSgdOptions{.rank = dataset.rank});
      Olstec olstec(OlstecOptions{.rank = dataset.rank});
      Mast mast(MastOptions{.rank = dataset.rank});
      OrMstc ormstc(OrMstcOptions{.rank = dataset.rank,
                                  .outlier_lambda = outlier_lambda});
      BrstLite brst(BrstOptions{.rank = dataset.rank, .ard_strength = 10.0});

      const std::vector<MethodRunResult> results = RunImputationComparison(
          {&sofia_method, &sgd, &olstec, &mast, &ormstc, &brst}, stream,
          dataset.slices, options);
      const StreamRunResult& sofia_res = results[0].run;
      const StreamRunResult& sgd_res = results[1].run;
      const StreamRunResult& olstec_res = results[2].run;
      const StreamRunResult& mast_res = results[3].run;
      const StreamRunResult& ormstc_res = results[4].run;

      rae_table.AddRow({setting.ToString(), Table::Num(sofia_res.rae),
                        Table::Num(sgd_res.rae), Table::Num(olstec_res.rae),
                        Table::Num(mast_res.rae), Table::Num(ormstc_res.rae),
                        std::to_string(brst.EffectiveRank())});
      for (size_t t = 0; t < sofia_res.nre.size(); ++t) {
        nre_table.AddRow({setting.ToString(), std::to_string(t),
                          Table::Num(sofia_res.nre[t]),
                          Table::Num(sgd_res.nre[t]),
                          Table::Num(olstec_res.nre[t]),
                          Table::Num(mast_res.nre[t]),
                          Table::Num(ormstc_res.nre[t])});
      }
    }
    std::printf("=== %s (R=%zu, m=%zu, %zu steps) — RAE (Fig. 4) ===\n",
                dataset.name.c_str(), dataset.rank, dataset.period,
                dataset.slices.size());
    std::printf("%s\n", rae_table.ToString().c_str());
    if (!csv_dir.empty()) {
      nre_table.WriteCsv(csv_dir + "/fig3_" + dataset.name + ".csv");
      rae_table.WriteCsv(csv_dir + "/fig4_" + dataset.name + ".csv");
    }
  }
  std::printf("Paper's shape: SOFIA attains the lowest RAE in every cell; "
              "the gap widens with corruption; BRST's rank estimate "
              "collapses (excluded from the paper's curves).\n");
  return 0;
}

}  // namespace
}  // namespace sofia

int main(int argc, char** argv) { return sofia::Main(argc, argv); }
