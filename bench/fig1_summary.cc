// Reproduces Fig. 1, the paper's headline summary:
//  (a) per-step imputation NRE on Chicago Taxi at (70,20,5) — SOFIA vs the
//      streaming completion baselines over the whole stream,
//  (b) accuracy-vs-speed scatter (RAE vs ART) on the same workload,
//  (c) forecasting AFE bars on Intel Lab Sensor,
//  (d) covered by bench/fig7_scalability (linear scaling).
//
// Usage: fig1_summary [--seed=29]

#include <cstdio>
#include <memory>
#include <vector>

#include "baselines/cphw.hpp"
#include "baselines/mast.hpp"
#include "baselines/olstec.hpp"
#include "baselines/online_sgd.hpp"
#include "baselines/or_mstc.hpp"
#include "baselines/smf.hpp"
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
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 29));

  // Every entry scored (the paper's full-volume NRE and AFE), and each
  // method's steps timed alone on one lane.
  StreamEvalOptions options;
  options.max_eval_entries = 0;
  options.workers = 1;

  // --- (a) + (b): Chicago Taxi, harshest setting -------------------------
  Dataset taxi = MakeChicagoTaxi(DatasetScale::kSmall);
  taxi.slices.resize(6 * taxi.period);
  CorruptedStream stream = Corrupt(taxi.slices, {70.0, 20.0, 5.0}, seed);

  SofiaStream sofia_method(MakeExperimentConfig(taxi, stream));
  OnlineSgd sgd(OnlineSgdOptions{.rank = taxi.rank});
  Olstec olstec(OlstecOptions{.rank = taxi.rank});
  Mast mast(MastOptions{.rank = taxi.rank});
  OrMstc ormstc(OrMstcOptions{.rank = taxi.rank});

  const std::vector<MethodRunResult> entries = RunImputationComparison(
      {&sofia_method, &sgd, &olstec, &mast, &ormstc}, stream, taxi.slices,
      options);

  std::printf("Fig. 1(a) — NRE over the Chicago Taxi stream at (70,20,5) "
              "(every 12th step):\n\n");
  Table series({"t", "SOFIA", "OnlineSGD", "OLSTEC", "MAST", "OR-MSTC"});
  for (size_t t = 0; t < entries[0].run.nre.size(); t += 12) {
    series.AddRow({std::to_string(t), Table::Num(entries[0].run.nre[t]),
                   Table::Num(entries[1].run.nre[t]),
                   Table::Num(entries[2].run.nre[t]),
                   Table::Num(entries[3].run.nre[t]),
                   Table::Num(entries[4].run.nre[t])});
  }
  std::printf("%s\n", series.ToString().c_str());

  std::printf("Fig. 1(b) — accuracy vs speed (lower-left is better):\n\n");
  Table scatter({"method", "RAE", "ART (s)"});
  for (const MethodRunResult& e : entries) {
    scatter.AddRow({e.name, Table::Num(e.run.rae),
                    Table::Num(e.run.art_seconds)});
  }
  std::printf("%s\n", scatter.ToString().c_str());

  // --- (c): Intel Lab forecasting ----------------------------------------
  Dataset lab = MakeIntelLabSensor(DatasetScale::kSmall);
  lab.slices.resize(7 * lab.period);
  const size_t horizon = lab.period;
  std::printf("Fig. 1(c) — forecasting AFE on Intel Lab Sensor:\n\n");
  Table afe({"method (X,Y,Z)", "AFE"});
  {
    CorruptedStream s = Corrupt(lab.slices, {70.0, 20.0, 5.0}, seed + 1);
    SofiaStream m(MakeExperimentConfig(lab, s));
    afe.AddRow({"SOFIA (70,20,5)",
                Table::Num(RunForecast(&m, s, lab.slices, horizon, options))});
  }
  {
    CorruptedStream s = Corrupt(lab.slices, {0.0, 20.0, 5.0}, seed + 1);
    Smf smf(SmfOptions{.rank = lab.rank, .period = lab.period});
    afe.AddRow({"SMF (0,20,5)",
                Table::Num(RunForecast(&smf, s, lab.slices, horizon,
                                       options))});
    Cphw cphw(CphwOptions{.rank = lab.rank, .period = lab.period});
    afe.AddRow({"CPHW (0,20,5)",
                Table::Num(RunForecast(&cphw, s, lab.slices, horizon,
                                       options))});
  }
  std::printf("%s\n", afe.ToString().c_str());
  std::printf("Fig. 1(d) (linear scalability) is regenerated by "
              "bench/fig7_scalability.\n");
  return 0;
}

}  // namespace
}  // namespace sofia

int main(int argc, char** argv) { return sofia::Main(argc, argv); }
