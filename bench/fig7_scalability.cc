// Reproduces Fig. 7: linear scalability of SOFIA's dynamic updates.
// (a) total running time vs the number of entries per subtensor (the paper
//     samples {50,...,500} rows of 500x500 slices over 5000 steps), and
// (b) cumulative running time vs stream index (straight line = constant
//     per-step cost).
// All entries observed, no outliers; initialization and HW fitting excluded
// from the timings, as in Section VI-F.
//
// Usage: fig7_scalability [--scale=small|paper] [--seed=19]

#include <cstdio>
#include <string>
#include <vector>

#include "core/sofia_stream.hpp"
#include "data/corruption.hpp"
#include "data/synthetic.hpp"
#include "eval/stream_runner.hpp"
#include "util/flags.hpp"
#include "util/table.hpp"

namespace sofia {
namespace {

int Main(int argc, char** argv) {
  Flags flags(argc, argv);
  const bool paper = flags.GetString("scale", "small") == "paper";
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 19));

  const size_t cols = paper ? 500 : 120;
  const size_t steps = paper ? 5000 : 400;
  const size_t period = 10;
  const size_t rank = 5;
  const std::vector<size_t> row_grid =
      paper ? std::vector<size_t>{50, 100, 150, 200, 250, 300, 350, 400, 450,
                                  500}
            : std::vector<size_t>{20, 40, 60, 80, 100, 120};

  std::printf("Fig. 7(a) — total dynamic-update time vs entries per "
              "subtensor (%zux<rows> slices, %zu steps, m=%zu)\n\n",
              cols, steps, period);

  // One lane, so SOFIA's steps are timed alone (and its kernels run
  // serially). Nothing is missing, so the full-volume score is the default.
  StreamEvalOptions options;
  options.workers = 1;

  Table table({"rows", "entries/step", "total time (s)", "us/entry"});
  std::vector<double> cumulative_last;
  for (size_t rows : row_grid) {
    std::vector<DenseTensor> truth =
        MakeScalabilityStream(rows, cols, steps, rank, period, seed);
    CorruptedStream stream = Corrupt(truth, {0.0, 0.0, 0.0}, seed + 1);

    SofiaConfig config;
    config.rank = rank;
    config.period = period;
    config.init_seasons = 3;
    // Clean, fully observed stream: initialization converges immediately
    // and is excluded from the timing anyway.
    config.max_init_iterations = 2;
    SofiaStream method(config);
    const StreamRunResult res =
        RunImputationComparison({&method}, stream, truth, options)[0].run;

    double total = 0.0;
    cumulative_last.clear();
    for (double s : res.step_seconds) {
      total += s;
      cumulative_last.push_back(total);
    }
    const double entries = static_cast<double>(rows * cols);
    table.AddRow({std::to_string(rows),
                  std::to_string(rows * cols),
                  Table::Num(total),
                  Table::Num(1e6 * total /
                             (entries * static_cast<double>(
                                            res.step_seconds.size())))});
  }
  std::printf("%s\n", table.ToString().c_str());

  std::printf("Fig. 7(b) — cumulative time vs stream index (largest "
              "configuration): a straight line means constant per-step "
              "cost.\n\n");
  Table cumulative({"stream index", "cumulative time (s)"});
  const size_t n = cumulative_last.size();
  for (size_t i = 0; i < n; i += std::max<size_t>(1, n / 10)) {
    cumulative.AddRow({std::to_string(i), Table::Num(cumulative_last[i])});
  }
  if (n > 0) {
    cumulative.AddRow({std::to_string(n - 1),
                       Table::Num(cumulative_last[n - 1])});
  }
  std::printf("%s\n", cumulative.ToString().c_str());
  std::printf("Paper's shape: both curves are linear — per-step cost is "
              "O(|Omega_t| N R) and independent of the stream length "
              "(Lemma 2).\n");
  return 0;
}

}  // namespace
}  // namespace sofia

int main(int argc, char** argv) { return sofia::Main(argc, argv); }
