#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstddef>
#include <cstdint>
#include <string>

/// \file workloads.hpp
/// \brief The benchmark's workloads and their untimed input generation.
///
/// Generation writes three files into the run directory, and the timed
/// phase reads only these:
///  - `stream.slices`: the corrupted stream in the library's own journal
///    format (data/slice_format), one record per step, init window first;
///  - `truth.slices`: the truth sidecar in the same format. Record t holds
///    the true values at the entries scored at step t: a strided sample of
///    the held-out (unobserved) entries for t < streamed, and a sample of
///    every entry for the `horizon` forecast steps after the stream. On
///    `compare-nine` the streamed records hold the whole truth slice,
///    because the comparison runtime samples its own held-out entries;
///  - `meta.txt`: shape, model configuration and injected-fault counts.

namespace perfbench {

/// Everything the timed phase needs to know besides the two slice files.
struct Meta {
  std::string workload;
  uint64_t seed = 0;
  size_t rows = 0, cols = 0;
  size_t rank = 5;
  size_t period = 7;
  size_t streamed = 0;  ///< Records in stream.slices (init window included).
  size_t horizon = 0;   ///< Forecast steps scored after the stream.
  double lambda1 = 0.5, lambda2 = 0.5, lambda3 = 10.0;
  int max_init_iterations = 25;  ///< As MakeExperimentConfig.

  size_t garbage_slices = 0;  ///< Injected garbage slices after init.
};

/// Known workload names, in BENCHMARK.json order.
bool IsWorkload(const std::string& name);

/// Writes the inputs of `workload` for `seed` into `dir` (which must
/// exist). `quick` shrinks the stream for the benchmark's own tests.
/// Returns false with a message on stderr on failure.
bool Generate(const std::string& workload, uint64_t seed, bool quick,
              const std::string& dir);

bool WriteMeta(const std::string& path, const Meta& meta);
bool ReadMeta(const std::string& path, Meta* meta);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
