// Observability-subsystem contract tests (src/obs/):
//  - sharded counters are *exact* under concurrency: the aggregated value
//    equals the sum of every Add() issued from ShardExecutor workers;
//  - log-linear histogram percentiles land within the documented 12.5%
//    relative bucket width of the exact order statistics of a sorted
//    reference;
//  - a trace session produces well-formed Chrome trace JSON: named thread
//    tracks, complete events with per-track monotonic completion
//    timestamps (pinned via obs::CheckTrace on the parsed file);
//  - metric collection does not perturb results: a guarded comparison run
//    scores bitwise identically with obs enabled and disabled;
//  - stats snapshot lines are parseable JSON carrying the registry
//    sections, and the report checks accept/reject the right snapshots.

#include "obs/obs.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "baselines/online_sgd.hpp"
#include "core/sofia_model.hpp"
#include "core/sofia_stream.hpp"
#include "data/corruption.hpp"
#include "data/synthetic.hpp"
#include "eval/stream_runner.hpp"
#include "obs/json_lite.hpp"
#include "obs/report.hpp"
#include "util/rng.hpp"
#include "util/shard_executor.hpp"

namespace sofia {
namespace obs {
namespace {

std::string TempPath(const char* name) {
  const char* dir = std::getenv("TMPDIR");
  return std::string(dir != nullptr ? dir : "/tmp") + "/" + name;
}

/// Restores the master switch (tests flip it) and scrubs the registry.
class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SetEnabled(true);
    Registry::Global().ResetAllForTest();
  }
  void TearDown() override {
    SetEnabled(true);
    if (TraceActive()) TraceAbort();
  }
};

TEST_F(ObsTest, CounterIsExactUnderConcurrentAdds) {
  Counter* counter = Registry::Global().FindOrCreateCounter("test.exact");
  counter->Reset();
  constexpr size_t kTasks = 64;
  constexpr size_t kAddsPerTask = 10000;
  ShardExecutor executor(8);
  // Two rounds so worker threads re-use their sticky shard slots.
  for (int round = 0; round < 2; ++round) {
    executor.Run(kTasks, [&](size_t task) {
      for (size_t i = 0; i < kAddsPerTask; ++i) counter->Add(1);
      counter->Add(task);  // Distinct increments, not just 1s.
    });
  }
  const uint64_t expected =
      2 * (kTasks * kAddsPerTask + kTasks * (kTasks - 1) / 2);
  EXPECT_EQ(counter->Value(), expected);
}

TEST_F(ObsTest, CounterDisabledDropsAdds) {
  Counter* counter = Registry::Global().FindOrCreateCounter("test.disabled");
  counter->Reset();
  counter->Add(5);
  SetEnabled(false);
  counter->Add(1000);
  SetEnabled(true);
  counter->Add(2);
  EXPECT_EQ(counter->Value(), 7u);
}

TEST_F(ObsTest, HistogramPercentilesTrackSortedReference) {
  Histogram histogram;
  // Log-uniform latencies across five decades — every value range the
  // log-linear buckets must stay within 12.5% on.
  Rng rng(17);
  std::vector<double> values;
  for (size_t i = 0; i < 20000; ++i) {
    const double exponent = 5.0 * rng.Uniform();
    values.push_back(std::pow(10.0, exponent));
  }
  for (double v : values) histogram.Observe(v);
  std::sort(values.begin(), values.end());
  EXPECT_EQ(histogram.Count(), values.size());
  for (double q : {10.0, 50.0, 90.0, 99.0, 99.9}) {
    const size_t rank = std::min(
        values.size() - 1,
        static_cast<size_t>(std::ceil(q / 100.0 * values.size())));
    const double exact = values[rank];
    const double approx = histogram.Percentile(q);
    EXPECT_NEAR(approx, exact, 0.125 * exact) << "q=" << q;
  }
}

TEST_F(ObsTest, HistogramIsExactUnderConcurrentObserves) {
  Histogram* histogram =
      Registry::Global().FindOrCreateHistogram("test.concurrent_us");
  histogram->Reset();
  constexpr size_t kTasks = 32;
  constexpr size_t kPerTask = 2000;
  ShardExecutor executor(8);
  executor.Run(kTasks, [&](size_t task) {
    for (size_t i = 0; i < kPerTask; ++i) {
      histogram->Observe(static_cast<double>(task * kPerTask + i));
    }
  });
  EXPECT_EQ(histogram->Count(), kTasks * kPerTask);
  std::vector<uint64_t> buckets;
  histogram->SnapshotBuckets(&buckets);
  uint64_t total = 0;
  for (uint64_t c : buckets) total += c;
  EXPECT_EQ(total, kTasks * kPerTask);
}

TEST_F(ObsTest, TraceProducesValidChromeJson) {
  const std::string path = TempPath("obs_test_trace.json");
  // Spawn the workers before the session so their startup cost is not an
  // uncovered hole in the driver track.
  ShardExecutor executor(4);
  ASSERT_TRUE(TraceStart());
  EXPECT_FALSE(TraceStart());  // One session at a time.
  SetThreadName("driver");
  Counter* accum = Registry::Global().FindOrCreateCounter("time.test.span_us");
  {
    ObsSpan outer("test.outer", accum, 7, "slice");
    for (int i = 0; i < 5; ++i) {
      ObsSpan inner("test.inner");
      (void)inner;
    }
    // Spans from executor workers land on their own named tracks; the
    // enclosing driver span keeps the driver track's extent fully covered.
    executor.Run(8, [&](size_t task) {
      ObsSpan span("test.worker_task", nullptr, task, "task");
      (void)span;
    });
  }
  size_t events = 0, dropped = 0;
  ASSERT_TRUE(TraceStopAndWrite(path, &events, &dropped));
  EXPECT_GE(events, 6u);
  EXPECT_EQ(dropped, 0u);

  std::string body, error;
  ASSERT_TRUE(ReadFileToString(path, &body, &error)) << error;
  JsonValue trace;
  ASSERT_TRUE(ParseJson(body, &trace, &error)) << error;
  TraceStats stats;
  const CheckResult check = CheckTrace(trace, &stats);
  EXPECT_TRUE(check.ok) << (check.problems.empty() ? ""
                                                   : check.problems[0]);
  EXPECT_EQ(stats.events, events);
  EXPECT_GE(stats.tracks, 1u);
  // The driver's metadata record must have named its track.
  bool saw_driver = false;
  const JsonValue* trace_events = trace.Find("traceEvents");
  ASSERT_NE(trace_events, nullptr);
  for (const JsonValue& event : trace_events->array) {
    if (event.StringOr("ph", "") == "M" &&
        event.StringOr("name", "") == "thread_name") {
      const JsonValue* args = event.Find("args");
      if (args != nullptr && args->StringOr("name", "") == "driver") {
        saw_driver = true;
      }
    }
  }
  EXPECT_TRUE(saw_driver);
  std::remove(path.c_str());
}

TEST_F(ObsTest, TraceRingDropsInsteadOfWrapping) {
  TraceOptions options;
  options.capacity = 16;
  ASSERT_TRUE(TraceStart(options));
  for (int i = 0; i < 100; ++i) {
    TraceRecord("test.flood", NowNs(), 10, 0, nullptr);
  }
  const std::string path = TempPath("obs_test_trace_drop.json");
  size_t events = 0, dropped = 0;
  ASSERT_TRUE(TraceStopAndWrite(path, &events, &dropped));
  EXPECT_EQ(events, 16u);
  EXPECT_EQ(dropped, 84u);
  std::remove(path.c_str());
}

TEST_F(ObsTest, StatsLinesAreParseableSnapshots) {
  Registry::Global().FindOrCreateCounter("test.stats_counter")->Add(3);
  Registry::Global()
      .FindOrCreateHistogram("test.stats_us")
      ->Observe(123.0);
  const std::string path = TempPath("obs_test_stats.jsonl");
  std::remove(path.c_str());
  ConfigureStats(path, 2);
  for (int i = 0; i < 5; ++i) StatsTick();  // Emits at ticks 2 and 4.
  FlushStats();                             // Plus the final line.

  std::string body, error;
  ASSERT_TRUE(ReadFileToString(path, &body, &error)) << error;
  size_t lines = 0;
  size_t begin = 0;
  while (begin < body.size()) {
    size_t end = body.find('\n', begin);
    if (end == std::string::npos) end = body.size();
    const std::string line = body.substr(begin, end - begin);
    begin = end + 1;
    if (line.empty()) continue;
    ++lines;
    JsonValue snapshot;
    ASSERT_TRUE(ParseJson(line, &snapshot, &error)) << error;
    const CheckResult check = CheckMetricsSnapshot(snapshot);
    EXPECT_TRUE(check.ok) << (check.problems.empty() ? ""
                                                     : check.problems[0]);
    const JsonValue* counters = snapshot.Find("counters");
    ASSERT_NE(counters, nullptr);
    EXPECT_GE(counters->NumberOr("test.stats_counter", 0.0), 3.0);
    const JsonValue* histograms = snapshot.Find("histograms");
    ASSERT_NE(histograms, nullptr);
    const JsonValue* h = histograms->Find("test.stats_us");
    ASSERT_NE(h, nullptr);
    EXPECT_EQ(h->NumberOr("count", 0.0), 1.0);
  }
  EXPECT_EQ(lines, 3u);
  std::remove(path.c_str());
}

TEST_F(ObsTest, JsonLiteParsesAndRejects) {
  JsonValue value;
  std::string error;
  EXPECT_TRUE(ParseJson(
      R"({"a": [1, 2.5, -3e2], "b": {"c": "x\"\n"}, "d": true, "e": null})",
      &value, &error))
      << error;
  ASSERT_TRUE(value.is_object());
  const JsonValue* a = value.Find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_TRUE(a->is_array());
  ASSERT_EQ(a->array.size(), 3u);
  EXPECT_EQ(a->array[1].number, 2.5);
  EXPECT_EQ(a->array[2].number, -300.0);
  const JsonValue* b = value.Find("b");
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(b->StringOr("c", ""), "x\"\n");
  EXPECT_TRUE(value.Find("e") != nullptr);
  EXPECT_EQ(value.Find("missing"), nullptr);

  EXPECT_FALSE(ParseJson("{\"a\": }", &value, &error));
  EXPECT_FALSE(error.empty());
  EXPECT_FALSE(ParseJson("{\"a\": 1} trailing", &value, &error));
  EXPECT_FALSE(ParseJson("", &value, &error));

  // JSONL: the last non-empty line wins.
  EXPECT_TRUE(ParseLastJsonLine("{\"n\": 1}\n{\"n\": 2}\n\n", &value,
                                &error))
      << error;
  EXPECT_EQ(value.NumberOr("n", 0.0), 2.0);
}

TEST_F(ObsTest, JsonLiteRejectsDeepNestingWithoutOverflow) {
  // A malformed trace of 10^5 nested openers must fail cleanly rather than
  // recurse once per level until the stack overflows.
  JsonValue value;
  std::string error;
  const size_t kDeep = 100000;
  EXPECT_FALSE(ParseJson(std::string(kDeep, '['), &value, &error));
  EXPECT_NE(error.find("nesting too deep"), std::string::npos) << error;
  std::string objects;
  for (size_t i = 0; i < kDeep; ++i) objects += "{\"a\":";
  error.clear();
  EXPECT_FALSE(ParseJson(objects, &value, &error));
  EXPECT_NE(error.find("nesting too deep"), std::string::npos) << error;

  // The bound is 512 levels: 512 parse, 513 do not.
  EXPECT_TRUE(ParseJson(std::string(512, '[') + std::string(512, ']'),
                        &value, &error))
      << error;
  EXPECT_FALSE(ParseJson(std::string(513, '[') + std::string(513, ']'),
                         &value, &error));
  EXPECT_NE(error.find("nesting too deep"), std::string::npos) << error;
}

TEST_F(ObsTest, TraceCoverageIsBoundedByTheLatestEnd) {
  // One track, events in completion order: two children, then the outer
  // span that encloses them and ends last. The track's extent runs to the
  // outer span's end, not to the end of the child that begins last.
  const char* trace_json = R"({"traceEvents": [
    {"ph": "X", "name": "child", "ts": 10, "dur": 10, "tid": 1},
    {"ph": "X", "name": "child", "ts": 70, "dur": 10, "tid": 1},
    {"ph": "X", "name": "outer", "ts": 0, "dur": 100, "tid": 1}]})";
  JsonValue trace;
  std::string error;
  ASSERT_TRUE(ParseJson(trace_json, &trace, &error)) << error;
  TraceStats stats;
  const CheckResult check = CheckTrace(trace, &stats);
  EXPECT_TRUE(check.ok) << (check.problems.empty() ? ""
                                                   : check.problems[0]);
  EXPECT_EQ(stats.events, 3u);
  EXPECT_EQ(stats.busiest_coverage, 1.0);
}

TEST_F(ObsTest, ReportChecksCoverageBounds) {
  const char* good = R"({"counters": {
    "time.pipeline.wall_us": 1000, "time.pipeline.init_us": 100,
    "time.pipeline.ingest_us": 200, "time.pipeline.compute_us": 650,
    "time.pipeline.score_us": 150},
    "gauges": {}, "histograms": {}})";
  JsonValue snapshot;
  std::string error;
  ASSERT_TRUE(ParseJson(good, &snapshot, &error)) << error;
  EXPECT_TRUE(CheckMetricsSnapshot(snapshot).ok);
  const AttributionReport attribution = TimeAttribution(snapshot);
  EXPECT_EQ(attribution.wall_us, 1000.0);
  // score (summed over the method lanes, inside compute's batches) is
  // listed as a row but excluded from the coverage sum.
  EXPECT_NEAR(attribution.driver_coverage, 0.95, 1e-9);
  ASSERT_FALSE(attribution.rows.empty());
  EXPECT_EQ(attribution.rows[0].stage, "pipeline.compute");
  for (size_t i = 1; i < attribution.rows.size(); ++i) {
    EXPECT_LE(attribution.rows[i].us, attribution.rows[i - 1].us);
  }

  const char* sparse = R"({"counters": {
    "time.pipeline.wall_us": 1000, "time.pipeline.compute_us": 200},
    "gauges": {}, "histograms": {}})";
  ASSERT_TRUE(ParseJson(sparse, &snapshot, &error)) << error;
  const CheckResult low = CheckMetricsSnapshot(snapshot);
  EXPECT_FALSE(low.ok);

  EXPECT_FALSE(CheckMetricsSnapshot(JsonValue{}).ok);
}

TEST_F(ObsTest, ReportPrintsFixedDecimals) {
  // Shares, milliseconds and latencies read as plain decimals, never in
  // exponent form (significant-digit formatting printed 90.3% as 9e+01).
  const char* snapshot_json = R"({"counters": {
    "time.pipeline.wall_us": 123456, "time.pipeline.compute_us": 111482,
    "time.pipeline.init_us": 11974},
    "gauges": {},
    "histograms": {"pipeline.step_latency_us":
      {"count": 7, "sum": 900, "p50": 123.456, "p90": 2000, "p99": 4096.5}}})";
  JsonValue snapshot;
  std::string error;
  ASSERT_TRUE(ParseJson(snapshot_json, &snapshot, &error)) << error;
  const std::string report = RenderReport(snapshot);
  EXPECT_NE(report.find("90.3"), std::string::npos) << report;  // 111482/wall.
  EXPECT_NE(report.find("111.48"), std::string::npos) << report;  // ms.
  EXPECT_NE(report.find("123.46"), std::string::npos) << report;  // Wall ms.
  EXPECT_NE(report.find("123.5"), std::string::npos) << report;   // p50.
  EXPECT_NE(report.find("2000.0"), std::string::npos) << report;  // p90.
  EXPECT_EQ(report.find("e+"), std::string::npos) << report;
}

/// SofiaModel::Initialize is one `sofia.init` span with named stages
/// inside: one `sofia.init.als` and one `sofia.init.threshold` per outer
/// round of Algorithm 1, and one `sofia.init.hw_fit`. The stages run one
/// after another on the calling thread, so they cannot sum past the parent,
/// in the trace or in their time.* counters.
TEST_F(ObsTest, TracedInitializeRecordsNestedInitSpans) {
  SyntheticTensor syn = MakeSinusoidTensor(6, 5, 12, 3, 4, /*seed=*/21);
  std::vector<DenseTensor> truth;
  for (size_t t = 0; t < 12; ++t) truth.push_back(syn.tensor.SliceLastMode(t));
  CorruptedStream stream = Corrupt(truth, {20.0, 5.0, 3.0}, /*seed=*/22);
  SofiaConfig config;
  config.rank = 3;
  config.period = 4;
  config.num_threads = 1;
  config.max_init_iterations = 6;

  const std::string path = TempPath("obs_test_init_trace.json");
  ASSERT_TRUE(TraceStart());
  SofiaModel::Initialize(stream.slices, stream.masks, config);
  ASSERT_TRUE(TraceStopAndWrite(path));
  std::string body, error;
  ASSERT_TRUE(ReadFileToString(path, &body, &error)) << error;
  JsonValue trace;
  ASSERT_TRUE(ParseJson(body, &trace, &error)) << error;
  std::remove(path.c_str());

  std::map<std::string, size_t> count;
  std::map<std::string, double> dur_us;
  const JsonValue* events = trace.Find("traceEvents");
  ASSERT_NE(events, nullptr);
  for (const JsonValue& event : events->array) {
    if (event.StringOr("ph", "") != "X") continue;
    const std::string name = event.StringOr("name", "");
    ++count[name];
    dur_us[name] += event.NumberOr("dur", 0.0);
  }
  EXPECT_EQ(count["sofia.init"], 1u);
  EXPECT_GE(count["sofia.init.als"], 1u);
  EXPECT_EQ(count["sofia.init.threshold"], count["sofia.init.als"]);
  EXPECT_EQ(count["sofia.init.hw_fit"], 1u);
  EXPECT_LE(dur_us["sofia.init.als"] + dur_us["sofia.init.threshold"] +
                dur_us["sofia.init.hw_fit"],
            dur_us["sofia.init"]);

  Registry& r = Registry::Global();
  const uint64_t parent = r.FindOrCreateCounter("time.sofia.init_us")->Value();
  const uint64_t children =
      r.FindOrCreateCounter("time.sofia.init.als_us")->Value() +
      r.FindOrCreateCounter("time.sofia.init.threshold_us")->Value() +
      r.FindOrCreateCounter("time.sofia.init.hw_fit_us")->Value();
  EXPECT_GT(parent, 0u);
  EXPECT_LE(children, parent);
}

/// The whole point of the subsystem: measuring must not move the numbers.
TEST_F(ObsTest, ScoresBitwiseIdenticalObsOnAndOff) {
  constexpr size_t kSteps = 24;
  SyntheticTensor syn = MakeSinusoidTensor(6, 5, kSteps, 3, 4, /*seed=*/9);
  std::vector<DenseTensor> truth;
  for (size_t t = 0; t < kSteps; ++t) {
    truth.push_back(syn.tensor.SliceLastMode(t));
  }
  CorruptedStream stream = Corrupt(truth, {30.0, 10.0, 3.0}, /*seed=*/10);

  StreamEvalOptions options;
  options.workers = 2;

  auto run_once = [&]() {
    SofiaConfig config;
    config.rank = 3;
    config.period = 4;
    config.lambda1 = 0.5;
    config.lambda2 = 0.5;
    config.max_init_iterations = 5;
    std::vector<std::unique_ptr<StreamingMethod>> owned;
    owned.push_back(std::make_unique<SofiaStream>(config));
    owned.push_back(
        std::make_unique<OnlineSgd>(OnlineSgdOptions{.rank = 3}));
    std::vector<StreamingMethod*> methods;
    for (auto& m : owned) methods.push_back(m.get());
    return RunImputationComparison(methods, stream, truth, options);
  };

  SetEnabled(true);
  const std::vector<MethodRunResult> on = run_once();
  SetEnabled(false);
  const std::vector<MethodRunResult> off = run_once();
  SetEnabled(true);

  ASSERT_EQ(on.size(), off.size());
  for (size_t m = 0; m < on.size(); ++m) {
    ASSERT_EQ(on[m].run.nre.size(), off[m].run.nre.size());
    for (size_t t = 0; t < on[m].run.nre.size(); ++t) {
      // EXPECT_EQ on doubles: bitwise identity, not tolerance.
      EXPECT_EQ(on[m].run.nre[t], off[m].run.nre[t])
          << on[m].name << " t=" << t;
    }
    EXPECT_EQ(on[m].run.rae, off[m].run.rae) << on[m].name;
  }
  // The enabled run also populates the histogram-backed percentiles.
  EXPECT_GT(on[0].run.step_latency_p99_us, 0.0);
  EXPECT_GE(on[0].run.step_latency_p99_us, on[0].run.step_latency_p50_us);
  EXPECT_EQ(off[0].run.step_latency_p99_us, 0.0);
}

}  // namespace
}  // namespace obs
}  // namespace sofia
