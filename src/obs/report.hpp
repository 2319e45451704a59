#ifndef SOFIA_OBS_REPORT_H_
#define SOFIA_OBS_REPORT_H_

#include <cstddef>
#include <string>
#include <vector>

#include "obs/json_lite.hpp"

/// \file report.hpp
/// \brief Core of tools/obs_report: turns a metrics snapshot into a
/// per-stage time-attribution table and validates emitted artifacts.
/// Lives in the library (not the tool main) so tests can pin the logic.

namespace sofia {
namespace obs {

/// One `time.<stage>_us` counter from the snapshot.
struct AttributionRow {
  std::string stage;      ///< Counter name without the time./_us wrapping.
  double us = 0.0;        ///< Accumulated wall microseconds.
  double fraction = 0.0;  ///< Share of the pipeline wall clock (0 if none).
};

struct AttributionReport {
  /// time.pipeline.wall_us when present, else 0.
  double wall_us = 0.0;
  /// All time.*_us rows, sorted by descending time.
  std::vector<AttributionRow> rows;
  /// Stage sum of the Run() caller's thread (init + ingest + compute) over
  /// wall_us — the "do the spans account for the run" ratio the acceptance
  /// criteria pin within 10%. 0 when wall_us is 0.
  double driver_coverage = 0.0;
};

/// Extracts the attribution from one snapshot object (the last line of a
/// metrics JSONL).
AttributionReport TimeAttribution(const JsonValue& snapshot);

/// Renders the attribution + histogram summary as aligned text tables.
std::string RenderReport(const JsonValue& snapshot);

struct CheckResult {
  bool ok = true;
  std::vector<std::string> problems;

  void Problem(const std::string& what) {
    ok = false;
    problems.push_back(what);
  }
};

/// Structural validation of a metrics snapshot: counters and histograms
/// objects present (any other object, such as the "gauges" of older
/// snapshots, is ignored), counters non-empty, and — when a pipeline ran
/// (time.pipeline.wall_us > 0) — driver stage sums within 10% of wall.
CheckResult CheckMetricsSnapshot(const JsonValue& snapshot);

struct TraceStats {
  size_t events = 0;            ///< Complete ("X") events.
  size_t tracks = 0;            ///< Distinct tids carrying events.
  std::string busiest_track;    ///< Thread name (or "tid N") with most time.
  double busiest_coverage = 0;  ///< Union(span intervals)/extent, busiest.
};

/// Validates a Chrome trace document: traceEvents array of well-formed
/// events, per-track monotonic completion timestamps, and span-interval
/// coverage of the busiest track >= 90% of its extent.
CheckResult CheckTrace(const JsonValue& trace, TraceStats* stats = nullptr);

}  // namespace obs
}  // namespace sofia

#endif  // SOFIA_OBS_REPORT_H_
