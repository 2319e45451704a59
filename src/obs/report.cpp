#include "obs/report.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <sstream>

#include "util/table.hpp"

namespace sofia {
namespace obs {

namespace {

constexpr const char* kWallCounter = "time.pipeline.wall_us";

/// Driver-thread stage counters: these run on the Run() caller's thread, so
/// their sum must account for the pipeline wall clock. Score runs inside
/// compute's batch (summed over the method lanes) and is intentionally NOT
/// in this list.
const char* const kDriverStages[] = {
    "time.pipeline.init_us",
    "time.pipeline.ingest_us",
    "time.pipeline.stall_us",
    "time.pipeline.compute_us",
};

bool HasPrefixSuffix(const std::string& name) {
  return name.rfind("time.", 0) == 0 && name.size() > 8 &&
         name.compare(name.size() - 3, 3, "_us") == 0;
}

// Counters are integers; render them as such (Table::Num's significant-
// digit formatting would turn 690270 into 6.903e+05). Milliseconds,
// percentages and latencies use fixed decimals for the same reason.
std::string Int(double value) {
  return std::to_string(static_cast<long long>(std::llround(value)));
}

}  // namespace

AttributionReport TimeAttribution(const JsonValue& snapshot) {
  AttributionReport report;
  const JsonValue* counters = snapshot.Find("counters");
  if (counters == nullptr || !counters->is_object()) return report;
  report.wall_us = counters->NumberOr(kWallCounter, 0.0);
  double driver_sum = 0.0;
  for (const auto& [name, value] : counters->object) {
    if (!HasPrefixSuffix(name) || !value.is_number()) continue;
    if (name == kWallCounter) continue;
    AttributionRow row;
    row.stage = name.substr(5, name.size() - 5 - 3);
    row.us = value.number;
    row.fraction = report.wall_us > 0.0 ? row.us / report.wall_us : 0.0;
    report.rows.push_back(std::move(row));
    for (const char* stage : kDriverStages) {
      if (name == stage) driver_sum += value.number;
    }
  }
  std::sort(report.rows.begin(), report.rows.end(),
            [](const AttributionRow& a, const AttributionRow& b) {
              return a.us > b.us;
            });
  report.driver_coverage =
      report.wall_us > 0.0 ? driver_sum / report.wall_us : 0.0;
  return report;
}

std::string RenderReport(const JsonValue& snapshot) {
  std::ostringstream out;
  const AttributionReport attribution = TimeAttribution(snapshot);
  out << "Per-stage time attribution (time.*_us counters)\n";
  Table stages({"stage", "ms", "% of pipeline wall"});
  for (const AttributionRow& row : attribution.rows) {
    stages.AddRow({row.stage, Table::Fixed(row.us / 1000.0, 2),
                   attribution.wall_us > 0.0
                       ? Table::Fixed(100.0 * row.fraction, 1)
                       : "-"});
  }
  if (attribution.wall_us > 0.0) {
    stages.AddRow({"(pipeline wall)",
                   Table::Fixed(attribution.wall_us / 1000.0, 2), "100.0"});
    stages.AddRow({"(driver stages / wall)", "",
                   Table::Fixed(100.0 * attribution.driver_coverage, 1)});
  }
  out << stages.ToString() << "\n";

  const JsonValue* histograms = snapshot.Find("histograms");
  if (histograms != nullptr && histograms->is_object() &&
      !histograms->object.empty()) {
    out << "Latency histograms (microseconds)\n";
    Table table({"histogram", "count", "p50", "p90", "p99"});
    for (const auto& [name, h] : histograms->object) {
      table.AddRow({name,
                    Int(h.NumberOr("count", 0.0)),
                    Table::Fixed(h.NumberOr("p50", 0.0), 1),
                    Table::Fixed(h.NumberOr("p90", 0.0), 1),
                    Table::Fixed(h.NumberOr("p99", 0.0), 1)});
    }
    out << table.ToString() << "\n";
  }

  const JsonValue* counters = snapshot.Find("counters");
  if (counters != nullptr && counters->is_object()) {
    out << "Counters\n";
    Table table({"counter", "value"});
    for (const auto& [name, value] : counters->object) {
      if (HasPrefixSuffix(name)) continue;  // Already in the stage table.
      table.AddRow({name, Int(value.number)});
    }
    out << table.ToString();
  }
  return out.str();
}

CheckResult CheckMetricsSnapshot(const JsonValue& snapshot) {
  CheckResult result;
  if (!snapshot.is_object()) {
    result.Problem("snapshot is not a JSON object");
    return result;
  }
  const JsonValue* counters = snapshot.Find("counters");
  if (counters == nullptr || !counters->is_object()) {
    result.Problem("missing \"counters\" object");
  } else if (counters->object.empty()) {
    result.Problem("\"counters\" is empty — nothing was instrumented");
  }
  for (const char* key : {"gauges", "histograms"}) {
    const JsonValue* section = snapshot.Find(key);
    if (section == nullptr || !section->is_object()) {
      result.Problem(std::string("missing \"") + key + "\" object");
    }
  }
  if (!result.ok) return result;

  const AttributionReport attribution = TimeAttribution(snapshot);
  if (attribution.wall_us > 0.0) {
    if (attribution.driver_coverage < 0.9) {
      std::ostringstream msg;
      msg << "driver stage counters cover only "
          << std::llround(100.0 * attribution.driver_coverage)
          << "% of time.pipeline.wall_us (need >= 90%)";
      result.Problem(msg.str());
    }
    if (attribution.driver_coverage > 1.05) {
      result.Problem("driver stage counters exceed pipeline wall by > 5% — "
                     "double-counted stage?");
    }
  }
  return result;
}

CheckResult CheckTrace(const JsonValue& trace, TraceStats* stats) {
  CheckResult result;
  TraceStats local;
  const JsonValue* events = trace.Find("traceEvents");
  if (events == nullptr || !events->is_array()) {
    result.Problem("missing \"traceEvents\" array");
    return result;
  }

  struct Track {
    std::string name;
    std::vector<std::pair<double, double>> intervals;  // [start, end] us.
    double last_end = -1.0;
  };
  std::map<int64_t, Track> tracks;

  for (const JsonValue& event : events->array) {
    if (!event.is_object()) {
      result.Problem("event is not an object");
      break;
    }
    const std::string ph = event.StringOr("ph", "");
    const int64_t tid =
        static_cast<int64_t>(event.NumberOr("tid", -1.0));
    if (ph == "M") {
      const JsonValue* args = event.Find("args");
      if (args != nullptr && event.StringOr("name", "") == "thread_name") {
        tracks[tid].name = args->StringOr("name", "");
      }
      continue;
    }
    if (ph != "X") continue;
    if (event.StringOr("name", "").empty()) {
      result.Problem("complete event without a name");
      break;
    }
    const double ts = event.NumberOr("ts", -1.0);
    const double dur = event.NumberOr("dur", -1.0);
    if (ts < 0.0 || dur < 0.0 || tid < 0) {
      result.Problem("complete event with missing/negative ts, dur or tid");
      break;
    }
    Track& track = tracks[tid];
    const double end = ts + dur;
    // Events are flushed in ring order = per-thread completion order, so
    // completion timestamps must be monotone per track.
    if (end + 1e-6 < track.last_end) {
      result.Problem("non-monotonic completion timestamps on tid " +
                     std::to_string(tid));
      break;
    }
    track.last_end = end;
    track.intervals.emplace_back(ts, end);
    ++local.events;
  }
  if (local.events == 0) result.Problem("trace contains no complete events");

  // Span-interval union coverage of the busiest track: the driver's stage
  // spans must account for >= 90% of its extent (nested spans do not
  // double-count — this is an interval union, not a duration sum).
  double best_busy = -1.0;
  for (auto& [tid, track] : tracks) {
    if (track.intervals.empty()) continue;
    ++local.tracks;
    std::sort(track.intervals.begin(), track.intervals.end());
    double covered = 0.0;
    double cur_begin = track.intervals[0].first;
    double cur_end = track.intervals[0].second;
    for (const auto& [begin, end] : track.intervals) {
      if (begin > cur_end) {
        covered += cur_end - cur_begin;
        cur_begin = begin;
        cur_end = end;
      } else {
        cur_end = std::max(cur_end, end);
      }
    }
    covered += cur_end - cur_begin;
    const double extent =
        track.intervals.back().second - track.intervals.front().first;
    const double coverage = extent > 0.0 ? covered / extent : 1.0;
    if (covered > best_busy) {
      best_busy = covered;
      local.busiest_track =
          track.name.empty() ? "tid " + std::to_string(tid) : track.name;
      local.busiest_coverage = coverage;
    }
  }
  if (result.ok && local.events > 0 && local.busiest_coverage < 0.9) {
    std::ostringstream msg;
    msg << "busiest track (" << local.busiest_track << ") spans cover only "
        << std::llround(100.0 * local.busiest_coverage)
        << "% of its extent (need >= 90%)";
    result.Problem(msg.str());
  }
  if (stats != nullptr) *stats = local;
  return result;
}

}  // namespace obs
}  // namespace sofia
