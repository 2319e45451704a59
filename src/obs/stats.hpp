#ifndef SOFIA_OBS_STATS_H_
#define SOFIA_OBS_STATS_H_

#include <cstdint>
#include <string>

/// \file stats.hpp
/// \brief Live-stats emitter: periodic JSON-lines snapshots of the registry.
///
/// One snapshot line captures the entire registry — every counter, gauge,
/// and histogram (count/sum/p50/p90/p99) — as a single JSON object, so a
/// `tail -f` of the stats file is a live view of steps/sec, p99 step
/// latency, guard trips, journal bytes, and arena growth without a bench
/// build. The pipeline calls StatsTick() once per method step, on the lane
/// that ran it; emission happens every `every_steps` ticks (snapshot + one
/// write under the sink's lock, off the kernel hot path). Values are
/// cumulative since process start — consumers diff consecutive lines for
/// rates.
///
/// The same snapshot format is what `--metrics-out` dumps once at CLI exit
/// and what tools/obs_report consumes.

namespace sofia {
namespace obs {

#ifndef SOFIA_OBS_DISABLED

/// Appends one JSON object line (no trailing newline) describing the full
/// registry: {"ts_us":..., "counters":{...}, "gauges":{...},
/// "histograms":{name:{"count":..,"sum":..,"p50":..,"p90":..,"p99":..}}}.
void AppendSnapshotLine(std::string* out);

/// Routes periodic snapshots to `path` (append mode), one line every
/// `every_steps` StatsTick() calls. every_steps == 0 disables. Replaces any
/// earlier configuration; flushes nothing by itself.
void ConfigureStats(const std::string& path, uint64_t every_steps);

/// Step heartbeat — called by the stream pipeline once per slice. Cheap
/// when unconfigured (one relaxed load); emits a snapshot line when due.
void StatsTick();

/// Writes one final snapshot line (if configured) and closes the file.
void FlushStats();

#else  // SOFIA_OBS_DISABLED

inline void AppendSnapshotLine(std::string* out) { *out += "{}"; }
inline void ConfigureStats(const std::string&, uint64_t) {}
inline void StatsTick() {}
inline void FlushStats() {}

#endif  // SOFIA_OBS_DISABLED

}  // namespace obs
}  // namespace sofia

#endif  // SOFIA_OBS_STATS_H_
