#ifndef SOFIA_OBS_TRACE_H_
#define SOFIA_OBS_TRACE_H_

#include <cstddef>
#include <cstdint>
#include <string>

#include "obs/metrics.hpp"

/// \file trace.hpp
/// \brief Tracing spans: RAII scopes emitting Chrome trace-event JSON.
///
/// A trace session records ObsSpan scopes from every thread into one
/// preallocated ring of fixed-size events (slot reservation is a single
/// relaxed fetch_add — no lock, no allocation on the hot path) and flushes
/// them to disk *after* the run, as a Chrome trace-event JSON file that
/// chrome://tracing and https://ui.perfetto.dev load directly. Threads are
/// attributed to named tracks: the ShardExecutor registers
/// "shard-worker-N" and the pipeline driver registers "driver", so the
/// method lanes of each slice's batch are visible as parallel tracks.
///
/// Span naming convention: `<layer>.<what>` with a static string (the ring
/// stores the pointer — never pass a temporary std::string's c_str()).
/// Numeric context (slice index, task count) rides in the optional `arg`,
/// emitted under `args` in the JSON.
///
/// When the ring fills, later events are dropped and counted
/// (`dropped_events`, reported in the flush summary) — the ring never
/// wraps, so a flushed trace is always the honest prefix of the run.
///
/// ObsSpan doubles as the stage-time accumulator: give it a `time.*_us`
/// registry counter and the span's wall time lands there even when no
/// trace session is active (that is how tools/obs_report attributes time
/// per stage from a metrics snapshot alone).

namespace sofia {
namespace obs {

#ifndef SOFIA_OBS_DISABLED

/// Nanoseconds since an arbitrary process-wide steady epoch. Monotonic
/// across all threads (steady_clock).
uint64_t NowNs();

/// Small dense id for the calling thread (0, 1, 2, ... in first-use
/// order); doubles as the Chrome trace `tid`.
uint32_t CurrentThreadId();

/// Names the calling thread's trace track ("driver", "shard-worker-2").
/// Sticky across sessions; re-naming overwrites. Cheap enough for thread
/// entry points, not for hot loops.
void SetThreadName(const std::string& name);

struct TraceOptions {
  /// Ring capacity in events; the default holds a few hundred traced steps
  /// of the full pipeline with worker spans on.
  size_t capacity = size_t{1} << 16;
  /// Record a span per worker per executor batch (one Run call). Honest
  /// busy/idle tracks, but the highest-volume span in the system — turn
  /// off to trace long streams within the ring budget.
  bool worker_spans = true;
};

/// Starts the global session (false if one is already active).
bool TraceStart(const TraceOptions& options = {});
bool TraceActive();
/// Worker-batch spans wanted? (False when no session is active.)
bool TraceWorkerSpans();

/// Stops the session and writes the Chrome trace JSON. Returns false when
/// no session was active or the file cannot be written. `events_out` (may
/// be null) reports flushed events; `dropped_out` the ring overflow count.
/// Call after concurrent work has quiesced (the pipeline drains its
/// executor before returning), not mid-run.
bool TraceStopAndWrite(const std::string& path, size_t* events_out = nullptr,
                       size_t* dropped_out = nullptr);

/// Stops and discards the session (tests).
void TraceAbort();

/// Raw event record, exposed for ObsSpan and the executor; `name` and
/// `arg_name` must outlive the session (static strings).
void TraceRecord(const char* name, uint64_t start_ns, uint64_t dur_ns,
                 uint64_t arg, const char* arg_name);

/// RAII span: times its scope, then (a) adds microseconds to `accum_us`
/// when given, and (b) records a trace event when a session is active.
/// With neither, the constructor is one branch and no clock read.
class ObsSpan {
 public:
  explicit ObsSpan(const char* name, Counter* accum_us = nullptr,
                   uint64_t arg = 0, const char* arg_name = nullptr)
      : name_(name), accum_(accum_us), arg_(arg), arg_name_(arg_name) {
    armed_ = TraceActive() || (accum_ != nullptr && Enabled());
    if (armed_) start_ns_ = NowNs();
  }
  ~ObsSpan() {
    if (!armed_) return;
    const uint64_t dur = NowNs() - start_ns_;
    if (accum_ != nullptr) accum_->Add(dur / 1000);
    if (TraceActive()) TraceRecord(name_, start_ns_, dur, arg_, arg_name_);
  }

  ObsSpan(const ObsSpan&) = delete;
  ObsSpan& operator=(const ObsSpan&) = delete;

 private:
  const char* name_;
  Counter* accum_;
  uint64_t arg_;
  const char* arg_name_;
  uint64_t start_ns_ = 0;
  bool armed_;
};

#else  // SOFIA_OBS_DISABLED

inline uint64_t NowNs() { return 0; }
inline uint32_t CurrentThreadId() { return 0; }
inline void SetThreadName(const std::string&) {}

struct TraceOptions {
  size_t capacity = 0;
  bool worker_spans = false;
};

inline bool TraceStart(const TraceOptions& = {}) { return false; }
inline bool TraceActive() { return false; }
inline bool TraceWorkerSpans() { return false; }
inline bool TraceStopAndWrite(const std::string&, size_t* = nullptr,
                              size_t* = nullptr) {
  return false;
}
inline void TraceAbort() {}
inline void TraceRecord(const char*, uint64_t, uint64_t, uint64_t,
                        const char*) {}

class ObsSpan {
 public:
  explicit ObsSpan(const char*, Counter* = nullptr, uint64_t = 0,
                   const char* = nullptr) {}
  ObsSpan(const ObsSpan&) = delete;
  ObsSpan& operator=(const ObsSpan&) = delete;
};

#endif  // SOFIA_OBS_DISABLED

}  // namespace obs
}  // namespace sofia

#endif  // SOFIA_OBS_TRACE_H_
