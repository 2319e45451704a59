#include "obs/stats.hpp"

#ifndef SOFIA_OBS_DISABLED

#include <atomic>
#include <cinttypes>
#include <cstdio>
#include <mutex>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace sofia {
namespace obs {

namespace {

void AppendKey(const std::string& key, std::string* out) {
  out->push_back('"');
  // Metric names follow the <layer>.<metric> convention — no JSON-special
  // characters; emit verbatim.
  out->append(key);
  out->append("\": ");
}

void AppendU64(uint64_t v, std::string* out) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%" PRIu64, v);
  out->append(buf);
}

void AppendDouble(double v, std::string* out) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  out->append(buf);
}

struct StatsSink {
  std::mutex mutex;
  std::FILE* file = nullptr;
  uint64_t every = 0;
  uint64_t ticks = 0;
  std::atomic<bool> configured{false};
};

StatsSink& Sink() {
  static StatsSink sink;
  return sink;
}

void EmitLineLocked(StatsSink& sink) {
  std::string line;
  AppendSnapshotLine(&line);
  line.push_back('\n');
  std::fwrite(line.data(), 1, line.size(), sink.file);
  std::fflush(sink.file);
}

}  // namespace

void AppendSnapshotLine(std::string* out) {
  Registry& registry = Registry::Global();
  out->append("{\"ts_us\": ");
  AppendU64(NowNs() / 1000, out);
  out->append(", \"counters\": {");
  bool first = true;
  for (const auto& [name, counter] : registry.Counters()) {
    if (!first) out->append(", ");
    first = false;
    AppendKey(name, out);
    AppendU64(counter->Value(), out);
  }
  out->append("}, \"histograms\": {");
  first = true;
  for (const auto& [name, histogram] : registry.Histograms()) {
    if (!first) out->append(", ");
    first = false;
    AppendKey(name, out);
    out->append("{\"count\": ");
    AppendU64(histogram->Count(), out);
    out->append(", \"sum\": ");
    AppendU64(histogram->Sum(), out);
    out->append(", \"p50\": ");
    AppendDouble(histogram->Percentile(50.0), out);
    out->append(", \"p90\": ");
    AppendDouble(histogram->Percentile(90.0), out);
    out->append(", \"p99\": ");
    AppendDouble(histogram->Percentile(99.0), out);
    out->push_back('}');
  }
  out->append("}}");
}

void ConfigureStats(const std::string& path, uint64_t every_steps) {
  StatsSink& sink = Sink();
  std::lock_guard<std::mutex> lock(sink.mutex);
  if (sink.file != nullptr) {
    std::fclose(sink.file);
    sink.file = nullptr;
  }
  sink.every = every_steps;
  sink.ticks = 0;
  if (every_steps > 0 && !path.empty()) {
    sink.file = std::fopen(path.c_str(), "a");
  }
  sink.configured.store(sink.file != nullptr, std::memory_order_release);
}

void StatsTick() {
  StatsSink& sink = Sink();
  if (!sink.configured.load(std::memory_order_relaxed)) return;
  std::lock_guard<std::mutex> lock(sink.mutex);
  if (sink.file == nullptr) return;
  if (++sink.ticks % sink.every != 0) return;
  EmitLineLocked(sink);
}

void FlushStats() {
  StatsSink& sink = Sink();
  std::lock_guard<std::mutex> lock(sink.mutex);
  if (sink.file == nullptr) return;
  EmitLineLocked(sink);
  std::fclose(sink.file);
  sink.file = nullptr;
  sink.configured.store(false, std::memory_order_release);
}

}  // namespace obs
}  // namespace sofia

#endif  // SOFIA_OBS_DISABLED
