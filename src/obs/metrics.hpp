#ifndef SOFIA_OBS_METRICS_H_
#define SOFIA_OBS_METRICS_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

/// \file metrics.hpp
/// \brief Lock-light metrics registry: named counters, gauges, and
/// fixed-bucket latency histograms shared by the whole runtime.
///
/// The streaming stack (kernels, pipeline stages, executor lanes, guard
/// wrappers, durability IO) each kept private telemetry structs; this
/// registry is the one place they all publish to, so a single snapshot
/// answers "where does a step's time go" without a bench build. Design
/// constraints, in order:
///
///  - *Hot-path cheap.* Handles (Counter*, Histogram*) are looked up once
///    (mutex-protected name map, stable pointers forever) and cached by the
///    instrumented site; Add()/Observe() is then one relaxed atomic RMW on
///    a per-thread shard — no lock, no allocation, one predictable branch
///    on the master enable flag.
///  - *Per-worker shards aggregated on read.* Each metric holds kShards
///    cache-line-sized cells; a thread picks its cell once (round-robin
///    thread-local slot), so the ShardExecutor's workers never contend on
///    one cache line. Value()/Percentile() sum the shards — reads are rare
///    (stats emission), writes are constant.
///  - *Exact under concurrency.* Shard cells are plain atomic adds, so the
///    aggregated value is exactly the sum of all Add() calls
///    (tests/obs_test.cc pins this under the ShardExecutor).
///  - *Compiles to nothing when disabled.* Building with -DSOFIA_OBS_DISABLED
///    (CMake option SOFIA_OBS_DISABLED) swaps every type here for an inline
///    no-op stub and empties metrics.cpp — the registry contributes zero
///    symbols and zero instructions to the hot path.
///
/// Histograms are log-linear (HdrHistogram-style): 8 linear sub-buckets per
/// power of two, so relative bucket width is <= 12.5% everywhere and
/// p50/p90/p99 read from the bucket midpoints land within ~7% of the exact
/// order statistics. Latency histograms hold microseconds by convention
/// (suffix `_us`).
///
/// Metric naming convention (see README "Observability"):
///   <layer>.<object>.<metric>[_<unit>]     e.g. kernel.coo.mttkrp.calls,
///   time.pipeline.compute_us, guard.checkpoint_us (histogram).
/// Counters under the `time.` prefix are stage wall-time accumulators in
/// microseconds — tools/obs_report turns them into the per-stage
/// attribution table.

namespace sofia {
namespace obs {

#ifndef SOFIA_OBS_DISABLED

/// Number of per-metric shard cells. More than the worker counts we run
/// (threads beyond this share cells round-robin, still exact — just with
/// occasional cache-line sharing).
constexpr size_t kShards = 16;

/// Process-wide master switch, default on ("always-on signals"). Off turns
/// every Add/Set/Observe into a load+branch — the overhead reference the
/// obs bench compares against. Not synchronized: flip between runs.
bool Enabled();
void SetEnabled(bool enabled);

/// This thread's shard slot in [0, kShards): assigned round-robin on first
/// use, stable for the thread's lifetime.
size_t ShardIndex();

/// Monotonically increasing sum of every Add() since construction/Reset.
class Counter {
 public:
  void Add(uint64_t n = 1) {
    if (!Enabled()) return;
    cells_[ShardIndex()].v.fetch_add(n, std::memory_order_relaxed);
  }
  uint64_t Value() const;
  void Reset();

 private:
  struct alignas(64) Cell {
    std::atomic<uint64_t> v{0};
  };
  Cell cells_[kShards];
};

/// Last-writer-wins instantaneous value (queue depths, arena growth).
class Gauge {
 public:
  void Set(double value) {
    if (!Enabled()) return;
    value_.store(value, std::memory_order_relaxed);
  }
  double Value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Fixed-bucket log-linear histogram: values land in 8 linear sub-buckets
/// per power of two (bucket relative width <= 1/8), sharded like Counter.
/// Unit-agnostic; latency histograms store microseconds by convention.
class Histogram {
 public:
  static constexpr size_t kSubBits = 3;                    // 8 sub-buckets.
  static constexpr size_t kSub = size_t{1} << kSubBits;
  static constexpr size_t kBuckets = (64 - kSubBits) * kSub + kSub;

  void Observe(double value);

  uint64_t Count() const;
  /// Sum of llround(value) over every Observe (integral in the value unit).
  uint64_t Sum() const;
  /// q in [0, 100]. Nearest-rank walk over the aggregated buckets with
  /// linear interpolation inside the landing bucket; 0 when empty.
  double Percentile(double q) const;
  void Reset();

  /// Aggregate per-bucket counts (sums the shards), for tests/export.
  void SnapshotBuckets(std::vector<uint64_t>* counts) const;

  /// value -> bucket index; inverse bounds for interpolation.
  static size_t BucketIndex(uint64_t value);
  static double BucketLower(size_t bucket);
  static double BucketWidth(size_t bucket);

 private:
  struct alignas(64) Shard {
    std::atomic<uint64_t> count{0};
    std::atomic<uint64_t> sum{0};
  };
  Shard shards_[kShards];
  // Bucket cells are sharded too (kShards independent arrays) so concurrent
  // Observe() calls from different workers never share a cache line.
  struct BucketShard {
    std::atomic<uint32_t> c[kBuckets];
  };
  BucketShard buckets_[kShards] = {};
};

/// Global name -> metric registry. Lookups lock; returned pointers are
/// stable for the process lifetime, so instrumented sites look up once
/// (function-local static) and hit the lock never again.
class Registry {
 public:
  static Registry& Global();

  Counter* FindOrCreateCounter(const std::string& name);
  Gauge* FindOrCreateGauge(const std::string& name);
  Histogram* FindOrCreateHistogram(const std::string& name);

  /// Name-sorted views for snapshot/emission (copies the name+pointer list,
  /// not the metric payloads).
  std::vector<std::pair<std::string, const Counter*>> Counters() const;
  std::vector<std::pair<std::string, const Gauge*>> Gauges() const;
  std::vector<std::pair<std::string, const Histogram*>> Histograms() const;

  /// Zeroes every registered metric (registrations and pointers survive —
  /// cached handles stay valid). Tests and benches call this between
  /// phases; production never needs it.
  void ResetAllForTest();

 private:
  Registry() = default;
  struct Impl;
  Impl& impl() const;
};

#else  // SOFIA_OBS_DISABLED: every type is an inline no-op stub. The
       // instrumented call sites compile, then fold to nothing; metrics.cpp
       // contributes no symbols at all.

constexpr size_t kShards = 1;

inline bool Enabled() { return false; }
inline void SetEnabled(bool) {}
inline size_t ShardIndex() { return 0; }

class Counter {
 public:
  void Add(uint64_t = 1) {}
  uint64_t Value() const { return 0; }
  void Reset() {}
};

class Gauge {
 public:
  void Set(double) {}
  double Value() const { return 0.0; }
  void Reset() {}
};

class Histogram {
 public:
  static constexpr size_t kSubBits = 3;
  static constexpr size_t kSub = size_t{1} << kSubBits;
  static constexpr size_t kBuckets = (64 - kSubBits) * kSub + kSub;
  void Observe(double) {}
  uint64_t Count() const { return 0; }
  uint64_t Sum() const { return 0; }
  double Percentile(double) const { return 0.0; }
  void Reset() {}
  void SnapshotBuckets(std::vector<uint64_t>* counts) const { counts->clear(); }
  static size_t BucketIndex(uint64_t) { return 0; }
  static double BucketLower(size_t) { return 0.0; }
  static double BucketWidth(size_t) { return 1.0; }
};

class Registry {
 public:
  static Registry& Global() {
    static Registry registry;
    return registry;
  }
  Counter* FindOrCreateCounter(const std::string&) {
    static Counter counter;
    return &counter;
  }
  Gauge* FindOrCreateGauge(const std::string&) {
    static Gauge gauge;
    return &gauge;
  }
  Histogram* FindOrCreateHistogram(const std::string&) {
    static Histogram histogram;
    return &histogram;
  }
  std::vector<std::pair<std::string, const Counter*>> Counters() const {
    return {};
  }
  std::vector<std::pair<std::string, const Gauge*>> Gauges() const {
    return {};
  }
  std::vector<std::pair<std::string, const Histogram*>> Histograms() const {
    return {};
  }
  void ResetAllForTest() {}
};

#endif  // SOFIA_OBS_DISABLED

}  // namespace obs
}  // namespace sofia

#endif  // SOFIA_OBS_METRICS_H_
