#include "obs/metrics.hpp"

#ifndef SOFIA_OBS_DISABLED

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <mutex>

namespace sofia {
namespace obs {

namespace {
std::atomic<bool> g_enabled{true};
std::atomic<size_t> g_next_shard{0};
}  // namespace

bool Enabled() { return g_enabled.load(std::memory_order_relaxed); }
void SetEnabled(bool enabled) {
  g_enabled.store(enabled, std::memory_order_relaxed);
}

size_t ShardIndex() {
  static thread_local const size_t slot =
      g_next_shard.fetch_add(1, std::memory_order_relaxed) % kShards;
  return slot;
}

uint64_t Counter::Value() const {
  uint64_t sum = 0;
  for (const Cell& cell : cells_) {
    sum += cell.v.load(std::memory_order_relaxed);
  }
  return sum;
}

void Counter::Reset() {
  for (Cell& cell : cells_) cell.v.store(0, std::memory_order_relaxed);
}

size_t Histogram::BucketIndex(uint64_t value) {
  if (value < kSub) return static_cast<size_t>(value);
  const int msb = 63 - __builtin_clzll(value);
  const size_t group = static_cast<size_t>(msb) - kSubBits + 1;
  const size_t sub = (value >> (msb - static_cast<int>(kSubBits))) & (kSub - 1);
  return group * kSub + sub;
}

double Histogram::BucketLower(size_t bucket) {
  if (bucket < kSub) return static_cast<double>(bucket);
  const size_t group = bucket / kSub;
  const size_t sub = bucket % kSub;
  const int msb = static_cast<int>(group + kSubBits - 1);
  return std::ldexp(1.0, msb) +
         static_cast<double>(sub) * std::ldexp(1.0, msb - static_cast<int>(kSubBits));
}

double Histogram::BucketWidth(size_t bucket) {
  if (bucket < kSub) return 1.0;
  const size_t group = bucket / kSub;
  const int msb = static_cast<int>(group + kSubBits - 1);
  return std::ldexp(1.0, msb - static_cast<int>(kSubBits));
}

void Histogram::Observe(double value) {
  if (!Enabled()) return;
  if (!(value >= 0.0)) value = 0.0;  // NaN/negative clamp to bucket 0.
  const uint64_t v = value >= 9.2e18 ? UINT64_MAX
                                     : static_cast<uint64_t>(value);
  const size_t shard = ShardIndex();
  Shard& s = shards_[shard];
  s.count.fetch_add(1, std::memory_order_relaxed);
  s.sum.fetch_add(static_cast<uint64_t>(std::llround(std::min(value, 9.2e18))),
                  std::memory_order_relaxed);
  buckets_[shard].c[BucketIndex(v)].fetch_add(1, std::memory_order_relaxed);
}

uint64_t Histogram::Count() const {
  uint64_t total = 0;
  for (const Shard& s : shards_) {
    total += s.count.load(std::memory_order_relaxed);
  }
  return total;
}

uint64_t Histogram::Sum() const {
  uint64_t total = 0;
  for (const Shard& s : shards_) {
    total += s.sum.load(std::memory_order_relaxed);
  }
  return total;
}

void Histogram::SnapshotBuckets(std::vector<uint64_t>* counts) const {
  counts->assign(kBuckets, 0);
  for (const BucketShard& shard : buckets_) {
    for (size_t b = 0; b < kBuckets; ++b) {
      (*counts)[b] += shard.c[b].load(std::memory_order_relaxed);
    }
  }
}

double Histogram::Percentile(double q) const {
  std::vector<uint64_t> counts;
  SnapshotBuckets(&counts);
  uint64_t total = 0;
  for (uint64_t c : counts) total += c;
  if (total == 0) return 0.0;
  q = std::min(100.0, std::max(0.0, q));
  // Nearest-rank target; interpolate linearly inside the landing bucket so
  // repeated quantiles of identical data are deterministic.
  const uint64_t target = std::max<uint64_t>(
      1, static_cast<uint64_t>(std::ceil(q / 100.0 *
                                         static_cast<double>(total))));
  uint64_t cumulative = 0;
  for (size_t b = 0; b < kBuckets; ++b) {
    if (counts[b] == 0) continue;
    if (cumulative + counts[b] >= target) {
      const double inside =
          static_cast<double>(target - cumulative) /
          static_cast<double>(counts[b]);
      return BucketLower(b) + inside * BucketWidth(b);
    }
    cumulative += counts[b];
  }
  return BucketLower(kBuckets - 1) + BucketWidth(kBuckets - 1);
}

void Histogram::Reset() {
  for (Shard& s : shards_) {
    s.count.store(0, std::memory_order_relaxed);
    s.sum.store(0, std::memory_order_relaxed);
  }
  for (BucketShard& shard : buckets_) {
    for (size_t b = 0; b < kBuckets; ++b) {
      shard.c[b].store(0, std::memory_order_relaxed);
    }
  }
}

struct Registry::Impl {
  mutable std::mutex mutex;
  // std::map: stable iteration order (snapshots are name-sorted) and stable
  // element addresses (handed-out pointers never move).
  std::map<std::string, std::unique_ptr<Counter>> counters;
  std::map<std::string, std::unique_ptr<Histogram>> histograms;
};

Registry& Registry::Global() {
  static Registry registry;
  return registry;
}

Registry::Impl& Registry::impl() const {
  static Impl instance;
  return instance;
}

Counter* Registry::FindOrCreateCounter(const std::string& name) {
  Impl& i = impl();
  std::lock_guard<std::mutex> lock(i.mutex);
  std::unique_ptr<Counter>& slot = i.counters[name];
  if (slot == nullptr) slot = std::make_unique<Counter>();
  return slot.get();
}

Histogram* Registry::FindOrCreateHistogram(const std::string& name) {
  Impl& i = impl();
  std::lock_guard<std::mutex> lock(i.mutex);
  std::unique_ptr<Histogram>& slot = i.histograms[name];
  if (slot == nullptr) slot = std::make_unique<Histogram>();
  return slot.get();
}

std::vector<std::pair<std::string, const Counter*>> Registry::Counters()
    const {
  Impl& i = impl();
  std::lock_guard<std::mutex> lock(i.mutex);
  std::vector<std::pair<std::string, const Counter*>> out;
  out.reserve(i.counters.size());
  for (const auto& [name, counter] : i.counters) {
    out.emplace_back(name, counter.get());
  }
  return out;
}

std::vector<std::pair<std::string, const Histogram*>> Registry::Histograms()
    const {
  Impl& i = impl();
  std::lock_guard<std::mutex> lock(i.mutex);
  std::vector<std::pair<std::string, const Histogram*>> out;
  out.reserve(i.histograms.size());
  for (const auto& [name, histogram] : i.histograms) {
    out.emplace_back(name, histogram.get());
  }
  return out;
}

void Registry::ResetAllForTest() {
  Impl& i = impl();
  std::lock_guard<std::mutex> lock(i.mutex);
  for (auto& [name, counter] : i.counters) counter->Reset();
  for (auto& [name, histogram] : i.histograms) histogram->Reset();
}

}  // namespace obs
}  // namespace sofia

#endif  // SOFIA_OBS_DISABLED
