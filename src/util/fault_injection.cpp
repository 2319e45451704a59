#include "util/fault_injection.hpp"

#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <map>
#include <mutex>

namespace sofia {
namespace fault {

namespace {

/// All armed-plan state behind one mutex. Methods stepped side by side on
/// pipeline lanes can reach IO sites at the same time (each DurableGuard
/// writing its own journal), so the counters must be coherent across
/// threads.
struct PlanState {
  std::mutex mutex;
  std::vector<FaultSpec> specs;
  std::map<std::string, uint64_t> ops;  // Per-site operation counters.
  uint64_t injected = 0;
};

PlanState& State() {
  static PlanState state;
  return state;
}

/// Fast-path flag: OnIo is on every durable write, and an unarmed process
/// must not take a mutex per IO op.
std::atomic<bool> g_enabled{false};

}  // namespace

void Arm(const FaultSpec& spec) {
  PlanState& state = State();
  std::lock_guard<std::mutex> lock(state.mutex);
  state.specs.push_back(spec);
  g_enabled.store(true, std::memory_order_release);
}

void Reset() {
  PlanState& state = State();
  std::lock_guard<std::mutex> lock(state.mutex);
  state.specs.clear();
  state.ops.clear();
  state.injected = 0;
  g_enabled.store(false, std::memory_order_release);
}

bool Enabled() { return g_enabled.load(std::memory_order_acquire); }

Decision OnIo(const char* site, size_t payload_bytes) {
  Decision decision;
  if (!Enabled()) return decision;
  PlanState& state = State();
  std::lock_guard<std::mutex> lock(state.mutex);
  const uint64_t op = state.ops[site]++;
  for (const FaultSpec& spec : state.specs) {
    if (!spec.site.empty() && spec.site != site) continue;
    if (op < spec.at) continue;
    switch (spec.kind) {
      case FaultKind::kCrash:
        if (op == spec.at) {
          decision.crash = true;
          ++state.injected;
        }
        break;
      case FaultKind::kTornWrite:
        if (op == spec.at) {
          decision.torn = true;
          decision.crash = true;  // A torn write is a death mid-write.
          double fraction = spec.fraction;
          if (fraction < 0.0) fraction = 0.0;
          if (fraction > 1.0) fraction = 1.0;
          decision.torn_bytes =
              static_cast<size_t>(fraction *
                                  static_cast<double>(payload_bytes));
          ++state.injected;
        }
        break;
      case FaultKind::kIoError:
        if (op < spec.at + spec.count) {
          decision.io_error = true;
          ++state.injected;
        }
        break;
    }
  }
  return decision;
}

void Crash(const char* site) { throw SimulatedCrash{site}; }

uint64_t OpsAt(const std::string& site) {
  PlanState& state = State();
  std::lock_guard<std::mutex> lock(state.mutex);
  auto it = state.ops.find(site);
  return it == state.ops.end() ? 0 : it->second;
}

uint64_t InjectedCount() {
  PlanState& state = State();
  std::lock_guard<std::mutex> lock(state.mutex);
  return state.injected;
}

bool FlipFileBit(const std::string& path, size_t offset, unsigned bit) {
  std::FILE* f = std::fopen(path.c_str(), "r+b");
  if (f == nullptr) return false;
  unsigned char byte = 0;
  if (std::fseek(f, static_cast<long>(offset), SEEK_SET) != 0 ||
      std::fread(&byte, 1, 1, f) != 1) {
    std::fclose(f);
    return false;
  }
  byte = static_cast<unsigned char>(byte ^ (1u << (bit & 7u)));
  if (std::fseek(f, static_cast<long>(offset), SEEK_SET) != 0 ||
      std::fwrite(&byte, 1, 1, f) != 1) {
    std::fclose(f);
    return false;
  }
  std::fclose(f);
  return true;
}

bool TruncateFile(const std::string& path, size_t new_size) {
  return ::truncate(path.c_str(), static_cast<off_t>(new_size)) == 0;
}

size_t FileSize(const std::string& path) {
  struct stat st;
  if (::stat(path.c_str(), &st) != 0) return SIZE_MAX;
  return static_cast<size_t>(st.st_size);
}

}  // namespace fault
}  // namespace sofia
