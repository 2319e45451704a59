#ifndef SOFIA_UTIL_DURABLE_IO_H_
#define SOFIA_UTIL_DURABLE_IO_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

/// \file durable_io.hpp
/// \brief Crash-atomic file primitives under the durability layer.
///
/// A long-running ingest daemon outlives any single process: its model
/// state must survive crashes, OOM kills, and node restarts. This module
/// provides the two disk primitives the durable layer
/// (eval/durable_guard.hpp) is built on:
///
///  - WriteFileAtomic: payload framed by a versioned, CRC32-checked binary
///    header, written to `<path>.tmp`, fsync'd, renamed over `path`, parent
///    directory fsync'd. A crash at ANY point leaves either the complete
///    old file or the complete new file — never a torn mix — and a torn
///    tmp or bit-rotted final file is detected by size/CRC on read.
///    Transient IO errors (EIO, ENOSPC) are retried under jittered
///    exponential backoff before the write is reported failed.
///
///  - SnapshotStore: WriteFileAtomic rotated across N numbered generations
///    (`<base>-<seq>.snap`), pruning the oldest past the retention window.
///    LoadNewest walks generations newest-first and *skips* corrupt or
///    torn files instead of failing — the fail-soft path the recovery
///    protocol leans on when the newest snapshot died with the process
///    that was writing it.
///
/// Every IO syscall consults the fault-injection hooks
/// (util/fault_injection.hpp) first, which is how the kill-and-recover
/// test matrix drives crashes, torn writes, and transient errors into
/// every site deterministically.

namespace sofia {
namespace durable {

/// CRC-32 (IEEE 802.3, reflected) of `size` bytes. `seed` chains
/// incremental updates: Crc32(b, n2, Crc32(a, n1)) == Crc32(a+b, n1+n2).
/// On x86-64 CPUs with PCLMULQDQ (checked once per process) the whole
/// 16-byte blocks of inputs of at least 64 bytes fold by carry-less
/// multiplication; the tail, shorter inputs and other builds run
/// table-driven slicing-by-8 (8 bytes per step, bytewise tail, 0.6
/// ns/byte). Every journal record, snapshot frame and slice-file open runs
/// through it. The checksum is the standard one, so files written by
/// earlier builds still validate.
uint32_t Crc32(const void* data, size_t size, uint32_t seed = 0);

/// The path Crc32 takes for inputs of 64 bytes or more: "pclmul" or
/// "slicing-by-8".
const char* Crc32Path();

enum class IoStatus {
  kOk,
  kNotFound,  ///< No file (or no generation) to read.
  kCorrupt,   ///< Frame present but size/magic/CRC validation failed.
  kIoError,   ///< Syscall failure that survived the retry budget.
};
const char* IoStatusName(IoStatus status);

/// Retry/backoff knobs for transient IO errors. Delays are exponential
/// with deterministic seeded jitter (so two retry storms do not
/// synchronize); tests set `sleep=false` to keep the schedule logic
/// exercised without wall-clock waits.
struct RetryPolicy {
  size_t max_attempts = 5;
  double base_delay_ms = 1.0;   ///< First retry delay (doubles per attempt).
  double max_delay_ms = 100.0;  ///< Backoff ceiling.
  uint64_t jitter_seed = 0x5eed;
  bool sleep = true;
};

/// Counters of one store/writer (all monotone; snapshots of cheap values).
struct IoTelemetry {
  uint64_t writes = 0;          ///< Atomic writes attempted.
  uint64_t write_retries = 0;   ///< Extra attempts consumed by backoff.
  uint64_t write_failures = 0;  ///< Writes that exhausted the retry budget.
  uint64_t reads = 0;           ///< Framed reads attempted.
  uint64_t corrupt_reads = 0;   ///< Reads rejected by size/magic/CRC.
  uint64_t bytes_written = 0;   ///< Payload bytes durably written.
};

/// Creates `path` (and missing parents) as directories. Returns false on
/// failure (other than already existing).
bool EnsureDir(const std::string& path);

/// Writes `payload` to `path` crash-atomically (see file comment).
/// `version` is stored in the frame and returned by ReadFramedFile.
/// `telemetry` may be null.
IoStatus WriteFileAtomic(const std::string& path, const std::string& payload,
                         uint32_t version, const RetryPolicy& retry = {},
                         IoTelemetry* telemetry = nullptr);

/// Reads and validates a WriteFileAtomic frame. On kOk fills `payload`
/// (and `version` when non-null); on kCorrupt/kNotFound leaves them
/// untouched.
IoStatus ReadFramedFile(const std::string& path, std::string* payload,
                        uint32_t* version = nullptr,
                        IoTelemetry* telemetry = nullptr);

/// Knobs for SnapshotStore (namespace scope so it can serve as a default
/// argument — nested-class member initializers cannot).
struct SnapshotOptions {
  size_t generations = 3;  ///< Files retained (>= 1).
  uint32_t version = 1;    ///< Frame version stamped on writes.
  RetryPolicy retry;
};

/// Atomic snapshot rotation across N generations.
class SnapshotStore {
 public:
  using Options = SnapshotOptions;

  /// Snapshots live at `<dir>/<base>-<seq>.snap`. The directory is created
  /// on the first write.
  SnapshotStore(std::string dir, std::string base,
                Options options = Options());

  /// Atomically writes generation `seq`, then prunes generations older
  /// than the retention window. Write failures are reported (fail-soft:
  /// the previous generations are untouched); prune failures are ignored.
  IoStatus Write(uint64_t seq, const std::string& payload);

  /// Loads the newest generation whose frame validates, skipping corrupt
  /// or torn ones (counted in telemetry().corrupt_reads). kNotFound when
  /// no generation validates.
  IoStatus LoadNewest(std::string* payload, uint64_t* seq) const;

  /// Existing generation numbers, ascending (corrupt files included —
  /// validation happens at load).
  std::vector<uint64_t> ListGenerations() const;

  std::string GenerationPath(uint64_t seq) const;
  const std::string& dir() const { return dir_; }
  const IoTelemetry& telemetry() const { return telemetry_; }

 private:
  std::string dir_;
  std::string base_;
  Options options_;
  mutable IoTelemetry telemetry_;
};

}  // namespace durable
}  // namespace sofia

#endif  // SOFIA_UTIL_DURABLE_IO_H_
