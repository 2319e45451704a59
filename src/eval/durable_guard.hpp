#ifndef SOFIA_EVAL_DURABLE_GUARD_H_
#define SOFIA_EVAL_DURABLE_GUARD_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "data/slice_format.hpp"
#include "eval/streaming_method.hpp"
#include "util/durable_io.hpp"

/// \file durable_guard.hpp
/// \brief Crash-consistent persistence wrapper for streaming methods.
///
/// StreamGuard (eval/stream_guard.hpp) keeps a method healthy *within* a
/// process; DurableGuard keeps it alive *across* processes. It wraps any
/// StreamingMethod (typically an already-guarded one) with the classic
/// WAL + snapshot protocol:
///
///  1. **Write-ahead slice journal.** Every ingested slice is appended to
///     the current journal segment (`wal-<seq>.slices`, data/slice_format)
///     before the inner method consumes it: the record is written before
///     the inner step starts.
///  2. **Atomic snapshots.** Every `snapshot_every` accepted steps (and
///     once right after Initialize) the inner state is serialized and
///     written through durable::SnapshotStore — write-temp/fsync/rename,
///     rotated generations. Each snapshot `seq` then opens a fresh journal
///     segment `wal-<seq>`, so a segment always holds exactly the steps
///     after the snapshot it is named for.
///  3. **Recovery = newest valid snapshot + journal tail.** Recover() walks
///     snapshot generations newest-first, skipping corrupt frames AND
///     frames whose payload fails RestoreState (state_io::StateError), then
///     replays journal records in step order, stopping at the first torn
///     record or step gap. Because the journal stores the canonical decoded
///     slice (observed entries only, zero elsewhere) and the live path
///     feeds the inner method that same decoded form, a recovered run is
///     bitwise identical to one that never crashed. Recovery ends by
///     writing a *fresh* snapshot + segment — it never appends to a torn
///     file — which makes a crash during recovery itself re-recoverable.
///
/// Every write and fsync runs on the calling thread. A SimulatedCrash
/// (util/fault_injection) therefore leaves the call that made the write
/// (Initialize, StepLazy, Observe, Recover or Drain): the process "dies"
/// where main() would have seen it. Real IO errors degrade: a failed
/// journal append or fsync stops the journal (journal_failures in
/// telemetry) but the stream continues, and the next snapshot that lands
/// re-establishes durability.

namespace sofia {

struct DurableGuardOptions {
  std::string state_dir;       ///< Directory for snapshots + journal.
  size_t snapshot_every = 16;  ///< Steps between snapshots (0 = only init).
  size_t generations = 3;      ///< Snapshot generations retained.
  /// Write-ahead journal every slice. Off = snapshots only: recovery then
  /// loses the (up to snapshot_every - 1) steps after the last snapshot.
  bool journal = true;
  bool sync_each_append = false;  ///< fsync the journal after every record.
  durable::RetryPolicy retry;  ///< Transient-error policy for snapshots.
};

/// Counters of one durable run.
struct DurableTelemetry {
  uint64_t steps = 0;              ///< Slices ingested through the guard.
  uint64_t journal_appends = 0;    ///< Records shipped to the journal.
  uint64_t journal_bytes = 0;      ///< Encoded bytes shipped.
  uint64_t journal_failures = 0;   ///< Appends lost to IO errors.
  uint64_t snapshots_written = 0;  ///< Snapshot generations that landed.
  uint64_t snapshot_failures = 0;  ///< Snapshot writes that exhausted retry.
};

/// What Recover() found and did.
struct RecoveryReport {
  bool restored = false;        ///< A snapshot was loaded into the method.
  uint64_t snapshot_seq = 0;    ///< Generation restored from.
  uint64_t snapshot_step = 0;   ///< Stream step the snapshot captured.
  uint64_t resume_step = 0;     ///< First step the driver must feed next.
  size_t replayed_records = 0;  ///< Journal records re-consumed.
  size_t skipped_generations = 0;  ///< Corrupt/unreadable snapshots passed.
  bool journal_truncated = false;  ///< A torn/invalid tail was dropped.
};

class DurableGuard : public StreamingMethod {
 public:
  DurableGuard(std::unique_ptr<StreamingMethod> inner,
               DurableGuardOptions options);

  std::string name() const override { return inner_->name() + "+durable"; }
  size_t init_window() const override { return inner_->init_window(); }

  /// Forwards to the inner method, then takes the initial snapshot (seq 0)
  /// and opens the first journal segment.
  std::vector<DenseTensor> Initialize(
      const std::vector<DenseTensor>& slices,
      const std::vector<Mask>& masks) override;

  /// Journal-then-step: appends the canonical decoded slice to the WAL,
  /// feeds the same decoded slice to the inner method, and snapshots on
  /// cadence. The record is encoded from the indices of `pattern` when one
  /// is handed in (and passed down), else from the mask, with null passed
  /// down so the inner method builds or reuses its own. A slice whose
  /// tensor, mask or pattern does not have the segment's shape is
  /// journaled as an empty record and handed to the inner method as given
  /// (a StreamGuard rejects it).
  StepResult StepLazy(const DenseTensor& y, const Mask& omega,
                      std::shared_ptr<const CooList> pattern =
                          nullptr) override;
  void Observe(const DenseTensor& y, const Mask& omega) override;

  bool SupportsForecast() const override {
    return inner_->SupportsForecast();
  }
  StepResult ForecastLazy(size_t h) const override {
    return inner_->ForecastLazy(h);
  }
  bool SupportsStateCheckpoint() const override {
    return inner_->SupportsStateCheckpoint();
  }
  void SaveState(std::ostream& out) const override {
    inner_->SaveState(out);
  }
  void RestoreState(std::istream& in) override { inner_->RestoreState(in); }
  void AdoptWorkerPool(std::shared_ptr<WorkerPool> pool) override {
    inner_->AdoptWorkerPool(std::move(pool));
  }

  /// Restores from disk: newest usable snapshot + journal replay (see file
  /// comment). Must run on a freshly constructed guard (same inner
  /// configuration) before any Initialize/Step. After Recover() the driver
  /// resumes feeding slices from report.resume_step. When nothing usable
  /// is on disk, returns restored=false and the caller runs from scratch.
  RecoveryReport Recover();

  /// fsyncs the journal (a consistency point the kill-matrix uses before
  /// ripping the "power" out). A failed fsync counts as a lost journal.
  void Drain();

  const DurableTelemetry& telemetry() const { return telemetry_; }
  const StreamingMethod& inner() const { return *inner_; }
  const DurableGuardOptions& options() const { return options_; }
  /// Path of journal segment `seq` (test introspection).
  std::string SegmentPath(uint64_t seq) const;

 private:
  /// Serializes inner state (+ step counter), fsyncs the journal (group
  /// commit) and writes snapshot `seq`, then rotates the journal to
  /// segment `seq`.
  void TakeSnapshot();
  /// Opens journal segment `seq`, closing the previous one.
  void RotateJournal(uint64_t seq);
  /// Deletes journal segments older than the retained snapshot window.
  void PruneSegments();
  /// Flags the current segment dead and counts the loss.
  void MarkJournalLost();
  /// Journal segments on disk, ascending seq.
  std::vector<uint64_t> ListSegments() const;
  /// Encodes the record of `decoded` at the current step, its entries at
  /// the indices of `pattern` or, when that is null, at the observed
  /// entries of `omega`, and ships it to the journal.
  void JournalSlice(const DenseTensor& decoded, const Mask& omega,
                    const CooList* pattern);
  /// Shared head of StepLazy/Observe: takes the pristine snapshot and
  /// checks the slice against the segment's shape.
  /// Returns false for a slice whose tensor, mask or pattern has another
  /// shape, after journaling an empty record once the segment's shape is
  /// fixed (before that, nothing is journaled).
  bool BeginSlice(const DenseTensor& y, const Mask& omega,
                  const CooList* pattern);
  /// Shared tail: advances the step and snapshots on cadence.
  void EndSlice();

  std::unique_ptr<StreamingMethod> inner_;
  DurableGuardOptions options_;
  DurableTelemetry telemetry_;
  durable::SnapshotStore snapshots_;
  slicefmt::SliceFileWriter journal_;
  bool journal_lost_ = false;  ///< IO error stopped the current segment.

  Shape slice_shape_;       ///< Locked in by Initialize/first slice.
  uint64_t step_ = 0;       ///< Stream steps consumed (init window excluded).
  uint64_t next_seq_ = 0;   ///< Next snapshot generation number.
  size_t steps_since_snapshot_ = 0;

  std::string encode_buf_;  ///< EncodeRecord output, reused per record.
};

}  // namespace sofia

#endif  // SOFIA_EVAL_DURABLE_GUARD_H_
