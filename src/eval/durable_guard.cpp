#include "eval/durable_guard.hpp"

#include <dirent.h>
#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <sstream>
#include <utility>

#include "obs/obs.hpp"
#include "util/check.hpp"
#include "util/fault_injection.hpp"
#include "util/state_io.hpp"

namespace sofia {

namespace {

/// Registry mirrors of DurabilityTelemetry (the struct stays as the
/// per-run compatibility view).
struct DurableMetrics {
  obs::Counter* steps;
  obs::Counter* journal_appends;
  obs::Counter* journal_bytes;
  obs::Counter* journal_failures;
  obs::Counter* snapshots_written;
  obs::Counter* snapshot_failures;
  obs::Counter* snapshot_time_us;
  obs::Histogram* snapshot_us;
};

DurableMetrics& Dm() {
  obs::Registry& r = obs::Registry::Global();
  static DurableMetrics m{
      r.FindOrCreateCounter("durable.steps"),
      r.FindOrCreateCounter("durable.journal_appends"),
      r.FindOrCreateCounter("durable.journal_bytes"),
      r.FindOrCreateCounter("durable.journal_failures"),
      r.FindOrCreateCounter("durable.snapshots_written"),
      r.FindOrCreateCounter("durable.snapshot_failures"),
      r.FindOrCreateCounter("time.durable.snapshot_us"),
      r.FindOrCreateHistogram("durable.snapshot_us"),
  };
  return m;
}

}  // namespace

DurableGuard::DurableGuard(std::unique_ptr<StreamingMethod> inner,
                           DurableGuardOptions options)
    : inner_(std::move(inner)),
      options_(std::move(options)),
      snapshots_(options_.state_dir, "snap",
                 durable::SnapshotOptions{options_.generations, 1,
                                          options_.retry}) {
  SOFIA_CHECK(!options_.state_dir.empty())
      << "DurableGuard needs a state_dir";
  SOFIA_CHECK(inner_->SupportsStateCheckpoint())
      << inner_->name() << " cannot be made durable without checkpoints";
  durable::EnsureDir(options_.state_dir);
}

std::string DurableGuard::SegmentPath(uint64_t seq) const {
  return options_.state_dir + "/wal-" + std::to_string(seq) + ".slices";
}

void DurableGuard::MarkJournalLost() {
  journal_lost_ = true;
  ++telemetry_.journal_failures;
  Dm().journal_failures->Add(1);
}

void DurableGuard::RotateJournal(uint64_t seq) {
  journal_.Close();
  if (!options_.journal) return;  // Snapshot-only mode: no segments.
  if (slice_shape_.order() == 0) return;  // No slice seen yet; no segment.
  if (journal_.Create(SegmentPath(seq), slice_shape_, seq)) {
    journal_lost_ = false;
  } else {
    MarkJournalLost();
  }
}

std::vector<uint64_t> DurableGuard::ListSegments() const {
  std::vector<uint64_t> out;
  DIR* dir = ::opendir(options_.state_dir.c_str());
  if (dir == nullptr) return out;
  const std::string prefix = "wal-";
  const std::string suffix = ".slices";
  while (struct dirent* entry = ::readdir(dir)) {
    const std::string name = entry->d_name;
    if (name.size() <= prefix.size() + suffix.size()) continue;
    if (name.compare(0, prefix.size(), prefix) != 0) continue;
    if (name.compare(name.size() - suffix.size(), suffix.size(), suffix) !=
        0) {
      continue;
    }
    const std::string digits = name.substr(
        prefix.size(), name.size() - prefix.size() - suffix.size());
    if (digits.empty() ||
        digits.find_first_not_of("0123456789") != std::string::npos) {
      continue;
    }
    out.push_back(std::strtoull(digits.c_str(), nullptr, 10));
  }
  ::closedir(dir);
  std::sort(out.begin(), out.end());
  return out;
}

void DurableGuard::PruneSegments() {
  // A segment is needed as long as some retained snapshot might replay
  // through it: keep every segment >= the oldest snapshot generation.
  const std::vector<uint64_t> gens = snapshots_.ListGenerations();
  if (gens.empty()) return;
  for (const uint64_t seq : ListSegments()) {
    if (seq < gens.front()) ::unlink(SegmentPath(seq).c_str());
  }
}

void DurableGuard::TakeSnapshot() {
  std::ostringstream out;
  out << step_ << '\n';
  inner_->SaveState(out);
  const std::string payload = out.str();
  const uint64_t seq = next_seq_++;
  steps_since_snapshot_ = 0;
  // Group-commit point: everything journaled so far becomes durable
  // before the snapshot that supersedes it lands.
  if (journal_.is_open() && !journal_.Sync()) MarkJournalLost();
  const bool measured = obs::Enabled() || obs::TraceActive();
  const uint64_t start = measured ? obs::NowNs() : 0;
  const durable::IoStatus status = snapshots_.Write(seq, payload);
  if (measured) {
    const uint64_t dur = obs::NowNs() - start;
    Dm().snapshot_time_us->Add(dur / 1000);
    Dm().snapshot_us->Observe(static_cast<double>(dur) / 1e3);
    if (obs::TraceActive()) {
      obs::TraceRecord("durable.snapshot", start, dur, payload.size(),
                       "bytes");
    }
  }
  if (status != durable::IoStatus::kOk) {
    // Fail-soft: older generations remain, and the journal keeps
    // accumulating into the *current* segment so they can still replay.
    ++telemetry_.snapshot_failures;
    Dm().snapshot_failures->Add(1);
    return;
  }
  ++telemetry_.snapshots_written;
  Dm().snapshots_written->Add(1);
  RotateJournal(seq);
  PruneSegments();
}

void DurableGuard::JournalSlice(const DenseTensor& decoded,
                                const Mask& omega, const CooList* pattern) {
  if (!options_.journal) return;
  if (journal_lost_) {
    ++telemetry_.journal_failures;
    Dm().journal_failures->Add(1);
    return;
  }
  if (pattern != nullptr) {
    const std::vector<size_t>& indices = pattern->LinearIndices();
    slicefmt::EncodeRecord(step_, decoded, indices.data(), indices.size(),
                           &encode_buf_);
  } else {
    slicefmt::EncodeRecord(step_, decoded, omega, &encode_buf_);
  }
  ++telemetry_.journal_appends;
  telemetry_.journal_bytes += encode_buf_.size();
  Dm().journal_appends->Add(1);
  Dm().journal_bytes->Add(encode_buf_.size());
  if (!journal_.is_open() || !journal_.AppendEncoded(encode_buf_) ||
      (options_.sync_each_append && !journal_.Sync())) {
    MarkJournalLost();
  }
}

bool DurableGuard::BeginSlice(const DenseTensor& y, const Mask& omega,
                              const CooList* pattern) {
  const bool consistent =
      omega.shape() == y.shape() &&
      (pattern == nullptr || pattern->shape() == y.shape());
  if (slice_shape_.order() == 0) {
    // Only a consistent slice fixes the segment's shape. Before one
    // arrives there is no segment and no snapshot: the first consistent
    // slice takes the pristine one below, capturing whatever the inner
    // method made of the slices before it.
    if (!consistent) return false;
    slice_shape_ = y.shape();
  }
  // Init-less methods skip Initialize: write the pristine baseline
  // generation before the first slice, for the same reason as there.
  if (next_seq_ == 0) TakeSnapshot();
  const bool shape_ok = consistent && y.shape() == slice_shape_;
  // A slice the segment cannot hold is journaled as an empty record at its
  // step. The segment's shape is fixed, so a guarded inner method has fixed
  // it too: it rejects both forms as input faults and only advances its
  // clock, so the replay matches the live stack.
  if (!shape_ok) {
    const CooList no_entries;
    JournalSlice(y, omega, &no_entries);
  }
  return shape_ok;
}

void DurableGuard::EndSlice() {
  ++step_;
  ++telemetry_.steps;
  Dm().steps->Add(1);
  // No cadence before the segment's shape is fixed (see BeginSlice).
  if (options_.snapshot_every > 0 && slice_shape_.order() != 0 &&
      ++steps_since_snapshot_ >= options_.snapshot_every) {
    TakeSnapshot();
  }
}

std::vector<DenseTensor> DurableGuard::Initialize(
    const std::vector<DenseTensor>& slices, const std::vector<Mask>& masks) {
  SOFIA_CHECK(!slices.empty());
  slice_shape_ = slices[0].shape();
  std::vector<DenseTensor> out = inner_->Initialize(slices, masks);
  // Baseline generation: recovery needs the post-init state even when the
  // process dies before the first cadence snapshot.
  TakeSnapshot();
  return out;
}

StepResult DurableGuard::StepLazy(const DenseTensor& y, const Mask& omega,
                                  std::shared_ptr<const CooList> pattern) {
  StepResult result;
  if (!BeginSlice(y, omega, pattern.get())) {
    // The slice as given: the inner guard takes its shape trip.
    result = inner_->StepLazy(y, omega, std::move(pattern));
  } else {
    // The journal stores — and the inner method consumes — the canonical
    // decoded form: observed entries only, zero elsewhere. Live and
    // replayed runs therefore feed the model byte-identical inputs even if
    // a method peeks at unobserved entries.
    const DenseTensor decoded = omega.Apply(y);
    JournalSlice(decoded, omega, pattern.get());
    result = inner_->StepLazy(decoded, omega, std::move(pattern));
  }
  EndSlice();
  return result;
}

void DurableGuard::Observe(const DenseTensor& y, const Mask& omega) {
  if (!BeginSlice(y, omega, nullptr)) {
    inner_->Observe(y, omega);
  } else {
    const DenseTensor decoded = omega.Apply(y);
    JournalSlice(decoded, omega, nullptr);
    inner_->Observe(decoded, omega);
  }
  EndSlice();
}

void DurableGuard::Drain() {
  if (journal_.is_open() && !journal_.Sync()) MarkJournalLost();
}

RecoveryReport DurableGuard::Recover() {
  SOFIA_CHECK(step_ == 0 && next_seq_ == 0)
      << "Recover must run on a fresh guard, before any step";
  RecoveryReport report;

  // --- 1. Newest snapshot whose frame AND payload both validate ---------
  const std::vector<uint64_t> gens = snapshots_.ListGenerations();
  for (auto it = gens.rbegin(); it != gens.rend(); ++it) {
    std::string payload;
    if (durable::ReadFramedFile(snapshots_.GenerationPath(*it), &payload) !=
        durable::IoStatus::kOk) {
      ++report.skipped_generations;  // Torn or bit-rotted frame.
      continue;
    }
    std::istringstream in(payload);
    uint64_t saved_step = 0;
    if (!(in >> saved_step)) {
      ++report.skipped_generations;
      continue;
    }
    try {
      inner_->RestoreState(in);
    } catch (const state_io::StateError&) {
      // CRC-valid frame, corrupt state (e.g. flipped bit pre-framing):
      // fall back to the next-older generation, which re-assigns every
      // field and erases any partial parse.
      ++report.skipped_generations;
      continue;
    }
    report.restored = true;
    report.snapshot_seq = *it;
    report.snapshot_step = saved_step;
    step_ = saved_step;
    break;
  }
  if (!report.restored) {
    // Nothing usable on disk: the caller streams from scratch. Journal
    // segments (if any) are useless without their base state — leave them
    // for the first snapshot's prune.
    report.resume_step = 0;
    return report;
  }

  // --- 2. Replay the journal tail in step order --------------------------
  // Segments >= the restored generation can hold steps at/after the
  // snapshot — including newer segments when we fell back past a corrupt
  // newest snapshot. Expected-step chaining skips the overlap and stops at
  // the first gap or torn record; nothing after a torn record is trusted.
  uint64_t expected = report.snapshot_step;
  bool stop = false;
  DenseTensor slice;  // Decoded in place record after record.
  Mask mask;
  for (const uint64_t seq : ListSegments()) {
    if (stop || seq < report.snapshot_seq) continue;
    slicefmt::SliceFileReader reader;
    if (!reader.Open(SegmentPath(seq))) {
      report.journal_truncated = true;
      break;
    }
    if (slice_shape_.order() == 0) slice_shape_ = reader.slice_shape();
    for (size_t i = 0; i < reader.num_records(); ++i) {
      const uint64_t record_step = reader.record(i).step;
      if (record_step < expected) continue;  // Pre-snapshot overlap.
      if (record_step > expected) {          // Gap: lost record(s).
        report.journal_truncated = true;
        stop = true;
        break;
      }
      if (fault::Enabled()) {
        const fault::Decision decision = fault::OnIo("recover.replay", 0);
        if (decision.crash) fault::Crash("recover.replay");
      }
      reader.Decode(i, &slice, &mask);
      inner_->StepLazy(slice, mask);
      ++expected;
      ++report.replayed_records;
    }
    if (reader.truncated()) {
      report.journal_truncated = true;
      stop = true;
    }
  }
  step_ = expected;
  report.resume_step = expected;
  telemetry_.steps = expected;

  // --- 3. Fresh consistency point ---------------------------------------
  // Never append to an old (possibly torn) segment: write a new snapshot
  // and start a clean segment past every existing generation. A crash
  // anywhere above re-runs against unchanged files (idempotent); a crash
  // in here leaves the restored snapshot + journal intact.
  uint64_t max_seq = gens.empty() ? 0 : gens.back();
  const std::vector<uint64_t> segments = ListSegments();
  if (!segments.empty()) max_seq = std::max(max_seq, segments.back());
  next_seq_ = max_seq + 1;
  TakeSnapshot();
  return report;
}

}  // namespace sofia
