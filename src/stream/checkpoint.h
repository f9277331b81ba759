// Copyright 2026 The gkmeans Authors.
// Versioned binary checkpointing for the streaming subsystem: the whole
// StreamingGkMeans state — ingested vectors, online KNN graph, labels,
// composite-vector statistics, drift baseline, stream cursor, RNG, the
// adaptive-seed policy and the deletion/TTL bookkeeping — round-trips
// through one file, so a serving process can restart mid-stream and
// continue bit-for-bit as if never interrupted.
//
// Two persistence modes share the format:
//
//  - Full snapshots ("GKMC", version 6): one self-contained file.
//    docs/checkpoint-format.md documents the authoritative layout and
//    compatibility rules. Every model writes v6; v2-v5 files still load
//    (read-only).
//  - Incremental (delta) checkpoints: a full base snapshot plus an
//    append-only journal ("GKMD") of the stream inputs since the base —
//    per-window ingest records, explicit removals, and optional state
//    digests. Because the model is a pure function of its input sequence,
//    replaying the journal over the base reconstructs the exact state a
//    full snapshot would have stored, at O(window) rather than O(corpus)
//    bytes per checkpoint. StreamDeltaLog::Compact folds the journal back
//    into a fresh base.
//
// Per-window history (diagnostics only) is intentionally not persisted.

#ifndef GKM_STREAM_CHECKPOINT_H_
#define GKM_STREAM_CHECKPOINT_H_

#include <optional>
#include <string>

#include "common/binary_io.h"
#include "stream/streaming_gkmeans.h"

namespace gkm {

/// Writes `model`'s full state to `path`. Aborts on I/O failure.
void SaveStreamCheckpoint(const std::string& path,
                          const StreamingGkMeans& model);

/// Restores a model from `path`. Aborts on any malformed input (missing
/// file, bad magic, unsupported version, invalid params) with the same
/// diagnostic TryLoadStreamCheckpoint would report.
StreamingGkMeans LoadStreamCheckpoint(const std::string& path);

/// Non-aborting load: returns std::nullopt with a diagnostic in `*error`
/// (when non-null) on ANY malformed input — truncation anywhere in the
/// file, size fields that exceed the bytes actually present (checked
/// before every allocation, via io::Reader), implausible headers, and
/// deep payload corruption (invalid graph edges, label/liveness
/// violations — the same ValidateStreamSnapshot gate the constructors
/// abort through). The fuzz harness fuzz/fuzz_gkmc_load.cc holds this
/// function to that contract.
std::optional<StreamingGkMeans> TryLoadStreamCheckpoint(
    const std::string& path, std::string* error = nullptr);

/// Stream variant of the above, reading the checkpoint from an already
/// opened seekable stream (regular file or fmemopen buffer) positioned at
/// the start of the GKMC block. Consumes through the trailer.
std::optional<StreamingGkMeans> TryLoadStreamCheckpoint(
    std::FILE* file, std::string* error = nullptr);

/// Auto-compaction policy for StreamDeltaLog::MaybeCompact. Either trigger
/// set to its zero value is disabled; with both disabled MaybeCompact is a
/// no-op and compaction stays fully manual.
struct DeltaCompactionPolicy {
  /// Size trigger: compact once journal bytes exceed this fraction of the
  /// base snapshot's bytes (e.g. 0.5 folds when the journal reaches half
  /// the base — past that, replay I/O approaches just rewriting the base).
  double max_journal_fraction = 0.0;
  /// Replay-cost trigger: compact once more than this many 'W' window
  /// records would need replaying at resume. Windows dominate replay cost
  /// (each is a full ObserveWindow), so the budget bounds restart latency
  /// to roughly max_replay_windows times the per-window ingest cost.
  std::size_t max_replay_windows = 0;
};

/// Append-only delta journal anchored at a full base snapshot. Usage, on
/// the ingest thread that owns the model:
///
///   StreamDeltaLog log(base, delta, model);     // writes base + header
///   log.SetAutoCompaction({0.5, 256});          // optional policy
///   for each window w:
///     log.AppendWindow(w);                      // journal first...
///     model.ObserveWindow(w);                   // ...then apply
///     log.MaybeCompact(model);                  // policy-driven fold
///   log.AppendRemoval(id); model.RemovePoint(id);   // explicit deletes
///   log.AppendStateCheck(model);                // optional digest record
///   if (log too long) log.Compact(model);       // manual fold
///
/// Journal before apply: a crash between the two replays one extra input,
/// which is idempotent for the resume path only if the caller re-feeds
/// from its own durable source — otherwise accept that the resumed model
/// is one input ahead of the crashed one. TTL expiry needs no records: it
/// replays deterministically from the base's birth windows and cursor.
///
/// ResumeStreamCheckpoint(base, delta) rebuilds the model by loading the
/// base and replaying the journal; the result is bit-identical to the
/// full snapshot a non-delta checkpoint would have produced at the same
/// point (tests/checkpoint_test.cc pins this byte-for-byte).
class StreamDeltaLog {
 public:
  /// Writes a fresh base snapshot of `model` to `base_path` and starts an
  /// empty journal at `delta_path` (truncating any previous one). The
  /// journal header embeds a hash of the base file, so a mismatched
  /// base/delta pair is rejected at resume instead of replaying onto the
  /// wrong state.
  StreamDeltaLog(std::string base_path, std::string delta_path,
                 const StreamingGkMeans& model);

  /// Journals one ingest window (record 'W'). Flushed before returning.
  void AppendWindow(const Matrix& window);

  /// Journals one explicit removal (record 'R'). Flushed before returning.
  void AppendRemoval(std::uint32_t id);

  /// Journals a digest of `model`'s cluster statistics and labels (record
  /// 'C'). Replay recomputes the digest at the same point and fails the
  /// resume on mismatch — a cheap tripwire for determinism bugs and
  /// journal/model divergence. O(k*dim + n) to compute, 8 bytes on disk.
  void AppendStateCheck(const StreamingGkMeans& model);

  /// Folds the journal into the base: rewrites `base_path` from `model`
  /// (which must reflect every journaled record) and truncates the
  /// journal to empty. Bounds replay cost after long uptimes.
  void Compact(const StreamingGkMeans& model);

  /// Installs (or replaces) the auto-compaction policy consulted by
  /// MaybeCompact. Default: both triggers disabled.
  void SetAutoCompaction(const DeltaCompactionPolicy& policy) {
    policy_ = policy;
  }

  /// Runs Compact(model) when the installed policy says so; returns
  /// whether it did. Call *after* applying the journaled input to `model`
  /// — Compact snapshots the model, so folding between AppendWindow and
  /// ObserveWindow would anchor a base that silently drops the in-flight
  /// window.
  bool MaybeCompact(const StreamingGkMeans& model);

  /// Journal bytes written since the current base (header included).
  std::size_t journal_bytes() const { return journal_bytes_; }
  /// Size of the current base snapshot file.
  std::size_t base_bytes() const { return base_bytes_; }
  /// 'W' records in the journal — the replay cost in windows.
  std::size_t replay_windows() const { return replay_windows_; }

 private:
  void StartJournal(const StreamingGkMeans& model);

  std::string base_path_;
  std::string delta_path_;
  io::File f_;
  DeltaCompactionPolicy policy_;
  std::size_t base_bytes_ = 0;
  std::size_t journal_bytes_ = 0;
  std::size_t replay_windows_ = 0;
};

/// Rebuilds a model from a base snapshot plus its delta journal. A missing
/// or empty journal resumes from the base alone. Aborts on malformed input
/// with the diagnostic TryResumeStreamCheckpoint would report.
StreamingGkMeans ResumeStreamCheckpoint(const std::string& base_path,
                                        const std::string& delta_path);

/// Non-aborting resume: reports unreadable bases, header/base mismatches,
/// unknown record tags, digest failures, and — as with
/// TryLoadStreamCheckpoint — truncation or size-field lies anywhere in
/// either file, through `*error`. A journal cut mid-record is a clean
/// error, not an abort (fuzz/fuzz_gkmd_replay.cc holds it to that).
std::optional<StreamingGkMeans> TryResumeStreamCheckpoint(
    const std::string& base_path, const std::string& delta_path,
    std::string* error = nullptr);

/// Stream variant: replays an already opened journal over the base at
/// `base_path`. Unlike the path overload there is no missing-journal
/// fallback — `journal` must be a valid open stream.
std::optional<StreamingGkMeans> TryResumeStreamCheckpoint(
    const std::string& base_path, std::FILE* journal,
    std::string* error = nullptr);

}  // namespace gkm

#endif  // GKM_STREAM_CHECKPOINT_H_
