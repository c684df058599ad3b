// Crash-consistent checkpoint container (docs/DURABILITY.md).
//
// On-disk layout inside a checkpoint directory:
//
//   snap-<epoch>.ckpt   one full snapshot: kSnapshotHeader, typed state
//                       records, kSnapshotFooter — streamed to a .tmp file
//                       as its records close, fsync'd, then atomically
//                       renamed into place
//   MANIFEST.log        append-only log of kManifestEntry records, one per
//                       committed snapshot (epoch, snapshot size + CRC,
//                       watermark), each appended with a single write and
//                       fsync'd
//
// Torn-write tolerance: a crash anywhere inside Commit() leaves either (a)
// a stray .tmp file no manifest entry references, (b) a renamed snapshot
// without its manifest entry, or (c) a partially appended manifest record.
// The reader truncates the manifest at the first bad CRC and walks entries
// newest to oldest, taking the first snapshot whose size, CRC, and record
// structure all validate — so a kill inside the checkpoint write falls back
// to the previous epoch instead of failing. The last two snapshots are
// retained: each commit removes the one two epochs back, and a writer's
// first write sweeps older ones a crash left behind.
//
// Deterministic crash injection for the kill-matrix harness
// (tools/crash_harness.py): when STREAMGPU_DURABLE_CRASH_AT is set to
// "<point>:<ordinal>", the writer's ordinal-th Commit() aborts the process
// (exit code 42) at the named point — "snapshot-partial" (half the .tmp
// bytes written), "pre-rename" (.tmp complete, not renamed), "pre-manifest"
// (snapshot renamed, no manifest entry), "manifest-partial" (half the
// manifest record appended).

#ifndef STREAMGPU_DURABLE_CHECKPOINT_H_
#define STREAMGPU_DURABLE_CHECKPOINT_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/timer.h"
#include "core/status.h"
#include "durable/record_log.h"
#include "obs/metrics.h"
#include "obs/observability.h"

namespace streamgpu::durable {

/// Manifest file name inside a checkpoint directory.
inline constexpr const char* kManifestName = "MANIFEST.log";

/// One parsed manifest entry.
struct ManifestEntry {
  std::uint64_t epoch = 0;
  std::uint64_t snapshot_size = 0;
  std::uint32_t snapshot_crc = 0;
  std::uint64_t watermark = 0;
};

/// Pending snapshot bytes at which EndRecord() writes the closed records to
/// the epoch's .tmp file: the writer holds at most this much plus one record.
inline constexpr std::size_t kSnapshotFlushBytes = std::size_t{256} << 10;

/// A record with owned payload storage (outlives the file buffer).
struct OwnedRecord {
  RecordType type = RecordType::kSnapshotHeader;
  std::vector<std::uint8_t> payload;
};

/// One fully validated snapshot: the header and state records, in file
/// order, with the footer's accounting hoisted out.
struct Snapshot {
  std::uint64_t epoch = 0;      ///< from the manifest entry
  std::uint64_t watermark = 0;  ///< elements covered (from the footer)
  std::vector<OwnedRecord> records;  ///< kSnapshotHeader first; no footer
};

/// Encodes snapshots record by record into one reused buffer, streams the
/// closed records to the epoch's .tmp file once kSnapshotFlushBytes are
/// pending, and commits with the torn-write protocol above. Single-threaded:
/// the owner serializes Begin, the record calls and Commit (estimators
/// checkpoint from the ingest thread at batch boundaries, the service under
/// its registration lock after WaitIdle()).
class CheckpointWriter {
 public:
  /// `dir` is created on the first write if missing.
  explicit CheckpointWriter(std::string dir);

  /// Closes the pending snapshot's .tmp file and removes it if it was never
  /// renamed into place.
  ~CheckpointWriter();

  CheckpointWriter(const CheckpointWriter&) = delete;
  CheckpointWriter& operator=(const CheckpointWriter&) = delete;

  /// Optional metrics/flight sinks (durable.* metrics, checkpoint events).
  void SetObservability(obs::Observability obs) { obs_ = obs; }

  /// Starts a new snapshot, discarding any uncommitted records and the
  /// .tmp file they were streamed to.
  void Begin();

  /// Opens one state record of `type` in the pending snapshot and returns
  /// the buffer its payload is appended to — the snapshot buffer itself, so
  /// the payload is encoded in place. EndRecord() closes it. The first
  /// record must be kSnapshotHeader; records do not nest.
  std::vector<std::uint8_t>* BeginRecord(RecordType type);

  /// Closes the open record: fills in its header and continues the
  /// snapshot's running CRC-32 over the framed record, so Commit never
  /// re-reads the bytes for the manifest. Once kSnapshotFlushBytes are
  /// pending, writes them to the .tmp file and starts their writeback; a
  /// failed open or write keeps them buffered for Commit, which retries and
  /// reports it.
  void EndRecord();

  /// Finalizes the pending snapshot (appends the footer), writes what is
  /// still buffered, makes it durable, appends the manifest entry, and
  /// removes the snapshot two epochs back. durable.checkpoint_seconds
  /// observes the time from the snapshot's header record to here. `watermark` is the
  /// element count the snapshot covers; it is echoed into the footer and the
  /// manifest. On error the footer comes off again and the bytes not yet
  /// written stay buffered, so a retried Commit resumes at the last offset
  /// written and commits the same snapshot. The exception is a failed fsync
  /// of the .tmp file, which may have lost bytes already written: it
  /// discards the snapshot, and Commit returns kFailedPrecondition until
  /// Begin() starts a new one.
  core::Status Commit(std::uint64_t watermark);

  const std::string& dir() const { return dir_; }

  /// Commits performed by this writer.
  std::uint64_t commits() const { return commits_; }

  /// Size in bytes of the most recently committed snapshot.
  std::uint64_t last_snapshot_bytes() const { return last_bytes_; }

 private:
  core::Status Init();  ///< creates the directory, resumes the epoch counter

  /// Frames the open record and folds it into snapshot_crc_.
  void CloseRecord();

  /// Writes buffer_ to the .tmp file at offset written_, opening the file
  /// first if needed. What cannot be written stays in buffer_.
  core::Status WriteBuffered();

  /// Closes the .tmp file, removing it unless it was renamed into place.
  void DiscardFile();

  /// The commit protocol's I/O for the finished snapshot: the rest of the
  /// .tmp write, its fsync, rename, directory fsync and manifest append,
  /// with the crash points between them. A retry skips a rename that
  /// already happened. A failed fsync discards the snapshot (Begin()).
  core::Status Publish(std::uint64_t epoch, std::uint64_t watermark);

  std::string dir_;
  obs::Observability obs_;
  /// The pending snapshot's bytes from offset written_ on, reused across
  /// commits: at most kSnapshotFlushBytes plus one record once writes work.
  std::vector<std::uint8_t> buffer_;
  std::uint64_t written_ = 0;  ///< pending snapshot bytes in the .tmp file
  int fd_ = -1;                ///< the .tmp file, open from its first write
  bool renamed_ = false;       ///< a failed Commit already renamed the .tmp
  bool write_failed_ = false;  ///< EndRecord leaves the writing to Commit
  Timer snapshot_timer_;       ///< from the snapshot's header record on
  std::uint64_t pending_records_ = 0;
  std::uint32_t snapshot_crc_ = 0;  ///< CRC-32 of the closed records
  bool record_open_ = false;
  RecordType open_type_ = RecordType::kSnapshotHeader;
  std::size_t open_header_ = 0;  ///< buffer_ offset of the open record's header
  bool initialized_ = false;
  std::uint64_t next_epoch_ = 1;
  std::uint64_t commits_ = 0;
  std::uint64_t last_bytes_ = 0;
  obs::MetricId m_checkpoints_ = obs::kInvalidMetric;
  obs::MetricId m_bytes_ = obs::kInvalidMetric;
  obs::MetricId m_seconds_ = obs::kInvalidMetric;
};

/// Parses and validates one snapshot buffer: every record frame intact, a
/// kSnapshotHeader first, a kSnapshotFooter last whose record count and
/// byte coverage match. Returns kInvalidArgument otherwise — corrupted
/// checkpoints surface as Status, never as a crash.
core::StatusOr<Snapshot> ParseSnapshot(std::span<const std::uint8_t> bytes);

/// Reads the manifest, truncating at the first bad record (torn tail).
/// Missing or empty manifests yield an empty vector.
std::vector<ManifestEntry> ReadManifest(const std::string& dir);

/// Loads the newest snapshot that fully validates, walking manifest entries
/// newest to oldest. Returns kFailedPrecondition when the directory holds
/// no usable checkpoint (callers treat that as "start fresh").
core::StatusOr<Snapshot> LoadLatestSnapshot(const std::string& dir);

/// Emits the restore-side telemetry: the durable.restores counter and one
/// kRestored flight event for `snapshot`.
void RecordRestore(const obs::Observability& obs, const Snapshot& snapshot);

/// Which subsystem wrote a snapshot (SnapshotHeader::mode).
inline constexpr std::uint16_t kSnapshotModeQuantile = 1;
inline constexpr std::uint16_t kSnapshotModeFrequency = 2;
inline constexpr std::uint16_t kSnapshotModeService = 3;

/// Payload of the kSnapshotHeader record: the writing subsystem plus the
/// configuration echo restore validates against, so a snapshot is never
/// silently installed into a differently configured estimator/service.
struct SnapshotHeader {
  std::uint16_t mode = 0;         ///< kSnapshotMode*
  std::uint16_t kind = 0;         ///< quantile sketch kind (mode 1); else 0
  double epsilon = 0.0;           ///< exact bit pattern must match
  std::uint64_t window_size = 0;  ///< resolved processing window
  std::uint64_t aux = 0;          ///< expected stream length / stream count
};

/// Serializes `header` as a kSnapshotHeader payload appended to `out`.
void AppendSnapshotHeader(const SnapshotHeader& header, std::vector<std::uint8_t>* out);

/// Inverse of AppendSnapshotHeader; false on any size mismatch.
bool ReadSnapshotHeader(std::span<const std::uint8_t> payload, SnapshotHeader* out);

/// Serializes a staged partial window (already-quantized floats) as a
/// kWindowBuffer payload appended to `out`.
void AppendWindowBuffer(std::span<const float> staged, std::vector<std::uint8_t>* out);

/// Validates a kWindowBuffer payload and sets `*count` to the number of
/// staged floats it holds; kInvalidArgument on truncation, trailing bytes, a
/// count that disagrees with the payload size, or a NaN (which admission
/// never stages).
core::Status ReadWindowBufferCount(std::span<const std::uint8_t> payload,
                                   std::size_t* count);

/// Copies the staged floats of a payload ReadWindowBufferCount accepted into
/// `out`, which must hold exactly its count.
void CopyWindowBuffer(std::span<const std::uint8_t> payload, std::span<float> out);

}  // namespace streamgpu::durable

#endif  // STREAMGPU_DURABLE_CHECKPOINT_H_
