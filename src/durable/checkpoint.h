// Crash-consistent checkpoint container (docs/DURABILITY.md).
//
// On-disk layout inside a checkpoint directory:
//
//   snap-<epoch>.ckpt   one full snapshot: kSnapshotHeader, typed state
//                       records, kSnapshotFooter — written to a .tmp file,
//                       fsync'd, then atomically renamed into place
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
// retained; older ones are pruned after each commit.
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

/// Builds snapshots in memory and commits them with the torn-write
/// protocol above. Single-threaded: the owner serializes Begin, the record
/// calls and Commit (estimators checkpoint from the ingest thread at batch
/// boundaries, the service under its registration lock after WaitIdle()).
class CheckpointWriter {
 public:
  /// `dir` is created on the first Commit() if missing.
  explicit CheckpointWriter(std::string dir);

  /// Optional metrics/flight sinks (durable.* metrics, checkpoint events).
  void SetObservability(obs::Observability obs) { obs_ = obs; }

  /// Starts a new snapshot, discarding any uncommitted records.
  void Begin();

  /// Opens one state record of `type` in the pending snapshot and returns
  /// the buffer its payload is appended to — the snapshot buffer itself, so
  /// the payload is encoded in place. EndRecord() closes it. The first
  /// record must be kSnapshotHeader; records do not nest.
  std::vector<std::uint8_t>* BeginRecord(RecordType type);

  /// Closes the open record: fills in its header and folds the record into
  /// the snapshot's running CRC-32 (sketch::Crc32Combine), so Commit never
  /// re-reads the buffer for the manifest.
  void EndRecord();

  /// Finalizes the pending snapshot (appends the footer), writes it
  /// durably, appends the manifest entry, and prunes snapshots older than
  /// the previous epoch. `watermark` is the element count the snapshot
  /// covers; it is echoed into the footer and the manifest. On error the
  /// pending snapshot is left as it was before the call (the footer comes
  /// off again), so a retried Commit writes the same snapshot.
  core::Status Commit(std::uint64_t watermark);

  const std::string& dir() const { return dir_; }

  /// Commits performed by this writer.
  std::uint64_t commits() const { return commits_; }

  /// Size in bytes of the most recently committed snapshot.
  std::uint64_t last_snapshot_bytes() const { return last_bytes_; }

 private:
  core::Status Init();  ///< creates the directory, resumes the epoch counter

  /// The commit protocol's I/O for the finished snapshot in buffer_: the
  /// .tmp write, rename, directory fsync and manifest append, with the
  /// crash points between them.
  core::Status Publish(std::uint64_t epoch, std::uint64_t watermark);

  std::string dir_;
  obs::Observability obs_;
  std::vector<std::uint8_t> buffer_;  ///< reused across commits
  std::uint64_t pending_records_ = 0;
  std::uint32_t snapshot_crc_ = 0;  ///< CRC-32 of buffer_'s closed records
  bool record_open_ = false;
  RecordType open_type_ = RecordType::kSnapshotHeader;
  std::size_t open_header_ = 0;  ///< offset of the open record's header
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
