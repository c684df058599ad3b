// CRC-framed, length-prefixed typed records — the unit of the durability
// subsystem's on-disk formats (docs/DURABILITY.md). A snapshot file is a
// back-to-back sequence of records bracketed by kSnapshotHeader and
// kSnapshotFooter; the manifest log is a sequence of kManifestEntry records.
//
// Record framing (little-endian, fixed-width fields: the SGMS
// mergeable-summary envelope's header layout of sketch/serialize.h, whose
// BeginFrame/EndFrame write both):
//
//   offset  size  field
//   0       4     magic 0x52444753 ("SGDR")
//   4       2     format version (currently 1)
//   6       2     record type (RecordType)
//   8       8     payload length in bytes
//   16      4     CRC-32 (IEEE, reflected) of the payload bytes
//   20      -     payload (per-type layout, docs/DURABILITY.md)
//
// ReadRecord returns Status on malformed input — truncation, a bad magic or
// type, a version from the future, a corrupted checksum, or a length the
// buffer cannot hold — and never aborts: checkpoint files are untrusted
// input after a crash.

#ifndef STREAMGPU_DURABLE_RECORD_LOG_H_
#define STREAMGPU_DURABLE_RECORD_LOG_H_

#include <cstdint>
#include <span>
#include <vector>

#include "core/status.h"

namespace streamgpu::durable {

/// Record magic ("SGDR": StreamGpu Durable Record).
inline constexpr std::uint32_t kRecordMagic = 0x52444753;

/// Current record-format version. Readers reject anything newer.
inline constexpr std::uint16_t kRecordVersion = 1;

/// Bytes before the payload.
inline constexpr std::size_t kRecordHeaderSize = 20;

/// Typed payload carried by one record. Payload layouts: docs/DURABILITY.md.
enum class RecordType : std::uint16_t {
  kSnapshotHeader = 1,  ///< mode, config digest, stream count, epoch
  kStreamBegin = 2,     ///< per-stream config + watermark (service snapshots)
  kQuantileState = 3,   ///< summary-core counters + full quantile-sketch state
  kFrequencyState = 4,  ///< summary-core counters + lossy-counting entries
  kWindowBuffer = 5,    ///< staged partial-window elements
  kAdmissionState = 6,  ///< per-shard shed counts (satellite: honest bounds)
  kServiceStats = 7,    ///< service-level merged/window accounting
  kSnapshotFooter = 8,  ///< record count + watermark; terminates a snapshot
  kManifestEntry = 9,   ///< epoch, snapshot size + CRC, watermark
};

/// Record-type name for diagnostics; "?" for an unknown value.
const char* RecordTypeName(RecordType type);

/// One parsed record. `payload` views into the caller's buffer.
struct Record {
  RecordType type = RecordType::kSnapshotHeader;
  std::span<const std::uint8_t> payload;
};

/// Appends one framed record to `out`.
void AppendRecord(RecordType type, std::span<const std::uint8_t> payload,
                  std::vector<std::uint8_t>* out);

/// Frames the payload appended to `out` after the header sketch::BeginFrame
/// reserved at offset `header` as a record of `type`, in place.
void FinishRecord(RecordType type, std::size_t header, std::vector<std::uint8_t>* out);

/// Parses one record from the front of `bytes`, advancing the span past it
/// on success. On error the span is left untouched.
core::StatusOr<Record> ReadRecord(std::span<const std::uint8_t>* bytes);

}  // namespace streamgpu::durable

#endif  // STREAMGPU_DURABLE_RECORD_LOG_H_
