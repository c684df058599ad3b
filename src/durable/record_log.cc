#include "durable/record_log.h"

#include <string>

#include "sketch/serialize.h"
#include "sketch/wire.h"

namespace streamgpu::durable {

namespace wire = sketch::wire;

static_assert(kRecordHeaderSize == sketch::kFrameHeaderSize);

const char* RecordTypeName(RecordType type) {
  switch (type) {
    case RecordType::kSnapshotHeader: return "snapshot_header";
    case RecordType::kStreamBegin: return "stream_begin";
    case RecordType::kQuantileState: return "quantile_state";
    case RecordType::kFrequencyState: return "frequency_state";
    case RecordType::kWindowBuffer: return "window_buffer";
    case RecordType::kAdmissionState: return "admission_state";
    case RecordType::kServiceStats: return "service_stats";
    case RecordType::kSnapshotFooter: return "snapshot_footer";
    case RecordType::kManifestEntry: return "manifest_entry";
  }
  return "?";
}

void AppendRecord(RecordType type, std::span<const std::uint8_t> payload,
                  std::vector<std::uint8_t>* out) {
  const std::size_t header = sketch::BeginFrame(out);
  out->insert(out->end(), payload.begin(), payload.end());
  FinishRecord(type, header, out);
}

void FinishRecord(RecordType type, std::size_t header, std::vector<std::uint8_t>* out) {
  sketch::EndFrame(kRecordMagic, kRecordVersion, static_cast<std::uint16_t>(type),
                   header, out);
}

core::StatusOr<Record> ReadRecord(std::span<const std::uint8_t>* bytes) {
  std::span<const std::uint8_t> cursor = *bytes;
  std::uint32_t magic = 0;
  std::uint16_t version = 0;
  std::uint16_t raw_type = 0;
  std::uint64_t payload_len = 0;
  std::uint32_t crc = 0;
  if (!wire::Read(&cursor, &magic) || !wire::Read(&cursor, &version) ||
      !wire::Read(&cursor, &raw_type) || !wire::Read(&cursor, &payload_len) ||
      !wire::Read(&cursor, &crc)) {
    return core::Status::InvalidArgument("truncated durable record header");
  }
  if (magic != kRecordMagic) {
    return core::Status::InvalidArgument("bad durable record magic");
  }
  if (version == 0 || version > kRecordVersion) {
    return core::Status::InvalidArgument("unsupported durable record version " +
                                         std::to_string(version));
  }
  const auto type = static_cast<RecordType>(raw_type);
  if (RecordTypeName(type)[0] == '?') {
    return core::Status::InvalidArgument("unknown durable record type " +
                                         std::to_string(raw_type));
  }
  if (payload_len > cursor.size()) {
    return core::Status::InvalidArgument(
        "durable record payload length exceeds the buffer");
  }
  const std::span<const std::uint8_t> payload = cursor.first(payload_len);
  if (sketch::Crc32(payload) != crc) {
    return core::Status::InvalidArgument("durable record checksum mismatch");
  }
  *bytes = cursor.subspan(payload_len);
  return Record{type, payload};
}

}  // namespace streamgpu::durable
