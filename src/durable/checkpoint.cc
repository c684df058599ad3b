#include "durable/checkpoint.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <string_view>
#include <utility>

#include "common/check.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "sketch/serialize.h"
#include "sketch/wire.h"

namespace streamgpu::durable {

namespace {

namespace wire = sketch::wire;

constexpr std::size_t kManifestPayloadSize = 8 + 8 + 4 + 8;

std::string SnapshotFileName(std::uint64_t epoch) {
  char name[64];
  std::snprintf(name, sizeof(name), "snap-%llu.ckpt",
                static_cast<unsigned long long>(epoch));
  return name;
}

/// The epoch of a snapshot file name as SnapshotFileName writes it; false
/// for any other name.
bool ParseSnapshotFileName(const std::string& name, std::uint64_t* epoch) {
  constexpr std::string_view kPrefix = "snap-";
  if (!name.starts_with(kPrefix)) return false;
  const char* digits = name.data() + kPrefix.size();
  return std::from_chars(digits, name.data() + name.size(), *epoch).ec == std::errc() &&
         name == SnapshotFileName(*epoch);
}

/// Where the epoch's snapshot is written before its rename.
std::string TmpPath(const std::string& dir, std::uint64_t epoch) {
  return dir + "/" + SnapshotFileName(epoch) + ".tmp";
}

std::string ErrnoMessage(const std::string& what, const std::string& path) {
  return what + " " + path + ": " + std::strerror(errno);
}

/// Appends `bytes` to `path`, fsync'ing before close. A failed append is
/// cut back off the file: readers stop at a torn record, so a retry appended
/// after one would never be read.
core::Status AppendFileSynced(const std::string& path,
                              std::span<const std::uint8_t> bytes) {
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_CLOEXEC | O_APPEND, 0644);
  if (fd < 0) return core::Status::Internal(ErrnoMessage("open", path));
  struct stat before {};
  if (::fstat(fd, &before) != 0) {
    const core::Status status = core::Status::Internal(ErrnoMessage("fstat", path));
    ::close(fd);
    return status;
  }
  const auto fail = [&](const char* what) {
    const core::Status status = core::Status::Internal(ErrnoMessage(what, path));
    // If the cut fails too, the next process's Init() cuts the torn tail.
    (void)::ftruncate(fd, before.st_size);
    ::close(fd);
    return status;
  };
  std::size_t written = 0;
  while (written < bytes.size()) {
    const ssize_t n = ::write(fd, bytes.data() + written, bytes.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      return fail("write");
    }
    written += static_cast<std::size_t>(n);
  }
  if (::fsync(fd) != 0) return fail("fsync");
  ::close(fd);
  return core::Status::Ok();
}

core::Status FsyncDir(const std::string& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) return core::Status::Internal(ErrnoMessage("open dir", dir));
  const int rc = ::fsync(fd);
  ::close(fd);
  if (rc != 0) return core::Status::Internal(ErrnoMessage("fsync dir", dir));
  return core::Status::Ok();
}

bool ReadFileBytes(const std::string& path, std::vector<std::uint8_t>* out) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return false;
  std::fseek(f, 0, SEEK_END);
  const long size = std::ftell(f);
  if (size < 0) {
    std::fclose(f);
    return false;
  }
  std::fseek(f, 0, SEEK_SET);
  out->resize(static_cast<std::size_t>(size));
  const std::size_t read = size == 0 ? 0 : std::fread(out->data(), 1, out->size(), f);
  std::fclose(f);
  return read == out->size();
}

/// Deterministic crash injection for the kill-matrix harness: the point
/// name and the 0-based Commit() ordinal it fires on.
struct CrashPoint {
  bool armed = false;
  std::string point;
  std::uint64_t ordinal = 0;
};

CrashPoint ParseCrashPoint() {
  CrashPoint crash;
  const char* env = std::getenv("STREAMGPU_DURABLE_CRASH_AT");
  if (env == nullptr || *env == '\0') return crash;
  const std::string spec(env);
  const std::size_t colon = spec.rfind(':');
  if (colon == std::string::npos) return crash;
  crash.point = spec.substr(0, colon);
  crash.ordinal = std::strtoull(spec.c_str() + colon + 1, nullptr, 10);
  crash.armed = true;
  return crash;
}

/// Exit code the harness recognizes as a deliberate injected crash.
[[noreturn]] void CrashNow() { std::_Exit(42); }

}  // namespace

CheckpointWriter::CheckpointWriter(std::string dir) : dir_(std::move(dir)) {
  STREAMGPU_CHECK_MSG(!dir_.empty(), "checkpoint directory must be non-empty");
}

CheckpointWriter::~CheckpointWriter() { DiscardFile(); }

void CheckpointWriter::Begin() {
  DiscardFile();
  buffer_.clear();
  written_ = 0;
  write_failed_ = false;
  pending_records_ = 0;
  snapshot_crc_ = 0;
  record_open_ = false;
}

void CheckpointWriter::DiscardFile() {
  if (fd_ < 0) return;
  ::close(fd_);
  fd_ = -1;
  if (!renamed_) ::unlink(TmpPath(dir_, next_epoch_).c_str());
  renamed_ = false;
}

std::vector<std::uint8_t>* CheckpointWriter::BeginRecord(RecordType type) {
  STREAMGPU_CHECK_MSG(!record_open_, "BeginRecord inside an open record");
  STREAMGPU_CHECK_MSG(pending_records_ > 0 || type == RecordType::kSnapshotHeader,
                      "snapshot must start with a header record");
  if (pending_records_ == 0) snapshot_timer_.Reset();
  open_type_ = type;
  open_header_ = sketch::BeginFrame(&buffer_);
  record_open_ = true;
  return &buffer_;
}

void CheckpointWriter::EndRecord() {
  CloseRecord();
  if (buffer_.size() < kSnapshotFlushBytes || write_failed_) return;
  const std::uint64_t offset = written_;
  // A failure keeps the bytes buffered; Commit retries the write and
  // reports the error.
  write_failed_ = !(initialized_ || Init().ok()) || !WriteBuffered().ok();
#if defined(__linux__)
  // Start the piece's writeback now, so the .tmp fsync in Commit finds most
  // pages already written. The call waits for nothing, and its result can be
  // ignored: an I/O error it meets is reported by that fsync, which then
  // discards the snapshot.
  if (!write_failed_) {
    (void)::sync_file_range(fd_, static_cast<off_t>(offset),
                            static_cast<off_t>(written_ - offset),
                            SYNC_FILE_RANGE_WRITE);
  }
#endif
}

void CheckpointWriter::CloseRecord() {
  STREAMGPU_CHECK_MSG(record_open_, "EndRecord without an open record");
  FinishRecord(open_type_, open_header_, &buffer_);
  // Continue the snapshot CRC over the framed record while it is in cache.
  snapshot_crc_ = sketch::Crc32(std::span(buffer_).subspan(open_header_), snapshot_crc_);
  record_open_ = false;
  ++pending_records_;
}

core::Status CheckpointWriter::WriteBuffered() {
  const std::string tmp_path = TmpPath(dir_, next_epoch_);
  if (fd_ < 0) {
    fd_ = ::open(tmp_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
    if (fd_ < 0) return core::Status::Internal(ErrnoMessage("open", tmp_path));
  }
  core::Status status = core::Status::Ok();
  std::size_t done = 0;
  while (done < buffer_.size()) {
    const ssize_t n = ::pwrite(fd_, buffer_.data() + done, buffer_.size() - done,
                               static_cast<off_t>(written_ + done));
    if (n < 0) {
      if (errno == EINTR) continue;
      status = core::Status::Internal(ErrnoMessage("write", tmp_path));
      break;
    }
    done += static_cast<std::size_t>(n);
  }
  written_ += done;
  buffer_.erase(buffer_.begin(), buffer_.begin() + static_cast<std::ptrdiff_t>(done));
  return status;
}

core::Status CheckpointWriter::Init() {
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);
  if (ec) {
    return core::Status::Internal("create checkpoint dir " + dir_ + ": " +
                                  ec.message());
  }
  // Make the reader's truncate-at-first-bad-CRC durable: a crash mid-append
  // leaves a torn record at the manifest's tail, and entries appended after
  // it would be invisible to every reader (which stops at the first bad
  // record). Cut the file back to its valid prefix before appending again.
  {
    const std::string manifest_path = dir_ + "/" + kManifestName;
    std::vector<std::uint8_t> bytes;
    if (ReadFileBytes(manifest_path, &bytes)) {
      std::span<const std::uint8_t> cursor(bytes);
      std::size_t valid_bytes = 0;
      while (!cursor.empty()) {
        const std::size_t before = cursor.size();
        auto record = ReadRecord(&cursor);
        if (!record.ok() || record->type != RecordType::kManifestEntry ||
            record->payload.size() != kManifestPayloadSize) {
          break;
        }
        valid_bytes += before - cursor.size();
      }
      if (valid_bytes < bytes.size() &&
          ::truncate(manifest_path.c_str(),
                     static_cast<off_t>(valid_bytes)) != 0) {
        return core::Status::Internal(ErrnoMessage("truncate", manifest_path));
      }
    }
  }
  // Resume the epoch sequence past anything a previous process committed.
  for (const ManifestEntry& entry : ReadManifest(dir_)) {
    next_epoch_ = std::max(next_epoch_, entry.epoch + 1);
  }
  // A crash between write and rename can leave stray .tmp files behind, and
  // one between the manifest append and the prune a snapshot older than the
  // previous epoch. Commit removes only the epoch it retires.
  for (const auto& dirent : std::filesystem::directory_iterator(dir_, ec)) {
    std::uint64_t epoch = 0;
    if (dirent.path().extension() == ".tmp" ||
        (ParseSnapshotFileName(dirent.path().filename().string(), &epoch) &&
         epoch + 2 < next_epoch_)) {
      std::filesystem::remove(dirent.path(), ec);
    }
  }
  if (obs_.metrics != nullptr) {
    m_checkpoints_ = obs_.metrics->Counter("durable.checkpoints");
    m_bytes_ = obs_.metrics->Counter("durable.checkpoint_bytes");
    m_seconds_ = obs_.metrics->Summary("durable.checkpoint_seconds");
  }
  initialized_ = true;
  return core::Status::Ok();
}

core::Status CheckpointWriter::Commit(std::uint64_t watermark) {
  if (pending_records_ == 0) {
    return core::Status::FailedPrecondition("Commit without a pending snapshot");
  }
  if (record_open_) {
    return core::Status::FailedPrecondition("Commit inside an open record");
  }
  if (!initialized_) {
    if (core::Status s = Init(); !s.ok()) return s;
  }
  // Footer: body record count + watermark, so the reader can verify the
  // snapshot is complete, not merely prefix-valid.
  const std::uint64_t body_bytes = written_ + buffer_.size();
  const std::uint64_t body_records = pending_records_;
  const std::uint32_t body_crc = snapshot_crc_;
  std::vector<std::uint8_t>* footer = BeginRecord(RecordType::kSnapshotFooter);
  wire::Append<std::uint64_t>(footer, body_records);
  wire::Append<std::uint64_t>(footer, watermark);
  CloseRecord();

  const std::uint64_t epoch = next_epoch_;
  if (core::Status s = Publish(epoch, watermark); !s.ok()) {
    // Unless a failed fsync dropped the snapshot, take the footer off again,
    // written or not; the retry writes its own over the same offset.
    if (pending_records_ > 0) {
      if (written_ > body_bytes) written_ = body_bytes;
      buffer_.resize(body_bytes - written_);
      pending_records_ = body_records;
      snapshot_crc_ = body_crc;
    }
    return s;
  }

  // Keep the previous epoch as the torn-write fallback; retire the one
  // before it. Older ones are gone already, or Init() swept them.
  if (epoch > 2) {
    std::error_code ec;
    std::filesystem::remove(dir_ + "/" + SnapshotFileName(epoch - 2), ec);
  }

  last_bytes_ = written_;
  next_epoch_ = epoch + 1;
  ++commits_;
  const double seconds = snapshot_timer_.ElapsedSeconds();
  Begin();

  if (obs_.metrics != nullptr) {
    obs_.metrics->Add(m_checkpoints_);
    obs_.metrics->Add(m_bytes_, last_bytes_);
    obs_.metrics->Observe(m_seconds_, seconds);
  }
  if (obs_.flight != nullptr) {
    obs_.flight->Record(obs::FlightEventKind::kCheckpointWritten, "durable",
                        "commit", epoch, static_cast<std::int64_t>(last_bytes_),
                        static_cast<std::int64_t>(watermark));
  }
  return core::Status::Ok();
}

core::Status CheckpointWriter::Publish(std::uint64_t epoch, std::uint64_t watermark) {
  const CrashPoint crash = ParseCrashPoint();
  const bool crash_now = crash.armed && commits_ == crash.ordinal;

  const std::string snap_path = dir_ + "/" + SnapshotFileName(epoch);
  const std::string tmp_path = TmpPath(dir_, epoch);
  const std::uint64_t snapshot_bytes = written_ + buffer_.size();

  if (crash_now && crash.point == "snapshot-partial") {
    // Half of the final bytes, however many EndRecord already streamed.
    const std::uint64_t half = snapshot_bytes / 2;
    if (half < written_) {
      (void)::ftruncate(fd_, static_cast<off_t>(half));
    } else {
      buffer_.resize(half - written_);
      (void)WriteBuffered();
    }
    if (fd_ >= 0) (void)::fsync(fd_);
    CrashNow();
  }
  if (core::Status s = WriteBuffered(); !s.ok()) return s;
  if (::fsync(fd_) != 0) {
    // A failed fsync may drop the dirty pages of every piece streamed so far
    // and reports that only once per file, so a second fsync could succeed
    // over bytes that never reached the disk. The snapshot is lost: the
    // caller re-encodes it after Begin().
    const core::Status status = core::Status::Internal(ErrnoMessage("fsync", tmp_path));
    Begin();
    return status;
  }
  if (crash_now && crash.point == "pre-rename") CrashNow();
  if (!renamed_) {
    if (::rename(tmp_path.c_str(), snap_path.c_str()) != 0) {
      return core::Status::Internal(ErrnoMessage("rename", snap_path));
    }
    renamed_ = true;
  }
  if (core::Status s = FsyncDir(dir_); !s.ok()) return s;
  if (crash_now && crash.point == "pre-manifest") CrashNow();

  std::vector<std::uint8_t> manifest_payload;
  wire::Append<std::uint64_t>(&manifest_payload, epoch);
  wire::Append<std::uint64_t>(&manifest_payload, snapshot_bytes);
  wire::Append<std::uint32_t>(&manifest_payload, snapshot_crc_);
  wire::Append<std::uint64_t>(&manifest_payload, watermark);
  std::vector<std::uint8_t> manifest_record;
  AppendRecord(RecordType::kManifestEntry, manifest_payload, &manifest_record);
  const std::string manifest_path = dir_ + "/" + kManifestName;
  if (crash_now && crash.point == "manifest-partial") {
    (void)AppendFileSynced(manifest_path,
                           std::span(manifest_record).first(manifest_record.size() / 2));
    CrashNow();
  }
  return AppendFileSynced(manifest_path, manifest_record);
}

core::StatusOr<Snapshot> ParseSnapshot(std::span<const std::uint8_t> bytes) {
  Snapshot snapshot;
  bool footer_seen = false;
  std::uint64_t body_records = 0;
  while (!bytes.empty()) {
    if (footer_seen) {
      return core::Status::InvalidArgument("bytes after the snapshot footer");
    }
    auto record = ReadRecord(&bytes);
    if (!record.ok()) return record.status();
    switch (record->type) {
      case RecordType::kManifestEntry:
        return core::Status::InvalidArgument("manifest entry inside a snapshot");
      case RecordType::kSnapshotHeader:
        if (body_records > 0) {
          return core::Status::InvalidArgument("duplicate snapshot header");
        }
        break;
      case RecordType::kSnapshotFooter: {
        std::span<const std::uint8_t> payload = record->payload;
        std::uint64_t record_count = 0;
        if (!wire::Read(&payload, &record_count) ||
            !wire::Read(&payload, &snapshot.watermark) || !payload.empty()) {
          return core::Status::InvalidArgument("malformed snapshot footer");
        }
        if (record_count != body_records) {
          return core::Status::InvalidArgument(
              "snapshot footer record count mismatch");
        }
        footer_seen = true;
        continue;
      }
      default:
        if (body_records == 0) {
          return core::Status::InvalidArgument(
              "snapshot does not start with a header record");
        }
        break;
    }
    snapshot.records.push_back(OwnedRecord{
        record->type,
        std::vector<std::uint8_t>(record->payload.begin(), record->payload.end())});
    ++body_records;
  }
  if (!footer_seen) {
    return core::Status::InvalidArgument("snapshot missing its footer record");
  }
  return snapshot;
}

std::vector<ManifestEntry> ReadManifest(const std::string& dir) {
  std::vector<ManifestEntry> entries;
  std::vector<std::uint8_t> bytes;
  if (!ReadFileBytes(dir + "/" + kManifestName, &bytes)) return entries;
  std::span<const std::uint8_t> cursor(bytes);
  while (!cursor.empty()) {
    auto record = ReadRecord(&cursor);
    // Truncate-at-first-bad-CRC: a torn tail (or any later corruption)
    // invalidates everything after it, never what came before.
    if (!record.ok() || record->type != RecordType::kManifestEntry ||
        record->payload.size() != kManifestPayloadSize) {
      break;
    }
    std::span<const std::uint8_t> payload = record->payload;
    ManifestEntry entry;
    wire::Read(&payload, &entry.epoch);
    wire::Read(&payload, &entry.snapshot_size);
    wire::Read(&payload, &entry.snapshot_crc);
    wire::Read(&payload, &entry.watermark);
    entries.push_back(entry);
  }
  return entries;
}

core::StatusOr<Snapshot> LoadLatestSnapshot(const std::string& dir) {
  const std::vector<ManifestEntry> entries = ReadManifest(dir);
  for (auto it = entries.rbegin(); it != entries.rend(); ++it) {
    std::vector<std::uint8_t> bytes;
    if (!ReadFileBytes(dir + "/" + SnapshotFileName(it->epoch), &bytes)) continue;
    if (bytes.size() != it->snapshot_size) continue;
    if (sketch::Crc32(bytes) != it->snapshot_crc) continue;
    auto snapshot = ParseSnapshot(bytes);
    if (!snapshot.ok()) continue;
    if (snapshot->watermark != it->watermark) continue;
    snapshot->epoch = it->epoch;
    return std::move(snapshot).value();
  }
  return core::Status::FailedPrecondition("no usable checkpoint in " + dir);
}

void AppendSnapshotHeader(const SnapshotHeader& header, std::vector<std::uint8_t>* out) {
  wire::Append<std::uint16_t>(out, header.mode);
  wire::Append<std::uint16_t>(out, header.kind);
  wire::Append<double>(out, header.epsilon);
  wire::Append<std::uint64_t>(out, header.window_size);
  wire::Append<std::uint64_t>(out, header.aux);
}

bool ReadSnapshotHeader(std::span<const std::uint8_t> payload, SnapshotHeader* out) {
  return wire::Read(&payload, &out->mode) && wire::Read(&payload, &out->kind) &&
         wire::Read(&payload, &out->epsilon) &&
         wire::Read(&payload, &out->window_size) &&
         wire::Read(&payload, &out->aux) && payload.empty();
}

void AppendWindowBuffer(std::span<const float> staged, std::vector<std::uint8_t>* out) {
  wire::Append<std::uint64_t>(out, staged.size());
  wire::AppendArray(out, staged);
}

core::Status ReadWindowBufferCount(std::span<const std::uint8_t> payload,
                                   std::size_t* count) {
  std::uint64_t declared = 0;
  if (!wire::Read(&payload, &declared) || payload.size() % sizeof(float) != 0 ||
      declared != payload.size() / sizeof(float)) {
    return core::Status::InvalidArgument("malformed window-buffer record");
  }
  for (std::size_t i = 0; i < declared; ++i) {
    float v = 0;
    std::memcpy(&v, payload.data() + i * sizeof(float), sizeof(float));
    if (v != v) {
      return core::Status::InvalidArgument("window-buffer record element " +
                                           std::to_string(i) + " is NaN");
    }
  }
  *count = static_cast<std::size_t>(declared);
  return core::Status::Ok();
}

void CopyWindowBuffer(std::span<const std::uint8_t> payload, std::span<float> out) {
  STREAMGPU_CHECK(payload.size() == sizeof(std::uint64_t) + out.size_bytes());
  if (!out.empty()) {
    std::memcpy(out.data(), payload.data() + sizeof(std::uint64_t), out.size_bytes());
  }
}

void RecordRestore(const obs::Observability& obs, const Snapshot& snapshot) {
  if (obs.metrics != nullptr) {
    obs.metrics->Add(obs.metrics->Counter("durable.restores"));
  }
  if (obs.flight != nullptr) {
    obs.flight->Record(obs::FlightEventKind::kRestored, "durable", "restore",
                       snapshot.epoch,
                       static_cast<std::int64_t>(snapshot.records.size()),
                       static_cast<std::int64_t>(snapshot.watermark));
  }
}

}  // namespace streamgpu::durable
