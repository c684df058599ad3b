// Tests for the durability subsystem (durable/record_log.h,
// durable/checkpoint.h, docs/DURABILITY.md): record framing round trips and
// rejection paths, the torn-write commit protocol (stray .tmp, missing
// manifest entry, torn manifest tail, corrupted-newest fallback, a failed
// commit retried, a snapshot streamed to its .tmp as its records close and
// retried after a failed open or a write cut short, and dropped after a
// failed fsync of its .tmp), the deterministic crash points the kill-matrix
// harness drives, committed golden snapshots (byte stability), a structured
// corruption corpus over real snapshots (bit flips, truncations at every
// record boundary, duplicated records — every failure surfaces as Status,
// never a crash; the CI ASan job runs this file), and checkpoint/restore
// bit-identity for the quantile/frequency estimators and the multi-tenant
// StreamService, including quarantine and load-shed accounting.

#include "durable/checkpoint.h"

#include <fcntl.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/frequency_estimator.h"
#include "core/quantile_estimator.h"
#include "core/summary_core.h"
#include "obs/metrics.h"
#include "service/stream_service.h"
#include "sketch/serialize.h"
#include "sketch/wire.h"
#include "stream/generator.h"

namespace streamgpu::durable {
namespace {

namespace wire = sketch::wire;

/// A fresh, empty directory under the test temp root.
std::string FreshDir(const std::string& name) {
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) / ("durable_" + name);
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir.string();
}

std::vector<float> MakeStream(std::size_t n, std::uint64_t seed) {
  stream::StreamGenerator gen(
      {.distribution = stream::Distribution::kZipf, .seed = seed});
  return gen.Take(n);
}

std::vector<std::uint8_t> ReadFile(const std::string& path) {
  std::vector<std::uint8_t> bytes;
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr) << path;
  if (f == nullptr) return bytes;
  std::fseek(f, 0, SEEK_END);
  bytes.resize(static_cast<std::size_t>(std::ftell(f)));
  std::fseek(f, 0, SEEK_SET);
  EXPECT_EQ(std::fread(bytes.data(), 1, bytes.size(), f), bytes.size());
  std::fclose(f);
  return bytes;
}

void WriteFile(const std::string& path, std::span<const std::uint8_t> bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr) << path;
  ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
  std::fclose(f);
}

/// Overwrites the manifest with a single entry describing `snapshot_bytes`,
/// so a deliberately mutated snapshot still passes the manifest's size/CRC
/// screen and reaches the deeper validation layers.
void PointManifestAt(const std::string& dir, std::uint64_t epoch,
                     std::span<const std::uint8_t> snapshot_bytes,
                     std::uint64_t watermark) {
  std::vector<std::uint8_t> payload;
  wire::Append<std::uint64_t>(&payload, epoch);
  wire::Append<std::uint64_t>(&payload, snapshot_bytes.size());
  wire::Append<std::uint32_t>(&payload, sketch::Crc32(snapshot_bytes));
  wire::Append<std::uint64_t>(&payload, watermark);
  std::vector<std::uint8_t> record;
  AppendRecord(RecordType::kManifestEntry, payload, &record);
  WriteFile(dir + "/" + kManifestName, record);
}

// ---------------------------------------------------------------------------
// Record framing

TEST(RecordLog, RoundTripsTypedRecords) {
  std::vector<std::uint8_t> buffer;
  const std::vector<std::uint8_t> a = {1, 2, 3, 4, 5};
  const std::vector<std::uint8_t> empty;
  AppendRecord(RecordType::kSnapshotHeader, a, &buffer);
  AppendRecord(RecordType::kWindowBuffer, empty, &buffer);
  AppendRecord(RecordType::kSnapshotFooter, a, &buffer);

  std::span<const std::uint8_t> cursor(buffer);
  auto first = ReadRecord(&cursor);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->type, RecordType::kSnapshotHeader);
  EXPECT_TRUE(std::equal(first->payload.begin(), first->payload.end(), a.begin()));
  auto second = ReadRecord(&cursor);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->type, RecordType::kWindowBuffer);
  EXPECT_TRUE(second->payload.empty());
  auto third = ReadRecord(&cursor);
  ASSERT_TRUE(third.ok());
  EXPECT_EQ(third->type, RecordType::kSnapshotFooter);
  EXPECT_TRUE(cursor.empty());
}

TEST(RecordLog, RejectsMalformedFrames) {
  std::vector<std::uint8_t> buffer;
  const std::vector<std::uint8_t> payload = {9, 8, 7};
  AppendRecord(RecordType::kQuantileState, payload, &buffer);

  // Truncations anywhere inside the frame fail and leave the span alone.
  for (std::size_t cut = 0; cut < buffer.size(); ++cut) {
    std::span<const std::uint8_t> cursor(buffer.data(), cut);
    const std::size_t before = cursor.size();
    EXPECT_FALSE(ReadRecord(&cursor).ok()) << "cut at " << cut;
    EXPECT_EQ(cursor.size(), before);
  }

  // A flipped bit anywhere in the frame is caught: header fields are
  // validated (magic, version, type, length) and the payload is CRC-covered.
  for (std::size_t i = 0; i < buffer.size(); ++i) {
    std::vector<std::uint8_t> corrupt = buffer;
    corrupt[i] ^= 0x10;
    std::span<const std::uint8_t> cursor(corrupt);
    EXPECT_FALSE(ReadRecord(&cursor).ok()) << "flip at byte " << i;
  }

  // A length field claiming more than the buffer holds must not be believed.
  std::vector<std::uint8_t> oversize = buffer;
  oversize[8] = 0xFF;
  oversize[14] = 0xFF;  // len ~ 2^55: would overflow a naive offset sum
  std::span<const std::uint8_t> cursor(oversize);
  EXPECT_FALSE(ReadRecord(&cursor).ok());
}

TEST(RecordLog, NamesEveryRecordType) {
  for (std::uint16_t raw = 1; raw <= 9; ++raw) {
    EXPECT_STRNE(RecordTypeName(static_cast<RecordType>(raw)), "?");
  }
  EXPECT_STREQ(RecordTypeName(static_cast<RecordType>(0)), "?");
  EXPECT_STREQ(RecordTypeName(static_cast<RecordType>(99)), "?");
}

TEST(Codec, SnapshotHeaderRoundTrip) {
  SnapshotHeader header;
  header.mode = kSnapshotModeService;
  header.kind = 2;
  header.epsilon = 0.0125;
  header.window_size = 4096;
  header.aux = 77;
  std::vector<std::uint8_t> payload;
  AppendSnapshotHeader(header, &payload);
  SnapshotHeader parsed;
  ASSERT_TRUE(ReadSnapshotHeader(payload, &parsed));
  EXPECT_EQ(parsed.mode, header.mode);
  EXPECT_EQ(parsed.kind, header.kind);
  EXPECT_EQ(parsed.epsilon, header.epsilon);
  EXPECT_EQ(parsed.window_size, header.window_size);
  EXPECT_EQ(parsed.aux, header.aux);

  payload.pop_back();
  EXPECT_FALSE(ReadSnapshotHeader(payload, &parsed));
  payload.push_back(0);
  payload.push_back(0);
  EXPECT_FALSE(ReadSnapshotHeader(payload, &parsed));
}

TEST(Codec, WindowBufferRoundTripAndRejection) {
  const std::vector<float> staged = {1.5f, -2.25f, 0.0f, 1e30f};
  std::vector<std::uint8_t> payload;
  AppendWindowBuffer(staged, &payload);
  std::size_t count = 0;
  ASSERT_TRUE(ReadWindowBufferCount(payload, &count).ok());
  ASSERT_EQ(count, staged.size());
  std::vector<float> parsed(count);
  CopyWindowBuffer(payload, parsed);
  EXPECT_EQ(parsed, staged);

  std::vector<std::uint8_t> truncated(payload.begin(), payload.end() - 2);
  EXPECT_FALSE(ReadWindowBufferCount(truncated, &count).ok());
  std::vector<std::uint8_t> trailing = payload;
  trailing.push_back(0);
  EXPECT_FALSE(ReadWindowBufferCount(trailing, &count).ok());
  // Whole floats past the declared count.
  std::vector<std::uint8_t> extra = payload;
  extra.insert(extra.end(), sizeof(float), 0);
  EXPECT_FALSE(ReadWindowBufferCount(extra, &count).ok());
  // A count far larger than the payload (would overflow count * sizeof).
  std::vector<std::uint8_t> lying = payload;
  for (std::size_t i = 0; i < 8; ++i) lying[i] = 0xFF;
  EXPECT_FALSE(ReadWindowBufferCount(lying, &count).ok());
  // No count at all.
  EXPECT_FALSE(ReadWindowBufferCount(std::span(payload).first(7), &count).ok());
}

// ---------------------------------------------------------------------------
// Commit protocol

/// Starts one tiny valid snapshot: header + quantile-state stub.
void StageStub(CheckpointWriter* writer) {
  SnapshotHeader header;
  header.mode = kSnapshotModeQuantile;
  header.epsilon = 0.01;
  header.window_size = 64;
  writer->Begin();
  AppendSnapshotHeader(header, writer->BeginRecord(RecordType::kSnapshotHeader));
  writer->EndRecord();
  std::vector<std::uint8_t>* state = writer->BeginRecord(RecordType::kQuantileState);
  state->insert(state->end(), {0xAB, 0xCD});
  writer->EndRecord();
}

void CommitStub(CheckpointWriter* writer, std::uint64_t watermark) {
  StageStub(writer);
  ASSERT_TRUE(writer->Commit(watermark).ok());
}

TEST(CheckpointWriter, CommitLoadAndPrune) {
  const std::string dir = FreshDir("commit");
  CheckpointWriter writer(dir);
  for (std::uint64_t i = 1; i <= 5; ++i) CommitStub(&writer, i * 100);
  EXPECT_EQ(writer.commits(), 5u);

  const auto entries = ReadManifest(dir);
  ASSERT_EQ(entries.size(), 5u);
  EXPECT_EQ(entries.back().epoch, 5u);
  EXPECT_EQ(entries.back().watermark, 500u);

  auto snapshot = LoadLatestSnapshot(dir);
  ASSERT_TRUE(snapshot.ok());
  EXPECT_EQ(snapshot->epoch, 5u);
  EXPECT_EQ(snapshot->watermark, 500u);
  ASSERT_EQ(snapshot->records.size(), 2u);
  EXPECT_EQ(snapshot->records[0].type, RecordType::kSnapshotHeader);
  EXPECT_EQ(snapshot->records[1].type, RecordType::kQuantileState);

  // Only the newest two snapshots are retained.
  EXPECT_FALSE(std::filesystem::exists(dir + "/snap-3.ckpt"));
  EXPECT_TRUE(std::filesystem::exists(dir + "/snap-4.ckpt"));
  EXPECT_TRUE(std::filesystem::exists(dir + "/snap-5.ckpt"));
}

TEST(CheckpointWriter, FirstWriteSweepsSnapshotsACrashLeftBehind) {
  const std::string dir = FreshDir("sweep");
  {
    CheckpointWriter writer(dir);
    for (std::uint64_t i = 1; i <= 5; ++i) CommitStub(&writer, i * 100);
  }
  // A crash between a manifest append and its prune leaves an old epoch;
  // a file that is not a snapshot stays whatever its name.
  const std::vector<std::uint8_t> junk = {1, 2, 3};
  WriteFile(dir + "/snap-1.ckpt", junk);
  WriteFile(dir + "/snap-1.ckpt.keep", junk);

  CheckpointWriter writer(dir);
  CommitStub(&writer, 600);
  std::vector<std::string> names;
  for (const auto& dirent : std::filesystem::directory_iterator(dir)) {
    names.push_back(dirent.path().filename().string());
  }
  std::sort(names.begin(), names.end());
  EXPECT_EQ(names, (std::vector<std::string>{kManifestName, "snap-1.ckpt.keep",
                                             "snap-5.ckpt", "snap-6.ckpt"}));
  EXPECT_EQ(LoadLatestSnapshot(dir)->epoch, 6u);
}

TEST(CheckpointWriter, CheckpointSecondsCoverTheEncode) {
  const std::string dir = FreshDir("seconds");
  obs::MetricsRegistry metrics;
  CheckpointWriter writer(dir);
  writer.SetObservability({.metrics = &metrics});
  SnapshotHeader header;
  header.mode = kSnapshotModeQuantile;
  writer.Begin();
  AppendSnapshotHeader(header, writer.BeginRecord(RecordType::kSnapshotHeader));
  writer.EndRecord();
  std::vector<std::uint8_t>* state = writer.BeginRecord(RecordType::kQuantileState);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));  // a slow encode
  state->push_back(0xAB);
  writer.EndRecord();
  ASSERT_TRUE(writer.Commit(100).ok());

  const obs::MetricsSnapshot snapshot = metrics.Snapshot();
  const auto it = std::find_if(
      snapshot.summaries.begin(), snapshot.summaries.end(),
      [](const auto& summary) { return summary.name == "durable.checkpoint_seconds"; });
  ASSERT_NE(it, snapshot.summaries.end());
  EXPECT_EQ(it->count, 1u);
  EXPECT_GE(it->sum, 0.02);
}

TEST(CheckpointWriter, EmptyDirHasNoUsableCheckpoint) {
  const std::string dir = FreshDir("empty");
  const auto snapshot = LoadLatestSnapshot(dir);
  ASSERT_FALSE(snapshot.ok());
  EXPECT_EQ(snapshot.status().code(),
            core::Status::Code::kFailedPrecondition);
  // A directory that does not even exist behaves the same.
  EXPECT_EQ(LoadLatestSnapshot(dir + "/nope").status().code(),
            core::Status::Code::kFailedPrecondition);
}

TEST(CheckpointWriter, TornManifestTailFallsBackAndHeals) {
  const std::string dir = FreshDir("torn");
  {
    CheckpointWriter writer(dir);
    CommitStub(&writer, 100);
    CommitStub(&writer, 200);
  }
  // Simulate a crash mid-append: garbage after the last valid entry.
  const std::string manifest = dir + "/" + kManifestName;
  std::vector<std::uint8_t> bytes = ReadFile(manifest);
  const std::size_t intact = bytes.size();
  bytes.insert(bytes.end(), {0x53, 0x47, 0x44, 0x52, 0xFF, 0xEE});
  WriteFile(manifest, bytes);

  // Readers truncate at the torn record and still see epoch 2.
  EXPECT_EQ(ReadManifest(dir).size(), 2u);
  auto snapshot = LoadLatestSnapshot(dir);
  ASSERT_TRUE(snapshot.ok());
  EXPECT_EQ(snapshot->epoch, 2u);

  // A restarted writer heals the file (truncates the torn tail) before
  // appending, so its new commits stay visible to readers.
  CheckpointWriter writer(dir);
  CommitStub(&writer, 300);
  EXPECT_EQ(ReadFile(manifest).size(), intact + intact / 2);
  const auto entries = ReadManifest(dir);
  ASSERT_EQ(entries.size(), 3u);
  EXPECT_EQ(entries.back().epoch, 3u);
  snapshot = LoadLatestSnapshot(dir);
  ASSERT_TRUE(snapshot.ok());
  EXPECT_EQ(snapshot->epoch, 3u);
}

TEST(CheckpointWriter, CorruptedNewestSnapshotFallsBackOneEpoch) {
  const std::string dir = FreshDir("fallback");
  CheckpointWriter writer(dir);
  CommitStub(&writer, 100);
  CommitStub(&writer, 200);

  std::vector<std::uint8_t> bytes = ReadFile(dir + "/snap-2.ckpt");
  bytes[bytes.size() / 2] ^= 0x01;
  WriteFile(dir + "/snap-2.ckpt", bytes);

  auto snapshot = LoadLatestSnapshot(dir);
  ASSERT_TRUE(snapshot.ok());
  EXPECT_EQ(snapshot->epoch, 1u);
  EXPECT_EQ(snapshot->watermark, 100u);
}

TEST(CheckpointWriter, StrayTmpFilesAreCleanedUpOnRestart) {
  const std::string dir = FreshDir("tmp");
  {
    CheckpointWriter writer(dir);
    CommitStub(&writer, 100);
  }
  const std::vector<std::uint8_t> junk = {1, 2, 3};
  WriteFile(dir + "/snap-2.ckpt.tmp", junk);
  CheckpointWriter writer(dir);
  CommitStub(&writer, 200);
  EXPECT_FALSE(std::filesystem::exists(dir + "/snap-2.ckpt.tmp"));
  EXPECT_EQ(LoadLatestSnapshot(dir)->epoch, 2u);
}

TEST(CheckpointWriter, FailedCommitLeavesThePendingSnapshotForARetry) {
  const std::string dir = FreshDir("retry");
  CheckpointWriter writer(dir);
  CommitStub(&writer, 100);

  // A non-empty directory at epoch 2's .tmp path makes the snapshot write
  // fail (open: Is a directory).
  const std::string blocker = dir + "/snap-2.ckpt.tmp";
  std::filesystem::create_directories(blocker + "/occupied");
  StageStub(&writer);
  EXPECT_FALSE(writer.Commit(200).ok());
  EXPECT_EQ(writer.commits(), 1u);

  // The failed attempt took its footer off again: the retry commits one
  // well-formed snapshot, not one with two footers.
  std::filesystem::remove_all(blocker);
  ASSERT_TRUE(writer.Commit(200).ok());
  const auto entries = ReadManifest(dir);
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries.back().epoch, 2u);
  auto snapshot = LoadLatestSnapshot(dir);
  ASSERT_TRUE(snapshot.ok());
  EXPECT_EQ(snapshot->epoch, 2u);
  EXPECT_EQ(snapshot->watermark, 200u);
  EXPECT_EQ(snapshot->records.size(), 2u);
}

TEST(CheckpointWriter, FailedManifestAppendLeavesNoTornTailForARetry) {
  const std::string dir = FreshDir("torn_manifest");
  const std::string manifest = dir + "/" + kManifestName;
  CheckpointWriter writer(dir);
  CommitStub(&writer, 100);
  const std::uintmax_t snapshot_bytes = std::filesystem::file_size(dir + "/snap-1.ckpt");
  const std::uintmax_t record_bytes = std::filesystem::file_size(manifest);
  // The file size limit below must let the snapshot through and cut the
  // manifest append short, so the manifest has to outgrow a snapshot first.
  std::uint64_t watermark = 100;
  while (std::filesystem::file_size(manifest) < snapshot_bytes) {
    watermark += 100;
    CommitStub(&writer, watermark);
  }
  const std::uint64_t commits = writer.commits();

  // Half a record past the manifest's end: the append writes short, and its
  // next write fails with EFBIG instead of raising SIGXFSZ.
  rlimit saved{};
  ASSERT_EQ(::getrlimit(RLIMIT_FSIZE, &saved), 0);
  rlimit lowered = saved;
  lowered.rlim_cur = static_cast<rlim_t>(commits * record_bytes + record_bytes / 2);
  const auto handler = std::signal(SIGXFSZ, SIG_IGN);
  StageStub(&writer);
  ASSERT_EQ(::setrlimit(RLIMIT_FSIZE, &lowered), 0);
  const core::Status failed = writer.Commit(watermark + 100);
  ASSERT_EQ(::setrlimit(RLIMIT_FSIZE, &saved), 0);
  std::signal(SIGXFSZ, handler);
  EXPECT_FALSE(failed.ok());
  EXPECT_EQ(writer.commits(), commits);
  EXPECT_EQ(std::filesystem::file_size(manifest), commits * record_bytes);

  // The retry's entry follows the last whole one, so readers see it.
  ASSERT_TRUE(writer.Commit(watermark + 100).ok());
  EXPECT_EQ(ReadManifest(dir).size(), commits + 1);
  auto snapshot = LoadLatestSnapshot(dir);
  ASSERT_TRUE(snapshot.ok());
  EXPECT_EQ(snapshot->epoch, commits + 1);
  EXPECT_EQ(snapshot->watermark, watermark + 100);
}

/// Stages a header and `records` state records of about 60 KiB each — a
/// snapshot several times kSnapshotFlushBytes — and returns the same records
/// framed into one buffer, followed by the footer Commit(watermark) appends.
/// After each record, `tmp` (when set) must hold all but less than one flush
/// size of what the writer has closed: the records stream as they close.
std::vector<std::uint8_t> StageLarge(CheckpointWriter* writer, std::size_t records,
                                     std::uint64_t watermark,
                                     const std::string& tmp = "") {
  SnapshotHeader header;
  header.mode = kSnapshotModeQuantile;
  header.epsilon = 0.01;
  std::vector<std::uint8_t> framed;
  std::vector<std::uint8_t> payload;
  AppendSnapshotHeader(header, &payload);
  writer->Begin();
  AppendSnapshotHeader(header, writer->BeginRecord(RecordType::kSnapshotHeader));
  writer->EndRecord();
  AppendRecord(RecordType::kSnapshotHeader, payload, &framed);
  for (std::size_t r = 0; r < records; ++r) {
    payload.assign((60 << 10) + r * 997, 0);
    for (std::size_t i = 0; i < payload.size(); ++i) {
      payload[i] = static_cast<std::uint8_t>((i * 131 + r * 29) >> 3);
    }
    std::vector<std::uint8_t>* out = writer->BeginRecord(RecordType::kQuantileState);
    out->insert(out->end(), payload.begin(), payload.end());
    writer->EndRecord();
    AppendRecord(RecordType::kQuantileState, payload, &framed);
    if (!tmp.empty()) {
      const std::uintmax_t on_disk =
          std::filesystem::exists(tmp) ? std::filesystem::file_size(tmp) : 0;
      EXPECT_LT(framed.size() - on_disk, kSnapshotFlushBytes) << "record " << r;
    }
  }
  std::vector<std::uint8_t> footer;
  wire::Append<std::uint64_t>(&footer, records + 1);
  wire::Append<std::uint64_t>(&footer, watermark);
  AppendRecord(RecordType::kSnapshotFooter, footer, &framed);
  return framed;
}

/// The newest manifest entry describes exactly `snapshot` at `epoch`.
void ExpectPublished(const std::string& dir, std::uint64_t epoch,
                     std::span<const std::uint8_t> snapshot, std::size_t entries) {
  const auto manifest = ReadManifest(dir);
  ASSERT_EQ(manifest.size(), entries);
  EXPECT_EQ(manifest.back().epoch, epoch);
  EXPECT_EQ(manifest.back().snapshot_size, snapshot.size());
  EXPECT_EQ(manifest.back().snapshot_crc, sketch::Crc32(snapshot));
  const std::string path = dir + "/snap-" + std::to_string(epoch) + ".ckpt";
  EXPECT_TRUE(ReadFile(path) == std::vector<std::uint8_t>(snapshot.begin(), snapshot.end()))
      << path;
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
}

TEST(CheckpointWriter, StreamedSnapshotEqualsOneBufferFraming) {
  const std::string dir = FreshDir("streamed");
  CheckpointWriter writer(dir);
  const std::vector<std::uint8_t> expected =
      StageLarge(&writer, 24, 700, dir + "/snap-1.ckpt.tmp");
  ASSERT_GT(expected.size(), 5 * kSnapshotFlushBytes);
  ASSERT_TRUE(writer.Commit(700).ok());
  EXPECT_EQ(writer.last_snapshot_bytes(), expected.size());
  ExpectPublished(dir, 1, expected, 1);
  auto snapshot = LoadLatestSnapshot(dir);
  ASSERT_TRUE(snapshot.ok());
  EXPECT_EQ(snapshot->records.size(), 25u);

  // The buffer is reused: a second streamed snapshot commits as exactly.
  const std::vector<std::uint8_t> again =
      StageLarge(&writer, 12, 800, dir + "/snap-2.ckpt.tmp");
  ASSERT_TRUE(writer.Commit(800).ok());
  ExpectPublished(dir, 2, again, 2);
}

TEST(CheckpointWriter, BlockedTmpBeforeTheFirstFlushRetries) {
  const std::string dir = FreshDir("blocked_stream");
  CheckpointWriter writer(dir);
  CommitStub(&writer, 100);

  // The first flush cannot open epoch 2's .tmp (a non-empty directory), so
  // every record stays buffered and Commit reports the failure.
  const std::string blocker = dir + "/snap-2.ckpt.tmp";
  std::filesystem::create_directories(blocker + "/occupied");
  const std::vector<std::uint8_t> expected = StageLarge(&writer, 12, 200);
  EXPECT_FALSE(writer.Commit(200).ok());
  EXPECT_EQ(writer.commits(), 1u);
  EXPECT_EQ(ReadManifest(dir).size(), 1u);

  std::filesystem::remove_all(blocker);
  ASSERT_TRUE(writer.Commit(200).ok());
  ExpectPublished(dir, 2, expected, 2);

  // The failure does not outlive its snapshot: the next one streams again.
  const std::vector<std::uint8_t> next =
      StageLarge(&writer, 12, 300, dir + "/snap-3.ckpt.tmp");
  ASSERT_TRUE(writer.Commit(300).ok());
  ExpectPublished(dir, 3, next, 3);
}

TEST(CheckpointWriter, WriteCutShortMidStreamResumesAtTheLastOffset) {
  const std::string dir = FreshDir("cut_stream");
  const std::string tmp = dir + "/snap-2.ckpt.tmp";
  CheckpointWriter writer(dir);
  CommitStub(&writer, 100);

  // A file size limit one and a half flush sizes in: the second streamed
  // write stops there, and the commit's write fails with EFBIG (SIGXFSZ
  // ignored).
  const std::uint64_t limit = kSnapshotFlushBytes * 3 / 2;
  rlimit saved{};
  ASSERT_EQ(::getrlimit(RLIMIT_FSIZE, &saved), 0);
  rlimit lowered = saved;
  lowered.rlim_cur = static_cast<rlim_t>(limit);
  const auto handler = std::signal(SIGXFSZ, SIG_IGN);
  ASSERT_EQ(::setrlimit(RLIMIT_FSIZE, &lowered), 0);
  const std::vector<std::uint8_t> expected = StageLarge(&writer, 12, 200);
  const std::uintmax_t streamed =
      std::filesystem::exists(tmp) ? std::filesystem::file_size(tmp) : 0;
  const core::Status failed = writer.Commit(200);
  ASSERT_EQ(::setrlimit(RLIMIT_FSIZE, &saved), 0);
  std::signal(SIGXFSZ, handler);
  EXPECT_EQ(streamed, limit);
  EXPECT_FALSE(failed.ok());
  EXPECT_EQ(writer.commits(), 1u);
  EXPECT_EQ(ReadManifest(dir).size(), 1u);

  ASSERT_TRUE(writer.Commit(200).ok());
  ExpectPublished(dir, 2, expected, 2);
}

TEST(CheckpointWriter, FailedTmpFsyncDropsTheSnapshotUntilBegin) {
  // fsync of a character device fails (EINVAL) after its writes succeed, so
  // a .tmp path linked to /dev/null fails the commit at the .tmp's fsync.
  const int null_fd = ::open("/dev/null", O_WRONLY | O_CLOEXEC);
  if (null_fd < 0) GTEST_SKIP() << "no /dev/null";
  const bool null_fsync_fails = ::fsync(null_fd) != 0;
  ::close(null_fd);
  if (!null_fsync_fails) GTEST_SKIP() << "fsync of /dev/null succeeds here";

  const std::string dir = FreshDir("fsync_stream");
  const std::string tmp = dir + "/snap-2.ckpt.tmp";
  CheckpointWriter writer(dir);
  CommitStub(&writer, 100);
  std::filesystem::create_symlink("/dev/null", tmp);
  (void)StageLarge(&writer, 12, 200);
  EXPECT_EQ(writer.Commit(200).code(), core::Status::Code::kInternal);
  EXPECT_FALSE(std::filesystem::is_symlink(tmp));

  // The pieces written before a failed fsync may never reach the disk, so
  // no retry may publish them: only a snapshot started by Begin() commits.
  EXPECT_EQ(writer.Commit(200).code(), core::Status::Code::kFailedPrecondition);
  EXPECT_EQ(writer.commits(), 1u);
  EXPECT_EQ(ReadManifest(dir).size(), 1u);
  const std::vector<std::uint8_t> expected = StageLarge(&writer, 12, 200, tmp);
  ASSERT_TRUE(writer.Commit(200).ok());
  ExpectPublished(dir, 2, expected, 2);
}

TEST(CheckpointWriter, BeginAfterAPartlyStreamedSnapshotStartsClean) {
  const std::string dir = FreshDir("restart_stream");
  const std::string tmp = dir + "/snap-1.ckpt.tmp";
  CheckpointWriter writer(dir);
  (void)StageLarge(&writer, 12, 100, tmp);
  ASSERT_TRUE(std::filesystem::exists(tmp));
  EXPECT_GT(std::filesystem::file_size(tmp), kSnapshotFlushBytes);

  // Begin drops the streamed records and their .tmp; the stub alone commits.
  writer.Begin();
  EXPECT_FALSE(std::filesystem::exists(tmp));
  CommitStub(&writer, 100);
  const auto snapshot = LoadLatestSnapshot(dir);
  ASSERT_TRUE(snapshot.ok());
  EXPECT_EQ(snapshot->epoch, 1u);
  ASSERT_EQ(snapshot->records.size(), 2u);
  EXPECT_EQ(snapshot->records[1].payload, (std::vector<std::uint8_t>{0xAB, 0xCD}));
  EXPECT_EQ(writer.last_snapshot_bytes(), std::filesystem::file_size(dir + "/snap-1.ckpt"));
}

TEST(CheckpointWriter, ParseSnapshotRejectsStructuralViolations) {
  std::vector<std::uint8_t> header_payload;
  AppendSnapshotHeader(SnapshotHeader{}, &header_payload);
  std::vector<std::uint8_t> footer;
  wire::Append<std::uint64_t>(&footer, 1);
  wire::Append<std::uint64_t>(&footer, 42);

  // No header first.
  std::vector<std::uint8_t> no_header;
  AppendRecord(RecordType::kQuantileState, {}, &no_header);
  EXPECT_FALSE(ParseSnapshot(no_header).ok());

  // Missing footer.
  std::vector<std::uint8_t> no_footer;
  AppendRecord(RecordType::kSnapshotHeader, header_payload, &no_footer);
  EXPECT_FALSE(ParseSnapshot(no_footer).ok());

  // Footer record count disagrees with the body.
  std::vector<std::uint8_t> miscounted;
  AppendRecord(RecordType::kSnapshotHeader, header_payload, &miscounted);
  AppendRecord(RecordType::kQuantileState, {}, &miscounted);
  AppendRecord(RecordType::kSnapshotFooter, footer, &miscounted);  // claims 1
  EXPECT_FALSE(ParseSnapshot(miscounted).ok());

  // Bytes after the footer.
  std::vector<std::uint8_t> trailing;
  AppendRecord(RecordType::kSnapshotHeader, header_payload, &trailing);
  AppendRecord(RecordType::kSnapshotFooter, footer, &trailing);
  AppendRecord(RecordType::kWindowBuffer, {}, &trailing);
  EXPECT_FALSE(ParseSnapshot(trailing).ok());

  // Manifest entries do not belong inside snapshots.
  std::vector<std::uint8_t> manifest_inside;
  AppendRecord(RecordType::kSnapshotHeader, header_payload, &manifest_inside);
  AppendRecord(RecordType::kManifestEntry, {}, &manifest_inside);
  AppendRecord(RecordType::kSnapshotFooter, footer, &manifest_inside);
  EXPECT_FALSE(ParseSnapshot(manifest_inside).ok());
}

TEST(CheckpointWriterDeathTest, CrashPointsAbortAtTheNamedStep) {
  // Fork-style death tests: the child inherits the parent's state and runs
  // only the statement, so the directory the kill mutates is the same one
  // the recovery assertions below inspect.
  ::testing::FLAGS_gtest_death_test_style = "fast";
  for (const char* point :
       {"snapshot-partial", "pre-rename", "pre-manifest", "manifest-partial"}) {
    const std::string dir = FreshDir(std::string("crash_") + point);
    ASSERT_EQ(::setenv("STREAMGPU_DURABLE_CRASH_AT",
                       (std::string(point) + ":1").c_str(), 1),
              0);
    EXPECT_EXIT(
        {
          CheckpointWriter writer(dir);
          CommitStub(&writer, 100);  // ordinal 0: commits normally
          CommitStub(&writer, 200);  // ordinal 1: aborts at `point`
        },
        ::testing::ExitedWithCode(42), "")
        << point;
    ::unsetenv("STREAMGPU_DURABLE_CRASH_AT");
    // Whatever the kill left behind, epoch 1 is always recoverable — and
    // pre-manifest/manifest-partial kills may still surface epoch 2.
    auto snapshot = LoadLatestSnapshot(dir);
    ASSERT_TRUE(snapshot.ok()) << point;
    EXPECT_GE(snapshot->epoch, 1u) << point;
    // A restarted writer recovers and commits past the crash.
    CheckpointWriter writer(dir);
    CommitStub(&writer, 300);
    EXPECT_TRUE(LoadLatestSnapshot(dir).ok()) << point;
  }
}

// ---------------------------------------------------------------------------
// Estimator checkpoint/restore bit-identity

core::Options EstimatorOptions(const std::string& dir,
                               sketch::QuantileSketchKind kind, int workers) {
  core::Options opt;
  opt.epsilon = 0.01;
  opt.quantile_sketch = kind;
  opt.num_sort_workers = workers;
  opt.checkpoint_dir = dir;
  return opt;
}

void ExpectQuantileBitIdentity(sketch::QuantileSketchKind kind, int workers) {
  SCOPED_TRACE(testing::Message() << "kind=" << static_cast<int>(kind)
                                  << " workers=" << workers);
  const std::vector<float> stream = MakeStream(20000, 7);
  const std::string dir =
      FreshDir("qe_" + std::to_string(static_cast<int>(kind)) + "_" +
               std::to_string(workers));

  core::Options ref_opt = EstimatorOptions("", kind, workers);
  auto ref = core::QuantileEstimator::Create(ref_opt);
  ASSERT_TRUE(ref.ok());
  ASSERT_TRUE((*ref)->ObserveBatch(stream).ok());
  ASSERT_TRUE((*ref)->Flush().ok());

  // Observe a prefix that is deliberately not a window multiple, checkpoint,
  // throw the estimator away, restore, and replay the suffix.
  const std::size_t cut = 12345;
  {
    auto first = core::QuantileEstimator::Create(EstimatorOptions(dir, kind, workers));
    ASSERT_TRUE(first.ok());
    ASSERT_TRUE(
        (*first)->ObserveBatch(std::span(stream).first(cut)).ok());
    ASSERT_TRUE((*first)->Checkpoint().ok());
  }
  auto restored = core::QuantileEstimator::Restore(EstimatorOptions(dir, kind, workers));
  ASSERT_TRUE(restored.ok()) << restored.status().message();
  const std::uint64_t watermark = (*restored)->observed_length();
  EXPECT_EQ(watermark, cut);
  ASSERT_TRUE(
      (*restored)->ObserveBatch(std::span(stream).subspan(watermark)).ok());
  ASSERT_TRUE((*restored)->Flush().ok());

  for (double phi : {0.1, 0.5, 0.9, 0.99}) {
    EXPECT_EQ((*restored)->Quantile(phi), (*ref)->Quantile(phi)) << "phi " << phi;
  }
  // The mergeable shard export is byte-identical too (restore-then-merge).
  const auto ref_bytes = (*ref)->SerializedSummary();
  const auto restored_bytes = (*restored)->SerializedSummary();
  ASSERT_TRUE(ref_bytes.ok());
  ASSERT_TRUE(restored_bytes.ok());
  EXPECT_EQ(*restored_bytes, *ref_bytes);
}

TEST(QuantileRestore, BitIdenticalAcrossKindsAndWorkers) {
  for (auto kind : {sketch::QuantileSketchKind::kGk,
                    sketch::QuantileSketchKind::kGkAdaptive,
                    sketch::QuantileSketchKind::kKll}) {
    ExpectQuantileBitIdentity(kind, 1);
  }
  ExpectQuantileBitIdentity(sketch::QuantileSketchKind::kGk, 3);
  ExpectQuantileBitIdentity(sketch::QuantileSketchKind::kKll, 3);
}

TEST(QuantileRestore, AutoCheckpointCadenceAndMidStreamKill) {
  const std::vector<float> stream = MakeStream(30000, 11);
  const std::string dir = FreshDir("qe_auto");

  core::Options opt = EstimatorOptions(dir, sketch::QuantileSketchKind::kGk, 1);
  opt.checkpoint_every_windows = 16;
  auto first = core::QuantileEstimator::Create(opt);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE((*first)->ObserveBatch(stream).ok());
  EXPECT_GT((*first)->checkpoints(), 1u);
  // Simulate a kill before Flush: simply drop the estimator. The newest
  // auto-checkpoint restores and replays to the same final answer.
  const std::uint64_t lost = (*first)->observed_length();
  first->reset();

  auto restored = core::QuantileEstimator::Restore(opt);
  ASSERT_TRUE(restored.ok());
  EXPECT_LE((*restored)->observed_length(), lost);
  ASSERT_TRUE(
      (*restored)
          ->ObserveBatch(std::span(stream).subspan((*restored)->observed_length()))
          .ok());
  ASSERT_TRUE((*restored)->Flush().ok());

  auto ref = core::QuantileEstimator::Create(
      EstimatorOptions("", sketch::QuantileSketchKind::kGk, 1));
  ASSERT_TRUE(ref.ok());
  ASSERT_TRUE((*ref)->ObserveBatch(stream).ok());
  ASSERT_TRUE((*ref)->Flush().ok());
  EXPECT_EQ((*restored)->Quantile(0.5), (*ref)->Quantile(0.5));
}

TEST(QuantileRestore, HostBatchesEndOnTheCheckpointCadence) {
  // A host backend batches 32 windows, yet automatic checkpoints still land
  // every 37 windows: the cadence ends a batch early.
  const std::string dir = FreshDir("qe_host_cadence");
  core::Options opt = EstimatorOptions(dir, sketch::QuantileSketchKind::kGk, 1);
  opt.backend = core::Backend::kCpuRadixMerge;
  opt.checkpoint_every_windows = 37;
  auto estimator = core::QuantileEstimator::Create(opt);
  ASSERT_TRUE(estimator.ok());
  ASSERT_TRUE((*estimator)->ObserveBatch(MakeStream(100 * 100, 29)).ok());  // 100 windows
  EXPECT_EQ((*estimator)->checkpoints(), 2u);
  auto snapshot = LoadLatestSnapshot(dir);
  ASSERT_TRUE(snapshot.ok());
  EXPECT_EQ(snapshot.value().watermark, 74u * 100u);
}

TEST(QuantileRestore, PersistsQuarantineAccounting) {
  // Quarantine windows (bitflip plan, CPU fallback off), checkpoint after
  // the full stream, restore with nothing to replay: the honestly-widened
  // bounds must survive the round trip.
  const std::vector<float> stream = MakeStream(20000, 13);
  const std::string dir = FreshDir("qe_quarantine");
  core::Options opt = EstimatorOptions(dir, sketch::QuantileSketchKind::kGk, 1);
  auto plan = core::FaultPlan::Parse("pass:bitflip:every=3", 1);
  ASSERT_TRUE(plan.ok());
  opt.fault.plan = *plan;
  opt.fault.max_retries = 0;
  opt.fault.cpu_fallback = false;

  auto first = core::QuantileEstimator::Create(opt);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE((*first)->ObserveBatch(stream).ok());
  ASSERT_TRUE((*first)->Checkpoint().ok());
  ASSERT_TRUE((*first)->Flush().ok());
  const core::QuantileReport before = (*first)->Quantile(0.5);
  ASSERT_GT(before.windows_quarantined, 0u);
  ASSERT_GT(before.elements_dropped, 0u);

  auto restored = core::QuantileEstimator::Restore(opt);
  ASSERT_TRUE(restored.ok()) << restored.status().message();
  ASSERT_TRUE((*restored)->Flush().ok());
  const core::QuantileReport after = (*restored)->Quantile(0.5);
  EXPECT_EQ(after.windows_quarantined, before.windows_quarantined);
  EXPECT_EQ(after.elements_dropped, before.elements_dropped);
  EXPECT_EQ(after, before);
}

/// Commits a quantile-estimator snapshot for `opt` over an empty summary
/// whose window-buffer record stages `staged` elements.
void CommitStagedSnapshot(const core::Options& opt, std::uint64_t window,
                          std::size_t staged) {
  core::QuantileSummaryCore empty(opt.epsilon, window, 0, opt.expected_stream_length);
  CheckpointWriter writer(opt.checkpoint_dir);
  writer.Begin();
  SnapshotHeader header;
  header.mode = kSnapshotModeQuantile;
  header.kind = static_cast<std::uint16_t>(sketch::QuantileSketchKind::kGk);
  header.epsilon = opt.epsilon;
  header.window_size = window;
  header.aux = opt.expected_stream_length;
  AppendSnapshotHeader(header, writer.BeginRecord(RecordType::kSnapshotHeader));
  writer.EndRecord();
  ASSERT_TRUE(empty.AppendCheckpointState(writer.BeginRecord(RecordType::kQuantileState)).ok());
  writer.EndRecord();
  const std::vector<float> values(staged, 1.0f);
  AppendWindowBuffer(values, writer.BeginRecord(RecordType::kWindowBuffer));
  writer.EndRecord();
  ASSERT_TRUE(writer.Commit(staged).ok());
}

TEST(QuantileRestore, StagedBufferIsBoundedByOnePackingUnit) {
  // A checkpoint stages less than one packing unit: a host backend's
  // partial window (Checkpoint() submits its whole windows first), less
  // than one RGBA texture of four windows on PBSN. Restore holds a staged
  // buffer to that, however many windows a batch carries.
  const std::uint64_t window = 100;  // epsilon 0.01
  for (const auto& [backend, unit] : {std::pair{core::Backend::kCpuRadixMerge, 1},
                                      std::pair{core::Backend::kGpuPbsn, 4}}) {
    for (const std::size_t staged : {unit * window - 1, unit * window}) {
      SCOPED_TRACE(testing::Message() << core::BackendName(backend) << " staged=" << staged);
      core::Options opt = EstimatorOptions(
          FreshDir("qe_staged_" + std::to_string(unit) + "_" + std::to_string(staged)),
          sketch::QuantileSketchKind::kGk, 1);
      opt.backend = backend;
      CommitStagedSnapshot(opt, window, staged);
      auto restored = core::QuantileEstimator::Restore(opt);
      if (staged == unit * window) {
        EXPECT_EQ(restored.status().code(), core::Status::Code::kInvalidArgument);
        continue;
      }
      ASSERT_TRUE(restored.ok()) << restored.status().message();
      EXPECT_EQ((*restored)->observed_length(), staged);
      ASSERT_TRUE((*restored)->Flush().ok());
      EXPECT_EQ((*restored)->processed_length(), staged);
    }
  }
}

TEST(QuantileRestore, RejectsConfigurationMismatch) {
  const std::vector<float> stream = MakeStream(5000, 17);
  const std::string dir = FreshDir("qe_mismatch");
  core::Options opt = EstimatorOptions(dir, sketch::QuantileSketchKind::kGk, 1);
  auto first = core::QuantileEstimator::Create(opt);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE((*first)->ObserveBatch(stream).ok());
  ASSERT_TRUE((*first)->Checkpoint().ok());

  core::Options wrong_eps = opt;
  wrong_eps.epsilon = 0.02;
  EXPECT_EQ(core::QuantileEstimator::Restore(wrong_eps).status().code(),
            core::Status::Code::kInvalidArgument);
  core::Options wrong_kind = opt;
  wrong_kind.quantile_sketch = sketch::QuantileSketchKind::kKll;
  EXPECT_EQ(core::QuantileEstimator::Restore(wrong_kind).status().code(),
            core::Status::Code::kInvalidArgument);
  // A frequency restore must refuse a quantile snapshot outright.
  EXPECT_EQ(core::FrequencyEstimator::Restore(opt).status().code(),
            core::Status::Code::kInvalidArgument);
  // And restoring without a directory is a caller error.
  core::Options no_dir = opt;
  no_dir.checkpoint_dir.clear();
  EXPECT_EQ(core::QuantileEstimator::Restore(no_dir).status().code(),
            core::Status::Code::kInvalidArgument);
}

TEST(FrequencyRestore, BitIdenticalHeavyHitters) {
  const std::vector<float> stream = MakeStream(20000, 19);
  const std::string dir = FreshDir("fe");
  core::Options opt;
  opt.epsilon = 0.01;
  opt.checkpoint_dir = dir;

  core::Options ref_opt = opt;
  ref_opt.checkpoint_dir.clear();
  auto ref = core::FrequencyEstimator::Create(ref_opt);
  ASSERT_TRUE(ref.ok());
  ASSERT_TRUE((*ref)->ObserveBatch(stream).ok());
  ASSERT_TRUE((*ref)->Flush().ok());

  const std::size_t cut = 9876;
  {
    auto first = core::FrequencyEstimator::Create(opt);
    ASSERT_TRUE(first.ok());
    ASSERT_TRUE((*first)->ObserveBatch(std::span(stream).first(cut)).ok());
    ASSERT_TRUE((*first)->Checkpoint().ok());
  }
  auto restored = core::FrequencyEstimator::Restore(opt);
  ASSERT_TRUE(restored.ok()) << restored.status().message();
  EXPECT_EQ((*restored)->observed_length(), cut);
  ASSERT_TRUE((*restored)->ObserveBatch(std::span(stream).subspan(cut)).ok());
  ASSERT_TRUE((*restored)->Flush().ok());

  EXPECT_EQ((*restored)->HeavyHitters(0.01), (*ref)->HeavyHitters(0.01));
  EXPECT_EQ((*restored)->HeavyHitters(0.05), (*ref)->HeavyHitters(0.05));
}

// ---------------------------------------------------------------------------
// Structured corruption corpus over a real estimator snapshot: restore must
// fail with Status (or, for byte-equivalent mutations, succeed) — never
// crash. The manifest is re-pointed at each mutant so the mutation reaches
// the layers behind the manifest's size/CRC screen.

class CorruptionCorpus : public ::testing::Test {
 protected:
  void SetUp() override {
    Snapshot(EstimatorOptions(FreshDir("corpus"), sketch::QuantileSketchKind::kGk, 1),
             /*frequency=*/false);
  }

  /// Makes the pristine snapshot: a quantile (or, with `frequency`, a
  /// frequency) estimator under `opt` checkpointed after 3,210 elements, an
  /// off-window cut, so it carries a staged partial window.
  void Snapshot(const core::Options& opt, bool frequency) {
    opt_ = opt;
    frequency_ = frequency;
    dir_ = opt.checkpoint_dir;
    const std::vector<float> stream = MakeStream(4000, 23);
    const auto checkpoint = [&](auto estimator) {
      ASSERT_TRUE(estimator.ok());
      ASSERT_TRUE((*estimator)->ObserveBatch(std::span(stream).first(3210)).ok());
      ASSERT_TRUE((*estimator)->Checkpoint().ok());
    };
    if (frequency) {
      checkpoint(core::FrequencyEstimator::Create(opt_));
    } else {
      checkpoint(core::QuantileEstimator::Create(opt_));
    }
    snap_path_ = dir_ + "/snap-1.ckpt";
    pristine_ = ReadFile(snap_path_);
    ASSERT_FALSE(pristine_.empty());
    watermark_ = 3210;
  }

  /// Installs `mutant` as the (manifest-blessed) newest snapshot and runs a
  /// restore. The assertion that matters is implicit: no crash, no ASan
  /// report — corruption surfaces as Status.
  core::Status RestoreMutant(std::span<const std::uint8_t> mutant) {
    WriteFile(snap_path_, mutant);
    PointManifestAt(dir_, 1, mutant, watermark_);
    if (frequency_) {
      auto restored = core::FrequencyEstimator::Restore(opt_);
      return restored.ok() ? core::Status::Ok() : restored.status();
    }
    auto restored = core::QuantileEstimator::Restore(opt_);
    return restored.ok() ? core::Status::Ok() : restored.status();
  }

  /// The pristine snapshot's payload of the record of `type`.
  std::vector<std::uint8_t> Payload(RecordType type) const {
    auto parsed = ParseSnapshot(pristine_);
    EXPECT_TRUE(parsed.ok());
    for (const OwnedRecord& record : parsed->records) {
      if (record.type == type) return record.payload;
    }
    ADD_FAILURE() << "no " << RecordTypeName(type) << " record";
    return {};
  }

  /// The pristine snapshot's kQuantileState payload.
  std::vector<std::uint8_t> QuantileState() const {
    return Payload(RecordType::kQuantileState);
  }

  /// The pristine snapshot with `payload` as the payload of its record of
  /// `type`, framed and footed like the original, so the mutation reaches
  /// that record's own decoder.
  std::vector<std::uint8_t> WithPayload(RecordType type,
                                        std::span<const std::uint8_t> payload) const {
    auto parsed = ParseSnapshot(pristine_);
    EXPECT_TRUE(parsed.ok());
    std::vector<std::uint8_t> mutant;
    for (const OwnedRecord& record : parsed->records) {
      AppendRecord(record.type,
                   record.type == type ? payload
                                       : std::span<const std::uint8_t>(record.payload),
                   &mutant);
    }
    std::vector<std::uint8_t> footer;
    wire::Append<std::uint64_t>(&footer, parsed->records.size());
    wire::Append<std::uint64_t>(&footer, watermark_);
    AppendRecord(RecordType::kSnapshotFooter, footer, &mutant);
    return mutant;
  }

  std::vector<std::uint8_t> WithQuantileState(std::span<const std::uint8_t> state) const {
    return WithPayload(RecordType::kQuantileState, state);
  }

  std::string dir_;
  std::string snap_path_;
  core::Options opt_;
  bool frequency_ = false;
  std::vector<std::uint8_t> pristine_;
  std::uint64_t watermark_ = 0;
};

/// One slot of the GK+EH state inside a kQuantileState payload. The payload
/// is four u64 summary-core counters, then the GK state: count u64, slot
/// count u32, and per slot a tag byte — 0 vacant; 1 and a GK envelope; 2
/// and an exact run, its length u64 and f32 values.
struct GkSlot {
  std::uint8_t tag = 0;
  std::size_t begin = 0;  ///< offset of the tag byte
  std::size_t end = 0;    ///< offset past the slot's body
};

std::vector<GkSlot> GkSlots(std::span<const std::uint8_t> payload) {
  constexpr std::size_t kPrefix = 5 * sizeof(std::uint64_t);
  std::vector<GkSlot> out;
  if (payload.size() < kPrefix) {
    ADD_FAILURE() << "quantile state shorter than its counters";
    return out;
  }
  std::span<const std::uint8_t> in = payload.subspan(kPrefix);
  std::uint32_t slots = 0;
  EXPECT_TRUE(wire::Read(&in, &slots));
  for (std::uint32_t i = 0; i < slots; ++i) {
    GkSlot slot;
    slot.begin = payload.size() - in.size();
    EXPECT_TRUE(wire::Read(&in, &slot.tag));
    if (slot.tag == 1) {
      EXPECT_TRUE(sketch::DeserializeGkSummary(&in).ok());
    } else if (slot.tag == 2) {
      std::uint64_t n = 0;
      EXPECT_TRUE(wire::Read(&in, &n));
      EXPECT_LE(n, in.size() / sizeof(float));
      in = in.subspan(std::min<std::size_t>(in.size(), n * sizeof(float)));
    }
    slot.end = payload.size() - in.size();
    out.push_back(slot);
  }
  EXPECT_TRUE(in.empty());
  return out;
}

TEST_F(CorruptionCorpus, PristineSnapshotRestores) {
  EXPECT_TRUE(RestoreMutant(pristine_).ok());
}

TEST_F(CorruptionCorpus, BitFlipsNeverCrash) {
  // Every frame byte is covered by header validation or the payload CRC, so
  // a single flipped bit is always rejected. Stride through the file plus
  // hit the first frame exhaustively.
  for (std::size_t i = 0; i < pristine_.size();
       i += (i < kRecordHeaderSize ? 1 : 7)) {
    std::vector<std::uint8_t> mutant = pristine_;
    mutant[i] ^= 1u << (i % 8);
    EXPECT_FALSE(RestoreMutant(mutant).ok()) << "flip at byte " << i;
  }
}

TEST_F(CorruptionCorpus, TruncationsAtEveryRecordBoundaryNeverCrash) {
  // Record boundaries: walk the pristine file.
  std::vector<std::size_t> boundaries = {0};
  std::span<const std::uint8_t> cursor(pristine_);
  while (!cursor.empty()) {
    auto record = ReadRecord(&cursor);
    ASSERT_TRUE(record.ok());
    boundaries.push_back(pristine_.size() - cursor.size());
  }
  ASSERT_GE(boundaries.size(), 3u);
  for (std::size_t boundary : boundaries) {
    if (boundary == pristine_.size()) continue;  // the intact file
    const std::span<const std::uint8_t> mutant(pristine_.data(), boundary);
    EXPECT_FALSE(RestoreMutant(mutant).ok()) << "truncated at " << boundary;
    // Mid-record truncations too (a few bytes past the boundary).
    if (boundary + 3 < pristine_.size()) {
      EXPECT_FALSE(
          RestoreMutant(std::span(pristine_.data(), boundary + 3)).ok());
    }
  }
}

TEST_F(CorruptionCorpus, DuplicatedRecordsNeverCrash) {
  // Re-frame the snapshot with each record duplicated in turn; the footer is
  // rebuilt so the mutation reaches semantic validation, not just framing.
  auto parsed = ParseSnapshot(pristine_);
  ASSERT_TRUE(parsed.ok());
  const std::size_t n = parsed->records.size();
  for (std::size_t dup = 0; dup < n; ++dup) {
    std::vector<std::uint8_t> mutant;
    std::uint64_t body = 0;
    for (std::size_t i = 0; i < n; ++i) {
      AppendRecord(parsed->records[i].type, parsed->records[i].payload, &mutant);
      ++body;
      if (i == dup) {
        AppendRecord(parsed->records[i].type, parsed->records[i].payload,
                     &mutant);
        ++body;
      }
    }
    std::vector<std::uint8_t> footer;
    wire::Append<std::uint64_t>(&footer, body);
    wire::Append<std::uint64_t>(&footer, watermark_);
    AppendRecord(RecordType::kSnapshotFooter, footer, &mutant);
    EXPECT_FALSE(RestoreMutant(mutant).ok()) << "duplicated record " << dup;
  }
}

TEST_F(CorruptionCorpus, WatermarkMismatchIsRejected) {
  // A snapshot whose footer watermark disagrees with the state it carries
  // must not restore (the invariant InstallSnapshot checks).
  auto parsed = ParseSnapshot(pristine_);
  ASSERT_TRUE(parsed.ok());
  std::vector<std::uint8_t> mutant;
  for (const OwnedRecord& record : parsed->records) {
    AppendRecord(record.type, record.payload, &mutant);
  }
  std::vector<std::uint8_t> footer;
  wire::Append<std::uint64_t>(&footer, parsed->records.size());
  wire::Append<std::uint64_t>(&footer, watermark_ + 1);
  AppendRecord(RecordType::kSnapshotFooter, footer, &mutant);
  WriteFile(snap_path_, mutant);
  PointManifestAt(dir_, 1, mutant, watermark_ + 1);
  const auto restored = core::QuantileEstimator::Restore(opt_);
  ASSERT_FALSE(restored.ok());
  EXPECT_EQ(restored.status().code(), core::Status::Code::kInvalidArgument);
}

TEST_F(CorruptionCorpus, BucketEpsilonOverLevelBudgetIsRejected) {
  // A well-formed, CRC-valid snapshot whose GK bucket claims more error
  // than its bucket id's LevelBudget: installed, the stream would state an
  // epsilon*N bound it does not meet, so restore must refuse it. The first
  // present bucket is rewritten as a GK envelope (tag 1) of its tuples at
  // epsilon 0.5; an exact run's tuple i is (run[i], i+1, i+1). Rewritten at
  // its own epsilon, as older snapshots hold a run, it still restores.
  const std::vector<std::uint8_t> state = QuantileState();
  const std::vector<GkSlot> slots = GkSlots(state);
  const auto present = std::ranges::find_if(
      slots, [](const GkSlot& slot) { return slot.tag != 0; });
  ASSERT_NE(present, slots.end());
  std::span<const std::uint8_t> body =
      std::span(state).subspan(present->begin + 1, present->end - present->begin - 1);
  std::vector<sketch::GkTuple> tuples;
  std::uint64_t count = 0;
  double epsilon = 0;
  if (present->tag == 1) {
    auto bucket = sketch::DeserializeGkSummary(&body);
    ASSERT_TRUE(bucket.ok());
    tuples = bucket->tuples();
    count = bucket->count();
    epsilon = bucket->epsilon();
  } else {
    ASSERT_EQ(present->tag, 2);
    ASSERT_TRUE(wire::Read(&body, &count));
    for (std::uint64_t i = 0; i < count; ++i) {
      float value = 0;
      ASSERT_TRUE(wire::Read(&body, &value));
      tuples.push_back({value, i + 1, i + 1});
    }
  }
  const auto rewritten = [&](double bucket_epsilon) {
    sketch::GkSummary bucket;
    EXPECT_TRUE(sketch::GkSummary::FromParts(tuples, count, bucket_epsilon, &bucket));
    std::vector<std::uint8_t> out(state.begin(), state.begin() + present->begin);
    wire::Append<std::uint8_t>(&out, 1);
    EXPECT_TRUE(sketch::SerializeSummary(bucket, &out).ok());
    out.insert(out.end(), state.begin() + present->end, state.end());
    return WithQuantileState(out);
  };

  EXPECT_TRUE(RestoreMutant(rewritten(epsilon)).ok());
  const core::Status status = RestoreMutant(rewritten(0.5));
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), core::Status::Code::kInvalidArgument);
  EXPECT_NE(status.message().find("error budget"), std::string::npos) << status.message();
}

TEST_F(CorruptionCorpus, RunSlotMutantsAreRejected) {
  // An exact run's slot: tag 2, length u64, ascending f32 values. Each
  // mutant is CRC-valid, so the run decoder itself must reject it.
  const std::vector<std::uint8_t> state = QuantileState();
  const std::vector<GkSlot> slots = GkSlots(state);
  const auto run = std::ranges::find_if(
      slots, [](const GkSlot& slot) { return slot.tag == 2; });
  ASSERT_NE(run, slots.end());
  const std::size_t length_at = run->begin + 1;
  const std::size_t values_at = length_at + sizeof(std::uint64_t);
  const std::size_t n = (run->end - values_at) / sizeof(float);
  ASSERT_GE(n, 2u);
  const auto with_length = [&](std::uint64_t length) {
    std::vector<std::uint8_t> mutant = state;
    std::memcpy(mutant.data() + length_at, &length, sizeof(length));
    return mutant;
  };

  // Each mutant with the fragment its rejection names.
  struct Mutant {
    std::string name;
    std::vector<std::uint8_t> state;
    std::string message;
  };
  std::vector<Mutant> mutants;
  {
    std::vector<std::uint8_t> mutant = state;
    mutant[run->begin] = 3;
    mutants.push_back({"tag 3", std::move(mutant), "slot tag 3"});
  }
  {
    std::vector<std::uint8_t> mutant = with_length(0);
    mutant.erase(mutant.begin() + values_at, mutant.begin() + run->end);
    mutants.push_back({"empty run", std::move(mutant), "run length 0 "});
  }
  // Past the payload: one value past what is left, a length whose byte
  // count wraps to 4 in 64 bits, and the largest length.
  const std::uint64_t left = (state.size() - values_at) / sizeof(float);
  for (const std::uint64_t length :
       {left + 1, (std::uint64_t{1} << 62) + 1, ~std::uint64_t{0}}) {
    const std::string name = "run length " + std::to_string(length) + " ";
    mutants.push_back({name, with_length(length), name});
  }
  {
    // Swap the first adjacent pair that is strictly ascending.
    std::vector<std::uint8_t> mutant = state;
    float a = 0;
    float b = 0;
    std::size_t i = 0;
    for (; i + 1 < n; ++i) {
      std::memcpy(&a, mutant.data() + values_at + i * sizeof(float), sizeof(float));
      std::memcpy(&b, mutant.data() + values_at + (i + 1) * sizeof(float), sizeof(float));
      if (a < b) break;
    }
    ASSERT_LT(i + 1, n) << "the run holds no ascending pair";
    std::memcpy(mutant.data() + values_at + i * sizeof(float), &b, sizeof(float));
    std::memcpy(mutant.data() + values_at + (i + 1) * sizeof(float), &a, sizeof(float));
    mutants.push_back({"descending pair", std::move(mutant), "not ascending"});
  }

  for (const Mutant& mutant : mutants) {
    const core::Status status = RestoreMutant(WithQuantileState(mutant.state));
    EXPECT_EQ(status.code(), core::Status::Code::kInvalidArgument) << mutant.name;
    EXPECT_NE(status.message().find(mutant.message), std::string::npos)
        << mutant.name << ": " << status.message();
  }
  // The unmutated state, re-framed the same way, still restores.
  EXPECT_TRUE(RestoreMutant(WithQuantileState(state)).ok());
}

/// `bytes` with the f32 at `offset` overwritten by a NaN.
std::vector<std::uint8_t> WithNanAt(std::vector<std::uint8_t> bytes, std::size_t offset) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  EXPECT_LE(offset + sizeof(float), bytes.size());
  std::memcpy(bytes.data() + offset, &nan, sizeof(float));
  return bytes;
}

TEST_F(CorruptionCorpus, NanValuesAreRejected) {
  // Admission refuses NaN, so no snapshot holds one: every decoder that
  // carries values refuses a NaN in a CRC-valid, re-footed snapshot, and
  // names it. Offsets past the summary core's four u64 counters (kCounters)
  // follow each state's layout.
  constexpr std::size_t kCounters = 4 * sizeof(std::uint64_t);
  struct Mutant {
    std::string name;
    std::vector<std::uint8_t> snapshot;
    std::string message;
  };
  std::vector<Mutant> mutants;

  // GK+EH: an exact run's first value (tag 2: length u64, then f32 values),
  // and the first present bucket rewritten as a GK envelope (tag 1) whose
  // first tuple value is NaN, the envelope's CRC refreshed (its 20-byte
  // header holds the payload CRC at 16; the payload starts with count u64,
  // epsilon f64 and tuple count u64).
  const std::vector<std::uint8_t> state = QuantileState();
  const std::vector<GkSlot> slots = GkSlots(state);
  const auto run = std::ranges::find_if(slots, [](const GkSlot& s) { return s.tag == 2; });
  ASSERT_NE(run, slots.end());
  mutants.push_back({"tag-2 run value",
                     WithQuantileState(WithNanAt(state, run->begin + 1 + sizeof(std::uint64_t))),
                     "run value 0 is NaN"});
  {
    std::span<const std::uint8_t> body =
        std::span(state).subspan(run->begin + 1 + sizeof(std::uint64_t),
                                 run->end - run->begin - 1 - sizeof(std::uint64_t));
    std::vector<sketch::GkTuple> tuples;
    for (std::uint64_t i = 0; i < body.size() / sizeof(float); ++i) {
      float value = 0;
      ASSERT_TRUE(wire::Read(&body, &value));
      tuples.push_back({value, i + 1, i + 1});
    }
    const std::uint64_t count = tuples.size();
    sketch::GkSummary bucket;
    ASSERT_TRUE(sketch::GkSummary::FromParts(std::move(tuples), count, 0.0, &bucket));
    std::vector<std::uint8_t> envelope;
    ASSERT_TRUE(sketch::SerializeSummary(bucket, &envelope).ok());
    envelope = WithNanAt(std::move(envelope), 20 + 3 * sizeof(std::uint64_t));
    const std::uint32_t crc = sketch::Crc32(std::span(envelope).subspan(20));
    std::memcpy(envelope.data() + 16, &crc, sizeof(crc));
    std::vector<std::uint8_t> rewritten(state.begin(), state.begin() + run->begin);
    rewritten.push_back(1);
    rewritten.insert(rewritten.end(), envelope.begin(), envelope.end());
    rewritten.insert(rewritten.end(), state.begin() + run->end, state.end());
    mutants.push_back({"tag-1 GK tuple", WithQuantileState(rewritten), "tuple 0 value is NaN"});
  }
  // The staged partial window: a u64 count, then f32 values.
  mutants.push_back({"window buffer",
                     WithPayload(RecordType::kWindowBuffer,
                                 WithNanAt(Payload(RecordType::kWindowBuffer),
                                           sizeof(std::uint64_t))),
                     "element 0 is NaN"});
  for (const Mutant& mutant : mutants) {
    const core::Status status = RestoreMutant(mutant.snapshot);
    EXPECT_EQ(status.code(), core::Status::Code::kInvalidArgument) << mutant.name;
    EXPECT_NE(status.message().find(mutant.message), std::string::npos)
        << mutant.name << ": " << status.message();
  }
  EXPECT_TRUE(RestoreMutant(pristine_).ok());

  // gk-adaptive: n u64, tuple count u64, then tuples of f32 value, g u64
  // and delta u64.
  Snapshot(EstimatorOptions(FreshDir("corpus_gka"), sketch::QuantileSketchKind::kGkAdaptive,
                            1),
           /*frequency=*/false);
  core::Status status = RestoreMutant(WithQuantileState(
      WithNanAt(QuantileState(), kCounters + 2 * sizeof(std::uint64_t))));
  EXPECT_EQ(status.code(), core::Status::Code::kInvalidArgument);
  EXPECT_NE(status.message().find("tuple 0 value is NaN"), std::string::npos)
      << status.message();
  EXPECT_TRUE(RestoreMutant(pristine_).ok());

  // Lossy counting: n u64, bucket id u64, entry count u64, then entries of
  // f32 value, frequency u64 and delta u64.
  Snapshot(EstimatorOptions(FreshDir("corpus_freq"), sketch::QuantileSketchKind::kGk, 1),
           /*frequency=*/true);
  const std::vector<std::uint8_t> frequency_state = Payload(RecordType::kFrequencyState);
  status = RestoreMutant(WithPayload(
      RecordType::kFrequencyState,
      WithNanAt(frequency_state, kCounters + 3 * sizeof(std::uint64_t))));
  EXPECT_EQ(status.code(), core::Status::Code::kInvalidArgument);
  EXPECT_NE(status.message().find("entry 0 value is NaN"), std::string::npos)
      << status.message();
  EXPECT_TRUE(RestoreMutant(pristine_).ok());
}

// ---------------------------------------------------------------------------
// Service checkpoint/restore

service::ServiceConfig SmallServiceConfig() {
  service::ServiceConfig config;
  config.num_workers = 1;
  config.num_shards = 4;
  config.shard_batch_elements = 1024;
  return config;
}

TEST(ServiceRestore, BitIdenticalReportsAndExports) {
  const std::size_t kStreams = 12;
  const std::size_t kPerStream = 1500;
  const std::vector<float> stream = MakeStream(kStreams * kPerStream, 29);

  auto ingest = [&](service::StreamService* service, std::size_t from,
                    std::size_t to) {
    for (std::size_t i = 0; i < kStreams; ++i) {
      const service::StreamKey key{i % 3, i};
      const auto slice = std::span(stream).subspan(i * kPerStream, kPerStream);
      const auto admitted =
          service->Append(key, slice.subspan(from, to - from));
      ASSERT_TRUE(admitted.ok());
    }
  };

  service::StreamConfig stream_config;
  stream_config.epsilon = 0.02;
  stream_config.track_frequencies = true;

  auto ref = service::StreamService::Create(SmallServiceConfig());
  ASSERT_TRUE(ref.ok());
  for (std::size_t i = 0; i < kStreams; ++i) {
    ASSERT_TRUE((*ref)->Register({i % 3, i}, stream_config).ok());
  }
  ingest(ref->get(), 0, kPerStream);
  ASSERT_TRUE((*ref)->FlushAll().ok());

  const std::string dir = FreshDir("service");
  const std::size_t cut = 777;  // deliberately not a window multiple
  {
    auto first = service::StreamService::Create(SmallServiceConfig());
    ASSERT_TRUE(first.ok());
    for (std::size_t i = 0; i < kStreams; ++i) {
      ASSERT_TRUE((*first)->Register({i % 3, i}, stream_config).ok());
    }
    ingest(first->get(), 0, cut);
    CheckpointWriter writer(dir);
    ASSERT_TRUE((*first)->Checkpoint(&writer).ok());
  }

  auto restored =
      service::StreamService::RestoreFrom(SmallServiceConfig(), dir);
  ASSERT_TRUE(restored.ok()) << restored.status().message();
  ASSERT_EQ((*restored)->num_streams(), kStreams);
  for (std::size_t i = 0; i < kStreams; ++i) {
    const auto offered = (*restored)->OfferedLength({i % 3, i});
    ASSERT_TRUE(offered.ok());
    EXPECT_EQ(*offered, cut) << "stream " << i;
  }
  ingest(restored->get(), cut, kPerStream);
  ASSERT_TRUE((*restored)->FlushAll().ok());

  for (std::size_t i = 0; i < kStreams; ++i) {
    const service::StreamKey key{i % 3, i};
    for (double phi : {0.25, 0.5, 0.95}) {
      const auto a = (*restored)->Quantile(key, phi);
      const auto b = (*ref)->Quantile(key, phi);
      ASSERT_TRUE(a.ok());
      ASSERT_TRUE(b.ok());
      EXPECT_EQ(*a, *b) << "stream " << i << " phi " << phi;
    }
    const auto hh_a = (*restored)->HeavyHitters(key, 0.05);
    const auto hh_b = (*ref)->HeavyHitters(key, 0.05);
    ASSERT_TRUE(hh_a.ok());
    ASSERT_TRUE(hh_b.ok());
    EXPECT_EQ(*hh_a, *hh_b) << "stream " << i;
    // The mergeable shard export is byte-identical (restore-then-merge).
    const auto export_a = (*restored)->ExportQuantileSummary(key);
    const auto export_b = (*ref)->ExportQuantileSummary(key);
    ASSERT_TRUE(export_a.ok());
    ASSERT_TRUE(export_b.ok());
    EXPECT_EQ(*export_a, *export_b) << "stream " << i;
  }

  const service::ServiceStats stats_a = (*restored)->stats();
  const service::ServiceStats stats_b = (*ref)->stats();
  EXPECT_EQ(stats_a.streams, stats_b.streams);
  EXPECT_EQ(stats_a.elements_observed, stats_b.elements_observed);
  EXPECT_EQ(stats_a.windows_merged, stats_b.windows_merged);
}

TEST(ServiceRestore, PersistsShedAccounting) {
  service::ServiceConfig config = SmallServiceConfig();
  config.admission = stream::AdmissionPolicy::kShed;
  config.shard_ingress_capacity = 256;

  auto service = service::StreamService::Create(config);
  ASSERT_TRUE(service.ok());
  service::StreamConfig stream_config;
  stream_config.epsilon = 0.02;
  const service::StreamKey key{0, 0};
  ASSERT_TRUE((*service)->Register(key, stream_config).ok());

  // Pause dispatch so the backlog builds past the shed capacity.
  const std::vector<float> stream = MakeStream(2000, 31);
  (*service)->PauseDispatch();
  const auto admitted = (*service)->Append(key, stream);
  ASSERT_TRUE(admitted.ok());
  ASSERT_LT(*admitted, stream.size());
  ASSERT_TRUE((*service)->ResumeDispatch().ok());
  ASSERT_TRUE((*service)->WaitIdle().ok());
  const std::uint64_t shed_before = (*service)->stats().elements_shed;
  ASSERT_GT(shed_before, 0u);

  const std::string dir = FreshDir("service_shed");
  CheckpointWriter writer(dir);
  ASSERT_TRUE((*service)->Checkpoint(&writer).ok());
  ASSERT_TRUE((*service)->FlushAll().ok());
  const auto report_before = (*service)->Quantile(key, 0.5);
  ASSERT_TRUE(report_before.ok());
  ASSERT_GT(report_before->elements_shed, 0u);

  auto restored = service::StreamService::RestoreFrom(config, dir);
  ASSERT_TRUE(restored.ok()) << restored.status().message();
  EXPECT_EQ((*restored)->stats().elements_shed, shed_before);
  EXPECT_EQ((*restored)->admission().total_shed(), shed_before);
  ASSERT_TRUE((*restored)->FlushAll().ok());
  const auto report_after = (*restored)->Quantile(key, 0.5);
  ASSERT_TRUE(report_after.ok());
  // The honestly-widened bound survives the round trip exactly.
  EXPECT_EQ(*report_after, *report_before);
}

TEST(ServiceRestore, RejectsTopologyMismatch) {
  const std::string dir = FreshDir("service_mismatch");
  {
    auto service = service::StreamService::Create(SmallServiceConfig());
    ASSERT_TRUE(service.ok());
    service::StreamConfig stream_config;
    stream_config.epsilon = 0.02;
    ASSERT_TRUE((*service)->Register({0, 0}, stream_config).ok());
    const std::vector<float> stream = MakeStream(500, 37);
    ASSERT_TRUE((*service)->Append({0, 0}, stream).ok());
    CheckpointWriter writer(dir);
    ASSERT_TRUE((*service)->Checkpoint(&writer).ok());
  }
  // A different shard topology cannot adopt the snapshot's admission state.
  service::ServiceConfig wrong = SmallServiceConfig();
  wrong.num_shards = 8;
  EXPECT_EQ(service::StreamService::RestoreFrom(wrong, dir).status().code(),
            core::Status::Code::kInvalidArgument);
  // An estimator restore must refuse a service snapshot.
  core::Options opt;
  opt.epsilon = 0.02;
  opt.checkpoint_dir = dir;
  EXPECT_EQ(core::QuantileEstimator::Restore(opt).status().code(),
            core::Status::Code::kInvalidArgument);
  // An empty directory is FailedPrecondition (start fresh), not corruption.
  EXPECT_EQ(service::StreamService::RestoreFrom(SmallServiceConfig(),
                                                FreshDir("service_empty"))
                .status()
                .code(),
            core::Status::Code::kFailedPrecondition);
}

// ---------------------------------------------------------------------------
// Golden snapshot files: the bytes the checkpoint writer produces are
// committed to the repo, so a change to snapshot bytes fails here. Each
// snapshot's manifest CRC is checked against a bitwise CRC-32. Regenerate
// with:
//   STREAMGPU_REGEN_GOLDEN=1 ./durable_test --gtest_filter='GoldenSnapshot.*'

std::string GoldenPath(const char* name) {
  return std::string(STREAMGPU_TEST_GOLDEN_DIR) + "/" + name;
}

/// CRC-32 (IEEE, reflected) one bit at a time: the definition, independent
/// of the table-driven sketch::Crc32 the writer uses.
std::uint32_t ReferenceCrc32(std::span<const std::uint8_t> bytes) {
  std::uint32_t crc = 0xFFFFFFFFu;
  for (const std::uint8_t byte : bytes) {
    crc ^= byte;
    for (int bit = 0; bit < 8; ++bit) crc = (crc >> 1) ^ ((crc & 1) ? 0xEDB88320u : 0);
  }
  return ~crc;
}

/// Checks the single snapshot committed in `dir` against its manifest entry
/// and the golden file `name`, or rewrites the golden under
/// STREAMGPU_REGEN_GOLDEN.
void ExpectGoldenSnapshot(const std::string& dir, const char* name) {
  const std::vector<std::uint8_t> bytes = ReadFile(dir + "/snap-1.ckpt");
  const auto entries = ReadManifest(dir);
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].snapshot_size, bytes.size());
  EXPECT_EQ(entries[0].snapshot_crc, ReferenceCrc32(bytes));
  if (std::getenv("STREAMGPU_REGEN_GOLDEN") != nullptr) {
    WriteFile(GoldenPath(name), bytes);
    GTEST_SKIP() << name << " regenerated";
  }
  const std::vector<std::uint8_t> committed = ReadFile(GoldenPath(name));
  ASSERT_FALSE(committed.empty())
      << name << " missing; regenerate with STREAMGPU_REGEN_GOLDEN=1";
  EXPECT_EQ(bytes, committed)
      << name << ": the checkpoint writer no longer produces the committed bytes";
}

// GK at epsilon 0.1 over an a-priori length of 200: 10-element windows and
// a 70-tuple prune budget. 27 windows leave exact-run buckets at ids 1 and
// 2 and pruned ones at ids 4 and 5; 5 more elements stay staged.
constexpr std::size_t kGoldenLength = 275;

service::StreamConfig GoldenGkConfig() {
  service::StreamConfig config;
  config.epsilon = 0.1;
  config.expected_stream_length = 200;
  return config;
}

core::Options GoldenQuantileOptions(const std::string& dir) {
  core::Options opt;
  opt.epsilon = GoldenGkConfig().epsilon;
  opt.expected_stream_length = GoldenGkConfig().expected_stream_length;
  opt.backend = core::Backend::kCpuRadixMerge;
  opt.checkpoint_dir = dir;
  return opt;
}

/// The golden estimator run: kGoldenLength uniform values, checkpointed
/// once into `dir`.
std::unique_ptr<core::QuantileEstimator> GoldenQuantileRun(const std::string& dir) {
  auto estimator = core::QuantileEstimator::Create(GoldenQuantileOptions(dir));
  if (!estimator.ok()) {
    ADD_FAILURE() << estimator.status().message();
    return nullptr;
  }
  stream::StreamGenerator gen(
      {.distribution = stream::Distribution::kUniformReal, .seed = 41});
  EXPECT_TRUE((*estimator)->ObserveBatch(gen.Take(kGoldenLength)).ok());
  EXPECT_TRUE((*estimator)->Checkpoint().ok());
  return std::move(estimator).value();
}

service::ServiceConfig GoldenServiceConfig() {
  service::ServiceConfig config;
  config.backend = core::Backend::kCpuRadixMerge;
  config.num_workers = 1;
  config.num_shards = 2;
  config.shard_batch_elements = 128;
  config.admission = stream::AdmissionPolicy::kShed;
  config.shard_ingress_capacity = 512;
  return config;
}

// One stream per state kind: GK (exact-run and pruned buckets),
// gk-adaptive, KLL and frequency-only.
const service::StreamKey kGoldenKeys[] = {{0, 0}, {0, 1}, {1, 2}, {1, 3}};

/// The golden service run: four streams, part of one shed, checkpointed once
/// into `dir`.
std::unique_ptr<service::StreamService> GoldenServiceRun(const std::string& dir) {
  auto service = service::StreamService::Create(GoldenServiceConfig());
  if (!service.ok()) {
    ADD_FAILURE() << service.status().message();
    return nullptr;
  }
  const service::StreamConfig gk = GoldenGkConfig();
  service::StreamConfig adaptive = gk;
  adaptive.quantile_sketch = sketch::QuantileSketchKind::kGkAdaptive;
  service::StreamConfig kll = gk;
  kll.quantile_sketch = sketch::QuantileSketchKind::kKll;
  service::StreamConfig frequency = gk;
  frequency.track_quantiles = false;
  frequency.track_frequencies = true;
  const service::StreamConfig* configs[] = {&gk, &adaptive, &kll, &frequency};
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_TRUE((*service)->Register(kGoldenKeys[i], *configs[i]).ok());
  }
  stream::StreamGenerator gen({.distribution = stream::Distribution::kZipf, .seed = 43});
  const std::vector<float> values = gen.Take(4 * kGoldenLength);
  for (std::size_t at = 0; at < kGoldenLength; at += 25) {
    for (std::size_t i = 0; i < 4; ++i) {
      const auto part = std::span(values).subspan(i * kGoldenLength + at, 25);
      EXPECT_TRUE((*service)->Append(kGoldenKeys[i], part).ok());
    }
  }
  // With dispatch paused the shard's backlog passes its capacity, so part
  // of this append is shed and the snapshot carries shed accounting.
  (*service)->PauseDispatch();
  const auto admitted = (*service)->Append(kGoldenKeys[1], gen.Take(600));
  EXPECT_TRUE(admitted.ok() && *admitted < 600u);
  EXPECT_TRUE((*service)->ResumeDispatch().ok());

  CheckpointWriter writer(dir);
  EXPECT_TRUE((*service)->Checkpoint(&writer).ok());
  return std::move(service).value();
}

TEST(GoldenSnapshot, QuantileEstimatorBytesAreStable) {
  const std::string dir = FreshDir("golden_quantile");
  ASSERT_NE(GoldenQuantileRun(dir), nullptr);
  ExpectGoldenSnapshot(dir, "snapshot_quantile.golden");
}

TEST(GoldenSnapshot, ServiceBytesAreStable) {
  const std::string dir = FreshDir("golden_service");
  ASSERT_NE(GoldenServiceRun(dir), nullptr);
  ExpectGoldenSnapshot(dir, "snapshot_service.golden");
}

/// Installs the committed snapshot `name` as epoch 1 of a fresh directory,
/// with the watermark the live run's manifest in `live_dir` records.
std::string InstallGolden(const char* name, const std::string& live_dir) {
  const std::string dir = FreshDir(name);
  const std::vector<std::uint8_t> bytes = ReadFile(GoldenPath(name));
  WriteFile(dir + "/snap-1.ckpt", bytes);
  const auto live = ReadManifest(live_dir);
  EXPECT_EQ(live.size(), 1u);
  PointManifestAt(dir, 1, bytes, live.empty() ? 0 : live[0].watermark);
  return dir;
}

// Until exact runs got their own slot tag (2: length and f32 values), a
// checkpoint wrote each as the GK envelope of its (v, i+1, i+1) tuples
// under tag 1. The *_tuple_runs.golden files are the bytes the two golden
// runs wrote then. Each must restore to the answers and exports of the live
// run, and checkpoint again to the live run's bytes.
TEST(GoldenSnapshot, TupleRunSnapshotsRestoreToTheLiveRun) {
  {
    const std::string live_dir = FreshDir("golden_quantile_live");
    const auto live = GoldenQuantileRun(live_dir);
    ASSERT_NE(live, nullptr);
    const std::string dir =
        InstallGolden("snapshot_quantile_tuple_runs.golden", live_dir);
    auto restored = core::QuantileEstimator::Restore(GoldenQuantileOptions(dir));
    ASSERT_TRUE(restored.ok()) << restored.status().message();
    EXPECT_EQ((*restored)->observed_length(), kGoldenLength);
    ASSERT_TRUE((*restored)->Checkpoint().ok());
    EXPECT_EQ(ReadFile(dir + "/snap-2.ckpt"), ReadFile(live_dir + "/snap-1.ckpt"));
    ASSERT_TRUE((*restored)->Flush().ok());
    ASSERT_TRUE(live->Flush().ok());
    for (double phi : {0.01, 0.25, 0.5, 0.75, 0.99, 1.0}) {
      EXPECT_EQ((*restored)->Quantile(phi), live->Quantile(phi)) << "phi " << phi;
    }
    const auto restored_export = (*restored)->SerializedSummary();
    const auto live_export = live->SerializedSummary();
    ASSERT_TRUE(restored_export.ok());
    ASSERT_TRUE(live_export.ok());
    EXPECT_EQ(*restored_export, *live_export);
  }
  {
    const std::string live_dir = FreshDir("golden_service_live");
    const auto live = GoldenServiceRun(live_dir);
    ASSERT_NE(live, nullptr);
    const std::string dir =
        InstallGolden("snapshot_service_tuple_runs.golden", live_dir);
    auto restored = service::StreamService::RestoreFrom(GoldenServiceConfig(), dir);
    ASSERT_TRUE(restored.ok()) << restored.status().message();
    const std::string again = FreshDir("golden_service_again");
    {
      CheckpointWriter writer(again);
      ASSERT_TRUE((*restored)->Checkpoint(&writer).ok());
    }
    EXPECT_EQ(ReadFile(again + "/snap-1.ckpt"), ReadFile(live_dir + "/snap-1.ckpt"));
    ASSERT_TRUE((*restored)->FlushAll().ok());
    ASSERT_TRUE(live->FlushAll().ok());
    for (std::size_t i = 0; i < 3; ++i) {
      for (double phi : {0.01, 0.25, 0.5, 0.75, 0.99, 1.0}) {
        const auto a = (*restored)->Quantile(kGoldenKeys[i], phi);
        const auto b = live->Quantile(kGoldenKeys[i], phi);
        ASSERT_TRUE(a.ok());
        ASSERT_TRUE(b.ok());
        EXPECT_EQ(*a, *b) << "stream " << i << " phi " << phi;
      }
      const auto export_a = (*restored)->ExportQuantileSummary(kGoldenKeys[i]);
      const auto export_b = live->ExportQuantileSummary(kGoldenKeys[i]);
      ASSERT_TRUE(export_a.ok());
      ASSERT_TRUE(export_b.ok());
      EXPECT_EQ(*export_a, *export_b) << "stream " << i;
    }
    const auto hh_a = (*restored)->HeavyHitters(kGoldenKeys[3], 0.05);
    const auto hh_b = live->HeavyHitters(kGoldenKeys[3], 0.05);
    ASSERT_TRUE(hh_a.ok());
    ASSERT_TRUE(hh_b.ok());
    EXPECT_EQ(*hh_a, *hh_b);
  }
}

}  // namespace
}  // namespace streamgpu::durable
