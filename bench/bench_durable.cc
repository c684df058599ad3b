// Durability cost: checkpoint ingest overhead and restore time at scale.
//
// Two contracts from docs/DURABILITY.md:
//
//  * Checkpointing is cheap when amortized. Each commit serializes the full
//    estimator state and pays three fsyncs (snapshot, directory, manifest),
//    so the cost per element is cadence-bound. The bench ingests the same stream
//    plain and checkpointed at three cadences (~64 / ~8 / 1 commits per
//    run), nine times each, every checkpointed ingest right after a plain
//    one, and reports the median of the nine overhead ratios. The CI gate
//    (tools/check_bench_regression.py --durable) holds the coarse
//    production cadence to <= 5% overhead — a within-run statistic, so the
//    gate is machine-independent and one stall of a shared host cannot
//    trip it.
//
//  * Restore is fast at registry scale. A StreamService with up to 100k
//    checkpointed streams must come back in seconds: the bench checkpoints
//    populated services at three stream counts and reports the median of
//    nine RestoreFrom() calls on each snapshot. Between those calls it times
//    a fixed-work reference that runs none of the code under test: reading
//    the snapshot file with plain stdio and copying its bytes once. A slow
//    stretch of the host moves both, so the gate holds the within-run ratio
//    of the two medians, loosely (2x the blessed ratio).
//
// JSON out (STREAMGPU_BENCH_JSON): overhead ratios, restore/reference ratios
// and snapshot bytes are within-run / deterministic and gated; raw ns/key
// and seconds are machine-dependent and only reported.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/timer.h"
#include "core/quantile_estimator.h"
#include "durable/checkpoint.h"
#include "service/stream_service.h"
#include "stream/generator.h"

namespace {

using namespace streamgpu;

constexpr double kEpsilon = 0.001;  // window 1000
constexpr std::size_t kChunk = 8192;
constexpr int kPairs = 9;  // plain/checkpointed ingest pairs per cadence
constexpr int kRestores = 9;  // timed RestoreFrom() calls per snapshot

std::string ScratchDir(const char* leaf) {
  const auto dir = std::filesystem::temp_directory_path() /
                   "streamgpu_bench_durable" / leaf;
  std::filesystem::remove_all(dir);
  return dir.string();
}

// One full ingest of `stream`; returns wall seconds. With a non-empty
// `ckpt_dir` the estimator auto-checkpoints every `every_windows` windows.
double IngestOnce(const std::vector<float>& stream, const std::string& ckpt_dir,
                  std::uint64_t every_windows, std::uint64_t* commits,
                  std::uint64_t* snapshot_bytes) {
  core::Options opt;
  opt.epsilon = kEpsilon;
  opt.backend = core::Backend::kCpuRadixMerge;
  opt.checkpoint_dir = ckpt_dir;
  opt.checkpoint_every_windows = ckpt_dir.empty() ? 0 : every_windows;
  core::QuantileEstimator estimator(opt);
  Timer timer;
  for (std::size_t i = 0; i < stream.size(); i += kChunk) {
    const std::size_t take = std::min(kChunk, stream.size() - i);
    estimator.ObserveBatch(std::span<const float>(stream).subspan(i, take));
  }
  estimator.Flush();
  const double seconds = timer.ElapsedSeconds();
  if (commits != nullptr) *commits = estimator.checkpoints();
  if (snapshot_bytes != nullptr) {
    *snapshot_bytes = 0;
    const auto manifest = durable::ReadManifest(ckpt_dir);
    if (!manifest.empty()) *snapshot_bytes = manifest.back().snapshot_size;
  }
  return seconds;
}

struct IngestRow {
  const char* label;
  std::uint64_t every_windows = 0;
  std::uint64_t commits = 0;
  double plain_ns_per_key = 0;
  double ckpt_ns_per_key = 0;
  double overhead = 0;  // median ckpt/plain wall-clock ratio over the pairs
  std::uint64_t snapshot_bytes = 0;
  bool gated = false;
};

struct RestoreRow {
  std::uint64_t streams = 0;
  double checkpoint_seconds = 0;
  std::uint64_t snapshot_bytes = 0;
  double restore_seconds = 0;    // median over kRestores
  double reference_seconds = 0;  // median of the kRestores references
  double restore_per_reference = 0;  // restore_seconds / reference_seconds
  double streams_per_sec = 0;
};

// The restore rows' fixed-work reference: reads the snapshot file at `path`
// with plain stdio and copies its bytes once; returns wall seconds.
double ReferenceOnce(const std::string& path) {
  Timer timer;
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) std::abort();
  std::fseek(f, 0, SEEK_END);
  std::vector<std::uint8_t> bytes(static_cast<std::size_t>(std::ftell(f)));
  std::fseek(f, 0, SEEK_SET);
  const std::size_t read = std::fread(bytes.data(), 1, bytes.size(), f);
  std::fclose(f);
  const std::vector<std::uint8_t> copy(bytes);
  const double seconds = timer.ElapsedSeconds();
  if (read != bytes.size() || copy != bytes) std::abort();
  return seconds;
}

// Checkpoint a populated service at `streams` streams, then time RestoreFrom
// kRestores times, each followed by the reference.
RestoreRow RunRestore(std::uint64_t streams) {
  constexpr std::size_t kPerStream = 160;  // one merged window + staged tail
  service::ServiceConfig config;
  config.backend = core::Backend::kCpuRadixMerge;
  config.num_workers = 4;

  service::StreamConfig stream_config;
  stream_config.epsilon = 0.01;  // window 100
  auto service = std::make_unique<service::StreamService>(config);
  std::vector<service::StreamKey> keys;
  keys.reserve(streams);
  for (std::uint64_t i = 0; i < streams; ++i) {
    keys.push_back({i % 257, i});
    service->Register(keys.back(), stream_config);
  }
  stream::StreamGenerator gen(
      {.distribution = stream::Distribution::kZipf, .seed = 29});
  std::vector<float> data(kPerStream);
  for (const service::StreamKey& key : keys) {
    gen.Fill(data);
    service->Append(key, data);
  }
  service->FlushAll();

  RestoreRow row;
  row.streams = streams;
  const std::string dir = ScratchDir("restore");
  durable::CheckpointWriter writer(dir);
  Timer ckpt_timer;
  if (const auto status = service->Checkpoint(&writer); !status.ok()) {
    std::fprintf(stderr, "checkpoint failed: %s\n", status.message().c_str());
    std::abort();
  }
  row.checkpoint_seconds = ckpt_timer.ElapsedSeconds();
  row.snapshot_bytes = writer.last_snapshot_bytes();
  service.reset();  // the "crash": only the snapshot survives
  const std::string snapshot_path =
      dir + "/snap-" + std::to_string(durable::ReadManifest(dir).back().epoch) + ".ckpt";

  std::vector<double> restore_s;
  std::vector<double> reference_s;
  for (int i = 0; i < kRestores; ++i) {
    Timer restore_timer;
    auto restored = service::StreamService::RestoreFrom(config, dir);
    restore_s.push_back(restore_timer.ElapsedSeconds());
    if (!restored.ok()) {
      std::fprintf(stderr, "restore failed: %s\n",
                   restored.status().message().c_str());
      std::abort();
    }
    if ((*restored)->stats().streams != streams) std::abort();
    restored->reset();  // freed before the reference, outside both timers
    reference_s.push_back(ReferenceOnce(snapshot_path));
  }
  row.restore_seconds = bench::Median(restore_s);
  row.reference_seconds = bench::Median(reference_s);
  row.restore_per_reference = row.restore_seconds / row.reference_seconds;
  row.streams_per_sec =
      static_cast<double>(streams) / row.restore_seconds;
  std::filesystem::remove_all(dir);
  return row;
}

}  // namespace

int main() {
  bench::PrintHeader(
      "Durability: checkpoint ingest overhead and restore time",
      "amortized checkpointing costs <= 5%; 100k-stream restore in seconds");

  const std::size_t n = bench::Scaled(32'000'000);
  const std::uint64_t windows =
      std::max<std::uint64_t>(1, n / static_cast<std::size_t>(1.0 / kEpsilon));
  std::printf("\nepsilon %g (window %d), %zu elements, %llu windows, "
              "median of %d plain/checkpointed pairs\n\n",
              kEpsilon, static_cast<int>(1.0 / kEpsilon), n,
              static_cast<unsigned long long>(windows), kPairs);

  std::vector<float> stream(n);
  stream::StreamGenerator gen(
      {.distribution = stream::Distribution::kZipf, .seed = 23});
  gen.Fill(stream);

  // Cadences targeting ~64 / ~8 / 1 commits per run regardless of scale.
  // Only the coarse row is gated: a production checkpoint cadence snapshots
  // a small multiple per run, not per handful of windows.
  std::vector<IngestRow> ingest_rows = {
      {"fine", std::max<std::uint64_t>(1, windows / 64)},
      {"medium", std::max<std::uint64_t>(1, windows / 8)},
      {"coarse", windows, 0, 0, 0, 0, 0, true},
  };
  std::printf("%8s | %14s | %12s | %12s | %8s | %12s | %8s\n", "cadence",
              "every windows", "plain ns/key", "ckpt ns/key", "overhead",
              "snapshot B", "commits");
  // Pairs interleave across the cadences, so a slow stretch of the host
  // lands on a few pairs of every row rather than on one row.
  std::vector<std::vector<double>> plain_s(ingest_rows.size());
  std::vector<std::vector<double>> ckpt_s(ingest_rows.size());
  std::vector<std::vector<double>> ratios(ingest_rows.size());
  for (int pair = 0; pair < kPairs; ++pair) {
    for (std::size_t r = 0; r < ingest_rows.size(); ++r) {
      IngestRow& row = ingest_rows[r];
      plain_s[r].push_back(IngestOnce(stream, "", 0, nullptr, nullptr));
      const std::string dir = ScratchDir(row.label);
      ckpt_s[r].push_back(IngestOnce(stream, dir, row.every_windows, &row.commits,
                                     &row.snapshot_bytes));
      std::filesystem::remove_all(dir);
      ratios[r].push_back(ckpt_s[r].back() / plain_s[r].back());
    }
  }
  for (std::size_t r = 0; r < ingest_rows.size(); ++r) {
    IngestRow& row = ingest_rows[r];
    row.plain_ns_per_key = bench::Median(plain_s[r]) * 1e9 / static_cast<double>(n);
    row.ckpt_ns_per_key = bench::Median(ckpt_s[r]) * 1e9 / static_cast<double>(n);
    row.overhead = bench::Median(ratios[r]);
    std::printf("%8s | %14llu | %12.1f | %12.1f | %7.3fx | %12llu | %8llu%s\n",
                row.label,
                static_cast<unsigned long long>(row.every_windows),
                row.plain_ns_per_key, row.ckpt_ns_per_key, row.overhead,
                static_cast<unsigned long long>(row.snapshot_bytes),
                static_cast<unsigned long long>(row.commits),
                row.gated ? "  <- gated" : "");
  }

  std::printf("\nrestore s, reference s: medians of %d RestoreFrom() calls per "
              "snapshot and of the file read + copy timed between them\n",
              kRestores);
  std::printf("%10s | %10s | %12s | %11s | %11s | %9s | %12s\n", "streams",
              "ckpt s", "snapshot B", "restore s", "reference s", "ratio",
              "streams/s");
  const std::vector<std::uint64_t> stream_counts = {
      bench::Scaled(1000), bench::Scaled(10'000), bench::Scaled(100'000)};
  std::vector<RestoreRow> restore_rows;
  for (std::uint64_t streams : stream_counts) {
    restore_rows.push_back(RunRestore(streams));
    const RestoreRow& row = restore_rows.back();
    std::printf("%10llu | %10.4f | %12llu | %11.4f | %11.4f | %8.2fx | %12.3g\n",
                static_cast<unsigned long long>(row.streams),
                row.checkpoint_seconds,
                static_cast<unsigned long long>(row.snapshot_bytes),
                row.restore_seconds, row.reference_seconds,
                row.restore_per_reference, row.streams_per_sec);
  }

  if (const char* path = bench::JsonOutPath(nullptr)) {
    std::FILE* f = std::fopen(path, "w");
    if (f != nullptr) {
      bench::JsonWriter json(f);
      json.Number("schema", std::uint64_t{1});
      json.BeginObject("durable");
      json.Number("n", static_cast<std::uint64_t>(n));
      json.Number("epsilon", kEpsilon);
      json.BeginArray("ingest");
      for (const IngestRow& row : ingest_rows) {
        json.BeginArrayObject();
        json.String("cadence", row.label);
        json.Number("every_windows", row.every_windows);
        json.Number("commits", row.commits);
        json.Number("plain_ns_per_key", row.plain_ns_per_key);
        json.Number("ckpt_ns_per_key", row.ckpt_ns_per_key);
        json.Number("overhead", row.overhead);
        json.Number("snapshot_bytes", row.snapshot_bytes);
        json.Number("gated", static_cast<std::uint64_t>(row.gated ? 1 : 0));
        json.End('}');
      }
      json.End(']');
      json.BeginArray("restore");
      for (const RestoreRow& row : restore_rows) {
        json.BeginArrayObject();
        json.Number("streams", row.streams);
        json.Number("checkpoint_seconds", row.checkpoint_seconds);
        json.Number("snapshot_bytes", row.snapshot_bytes);
        json.Number("restore_seconds", row.restore_seconds);
        json.Number("reference_seconds", row.reference_seconds);
        json.Number("restore_per_reference", row.restore_per_reference);
        json.Number("streams_per_sec", row.streams_per_sec);
        json.End('}');
      }
      json.End(']');
      json.End('}');
    }
    if (f != nullptr) std::fclose(f);
    std::printf("# json -> %s\n", path);
  }
  std::filesystem::remove_all(std::filesystem::temp_directory_path() /
                              "streamgpu_bench_durable");
  return 0;
}
