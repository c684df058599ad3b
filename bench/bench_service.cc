// Multi-tenant StreamService throughput: aggregate ingest vs stream count on
// one fixed worker pool, versus a dedicated single-stream pipeline.
//
// The tentpole claim (docs/SERVICE.md): because small per-stream writes are
// coalesced into per-shard micro-batches before they reach the worker pool,
// aggregate ingest throughput tracks the worker count, not the stream count —
// at 1000 multiplexed streams the service stays within 0.9x of a dedicated
// pipeline ingesting the same volume into one stream. A dedicated pipeline
// *per stream* would instead need 1000 thread pools.
//
// Also measured, because the service exists to run at registry scale:
//  * per-idle-stream registry memory (100k registered streams must be cheap),
//  * batch-query snapshot rate (reports/s over a 1000-stream snapshot) with
//    p99 per-call latency.
//
// JSON out (STREAMGPU_BENCH_JSON): the `rel_single` ratios and
// `bytes_per_idle_stream` are within-run / machine-stable numbers the CI
// gate (tools/check_bench_regression.py --service) checks against
// BENCH_service.json; raw element rates are informational.

#include <algorithm>
#include <cstdio>
#include <span>
#include <vector>

#if defined(__linux__)
#include <unistd.h>
#endif

#include "bench_util.h"
#include "common/timer.h"
#include "core/quantile_estimator.h"
#include "service/stream_service.h"
#include "stream/generator.h"

namespace {

using namespace streamgpu;

constexpr int kWorkers = 4;
constexpr double kEpsilon = 0.001;  // window 1000
constexpr std::size_t kChunk = 64;  // small-write ingest granularity

// Current RSS in bytes (0 where /proc is unavailable).
std::size_t CurrentRssBytes() {
#if defined(__linux__)
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  unsigned long long size = 0, resident = 0;
  const int matched = std::fscanf(f, "%llu %llu", &size, &resident);
  std::fclose(f);
  if (matched != 2) return 0;
  return static_cast<std::size_t>(resident) *
         static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
#else
  return 0;
#endif
}

// The Zipf input of both ingest runs, generated before their timers: the
// generator alone runs slower than either ingest path, so generating inside
// the timed loops made both rates converge on its speed.
std::vector<float> GenerateInput(std::size_t n) {
  return stream::StreamGenerator({.distribution = stream::Distribution::kZipf, .seed = 7})
      .Take(n);
}

// Aggregate service ingest: `total` elements spread round-robin over
// `streams` streams in kChunk-element appends. Returns elements/second.
double RunService(std::uint64_t streams, std::size_t total) {
  service::ServiceConfig config;
  config.backend = core::Backend::kCpuRadixMerge;
  config.num_workers = kWorkers;
  service::StreamService service(config);

  service::StreamConfig stream_config;
  stream_config.epsilon = kEpsilon;
  std::vector<service::StreamKey> keys;
  keys.reserve(streams);
  for (std::uint64_t i = 0; i < streams; ++i) {
    keys.push_back({i % 16, i});
    service.Register(keys.back(), stream_config);
  }

  // At least one round, so reduced-scale runs (STREAMGPU_SCALE < 1) never
  // produce a zero-ingest row; full scale is >= 6 rounds at every count.
  const std::size_t rounds =
      std::max<std::size_t>(1, total / (streams * kChunk));
  const std::vector<float> input = GenerateInput(rounds * streams * kChunk);
  const float* next = input.data();
  Timer timer;
  for (std::size_t round = 0; round < rounds; ++round) {
    for (const service::StreamKey& key : keys) {
      service.Append(key, std::span<const float>(next, kChunk));
      next += kChunk;
    }
  }
  service.FlushAll();
  const double seconds = timer.ElapsedSeconds();
  return static_cast<double>(service.stats().elements_observed) / seconds;
}

// Dedicated single-stream pipeline baseline: same epsilon, same worker
// count, same small-write call granularity, all elements into one stream.
double RunDedicated(std::size_t total) {
  core::Options opt;
  opt.epsilon = kEpsilon;
  opt.backend = core::Backend::kCpuRadixMerge;
  opt.num_sort_workers = kWorkers;
  core::QuantileEstimator estimator(opt);

  const std::size_t rounds = total / kChunk;
  const std::vector<float> input = GenerateInput(rounds * kChunk);
  const float* next = input.data();
  Timer timer;
  for (std::size_t round = 0; round < rounds; ++round) {
    estimator.ObserveBatch(std::span<const float>(next, kChunk));
    next += kChunk;
  }
  estimator.Flush();
  const double seconds = timer.ElapsedSeconds();
  return static_cast<double>(estimator.observed_length()) / seconds;
}

struct QueryResult {
  double reports_per_sec = 0;
  double p99_call_seconds = 0;
};

// Snapshot rate: BatchQuantiles over every registered stream, repeated.
QueryResult RunBatchQueries(std::uint64_t streams, std::size_t per_stream) {
  service::ServiceConfig config;
  config.backend = core::Backend::kCpuRadixMerge;
  config.num_workers = kWorkers;
  service::StreamService service(config);

  service::StreamConfig stream_config;
  stream_config.epsilon = kEpsilon;
  std::vector<service::StreamKey> keys;
  for (std::uint64_t i = 0; i < streams; ++i) {
    keys.push_back({i % 16, i});
    service.Register(keys.back(), stream_config);
  }
  stream::StreamGenerator gen(
      {.distribution = stream::Distribution::kZipf, .seed = 13});
  std::vector<float> data(per_stream);
  for (const service::StreamKey& key : keys) {
    gen.Fill(data);
    service.Append(key, data);
  }
  service.FlushAll();

  constexpr int kIters = 50;
  std::vector<double> call_seconds;
  call_seconds.reserve(kIters);
  Timer total_timer;
  for (int iter = 0; iter < kIters; ++iter) {
    Timer call_timer;
    const auto reports = service.BatchQuantiles(keys, 0.5);
    call_seconds.push_back(call_timer.ElapsedSeconds());
    if (reports.size() != keys.size()) std::abort();  // keep the call live
  }
  QueryResult result;
  result.reports_per_sec = static_cast<double>(keys.size()) * kIters /
                           total_timer.ElapsedSeconds();
  std::sort(call_seconds.begin(), call_seconds.end());
  result.p99_call_seconds = call_seconds[(call_seconds.size() * 99) / 100];
  return result;
}

struct RegistryResult {
  double seconds = 0;
  double bytes_per_stream = 0;
};

// Registry footprint: bytes of RSS growth per registered-but-idle stream.
// Measured first, in a fresh process: after the ingest runs, RSS growth
// also depends on how much freed heap they left resident for the registry
// to reuse.
RegistryResult MeasureIdleStreams(std::uint64_t streams) {
  auto service = std::make_unique<service::StreamService>(service::ServiceConfig{});
  service::StreamConfig stream_config;
  stream_config.epsilon = kEpsilon;
  const std::size_t before = CurrentRssBytes();
  Timer timer;
  for (std::uint64_t i = 0; i < streams; ++i) {
    service->Register({i % 257, i}, stream_config);
  }
  RegistryResult result;
  result.seconds = timer.ElapsedSeconds();
  result.bytes_per_stream =
      static_cast<double>(CurrentRssBytes() - before) / static_cast<double>(streams);
  return result;
}

}  // namespace

int main() {
  bench::PrintHeader(
      "Multi-tenant StreamService: aggregate ingest vs stream count",
      "aggregate throughput tracks worker count, not stream count");

  const std::size_t total = bench::Scaled(4'000'000);
  std::printf("\n%d workers, epsilon %g, %zu-element appends, %zu total elements\n\n",
              kWorkers, kEpsilon, kChunk, total);

  constexpr std::uint64_t kIdleStreams = 100'000;
  const RegistryResult registry = MeasureIdleStreams(kIdleStreams);
  const double single = RunDedicated(total);
  std::printf("%10s | %14s | %10s\n", "streams", "elements/s", "vs single");
  std::printf("%10s | %14.3g | %10s\n", "dedicated", single, "1.00");

  const std::vector<std::uint64_t> stream_counts = {1, 100, 1000, 10000};
  std::vector<double> rates, ratios;
  for (std::uint64_t streams : stream_counts) {
    const double rate = RunService(streams, total);
    rates.push_back(rate);
    ratios.push_back(rate / single);
    std::printf("%10llu | %14.3g | %10.2f\n",
                static_cast<unsigned long long>(streams), rate, rate / single);
  }

  std::printf("\nregistry   %llu idle streams in %.2f s, %.0f bytes/stream RSS\n",
              static_cast<unsigned long long>(kIdleStreams), registry.seconds,
              registry.bytes_per_stream);
  const QueryResult queries = RunBatchQueries(1000, 4000);
  std::printf("queries    %.3g reports/s snapshotting 1000 streams (p99 call %.2f ms)\n",
              queries.reports_per_sec, queries.p99_call_seconds * 1e3);

  if (const char* path = bench::JsonOutPath(nullptr)) {
    std::FILE* f = std::fopen(path, "w");
    if (f != nullptr) {
      bench::JsonWriter json(f);
      json.Number("schema", std::uint64_t{1});
      json.BeginObject("service");
      json.Number("workers", std::uint64_t{kWorkers});
      json.Number("total_elements", static_cast<std::uint64_t>(total));
      json.Number("single_elements_per_sec", single);
      json.BeginArray("streams");
      for (std::size_t i = 0; i < stream_counts.size(); ++i) {
        json.BeginArrayObject();
        json.Number("streams", stream_counts[i]);
        json.Number("elements_per_sec", rates[i]);
        json.Number("rel_single", ratios[i]);
        json.End('}');
      }
      json.End(']');
      json.Number("bytes_per_idle_stream", registry.bytes_per_stream);
      json.Number("batch_reports_per_sec", queries.reports_per_sec);
      json.Number("batch_p99_call_seconds", queries.p99_call_seconds);
      json.End('}');
    }
    if (f != nullptr) std::fclose(f);
    std::printf("# json -> %s\n", path);
  }
  return 0;
}
