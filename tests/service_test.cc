// StreamService acceptance tests: per-stream answers from the multiplexed
// service must be bit-identical to a dedicated estimator pipeline — serial
// and with a 4-worker pool, on the CPU and GPU-f16 backends, and under load
// shedding (where the only differences are the shed accounting and the
// honestly widened error bound).

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/frequency_estimator.h"
#include "durable/checkpoint.h"
#include "core/options.h"
#include "core/quantile_estimator.h"
#include "obs/metrics.h"
#include "obs/observability.h"
#include "service/stream_service.h"
#include "sketch/combiner.h"
#include "sketch/serialize.h"
#include "stream/generator.h"

namespace streamgpu::service {
namespace {

using core::Backend;
using core::FrequencyReport;
using core::Options;
using core::QuantileReport;

// Deterministic per-stream data: distinct seed per stream so streams in one
// shard carry different values.
std::vector<float> MakeStream(std::uint64_t seed, std::size_t n) {
  stream::StreamGenerator::Config gen_config;
  gen_config.distribution = stream::Distribution::kZipf;
  gen_config.seed = seed;
  stream::StreamGenerator gen(gen_config);
  std::vector<float> out(n);
  gen.Fill(out);
  return out;
}

Options DedicatedOptions(const ServiceConfig& service,
                         const StreamConfig& stream) {
  Options opt;
  opt.epsilon = stream.epsilon;
  opt.backend = service.backend;
  opt.planner = service.planner;
  opt.gpu_format = service.gpu_format;
  opt.window_size = stream.window_size;
  opt.sliding_window = stream.sliding_window;
  opt.expected_stream_length = stream.expected_stream_length;
  return opt;
}

// Appends stream `data` to both the service and a dedicated estimator in
// identical chunked order; `*admitted_total` receives what the service
// admitted (ASSERT-aborts the calling test on any failure).
template <typename Estimator>
void MirrorAppend(StreamService& service, const StreamKey& key,
                  Estimator& dedicated, std::span<const float> data,
                  std::size_t chunk, std::size_t* admitted_total) {
  *admitted_total = 0;
  for (std::size_t off = 0; off < data.size(); off += chunk) {
    const std::size_t n = std::min(chunk, data.size() - off);
    auto admitted = service.Append(key, data.subspan(off, n));
    ASSERT_TRUE(admitted.ok()) << admitted.status().ToString();
    // The admitted count is the exact prefix that entered the stream:
    // mirror precisely that into the dedicated estimator.
    ASSERT_TRUE(dedicated.ObserveBatch(data.subspan(off, *admitted)).ok());
    *admitted_total += *admitted;
  }
}

struct BitIdentityParam {
  Backend backend;
  int num_workers;
};

class ServiceBitIdentityTest : public ::testing::TestWithParam<BitIdentityParam> {};

TEST_P(ServiceBitIdentityTest, ReportsMatchDedicatedPipeline) {
  const BitIdentityParam param = GetParam();
  ServiceConfig config;
  config.backend = param.backend;
  config.num_workers = param.num_workers;
  config.shard_batch_elements = 2048;  // many dispatches over the test data
  auto service_or = StreamService::Create(config);
  ASSERT_TRUE(service_or.ok());
  StreamService& service = **service_or;

  // A mix of stream shapes: whole-history and sliding, different epsilons,
  // quantiles-only and quantiles+frequencies.
  struct Case {
    StreamKey key;
    StreamConfig config;
    std::size_t elements;
    std::size_t chunk;  // append granularity (deliberately small + ragged)
  };
  std::vector<Case> cases = {
      {{1, 1}, {.epsilon = 0.01}, 20000, 97},
      {{1, 2}, {.epsilon = 0.02, .track_frequencies = true}, 15000, 41},
      {{2, 1}, {.epsilon = 0.01, .sliding_window = 4096}, 18000, 256},
      {{2, 2},
       {.epsilon = 0.05, .track_quantiles = false, .track_frequencies = true},
       9000, 13},
      {{3, 7}, {.epsilon = 0.005}, 12000, 1000},
  };

  std::vector<std::unique_ptr<core::QuantileEstimator>> quantile_refs(cases.size());
  std::vector<std::unique_ptr<core::FrequencyEstimator>> frequency_refs(cases.size());
  std::vector<std::vector<float>> data(cases.size());
  for (std::size_t i = 0; i < cases.size(); ++i) {
    ASSERT_TRUE(service.Register(cases[i].key, cases[i].config).ok());
    const Options opt = DedicatedOptions(config, cases[i].config);
    if (cases[i].config.track_quantiles) {
      auto ref = core::QuantileEstimator::Create(opt);
      ASSERT_TRUE(ref.ok()) << ref.status().ToString();
      quantile_refs[i] = std::move(*ref);
    }
    if (cases[i].config.track_frequencies) {
      auto ref = core::FrequencyEstimator::Create(opt);
      ASSERT_TRUE(ref.ok()) << ref.status().ToString();
      frequency_refs[i] = std::move(*ref);
    }
    data[i] = MakeStream(1000 + i, cases[i].elements);
  }

  // Interleave appends round-robin so shard micro-batches really do carry
  // chunks of many streams at once.
  std::vector<std::size_t> offset(cases.size(), 0);
  bool progress = true;
  while (progress) {
    progress = false;
    for (std::size_t i = 0; i < cases.size(); ++i) {
      if (offset[i] >= data[i].size()) continue;
      progress = true;
      const std::size_t n = std::min(cases[i].chunk, data[i].size() - offset[i]);
      const std::span<const float> piece(data[i].data() + offset[i], n);
      auto admitted = service.Append(cases[i].key, piece);
      ASSERT_TRUE(admitted.ok());
      ASSERT_EQ(*admitted, n);  // kBlock admits everything
      if (quantile_refs[i]) {
        ASSERT_TRUE(quantile_refs[i]->ObserveBatch(piece).ok());
      }
      if (frequency_refs[i]) {
        ASSERT_TRUE(frequency_refs[i]->ObserveBatch(piece).ok());
      }
      offset[i] += n;
    }
  }
  ASSERT_TRUE(service.FlushAll().ok());

  for (std::size_t i = 0; i < cases.size(); ++i) {
    SCOPED_TRACE(::testing::Message() << "stream " << i);
    if (quantile_refs[i]) {
      ASSERT_TRUE(quantile_refs[i]->Flush().ok());
      for (double phi : {0.05, 0.25, 0.5, 0.9, 0.99}) {
        auto got = service.Quantile(cases[i].key, phi);
        ASSERT_TRUE(got.ok());
        EXPECT_EQ(*got, quantile_refs[i]->Quantile(phi)) << "phi=" << phi;
      }
    }
    if (frequency_refs[i]) {
      ASSERT_TRUE(frequency_refs[i]->Flush().ok());
      for (double support : {0.0, 0.01, 0.1}) {
        auto got = service.HeavyHitters(cases[i].key, support);
        ASSERT_TRUE(got.ok());
        EXPECT_EQ(*got, frequency_refs[i]->HeavyHitters(support));
      }
      for (float probe : {1.0f, 2.0f, 17.0f}) {
        auto got = service.EstimateCount(cases[i].key, probe);
        ASSERT_TRUE(got.ok());
        EXPECT_EQ(*got, frequency_refs[i]->EstimateCount(probe));
      }
    }
  }

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.streams, cases.size());
  EXPECT_EQ(stats.elements_shed, 0u);
  std::uint64_t total = 0;
  for (const Case& c : cases) total += c.elements;
  EXPECT_EQ(stats.elements_observed, total);
  EXPECT_GT(stats.batches_dispatched, 0u);
  EXPECT_GT(stats.windows_merged, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Backends, ServiceBitIdentityTest,
    ::testing::Values(BitIdentityParam{Backend::kCpuRadixMerge, 1},
                      BitIdentityParam{Backend::kCpuRadixMerge, 4},
                      BitIdentityParam{Backend::kGpuPbsn, 1},
                      BitIdentityParam{Backend::kGpuPbsn, 4}));

TEST(StreamServiceTest, SheddingWidensBoundsHonestly) {
  // Overload one shard deterministically: pause dispatch so nothing leaves
  // the ingress, and cap the backlog well below the appended volume.
  ServiceConfig config;
  config.backend = Backend::kCpuRadixMerge;
  config.num_workers = 4;
  config.admission = stream::AdmissionPolicy::kShed;
  config.shard_ingress_capacity = 6000;
  config.shard_batch_elements = 1024;
  auto service_or = StreamService::Create(config);
  ASSERT_TRUE(service_or.ok());
  StreamService& service = **service_or;

  const StreamKey key{42, 7};
  StreamConfig stream_config;
  stream_config.epsilon = 0.01;
  ASSERT_TRUE(service.Register(key, stream_config).ok());
  Options opt = DedicatedOptions(config, stream_config);
  auto dedicated = core::QuantileEstimator::Create(opt);
  ASSERT_TRUE(dedicated.ok());

  const std::vector<float> data = MakeStream(99, 20000);
  service.PauseDispatch();
  std::size_t admitted_total = 0;
  MirrorAppend(service, key, **dedicated, data, /*chunk=*/512, &admitted_total);
  EXPECT_LT(admitted_total, data.size());  // the cap actually bit
  const std::uint64_t shed = data.size() - admitted_total;
  EXPECT_EQ(service.admission().total_shed(), shed);

  ASSERT_TRUE(service.ResumeDispatch().ok());
  ASSERT_TRUE(service.FlushAll().ok());
  ASSERT_TRUE((*dedicated)->Flush().ok());

  for (double phi : {0.1, 0.5, 0.9}) {
    auto got = service.Quantile(key, phi);
    ASSERT_TRUE(got.ok());
    // Same answer as the dedicated estimator over the admitted prefix, with
    // the shed count surfaced and folded into the error bound — nothing else
    // may differ.
    QuantileReport expected = (*dedicated)->Quantile(phi);
    expected.elements_shed = shed;
    expected.rank_error_bound += shed;
    EXPECT_EQ(*got, expected) << "phi=" << phi;
  }

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.elements_shed, shed);
  EXPECT_EQ(stats.elements_observed, admitted_total);
}

TEST(StreamServiceTest, HundredThousandStreamsRegisterAndAnswer) {
  ServiceConfig config;
  config.backend = Backend::kCpuRadixMerge;
  config.num_workers = 4;
  auto service_or = StreamService::Create(config);
  ASSERT_TRUE(service_or.ok());
  StreamService& service = **service_or;

  // Registration must be cheap enough (lazy window buffers) that 100k
  // mostly-idle streams are practical.
  constexpr std::uint64_t kStreams = 100000;
  StreamConfig stream_config;
  stream_config.epsilon = 0.05;
  for (std::uint64_t i = 0; i < kStreams; ++i) {
    ASSERT_TRUE(service.Register({i % 257, i}, stream_config).ok());
  }
  EXPECT_EQ(service.num_streams(), kStreams);

  // A sparse subset actually ingests; every registered stream stays queryable.
  const std::vector<float> data = MakeStream(7, 2000);
  for (std::uint64_t i = 0; i < kStreams; i += 1000) {
    auto admitted = service.Append({i % 257, i}, data);
    ASSERT_TRUE(admitted.ok());
    ASSERT_EQ(*admitted, data.size());
  }
  ASSERT_TRUE(service.FlushAll().ok());

  auto active = service.Quantile({0, 0}, 0.5);
  ASSERT_TRUE(active.ok());
  EXPECT_EQ(active->window_coverage, data.size());
  auto idle = service.Quantile({1, 1}, 0.5);
  ASSERT_TRUE(idle.ok());
  EXPECT_EQ(idle->window_coverage, 0u);
}

TEST(StreamServiceTest, BatchQuantilesMatchesIndividualQueries) {
  ServiceConfig config;
  config.num_workers = 2;
  auto service_or = StreamService::Create(config);
  ASSERT_TRUE(service_or.ok());
  StreamService& service = **service_or;

  std::vector<StreamKey> keys;
  for (std::uint64_t i = 0; i < 64; ++i) keys.push_back({i % 5, i});
  StreamConfig stream_config;
  stream_config.epsilon = 0.02;
  for (const StreamKey& key : keys) {
    ASSERT_TRUE(service.Register(key, stream_config).ok());
    const std::vector<float> data = MakeStream(key.stream, 3000);
    auto admitted = service.Append(key, data);
    ASSERT_TRUE(admitted.ok());
  }
  ASSERT_TRUE(service.FlushAll().ok());

  const std::vector<QuantileReport> batch = service.BatchQuantiles(keys, 0.5);
  ASSERT_EQ(batch.size(), keys.size());
  for (std::size_t i = 0; i < keys.size(); ++i) {
    auto individual = service.Quantile(keys[i], 0.5);
    ASSERT_TRUE(individual.ok());
    EXPECT_EQ(batch[i], *individual) << "key " << i;
  }
}

TEST(StreamServiceTest, QueriesRunConcurrentlyWithIngest) {
  // TSan coverage: a reader thread snapshots reports while the ingest thread
  // appends and dispatches through the worker pool.
  ServiceConfig config;
  config.num_workers = 4;
  config.shard_batch_elements = 512;  // frequent dispatch → frequent merges
  auto service_or = StreamService::Create(config);
  ASSERT_TRUE(service_or.ok());
  StreamService& service = **service_or;

  std::vector<StreamKey> keys;
  StreamConfig stream_config;
  stream_config.epsilon = 0.02;
  for (std::uint64_t i = 0; i < 32; ++i) {
    keys.push_back({1, i});
    ASSERT_TRUE(service.Register(keys.back(), stream_config).ok());
  }

  std::atomic<bool> done{false};
  std::thread reader([&] {
    while (!done.load(std::memory_order_acquire)) {
      const std::vector<QuantileReport> reports = service.BatchQuantiles(keys, 0.5);
      for (const QuantileReport& report : reports) {
        // Coverage only grows as windows drain; the answer must always be
        // internally consistent.
        ASSERT_LE(report.window_coverage, report.stream_length);
      }
    }
  });

  const std::vector<float> data = MakeStream(3, 4000);
  for (int round = 0; round < 5; ++round) {
    for (const StreamKey& key : keys) {
      auto admitted = service.Append(key, data);
      ASSERT_TRUE(admitted.ok());
    }
  }
  ASSERT_TRUE(service.WaitIdle().ok());
  done.store(true, std::memory_order_release);
  reader.join();
  ASSERT_TRUE(service.FlushAll().ok());

  auto report = service.Quantile(keys[0], 0.5);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->window_coverage, 5u * data.size());
}

TEST(StreamServiceTest, RegistryAndLifecycleErrors) {
  ServiceConfig config;
  auto service_or = StreamService::Create(config);
  ASSERT_TRUE(service_or.ok());
  StreamService& service = **service_or;

  const StreamKey key{1, 1};
  ASSERT_TRUE(service.Register(key, {}).ok());
  EXPECT_EQ(service.Register(key, {}).code(),
            core::Status::Code::kFailedPrecondition);

  StreamConfig none;
  none.track_quantiles = false;
  none.track_frequencies = false;
  EXPECT_EQ(service.Register({1, 2}, none).code(),
            core::Status::Code::kInvalidArgument);

  StreamConfig bad_epsilon;
  bad_epsilon.epsilon = 2.0;
  EXPECT_EQ(service.Register({1, 3}, bad_epsilon).code(),
            core::Status::Code::kInvalidArgument);

  const std::vector<float> data = {1.0f, 2.0f, 3.0f};
  EXPECT_EQ(service.Append({9, 9}, data).status().code(),
            core::Status::Code::kInvalidArgument);
  EXPECT_EQ(service.Quantile({9, 9}, 0.5).status().code(),
            core::Status::Code::kInvalidArgument);
  EXPECT_EQ(service.Flush({9, 9}).code(), core::Status::Code::kInvalidArgument);

  // Quantiles-only stream rejects frequency queries.
  EXPECT_EQ(service.HeavyHitters(key, 0.1).status().code(),
            core::Status::Code::kInvalidArgument);
  EXPECT_EQ(service.EstimateCount(key, 1.0f).status().code(),
            core::Status::Code::kInvalidArgument);

  // Append after Flush is rejected; Flush stays idempotent.
  ASSERT_TRUE(service.Append(key, data).ok());
  ASSERT_TRUE(service.Flush(key).ok());
  ASSERT_TRUE(service.Flush(key).ok());
  EXPECT_EQ(service.Append(key, data).status().code(),
            core::Status::Code::kFailedPrecondition);

  ServiceConfig invalid;
  invalid.num_workers = 0;
  EXPECT_FALSE(StreamService::Create(invalid).ok());
  ServiceConfig starved;
  starved.num_workers = 4;
  starved.max_batches_in_flight = 2;
  EXPECT_FALSE(StreamService::Create(starved).ok());
}

TEST(StreamServiceTest, PerTenantMetricsAndServiceCounters) {
  obs::MetricsRegistry metrics;
  ServiceConfig config;
  config.obs.metrics = &metrics;
  config.max_tenant_metric_series = 2;
  auto service_or = StreamService::Create(config);
  ASSERT_TRUE(service_or.ok());
  StreamService& service = **service_or;

  StreamConfig stream_config;
  stream_config.epsilon = 0.05;
  // Three tenants with a cap of two labeled series: the third lands in the
  // shared "~other" overflow series instead of aborting the registry.
  for (std::uint64_t tenant : {1, 2, 3}) {
    ASSERT_TRUE(service.Register({tenant, 0}, stream_config).ok());
  }
  const std::vector<float> data = MakeStream(11, 500);
  for (std::uint64_t tenant : {1, 2, 3}) {
    ASSERT_TRUE(service.Append({tenant, 0}, data).ok());
  }
  ASSERT_TRUE(service.FlushAll().ok());

  const obs::MetricsSnapshot snapshot = metrics.Snapshot();
  std::uint64_t tenant1 = 0, other = 0, observed = 0, windows = 0;
  for (const auto& [name, value] : snapshot.counters) {
    if (name == "service.tenant.elements_observed{tenant=\"1\"}") tenant1 = value;
    if (name == "service.tenant.elements_observed{tenant=\"~other\"}") other = value;
    if (name == "service.elements_observed") observed = value;
    if (name == "service.windows_merged") windows = value;
  }
  EXPECT_EQ(tenant1, data.size());
  EXPECT_EQ(other, data.size());  // tenant 3 overflowed into "~other"
  EXPECT_EQ(observed, 3 * data.size());
  EXPECT_GT(windows, 0u);
}

TEST(StreamServiceTest, MergedQuantileCoversUnionOfShardStreams) {
  for (const auto kind : {sketch::QuantileSketchKind::kGk,
                          sketch::QuantileSketchKind::kKll}) {
    auto service_or = StreamService::Create({});
    ASSERT_TRUE(service_or.ok());
    StreamService& service = **service_or;

    StreamConfig stream_config;
    stream_config.epsilon = 0.02;
    stream_config.quantile_sketch = kind;

    // Four shard streams of one logical stream, plus a fifth registered but
    // never fed (an empty shard must be a merge identity).
    std::vector<StreamKey> keys;
    std::vector<float> all;
    for (std::uint64_t s = 0; s < 4; ++s) {
      const StreamKey key{77, s};
      ASSERT_TRUE(service.Register(key, stream_config).ok());
      const auto data = MakeStream(500 + s, 5000);
      ASSERT_TRUE(service.Append(key, data).ok());
      all.insert(all.end(), data.begin(), data.end());
      keys.push_back(key);
    }
    const StreamKey idle{77, 99};
    ASSERT_TRUE(service.Register(idle, stream_config).ok());
    keys.push_back(idle);
    ASSERT_TRUE(service.FlushAll().ok());

    std::sort(all.begin(), all.end());
    for (double phi : {0.1, 0.5, 0.9}) {
      auto merged = service.MergedQuantile(keys, phi);
      ASSERT_TRUE(merged.ok()) << merged.status().ToString();
      EXPECT_EQ(merged->window_coverage, all.size());
      EXPECT_EQ(merged->elements_shed, 0u);
      // The merged value's rank over the union stream is within the report's
      // own stated bound of the target rank.
      const auto target =
          static_cast<std::uint64_t>(std::ceil(phi * static_cast<double>(all.size())));
      const auto lo = std::lower_bound(all.begin(), all.end(), merged->value);
      const auto hi = std::upper_bound(all.begin(), all.end(), merged->value);
      const double rank_lo = static_cast<double>(lo - all.begin()) + 1;
      const double rank_hi = static_cast<double>(hi - all.begin());
      const double allowed = static_cast<double>(merged->rank_error_bound) + 1;
      EXPECT_GE(static_cast<double>(target), rank_lo - allowed) << "phi=" << phi;
      EXPECT_LE(static_cast<double>(target), rank_hi + allowed) << "phi=" << phi;
    }

    // Order independence: permuted keys give a bit-identical report.
    std::vector<StreamKey> reversed(keys.rbegin(), keys.rend());
    auto fwd = service.MergedQuantile(keys, 0.5);
    auto bwd = service.MergedQuantile(reversed, 0.5);
    ASSERT_TRUE(fwd.ok());
    ASSERT_TRUE(bwd.ok());
    EXPECT_EQ(*fwd, *bwd);
  }
}

TEST(StreamServiceTest, ExportedSummariesMergeOffline) {
  // The scale-out path: export each shard stream's summary as wire bytes and
  // merge them in a combiner outside the service, matching MergedQuantile.
  auto service_or = StreamService::Create({});
  ASSERT_TRUE(service_or.ok());
  StreamService& service = **service_or;

  StreamConfig stream_config;
  stream_config.epsilon = 0.02;
  stream_config.quantile_sketch = sketch::QuantileSketchKind::kKll;

  std::vector<StreamKey> keys{{5, 0}, {5, 1}, {5, 2}};
  for (const StreamKey& key : keys) {
    ASSERT_TRUE(service.Register(key, stream_config).ok());
    ASSERT_TRUE(service.Append(key, MakeStream(900 + key.stream, 4000)).ok());
  }
  ASSERT_TRUE(service.FlushAll().ok());

  sketch::QuantileShardCombiner combiner;
  for (const StreamKey& key : keys) {
    auto bytes = service.ExportQuantileSummary(key);
    ASSERT_TRUE(bytes.ok()) << bytes.status().ToString();
    ASSERT_TRUE(sketch::PeekSketchType(*bytes).ok());
    ASSERT_TRUE(combiner.AddShard(*bytes).ok());
  }
  const QuantileReport offline = combiner.Quantile(0.5);
  auto online = service.MergedQuantile(keys, 0.5);
  ASSERT_TRUE(online.ok());
  EXPECT_EQ(offline.value, online->value);
  EXPECT_EQ(offline.window_coverage, online->window_coverage);

  // Unknown key and a frequencies-only stream both fail cleanly.
  EXPECT_FALSE(service.ExportQuantileSummary({5, 42}).ok());
  StreamConfig freq_only;
  freq_only.epsilon = 0.05;
  freq_only.track_quantiles = false;
  freq_only.track_frequencies = true;
  ASSERT_TRUE(service.Register({6, 0}, freq_only).ok());
  EXPECT_FALSE(service.ExportQuantileSummary({6, 0}).ok());
  EXPECT_FALSE(service.MergedQuantile(std::vector<StreamKey>{}, 0.5).ok());
}

TEST(StreamServiceTest, OutOfRangePhiIsInvalidArgument) {
  // Quantile and MergedQuantile return Status, so a phi outside (0, 1] —
  // NaN included — must come back as kInvalidArgument on every backend, not
  // abort the process (GK) or answer an arbitrary value (KLL).
  ServiceConfig config;
  auto service_or = StreamService::Create(config);
  ASSERT_TRUE(service_or.ok());
  StreamService& service = **service_or;

  for (const sketch::QuantileSketchKind kind :
       {sketch::QuantileSketchKind::kGk, sketch::QuantileSketchKind::kKll}) {
    StreamConfig stream_config;
    stream_config.epsilon = 0.01;
    stream_config.quantile_sketch = kind;
    const std::uint64_t tenant = kind == sketch::QuantileSketchKind::kGk ? 1 : 2;
    const std::vector<StreamKey> keys = {{tenant, 0}, {tenant, 1}};
    for (const StreamKey& key : keys) {
      ASSERT_TRUE(service.Register(key, stream_config).ok());
      ASSERT_TRUE(service.Append(key, MakeStream(key.stream + 40, 5000)).ok());
    }
    ASSERT_TRUE(service.FlushAll().ok());
    // An idle stream (coverage 0) validates phi too.
    const StreamKey idle{tenant, 2};
    ASSERT_TRUE(service.Register(idle, stream_config).ok());

    const char* name = sketch::QuantileSketchKindName(kind);
    for (const double phi : {0.0, -0.25, 1.5, std::nan("")}) {
      for (const StreamKey& key : {keys[0], idle}) {
        const auto report = service.Quantile(key, phi);
        ASSERT_FALSE(report.ok()) << name << " phi=" << phi;
        EXPECT_EQ(report.status().code(), core::Status::Code::kInvalidArgument)
            << name << " phi=" << phi;
      }
      const auto merged = service.MergedQuantile(keys, phi);
      ASSERT_FALSE(merged.ok()) << name << " phi=" << phi;
      EXPECT_EQ(merged.status().code(), core::Status::Code::kInvalidArgument)
          << name << " phi=" << phi;
    }
    // The endpoints of (0, 1] still answer.
    for (const double phi : {1e-9, 1.0}) {
      EXPECT_TRUE(service.Quantile(keys[0], phi).ok()) << name << " phi=" << phi;
      EXPECT_TRUE(service.MergedQuantile(keys, phi).ok()) << name << " phi=" << phi;
    }
  }
}

TEST(StreamServiceTest, SlidingQuantileOverLessThanOneBlockAnswers) {
  // epsilon 0.01 over W = 10,000 gives blocks of B = 50. A window of fewer
  // than 50 elements holds no complete block: it is answered over the newest
  // block, under the stream's usual bound, instead of aborting the process.
  ServiceConfig config;
  auto service_or = StreamService::Create(config);
  ASSERT_TRUE(service_or.ok());
  StreamService& service = **service_or;
  const StreamKey key{1, 1};
  const StreamConfig stream_config{.epsilon = 0.01, .sliding_window = 10000};
  ASSERT_TRUE(service.Register(key, stream_config).ok());
  const std::vector<float> data = MakeStream(7, 5000);
  ASSERT_TRUE(service.Append(key, data).ok());
  ASSERT_TRUE(service.FlushAll().ok());

  auto dedicated = core::QuantileEstimator::Create(DedicatedOptions(config, stream_config));
  ASSERT_TRUE(dedicated.ok()) << dedicated.status().ToString();
  ASSERT_TRUE((*dedicated)->ObserveBatch(data).ok());
  ASSERT_TRUE((*dedicated)->Flush().ok());

  const std::vector<StreamKey> keys = {key};
  for (const std::uint64_t window : {10u, 49u}) {
    const auto report = service.Quantile(key, 0.5, window);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_EQ(report->window_coverage, window);
    EXPECT_EQ(report->rank_error_bound, 100u);  // ceil(epsilon * W)
    EXPECT_EQ(*report, (*dedicated)->Quantile(0.5, window)) << "window " << window;
    EXPECT_EQ(service.BatchQuantiles(keys, 0.5, window)[0], *report) << "window " << window;
  }
}

TEST(StreamServiceTest, KllBackedStreamsMatchDedicatedEstimator) {
  // The redesigned sketch API end-to-end: a KLL-backed service stream answers
  // bit-identically to a dedicated KLL-backed estimator fed the same prefix.
  ServiceConfig config;
  config.num_workers = 2;
  auto service_or = StreamService::Create(config);
  ASSERT_TRUE(service_or.ok());
  StreamService& service = **service_or;

  StreamConfig stream_config;
  stream_config.epsilon = 0.01;
  stream_config.quantile_sketch = sketch::QuantileSketchKind::kKll;
  const StreamKey key{9, 1};
  ASSERT_TRUE(service.Register(key, stream_config).ok());

  Options opt = DedicatedOptions(config, stream_config);
  opt.quantile_sketch = sketch::QuantileSketchKind::kKll;
  auto dedicated = core::QuantileEstimator::Create(opt);
  ASSERT_TRUE(dedicated.ok()) << dedicated.status().ToString();

  const std::vector<float> data = MakeStream(321, 30000);
  std::size_t admitted = 0;
  MirrorAppend(service, key, **dedicated, data, 129, &admitted);
  ASSERT_TRUE(service.FlushAll().ok());
  ASSERT_TRUE((*dedicated)->Flush().ok());

  for (double phi : {0.05, 0.25, 0.5, 0.75, 0.95}) {
    auto svc = service.Quantile(key, phi);
    ASSERT_TRUE(svc.ok());
    const QuantileReport ref = (*dedicated)->Quantile(phi);
    EXPECT_EQ(svc->value, ref.value) << "phi=" << phi;
    EXPECT_EQ(svc->rank_error_bound, ref.rank_error_bound) << "phi=" << phi;
    EXPECT_EQ(svc->window_coverage, ref.window_coverage) << "phi=" << phi;
  }
}

TEST(StreamServiceTest, RestoredServiceAnswersAndMergesIdentically) {
  // Durable round trip (docs/DURABILITY.md): checkpoint mid-ingest, rebuild
  // from the snapshot, replay the un-checkpointed suffix, and every answer —
  // per-stream, merged across streams, and the serialized shard export —
  // is bit-identical to the service that never went down.
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) / "service_restore_merge";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  ServiceConfig config;
  config.num_workers = 1;
  config.num_shards = 2;
  config.shard_batch_elements = 512;
  StreamConfig stream_config;
  stream_config.epsilon = 0.02;
  const std::vector<StreamKey> keys = {{0, 0}, {0, 1}, {1, 2}};
  const std::size_t kPerStream = 2000;
  const std::size_t kCut = 1111;

  auto ingest = [&](StreamService* service, std::size_t from, std::size_t to) {
    for (std::size_t i = 0; i < keys.size(); ++i) {
      const std::vector<float> data = MakeStream(100 + i, kPerStream);
      ASSERT_TRUE(
          service->Append(keys[i], std::span(data).subspan(from, to - from)).ok());
    }
  };

  auto ref = StreamService::Create(config);
  ASSERT_TRUE(ref.ok());
  for (const StreamKey& key : keys) {
    ASSERT_TRUE((*ref)->Register(key, stream_config).ok());
  }
  ingest(ref->get(), 0, kPerStream);
  ASSERT_TRUE((*ref)->FlushAll().ok());

  {
    auto first = StreamService::Create(config);
    ASSERT_TRUE(first.ok());
    for (const StreamKey& key : keys) {
      ASSERT_TRUE((*first)->Register(key, stream_config).ok());
    }
    ingest(first->get(), 0, kCut);
    durable::CheckpointWriter writer(dir.string());
    ASSERT_TRUE((*first)->Checkpoint(&writer).ok());
  }

  auto restored = StreamService::RestoreFrom(config, dir.string());
  ASSERT_TRUE(restored.ok()) << restored.status().message();
  ingest(restored->get(), kCut, kPerStream);
  ASSERT_TRUE((*restored)->FlushAll().ok());

  for (const StreamKey& key : keys) {
    const auto a = (*restored)->Quantile(key, 0.5);
    const auto b = (*ref)->Quantile(key, 0.5);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_EQ(*a, *b);
    const auto export_a = (*restored)->ExportQuantileSummary(key);
    const auto export_b = (*ref)->ExportQuantileSummary(key);
    ASSERT_TRUE(export_a.ok());
    ASSERT_TRUE(export_b.ok());
    EXPECT_EQ(*export_a, *export_b);
  }
  for (double phi : {0.25, 0.5, 0.9}) {
    const auto merged_a = (*restored)->MergedQuantile(keys, phi);
    const auto merged_b = (*ref)->MergedQuantile(keys, phi);
    ASSERT_TRUE(merged_a.ok());
    ASSERT_TRUE(merged_b.ok());
    EXPECT_EQ(*merged_a, *merged_b) << "phi=" << phi;
  }
}

}  // namespace
}  // namespace streamgpu::service
