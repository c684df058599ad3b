// One NaN rule on every path. A NaN has no rank, so the summaries cannot
// hold one: QuantileEstimator, FrequencyEstimator and StreamMiner
// (Observe and ObserveBatch) and StreamService::Append refuse any call that
// holds a NaN with kInvalidArgument naming it, and observe or admit none of
// that call. This suite runs every backend the paper's path and the host
// path take (pbsn, cpu-radix, auto), +NaN, -NaN and a NaN with a payload,
// with no fault plan and with one whose failed windows the CPU fallback
// recovers or, without the fallback, quarantines (estimators), and under
// both admission policies (service). For each it checks the refusal and
// that no counter of the refused call moved, then feeds the call's NaN-free
// remainder and checks every answer against sketch/exact.h (quarantined
// elements widen the stated bound), a checkpoint round trip with identical
// reports, and that the export decodes.

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/frequency_estimator.h"
#include "core/quantile_estimator.h"
#include "core/stream_miner.h"
#include "durable/checkpoint.h"
#include "service/stream_service.h"
#include "sketch/exact.h"
#include "sketch/serialize.h"
#include "stream/generator.h"

namespace streamgpu {
namespace {

using core::Backend;
using core::FrequencyReport;
using core::QuantileReport;
using core::Status;

constexpr std::size_t kN = 20000;
constexpr std::size_t kNanEvery = 997;
constexpr std::size_t kChunk = 1000;
constexpr double kEpsilon = 0.005;
constexpr double kPhis[] = {0.001, 0.25, 0.5, 0.75, 0.99, 1.0};

const Backend kBackends[] = {Backend::kGpuPbsn, Backend::kCpuRadixMerge, Backend::kAuto};

/// +NaN, -NaN and a quiet NaN with a payload.
float NanOfKind(int kind) {
  switch (kind) {
    case 0:
      return std::numeric_limits<float>::quiet_NaN();
    case 1:
      return -std::numeric_limits<float>::quiet_NaN();
    default:
      return std::bit_cast<float>(0x7FC01234u);
  }
}

/// Zipf values over 2,000 integers (exact in binary16, so the f16 path
/// quantizes nothing), with a NaN of `nan_kind` at every 997th position.
std::vector<float> StreamWithNans(int nan_kind) {
  std::vector<float> data =
      stream::StreamGenerator({.distribution = stream::Distribution::kZipf, .seed = 5})
          .Take(kN);
  for (std::size_t i = kNanEvery - 1; i < data.size(); i += kNanEvery) {
    data[i] = NanOfKind(nan_kind);
  }
  return data;
}

std::vector<float> WithoutNans(std::span<const float> values) {
  std::vector<float> out;
  for (const float v : values) {
    if (!std::isnan(v)) out.push_back(v);
  }
  return out;
}

std::string TempDir(const std::string& name) {
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) / ("nan_admission_" + name);
  std::filesystem::remove_all(dir);
  return dir.string();
}

/// The refusal: kInvalidArgument whose message names the NaN and, for a
/// call of several values, the first NaN's index.
void ExpectRefused(const Status& status, std::span<const float> call) {
  ASSERT_EQ(status.code(), Status::Code::kInvalidArgument) << status.ToString();
  EXPECT_NE(status.message().find("NaN"), std::string::npos) << status.message();
  if (call.size() > 1) {
    const auto first = std::find_if(call.begin(), call.end(),
                                    [](float v) { return std::isnan(v); });
    const std::string index = "element " + std::to_string(first - call.begin()) + " ";
    EXPECT_NE(status.message().find(index), std::string::npos) << status.message();
  }
}

/// Every counter of an estimator a refused call must leave as it was: the
/// elements observed and the fault accounting (which waits for the
/// in-flight batches first).
template <typename Estimator>
std::array<std::uint64_t, 6> Counters(const Estimator& e) {
  const core::FaultStats f = e.fault_stats();
  return {e.observed_length(), f.faults_injected,    f.sort_retries,
          f.cpu_fallbacks,     f.windows_quarantined, f.elements_dropped};
}

/// Feeds `data` to `target` one Observe per element or in kChunk-element
/// ObserveBatch calls. Each call that holds a NaN must be refused with
/// `state()` unchanged; its NaN-free remainder is then fed again. Returns
/// the values observed.
template <typename Target, typename State>
std::vector<float> FeedRefusingNans(Target& target, bool batch, std::span<const float> data,
                                    State state) {
  std::vector<float> observed;
  const std::size_t call = batch ? kChunk : 1;
  for (std::size_t off = 0; off < data.size(); off += call) {
    const std::span<const float> values = data.subspan(off, std::min(call, data.size() - off));
    const std::vector<float> clean = WithoutNans(values);
    if (clean.size() == values.size()) {
      const Status status =
          batch ? target.ObserveBatch(values) : target.Observe(values.front());
      EXPECT_TRUE(status.ok()) << status.ToString();
    } else {
      const auto before = state();
      ExpectRefused(batch ? target.ObserveBatch(values) : target.Observe(values.front()),
                    values);
      EXPECT_EQ(state(), before) << "a refused call moved the estimator";
      if (batch) {
        EXPECT_TRUE(target.ObserveBatch(clean).ok());
      }
    }
    observed.insert(observed.end(), clean.begin(), clean.end());
  }
  return observed;
}

/// `report`'s value has a rank among `covered` within its stated bound of
/// ceil(phi * |covered|). `covered` is every element offered: the ones the
/// summary merged plus the quarantined ones, which widen the bound.
void ExpectRankWithinBound(const QuantileReport& report, std::span<const float> covered) {
  ASSERT_EQ(report.window_coverage + report.elements_dropped, covered.size());
  const auto [lo, hi] = sketch::ExactRankRange(covered, report.value);
  const auto target = static_cast<std::uint64_t>(
                          std::ceil(report.phi * static_cast<double>(covered.size()))) -
                      1;
  const std::uint64_t error = target < lo ? lo - target : (target > hi ? target - hi : 0);
  EXPECT_LE(error, report.rank_error_bound)
      << "phi " << report.phi << " value " << report.value;
}

/// Every distinct value's estimate undercounts by at most the stated bound
/// and never overcounts (`covered` as for ExpectRankWithinBound).
template <typename EstimateFn>
void ExpectCountsWithinBound(const FrequencyReport& report, std::span<const float> covered,
                             EstimateFn estimate) {
  ASSERT_EQ(report.window_coverage + report.elements_dropped, covered.size());
  for (const auto& [value, count] : sketch::ExactCounts(covered)) {
    const std::uint64_t est = estimate(value);
    EXPECT_LE(est, count) << value;
    EXPECT_LE(count - est, report.error_bound) << value;
  }
}

/// No fault plan; corrupted passes the CPU fallback recovers; the same
/// passes without the fallback, so a window whose retries fail is
/// quarantined.
enum class Fault { kNone, kFallback, kQuarantine };
constexpr Fault kFaults[] = {Fault::kNone, Fault::kFallback, Fault::kQuarantine};

core::Options EstimatorOptions(Backend backend, Fault fault, const std::string& dir) {
  core::Options options;
  options.epsilon = kEpsilon;
  options.backend = backend;
  options.checkpoint_dir = dir;
  if (fault != Fault::kNone) {
    // Without the fallback the rule is capped at 700 fires: uncapped, every
    // PBSN window fails its retries and nothing is left to answer.
    options.fault.plan = *core::FaultPlan::Parse(
        fault == Fault::kFallback ? "pass:bitflip:every=7" : "pass:bitflip:every=7,max=700", 3);
    options.fault.cpu_fallback = fault == Fault::kFallback;
  }
  return options;
}

/// The options to restore a `fault` cell's estimator with. A restored
/// injector starts its plan over, while the live one's capped quarantine
/// plan is spent by the checkpoint: the restored one runs without it.
core::Options RestoreOptions(core::Options options, Fault fault) {
  if (fault == Fault::kQuarantine) options.fault.plan = core::FaultPlan{};
  return options;
}

/// Outside the quarantine cells nothing is dropped, so the summary covers
/// every element offered; a quarantine cell on the PBSN path loses some
/// windows, not all of them.
template <typename Report>
void ExpectQuarantine(Backend backend, Fault fault, const Report& report) {
  if (fault != Fault::kQuarantine) {
    EXPECT_EQ(report.windows_quarantined, 0u);
    EXPECT_EQ(report.elements_dropped, 0u);
  } else if (backend == Backend::kGpuPbsn) {
    EXPECT_GT(report.windows_quarantined, 0u);
    EXPECT_GT(report.window_coverage, 0u);
  }
}

std::string CaseName(Backend backend, Fault fault, bool batch, int nan_kind) {
  const char* plan[] = {"", "_fault", "_quarantine"};
  return std::string(core::BackendName(backend)) + plan[static_cast<int>(fault)] +
         (batch ? "_batch" : "_each") + "_nan" + std::to_string(nan_kind);
}

std::vector<QuantileReport> QuantileReports(const core::QuantileEstimator& q) {
  std::vector<QuantileReport> reports;
  for (const double phi : kPhis) reports.push_back(q.Quantile(phi));
  return reports;
}

TEST(NanAdmission, QuantileEstimatorRefusesEveryNanCall) {
  for (const Backend backend : kBackends) {
    for (const Fault fault : kFaults) {
      for (const bool batch : {false, true}) {
        for (int nan_kind = 0; nan_kind < 3; ++nan_kind) {
          const std::string name = "q_" + CaseName(backend, fault, batch, nan_kind);
          SCOPED_TRACE(name);
          const core::Options options = EstimatorOptions(backend, fault, TempDir(name));
          auto q = core::QuantileEstimator::Create(options);
          ASSERT_TRUE(q.ok()) << q.status().ToString();
          const std::vector<float> data = StreamWithNans(nan_kind);
          const std::vector<float> kept =
              FeedRefusingNans(**q, batch, data, [&] { return Counters(**q); });
          ASSERT_EQ((*q)->observed_length(), kept.size());

          ASSERT_TRUE((*q)->Checkpoint().ok());
          auto restored = core::QuantileEstimator::Restore(RestoreOptions(options, fault));
          ASSERT_TRUE(restored.ok()) << restored.status().ToString();
          EXPECT_EQ(QuantileReports(**restored), QuantileReports(**q));

          ASSERT_TRUE((*q)->Flush().ok());
          ASSERT_TRUE((*restored)->Flush().ok());
          EXPECT_EQ(QuantileReports(**restored), QuantileReports(**q));
          for (const QuantileReport& report : QuantileReports(**q)) {
            ExpectQuarantine(backend, fault, report);
            ExpectRankWithinBound(report, kept);
          }
          auto exported = (*q)->SerializedSummary();
          ASSERT_TRUE(exported.ok());
          std::span<const std::uint8_t> bytes(*exported);
          EXPECT_TRUE(sketch::DeserializeGkSummary(&bytes).ok());
        }
      }
    }
  }
}

TEST(NanAdmission, FrequencyEstimatorRefusesEveryNanCall) {
  for (const Backend backend : kBackends) {
    for (const Fault fault : kFaults) {
      for (const bool batch : {false, true}) {
        for (int nan_kind = 0; nan_kind < 3; ++nan_kind) {
          const std::string name = "f_" + CaseName(backend, fault, batch, nan_kind);
          SCOPED_TRACE(name);
          const core::Options options = EstimatorOptions(backend, fault, TempDir(name));
          auto f = core::FrequencyEstimator::Create(options);
          ASSERT_TRUE(f.ok()) << f.status().ToString();
          const std::vector<float> data = StreamWithNans(nan_kind);
          const std::vector<float> kept =
              FeedRefusingNans(**f, batch, data, [&] { return Counters(**f); });
          ASSERT_EQ((*f)->observed_length(), kept.size());

          ASSERT_TRUE((*f)->Checkpoint().ok());
          auto restored = core::FrequencyEstimator::Restore(RestoreOptions(options, fault));
          ASSERT_TRUE(restored.ok()) << restored.status().ToString();
          EXPECT_EQ((*restored)->HeavyHitters(0.01), (*f)->HeavyHitters(0.01));

          ASSERT_TRUE((*f)->Flush().ok());
          ASSERT_TRUE((*restored)->Flush().ok());
          EXPECT_EQ((*restored)->HeavyHitters(0.01), (*f)->HeavyHitters(0.01));
          ExpectQuarantine(backend, fault, (*f)->HeavyHitters(0.01));
          ExpectCountsWithinBound((*f)->HeavyHitters(0.01), kept,
                                  [&](float v) { return (*f)->EstimateCount(v); });
        }
      }
    }
  }
}

TEST(NanAdmission, StreamMinerKeepsItsEstimatorsInStep) {
  // A refused call reaches neither estimator. (A miner does not checkpoint;
  // the two tests above check each estimator's snapshot round trips.)
  for (const Backend backend : kBackends) {
    for (const Fault fault : kFaults) {
      for (const bool batch : {false, true}) {
        for (int nan_kind = 0; nan_kind < 3; ++nan_kind) {
          SCOPED_TRACE("miner_" + CaseName(backend, fault, batch, nan_kind));
          auto miner = core::StreamMiner::Create(EstimatorOptions(backend, fault, ""));
          ASSERT_TRUE(miner.ok()) << miner.status().ToString();
          core::StreamMiner& m = **miner;
          const std::vector<float> data = StreamWithNans(nan_kind);
          const std::vector<float> kept = FeedRefusingNans(m, batch, data, [&] {
            return std::pair(Counters(m.frequencies()), Counters(m.quantiles()));
          });
          ASSERT_TRUE(m.Flush().ok());
          EXPECT_EQ(m.frequencies().observed_length(), kept.size());
          EXPECT_EQ(m.quantiles().observed_length(), kept.size());
          for (const QuantileReport& report : QuantileReports(m.quantiles())) {
            ExpectQuarantine(backend, fault, report);
            ExpectRankWithinBound(report, kept);
          }
          ExpectQuarantine(backend, fault, m.frequencies().HeavyHitters(0.01));
          ExpectCountsWithinBound(m.frequencies().HeavyHitters(0.01), kept,
                                  [&](float v) { return m.frequencies().EstimateCount(v); });
        }
      }
    }
  }
}

/// Everything a refused Append must leave as it was.
struct ServiceState {
  std::uint64_t offered = 0;
  std::vector<std::size_t> backlogs;
  std::vector<std::uint64_t> shed;
  std::uint64_t total_shed = 0;
  service::ServiceStats stats;

  static ServiceState Of(const service::StreamService& s, const service::StreamKey& key) {
    ServiceState state;
    state.offered = *s.OfferedLength(key);
    for (int shard = 0; shard < s.num_shards(); ++shard) {
      state.backlogs.push_back(s.admission().backlog(static_cast<std::size_t>(shard)));
      state.shed.push_back(s.admission().shed(static_cast<std::size_t>(shard)));
    }
    state.total_shed = s.admission().total_shed();
    state.stats = s.stats();
    return state;
  }

  bool operator==(const ServiceState& o) const {
    return offered == o.offered && backlogs == o.backlogs && shed == o.shed &&
           total_shed == o.total_shed && stats.streams == o.stats.streams &&
           stats.elements_observed == o.stats.elements_observed &&
           stats.elements_shed == o.stats.elements_shed &&
           stats.batches_dispatched == o.stats.batches_dispatched &&
           stats.windows_merged == o.stats.windows_merged;
  }
};

service::ServiceConfig ServiceConfigFor(Backend backend, stream::AdmissionPolicy admission) {
  service::ServiceConfig config;
  config.backend = backend;
  config.admission = admission;
  config.shard_batch_elements = 1024;
  config.shard_ingress_capacity = 6000;
  return config;
}

service::StreamConfig BothSummaries() {
  service::StreamConfig config;
  config.epsilon = kEpsilon;
  config.track_frequencies = true;
  return config;
}

/// The stream's quantile reports at kPhis and its estimate of every value
/// in `values`.
std::pair<std::vector<QuantileReport>, std::vector<std::uint64_t>> ServiceAnswers(
    const service::StreamService& s, const service::StreamKey& key,
    std::span<const float> values) {
  std::pair<std::vector<QuantileReport>, std::vector<std::uint64_t>> answers;
  for (const double phi : kPhis) answers.first.push_back(*s.Quantile(key, phi));
  for (const float v : values) answers.second.push_back(*s.EstimateCount(key, v));
  return answers;
}

TEST(NanAdmission, ServiceAppendRefusesEveryNanCall) {
  const service::StreamKey key{3, 11};
  for (const Backend backend : kBackends) {
    for (const auto admission :
         {stream::AdmissionPolicy::kBlock, stream::AdmissionPolicy::kShed}) {
      for (int nan_kind = 0; nan_kind < 3; ++nan_kind) {
        const bool shed = admission == stream::AdmissionPolicy::kShed;
        const std::string name = std::string("service_") + core::BackendName(backend) +
                                 (shed ? "_shed" : "_block") + "_nan" +
                                 std::to_string(nan_kind);
        SCOPED_TRACE(name);
        const service::ServiceConfig config = ServiceConfigFor(backend, admission);
        auto created = service::StreamService::Create(config);
        ASSERT_TRUE(created.ok());
        service::StreamService& s = **created;
        ASSERT_TRUE(s.Register(key, BothSummaries()).ok());

        // Under kShed the first half arrives while dispatch is paused, so
        // the ingress fills and sheds: a refused call must not shed either.
        if (shed) s.PauseDispatch();
        const std::vector<float> data = StreamWithNans(nan_kind);
        std::vector<float> admitted;
        for (std::size_t off = 0; off < data.size(); off += kChunk) {
          if (shed && off == data.size() / 2) {
            ASSERT_TRUE(s.ResumeDispatch().ok());
          }
          const std::span<const float> values(data.data() + off,
                                              std::min(kChunk, data.size() - off));
          std::vector<float> clean = WithoutNans(values);
          if (clean.size() != values.size()) {
            const ServiceState before = ServiceState::Of(s, key);
            const auto refused = s.Append(key, values);
            ExpectRefused(refused.status(), values);
            EXPECT_TRUE(ServiceState::Of(s, key) == before)
                << "a refused Append moved the service";
          }
          const auto taken = s.Append(key, clean);
          ASSERT_TRUE(taken.ok()) << taken.status().ToString();
          admitted.insert(admitted.end(), clean.begin(), clean.begin() + *taken);
        }
        if (shed) {
          EXPECT_LT(admitted.size(), WithoutNans(data).size());  // the cap bit
        }
        ASSERT_EQ(s.stats().elements_observed, admitted.size());

        const std::string dir = TempDir(name);
        {
          durable::CheckpointWriter writer(dir);
          ASSERT_TRUE(s.Checkpoint(&writer).ok());
        }
        auto restored = service::StreamService::RestoreFrom(config, dir);
        ASSERT_TRUE(restored.ok()) << restored.status().ToString();
        EXPECT_EQ(ServiceAnswers(**restored, key, admitted),
                  ServiceAnswers(s, key, admitted));

        ASSERT_TRUE(s.FlushAll().ok());
        ASSERT_TRUE((*restored)->FlushAll().ok());
        EXPECT_EQ(ServiceAnswers(**restored, key, admitted),
                  ServiceAnswers(s, key, admitted));
        for (const double phi : kPhis) {
          const QuantileReport report = *s.Quantile(key, phi);
          // The bound already carries the shed widening; the ranks are
          // among the admitted elements.
          ExpectRankWithinBound(report, admitted);
        }
        const auto hitters = s.HeavyHitters(key, 0.01);
        ASSERT_TRUE(hitters.ok());
        ExpectCountsWithinBound(*hitters, admitted,
                                [&](float v) { return *s.EstimateCount(key, v); });
        auto exported = s.ExportQuantileSummary(key);
        ASSERT_TRUE(exported.ok());
        std::span<const std::uint8_t> bytes(*exported);
        EXPECT_TRUE(sketch::DeserializeGkSummary(&bytes).ok());
      }
    }
  }
}

TEST(NanAdmission, OneStreamsRefusedNanLeavesEveryStreamRestorable) {
  // Ten streams; one has a NaN append refused. The service checkpoints and
  // restores all ten with identical reports.
  const service::ServiceConfig config =
      ServiceConfigFor(Backend::kCpuRadixMerge, stream::AdmissionPolicy::kBlock);
  auto created = service::StreamService::Create(config);
  ASSERT_TRUE(created.ok());
  service::StreamService& s = **created;
  std::vector<service::StreamKey> keys;
  for (std::uint64_t i = 0; i < 10; ++i) {
    keys.push_back({i % 3, i});
    ASSERT_TRUE(s.Register(keys.back(), BothSummaries()).ok());
  }
  const std::vector<float> data = StreamWithNans(1);
  const std::vector<float> clean = WithoutNans(data);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    if (i == 4) {
      ExpectRefused(s.Append(keys[i], data).status(), data);
      EXPECT_EQ(*s.OfferedLength(keys[i]), 0u);
    }
    ASSERT_TRUE(s.Append(keys[i], std::span(clean).first(clean.size() - 100 * i)).ok());
  }

  const std::string dir = TempDir("isolation");
  {
    durable::CheckpointWriter writer(dir);
    ASSERT_TRUE(s.Checkpoint(&writer).ok());
  }
  auto restored = service::StreamService::RestoreFrom(config, dir);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  ASSERT_TRUE(s.FlushAll().ok());
  ASSERT_TRUE((*restored)->FlushAll().ok());
  for (const service::StreamKey& key : keys) {
    SCOPED_TRACE("stream " + std::to_string(key.stream));
    EXPECT_EQ(ServiceAnswers(**restored, key, clean), ServiceAnswers(s, key, clean));
  }
}

}  // namespace
}  // namespace streamgpu
