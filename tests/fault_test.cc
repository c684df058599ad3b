// Fault-injection and recovery suite (docs/ROBUSTNESS.md).
//
// Covers the whole chain: plan parsing and validation, injector determinism,
// the ResilientSorter guard (every corruption kind must be caught, across
// seeds — the property the recovery path rests on), healing equivalence
// (reports under transient faults are bit-identical to fault-free runs, both
// serial and pipelined), honest accounting when recovery is impossible
// (quarantine widens the reported bounds). The executor's own failure paths
// (dead drain, drain deadline) live in pipeline_test.cc, which the
// ThreadSanitizer job also runs.

#include <algorithm>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/fault.h"
#include "core/frequency_estimator.h"
#include "core/options.h"
#include "core/quantile_estimator.h"
#include "core/status.h"
#include "gpu/fault_hook.h"
#include "hwmodel/hardware_profiles.h"
#include "sort/cpu_sort.h"
#include "sort/resilient.h"
#include "stream/generator.h"

namespace streamgpu::core {
namespace {

std::vector<float> ZipfStream(std::size_t n, unsigned seed) {
  stream::StreamGenerator gen({.distribution = stream::Distribution::kZipf,
                               .seed = seed,
                               .domain_size = 300});
  return gen.Take(n);
}

// --- Plan parsing ---------------------------------------------------------

TEST(FaultPlanTest, ParsesAndRoundTrips) {
  const std::string spec =
      "pass:lost:every=5,max=2;readback:bitflip:p=0.01,bit=20;"
      "queue:stall:every=7,stall_us=250;upload:nan:after=3";
  auto plan = FaultPlan::Parse(spec, 42);
  ASSERT_TRUE(plan.ok()) << plan.status().message();
  ASSERT_EQ(plan->rules.size(), 4u);
  EXPECT_EQ(plan->seed, 42u);
  EXPECT_EQ(plan->rules[0].site, FaultSite::kGpuPass);
  EXPECT_EQ(plan->rules[0].kind, FaultKind::kDeviceLost);
  EXPECT_EQ(plan->rules[0].every_n, 5u);
  EXPECT_EQ(plan->rules[0].max_fires, 2u);
  EXPECT_EQ(plan->rules[1].site, FaultSite::kGpuReadback);
  EXPECT_DOUBLE_EQ(plan->rules[1].probability, 0.01);
  EXPECT_EQ(plan->rules[1].bit, 20);
  EXPECT_EQ(plan->rules[2].site, FaultSite::kQueue);
  EXPECT_EQ(plan->rules[2].stall_us, 250u);
  // A rule with no trigger defaults to every op.
  EXPECT_EQ(plan->rules[3].every_n, 1u);
  EXPECT_EQ(plan->rules[3].start_after, 3u);

  // The canonical form re-parses to the same plan.
  auto again = FaultPlan::Parse(plan->ToString(), 42);
  ASSERT_TRUE(again.ok()) << again.status().message();
  ASSERT_EQ(again->rules.size(), plan->rules.size());
  EXPECT_EQ(again->ToString(), plan->ToString());
}

TEST(FaultPlanTest, EmptySpecDisables) {
  auto plan = FaultPlan::Parse("", 1);
  ASSERT_TRUE(plan.ok());
  EXPECT_TRUE(plan->empty());
  EXPECT_EQ(plan->ToString(), "");
}

TEST(FaultPlanTest, RejectsMalformedSpecs) {
  const char* bad[] = {
      "pass",                          // no kind
      "warp:bitflip",                  // unknown site
      "pass:meltdown",                 // unknown kind
      "pass:bitflip:every=0",          // zero period
      "pass:bitflip:p=1.5",            // probability out of range
      "pass:bitflip:every=2,p=0.5",    // two triggers
      "pass:bitflip:bit=32",           // bit out of range for binary32
      "queue:bitflip",                 // queue site only stalls
      "pass:bitflip:every=x",          // non-numeric value
      "pass:bitflip:frobnicate=1",     // unknown key
  };
  for (const char* spec : bad) {
    auto plan = FaultPlan::Parse(spec, 1);
    EXPECT_FALSE(plan.ok()) << "accepted: " << spec;
    EXPECT_EQ(plan.status().code(), Status::Code::kInvalidArgument) << spec;
  }
}

// --- Options validation (satellite: in-flight cap vs worker count) --------

TEST(FaultOptionsTest, RejectsInFlightCapBelowWorkerCount) {
  Options opt;
  opt.backend = Backend::kCpuStdSort;
  opt.num_sort_workers = 4;
  opt.max_windows_in_flight = 2;  // starves two workers; can deadlock
  const Status status = opt.Validate();
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), Status::Code::kInvalidArgument);

  opt.max_windows_in_flight = 4;
  EXPECT_TRUE(opt.Validate().ok());
  opt.max_windows_in_flight = 0;  // auto is always fine
  EXPECT_TRUE(opt.Validate().ok());
  opt.num_sort_workers = 1;  // serial mode ignores the cap
  opt.max_windows_in_flight = 1;
  EXPECT_TRUE(opt.Validate().ok());
}

TEST(FaultOptionsTest, RejectsInconsistentRecoveryKnobs) {
  Options opt;
  opt.fault.plan = *FaultPlan::Parse("pass:bitflip:every=2", 1);
  EXPECT_TRUE(opt.Validate().ok());
  opt.fault.max_retries = -1;
  EXPECT_FALSE(opt.Validate().ok());
  opt.fault.max_retries = 3;
  opt.fault.drain_deadline_seconds = -0.5;
  EXPECT_FALSE(opt.Validate().ok());
  opt.fault.drain_deadline_seconds = 0;
  opt.fault.backoff_initial_us = 500;
  opt.fault.backoff_max_us = 100;
  EXPECT_FALSE(opt.Validate().ok());
}

// --- Injector determinism -------------------------------------------------

TEST(FaultInjectorTest, SameSeedSameFires) {
  const auto plan = *FaultPlan::Parse("pass:bitflip:p=0.2;upload:nan:every=3", 9);
  FaultInjector a(plan, 1);
  FaultInjector b(plan, 1);
  FaultInjector other_stream(plan, 2);
  std::vector<bool> fires_a, fires_b, fires_c;
  for (int i = 0; i < 200; ++i) {
    const auto site = (i % 2 == 0) ? gpu::DeviceFaultSite::kPass
                                   : gpu::DeviceFaultSite::kUpload;
    fires_a.push_back(a.OnDeviceOp(site, 64).kind != gpu::DeviceFault::Kind::kNone);
    fires_b.push_back(b.OnDeviceOp(site, 64).kind != gpu::DeviceFault::Kind::kNone);
    fires_c.push_back(other_stream.OnDeviceOp(site, 64).kind !=
                      gpu::DeviceFault::Kind::kNone);
  }
  EXPECT_EQ(fires_a, fires_b);       // reproducible
  EXPECT_NE(fires_a, fires_c);       // decorrelated across streams
  EXPECT_GT(a.fires(), 0u);
  EXPECT_EQ(a.fires(), b.fires());
}

// --- The post-sort guard (property test) ----------------------------------

// An inner sorter that sorts correctly, then corrupts one element of the
// first run for its first `corrupt_batches` batches — a deterministic stand-in
// for a flaky device, independent of the GPU seam.
class CorruptingSorter final : public sort::Sorter {
 public:
  CorruptingSorter(gpu::DeviceFault::Kind kind, int corrupt_batches)
      : inner_(hwmodel::kPentium4_3400), kind_(kind), remaining_(corrupt_batches) {}

  void Sort(std::span<float> data) override {
    std::span<float> runs[] = {data};
    SortRuns(runs);
  }
  void SortRuns(std::span<std::span<float>> runs) override {
    inner_.SortRuns(runs);
    set_last_run(inner_.last_run());
    if (remaining_ > 0 && !runs.empty() && !runs[0].empty()) {
      --remaining_;
      float& v = runs[0][runs[0].size() / 2];
      v = gpu::CorruptValue(v, kind_, /*bit=*/12);
    }
  }
  const sort::SortRunInfo& last_run() const override { return last_run_; }
  const char* name() const override { return "corrupting"; }

 protected:
  void set_last_run(const sort::SortRunInfo& info) override { last_run_ = info; }

 private:
  sort::StdSortSorter inner_;
  const gpu::DeviceFault::Kind kind_;
  int remaining_;
  sort::SortRunInfo last_run_;
};

TEST(ResilientSorterTest, GuardCatchesEveryCorruptionKindAcrossSeeds) {
  // Property: whatever single-value damage a pass inflicts — a flipped
  // mantissa/exponent bit, a NaN, a silent half-truncation — the guard
  // detects it and the retried result equals an honest sort. Values are
  // drawn with full f32 precision so half-truncation is never a no-op.
  const gpu::DeviceFault::Kind kinds[] = {gpu::DeviceFault::Kind::kBitFlip,
                                          gpu::DeviceFault::Kind::kNan,
                                          gpu::DeviceFault::Kind::kTruncateHalf};
  for (const auto kind : kinds) {
    for (unsigned seed = 1; seed <= 5; ++seed) {
      stream::StreamGenerator gen(
          {.distribution = stream::Distribution::kUniformReal, .seed = seed});
      std::vector<float> data = gen.Take(512);
      std::vector<float> expected = data;
      std::sort(expected.begin(), expected.end());

      CorruptingSorter flaky(kind, /*corrupt_batches=*/1);
      sort::QuicksortSorter fallback(hwmodel::kPentium4_3400);
      sort::ResilientSorter sorter(&flaky, &fallback, nullptr, nullptr, {}, "t.",
                                   sort::ResilienceOptions{});
      sorter.Sort(data);

      EXPECT_EQ(data, expected) << "kind " << static_cast<int>(kind) << " seed "
                                << seed;
      EXPECT_EQ(sorter.stats().sort_retries, 1u);
      EXPECT_EQ(sorter.stats().windows_quarantined, 0u);
      EXPECT_EQ(sorter.last_quarantine_mask(), 0u);
    }
  }
}

TEST(ResilientSorterTest, ExhaustedRetriesFallBackToCpu) {
  std::vector<float> data = ZipfStream(256, 3);
  std::vector<float> expected = data;
  std::sort(expected.begin(), expected.end());

  CorruptingSorter flaky(gpu::DeviceFault::Kind::kBitFlip, /*corrupt_batches=*/100);
  sort::QuicksortSorter fallback(hwmodel::kPentium4_3400);
  sort::ResilienceOptions opts;
  opts.max_retries = 2;
  opts.backoff_initial_us = 1;  // keep the test fast
  opts.backoff_max_us = 1;
  sort::ResilientSorter sorter(&flaky, &fallback, nullptr, nullptr, {}, "t.", opts);
  sorter.Sort(data);

  EXPECT_EQ(data, expected);
  EXPECT_EQ(sorter.stats().sort_retries, 2u);
  EXPECT_EQ(sorter.stats().cpu_fallbacks, 1u);
  EXPECT_EQ(sorter.last_quarantine_mask(), 0u);
}

TEST(ResilientSorterTest, QuarantinesWhenFallbackDisabled) {
  std::vector<float> data = ZipfStream(256, 4);
  const std::vector<float> original = data;

  CorruptingSorter flaky(gpu::DeviceFault::Kind::kNan, /*corrupt_batches=*/100);
  sort::ResilienceOptions opts;
  opts.max_retries = 1;
  opts.cpu_fallback = false;
  opts.backoff_initial_us = 1;
  opts.backoff_max_us = 1;
  sort::ResilientSorter sorter(&flaky, nullptr, nullptr, nullptr, {}, "t.", opts);
  sorter.Sort(data);

  EXPECT_EQ(sorter.last_quarantine_mask(), 1u);
  EXPECT_EQ(sorter.stats().windows_quarantined, 1u);
  EXPECT_EQ(sorter.stats().elements_dropped, 256u);
  // The quarantined run is restored to its pre-sort contents, not left
  // half-damaged.
  EXPECT_EQ(data, original);
}

// --- End-to-end healing equivalence ---------------------------------------

struct Reports {
  FrequencyReport hitters;
  QuantileReport median;
  QuantileReport tail;
};

// gtest's ASSERT macros need a void return, so the body is a lambda.
Reports RunEstimators(Options opt, const std::vector<float>& data) {
  Reports out;
  [&]() {
    {
      FrequencyEstimator fe(opt);
      ASSERT_TRUE(fe.ObserveBatch(data).ok());
      ASSERT_TRUE(fe.Flush().ok());
      out.hitters = fe.HeavyHitters(0.01);
    }
    {
      QuantileEstimator qe(opt);
      ASSERT_TRUE(qe.ObserveBatch(data).ok());
      ASSERT_TRUE(qe.Flush().ok());
      out.median = qe.Quantile(0.5);
      out.tail = qe.Quantile(0.99);
    }
  }();
  return out;
}

TEST(FaultRecoveryTest, TransientFaultsLeaveReportsBitIdentical) {
  // Transient corruption and recoverable device loss are repaired by
  // retry / CPU re-sort, so every query answer must be bit-identical to the
  // fault-free run — serial and pipelined alike.
  const auto data = ZipfStream(40000, 11);
  Options clean;
  clean.epsilon = 0.005;
  clean.backend = Backend::kGpuPbsn;
  const Reports baseline = RunEstimators(clean, data);

  Options faulty = clean;
  faulty.fault.plan = *FaultPlan::Parse(
      "pass:bitflip:every=4;readback:nan:p=0.05;upload:half:every=9;"
      "pass:lost:every=25,max=3", 21);
  faulty.fault.backoff_initial_us = 1;
  faulty.fault.backoff_max_us = 1;
  const Reports serial = RunEstimators(faulty, data);
  EXPECT_EQ(serial.hitters, baseline.hitters);
  EXPECT_EQ(serial.median, baseline.median);
  EXPECT_EQ(serial.tail, baseline.tail);

  faulty.num_sort_workers = 4;
  faulty.fault.plan = *FaultPlan::Parse(
      "pass:bitflip:every=4;readback:nan:p=0.05;"
      "queue:stall:every=10,stall_us=200", 21);
  const Reports pipelined = RunEstimators(faulty, data);
  EXPECT_EQ(pipelined.hitters, baseline.hitters);
  EXPECT_EQ(pipelined.median, baseline.median);
  EXPECT_EQ(pipelined.tail, baseline.tail);
}

TEST(FaultRecoveryTest, RepeatedDeviceLossDegradesToCpuAndStaysCorrect) {
  const auto data = ZipfStream(20000, 5);
  Options clean;
  clean.epsilon = 0.005;
  clean.backend = Backend::kGpuPbsn;
  const Reports baseline = RunEstimators(clean, data);

  Options faulty = clean;
  faulty.fault.plan = *FaultPlan::Parse("pass:lost:every=1", 2);  // device is gone
  faulty.fault.backoff_initial_us = 1;
  faulty.fault.backoff_max_us = 1;
  FrequencyEstimator fe(faulty);
  ASSERT_TRUE(fe.ObserveBatch(data).ok());
  ASSERT_TRUE(fe.Flush().ok());
  EXPECT_EQ(fe.HeavyHitters(0.01), baseline.hitters);
  const FaultStats stats = fe.fault_stats();
  EXPECT_GT(stats.faults_injected, 0u);
  EXPECT_GT(stats.cpu_fallbacks, 0u);
  EXPECT_EQ(stats.windows_quarantined, 0u);
}

TEST(FaultRecoveryTest, QuarantineWidensReportedBounds) {
  // With the CPU fallback disabled and persistent corruption, windows are
  // quarantined: the answers cover fewer elements and both reports must say
  // so instead of pretending full coverage.
  const auto data = ZipfStream(20000, 7);
  Options clean;
  clean.epsilon = 0.005;
  clean.backend = Backend::kGpuPbsn;
  const Reports baseline = RunEstimators(clean, data);

  Options faulty = clean;
  faulty.fault.plan = *FaultPlan::Parse("readback:bitflip:every=2", 13);
  faulty.fault.cpu_fallback = false;
  faulty.fault.max_retries = 1;
  faulty.fault.backoff_initial_us = 1;
  faulty.fault.backoff_max_us = 1;

  FrequencyEstimator fe(faulty);
  ASSERT_TRUE(fe.ObserveBatch(data).ok());
  ASSERT_TRUE(fe.Flush().ok());
  const FrequencyReport hitters = fe.HeavyHitters(0.01);
  EXPECT_GT(hitters.windows_quarantined, 0u);
  EXPECT_GT(hitters.elements_dropped, 0u);
  // The bound is ceil(epsilon * covered) + dropped: the epsilon term shrinks
  // with the lost coverage, the additive term dominates.
  EXPECT_GE(hitters.error_bound, hitters.elements_dropped);
  EXPECT_GT(hitters.error_bound, baseline.hitters.error_bound);
  EXPECT_LT(hitters.window_coverage, baseline.hitters.window_coverage);
  EXPECT_EQ(fe.fault_stats().windows_quarantined, hitters.windows_quarantined);

  QuantileEstimator qe(faulty);
  ASSERT_TRUE(qe.ObserveBatch(data).ok());
  ASSERT_TRUE(qe.Flush().ok());
  const QuantileReport median = qe.Quantile(0.5);
  EXPECT_GT(median.windows_quarantined, 0u);
  EXPECT_GT(median.elements_dropped, 0u);
  EXPECT_GT(median.rank_error_bound, baseline.median.rank_error_bound);
}

}  // namespace
}  // namespace streamgpu::core
