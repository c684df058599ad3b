// Tests for the public API (core/): estimator configuration, backend
// equivalence, and cost accounting.

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "core/frequency_estimator.h"
#include "core/quantile_estimator.h"
#include "core/stream_miner.h"
#include "sketch/exact.h"
#include "stream/generator.h"

namespace streamgpu::core {
namespace {

std::vector<float> TestStream(std::size_t n, unsigned seed, int domain = 300) {
  stream::StreamGenerator gen({.distribution = stream::Distribution::kZipf,
                               .seed = seed,
                               .domain_size = static_cast<std::uint32_t>(domain)});
  return gen.Take(n);
}

TEST(SortEngineTest, GpuBackendsOwnADevice) {
  Options gpu_opt;
  gpu_opt.backend = Backend::kGpuPbsn;
  SortEngine gpu_engine(gpu_opt);
  EXPECT_TRUE(gpu_engine.is_gpu());
  EXPECT_NE(gpu_engine.device(), nullptr);
  EXPECT_EQ(gpu_engine.batch_windows(), 4);

  Options cpu_opt;
  cpu_opt.backend = Backend::kCpuQuicksort;
  SortEngine cpu_engine(cpu_opt);
  EXPECT_FALSE(cpu_engine.is_gpu());
  EXPECT_EQ(cpu_engine.device(), nullptr);
  EXPECT_EQ(cpu_engine.batch_windows(), 1);
}

TEST(FrequencyEstimatorTest, WindowDefaultsToInverseEpsilon) {
  Options opt;
  opt.epsilon = 0.01;
  opt.backend = Backend::kCpuStdSort;
  FrequencyEstimator fe(opt);
  // 100-element windows: after 100 observations one window is processed.
  for (int i = 0; i < 100; ++i) fe.Observe(1.0f);
  EXPECT_EQ(fe.processed_length(), 100u);
  EXPECT_EQ(fe.EstimateCount(1.0f), 100u);
}

TEST(FrequencyEstimatorTest, GpuBuffersFourWindows) {
  Options opt;
  opt.epsilon = 0.01;
  opt.backend = Backend::kGpuPbsn;
  FrequencyEstimator fe(opt);
  for (int i = 0; i < 399; ++i) fe.Observe(1.0f);
  EXPECT_EQ(fe.processed_length(), 0u);  // still buffering (4 windows x 100)
  fe.Observe(1.0f);
  EXPECT_EQ(fe.processed_length(), 400u);
}

TEST(FrequencyEstimatorTest, FlushProcessesPartialWindow) {
  Options opt;
  opt.epsilon = 0.01;
  opt.backend = Backend::kCpuStdSort;
  FrequencyEstimator fe(opt);
  for (int i = 0; i < 42; ++i) fe.Observe(2.0f);
  EXPECT_EQ(fe.processed_length(), 0u);
  fe.Flush();
  EXPECT_EQ(fe.processed_length(), 42u);
  EXPECT_EQ(fe.EstimateCount(2.0f), 42u);
  EXPECT_EQ(fe.observed_length(), 42u);
}

TEST(FrequencyEstimatorTest, AllBackendsAgreeOnIntegerStreams) {
  // Integer-valued data below 2048 is exact in binary16, so the fp16 GPU
  // path must produce identical summaries to the CPU paths.
  const auto stream = TestStream(30000, 5);
  std::vector<FrequencyReport> results;
  for (Backend b : {Backend::kGpuPbsn, Backend::kGpuBitonic, Backend::kCpuQuicksort,
                    Backend::kCpuStdSort}) {
    Options opt;
    opt.epsilon = 0.005;
    opt.backend = b;
    FrequencyEstimator fe(opt);
    fe.ObserveBatch(stream);
    fe.Flush();
    results.push_back(fe.HeavyHitters(0.02));
  }
  for (std::size_t i = 1; i < results.size(); ++i) {
    EXPECT_EQ(results[i], results[0]) << "backend " << i;
  }
}

TEST(FrequencyEstimatorTest, CostsArePopulated) {
  Options opt;
  opt.epsilon = 0.01;
  opt.backend = Backend::kGpuPbsn;
  FrequencyEstimator fe(opt);
  fe.ObserveBatch(TestStream(5000, 6));
  fe.Flush();
  const PipelineCosts& costs = fe.costs();
  EXPECT_GT(costs.sort.simulated_seconds, 0.0);
  EXPECT_GT(costs.sort.sim_transfer_seconds, 0.0);
  EXPECT_GT(costs.histogram_elements, 0u);
  EXPECT_GT(costs.merged_entries, 0u);
  EXPECT_GT(fe.SimulatedSeconds(), costs.sort.simulated_seconds);
}

TEST(FrequencyEstimatorTest, SlidingModeTracksRecentWindow) {
  Options opt;
  opt.epsilon = 0.02;
  opt.backend = Backend::kGpuPbsn;
  opt.sliding_window = 5000;
  FrequencyEstimator fe(opt);
  EXPECT_TRUE(fe.sliding());

  std::vector<float> stream;
  stream.insert(stream.end(), 10000, 1.0f);
  stream.insert(stream.end(), 10000, 2.0f);
  fe.ObserveBatch(stream);
  fe.Flush();
  EXPECT_EQ(fe.EstimateCount(1.0f), 0u);
  EXPECT_GT(fe.EstimateCount(2.0f), 4000u);
}

TEST(QuantileEstimatorTest, MedianOfKnownDistribution) {
  Options opt;
  opt.epsilon = 0.01;
  opt.backend = Backend::kCpuStdSort;
  QuantileEstimator qe(opt);
  // 0..9999 once each: the median is ~5000.
  std::vector<float> stream(10000);
  for (std::size_t i = 0; i < stream.size(); ++i) stream[i] = static_cast<float>(i);
  std::mt19937 rng(7);
  std::shuffle(stream.begin(), stream.end(), rng);
  qe.ObserveBatch(stream);
  qe.Flush();
  EXPECT_NEAR(qe.Quantile(0.5).value, 5000.0f, 0.01 * 10000 + 1);
  EXPECT_NEAR(qe.Quantile(0.9).value, 9000.0f, 0.01 * 10000 + 1);
  EXPECT_EQ(qe.processed_length(), 10000u);
}

TEST(QuantileEstimatorTest, AllBackendsWithinEpsilon) {
  const auto stream = TestStream(40000, 8, 2000);
  std::vector<float> sorted(stream);
  std::sort(sorted.begin(), sorted.end());
  const double n = static_cast<double>(stream.size());
  for (Backend b : {Backend::kGpuPbsn, Backend::kCpuQuicksort}) {
    Options opt;
    opt.epsilon = 0.01;
    opt.backend = b;
    QuantileEstimator qe(opt);
    qe.ObserveBatch(stream);
    qe.Flush();
    for (double phi : {0.1, 0.5, 0.9}) {
      const float q = qe.Quantile(phi).value;
      const auto [lo, hi] = sketch::ExactRankRange(sorted, q);
      const double target = std::ceil(phi * n);
      EXPECT_GE(static_cast<double>(hi) + 1 + opt.epsilon * n + 1, target)
          << BackendName(b) << " phi=" << phi;
      EXPECT_LE(static_cast<double>(lo) + 1 - opt.epsilon * n - 1, target)
          << BackendName(b) << " phi=" << phi;
    }
  }
}

TEST(QuantileEstimatorTest, SlidingModeFollowsShift) {
  Options opt;
  opt.epsilon = 0.02;
  opt.backend = Backend::kGpuPbsn;
  opt.sliding_window = 8000;
  QuantileEstimator qe(opt);
  std::vector<float> stream;
  for (int i = 0; i < 20000; ++i) stream.push_back(100.0f);
  for (int i = 0; i < 20000; ++i) stream.push_back(900.0f);
  qe.ObserveBatch(stream);
  qe.Flush();
  EXPECT_EQ(qe.Quantile(0.5).value, 900.0f);
}

TEST(QuantileEstimatorTest, CostsArePopulated) {
  Options opt;
  opt.epsilon = 0.01;
  opt.backend = Backend::kGpuPbsn;
  QuantileEstimator qe(opt);
  qe.ObserveBatch(TestStream(10000, 9));
  qe.Flush();
  EXPECT_GT(qe.costs().sort.simulated_seconds, 0.0);
  EXPECT_GT(qe.costs().histogram_elements, 0u);
  EXPECT_GT(qe.SimulatedSeconds(), 0.0);
  EXPECT_GT(qe.summary_size(), 0u);
}

TEST(StreamMinerTest, DrivesBothEstimators) {
  Options opt;
  opt.epsilon = 0.01;
  opt.backend = Backend::kCpuStdSort;
  StreamMiner miner(opt);
  const auto stream = TestStream(20000, 10);
  miner.ObserveBatch(stream);
  miner.Flush();
  EXPECT_EQ(miner.frequencies().processed_length(), 20000u);
  EXPECT_EQ(miner.quantiles().processed_length(), 20000u);
  EXPECT_FALSE(miner.frequencies().HeavyHitters(0.05).items.empty());
}

// Each estimator of a miner would checkpoint into the one directory under
// its own epoch counter and prune the other's snapshots, leaving a directory
// one of them cannot restore from. The miner refuses the option instead,
// before either estimator touches the directory.
TEST(StreamMinerTest, RefusesACheckpointDirectory) {
  Options opt;
  opt.epsilon = 0.01;
  opt.backend = Backend::kCpuStdSort;
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) / "stream_miner_checkpoint";
  std::filesystem::remove_all(dir);
  opt.checkpoint_dir = dir.string();
  opt.checkpoint_every_windows = 64;

  const auto miner = StreamMiner::Create(opt);
  ASSERT_FALSE(miner.ok());
  EXPECT_EQ(miner.status().code(), Status::Code::kInvalidArgument);
  EXPECT_NE(miner.status().message().find("checkpoint_dir"), std::string::npos);
  EXPECT_FALSE(std::filesystem::exists(dir));
  EXPECT_DEATH(StreamMiner{opt}, "checkpoint_dir");

  // The estimators checkpoint on their own, each into its own directory.
  opt.checkpoint_dir.clear();
  opt.checkpoint_every_windows = 0;
  EXPECT_TRUE(StreamMiner::Create(opt).ok());
}

TEST(OptionsTest, InvalidEpsilonDies) {
  Options zero;
  zero.epsilon = 0.0;
  zero.backend = Backend::kCpuStdSort;
  EXPECT_DEATH(FrequencyEstimator{zero}, "epsilon");
  EXPECT_DEATH(QuantileEstimator{zero}, "epsilon");
  Options one;
  one.epsilon = 1.0;
  one.backend = Backend::kCpuStdSort;
  EXPECT_DEATH(FrequencyEstimator{one}, "epsilon");
  Options negative;
  negative.epsilon = -0.5;
  negative.backend = Backend::kCpuStdSort;
  EXPECT_DEATH(QuantileEstimator{negative}, "epsilon");
}

TEST(OptionsTest, BackendNames) {
  EXPECT_STREQ(BackendName(Backend::kGpuPbsn), "gpu-pbsn");
  EXPECT_STREQ(BackendName(Backend::kGpuBitonic), "gpu-bitonic");
  EXPECT_STREQ(BackendName(Backend::kCpuQuicksort), "cpu-quicksort");
  EXPECT_STREQ(BackendName(Backend::kCpuStdSort), "cpu-std-sort");
}

TEST(OptionsTest, ExplicitWindowSizeHonored) {
  Options opt;
  opt.epsilon = 0.01;
  opt.window_size = 50;
  opt.backend = Backend::kCpuStdSort;
  FrequencyEstimator fe(opt);
  for (int i = 0; i < 50; ++i) fe.Observe(3.0f);
  EXPECT_EQ(fe.processed_length(), 50u);
}

TEST(OptionsValidateTest, DefaultsAreValid) {
  EXPECT_TRUE(Options{}.Validate().ok());
}

TEST(OptionsValidateTest, RejectsEpsilonOutsideUnitInterval) {
  for (double bad : {0.0, 1.0, -0.5, 2.0}) {
    Options opt;
    opt.epsilon = bad;
    const Status status = opt.Validate();
    EXPECT_EQ(status.code(), Status::Code::kInvalidArgument) << bad;
    EXPECT_NE(status.message().find("epsilon"), std::string::npos);
  }
}

TEST(OptionsValidateTest, RejectsBadWorkerCounts) {
  Options opt;
  opt.num_sort_workers = 0;
  EXPECT_EQ(opt.Validate().code(), Status::Code::kInvalidArgument);
  opt.num_sort_workers = -3;
  EXPECT_EQ(opt.Validate().code(), Status::Code::kInvalidArgument);
  opt.num_sort_workers = 4096;
  EXPECT_EQ(opt.Validate().code(), Status::Code::kInvalidArgument);
  opt.num_sort_workers = 8;
  EXPECT_TRUE(opt.Validate().ok());
  opt.max_windows_in_flight = -1;
  EXPECT_EQ(opt.Validate().code(), Status::Code::kInvalidArgument);
}

TEST(OptionsValidateTest, RejectsWindowWiderThanSlidingBlock) {
  Options opt;
  opt.epsilon = 0.01;
  opt.sliding_window = 10000;  // block size = epsilon*W/2 = 50
  opt.window_size = 51;
  const Status status = opt.Validate();
  EXPECT_EQ(status.code(), Status::Code::kInvalidArgument);
  EXPECT_NE(status.message().find("block size"), std::string::npos);
  opt.window_size = 50;
  EXPECT_TRUE(opt.Validate().ok());

  // sliding_window < window_size is a special case of the same rule.
  Options inverted;
  inverted.epsilon = 0.01;
  inverted.sliding_window = 100;
  inverted.window_size = 200;
  EXPECT_EQ(inverted.Validate().code(), Status::Code::kInvalidArgument);
}

TEST(OptionsValidateTest, RejectsExpectedRangeBeyondBinary16OnGpu) {
  Options opt;
  opt.backend = Backend::kGpuPbsn;  // gpu_format defaults to kFloat16
  opt.expected_min_value = -1e6f;
  opt.expected_max_value = 1e6f;
  const Status status = opt.Validate();
  EXPECT_EQ(status.code(), Status::Code::kInvalidArgument);
  EXPECT_NE(status.message().find("binary16"), std::string::npos);

  // In-range expectations, a 32-bit surface, or a CPU backend are all fine.
  opt.expected_max_value = 65504.0f;
  opt.expected_min_value = -65504.0f;
  EXPECT_TRUE(opt.Validate().ok());
  opt.expected_max_value = 1e6f;
  opt.expected_min_value = -1e6f;
  opt.gpu_format = gpu::Format::kFloat32;
  EXPECT_TRUE(opt.Validate().ok());
  opt.gpu_format = gpu::Format::kFloat16;
  opt.backend = Backend::kCpuStdSort;
  EXPECT_TRUE(opt.Validate().ok());

  // An inverted range is rejected regardless of backend.
  opt.expected_min_value = 10.0f;
  opt.expected_max_value = -10.0f;
  EXPECT_EQ(opt.Validate().code(), Status::Code::kInvalidArgument);
}

TEST(CreateTest, ReturnsErrorInsteadOfAborting) {
  Options bad;
  bad.epsilon = 0.0;
  EXPECT_FALSE(FrequencyEstimator::Create(bad).ok());
  EXPECT_FALSE(QuantileEstimator::Create(bad).ok());
  EXPECT_FALSE(StreamMiner::Create(bad).ok());
  EXPECT_EQ(StreamMiner::Create(bad).status().code(),
            Status::Code::kInvalidArgument);
}

TEST(CreateTest, FrequencyCapsWholeHistoryWindowButQuantileDoesNot) {
  // ceil(1/epsilon) = 100: wider whole-history windows overflow the
  // frequency sketch's bucket width but are legal for the quantile summary.
  Options opt;
  opt.epsilon = 0.01;
  opt.window_size = 1024;
  opt.backend = Backend::kCpuStdSort;
  const auto fe = FrequencyEstimator::Create(opt);
  ASSERT_FALSE(fe.ok());
  EXPECT_NE(fe.status().message().find("ceil(1/epsilon)"), std::string::npos);
  EXPECT_TRUE(QuantileEstimator::Create(opt).ok());
  EXPECT_FALSE(StreamMiner::Create(opt).ok());  // union of both rule sets
}

TEST(CreateTest, OkPathYieldsWorkingEstimators) {
  Options opt;
  opt.epsilon = 0.01;
  opt.backend = Backend::kCpuStdSort;
  auto miner = StreamMiner::Create(opt);
  ASSERT_TRUE(miner.ok());
  ASSERT_NE(*miner, nullptr);
  for (int i = 0; i < 200; ++i) EXPECT_TRUE((*miner)->Observe(7.0f).ok());
  (*miner)->Flush();
  EXPECT_EQ((*miner)->frequencies().EstimateCount(7.0f), 200u);
  EXPECT_EQ((*miner)->quantiles().Quantile(0.5).value, 7.0f);
}

TEST(LifecycleTest, FlushIsIdempotent) {
  Options opt;
  opt.epsilon = 0.01;
  opt.backend = Backend::kCpuStdSort;
  FrequencyEstimator fe(opt);
  for (int i = 0; i < 42; ++i) fe.Observe(2.0f);
  EXPECT_FALSE(fe.finalized());
  fe.Flush();
  EXPECT_TRUE(fe.finalized());
  const FrequencyReport first = fe.HeavyHitters(0.5);
  fe.Flush();  // no-op: nothing double-counted
  fe.Flush();
  EXPECT_EQ(fe.processed_length(), 42u);
  EXPECT_EQ(fe.HeavyHitters(0.5), first);
}

TEST(LifecycleTest, ObserveAfterFlushFails) {
  Options opt;
  opt.epsilon = 0.01;
  opt.backend = Backend::kCpuStdSort;
  QuantileEstimator qe(opt);
  for (int i = 0; i < 100; ++i) EXPECT_TRUE(qe.Observe(1.0f).ok());
  qe.Flush();
  const Status status = qe.Observe(2.0f);
  EXPECT_EQ(status.code(), Status::Code::kFailedPrecondition);
  EXPECT_NE(status.message().find("finalized"), std::string::npos);
  const std::vector<float> more = {3.0f, 4.0f};
  EXPECT_EQ(qe.ObserveBatch(more).code(), Status::Code::kFailedPrecondition);
  // The rejected elements left no trace in the summary.
  EXPECT_EQ(qe.observed_length(), 100u);
  EXPECT_EQ(qe.processed_length(), 100u);
  EXPECT_EQ(qe.Quantile(0.5).value, 1.0f);
}

TEST(ReportTest, CarriesErrorBoundAndCoverage) {
  Options opt;
  opt.epsilon = 0.01;
  opt.backend = Backend::kCpuStdSort;
  StreamMiner miner(opt);
  miner.ObserveBatch(TestStream(10000, 11));
  miner.Flush();
  const FrequencyReport hh = miner.frequencies().HeavyHitters(0.05);
  EXPECT_EQ(hh.stream_length, 10000u);
  EXPECT_EQ(hh.window_coverage, 10000u);
  EXPECT_EQ(hh.error_bound, 100u);  // ceil(epsilon * N)
  EXPECT_DOUBLE_EQ(hh.support, 0.05);
  EXPECT_DOUBLE_EQ(hh.epsilon, 0.01);
  // Items arrive sorted by descending estimate.
  for (std::size_t i = 1; i < hh.items.size(); ++i) {
    EXPECT_GE(hh.items[i - 1].estimate, hh.items[i].estimate);
  }
  const QuantileReport q = miner.quantiles().Quantile(0.5);
  EXPECT_EQ(q.stream_length, 10000u);
  EXPECT_EQ(q.rank_error_bound, 100u);
  EXPECT_DOUBLE_EQ(q.phi, 0.5);

  const FrequencyReport top = miner.frequencies().TopK(3);
  EXPECT_LE(top.items.size(), 3u);
  EXPECT_DOUBLE_EQ(top.support, 0.0);
}

}  // namespace
}  // namespace streamgpu::core
