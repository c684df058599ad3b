// Property tests for sliding-window frequency and quantile estimation
// (sketch/sliding_window.h, §5.3): fixed and variable-width windows.

#include "sketch/sliding_window.h"

#include <algorithm>
#include <cmath>
#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "sketch/exact.h"
#include "sketch/gk_summary.h"
#include "sketch/histogram.h"

namespace streamgpu::sketch {
namespace {

std::vector<float> ZipfStream(std::size_t n, int domain, unsigned seed) {
  std::vector<double> cdf(domain);
  double total = 0;
  for (int r = 0; r < domain; ++r) {
    total += 1.0 / std::pow(r + 1.0, 1.2);
    cdf[r] = total;
  }
  for (double& c : cdf) c /= total;
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> uni(0, 1);
  std::vector<float> out(n);
  for (float& v : out) {
    v = static_cast<float>(std::lower_bound(cdf.begin(), cdf.end(), uni(rng)) -
                           cdf.begin());
  }
  return out;
}

void FeedFrequency(SlidingWindowFrequency* sw, std::span<const float> stream) {
  const std::uint64_t b = sw->block_size();
  for (std::size_t off = 0; off < stream.size(); off += b) {
    const std::size_t len = std::min<std::size_t>(b, stream.size() - off);
    std::vector<float> block(stream.begin() + off, stream.begin() + off + len);
    std::sort(block.begin(), block.end());
    sw->AddBlockHistogram(BuildHistogram(block), len);
  }
}

void FeedQuantile(SlidingWindowQuantile* sw, std::span<const float> stream) {
  const std::uint64_t b = sw->block_size();
  for (std::size_t off = 0; off < stream.size(); off += b) {
    const std::size_t len = std::min<std::size_t>(b, stream.size() - off);
    std::vector<float> block(stream.begin() + off, stream.begin() + off + len);
    std::sort(block.begin(), block.end());
    sw->AddBlockSummary(GkSummary::FromSorted(block, sw->block_epsilon()));
  }
}

struct SlidingCase {
  double eps;
  std::uint64_t window;
  std::size_t n;
};

class SlidingFrequencyProperty : public ::testing::TestWithParam<SlidingCase> {};

TEST_P(SlidingFrequencyProperty, CountsWithinEpsilonOfWindowTruth) {
  const SlidingCase& p = GetParam();
  auto stream = ZipfStream(p.n, 100, 91);
  SlidingWindowFrequency sw(p.eps, p.window);
  FeedFrequency(&sw, stream);

  // Ground truth over the most recent `covered` elements.
  ASSERT_GE(sw.covered_elements(), p.window - sw.block_size());
  const std::span<const float> tail(stream.data() + p.n - sw.covered_elements(),
                                    sw.covered_elements());
  const auto exact = ExactCounts(tail);
  const auto slack = static_cast<std::uint64_t>(
      std::ceil(p.eps * static_cast<double>(p.window)));
  for (const auto& [value, truth] : exact) {
    const std::uint64_t est = sw.EstimateCount(value);
    EXPECT_LE(est, truth) << value;       // never overcounts live elements
    EXPECT_GE(est + slack, truth) << value;
  }
}

TEST_P(SlidingFrequencyProperty, NoFalseNegativeHeavyHitters) {
  const SlidingCase& p = GetParam();
  auto stream = ZipfStream(p.n, 100, 92);
  SlidingWindowFrequency sw(p.eps, p.window);
  FeedFrequency(&sw, stream);

  const std::span<const float> tail(stream.data() + p.n - sw.covered_elements(),
                                    sw.covered_elements());
  for (double support : {0.05, 0.1, 0.2}) {
    if (support <= p.eps) continue;
    const auto reported = sw.HeavyHitters(support);
    for (const auto& [value, f] : ExactHeavyHitters(tail, support)) {
      const bool found = std::any_of(reported.begin(), reported.end(),
                                     [v = value](const auto& r) { return r.first == v; });
      EXPECT_TRUE(found) << "missing " << value << " (" << f << ") at support " << support;
    }
  }
}

TEST_P(SlidingFrequencyProperty, VariableWidthQueries) {
  const SlidingCase& p = GetParam();
  auto stream = ZipfStream(p.n, 100, 93);
  SlidingWindowFrequency sw(p.eps, p.window);
  FeedFrequency(&sw, stream);

  for (std::uint64_t sub : {p.window / 2, p.window / 4}) {
    if (sub < 2 * sw.block_size()) continue;
    // The estimator answers over the newest blocks covering <= sub elements.
    const std::uint64_t covered = (sub / sw.block_size()) * sw.block_size();
    const std::span<const float> tail(stream.data() + p.n - covered, covered);
    const auto exact = ExactCounts(tail);
    const auto slack = static_cast<std::uint64_t>(
        std::ceil(p.eps * static_cast<double>(p.window)));
    for (const auto& [value, truth] : exact) {
      const std::uint64_t est = sw.EstimateCount(value, sub);
      EXPECT_LE(est, truth) << value << " sub=" << sub;
      EXPECT_GE(est + slack, truth) << value << " sub=" << sub;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SlidingFrequencyProperty,
    ::testing::Values(SlidingCase{0.02, 10000, 50000}, SlidingCase{0.05, 4000, 30000},
                      SlidingCase{0.01, 20000, 60000}, SlidingCase{0.1, 1000, 5000}),
    [](const ::testing::TestParamInfo<SlidingCase>& info) {
      return "eps" + std::to_string(static_cast<int>(1.0 / info.param.eps)) + "_w" +
             std::to_string(info.param.window) + "_n" + std::to_string(info.param.n);
    });

TEST(SlidingFrequencyTest, SpaceIsBoundedByBlocksTimesEntries) {
  SlidingWindowFrequency sw(0.01, 100000);
  auto stream = ZipfStream(400000, 50000, 94);
  FeedFrequency(&sw, stream);
  // ~ (2/eps) blocks x (2/eps) entries worst case; generous cap.
  EXPECT_LE(sw.summary_size(), static_cast<std::size_t>(8.0 / (0.01 * 0.01)));
}

TEST(SlidingFrequencyTest, OldElementsExpire) {
  // First half is all 1s, second half all 2s; with W = half the stream the
  // 1s must be gone.
  std::vector<float> stream;
  stream.insert(stream.end(), 10000, 1.0f);
  stream.insert(stream.end(), 10000, 2.0f);
  SlidingWindowFrequency sw(0.05, 10000);
  FeedFrequency(&sw, stream);
  EXPECT_EQ(sw.EstimateCount(1.0f), 0u);
  EXPECT_GE(sw.EstimateCount(2.0f), 9000u);
}

class SlidingQuantileProperty : public ::testing::TestWithParam<SlidingCase> {};

TEST_P(SlidingQuantileProperty, QuantilesWithinEpsilonOfWindowTruth) {
  const SlidingCase& p = GetParam();
  std::mt19937 rng(95);
  std::uniform_real_distribution<float> d(0.0f, 1e5f);
  std::vector<float> stream(p.n);
  for (float& v : stream) v = d(rng);

  SlidingWindowQuantile sw(p.eps, p.window);
  FeedQuantile(&sw, stream);
  ASSERT_GE(sw.covered_elements(), p.window - sw.block_size());

  std::vector<float> tail(stream.end() - static_cast<std::ptrdiff_t>(sw.covered_elements()),
                          stream.end());
  std::sort(tail.begin(), tail.end());
  const double allowed = p.eps * static_cast<double>(p.window) + 1;
  for (double phi : {0.05, 0.25, 0.5, 0.75, 0.95}) {
    const float q = sw.Query(phi);
    const auto it = std::lower_bound(tail.begin(), tail.end(), q);
    const double rank = static_cast<double>(it - tail.begin()) + 1;
    const double target = std::ceil(phi * static_cast<double>(tail.size()));
    EXPECT_NEAR(rank, target, allowed) << "phi=" << phi;
  }
}

TEST_P(SlidingQuantileProperty, VariableWidthQueries) {
  const SlidingCase& p = GetParam();
  std::mt19937 rng(96);
  std::uniform_real_distribution<float> d(0.0f, 1e5f);
  std::vector<float> stream(p.n);
  for (float& v : stream) v = d(rng);

  SlidingWindowQuantile sw(p.eps, p.window);
  FeedQuantile(&sw, stream);

  const std::uint64_t sub = p.window / 2;
  if (sub < 2 * sw.block_size()) return;
  const std::uint64_t covered = (sub / sw.block_size()) * sw.block_size();
  std::vector<float> tail(stream.end() - static_cast<std::ptrdiff_t>(covered),
                          stream.end());
  std::sort(tail.begin(), tail.end());
  const double allowed = p.eps * static_cast<double>(p.window) + 1;
  const float q = sw.Query(0.5, sub);
  const auto it = std::lower_bound(tail.begin(), tail.end(), q);
  const double rank = static_cast<double>(it - tail.begin()) + 1;
  EXPECT_NEAR(rank, std::ceil(0.5 * static_cast<double>(tail.size())), allowed);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SlidingQuantileProperty,
    ::testing::Values(SlidingCase{0.02, 10000, 50000}, SlidingCase{0.05, 4000, 30000},
                      SlidingCase{0.01, 20000, 60000}),
    [](const ::testing::TestParamInfo<SlidingCase>& info) {
      return "eps" + std::to_string(static_cast<int>(1.0 / info.param.eps)) + "_w" +
             std::to_string(info.param.window) + "_n" + std::to_string(info.param.n);
    });

TEST(SlidingQuantileTest, DistributionShiftIsTracked) {
  // Values jump from ~[0,1000] to ~[5000,6000]; the median over the window
  // must follow once the window slides past the shift.
  std::mt19937 rng(97);
  std::uniform_real_distribution<float> lo(0.0f, 1000.0f);
  std::uniform_real_distribution<float> hi(5000.0f, 6000.0f);
  std::vector<float> stream;
  for (int i = 0; i < 20000; ++i) stream.push_back(lo(rng));
  for (int i = 0; i < 20000; ++i) stream.push_back(hi(rng));

  SlidingWindowQuantile sw(0.02, 10000);
  FeedQuantile(&sw, stream);
  const float median = sw.Query(0.5);
  EXPECT_GE(median, 5000.0f);
  EXPECT_LE(median, 6000.0f);
}

TEST(SlidingQuantileTest, WindowShorterThanABlockAnswersOverTheNewestBlock) {
  // B = 50: a window of fewer than 50 elements holds no complete block, so
  // the answer comes from the newest block. Any rank in a window that short
  // is within epsilon * W = 100 of the target.
  std::mt19937 rng(98);
  std::uniform_real_distribution<float> d(0.0f, 1e5f);
  std::vector<float> stream(5000);
  for (float& v : stream) v = d(rng);
  SlidingWindowQuantile sw(0.01, 10000);
  ASSERT_EQ(sw.block_size(), 50u);
  FeedQuantile(&sw, stream);

  std::vector<float> newest(stream.end() - 50, stream.end());
  std::sort(newest.begin(), newest.end());
  const GkSummary newest_block = GkSummary::FromSorted(newest, sw.block_epsilon());
  for (std::uint64_t window : {1u, 10u, 49u}) {
    for (double phi : {0.01, 0.5, 1.0}) {
      EXPECT_EQ(sw.Query(phi, window), newest_block.Query(phi))
          << "window=" << window << " phi=" << phi;
    }
  }
}

TEST(SlidingQuantileTest, RejectsTooCoarseBlockSummary) {
  SlidingWindowQuantile sw(0.02, 10000);
  std::vector<float> block(sw.block_size());
  for (std::size_t i = 0; i < block.size(); ++i) block[i] = static_cast<float>(i);
  EXPECT_DEATH(sw.AddBlockSummary(GkSummary::FromSorted(block, 0.4)),
               "epsilon/2");
}

}  // namespace
}  // namespace streamgpu::sketch
