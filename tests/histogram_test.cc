// Tests for window histogram computation (sketch/histogram.h) and the exact
// offline references (sketch/exact.h).

#include "sketch/histogram.h"

#include <algorithm>
#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "sketch/exact.h"

namespace streamgpu::sketch {
namespace {

TEST(HistogramTest, EmptyWindow) {
  EXPECT_TRUE(BuildHistogram({}).empty());
}

TEST(HistogramTest, SingleValue) {
  const std::vector<float> w{5.0f};
  const auto h = BuildHistogram(w);
  ASSERT_EQ(h.size(), 1u);
  EXPECT_EQ(h[0], (HistogramEntry{5.0f, 1}));
}

TEST(HistogramTest, CountsRuns) {
  const std::vector<float> w{1, 1, 1, 2, 3, 3};
  const auto h = BuildHistogram(w);
  ASSERT_EQ(h.size(), 3u);
  EXPECT_EQ(h[0], (HistogramEntry{1, 3}));
  EXPECT_EQ(h[1], (HistogramEntry{2, 1}));
  EXPECT_EQ(h[2], (HistogramEntry{3, 2}));
}

TEST(HistogramTest, AllEqual) {
  const std::vector<float> w(100, 7.0f);
  const auto h = BuildHistogram(w);
  ASSERT_EQ(h.size(), 1u);
  EXPECT_EQ(h[0].count, 100u);
}

TEST(HistogramTest, CountsSumToWindowSize) {
  std::mt19937 rng(3);
  std::uniform_int_distribution<int> d(0, 50);
  std::vector<float> w(1000);
  for (float& v : w) v = static_cast<float>(d(rng));
  std::sort(w.begin(), w.end());
  const auto h = BuildHistogram(w);
  std::uint64_t total = 0;
  for (const auto& e : h) total += e.count;
  EXPECT_EQ(total, w.size());
  EXPECT_TRUE(std::is_sorted(h.begin(), h.end(), [](const auto& a, const auto& b) {
    return a.value < b.value;
  }));
}

TEST(HistogramTest, MatchesExactCounts) {
  std::mt19937 rng(4);
  std::uniform_int_distribution<int> d(0, 20);
  std::vector<float> w(500);
  for (float& v : w) v = static_cast<float>(d(rng));
  const auto exact = ExactCounts(w);
  std::sort(w.begin(), w.end());
  for (const auto& e : BuildHistogram(w)) {
    EXPECT_EQ(e.count, exact.at(e.value)) << e.value;
  }
}

TEST(ExactTest, QuantileDefinition) {
  const std::vector<float> v{10, 20, 30, 40, 50, 60, 70, 80, 90, 100};
  EXPECT_EQ(ExactQuantile(v, 0.5), 50.0f);   // rank ceil(5) = 5
  EXPECT_EQ(ExactQuantile(v, 0.05), 10.0f);  // rank ceil(0.5) = 1
  EXPECT_EQ(ExactQuantile(v, 1.0), 100.0f);
  EXPECT_EQ(ExactQuantile(v, 0.91), 100.0f);
}

TEST(ExactTest, RankRangeWithDuplicates) {
  const std::vector<float> v{1, 2, 2, 2, 3};
  const auto [lo, hi] = ExactRankRange(v, 2.0f);
  EXPECT_EQ(lo, 1u);  // one element strictly below
  EXPECT_EQ(hi, 3u);  // zero-based rank of the last 2
}

TEST(ExactTest, HeavyHittersThresholdIsStrict) {
  std::vector<float> v;
  v.insert(v.end(), 50, 1.0f);
  v.insert(v.end(), 30, 2.0f);
  v.insert(v.end(), 20, 3.0f);
  const auto hh = ExactHeavyHitters(v, 0.25);
  ASSERT_EQ(hh.size(), 2u);
  EXPECT_EQ(hh[0].first, 1.0f);
  EXPECT_EQ(hh[1].first, 2.0f);
  // 20/100 == 0.2 is not > 0.2:
  EXPECT_TRUE(ExactHeavyHitters(v, 0.20).size() == 2u);
}

}  // namespace
}  // namespace streamgpu::sketch
