// Tests for the synthetic stream sources (stream/generator.h) and window
// batching (stream/window_buffer.h).

#include <algorithm>
#include <cmath>
#include <span>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "gpu/half.h"
#include "stream/generator.h"
#include "stream/window_buffer.h"

namespace streamgpu::stream {
namespace {

TEST(GeneratorTest, DeterministicForSameSeed) {
  for (Distribution d : {Distribution::kUniform, Distribution::kZipf,
                         Distribution::kNetworkFlows, Distribution::kFinanceTicks}) {
    StreamGenerator a({.distribution = d, .seed = 42});
    StreamGenerator b({.distribution = d, .seed = 42});
    EXPECT_EQ(a.Take(1000), b.Take(1000)) << DistributionName(d);
  }
}

TEST(GeneratorTest, DifferentSeedsDiffer) {
  StreamGenerator a({.distribution = Distribution::kUniform, .seed = 1});
  StreamGenerator b({.distribution = Distribution::kUniform, .seed = 2});
  EXPECT_NE(a.Take(100), b.Take(100));
}

TEST(GeneratorTest, UniformStaysInDomain) {
  StreamGenerator g({.distribution = Distribution::kUniform, .seed = 3,
                     .domain_size = 100});
  for (float v : g.Take(10000)) {
    EXPECT_GE(v, 0.0f);
    EXPECT_LT(v, 100.0f);
    EXPECT_EQ(v, std::floor(v));  // integer-valued
  }
}

TEST(GeneratorTest, UniformCoversDomainRoughlyEvenly) {
  StreamGenerator g({.distribution = Distribution::kUniform, .seed = 4,
                     .domain_size = 10});
  std::unordered_map<float, int> counts;
  for (float v : g.Take(100000)) ++counts[v];
  ASSERT_EQ(counts.size(), 10u);
  for (const auto& [v, c] : counts) {
    EXPECT_NEAR(c, 10000, 600) << v;
  }
}

TEST(GeneratorTest, ZipfIsSkewedAndOrdered) {
  StreamGenerator g({.distribution = Distribution::kZipf, .seed = 5,
                     .domain_size = 1000, .zipf_s = 1.2});
  std::unordered_map<float, int> counts;
  for (float v : g.Take(200000)) ++counts[v];
  // Rank 0 must dominate rank 10 which must dominate rank 100.
  EXPECT_GT(counts[0.0f], counts[10.0f]);
  EXPECT_GT(counts[10.0f], counts[100.0f]);
  // Rank 0 carries a large share under s=1.2.
  EXPECT_GT(counts[0.0f], 200000 / 20);
}

TEST(GeneratorTest, SortedIsMonotonic) {
  StreamGenerator g({.distribution = Distribution::kSorted, .seed = 6});
  const auto v = g.Take(10000);
  EXPECT_TRUE(std::is_sorted(v.begin(), v.end()));
}

TEST(GeneratorTest, ReverseSortedIsMonotonicDescending) {
  StreamGenerator g({.distribution = Distribution::kReverseSorted, .seed = 6});
  const auto v = g.Take(10000);
  EXPECT_TRUE(std::is_sorted(v.rbegin(), v.rend()));
}

TEST(GeneratorTest, NearlySortedIsMostlyOrdered) {
  StreamGenerator g({.distribution = Distribution::kNearlySorted, .seed = 7,
                     .disorder = 0.01});
  const auto v = g.Take(100000);
  std::size_t inversions = 0;
  for (std::size_t i = 1; i < v.size(); ++i) {
    if (v[i] < v[i - 1]) ++inversions;
  }
  EXPECT_LT(inversions, v.size() / 20);
  EXPECT_GT(inversions, 0u);
}

TEST(GeneratorTest, NetworkFlowsHaveBursts) {
  StreamGenerator g({.distribution = Distribution::kNetworkFlows, .seed = 8,
                     .domain_size = 500, .mean_burst = 8.0});
  const auto v = g.Take(100000);
  // Consecutive repeats should be common (bursts) but not universal.
  std::size_t repeats = 0;
  for (std::size_t i = 1; i < v.size(); ++i) {
    if (v[i] == v[i - 1]) ++repeats;
  }
  EXPECT_GT(repeats, v.size() / 2);
  EXPECT_LT(repeats, v.size() - v.size() / 64);
}

TEST(GeneratorTest, FinanceTicksArePositiveAndHalfExact) {
  StreamGenerator g({.distribution = Distribution::kFinanceTicks, .seed = 9,
                     .start_price = 100.0, .volatility = 0.05});
  for (float v : g.Take(50000)) {
    EXPECT_GT(v, 0.0f);
    EXPECT_LT(v, 2048.0f);  // random walk stays far from the half-exact limit
    EXPECT_EQ(gpu::QuantizeToHalf(v), v) << v;
  }
}

TEST(GeneratorTest, FinanceTicksMove) {
  StreamGenerator g({.distribution = Distribution::kFinanceTicks, .seed = 10});
  const auto v = g.Take(10000);
  const auto [mn, mx] = std::minmax_element(v.begin(), v.end());
  EXPECT_GT(*mx - *mn, 0.5f);
}

TEST(WindowBatcherTest, SignalsFullBatch) {
  WindowBatcher b(3, 2);
  EXPECT_FALSE(b.Push(1));
  EXPECT_FALSE(b.Push(2));
  EXPECT_FALSE(b.Push(3));
  EXPECT_FALSE(b.Push(4));
  EXPECT_FALSE(b.Push(5));
  EXPECT_TRUE(b.Push(6));  // 2 windows x 3 elements
  ASSERT_EQ(b.buffered(), 6u);
  EXPECT_EQ(b.contents()[5], 6.0f);
  b.Clear();
  EXPECT_TRUE(b.empty());
}

TEST(WindowBatcherTest, PartialFinalWindow) {
  WindowBatcher b(4, 4);
  for (int i = 0; i < 6; ++i) b.Push(static_cast<float>(i));
  // One whole window of 4 and a partial one of 2, neither a full batch.
  EXPECT_FALSE(b.full());
  ASSERT_EQ(b.buffered(), 6u);
  EXPECT_EQ(b.buffered() / b.window_size(), 1u);
  EXPECT_EQ(b.contents()[5], 5.0f);
}

TEST(WindowBatcherTest, SpansAliasInternalStorage) {
  WindowBatcher b(2, 1);
  b.Push(3);
  const std::span<float> slot = b.Claim(5);
  ASSERT_EQ(slot.size(), 1u);  // the space left in the batch
  slot[0] = 99.0f;
  EXPECT_TRUE(b.full());
  EXPECT_EQ(b.contents()[1], 99.0f);
}

}  // namespace
}  // namespace streamgpu::stream
