// Tests for hierarchical heavy hitters (sketch/hierarchical.h).

#include "sketch/hierarchical.h"

#include <algorithm>
#include <cmath>
#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "sketch/exact.h"

namespace streamgpu::sketch {
namespace {

void Feed(HierarchicalHeavyHitters* hhh, std::span<const float> stream) {
  const std::uint64_t w = hhh->window_width();
  for (std::size_t off = 0; off < stream.size(); off += w) {
    const std::size_t len = std::min<std::size_t>(w, stream.size() - off);
    std::vector<float> window(stream.begin() + off, stream.begin() + off + len);
    std::sort(window.begin(), window.end());
    hhh->AddSortedWindow(window);
  }
}

TEST(HierarchicalTest, GeneralizeFollowsBranching) {
  HierarchicalHeavyHitters hhh(0.01, 4, 2.0);
  EXPECT_EQ(hhh.Generalize(13.0f, 0), 13.0f);
  EXPECT_EQ(hhh.Generalize(13.0f, 1), 6.0f);
  EXPECT_EQ(hhh.Generalize(13.0f, 2), 3.0f);
  EXPECT_EQ(hhh.Generalize(13.0f, 3), 1.0f);
  EXPECT_EQ(hhh.Generalize(13.0f, 4), 0.0f);

  HierarchicalHeavyHitters base16(0.01, 2, 16.0);
  EXPECT_EQ(base16.Generalize(255.0f, 1), 15.0f);
  EXPECT_EQ(base16.Generalize(255.0f, 2), 0.0f);
}

TEST(HierarchicalTest, LeafLevelMatchesFlatSummary) {
  std::mt19937 rng(3);
  std::uniform_int_distribution<int> d(0, 63);
  std::vector<float> stream(20000);
  for (float& v : stream) v = static_cast<float>(d(rng));

  HierarchicalHeavyHitters hhh(0.005, 3);
  Feed(&hhh, stream);
  const auto exact = ExactCounts(stream);
  for (const auto& [value, truth] : exact) {
    const std::uint64_t est = hhh.EstimateCount(value, 0);
    EXPECT_LE(est, truth);
    EXPECT_GE(est + static_cast<std::uint64_t>(0.005 * 20000) + 1, truth);
  }
}

TEST(HierarchicalTest, AggregateCountsRollUp) {
  // Values 8..15 uniformly: no single leaf is heavy, but their level-3
  // ancestor floor(v/8) = 1 carries everything.
  std::mt19937 rng(4);
  std::uniform_int_distribution<int> d(8, 15);
  std::vector<float> stream(16000);
  for (float& v : stream) v = static_cast<float>(d(rng));

  HierarchicalHeavyHitters hhh(0.01, 3);
  Feed(&hhh, stream);
  EXPECT_GE(hhh.EstimateCount(1.0f, 3), 15000u);

  // At 40% support the first qualifying ancestors are floor(v/4) = 2 and 3
  // (~50% each); with both reported, the level-3 root carries no additional
  // discounted mass and must not be re-reported.
  const auto results = hhh.Query(0.4);
  ASSERT_EQ(results.size(), 2u);
  for (const auto& r : results) {
    EXPECT_EQ(r.level, 2);
    EXPECT_TRUE(r.prefix == 2.0f || r.prefix == 3.0f);
    EXPECT_GE(r.discounted_count, static_cast<std::uint64_t>(0.4 * 16000));
  }
}

TEST(HierarchicalTest, DiscountingSuppressesAncestorsOfReportedLeaves) {
  // One dominant leaf: its ancestors hold no *additional* mass and must not
  // be re-reported at high support.
  std::vector<float> stream;
  stream.insert(stream.end(), 9000, 12.0f);
  std::mt19937 rng(5);
  std::uniform_int_distribution<int> d(100, 163);
  for (int i = 0; i < 1000; ++i) stream.push_back(static_cast<float>(d(rng)));
  std::shuffle(stream.begin(), stream.end(), rng);

  HierarchicalHeavyHitters hhh(0.01, 3);
  Feed(&hhh, stream);
  const auto results = hhh.Query(0.5);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].level, 0);
  EXPECT_EQ(results[0].prefix, 12.0f);
}

TEST(HierarchicalTest, NoFalseNegativesAcrossLevels) {
  std::mt19937 rng(6);
  std::uniform_int_distribution<int> d(0, 255);
  std::vector<float> stream(40000);
  for (float& v : stream) v = static_cast<float>(d(rng));
  // Plant a heavy subtree: values 64..71 get an extra 12000 occurrences.
  std::uniform_int_distribution<int> hot(64, 71);
  for (int i = 0; i < 12000; ++i) stream.push_back(static_cast<float>(hot(rng)));
  std::shuffle(stream.begin(), stream.end(), rng);

  const double support = 0.15;
  HierarchicalHeavyHitters hhh(0.01, 4);
  Feed(&hhh, stream);
  const auto results = hhh.Query(support);
  // floor(v/8) = 8 aggregates the hot subtree (~12000 + background ~1600 of
  // 52000 total ~= 26%): it must be reported at some level.
  const bool found = std::any_of(results.begin(), results.end(), [](const HhhResult& r) {
    return r.level == 3 && r.prefix == 8.0f;
  });
  EXPECT_TRUE(found);
}

TEST(HierarchicalTest, FindsAggregateOnlySubtree) {
  // Every fourth element falls in the floor(v/8) = 8 subtree (values
  // 64..71): the subtree holds ~25 % plus its background share, while no
  // single leaf exceeds ~4 %. At 15 % support only the aggregate qualifies.
  std::mt19937 rng(6);
  std::uniform_int_distribution<int> background(0, 255);
  std::uniform_int_distribution<int> hot(64, 71);
  std::vector<float> stream(60000);
  for (std::size_t i = 0; i < stream.size(); ++i) {
    stream[i] = static_cast<float>(i % 4 == 0 ? hot(rng) : background(rng));
  }

  const double epsilon = 0.005;
  HierarchicalHeavyHitters hhh(epsilon, 4);
  Feed(&hhh, stream);
  const auto results = hhh.Query(0.15);
  const bool subtree_found = std::any_of(results.begin(), results.end(), [](const HhhResult& r) {
    return r.level == 3 && r.prefix == 8.0f;
  });
  EXPECT_TRUE(subtree_found);
  for (const auto& r : results) EXPECT_NE(r.level, 0) << "no leaf is that heavy";

  // Leaf counts undercount by at most ceil(epsilon * N), never overcount.
  const auto bound =
      static_cast<std::uint64_t>(std::ceil(epsilon * static_cast<double>(stream.size())));
  for (const auto& [value, truth] : ExactCounts(stream)) {
    const std::uint64_t est = hhh.EstimateCount(value, 0);
    EXPECT_LE(est, truth);
    EXPECT_GE(est + bound, truth);
  }
}

TEST(HierarchicalTest, SpaceIsSumOfPerLevelSummaries) {
  std::mt19937 rng(7);
  std::uniform_int_distribution<int> d(0, 10000);
  std::vector<float> stream(50000);
  for (float& v : stream) v = static_cast<float>(d(rng));
  HierarchicalHeavyHitters hhh(0.01, 5);
  Feed(&hhh, stream);
  // Each level is a lossy-counting summary with O((1/eps) log(eps N)) space.
  EXPECT_LE(hhh.summary_size(), 6u * 100u * 16u);
  EXPECT_EQ(hhh.stream_length(), 50000u);
}

}  // namespace
}  // namespace streamgpu::sketch
