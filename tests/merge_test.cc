// Tests for the CPU-side run merging (sort/merge.h).

#include "sort/merge.h"

#include <algorithm>
#include <cstring>
#include <random>
#include <vector>

#include <gtest/gtest.h>

namespace streamgpu::sort {
namespace {

std::vector<float> SortedRandom(std::size_t n, unsigned seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<float> dist(0.0f, 100.0f);
  std::vector<float> v(n);
  for (float& x : v) x = dist(rng);
  std::sort(v.begin(), v.end());
  return v;
}

/// The one-slice merge under the tie rule TwoWayMerge shares with the
/// quantile summaries (a's value first when a <= b), counting one comparison
/// per output while both runs are non-empty.
std::uint64_t ReferenceMerge(std::span<const float> a, std::span<const float> b,
                             std::vector<float>* out) {
  std::size_t i = 0;
  std::size_t j = 0;
  std::uint64_t comparisons = 0;
  out->clear();
  while (i < a.size() && j < b.size()) {
    ++comparisons;
    if (a[i] <= b[j]) {
      out->push_back(a[i++]);
    } else {
      out->push_back(b[j++]);
    }
  }
  out->insert(out->end(), a.begin() + static_cast<std::ptrdiff_t>(i), a.end());
  out->insert(out->end(), b.begin() + static_cast<std::ptrdiff_t>(j), b.end());
  return comparisons;
}

/// n ascending values: continuous in [lo, hi) when domain is 0, drawn from
/// `domain` distinct integers when it is positive, and -0.0 or +0.0 only when
/// it is negative (equal values whose bits show which run each came from).
std::vector<float> SortedRun(std::size_t n, int domain, std::mt19937& rng, float lo = 0.0f,
                             float hi = 1.0f) {
  std::vector<float> v(n);
  std::uniform_real_distribution<float> real(lo, hi);
  std::uniform_int_distribution<int> pick(0, std::max(domain, 2) - 1);
  for (float& x : v) {
    if (domain == 0) {
      x = real(rng);
    } else if (domain > 0) {
      x = static_cast<float>(pick(rng));
    } else {
      x = pick(rng) == 0 ? -0.0f : 0.0f;
    }
  }
  std::sort(v.begin(), v.end());
  return v;
}

/// TwoWayMerge's output bits and comparison count against ReferenceMerge.
::testing::AssertionResult MatchesOneSliceMerge(std::span<const float> a,
                                                std::span<const float> b) {
  std::vector<float> want;
  const std::uint64_t want_comparisons = ReferenceMerge(a, b, &want);
  std::vector<float> got(a.size() + b.size(), -1.0f);
  const std::uint64_t got_comparisons = TwoWayMerge(a, b, got);
  if (!got.empty() && std::memcmp(got.data(), want.data(), got.size() * sizeof(float)) != 0) {
    return ::testing::AssertionFailure() << "output bits differ, sizes " << a.size() << "+"
                                         << b.size();
  }
  if (got_comparisons != want_comparisons) {
    return ::testing::AssertionFailure() << "comparisons " << got_comparisons << " vs "
                                         << want_comparisons << ", sizes " << a.size() << "+"
                                         << b.size();
  }
  return ::testing::AssertionSuccess();
}

TEST(MergeTest, SlicedMergeMatchesOneSliceMerge) {
  // TwoWayMerge runs the co-ranked slices of common/run_merge.h and states
  // its count in closed form; both must equal the one-slice loop's. Sizes
  // cover both sides of kMinSlicedMerge and slices of every length.
  std::mt19937 rng(401);
  for (const int domain : {0, 5, -1}) {
    for (std::size_t na = 0; na <= 40; ++na) {
      for (std::size_t nb = 0; nb <= 40; ++nb) {
        const auto a = SortedRun(na, domain, rng);
        const auto b = SortedRun(nb, domain, rng);
        ASSERT_TRUE(MatchesOneSliceMerge(a, b)) << "domain " << domain;
      }
    }
    for (int trial = 0; trial < 16; ++trial) {
      const auto a = SortedRun(rng() % 70001, domain, rng);
      const auto b = SortedRun(rng() % 70001, domain, rng);
      ASSERT_TRUE(MatchesOneSliceMerge(a, b)) << "domain " << domain << " trial " << trial;
    }
  }
  // Runs that overlap in part or not at all, and a few values spread through
  // a dense run: cuts fall where a slice holds one side only, or runs out of
  // a side in its middle.
  for (const auto& [na, nb] : {std::pair<std::size_t, std::size_t>{1000, 3000},
                               {70000, 5},
                               {37, 41},
                               {4, 20000}}) {
    const auto low = SortedRun(na, 0, rng, 0.0f, 1.0f);
    const auto high = SortedRun(nb, 0, rng, 2.0f, 3.0f);
    const auto mid = SortedRun(nb, 0, rng, 0.5f, 1.5f);
    const auto wide = SortedRun(nb, 0, rng, -1.0f, 2.0f);
    for (const auto* other : {&high, &mid, &wide}) {
      ASSERT_TRUE(MatchesOneSliceMerge(low, *other)) << na << "+" << nb;
      ASSERT_TRUE(MatchesOneSliceMerge(*other, low)) << nb << "+" << na;
    }
  }
}

TEST(MergeTest, TwoWayBasic) {
  const std::vector<float> a{1, 3, 5};
  const std::vector<float> b{2, 4, 6};
  std::vector<float> out(6);
  TwoWayMerge(a, b, out);
  EXPECT_EQ(out, (std::vector<float>{1, 2, 3, 4, 5, 6}));
}

TEST(MergeTest, TwoWayEmptySides) {
  const std::vector<float> a{1, 2};
  const std::vector<float> empty;
  std::vector<float> out(2);
  TwoWayMerge(a, empty, out);
  EXPECT_EQ(out, a);
  TwoWayMerge(empty, a, out);
  EXPECT_EQ(out, a);
}

TEST(MergeTest, TwoWayIsStableTowardFirstRun) {
  // Ties take from `a` first (b[j] < a[i] strictly advances b).
  const std::vector<float> a{5, 5};
  const std::vector<float> b{5};
  std::vector<float> out(3);
  TwoWayMerge(a, b, out);
  EXPECT_EQ(out, (std::vector<float>{5, 5, 5}));
}

TEST(MergeTest, TwoWayComparisonsLinear) {
  const auto a = SortedRandom(1000, 1);
  const auto b = SortedRandom(1000, 2);
  std::vector<float> out(2000);
  const std::uint64_t comparisons = TwoWayMerge(a, b, out);
  EXPECT_LE(comparisons, 2000u);
  EXPECT_TRUE(std::is_sorted(out.begin(), out.end()));
}

TEST(MergeTest, FourWayMatchesStdSort) {
  std::array<std::vector<float>, 4> runs;
  std::vector<float> all;
  for (int i = 0; i < 4; ++i) {
    runs[i] = SortedRandom(100 + 37 * i, 10 + i);
    all.insert(all.end(), runs[i].begin(), runs[i].end());
  }
  std::vector<float> out(all.size());
  const std::array<std::span<const float>, 4> views{runs[0], runs[1], runs[2], runs[3]};
  const std::uint64_t comparisons = FourWayMerge(views, out);
  std::sort(all.begin(), all.end());
  EXPECT_EQ(out, all);
  // "The merge routine performs O(n) comparisons" (§4.4): two levels of
  // binary merges, at most 2n comparisons.
  EXPECT_LE(comparisons, 2 * all.size());
}

TEST(MergeTest, FourWayWithEmptyRuns) {
  std::array<std::vector<float>, 4> runs;
  runs[0] = {1, 4};
  runs[2] = {2, 3};
  std::vector<float> out(4);
  const std::array<std::span<const float>, 4> views{runs[0], runs[1], runs[2], runs[3]};
  FourWayMerge(views, out);
  EXPECT_EQ(out, (std::vector<float>{1, 2, 3, 4}));
}

TEST(MergeTest, TwoWayExactComparisonCount) {
  // The count contract (shared by the seed implementation and the branchless
  // loop): exactly one comparison per emitted element while both runs are
  // non-empty; the tail copy is free.
  const std::vector<float> a{1, 2, 3, 4, 5, 6, 7};
  const std::vector<float> b{0};
  std::vector<float> out(8);
  // b[0] = 0 wins the first comparison and exhausts b; a's tail copies over
  // without further comparisons.
  EXPECT_EQ(TwoWayMerge(a, b, out), 1u);
  // Interleaved runs compare once per output until one side empties.
  const std::vector<float> c{1, 3, 5, 7};
  const std::vector<float> d{2, 4, 6, 8};
  out.resize(8);
  EXPECT_EQ(TwoWayMerge(c, d, out), 7u);  // d's last element tail-copies
}

TEST(MergeTest, TwoWayDuplicateHeavy) {
  // All-equal inputs: worst case for branch predictors, and the stability
  // rule (ties from `a`) must hold for every element.
  const std::vector<float> a(500, 3.0f);
  std::vector<float> b(500, 3.0f);
  b.push_back(4.0f);
  std::vector<float> out(1001);
  const std::uint64_t comparisons = TwoWayMerge(a, b, out);
  EXPECT_TRUE(std::is_sorted(out.begin(), out.end()));
  EXPECT_EQ(out.back(), 4.0f);
  // Every tie takes from `a`, so a drains in 500 compared outputs and b's
  // 501 elements tail-copy for free.
  EXPECT_EQ(comparisons, 500u);
}

TEST(MergeTest, KWayMatchesStdSort) {
  std::mt19937 rng(77);
  for (int ways = 1; ways <= 9; ++ways) {
    std::vector<std::vector<float>> runs(ways);
    std::vector<float> all;
    for (int i = 0; i < ways; ++i) {
      runs[i] = SortedRandom(20 + 11 * i, 100 + i);
      all.insert(all.end(), runs[i].begin(), runs[i].end());
    }
    std::vector<std::span<const float>> views(runs.begin(), runs.end());
    std::vector<float> out(all.size());
    KWayMerge(views, out);
    std::sort(all.begin(), all.end());
    ASSERT_EQ(out, all) << "ways=" << ways;
  }
}

TEST(MergeTest, KWaySingleRunCopiesWithoutComparisons) {
  const auto run = SortedRandom(257, 5);
  const std::vector<std::span<const float>> views{run};
  std::vector<float> out(run.size());
  EXPECT_EQ(KWayMerge(views, out), 0u);
  EXPECT_EQ(out, run);
  // Degenerate inputs: no runs at all, and a single empty run.
  std::vector<float> empty_out;
  EXPECT_EQ(KWayMerge(std::vector<std::span<const float>>{}, empty_out), 0u);
  const std::vector<float> empty_run;
  EXPECT_EQ(KWayMerge(std::vector<std::span<const float>>{empty_run}, empty_out), 0u);
}

TEST(MergeTest, KWayWithEmptyRuns) {
  // Empty runs interleaved with real ones (the padded-leaf path of the loser
  // tree): they must lose every match without being counted as comparisons.
  const std::vector<float> a{1, 5, 9};
  const std::vector<float> empty;
  const std::vector<float> b{2, 6};
  const std::vector<float> c{3};
  const std::vector<std::span<const float>> views{empty, a, empty, b, c, empty};
  std::vector<float> out(6);
  KWayMerge(views, out);
  EXPECT_EQ(out, (std::vector<float>{1, 2, 3, 5, 6, 9}));

  std::vector<float> out2(6);
  KWayMergeHeadScan(views, out2);
  EXPECT_EQ(out, out2);
}

TEST(MergeTest, KWayDuplicateHeavyIsStable) {
  // Heavy duplication across runs: the loser tree breaks ties by run index,
  // which is exactly the head-scan's order — outputs must match elementwise.
  std::mt19937 rng(31);
  std::uniform_int_distribution<int> small(0, 3);
  std::vector<std::vector<float>> runs(7);
  std::size_t total = 0;
  for (auto& run : runs) {
    run.resize(200);
    for (float& v : run) v = static_cast<float>(small(rng));
    std::sort(run.begin(), run.end());
    total += run.size();
  }
  const std::vector<std::span<const float>> views(runs.begin(), runs.end());
  std::vector<float> tree_out(total);
  std::vector<float> scan_out(total);
  KWayMerge(views, tree_out);
  KWayMergeHeadScan(views, scan_out);
  EXPECT_EQ(tree_out, scan_out);
  EXPECT_TRUE(std::is_sorted(tree_out.begin(), tree_out.end()));
}

TEST(MergeTest, KWayComparisonCountInvariants) {
  // Each of the n outputs replays one leaf-to-root path: at most
  // ceil(log2 k) real comparisons, plus the tree build (< k). The head scan
  // costs (live_runs - 1) per output — strictly more for k > 2 — which is
  // the point of the loser tree.
  std::mt19937 rng(53);
  for (std::size_t ways : {2u, 3u, 5u, 8u, 16u}) {
    std::vector<std::vector<float>> runs(ways);
    std::size_t total = 0;
    for (std::size_t i = 0; i < ways; ++i) {
      runs[i] = SortedRandom(300 + 17 * i, static_cast<unsigned>(1000 + i));
      total += runs[i].size();
    }
    const std::vector<std::span<const float>> views(runs.begin(), runs.end());
    std::vector<float> out(total);
    const std::uint64_t tree = KWayMerge(views, out);
    std::vector<float> out2(total);
    const std::uint64_t scan = KWayMergeHeadScan(views, out2);
    ASSERT_EQ(out, out2) << "ways=" << ways;

    std::size_t log2k = 0;
    while ((1u << log2k) < ways) ++log2k;
    EXPECT_LE(tree, total * log2k + ways) << "ways=" << ways;
    if (ways > 2) {
      EXPECT_LT(tree, scan) << "ways=" << ways;
    }
  }
}

}  // namespace
}  // namespace streamgpu::sort
