// Property tests for the quantile machinery: Greenwald-Khanna summaries
// (sketch/gk_summary.h) and the exponential histogram of summaries
// (sketch/exponential_histogram.h, §5.2), plus a differential check of the
// histogram against a tuple-only reference cascade.

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <random>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/float_order.h"
#include "common/fork_join.h"
#include "sketch/exact.h"
#include "sketch/exponential_histogram.h"
#include "sketch/gk_summary.h"
#include "sketch/kll.h"
#include "sketch/quantile_sketch.h"
#include "sketch/serialize.h"
#include "sketch/wire.h"

namespace streamgpu::sketch {
namespace {

// Checks that `value` answers a rank-r query over `sorted` within
// `allowed` ranks (using 1-based ranks; duplicates give the value a rank
// interval).
::testing::AssertionResult RankWithin(const std::vector<float>& sorted, float value,
                                      double target_rank, double allowed) {
  const auto [lo0, hi0] = ExactRankRange(sorted, value);
  const double lo = static_cast<double>(lo0) + 1;  // 1-based
  const double hi = static_cast<double>(hi0) + 1;
  if (lo - allowed <= target_rank && target_rank <= hi + allowed) {
    return ::testing::AssertionSuccess();
  }
  return ::testing::AssertionFailure()
         << "value " << value << " has rank range [" << lo << "," << hi
         << "], target " << target_rank << " allowed +-" << allowed;
}

std::vector<float> RandomValues(std::size_t n, unsigned seed, int domain = 0) {
  std::mt19937 rng(seed);
  std::vector<float> v(n);
  if (domain > 0) {
    std::uniform_int_distribution<int> d(0, domain - 1);
    for (float& x : v) x = static_cast<float>(d(rng));
  } else {
    std::uniform_real_distribution<float> d(0.0f, 1e6f);
    for (float& x : v) x = d(rng);
  }
  return v;
}

// --- GkSummary::FromSorted ---

TEST(GkFromSortedTest, ExactWhenStepIsOne) {
  std::vector<float> w{1, 2, 3, 4, 5};
  const auto s = GkSummary::FromSorted(w, 0.01);  // step = max(1, 0) = 1
  EXPECT_EQ(s.size(), 5u);
  EXPECT_EQ(s.epsilon(), 0.0);
  EXPECT_EQ(s.count(), 5u);
  for (std::uint64_t r = 1; r <= 5; ++r) {
    EXPECT_EQ(s.QueryRank(r), w[r - 1]);
  }
}

TEST(GkFromSortedTest, SamplingRespectsTargetEpsilon) {
  auto w = RandomValues(10000, 1);
  std::sort(w.begin(), w.end());
  for (double eps : {0.001, 0.01, 0.05, 0.2}) {
    const auto s = GkSummary::FromSorted(w, eps);
    EXPECT_LE(s.epsilon(), eps);
    // Space ~ 1/(2 eps) + 2.
    EXPECT_LE(s.size(), static_cast<std::size_t>(1.0 / (2.0 * eps)) + 3) << eps;
    // Every rank is answerable within eps * n.
    const double allowed = eps * 10000.0 + 1;
    for (std::uint64_t r = 1; r <= 10000; r += 97) {
      EXPECT_TRUE(RankWithin(w, s.QueryRank(r), static_cast<double>(r), allowed));
    }
  }
}

TEST(GkFromSortedTest, FirstAndLastRanksPresent) {
  auto w = RandomValues(1000, 2);
  std::sort(w.begin(), w.end());
  const auto s = GkSummary::FromSorted(w, 0.1);
  EXPECT_EQ(s.tuples().front().rmin, 1u);
  EXPECT_EQ(s.tuples().back().rmax, 1000u);
}

TEST(GkFromSortedTest, EmptyWindow) {
  const auto s = GkSummary::FromSorted({}, 0.1);
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.count(), 0u);
}

// --- Rank-bound soundness: rmin/rmax must always bracket a realizable ---
// --- rank of the tuple's value.                                        ---

void CheckTupleSoundness(const GkSummary& s, const std::vector<float>& sorted) {
  for (const GkTuple& t : s.tuples()) {
    const auto [lo0, hi0] = ExactRankRange(sorted, t.value);
    EXPECT_LE(t.rmin, hi0 + 1) << "rmin beyond the value's highest rank for " << t.value;
    EXPECT_GE(t.rmax, lo0 + 1) << "rmax below the value's lowest rank for " << t.value;
    EXPECT_LE(t.rmin, t.rmax);
    EXPECT_GE(t.rmin, 1u);
    EXPECT_LE(t.rmax, s.count());
  }
}

struct MergeCase {
  std::size_t na;
  std::size_t nb;
  int domain;  // 0 = continuous
  double eps;
};

class GkMergeProperty : public ::testing::TestWithParam<MergeCase> {};

TEST_P(GkMergeProperty, MergedSummaryAnswersWithinEpsilon) {
  const MergeCase& p = GetParam();
  auto a = RandomValues(p.na, 31, p.domain);
  auto b = RandomValues(p.nb, 32, p.domain);
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  const GkSummary sa = GkSummary::FromSorted(a, p.eps);
  const GkSummary sb = GkSummary::FromSorted(b, p.eps);
  const GkSummary merged = GkSummary::Merge(sa, sb);

  std::vector<float> all;
  all.insert(all.end(), a.begin(), a.end());
  all.insert(all.end(), b.begin(), b.end());
  std::sort(all.begin(), all.end());

  ASSERT_EQ(merged.count(), all.size());
  EXPECT_LE(merged.epsilon(), p.eps);
  CheckTupleSoundness(merged, all);

  const double allowed = merged.epsilon() * static_cast<double>(all.size()) + 1;
  for (double phi : {0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0}) {
    const double target = std::ceil(phi * static_cast<double>(all.size()));
    EXPECT_TRUE(RankWithin(all, merged.Query(phi), target, allowed)) << "phi=" << phi;
  }
}

TEST_P(GkMergeProperty, PruneKeepsEpsilonPlusHalfOverB) {
  const MergeCase& p = GetParam();
  auto a = RandomValues(p.na, 41, p.domain);
  auto b = RandomValues(p.nb, 42, p.domain);
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  GkSummary merged =
      GkSummary::Merge(GkSummary::FromSorted(a, p.eps), GkSummary::FromSorted(b, p.eps));

  const std::size_t kB = 20;
  const GkSummary pruned = merged.Prune(kB);
  EXPECT_LE(pruned.size(), kB + 1);
  EXPECT_LE(pruned.epsilon(), merged.epsilon() + 1.0 / (2.0 * kB) + 1e-12);

  std::vector<float> all;
  all.insert(all.end(), a.begin(), a.end());
  all.insert(all.end(), b.begin(), b.end());
  std::sort(all.begin(), all.end());
  CheckTupleSoundness(pruned, all);

  const double allowed = pruned.epsilon() * static_cast<double>(all.size()) + 1;
  for (double phi : {0.05, 0.3, 0.5, 0.8, 0.95}) {
    const double target = std::ceil(phi * static_cast<double>(all.size()));
    EXPECT_TRUE(RankWithin(all, pruned.Query(phi), target, allowed)) << "phi=" << phi;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, GkMergeProperty,
    ::testing::Values(MergeCase{1000, 1000, 0, 0.05}, MergeCase{1000, 1000, 10, 0.05},
                      MergeCase{5000, 100, 0, 0.02}, MergeCase{100, 5000, 7, 0.02},
                      MergeCase{2048, 2048, 3, 0.01}, MergeCase{777, 1234, 50, 0.05}),
    [](const ::testing::TestParamInfo<MergeCase>& info) {
      return "na" + std::to_string(info.param.na) + "_nb" + std::to_string(info.param.nb) +
             "_dom" + std::to_string(info.param.domain) + "_eps" +
             std::to_string(static_cast<int>(1.0 / info.param.eps));
    });

TEST(GkMergeTest, MergeWithEmptyIsIdentity) {
  auto a = RandomValues(100, 51);
  std::sort(a.begin(), a.end());
  const GkSummary s = GkSummary::FromSorted(a, 0.1);
  const GkSummary e;
  EXPECT_EQ(GkSummary::Merge(s, e).count(), 100u);
  EXPECT_EQ(GkSummary::Merge(e, s).count(), 100u);
  EXPECT_EQ(GkSummary::Merge(e, e).count(), 0u);
}

TEST(GkMergeTest, ChainOfMergesStaysTightOnDuplicates) {
  // Regression: merging many summaries of heavily duplicated data must not
  // blow up rank intervals (requires a consistent tie order).
  std::mt19937 rng(61);
  std::uniform_int_distribution<int> d(0, 4);  // only five distinct values
  GkSummary acc;
  std::vector<float> all;
  for (int block = 0; block < 50; ++block) {
    std::vector<float> w(200);
    for (float& v : w) v = static_cast<float>(d(rng));
    all.insert(all.end(), w.begin(), w.end());
    std::sort(w.begin(), w.end());
    acc = GkSummary::Merge(acc, GkSummary::FromSorted(w, 0.02));
  }
  std::sort(all.begin(), all.end());
  const double allowed = acc.epsilon() * static_cast<double>(all.size()) + 1;
  for (double phi : {0.1, 0.25, 0.5, 0.75, 0.9}) {
    const double target = std::ceil(phi * static_cast<double>(all.size()));
    EXPECT_TRUE(RankWithin(all, acc.Query(phi), target, allowed)) << phi;
  }
}

TEST(GkMergeTest, MergeOrderDoesNotBreakGuarantees) {
  // ((a+b)+c) and (a+(b+c)) need not be identical summaries, but both must
  // answer every query within epsilon of truth.
  std::mt19937 rng(62);
  std::uniform_int_distribution<int> d(0, 30);
  std::array<std::vector<float>, 3> parts;
  std::vector<float> all;
  for (auto& part : parts) {
    part.resize(1500);
    for (float& v : part) v = static_cast<float>(d(rng));
    all.insert(all.end(), part.begin(), part.end());
    std::sort(part.begin(), part.end());
  }
  std::sort(all.begin(), all.end());

  const double eps = 0.02;
  const GkSummary a = GkSummary::FromSorted(parts[0], eps);
  const GkSummary b = GkSummary::FromSorted(parts[1], eps);
  const GkSummary c = GkSummary::FromSorted(parts[2], eps);
  const GkSummary left = GkSummary::Merge(GkSummary::Merge(a, b), c);
  const GkSummary right = GkSummary::Merge(a, GkSummary::Merge(b, c));

  const double allowed = eps * static_cast<double>(all.size()) + 1;
  for (const GkSummary* s : {&left, &right}) {
    ASSERT_EQ(s->count(), all.size());
    for (double phi : {0.1, 0.5, 0.9}) {
      const double target = std::ceil(phi * static_cast<double>(all.size()));
      EXPECT_TRUE(RankWithin(all, s->Query(phi), target, allowed)) << phi;
    }
  }
}

TEST(GkPruneTest, SmallSummaryIsUntouched) {
  auto a = RandomValues(100, 52);
  std::sort(a.begin(), a.end());
  const GkSummary s = GkSummary::FromSorted(a, 0.2);
  const GkSummary pruned = s.Prune(1000);
  EXPECT_EQ(pruned.size(), s.size());
  EXPECT_EQ(pruned.epsilon(), s.epsilon());
}

// --- Exponential histogram (§5.2). ---

struct EhCase {
  double eps;
  std::uint64_t window;
  std::size_t n;
  int domain;
};

class EhProperty : public ::testing::TestWithParam<EhCase> {};

TEST_P(EhProperty, QueriesWithinEpsilon) {
  const EhCase& p = GetParam();
  EhQuantileSummary eh(p.eps, p.window, p.n);
  auto stream = RandomValues(p.n, 71, p.domain);
  std::vector<float> sorted;
  for (std::size_t off = 0; off < stream.size(); off += p.window) {
    const std::size_t len = std::min<std::size_t>(p.window, stream.size() - off);
    std::vector<float> w(stream.begin() + off, stream.begin() + off + len);
    std::sort(w.begin(), w.end());
    eh.AddWindowSummary(GkSummary::FromSorted(w, p.eps / 2.0));
  }
  sorted = stream;
  std::sort(sorted.begin(), sorted.end());
  ASSERT_EQ(eh.count(), p.n);

  const double allowed = p.eps * static_cast<double>(p.n) + 1;
  for (double phi : {0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99}) {
    const double target = std::ceil(phi * static_cast<double>(p.n));
    EXPECT_TRUE(RankWithin(sorted, eh.Query(phi), target, allowed)) << phi;
  }
}

TEST_P(EhProperty, AtMostOneBucketPerLevel) {
  const EhCase& p = GetParam();
  EhQuantileSummary eh(p.eps, p.window, p.n);
  auto stream = RandomValues(p.n, 72, p.domain);
  for (std::size_t off = 0; off < stream.size(); off += p.window) {
    const std::size_t len = std::min<std::size_t>(p.window, stream.size() - off);
    std::vector<float> w(stream.begin() + off, stream.begin() + off + len);
    std::sort(w.begin(), w.end());
    eh.AddWindowSummary(GkSummary::FromSorted(w, p.eps / 2.0));
    // Canonical binary-counter state: ids within the provisioned levels.
    const std::vector<EhBucket>& buckets = eh.buckets();
    const auto top = std::find_if(buckets.rbegin(), buckets.rend(),
                                  [](const EhBucket& b) { return !b.empty(); });
    EXPECT_LE(buckets.rend() - top, eh.levels() + 1);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, EhProperty,
    ::testing::Values(EhCase{0.02, 500, 50000, 0}, EhCase{0.02, 500, 50000, 20},
                      EhCase{0.01, 1000, 100000, 0}, EhCase{0.05, 100, 20000, 5},
                      EhCase{0.01, 1000, 97531, 0}),  // non-multiple length
    [](const ::testing::TestParamInfo<EhCase>& info) {
      return "eps" + std::to_string(static_cast<int>(1.0 / info.param.eps)) + "_w" +
             std::to_string(info.param.window) + "_n" + std::to_string(info.param.n) +
             "_dom" + std::to_string(info.param.domain);
    });

TEST(EhTest, LevelBudgetsAreIncreasingAndBelowEpsilon) {
  EhQuantileSummary eh(0.01, 1000, 1000000);
  double prev = 0;
  for (int b = 1; b <= eh.levels(); ++b) {
    const double budget = eh.LevelBudget(b);
    EXPECT_GT(budget, prev);
    EXPECT_LE(budget, 0.01 + 1e-12);
    prev = budget;
  }
}

TEST(EhTest, SpaceStaysBounded) {
  const double eps = 0.02;
  EhQuantileSummary eh(eps, 200, 100000);
  std::mt19937 rng(81);
  std::uniform_real_distribution<float> d(0.0f, 1.0f);
  for (int block = 0; block < 500; ++block) {
    std::vector<float> w(200);
    for (float& v : w) v = d(rng);
    std::sort(w.begin(), w.end());
    eh.AddWindowSummary(GkSummary::FromSorted(w, eps / 2.0));
  }
  // Bound: levels * (prune budget + 1) tuples plus slack for unpruned
  // low-level buckets.
  const double cap = static_cast<double>(eh.levels() + 2) *
                     (static_cast<double>(eh.prune_tuples()) + 200.0);
  EXPECT_LE(static_cast<double>(eh.TotalTuples()), cap);
  EXPECT_GT(eh.merge_seconds() + eh.compress_seconds(), 0.0);
}

TEST(EhTest, RejectsTooCoarseWindowSummary) {
  EhQuantileSummary eh(0.01, 1000, 100000);
  std::vector<float> w(1000);
  for (std::size_t i = 0; i < w.size(); ++i) w[i] = static_cast<float>(i);
  // A 0.5-approximate summary violates the epsilon/2 requirement.
  EXPECT_DEATH(eh.AddWindowSummary(GkSummary::FromSorted(w, 0.5)), "epsilon/2");
}

TEST(EhTest, StatedBoundFollowsTheBucketsPastExpectedLength) {
  // N = 10,000 provisions 5 levels; 2,000 windows push bucket ids to 11,
  // whose budgets exceed epsilon, and so does the summary the answers come
  // from. The stated bound must be that summary's epsilon times n, not
  // epsilon times n (20,000).
  const double eps = 0.01;
  const std::size_t w = 1000;
  auto sketch = QuantileSketch::Create(QuantileSketchKind::kGk, eps, w, 10000);
  ASSERT_TRUE(sketch.ok());
  std::vector<float> stream = RandomValues(2000 * w, 82);
  for (std::size_t off = 0; off < stream.size(); off += w) {
    std::vector<float> window(stream.begin() + static_cast<std::ptrdiff_t>(off),
                              stream.begin() + static_cast<std::ptrdiff_t>(off + w));
    std::sort(window.begin(), window.end());
    (*sketch)->AddSortedWindow(window, nullptr);
  }
  std::vector<std::uint8_t> wire_bytes;
  ASSERT_TRUE((*sketch)->AppendWireSummary(&wire_bytes).ok());
  std::span<const std::uint8_t> cursor(wire_bytes);
  auto flat = DeserializeGkSummary(&cursor);
  ASSERT_TRUE(flat.ok());
  const double n = static_cast<double>(stream.size());
  ASSERT_GT(flat->epsilon(), eps);
  const std::uint64_t bound = (*sketch)->rank_error_bound();
  EXPECT_EQ(bound, static_cast<std::uint64_t>(std::ceil(flat->epsilon() * n)));
  EXPECT_GT(bound, static_cast<std::uint64_t>(std::ceil(eps * n)));

  std::sort(stream.begin(), stream.end());
  for (double phi : {0.001, 0.25, 0.5, 0.75, 0.999}) {
    EXPECT_TRUE(RankWithin(stream, (*sketch)->Query(phi), std::ceil(phi * n),
                           static_cast<double>(bound)))
        << phi;
  }
}

// --- KllSketch ---

TEST(KllTest, EmptySketchAnswersZero) {
  KllSketch s(0.01);
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.Quantile(0.5), 0.0f);
  EXPECT_EQ(s.QueryRank(1), 0.0f);
  EXPECT_EQ(s.rank_error_bound(), 0u);
  EXPECT_EQ(s.summary_size(), 0u);
}

TEST(KllTest, ExactWhileNoCompactionHasRun) {
  KllSketch s(0.25);  // tiny k so this would compact quickly
  std::vector<float> w{5, 1, 3, 2, 4};
  for (float v : w) {
    if (s.compactions() > 0) break;
    s.Observe(v);
  }
  // Before the first compaction the tracked worst case is 0: answers are
  // exact and the honest bound says so.
  if (s.compactions() == 0) {
    EXPECT_EQ(s.worst_case_rank_error(), 0u);
    EXPECT_EQ(s.rank_error_bound(), 0u);
  }
}

TEST(KllTest, AccuracyWithinStatedEpsilonAcrossSweep) {
  for (double eps : {0.05, 0.02, 0.01}) {
    const std::size_t n = 50000;
    auto data = RandomValues(n, 1234);
    KllSketch s(eps);
    for (float v : data) s.Observe(v);
    ASSERT_EQ(s.count(), n);

    std::vector<float> sorted = data;
    std::sort(sorted.begin(), sorted.end());
    const double allowed = static_cast<double>(s.rank_error_bound()) + 1;
    EXPECT_LE(s.rank_error_bound(),
              static_cast<std::uint64_t>(std::ceil(eps * static_cast<double>(n))));
    for (double phi : {0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0}) {
      const double target = std::ceil(phi * static_cast<double>(n));
      EXPECT_TRUE(RankWithin(sorted, s.Quantile(phi), target, allowed))
          << "eps=" << eps << " phi=" << phi;
    }
  }
}

TEST(KllTest, SpaceStaysSublinearAndBeatsNaive) {
  const double eps = 0.01;
  const std::size_t n = 200000;
  KllSketch s(eps);
  std::mt19937 rng(7);
  std::uniform_real_distribution<float> d(0.0f, 1e6f);
  for (std::size_t i = 0; i < n; ++i) s.Observe(d(rng));
  // O(k log(n/k)) items: k = 400 at this epsilon; the whole hierarchy must
  // stay within a small multiple of k, far below the stream length.
  EXPECT_LE(s.summary_size(), 8 * s.k());
  EXPECT_LT(s.summary_size(), n / 50);
  EXPECT_LT(s.num_levels(), 64u);
}

TEST(KllTest, DeterministicAcrossIdenticalRuns) {
  const auto data = RandomValues(30000, 55);
  KllSketch a(0.02), b(0.02);
  for (float v : data) a.Observe(v);
  for (float v : data) b.Observe(v);
  // Same sequence + same seed: bit-identical hierarchy and coin position.
  EXPECT_EQ(a.levels(), b.levels());
  EXPECT_EQ(a.compactions(), b.compactions());
  EXPECT_EQ(a.worst_case_rank_error(), b.worst_case_rank_error());
  for (double phi : {0.1, 0.5, 0.9}) EXPECT_EQ(a.Quantile(phi), b.Quantile(phi));
}

TEST(KllTest, SeedChangesCoinSequenceButNotGuarantee) {
  const auto data = RandomValues(20000, 56);
  KllSketch a(0.02, 1), b(0.02, 2);
  for (float v : data) a.Observe(v);
  for (float v : data) b.Observe(v);
  std::vector<float> sorted = data;
  std::sort(sorted.begin(), sorted.end());
  for (double phi : {0.25, 0.5, 0.75}) {
    const double target = std::ceil(phi * static_cast<double>(data.size()));
    EXPECT_TRUE(RankWithin(sorted, a.Quantile(phi), target,
                           static_cast<double>(a.rank_error_bound()) + 1));
    EXPECT_TRUE(RankWithin(sorted, b.Quantile(phi), target,
                           static_cast<double>(b.rank_error_bound()) + 1));
  }
}

TEST(KllTest, MergeMatchesUnionAndComposesBounds) {
  const auto left = RandomValues(15000, 60);
  const auto right = RandomValues(25000, 61);
  KllSketch a(0.02), b(0.02);
  for (float v : left) a.Observe(v);
  for (float v : right) b.Observe(v);
  const std::uint64_t wa = a.worst_case_rank_error();
  const std::uint64_t wb = b.worst_case_rank_error();

  ASSERT_TRUE(a.Merge(b).ok());
  EXPECT_EQ(a.count(), left.size() + right.size());
  // The tracked worst cases add (plus any compactions Merge itself runs).
  EXPECT_GE(a.worst_case_rank_error(), wa + wb);

  std::vector<float> all = left;
  all.insert(all.end(), right.begin(), right.end());
  std::sort(all.begin(), all.end());
  const double allowed = static_cast<double>(a.rank_error_bound()) + 1;
  for (double phi : {0.1, 0.5, 0.9}) {
    const double target = std::ceil(phi * static_cast<double>(all.size()));
    EXPECT_TRUE(RankWithin(all, a.Quantile(phi), target, allowed)) << phi;
  }
}

TEST(KllTest, MergeRejectsEpsilonMismatchAndAcceptsEmpty) {
  KllSketch a(0.02), mismatched(0.05), empty(0.02);
  a.Observe(1.0f);
  mismatched.Observe(2.0f);  // an empty sketch merges as the identity even
                             // across epsilons; a non-empty one must not
  EXPECT_FALSE(a.Merge(mismatched).ok());
  const std::uint64_t before = a.count();
  ASSERT_TRUE(a.Merge(empty).ok());
  EXPECT_EQ(a.count(), before);
}

TEST(KllTest, WeightIsConservedAcrossCompactions) {
  KllSketch s(0.1);
  std::mt19937 rng(9);
  std::uniform_real_distribution<float> d(0.0f, 1.0f);
  for (int i = 0; i < 10000; ++i) s.Observe(d(rng));
  std::uint64_t weighted = 0;
  for (std::size_t h = 0; h < s.num_levels(); ++h) {
    weighted += static_cast<std::uint64_t>(s.levels()[h].size()) << h;
  }
  EXPECT_EQ(weighted, s.count());
  EXPECT_GT(s.compactions(), 0u);
  EXPECT_GT(s.discarded_items(), 0u);
}

TEST(KllTest, SpaceIsSmallerThanChainedGkMerges) {
  // The headline trade: KLL's compaction keeps O(k log(n/k)) items on a
  // merge-heavy stream, while an unpruned GK merge chain grows with the
  // number of windows folded in (one tuple per surviving input tuple).
  const double eps = 0.005;
  const std::size_t kWindows = 100, kWindow = 1000;
  KllSketch kll(eps);
  GkSummary gk;
  std::mt19937 rng(77);
  std::uniform_real_distribution<float> d(0.0f, 1e6f);
  for (std::size_t b = 0; b < kWindows; ++b) {
    std::vector<float> w(kWindow);
    for (float& v : w) v = d(rng);
    for (float v : w) kll.Observe(v);
    std::sort(w.begin(), w.end());
    gk = GkSummary::Merge(gk, GkSummary::FromSorted(w, eps));
  }
  EXPECT_LT(kll.summary_size(), gk.size());
  // And the sketch itself stays within its schedule, independent of n.
  EXPECT_LE(kll.summary_size(), 8 * kll.k());
}

// --- Differential check against the tuple-only cascade. ---
//
// `ref` is the exponential histogram with every bucket a GkTuple list: MERGE
// locating each tuple's partner bounds by scanning, PRUNE by one binary
// search per target rank. The production cascade (one-pass prune, two-
// pointer merge, exact buckets as value runs) must match it bucket by
// bucket, answer by answer and byte by byte.

namespace ref {

struct Summary {
  std::vector<GkTuple> tuples;
  std::uint64_t count = 0;
  double epsilon = 0;

  bool empty() const { return tuples.empty(); }
};

Summary FromSorted(std::span<const float> w, double target_epsilon) {
  Summary out;
  const std::uint64_t n = w.size();
  if (n == 0) return out;
  out.count = n;
  const auto step = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(2.0 * target_epsilon * static_cast<double>(n)));
  for (std::uint64_t r = 0; r < n; r += step) out.tuples.push_back({w[r], r + 1, r + 1});
  if (out.tuples.back().rmin != n) out.tuples.push_back({w[n - 1], n, n});
  out.epsilon = static_cast<double>(step / 2) / static_cast<double>(n);
  return out;
}

Summary Merge(const Summary& a, const Summary& b) {
  if (a.empty()) return b;
  if (b.empty()) return a;
  Summary out;
  out.count = a.count + b.count;
  out.epsilon = std::max(a.epsilon, b.epsilon);
  const std::size_t na = a.tuples.size();
  const std::size_t nb = b.tuples.size();
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < na || j < nb) {
    const bool take_a = j >= nb || (i < na && a.tuples[i].value <= b.tuples[j].value);
    if (take_a) {
      const GkTuple& t = a.tuples[i];
      std::size_t ge = j;
      while (ge < nb && b.tuples[ge].value < t.value) ++ge;
      std::uint64_t rmin = t.rmin;
      std::uint64_t rmax = t.rmax;
      if (ge > 0) rmin += b.tuples[ge - 1].rmin;
      rmax += ge < nb ? b.tuples[ge].rmax - 1 : b.count;
      out.tuples.push_back({t.value, rmin, rmax});
      ++i;
    } else {
      const GkTuple& t = b.tuples[j];
      std::size_t gt = i;
      while (gt < na && a.tuples[gt].value <= t.value) ++gt;
      std::uint64_t rmin = t.rmin;
      std::uint64_t rmax = t.rmax;
      if (gt > 0) rmin += a.tuples[gt - 1].rmin;
      rmax += gt < na ? a.tuples[gt].rmax - 1 : a.count;
      out.tuples.push_back({t.value, rmin, rmax});
      ++j;
    }
  }
  return out;
}

std::size_t BestTupleForRank(const Summary& s, std::uint64_t rank) {
  const auto cost = [rank](const GkTuple& t) {
    const std::uint64_t lo = t.rmin > rank ? t.rmin - rank : rank - t.rmin;
    const std::uint64_t hi = t.rmax > rank ? t.rmax - rank : rank - t.rmax;
    return std::max(lo, hi);
  };
  const auto it = std::partition_point(
      s.tuples.begin(), s.tuples.end(),
      [rank](const GkTuple& t) { return t.rmin + t.rmax < 2 * rank; });
  std::size_t best = it == s.tuples.end() ? s.tuples.size() - 1
                                          : static_cast<std::size_t>(it - s.tuples.begin());
  if (best > 0 && cost(s.tuples[best - 1]) < cost(s.tuples[best])) --best;
  return best;
}

Summary Prune(const Summary& s, std::size_t max_tuples) {
  if (s.tuples.size() <= max_tuples + 1) return s;
  Summary out;
  out.count = s.count;
  out.epsilon = s.epsilon + 1.0 / (2.0 * static_cast<double>(max_tuples));
  for (std::size_t i = 0; i <= max_tuples; ++i) {
    const auto rank = std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(
               std::llround(static_cast<double>(i) * static_cast<double>(s.count) /
                            static_cast<double>(max_tuples))));
    const GkTuple& t = s.tuples[BestTupleForRank(s, rank)];
    if (out.tuples.empty() || !(out.tuples.back() == t)) out.tuples.push_back(t);
  }
  return out;
}

float Query(const Summary& s, double phi) {
  const auto rank = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(std::ceil(phi * static_cast<double>(s.count))));
  return s.tuples[BestTupleForRank(s, rank)].value;
}

/// The histogram's cascade over tuple lists only.
class Eh {
 public:
  Eh(double epsilon, std::uint64_t window_size, std::uint64_t expected_length) {
    const std::uint64_t windows =
        std::max<std::uint64_t>(1, (expected_length + window_size - 1) / window_size);
    const int levels =
        static_cast<int>(std::ceil(std::log2(static_cast<double>(windows) + 1.0))) + 1;
    prune_tuples_ = static_cast<std::size_t>(
        std::ceil(static_cast<double>(levels + 1) / epsilon));
    buckets_.resize(static_cast<std::size_t>(levels) + 8);
  }

  void AddWindowSummary(Summary carry) {
    if (carry.empty()) return;
    count_ += carry.count;
    std::size_t id = 1;
    while (id <= buckets_.size() && !buckets_[id - 1].empty()) {
      const Summary merged = Merge(carry, buckets_[id - 1]);
      merged_tuples_ += merged.tuples.size();
      pruned_tuples_ += merged.tuples.size();
      carry = Prune(merged, prune_tuples_);
      buckets_[id - 1] = Summary();
      ++id;
    }
    if (id > buckets_.size()) buckets_.resize(id);
    buckets_[id - 1] = std::move(carry);
  }

  Summary Flatten() const {
    Summary all;
    for (const Summary& bucket : buckets_) {
      if (!bucket.empty()) all = Merge(all, bucket);
    }
    return all;
  }

  std::size_t TotalTuples() const {
    std::size_t total = 0;
    for (const Summary& bucket : buckets_) total += bucket.tuples.size();
    return total;
  }

  const std::vector<Summary>& buckets() const { return buckets_; }
  std::uint64_t count() const { return count_; }
  std::uint64_t merged_tuples() const { return merged_tuples_; }
  std::uint64_t pruned_tuples() const { return pruned_tuples_; }

 private:
  std::size_t prune_tuples_ = 0;
  std::vector<Summary> buckets_;
  std::uint64_t count_ = 0;
  std::uint64_t merged_tuples_ = 0;
  std::uint64_t pruned_tuples_ = 0;
};

GkSummary ToGk(const Summary& s) {
  GkSummary out;
  EXPECT_TRUE(GkSummary::FromParts(s.tuples, s.count, s.epsilon, &out));
  return out;
}

/// GkEhSketch::AppendWireSummary of the same cascade.
std::vector<std::uint8_t> WireBytes(const Eh& eh) {
  std::vector<std::uint8_t> out;
  EXPECT_TRUE(SerializeSummary(ToGk(eh.Flatten()), &out).ok());
  return out;
}

/// True when `s` lists every element at its exact rank: epsilon 0 and
/// tuple i is (v, i+1, i+1).
bool IsExact(const Summary& s) {
  if (s.epsilon != 0.0 || s.tuples.size() != s.count) return false;
  for (std::uint64_t r = 0; r < s.tuples.size(); ++r) {
    if (s.tuples[r].rmin != r + 1 || s.tuples[r].rmax != r + 1) return false;
  }
  return true;
}

/// GkEhSketch::AppendCheckpointState of the same cascade: per slot a tag
/// byte, 0 for a vacant slot, 2 plus the length u64 and the f32 values for
/// an exact bucket, 1 plus the SGMS envelope for any other.
std::vector<std::uint8_t> CheckpointBytes(const Eh& eh) {
  std::vector<std::uint8_t> out;
  wire::Append<std::uint64_t>(&out, eh.count());
  wire::Append<std::uint32_t>(&out, static_cast<std::uint32_t>(eh.buckets().size()));
  for (const Summary& bucket : eh.buckets()) {
    if (bucket.empty()) {
      wire::Append<std::uint8_t>(&out, 0);
    } else if (IsExact(bucket)) {
      wire::Append<std::uint8_t>(&out, 2);
      wire::Append<std::uint64_t>(&out, bucket.count);
      for (const GkTuple& t : bucket.tuples) wire::Append<float>(&out, t.value);
    } else {
      wire::Append<std::uint8_t>(&out, 1);
      EXPECT_TRUE(SerializeSummary(ToGk(bucket), &out).ok());
    }
  }
  return out;
}

}  // namespace ref

constexpr double kDiffPhis[] = {1e-4, 0.01, 0.25, 0.5, 0.75, 0.99, 1.0};

/// The phis a differential check queries the histogram whose flattened
/// reference is `flat` at: kDiffPhis, plus one phi per rank 1..count while
/// count <= 2,000 and 256 evenly spaced ones above that.
std::vector<double> DiffPhis(const ref::Summary& flat) {
  std::vector<double> phis(std::begin(kDiffPhis), std::end(kDiffPhis));
  const std::uint64_t count = flat.count;
  const double n = static_cast<double>(count);
  if (count <= 2000) {
    // ceil(phi * count) == r with room for rounding either way.
    for (std::uint64_t r = 1; r <= count; ++r) {
      phis.push_back((static_cast<double>(r) - 0.5) / n);
    }
  } else {
    for (int k = 1; k <= 256; ++k) phis.push_back(k / 256.0);
  }
  return phis;
}

bool SameBits(float a, float b) {
  return std::bit_cast<std::uint32_t>(a) == std::bit_cast<std::uint32_t>(b);
}

::testing::AssertionResult SameSummary(const GkSummary& got, const ref::Summary& want) {
  if (got.count() != want.count || got.epsilon() != want.epsilon ||
      got.size() != want.tuples.size()) {
    return ::testing::AssertionFailure()
           << "count/epsilon/size " << got.count() << "/" << got.epsilon() << "/"
           << got.size() << " vs " << want.count << "/" << want.epsilon << "/"
           << want.tuples.size();
  }
  for (std::size_t i = 0; i < got.size(); ++i) {
    const GkTuple& a = got.tuples()[i];
    const GkTuple& b = want.tuples[i];
    if (!SameBits(a.value, b.value) || a.rmin != b.rmin || a.rmax != b.rmax) {
      return ::testing::AssertionFailure()
             << "tuple " << i << ": (" << a.value << "," << a.rmin << "," << a.rmax
             << ") vs (" << b.value << "," << b.rmin << "," << b.rmax << ")";
    }
  }
  return ::testing::AssertionSuccess();
}

/// Sorts a window in the backends' canonical bit-pattern order (-0.0 before
/// +0.0), as every sort backend hands windows over.
void SortCanonical(std::vector<float>* w) {
  std::sort(w->begin(), w->end(), [](float a, float b) {
    return OrderedKey(a) < OrderedKey(b);
  });
}

/// A copy of the bucket's summary, a run's implicit tuples built.
GkSummary BucketSummary(const EhBucket& bucket) {
  return bucket.run.empty() ? bucket.summary : GkSummary::Exact(bucket.run);
}

void ExpectSameHistogram(const EhQuantileSummary& eh, const ref::Eh& want) {
  ASSERT_EQ(eh.count(), want.count());
  EXPECT_EQ(eh.TotalTuples(), want.TotalTuples());
  EXPECT_EQ(eh.merged_tuples(), want.merged_tuples());
  EXPECT_EQ(eh.pruned_tuples(), want.pruned_tuples());
  ASSERT_EQ(eh.slots(), want.buckets().size());
  ASSERT_LE(eh.buckets().size(), eh.slots());
  const EhBucket vacant;
  for (std::size_t i = 0; i < want.buckets().size(); ++i) {
    const EhBucket& bucket = i < eh.buckets().size() ? eh.buckets()[i] : vacant;
    ASSERT_EQ(bucket.empty(), want.buckets()[i].empty()) << "bucket id " << i + 1;
    if (bucket.empty()) continue;
    // A bucket is a run exactly when its summary is exact.
    EXPECT_EQ(!bucket.run.empty(), BucketSummary(bucket).IsExact()) << "bucket id " << i + 1;
    EXPECT_EQ(bucket.count(), want.buckets()[i].count) << "bucket id " << i + 1;
    EXPECT_TRUE(SameSummary(BucketSummary(bucket), want.buckets()[i])) << "bucket id " << i + 1;
  }
  const ref::Summary flat = want.Flatten();
  EXPECT_TRUE(SameSummary(eh.Flatten(), flat));
  EXPECT_EQ(eh.MaxBucketEpsilon(), flat.epsilon);
  if (want.count() == 0) return;
  for (double phi : DiffPhis(flat)) {
    EXPECT_TRUE(SameBits(eh.Query(phi), ref::Query(flat, phi))) << "phi=" << phi;
  }
}

/// `restored`: the sketch was restored from a checkpoint, whose operation
/// counters restart at zero. `bytes`: compare the wire and checkpoint bytes.
void ExpectSameSketch(const QuantileSketch& sketch, const ref::Eh& want, bool restored) {
  ASSERT_EQ(sketch.count(), want.count());
  EXPECT_EQ(sketch.summary_size(), want.TotalTuples());
  if (!restored) {
    EXPECT_EQ(sketch.merged_tuples(), want.merged_tuples());
    EXPECT_EQ(sketch.pruned_tuples(), want.pruned_tuples());
  }
  std::vector<std::uint8_t> wire_bytes;
  ASSERT_TRUE(sketch.AppendWireSummary(&wire_bytes).ok());
  EXPECT_EQ(wire_bytes, ref::WireBytes(want));
  std::vector<std::uint8_t> state;
  ASSERT_TRUE(sketch.AppendCheckpointState(&state).ok());
  EXPECT_EQ(state, ref::CheckpointBytes(want));
  if (want.count() == 0) return;
  const ref::Summary flat = want.Flatten();
  for (double phi : DiffPhis(flat)) {
    EXPECT_TRUE(SameBits(sketch.Query(phi), ref::Query(flat, phi))) << "phi=" << phi;
  }
}

/// Feeds `stream`, cut into windows whose sizes cycle through
/// `window_sizes`, to the reference, to EhQuantileSummary through both entry
/// points, and to the GK QuantileSketch; the sketch is also checkpointed
/// after `restore_after` windows and a restored copy continues alongside.
/// Everything is compared after every window while at most 2,000 elements
/// are in, then every 97 windows and at the end. `expected_length` is the
/// histograms' N, 0 for the stream's length. Returns whether a run bucket
/// ever sat above a tuple bucket (Flatten's non-leading runs).
bool ExpectSameAsReference(double eps, const std::vector<std::size_t>& window_sizes,
                           const std::vector<float>& stream, std::size_t restore_after,
                           std::uint64_t expected_length = 0) {
  const std::uint64_t n = stream.size();
  const std::uint64_t window = window_sizes.front();
  const std::uint64_t big_n = expected_length == 0 ? n : expected_length;
  ref::Eh want(eps, window, big_n);
  EhQuantileSummary by_window(eps, window, big_n);
  EhQuantileSummary by_summary(eps, window, big_n);
  auto sketch = QuantileSketch::Create(QuantileSketchKind::kGk, eps, window, big_n);
  EXPECT_TRUE(sketch.ok());
  std::unique_ptr<QuantileSketch> restored;
  bool run_above_tuples = false;

  std::size_t windows = 0;
  for (std::size_t off = 0; off < stream.size(); ++windows) {
    const std::size_t len =
        std::min<std::size_t>(window_sizes[windows % window_sizes.size()], n - off);
    std::vector<float> w(stream.begin() + static_cast<std::ptrdiff_t>(off),
                         stream.begin() + static_cast<std::ptrdiff_t>(off + len));
    off += len;
    SortCanonical(&w);
    want.AddWindowSummary(ref::FromSorted(w, eps / 2.0));
    by_window.AddWindow(EhBucket::FromSorted(w, eps / 2.0));
    by_summary.AddWindowSummary(GkSummary::FromSorted(w, eps / 2.0));
    (*sketch)->AddSortedWindow(w, nullptr);
    if (restored != nullptr) restored->AddSortedWindow(w, nullptr);

    bool tuples_below = false;
    for (const EhBucket& bucket : by_window.buckets()) {
      if (!bucket.summary.empty()) tuples_below = true;
      if (!bucket.run.empty() && tuples_below) run_above_tuples = true;
    }
    if (windows + 1 == restore_after) {
      std::vector<std::uint8_t> state;
      EXPECT_TRUE((*sketch)->AppendCheckpointState(&state).ok());
      auto back = QuantileSketch::RestoreCheckpointState(QuantileSketchKind::kGk, eps,
                                                         window, big_n, state);
      EXPECT_TRUE(back.ok()) << back.status().ToString();
      if (back.ok()) restored = std::move(back).value();
    }
    if (want.count() <= 2000 || windows % 97 == 0 || off == stream.size()) {
      SCOPED_TRACE("after window " + std::to_string(windows));
      ExpectSameHistogram(by_window, want);
      ExpectSameHistogram(by_summary, want);
      ExpectSameSketch(**sketch, want, /*restored=*/false);
      if (restored != nullptr) ExpectSameSketch(*restored, want, /*restored=*/true);
    }
  }
  EXPECT_NE(restored, nullptr) << "the stream ended before the restore point";
  return run_above_tuples;
}

TEST(EhDifferential, DefaultWindowsWithPartialLastWindow) {
  // epsilon * w = 1: every window summary is exact. 1,049 full windows plus
  // a partial one.
  const std::vector<float> stream = RandomValues(1049 * 100 + 37, 201);
  ExpectSameAsReference(0.01, {100}, stream, 600);
}

TEST(EhDifferential, SampledWindows) {
  // w > 1/epsilon: sampling step 2, so the window summaries are not exact.
  // The partial last window (40 elements) is, and combines with a tuple
  // bucket.
  const std::vector<float> stream = RandomValues(251 * 250 + 40, 202);
  ExpectSameAsReference(0.01, {250}, stream, 120);
}

TEST(EhDifferential, MixedWindowSizes) {
  // Exact and sampled windows interleave, so combines mix runs with tuple
  // summaries and runs land above tuple buckets.
  const std::vector<float> stream = RandomValues(120000, 203);
  EXPECT_TRUE(ExpectSameAsReference(0.01, {100, 37, 250, 100, 180, 1, 60}, stream, 333));
}

TEST(EhDifferential, StreamPastExpectedLength) {
  // N = 2,000 provisions 6 levels; 1,500 windows reach bucket id 11, whose
  // budget exceeds epsilon.
  ASSERT_GT(std::bit_width(1500u), EhQuantileSummary(0.01, 100, 2000).levels());
  const std::vector<float> stream = RandomValues(1500 * 100, 209);
  ExpectSameAsReference(0.01, {100}, stream, 700, 2000);
}

TEST(EhDifferential, DuplicateHeavyZipf) {
  std::mt19937 rng(204);
  std::vector<double> weights(40);
  for (std::size_t k = 0; k < weights.size(); ++k) {
    weights[k] = 1.0 / std::pow(static_cast<double>(k + 1), 1.3);
  }
  std::discrete_distribution<int> zipf(weights.begin(), weights.end());
  std::vector<float> stream(90000);
  for (float& v : stream) v = static_cast<float>(zipf(rng));
  ExpectSameAsReference(0.01, {100}, stream, 450);
  ExpectSameAsReference(0.02, {50, 200}, stream, 150);
}

TEST(EhDifferential, SortedInput) {
  std::vector<float> stream(80000);
  for (std::size_t i = 0; i < stream.size(); ++i) stream[i] = static_cast<float>(i / 3);
  ExpectSameAsReference(0.01, {100}, stream, 400);
}

std::vector<float> DrawFrom(const std::vector<float>& pool, std::size_t n, unsigned seed) {
  std::mt19937 rng(seed);
  std::uniform_int_distribution<std::size_t> pick(0, pool.size() - 1);
  std::vector<float> out(n);
  for (float& v : out) v = pool[pick(rng)];
  return out;
}

TEST(EhDifferential, SignedZerosAndInfinities) {
  // -0.0 and +0.0 compare equal (a tie, resolved by the merge's tie rule)
  // but are different bits; queries search the bucket list, where a tie
  // between the zeros is decided by bucket id.
  const float inf = std::numeric_limits<float>::infinity();
  const std::vector<float> zeros =
      DrawFrom({-0.0f, 0.0f, 1.0f, -1.0f, inf, -inf, 2.5f}, 60000, 210);
  ExpectSameAsReference(0.01, {100}, zeros, 300);
  ExpectSameAsReference(0.01, {100, 250, 7}, zeros, 100);
}

TEST(EhDifferential, QueryMatchesReferenceOnAnyValidBuckets) {
  // A restored histogram's buckets need only pass FromParts, so their rank
  // bounds can be looser than the cascade ever builds: neighbouring tuples
  // can deviate equally from a rank, and the last tuple's rmin can sit below
  // the count, so that no tuple reaches 2*rank. Odd trials draw no positive
  // value, so the zeros tie at the top too.
  const std::vector<float> pools[] = {{-0.0f, 0.0f, -1.0f, 1.0f, 2.5f, 7.0f},
                                      {-0.0f, 0.0f, -1.0f, -2.5f}};
  std::mt19937 rng(211);
  for (int trial = 0; trial < 200; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    const std::vector<float>& pool = pools[trial % 2];
    std::vector<EhBucket> buckets(6);
    std::vector<ref::Summary> want;
    std::uint64_t count = 0;
    for (std::size_t id = 0; id < buckets.size(); ++id) {
      if (rng() % 3 == 0) continue;
      std::vector<float> values(1 + rng() % 40);
      for (float& v : values) v = pool[rng() % pool.size()];
      SortCanonical(&values);
      ref::Summary bucket;
      if (rng() % 2 == 0) {
        bucket = ref::FromSorted(values, 0.005);  // exact: a run
      } else {
        std::uint64_t rmin = 1;
        std::uint64_t rmax = 1;
        for (const float v : values) {
          rmin += rng() % 3;
          rmax = std::max(rmax, rmin) + rng() % 3;
          bucket.tuples.push_back({v, rmin, rmax});
        }
        bucket.count = rmax + rng() % 3;
        bucket.epsilon = 0.004;
      }
      buckets[id].summary = ref::ToGk(bucket);
      count += bucket.count;
      want.push_back(std::move(bucket));
    }
    if (count == 0) continue;
    EhQuantileSummary eh(0.01, 100, 1 << 20);
    ASSERT_TRUE(EhQuantileSummary::FromParts(0.01, 100, 1 << 20, count, buckets, &eh));
    ref::Summary flat;
    for (const ref::Summary& bucket : want) flat = ref::Merge(flat, bucket);
    for (std::uint64_t r = 1; r <= count; ++r) {
      const double phi = (static_cast<double>(r) - 0.5) / static_cast<double>(count);
      ASSERT_TRUE(SameBits(eh.Query(phi), ref::Query(flat, phi))) << "rank " << r;
    }
  }
}

::testing::AssertionResult SameBuckets(const EhQuantileSummary& got,
                                       const EhQuantileSummary& want) {
  if (got.count() != want.count() || got.slots() != want.slots() ||
      got.merged_tuples() != want.merged_tuples() ||
      got.pruned_tuples() != want.pruned_tuples()) {
    return ::testing::AssertionFailure()
           << "count/slots/merged/pruned " << got.count() << "/" << got.slots() << "/"
           << got.merged_tuples() << "/" << got.pruned_tuples() << " vs " << want.count()
           << "/" << want.slots() << "/" << want.merged_tuples() << "/"
           << want.pruned_tuples();
  }
  const EhBucket vacant;
  for (std::size_t i = 0; i < got.slots(); ++i) {
    const EhBucket& a = i < got.buckets().size() ? got.buckets()[i] : vacant;
    const EhBucket& b = i < want.buckets().size() ? want.buckets()[i] : vacant;
    const bool same_runs =
        a.run.size() == b.run.size() &&
        std::equal(a.run.begin(), a.run.end(), b.run.begin(), SameBits);
    const auto same_tuple = [](const GkTuple& x, const GkTuple& y) {
      return SameBits(x.value, y.value) && x.rmin == y.rmin && x.rmax == y.rmax;
    };
    const std::vector<GkTuple>& ta = a.summary.tuples();
    const std::vector<GkTuple>& tb = b.summary.tuples();
    const bool same_summaries = a.summary.count() == b.summary.count() &&
                                a.summary.epsilon() == b.summary.epsilon() &&
                                ta.size() == tb.size() &&
                                std::equal(ta.begin(), ta.end(), tb.begin(), same_tuple);
    if (!same_runs || !same_summaries) {
      return ::testing::AssertionFailure() << "bucket id " << i + 1 << " differs";
    }
  }
  return ::testing::AssertionSuccess();
}

TEST(EhDifferential, InsertedBlockEqualsWindowByWindowCascade) {
  // A sort worker merges an aligned block of 2^k sorted windows
  // (MergeBlock) and the drain inserts it at bucket id k+1 (AddBlock). With
  // ids 1..k vacant that must leave everything exactly as adding the
  // windows one by one through today's AddWindow does; with one of them
  // occupied the insert must be refused and change nothing. Prior window
  // counts are random, aligned and not, blocks hold 2..32 windows, and the
  // values are continuous, duplicate-heavy, or ±0 and infinities.
  const double eps = 0.01;
  const std::uint64_t window = 100;
  const std::uint64_t big_n = window << 32;  // a core's default provisioning
  ASSERT_EQ(EhQuantileSummary(eps, window, big_n).max_block_level(), 5);
  const float inf = std::numeric_limits<float>::infinity();
  const std::vector<float> signed_pool = {-0.0f, 0.0f, 1.0f, -1.0f, inf, -inf, 2.5f};
  std::mt19937 rng(212);
  for (int trial = 0; trial < 120; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    const int level = 1 + static_cast<int>(rng() % 5);
    const std::size_t block_windows = std::size_t{1} << level;
    std::size_t prior = rng() % 80;
    if (trial % 2 == 0) prior -= prior % block_windows;  // aligned half the time
    // Continuous, duplicate-heavy, or ±0 and infinities.
    const int kind = (trial / 2) % 3;
    std::vector<std::vector<float>> windows(prior + block_windows);
    for (std::vector<float>& w : windows) {
      w.resize(window);
      for (float& v : w) {
        if (kind == 0) {
          v = static_cast<float>(rng() % 1000000) / 7.0f;
        } else if (kind == 1) {
          v = static_cast<float>(rng() % 9);
        } else {
          v = signed_pool[rng() % signed_pool.size()];
        }
      }
      SortCanonical(&w);
    }

    EhQuantileSummary one(eps, window, big_n);
    EhQuantileSummary blocked(eps, window, big_n);
    ref::Eh want(eps, window, big_n);
    auto one_sketch = QuantileSketch::Create(QuantileSketchKind::kGk, eps, window, big_n);
    auto block_sketch = QuantileSketch::Create(QuantileSketchKind::kGk, eps, window, big_n);
    ASSERT_TRUE(one_sketch.ok() && block_sketch.ok());
    for (std::size_t i = 0; i < prior; ++i) {
      blocked.AddWindow(EhBucket::FromSorted(windows[i], eps / 2.0));
      (*block_sketch)->AddSortedWindow(windows[i], nullptr);
    }

    std::vector<float> joined;
    for (std::size_t i = prior; i < windows.size(); ++i) {
      joined.insert(joined.end(), windows[i].begin(), windows[i].end());
    }
    std::vector<float> scratch;
    std::vector<float> run;
    EhQuantileSummary::MergeBlock(joined, window, &scratch, &run);
    std::vector<float> sketch_run = run;
    const std::vector<float> built = run;
    const EhQuantileSummary before = blocked;
    const bool aligned = prior % block_windows == 0;
    ASSERT_EQ(blocked.AddBlock(run, level, 0.0), aligned);
    ASSERT_EQ((*block_sketch)->AddSortedBlock(sketch_run, level, 0.0, nullptr), aligned);
    if (!aligned) {
      // Refused: the histogram and the run are as they were.
      EXPECT_TRUE(SameBuckets(blocked, before));
      EXPECT_TRUE(std::equal(run.begin(), run.end(), built.begin(), built.end(), SameBits));
      for (std::size_t i = prior; i < windows.size(); ++i) {
        blocked.AddWindow(EhBucket::FromSorted(windows[i], eps / 2.0));
        (*block_sketch)->AddSortedWindow(windows[i], nullptr);
      }
    }
    for (std::size_t i = 0; i < windows.size(); ++i) {
      one.AddWindow(EhBucket::FromSorted(windows[i], eps / 2.0));
      want.AddWindowSummary(ref::FromSorted(windows[i], eps / 2.0));
      (*one_sketch)->AddSortedWindow(windows[i], nullptr);
    }

    EXPECT_TRUE(SameBuckets(blocked, one));
    ExpectSameHistogram(blocked, want);
    const GkSummary flat = blocked.Flatten();
    const GkSummary flat_one = one.Flatten();
    ASSERT_EQ(flat.size(), flat_one.size());
    for (std::size_t i = 0; i < flat.size(); ++i) {
      EXPECT_TRUE(SameBits(flat.tuples()[i].value, flat_one.tuples()[i].value));
      EXPECT_EQ(flat.tuples()[i].rmin, flat_one.tuples()[i].rmin);
      EXPECT_EQ(flat.tuples()[i].rmax, flat_one.tuples()[i].rmax);
    }
    // Every rank.
    const std::uint64_t n = one.count();
    std::vector<double> phis(std::begin(kDiffPhis), std::end(kDiffPhis));
    for (std::uint64_t r = 1; r <= n; ++r) {
      phis.push_back((static_cast<double>(r) - 0.5) / static_cast<double>(n));
    }
    for (const double phi : phis) {
      ASSERT_TRUE(SameBits(blocked.Query(phi), one.Query(phi))) << "phi " << phi;
    }
    std::vector<std::uint8_t> block_state;
    std::vector<std::uint8_t> one_state;
    ASSERT_TRUE((*block_sketch)->AppendCheckpointState(&block_state).ok());
    ASSERT_TRUE((*one_sketch)->AppendCheckpointState(&one_state).ok());
    EXPECT_EQ(block_state, one_state);
    EXPECT_EQ((*block_sketch)->merged_tuples(), (*one_sketch)->merged_tuples());
    EXPECT_EQ((*block_sketch)->pruned_tuples(), (*one_sketch)->pruned_tuples());
    // The tuple-only reference serializes the same cascade.
    EXPECT_EQ(one_state, ref::CheckpointBytes(want));
  }
}

TEST(GkDifferential, MergeAndPruneMatchReference) {
  // The two-pointer merge, the one-pass prune and the fused MergePruned
  // against the scanning merge and the binary-search prune, on continuous,
  // duplicate-heavy and NaN-bearing inputs.
  const float nan = std::numeric_limits<float>::quiet_NaN();
  std::mt19937 rng(206);
  for (int trial = 0; trial < 60; ++trial) {
    const int domain = trial % 3 == 0 ? 0 : (trial % 3 == 1 ? 7 : 300);
    std::vector<float> a = RandomValues(200 + 37 * static_cast<std::size_t>(trial), rng(), domain);
    std::vector<float> b = RandomValues(150 + 53 * static_cast<std::size_t>(trial), rng(), domain);
    if (trial % 5 == 0) {
      a[0] = nan;
      b[b.size() / 2] = -nan;
      b[1] = -0.0f;
      a[a.size() - 1] = 0.0f;
    }
    SortCanonical(&a);
    SortCanonical(&b);
    const double eps_a = trial % 2 == 0 ? 0.0001 : 0.01;
    const double eps_b = trial % 4 == 0 ? 0.0001 : 0.02;
    const ref::Summary ra = ref::FromSorted(a, eps_a);
    const ref::Summary rb = ref::FromSorted(b, eps_b);
    const GkSummary ga = GkSummary::FromSorted(a, eps_a);
    const GkSummary gb = GkSummary::FromSorted(b, eps_b);
    ASSERT_TRUE(SameSummary(ga, ra));
    const ref::Summary rm = ref::Merge(ra, rb);
    const GkSummary gm = GkSummary::Merge(ga, gb);
    ASSERT_TRUE(SameSummary(gm, rm)) << "trial " << trial;
    const ref::Summary rm_swapped = ref::Merge(rb, ra);
    ASSERT_TRUE(SameSummary(GkSummary::Merge(gb, ga), rm_swapped)) << "trial " << trial;
    // Every budget up to the summary's size: each targets a different rank
    // grid, which exercises the sweep's ties between neighbouring tuples.
    for (std::size_t budget = 1; budget <= gm.size(); budget += 1 + budget / 16) {
      const ref::Summary want = ref::Prune(rm, budget);
      ASSERT_TRUE(SameSummary(gm.Prune(budget), want))
          << "trial " << trial << " budget " << budget;
      ASSERT_TRUE(SameSummary(GkSummary::MergePruned(ga, gb, budget), want))
          << "trial " << trial << " budget " << budget;
      ASSERT_TRUE(SameSummary(GkSummary::MergePruned(gb, ga, budget),
                              ref::Prune(rm_swapped, budget)))
          << "trial " << trial << " budget " << budget;
      if (ga.IsExact() && ga.size() > budget + 1) {
        ASSERT_TRUE(SameSummary(GkSummary::PruneExact(a, budget), ref::Prune(ra, budget)))
            << "trial " << trial << " budget " << budget;
      }
      // An empty side leaves the other side's prune.
      ASSERT_TRUE(SameSummary(GkSummary::MergePruned(ga, GkSummary(), budget),
                              ref::Prune(ra, budget)))
          << "trial " << trial << " budget " << budget;
      ASSERT_TRUE(SameSummary(GkSummary::MergePruned(GkSummary(), gb, budget),
                              ref::Prune(rb, budget)))
          << "trial " << trial << " budget " << budget;
    }
    // A budget the merged summary is within prunes nothing.
    ASSERT_TRUE(SameSummary(GkSummary::MergePruned(ga, gb, gm.size()), rm)) << "trial " << trial;
  }
}

TEST(GkDifferential, PruneMatchesReferenceOnAnyValidSummary) {
  // FromParts accepts any nondecreasing rank bounds — a decoded shard or
  // checkpoint need not have the strictly increasing rmax that FromSorted,
  // Merge and Prune produce — so ties between neighbouring tuples' costs
  // must resolve as the binary search does.
  std::mt19937 rng(208);
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t size = 2 + rng() % 300;
    std::vector<GkTuple> tuples(size);
    std::uint64_t rmin = 1;
    std::uint64_t rmax = 1;
    for (std::size_t i = 0; i < size; ++i) {
      rmin += rng() % 3;
      rmax = std::max(rmax, rmin) + rng() % 3;
      tuples[i] = {static_cast<float>(i / 2), rmin, rmax};
    }
    const std::uint64_t count = rmax + rng() % 3;
    GkSummary got;
    ASSERT_TRUE(GkSummary::FromParts(tuples, count, 0.01, &got));
    const ref::Summary want{tuples, count, 0.01};
    for (std::size_t budget = 1; budget <= size; ++budget) {
      ASSERT_TRUE(SameSummary(got.Prune(budget), ref::Prune(want, budget)))
          << "trial " << trial << " budget " << budget;
    }
  }
}

/// Runs each Run()'s tasks on the caller and on two threads started for it,
/// every thread taking the next task no other has taken.
class ThreeThreadRunner final : public ForkJoin {
 public:
  std::size_t width() const override { return 3; }
  void Run(std::size_t tasks, const std::function<void(std::size_t)>& task) override {
    std::atomic<std::size_t> next{1};
    const auto take = [&] {
      for (std::size_t i = next++; i < tasks; i = next++) task(i);
    };
    std::jthread first(take);
    std::jthread second(take);
    task(0);
    take();
  }
};

/// A side of a sliced combine: `n` values of one class, sorted, summarized
/// and pruned to a random budget. Class 0 is continuous, 1 five distinct
/// values, 2 only -0.0 and +0.0, 3 continuous with infinities mixed in.
GkSummary SlicedCombineSide(std::size_t n, int value_class, std::mt19937& rng) {
  const float inf = std::numeric_limits<float>::infinity();
  std::vector<float> values(n);
  for (float& v : values) {
    switch (value_class) {
      case 0: v = static_cast<float>(rng() % 10000000) / 7.0f; break;
      case 1: v = static_cast<float>(rng() % 5); break;
      case 2: v = rng() % 2 == 0 ? -0.0f : 0.0f; break;
      default: v = rng() % 8 == 0 ? (rng() % 2 == 0 ? inf : -inf)
                                  : static_cast<float>(rng() % 1000) - 500.0f;
    }
  }
  SortCanonical(&values);
  const GkSummary exact = GkSummary::FromSorted(values, 1e-6);
  return n == 0 ? exact : exact.Prune(1 + rng() % n);
}

/// A side whose rank bounds repeat, as FromParts accepts them: runs of
/// neighbouring tuples share rmin + rmax, so cuts fall inside such runs.
GkSummary RepeatedBoundsSide(std::size_t n, std::mt19937& rng) {
  if (n == 0) return GkSummary();
  std::vector<GkTuple> tuples(n);
  std::uint64_t rmin = 1;
  std::uint64_t rmax = 1;
  for (std::size_t i = 0; i < n; ++i) {
    if (rng() % 4 == 0) {
      rmin += 1 + rng() % 3;
      rmax = std::max(rmax, rmin) + rng() % 3;
    }
    tuples[i] = {static_cast<float>(i / 3), rmin, rmax};
  }
  GkSummary out;
  EXPECT_TRUE(GkSummary::FromParts(tuples, rmax + rng() % 3, 0.01, &out));
  return out;
}

TEST(GkDifferential, SlicedMergePrunedMatchesOnePass) {
  // MergePruned cut into 2..8 co-ranked slices, run one after another and
  // on three threads, against the one pass and against the scanning merge
  // and binary-search prune, bit for bit, in both argument orders. Sides
  // hold 0..5,000 elements pruned to random budgets, combined at budgets
  // 1..2,500. The coverage counters check that some cuts leave a slice
  // without a target and that some fall inside a run of tuples with equal
  // rmin + rmax.
  ThreeThreadRunner runner;
  std::mt19937 rng(213);
  std::size_t empty_slices = 0;
  std::size_t cuts_in_equal_runs = 0;
  for (int trial = 0; trial < 400; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    const int value_class = trial % 5;
    const auto side = [&] {
      const std::size_t n = trial % 17 == 0 ? rng() % 3 : rng() % 5001;
      return value_class == 4 ? RepeatedBoundsSide(n, rng)
                              : SlicedCombineSide(n, value_class, rng);
    };
    const GkSummary a = side();
    const GkSummary b = side();
    // Budgets below the slice count leave slices without a target.
    const std::size_t budget = 1 + rng() % (trial % 6 == 0 ? 6 : 2500);
    for (const auto& [x, y] : {std::pair(&a, &b), std::pair(&b, &a)}) {
      const ref::Summary rx{x->tuples(), x->count(), x->epsilon()};
      const ref::Summary ry{y->tuples(), y->count(), y->epsilon()};
      const ref::Summary merged = ref::Merge(rx, ry);
      const ref::Summary want = ref::Prune(merged, budget);
      const GkSummary one = GkSummary::MergePruned(*x, *y, budget);
      ASSERT_TRUE(SameSummary(one, want)) << "budget " << budget;
      const std::size_t size = merged.tuples.size();
      for (std::size_t k = 2; k <= 8; ++k) {
        ASSERT_TRUE(SameSummary(GkSummary::MergePruned(*x, *y, budget, k), want))
            << "budget " << budget << ", " << k << " slices";
        ASSERT_TRUE(SameSummary(GkSummary::MergePruned(*x, *y, budget, k, &runner), want))
            << "budget " << budget << ", " << k << " slices on three threads";
        if (x->empty() || y->empty() || size <= budget + 1 || k > size) continue;
        // Slice q sweeps merged tuples [q * size / k, (q + 1) * size / k); a
        // target falls to the slice holding its first tuple with rmin + rmax
        // >= 2*rank.
        std::vector<std::size_t> targets(k, 0);
        for (std::size_t i = 0; i <= budget; ++i) {
          const auto rank = std::max<std::uint64_t>(
              1, static_cast<std::uint64_t>(std::llround(static_cast<double>(i) *
                                                         static_cast<double>(merged.count) /
                                                         static_cast<double>(budget))));
          const auto crossing = static_cast<std::size_t>(
              std::partition_point(merged.tuples.begin(), merged.tuples.end(),
                                   [rank](const GkTuple& t) {
                                     return t.rmin + t.rmax < 2 * rank;
                                   }) -
              merged.tuples.begin());
          std::size_t q = k - 1;
          while (q * size / k > crossing) --q;
          ++targets[q];
        }
        for (std::size_t q = 0; q < k; ++q) {
          if (targets[q] == 0) ++empty_slices;
          const std::size_t p = q * size / k;
          const GkTuple& before = merged.tuples[p - (q > 0 ? 1 : 0)];
          const GkTuple& at = merged.tuples[p];
          if (q > 0 && before.rmin + before.rmax == at.rmin + at.rmax) ++cuts_in_equal_runs;
        }
      }
    }
  }
  EXPECT_GT(empty_slices, 0u);
  EXPECT_GT(cuts_in_equal_runs, 0u);
}

TEST(EhDifferential, SlicedCombinesLeaveTheCascadeUnchanged) {
  // 2^19 elements at epsilon 1e-3 in 1,000-element windows: combines above
  // the first prune (two 35,001-tuple summaries) fire at windows 128, 256,
  // 384 and 512, in chains of up to three. Fed window by window and as
  // aligned 32-window blocks, each with a three-thread runner and with
  // none, every histogram must hold the same buckets and counters.
  constexpr double kEps = 0.001;
  constexpr std::uint64_t kWindow = 1000;
  constexpr std::uint64_t kBigN = kWindow << 32;  // a core's default provisioning
  const std::vector<float> stream = RandomValues(std::size_t{1} << 19, 214);
  ThreeThreadRunner runner;
  EhQuantileSummary by_window(kEps, kWindow, kBigN);
  EhQuantileSummary by_window_sliced(kEps, kWindow, kBigN);
  EhQuantileSummary by_block(kEps, kWindow, kBigN);
  EhQuantileSummary by_block_sliced(kEps, kWindow, kBigN);
  ASSERT_EQ(by_block.max_block_level(), 5);
  ASSERT_GT(2 * (by_block.prune_tuples() + 1), kMinSlicedGkMerge);
  std::vector<std::vector<float>> windows;
  for (std::size_t off = 0; off < stream.size(); off += kWindow) {
    const std::size_t end = std::min<std::size_t>(stream.size(), off + kWindow);
    windows.emplace_back(stream.begin() + static_cast<std::ptrdiff_t>(off),
                         stream.begin() + static_cast<std::ptrdiff_t>(end));
    SortCanonical(&windows.back());
  }
  for (const std::vector<float>& w : windows) {
    by_window.AddWindow(EhBucket::FromSorted(w, kEps / 2.0));
    by_window_sliced.AddWindow(EhBucket::FromSorted(w, kEps / 2.0), &runner);
  }
  constexpr std::size_t kBlock = 32;
  std::vector<float> scratch;
  std::size_t first = 0;
  // Blocks never take the partial last window.
  for (; first + kBlock < windows.size(); first += kBlock) {
    std::vector<float> joined;
    for (std::size_t i = first; i < first + kBlock; ++i) {
      joined.insert(joined.end(), windows[i].begin(), windows[i].end());
    }
    std::vector<float> run;
    EhQuantileSummary::MergeBlock(joined, kWindow, &scratch, &run);
    std::vector<float> run_copy = run;
    ASSERT_TRUE(by_block.AddBlock(run, 5, 0.0));
    ASSERT_TRUE(by_block_sliced.AddBlock(run_copy, 5, 0.0, &runner));
  }
  for (; first < windows.size(); ++first) {
    by_block.AddWindow(EhBucket::FromSorted(windows[first], kEps / 2.0));
    by_block_sliced.AddWindow(EhBucket::FromSorted(windows[first], kEps / 2.0), &runner);
  }
  ASSERT_EQ(by_window.count(), stream.size());
  EXPECT_TRUE(SameBuckets(by_window_sliced, by_window));
  EXPECT_TRUE(SameBuckets(by_block, by_window));
  EXPECT_TRUE(SameBuckets(by_block_sliced, by_window));
  // The stream reached bucket id 10: three sliced combines in a row at
  // window 512.
  EXPECT_GE(by_window.buckets().size(), 10u);
}

}  // namespace
}  // namespace streamgpu::sketch
