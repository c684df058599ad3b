#include "sort/merge.h"

#include <algorithm>
#include <cstddef>

#include "common/check.h"
#include "common/run_merge.h"

namespace streamgpu::sort {

std::uint64_t TwoWayMerge(std::span<const float> a, std::span<const float> b,
                          std::span<float> out) {
  STREAMGPU_CHECK(out.size() == a.size() + b.size());
  MergeRuns(a, b, out.data());
  if (a.empty() || b.empty()) return 0;
  // A one-slice merge compares once per output until a side runs out. When
  // a.back() <= b.back() that is a: all of it, plus the b elements below
  // a.back(). Otherwise b runs out after all of it plus the a elements at
  // or below b.back().
  if (a.back() <= b.back()) {
    return a.size() + static_cast<std::uint64_t>(
                          std::lower_bound(b.begin(), b.end(), a.back()) - b.begin());
  }
  return b.size() + static_cast<std::uint64_t>(
                        std::upper_bound(a.begin(), a.end(), b.back()) - a.begin());
}

std::uint64_t FourWayMerge(const std::array<std::span<const float>, 4>& runs,
                           std::span<float> out) {
  std::vector<float> scratch;
  return FourWayMerge(runs, out, &scratch);
}

std::uint64_t FourWayMerge(const std::array<std::span<const float>, 4>& runs,
                           std::span<float> out, std::vector<float>* scratch) {
  const std::size_t n01 = runs[0].size() + runs[1].size();
  const std::size_t n23 = runs[2].size() + runs[3].size();
  STREAMGPU_CHECK(out.size() == n01 + n23);
  scratch->resize(n01 + n23);
  const std::span<float> lo(scratch->data(), n01);
  const std::span<float> hi(scratch->data() + n01, n23);
  std::uint64_t comparisons = 0;
  comparisons += TwoWayMerge(runs[0], runs[1], lo);
  comparisons += TwoWayMerge(runs[2], runs[3], hi);
  comparisons += TwoWayMerge(lo, hi, out);
  return comparisons;
}

namespace {

// Sentinel leaf index for padded / not-yet-inserted loser-tree slots.
constexpr std::size_t kNoRun = static_cast<std::size_t>(-1);

}  // namespace

std::uint64_t KWayMerge(std::span<const std::span<const float>> runs, std::span<float> out) {
  std::size_t total = 0;
  for (const auto& r : runs) total += r.size();
  STREAMGPU_CHECK(out.size() == total);

  const std::size_t k = runs.size();
  if (k == 0) return 0;
  if (k == 1) {
    std::copy(runs[0].begin(), runs[0].end(), out.begin());
    return 0;
  }

  std::uint64_t comparisons = 0;
  std::vector<std::size_t> pos(k, 0);

  // Returns true when run `a`'s head should be output before run `b`'s.
  // Exhausted (or padded) runs lose every match; ties go to the lower run
  // index, which makes the merge stable and matches the head-scan's order.
  // Only real key comparisons are counted.
  const auto beats = [&](std::size_t a, std::size_t b) {
    const bool b_live = b != kNoRun && pos[b] < runs[b].size();
    if (!b_live) return true;
    const bool a_live = a != kNoRun && pos[a] < runs[a].size();
    if (!a_live) return false;
    ++comparisons;
    const float av = runs[a][pos[a]];
    const float bv = runs[b][pos[b]];
    if (av < bv) return true;
    if (bv < av) return false;
    return a < b;
  };

  // Loser tree over L = 2^ceil(log2 k) leaves: node[1..L-1] hold match
  // losers, the overall winner is kept aside. Each output replays one
  // leaf-to-root path — ceil(log2 k) comparisons — instead of scanning all
  // k heads.
  std::size_t leaves = 1;
  while (leaves < k) leaves <<= 1;
  std::vector<std::size_t> node(leaves, kNoRun);

  // Bottom-up build: play every first-round-to-final match once, parking the
  // loser at the node where the match happened and promoting the winner.
  std::vector<std::size_t> promoted(2 * leaves, kNoRun);
  for (std::size_t r = 0; r < k; ++r) promoted[leaves + r] = r;
  for (std::size_t i = leaves - 1; i >= 1; --i) {
    const std::size_t a = promoted[2 * i];
    const std::size_t b = promoted[2 * i + 1];
    if (beats(a, b)) {
      promoted[i] = a;
      node[i] = b;
    } else {
      promoted[i] = b;
      node[i] = a;
    }
  }
  std::size_t winner = promoted[1];

  for (std::size_t o = 0; o < total; ++o) {
    STREAMGPU_CHECK(winner != kNoRun && pos[winner] < runs[winner].size());
    out[o] = runs[winner][pos[winner]++];
    std::size_t contender = winner;
    for (std::size_t i = (leaves + winner) >> 1; i >= 1; i >>= 1) {
      if (beats(node[i], contender)) std::swap(node[i], contender);
    }
    winner = contender;
  }
  return comparisons;
}

std::uint64_t KWayMergeHeadScan(std::span<const std::span<const float>> runs,
                                std::span<float> out) {
  std::size_t total = 0;
  for (const auto& r : runs) total += r.size();
  STREAMGPU_CHECK(out.size() == total);

  std::vector<std::size_t> pos(runs.size(), 0);
  std::uint64_t comparisons = 0;
  for (std::size_t k = 0; k < total; ++k) {
    int best = -1;
    for (std::size_t r = 0; r < runs.size(); ++r) {
      if (pos[r] >= runs[r].size()) continue;
      if (best < 0) {
        best = static_cast<int>(r);
        continue;
      }
      ++comparisons;
      if (runs[r][pos[r]] < runs[best][pos[best]]) best = static_cast<int>(r);
    }
    STREAMGPU_CHECK(best >= 0);
    out[k] = runs[best][pos[best]++];
  }
  return comparisons;
}

}  // namespace streamgpu::sort
