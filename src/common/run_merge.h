// The merge of two ascending float runs that the sort backends and the
// quantile summaries share: sort::TwoWayMerge (PBSN's software merge, §4.4)
// and the exponential histogram's run merges (sketch/exponential_histogram).
//
// Ties take a's value first: a's element goes out when a <= b, the order
// GkSummary::Merge gives equal values, which also keeps -0.0 and +0.0 in
// run order. A merge is one compare-and-advance chain: each step's loads
// wait on the previous step's pointer update. Merge-path partitioning cuts
// the output at kMergeSlices - 1 evenly spaced positions and finds, by
// binary search under the same tie rule, how many of a's elements precede
// each cut (its co-rank). The slices are then independent merges, and one
// loop advances all of them so that one core overlaps their chains. On runs
// without NaN, which has no place in an ascending run, the output is bit for
// bit the one-slice merge's.

#ifndef STREAMGPU_COMMON_RUN_MERGE_H_
#define STREAMGPU_COMMON_RUN_MERGE_H_

#include <algorithm>
#include <array>
#include <cstddef>
#include <functional>
#include <limits>
#include <span>

namespace streamgpu {

/// Slices one merge is cut into. Merging 2x1,000 to 2x524,288 random floats
/// on a 4-vCPU Xeon VM took 4.8-5.5 ns per element in one slice, 2.5-2.6 in
/// 2, 1.4-2.2 in 4 and 1.1-2.5 in 8, which doubles the co-rank searches.
inline constexpr std::size_t kMergeSlices = 4;

/// Merges of fewer outputs run as one slice: below about 48 the co-rank
/// searches cost more than the overlap saves.
inline constexpr std::size_t kMinSlicedMerge = 48;

/// One merge step: writes the smaller head, a's on a tie, and advances past
/// it. The selection compiles to conditional moves, so random runs cost no
/// branch mispredictions.
inline void MergeStep(const float*& a, const float*& b, float*& out) {
  const float x = *a;
  const float y = *b;
  const bool take_a = x <= y;
  *out++ = take_a ? x : y;
  a += take_a ? 1 : 0;
  b += take_a ? 0 : 1;
}

/// Merges [a, a_end) and [b, b_end) into `out` one step at a time.
inline void MergeOneSlice(const float* a, const float* a_end, const float* b,
                          const float* b_end, float* out) {
  while (a < a_end && b < b_end) MergeStep(a, b, out);
  out = std::copy(a, a_end, out);
  std::copy(b, b_end, out);
}

/// The number of a's elements among the first k outputs of merging a and b,
/// searched in [lo, hi]. a[m] goes out before b[k - m - 1] exactly when
/// key(a[m]) <= key(b[k - m - 1]), and then more than m of a's elements
/// precede the cut. Requires max(0, k - b.size()) <= lo <= hi <= min(k,
/// a.size()). `key` orders elements that are not floats themselves (a GK
/// summary's tuples merge by value, sketch/gk_summary.cc).
template <typename T, typename Key = std::identity>
inline std::size_t MergeCoRank(std::span<const T> a, std::span<const T> b, std::size_t k,
                               std::size_t lo, std::size_t hi, Key key = {}) {
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (std::invoke(key, a[mid]) <= std::invoke(key, b[k - mid - 1])) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

/// Merges the ascending runs `a` and `b` into out[0, a.size() + b.size()).
inline void MergeRuns(std::span<const float> a, std::span<const float> b, float* out) {
  const std::size_t n = a.size() + b.size();
  if (n < kMinSlicedMerge || a.empty() || b.empty()) {
    MergeOneSlice(a.data(), a.data() + a.size(), b.data(), b.data() + b.size(), out);
    return;
  }
  struct Slice {
    const float* a;
    const float* a_end;
    const float* b;
    const float* b_end;
    float* out;
  };
  std::array<Slice, kMergeSlices> slices;
  // Each cut is searched between the previous cut and the ends, so the
  // slices tile both runs even if the values are not ordered.
  std::size_t i = 0;
  std::size_t j = 0;
  for (std::size_t s = 0; s < kMergeSlices; ++s) {
    const std::size_t k = n * (s + 1) / kMergeSlices;
    const std::size_t lo = std::max(i, k > b.size() ? k - b.size() : 0);
    const std::size_t i_end =
        s + 1 == kMergeSlices ? a.size() : MergeCoRank(a, b, k, lo, std::min(a.size(), k - j));
    slices[s] = {a.data() + i, a.data() + i_end, b.data() + j, b.data() + (k - i_end),
                 out + i + j};
    i = i_end;
    j = k - i_end;
  }
  // Every slice steps once per iteration. A slice with m elements left on
  // each side can step m times without exhausting either, so each round
  // runs the fewest any slice can; the first slice to exhaust a side ends
  // the rounds.
  for (;;) {
    std::size_t steps = std::numeric_limits<std::size_t>::max();
    for (const Slice& s : slices) {
      steps = std::min({steps, static_cast<std::size_t>(s.a_end - s.a),
                        static_cast<std::size_t>(s.b_end - s.b)});
    }
    if (steps == 0) break;
    for (std::size_t t = 0; t < steps; ++t) {
      for (Slice& s : slices) MergeStep(s.a, s.b, s.out);
    }
  }
  for (const Slice& s : slices) MergeOneSlice(s.a, s.a_end, s.b, s.b_end, s.out);
}

}  // namespace streamgpu

#endif  // STREAMGPU_COMMON_RUN_MERGE_H_
