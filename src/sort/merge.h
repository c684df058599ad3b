// CPU-side merging of sorted runs.
//
// The GPU PBSN sort returns four independently sorted channel runs; "a merge
// operation is performed in software. The merge routine performs O(n)
// comparisons and is very efficient" (§4.4).
//
// TwoWayMerge is the float-run merge the quantile summaries share
// (common/run_merge.h): four co-ranked slices advanced by one branchless
// loop. KWayMerge replays a loser tree, so each output costs ceil(log2 k)
// comparisons instead of the k-1 head comparisons of the naive scan (kept
// as KWayMergeHeadScan for reference and count-invariant tests). Every
// routine returns the number of key comparisons of its reference loop;
// TwoWayMerge/FourWayMerge counts are unchanged from the seed implementation
// (one comparison per output while both runs are non-empty), which
// TwoWayMerge states in closed form from the two runs' last elements, so the
// comparison totals reported by the PBSN sorter are bit-identical.

#ifndef STREAMGPU_SORT_MERGE_H_
#define STREAMGPU_SORT_MERGE_H_

#include <array>
#include <cstdint>
#include <span>
#include <vector>

namespace streamgpu::sort {

/// Merges two sorted runs into `out` (out.size() == a.size() + b.size()).
/// Stable toward `a` on ties. Returns the comparisons a one-slice merge
/// makes: 0 when a run is empty, else a.size() plus b's elements below
/// a.back() when a.back() <= b.back(), else b.size() plus a's elements at or
/// below b.back().
std::uint64_t TwoWayMerge(std::span<const float> a, std::span<const float> b,
                          std::span<float> out);

/// Merges four sorted runs into `out` via two levels of binary merges (the
/// structure the paper's CPU merge uses: O(n) comparisons total).
/// Returns the number of comparisons performed.
std::uint64_t FourWayMerge(const std::array<std::span<const float>, 4>& runs,
                           std::span<float> out);

/// As above, but staging the two first-level merges in `*scratch` (resized
/// to out.size(); capacity is reused across calls — the allocation-free path
/// the steady-state sort loop uses).
std::uint64_t FourWayMerge(const std::array<std::span<const float>, 4>& runs,
                           std::span<float> out, std::vector<float>* scratch);

/// Merges k sorted runs into `out` with a loser tree: ceil(log2 k)
/// comparisons per output element. Stable toward lower run indices on ties.
/// Returns the number of comparisons performed.
std::uint64_t KWayMerge(std::span<const std::span<const float>> runs, std::span<float> out);

/// Reference k-way merge scanning all run heads per output (the seed
/// implementation): k-1 comparisons per output. Kept for comparison-count
/// invariants and differential tests against the loser tree.
std::uint64_t KWayMergeHeadScan(std::span<const std::span<const float>> runs,
                                std::span<float> out);

}  // namespace streamgpu::sort

#endif  // STREAMGPU_SORT_MERGE_H_
