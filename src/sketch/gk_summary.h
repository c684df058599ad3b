// Greenwald-Khanna epsilon-approximate quantile summaries [21], in the
// sensor-network formulation §5.2 builds on: a summary is a sorted list of
// (value, rmin, rmax) tuples built from a sorted window by rank sampling,
// and summaries support the classic MERGE (union with rank recombination)
// and PRUNE (requery at B+1 evenly spaced ranks, adding 1/(2B) error)
// operations. Both are single linear passes over the tuples, and a merge
// followed by a prune is one pass (MergePruned).

#ifndef STREAMGPU_SKETCH_GK_SUMMARY_H_
#define STREAMGPU_SKETCH_GK_SUMMARY_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/fork_join.h"

namespace streamgpu::sketch {

/// Merges of fewer tuples than this are combined in one slice whatever
/// threads a runner offers (EhQuantileSummary's combines): below it, waking
/// other threads for the slices costs more than they save. Streaming 2^20
/// values through a 2-worker estimator on a 4-vCPU VM, slicing over 3
/// threads changed ingest by about -12 % where each combine merged 1,402
/// tuples (epsilon 0.05), by nothing measurable at 3,502 (0.02), and by
/// +20 % and +35 % at 7,002 (0.01) and 14,002 (0.005).
inline constexpr std::size_t kMinSlicedGkMerge = 4096;

/// One summary tuple: an observed value together with lower/upper bounds on
/// its rank (1-based) among the elements the summary covers.
struct GkTuple {
  float value = 0;
  std::uint64_t rmin = 0;
  std::uint64_t rmax = 0;

  friend bool operator==(const GkTuple&, const GkTuple&) = default;
};

/// An epsilon-approximate quantile summary of `count()` elements: for any
/// rank r there is a tuple whose true rank is within epsilon()*count() of r.
class GkSummary {
 public:
  GkSummary() = default;

  /// Builds a summary from an ascending-sorted window by sampling every
  /// max(1, floor(2*target_epsilon*w))-th rank plus the extremes — the
  /// paper's "choosing the elements of rank 1, eps*S, 2*eps*S, ..., S"
  /// (§5.2). The result's epsilon() is <= target_epsilon.
  static GkSummary FromSorted(std::span<const float> sorted_window,
                              double target_epsilon);

  /// FromSorted's rank-sampling step for a w-element window. At step 1 the
  /// summary is exact: see Exact().
  static std::uint64_t SamplingStep(std::uint64_t w, double target_epsilon);

  /// The exact summary of an ascending-sorted run: tuple i is
  /// (sorted[i], i+1, i+1) and epsilon() is 0 — FromSorted at step 1.
  static GkSummary Exact(std::span<const float> sorted);

  /// Exact(sorted).Prune(max_tuples) for a run longer than max_tuples + 1,
  /// without building the run's tuples: on exact ranks the tuple closest to
  /// rank r is element r - 1.
  static GkSummary PruneExact(std::span<const float> sorted, std::size_t max_tuples);

  /// Reconstructs a summary from its components (deserialization path).
  /// Validates the structural invariants — values ascending, rmin <= rmax,
  /// rmin/rmax nondecreasing and within [1, count] — and returns false on
  /// violation, leaving `out` untouched.
  static bool FromParts(std::vector<GkTuple> tuples, std::uint64_t count,
                        double epsilon, GkSummary* out);

  /// Combines two summaries covering disjoint element sets. The union of
  /// tuples is kept with recombined rank bounds; the result is
  /// max(a.epsilon(), b.epsilon())-approximate for a.count() + b.count()
  /// elements ([21]'s merge). On equal values every tuple of `a` precedes
  /// those of `b`. The merge of two exact summaries is exact.
  static GkSummary Merge(const GkSummary& a, const GkSummary& b);

  /// Reduces the summary to at most max_tuples + 1 tuples by querying it at
  /// ranks i*count()/max_tuples, i = 0..max_tuples, at the price of
  /// 1/(2*max_tuples) additional error ([21]'s prune; §5.2's compress). A
  /// summary already within the budget is returned unchanged — moved, not
  /// copied, from an rvalue.
  GkSummary Prune(std::size_t max_tuples) const&;
  GkSummary Prune(std::size_t max_tuples) &&;

  /// Merge(a, b).Prune(max_tuples), bit for bit, in one pass: the prune's
  /// sweep reads the merged tuples as the merge makes them, and the merged
  /// summary is never built. The exponential histogram's combines and
  /// obs::StreamingSummary's carries use it.
  ///
  /// `slices` > 1 cuts the merged order into that many co-ranked slices
  /// (at most one per merged tuple), each sweeping its own share of the
  /// prune's targets into the result; `runner` runs them at once (null: one
  /// after another on the caller). The result is the same bit for bit
  /// whenever no value is NaN (docs/ALGORITHMS.md, "Sliced combines").
  static GkSummary MergePruned(const GkSummary& a, const GkSummary& b,
                               std::size_t max_tuples, std::size_t slices = 1,
                               ForkJoin* runner = nullptr);

  /// Value whose rank is within epsilon()*count() of ceil(phi * count()),
  /// phi in (0, 1].
  float Query(double phi) const;

  /// Value whose rank is within epsilon()*count() of `rank` (1-based).
  float QueryRank(std::uint64_t rank) const;

  /// The rank Query(phi) answers over `count` elements: max(1,
  /// ceil(phi * count)).
  static std::uint64_t RankForPhi(double phi, std::uint64_t count);

  /// Worst-case distance between `rank` and the true rank of `t`:
  /// max(|rank - rmin|, |rmax - rank|). A query answers with the first tuple
  /// with rmin + rmax >= 2*rank (the last tuple when there is none), or with
  /// its predecessor when that one's deviation is strictly smaller.
  static std::uint64_t RankDeviation(const GkTuple& t, std::uint64_t rank);

  /// Number of stream elements this summary covers.
  std::uint64_t count() const { return count_; }

  /// Rank-error bound as a fraction of count().
  double epsilon() const { return epsilon_; }

  std::size_t size() const { return tuples_.size(); }
  bool empty() const { return tuples_.empty(); }
  const std::vector<GkTuple>& tuples() const { return tuples_; }

  /// True when this is Exact() of its values: epsilon 0 and tuple i is
  /// (v, i+1, i+1) for every i.
  bool IsExact() const;

 private:
  /// Index of the tuple minimizing the worst-case rank deviation from
  /// `rank`.
  std::size_t BestTupleForRank(std::uint64_t rank) const;

  /// BestTupleForRank given `first`, the first tuple with
  /// rmin + rmax >= 2*rank (size() when there is none).
  std::size_t BestTupleNear(std::size_t first, std::uint64_t rank) const;

  /// Prune for a summary over the budget.
  GkSummary Pruned(std::size_t max_tuples) const;

  std::vector<GkTuple> tuples_;  ///< ascending by value
  std::uint64_t count_ = 0;
  double epsilon_ = 0;
};

}  // namespace streamgpu::sketch

#endif  // STREAMGPU_SKETCH_GK_SUMMARY_H_
