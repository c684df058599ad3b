// The exponential histogram of quantile summaries from §5.2: the stream
// model extension of the Greenwald-Khanna sensor-network algorithm.
//
// "The exponential histogram has log N buckets and each bucket is associated
// with a bucket id. ... If the bucket id is b, the error is set to
// eps/2 + eps*b/(2*(log N + 1)). ... we compute an eps/2-approximate summary
// for each new window ... assign it a bucket id of one ... If there are two
// buckets with the same bucket id, we combine the two into one larger bucket
// and increment their bucket id by one. The combine operation involves a
// merge and prune operation performed using an error parameter for
// (bucket id + 1)."

#ifndef STREAMGPU_SKETCH_EXPONENTIAL_HISTOGRAM_H_
#define STREAMGPU_SKETCH_EXPONENTIAL_HISTOGRAM_H_

#include <cstdint>
#include <span>
#include <vector>

#include "sketch/gk_summary.h"

namespace streamgpu::sketch {

/// One exponential-histogram bucket. An exact bucket — GkSummary::Exact of
/// its values, as every window summary and every combine below the first
/// prune is at the default window size — keeps only its ascending values in
/// `run`, 4 bytes per element instead of a 24-byte GkTuple, with tuple i
/// implicitly (run[i], i+1, i+1). Every other bucket keeps its `summary`.
/// At most one of the two is non-empty.
struct EhBucket {
  std::vector<float> run;
  GkSummary summary;

  /// The (target_epsilon)-approximate summary of an ascending-sorted window:
  /// GkSummary::FromSorted, kept as a run when its sampling step is 1.
  static EhBucket FromSorted(std::span<const float> sorted_window,
                             double target_epsilon);

  /// `summary`, kept as a run when it is exact (GkSummary::IsExact).
  static EhBucket FromSummary(GkSummary summary);

  bool empty() const { return run.empty() && summary.empty(); }
  std::uint64_t count() const { return run.empty() ? summary.count() : run.size(); }
  /// Tuples of the bucket's summary, implicit ones included.
  std::size_t size() const { return run.empty() ? summary.size() : run.size(); }
  double epsilon() const { return run.empty() ? summary.epsilon() : 0.0; }
};

/// Whole-stream epsilon-approximate quantile summary maintained as an
/// exponential histogram of GK summaries. The stream length N is known a
/// priori (§5.2: "Given a large data stream of size N, where N is known"),
/// fixing the number of levels and hence each level's error budget.
class EhQuantileSummary {
 public:
  /// `epsilon` in (0, 1); `window_size` is the elements per incoming window;
  /// `expected_length` the a-priori stream length N.
  EhQuantileSummary(double epsilon, std::uint64_t window_size,
                    std::uint64_t expected_length);

  /// Inserts the summary of one new window at bucket id 1 and performs the
  /// combine cascade. `window` must be (epsilon/2)-approximate (e.g.
  /// EhBucket::FromSorted(sorted_window, epsilon/2)). `runner` lends the
  /// cascade threads: a combine of two tuple buckets that merges at least
  /// kMinSlicedGkMerge tuples is cut into runner->width() co-ranked slices
  /// that it runs (GkSummary::MergePruned). Null, the default, combines in
  /// one slice. The buckets and counters do not depend on it.
  void AddWindow(EhBucket window, ForkJoin* runner = nullptr);

  /// AddWindow(EhBucket::FromSummary(window_summary)).
  void AddWindowSummary(GkSummary window_summary);

  /// The deepest block AddBlock takes: the largest k for which 2^k windows
  /// of the configured size, each an exact run (sampling step 1 at
  /// epsilon/2), merge into a run no combine prunes (2^k * window_size <=
  /// prune_tuples() + 1). 0 when such a window is not a run.
  int max_block_level() const;

  /// Merges the 2^k sorted `window_size`-element windows laid out in
  /// `windows` (stream order) into `out`, bottom up: window pairs, then
  /// pairs of pairs, each merge taking the newer run's value first on ties.
  /// These are the run merges (common/run_merge.h) that adding the windows
  /// one by one to a histogram whose ids 1..k are vacant makes. `scratch` is
  /// reused between levels. Safe to call from any thread.
  static void MergeBlock(std::span<const float> windows, std::size_t window_size,
                         std::vector<float>* scratch, std::vector<float>* out);

  /// Inserts `run`, a MergeBlock result over 2^level windows of at most
  /// max_block_level() levels, at bucket id level+1 and carries on from
  /// there, when ids 1..level are vacant: the state in which adding those
  /// windows one by one makes the same combines. Counts the block's own
  /// combines (level tuples per element, merged and pruned) and adds
  /// `merge_seconds`, the time MergeBlock took. Otherwise returns false and
  /// changes nothing, `run` included. `runner` is AddWindow's.
  bool AddBlock(std::vector<float>& run, int level, double merge_seconds,
                ForkJoin* runner = nullptr);

  /// Reconstructs a summary from checkpointed parts (the durability restore
  /// path, docs/DURABILITY.md). `buckets` lists slots() slots: index i
  /// holds bucket id i+1, empty() = vacant; each run must be ascending. The
  /// configuration arguments must match the original constructor call.
  /// Validates that the bucket counts sum to `count`, that the bucket list
  /// stays within a sane cascade depth and that every bucket's epsilon is
  /// within its id's LevelBudget; returns false on violation, leaving `out`
  /// untouched. A summary bucket that is exact is stored as a run.
  static bool FromParts(double epsilon, std::uint64_t window_size,
                        std::uint64_t expected_length, std::uint64_t count,
                        std::vector<EhBucket> buckets, EhQuantileSummary* out);

  /// The phi-quantile over everything inserted so far: bit for bit
  /// Flatten().Query(phi), found in the bucket list without building the
  /// merge and without allocating. A tuple's rank bounds in Flatten() are
  /// its own plus, from every other bucket, the rmin of that bucket's last
  /// tuple before it and the rmax - 1 of its first tuple after it (its count
  /// when there is none), so Flatten().Query's binary search splits into
  /// binary searches inside each bucket. The values hold no NaN (the
  /// estimators refuse it at admission, the decoders in a snapshot), so
  /// every bucket is in value order.
  float Query(double phi) const;

  /// One GkSummary over everything inserted: the buckets merged in id order
  /// (GkSummary::Merge(flat, bucket)), epsilon MaxBucketEpsilon(). The
  /// mergeable export (sketch/quantile_sketch.cc) serializes it.
  GkSummary Flatten() const;

  /// Flatten().epsilon() without flattening: the largest bucket epsilon.
  /// Every bucket id up to levels() is within LevelBudget(levels()) <
  /// epsilon; once count() passes the provisioned N, higher ids exceed
  /// epsilon.
  double MaxBucketEpsilon() const;

  /// Elements covered so far.
  std::uint64_t count() const { return count_; }

  /// Total tuples across all buckets (space usage).
  std::size_t TotalTuples() const;

  /// Number of levels the structure was provisioned for.
  int levels() const { return levels_; }

  /// The error budget of bucket id b: eps/2 + eps*b/(2*(levels+1)).
  double LevelBudget(int bucket_id) const;

  /// Tuple budget used by each combine's prune step.
  std::size_t prune_tuples() const { return prune_tuples_; }

  /// The buckets (index i holds bucket id i+1; empty() = vacant). The list
  /// grows with the highest id the cascade reaches, so a fresh histogram
  /// allocates none; ids past its end are vacant. Exposed for the
  /// checkpoint, which writes each bucket's run or summary
  /// (sketch/quantile_sketch.cc).
  const std::vector<EhBucket>& buckets() const { return buckets_; }

  /// Bucket slots a checkpoint lists: levels() + 8, or buckets().size()
  /// once the cascade has outgrown that.
  std::size_t slots() const;

  /// Merge/compress wall costs, for Fig. 6-style breakdowns.
  double merge_seconds() const { return merge_seconds_; }
  double compress_seconds() const { return compress_seconds_; }

  /// Tuples touched by merges / prunes — operation counts for the P4 model.
  std::uint64_t merged_tuples() const { return merged_tuples_; }
  std::uint64_t pruned_tuples() const { return pruned_tuples_; }

 private:
  /// Places `carry` at bucket id `id`, combining it upwards while that id
  /// is occupied.
  void Carry(EhBucket carry, std::size_t id, ForkJoin* runner);

  /// Merges two same-id buckets (`carry` first on ties) and prunes the
  /// result with the error parameter of the next id: two runs merge as
  /// values, then prune (PruneExact) past prune_tuples() + 1; any other pair
  /// merges and prunes in one pass (GkSummary::MergePruned), sliced over
  /// `runner`'s threads when the merge is large enough.
  EhBucket Combine(EhBucket carry, EhBucket bucket, ForkJoin* runner);

  double epsilon_;
  std::uint64_t window_size_;
  int levels_;
  std::size_t prune_tuples_;
  std::uint64_t count_ = 0;
  std::vector<EhBucket> buckets_;  ///< index i holds bucket id i+1; empty = vacant
  double merge_seconds_ = 0;
  double compress_seconds_ = 0;
  std::uint64_t merged_tuples_ = 0;
  std::uint64_t pruned_tuples_ = 0;
};

}  // namespace streamgpu::sketch

#endif  // STREAMGPU_SKETCH_EXPONENTIAL_HISTOGRAM_H_
