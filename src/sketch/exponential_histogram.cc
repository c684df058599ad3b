#include "sketch/exponential_histogram.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <optional>

#include "common/check.h"
#include "common/run_merge.h"
#include "common/timer.h"

namespace streamgpu::sketch {

namespace {

/// The merge of two ascending runs, a's values first on ties: Exact of the
/// result is GkSummary::Merge(Exact(a), Exact(b)).
std::vector<float> MergedRun(std::span<const float> a, std::span<const float> b) {
  std::vector<float> out(a.size() + b.size());
  MergeRuns(a, b, out.data());
  return out;
}

/// Tuple i of `bucket`, a run's implicit (run[i], i+1, i+1) included.
GkTuple TupleAt(const EhBucket& bucket, std::size_t i) {
  if (bucket.run.empty()) return bucket.summary.tuples()[i];
  return {bucket.run[i], i + 1, i + 1};
}

/// The number of `bucket`'s tuples that precede a value-v tuple of another
/// bucket in Flatten()'s merged order: its values <= v when `bucket` has
/// the lower id (GkSummary::Merge's a <= b tie rule, which also puts -0.0
/// and +0.0 in id order), its values < v otherwise.
std::size_t CountBefore(const EhBucket& bucket, float v, bool lower_id) {
  if (!bucket.run.empty()) {
    const std::vector<float>& run = bucket.run;
    const auto it = lower_id ? std::upper_bound(run.begin(), run.end(), v)
                             : std::lower_bound(run.begin(), run.end(), v);
    return static_cast<std::size_t>(it - run.begin());
  }
  const std::vector<GkTuple>& tuples = bucket.summary.tuples();
  const auto it = lower_id ? std::ranges::upper_bound(tuples, v, {}, &GkTuple::value)
                           : std::ranges::lower_bound(tuples, v, {}, &GkTuple::value);
  return static_cast<std::size_t>(it - tuples.begin());
}

/// Tuple i of buckets[b] with the rank bounds Flatten() gives it. Merging
/// into a running fold adds, per other bucket c, the rmin of c's last tuple
/// before it and the rmax - 1 of c's first tuple after it (c's count when
/// there is none).
GkTuple MergedTuple(const std::vector<EhBucket>& buckets, std::size_t b, std::size_t i) {
  GkTuple t = TupleAt(buckets[b], i);
  for (std::size_t c = 0; c < buckets.size(); ++c) {
    const EhBucket& other = buckets[c];
    if (c == b || other.empty()) continue;
    const std::size_t before = CountBefore(other, t.value, c < b);
    if (!other.run.empty()) {
      // Run tuple before - 1 has rmin `before`; run tuple `before` has rmax
      // before + 1, and a run's count is its size.
      t.rmin += before;
      t.rmax += before;
      continue;
    }
    const std::vector<GkTuple>& tuples = other.summary.tuples();
    if (before > 0) t.rmin += tuples[before - 1].rmin;
    t.rmax += before < tuples.size() ? tuples[before].rmax - 1 : other.summary.count();
  }
  return t;
}

/// A tuple of the bucket list: buckets[b], index i.
struct TupleRef {
  std::size_t b = 0;
  std::size_t i = 0;
  float value = 0;
};

}  // namespace

EhBucket EhBucket::FromSorted(std::span<const float> sorted_window,
                              double target_epsilon) {
  EhBucket bucket;
  if (GkSummary::SamplingStep(sorted_window.size(), target_epsilon) == 1) {
    bucket.run.assign(sorted_window.begin(), sorted_window.end());
  } else {
    bucket.summary = GkSummary::FromSorted(sorted_window, target_epsilon);
  }
  return bucket;
}

EhBucket EhBucket::FromSummary(GkSummary summary) {
  EhBucket bucket;
  if (!summary.empty() && summary.IsExact()) {
    bucket.run.reserve(summary.size());
    for (const GkTuple& t : summary.tuples()) bucket.run.push_back(t.value);
  } else {
    bucket.summary = std::move(summary);
  }
  return bucket;
}

EhQuantileSummary::EhQuantileSummary(double epsilon, std::uint64_t window_size,
                                     std::uint64_t expected_length)
    : epsilon_(epsilon), window_size_(window_size) {
  STREAMGPU_CHECK(epsilon > 0.0 && epsilon < 1.0);
  STREAMGPU_CHECK(window_size >= 1);
  const std::uint64_t expected_windows =
      std::max<std::uint64_t>(1, (expected_length + window_size - 1) / window_size);
  // Combining pairs of equal-id buckets means ids grow like log2 of the
  // number of windows; one extra level absorbs rounding.
  levels_ = static_cast<int>(
                std::ceil(std::log2(static_cast<double>(expected_windows) + 1.0))) +
            1;
  // Each combine's prune may add at most the per-level budget increment
  // eps/(2*(levels+1)), i.e. 1/(2*prune_tuples) <= eps/(2*(levels+1)).
  prune_tuples_ = static_cast<std::size_t>(
      std::ceil(static_cast<double>(levels_ + 1) / epsilon_));
}

bool EhQuantileSummary::FromParts(double epsilon, std::uint64_t window_size,
                                  std::uint64_t expected_length,
                                  std::uint64_t count,
                                  std::vector<EhBucket> buckets,
                                  EhQuantileSummary* out) {
  if (!(epsilon > 0.0 && epsilon < 1.0) || window_size < 1) return false;
  // Bucket ids grow like log2 of the window count, so even a 2^64-element
  // history cannot legitimately occupy more than ~64 ids past the
  // provisioned levels. Anything deeper is corrupted input.
  EhQuantileSummary fresh(epsilon, window_size, expected_length);
  if (buckets.size() > fresh.slots() + 64) return false;
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    // A bucket looser than its id's budget would make the stated
    // epsilon*count bound a lie.
    if (!buckets[i].empty() &&
        !(buckets[i].epsilon() <= fresh.LevelBudget(static_cast<int>(i) + 1) + 1e-12)) {
      return false;
    }
    total += buckets[i].count();
  }
  if (total != count) return false;
  for (EhBucket& bucket : buckets) {
    if (bucket.run.empty()) bucket = EhBucket::FromSummary(std::move(bucket.summary));
  }
  fresh.buckets_ = std::move(buckets);
  fresh.count_ = count;
  *out = std::move(fresh);
  return true;
}

std::size_t EhQuantileSummary::slots() const {
  return std::max(buckets_.size(), static_cast<std::size_t>(levels_) + 8);
}

double EhQuantileSummary::LevelBudget(int bucket_id) const {
  return epsilon_ / 2.0 + epsilon_ * static_cast<double>(bucket_id) /
                              (2.0 * static_cast<double>(levels_ + 1));
}

void EhQuantileSummary::AddWindowSummary(GkSummary window_summary) {
  AddWindow(EhBucket::FromSummary(std::move(window_summary)));
}

void EhQuantileSummary::AddWindow(EhBucket window, ForkJoin* runner) {
  if (window.empty()) return;
  STREAMGPU_CHECK_MSG(window.epsilon() <= LevelBudget(1) + 1e-12,
                      "window summary must be (epsilon/2)-approximate");
  count_ += window.count();
  Carry(std::move(window), 1, runner);
}

int EhQuantileSummary::max_block_level() const {
  if (GkSummary::SamplingStep(window_size_, epsilon_ / 2.0) != 1) return 0;
  // 2^(level+1) * window_size <= prune_tuples + 1, without overflowing.
  int level = 0;
  while (((prune_tuples_ + 1) >> (level + 1)) >= window_size_) ++level;
  return level;
}

void EhQuantileSummary::MergeBlock(std::span<const float> windows,
                                   std::size_t window_size,
                                   std::vector<float>* scratch,
                                   std::vector<float>* out) {
  const std::size_t total = windows.size();
  STREAMGPU_CHECK(window_size >= 1 && total % window_size == 0);
  const std::size_t count = total / window_size;
  STREAMGPU_CHECK_MSG(count >= 2 && std::has_single_bit(count),
                      "a block holds a power of two >= 2 windows");
  const int levels = std::countr_zero(count);
  out->resize(total);
  if (levels > 1) scratch->resize(total);
  // Level l merges runs of window_size * 2^(l-1) pairwise into the buffer
  // the levels alternate over, so that the last one writes `out`.
  const float* src = windows.data();
  for (int level = 1; level <= levels; ++level) {
    float* dst = (levels - level) % 2 == 0 ? out->data() : scratch->data();
    const std::size_t half = window_size << (level - 1);
    for (std::size_t off = 0; off < total; off += 2 * half) {
      // The later run is the carry AddWindow brings to the earlier one.
      MergeRuns({src + off + half, half}, {src + off, half}, dst + off);
    }
    src = dst;
  }
}

bool EhQuantileSummary::AddBlock(std::vector<float>& run, int level,
                                 double merge_seconds, ForkJoin* runner) {
  STREAMGPU_CHECK(level >= 1 && run.size() <= prune_tuples_ + 1);
  const std::size_t vacant_below = std::min(static_cast<std::size_t>(level), buckets_.size());
  for (std::size_t i = 0; i < vacant_below; ++i) {
    if (!buckets_[i].empty()) return false;
  }
  count_ += run.size();
  // Every element sat in one merged run per level of the block.
  const std::uint64_t merged = static_cast<std::uint64_t>(level) * run.size();
  merged_tuples_ += merged;
  pruned_tuples_ += merged;
  merge_seconds_ += merge_seconds;
  EhBucket block;
  block.run = std::move(run);
  Carry(std::move(block), static_cast<std::size_t>(level) + 1, runner);
  return true;
}

void EhQuantileSummary::Carry(EhBucket carry, std::size_t id, ForkJoin* runner) {
  while (id <= buckets_.size() && !buckets_[id - 1].empty()) {
    carry = Combine(std::move(carry), std::move(buckets_[id - 1]), runner);
    buckets_[id - 1] = EhBucket();
    ++id;
  }
  if (id > buckets_.size()) buckets_.resize(id);
  buckets_[id - 1] = std::move(carry);
}

EhBucket EhQuantileSummary::Combine(EhBucket carry, EhBucket bucket, ForkJoin* runner) {
  // Merge, then prune with the error parameter of bucket id + 1 (§5.2). Both
  // counters count the merged summary's tuples, implicit ones included.
  const std::size_t merged_size = carry.size() + bucket.size();
  merged_tuples_ += merged_size;
  pruned_tuples_ += merged_size;
  EhBucket out;
  if (!carry.run.empty() && !bucket.run.empty()) {
    // Two exact buckets: their merge is exact, a merge of the values.
    Timer merge_timer;
    std::vector<float> merged = MergedRun(carry.run, bucket.run);
    merge_seconds_ += merge_timer.ElapsedSeconds();
    Timer compress_timer;
    if (merged.size() > prune_tuples_ + 1) {
      out.summary = GkSummary::PruneExact(merged, prune_tuples_);
    } else {
      out.run = std::move(merged);
    }
    compress_seconds_ += compress_timer.ElapsedSeconds();
    return out;
  }
  // One pass merges and prunes, so its time is all compress time, slices
  // run on other threads included.
  Timer compress_timer;
  if (!carry.run.empty()) carry.summary = GkSummary::Exact(carry.run);
  if (!bucket.run.empty()) bucket.summary = GkSummary::Exact(bucket.run);
  const std::size_t slices =
      runner != nullptr && merged_size >= kMinSlicedGkMerge ? runner->width() : 1;
  out.summary =
      GkSummary::MergePruned(carry.summary, bucket.summary, prune_tuples_, slices, runner);
  compress_seconds_ += compress_timer.ElapsedSeconds();
  return out;
}

float EhQuantileSummary::Query(double phi) const {
  STREAMGPU_CHECK_MSG(count_ > 0, "query on empty summary");
  STREAMGPU_CHECK(phi > 0.0 && phi <= 1.0);
  const std::uint64_t rank = GkSummary::RankForPhi(phi, count_);
  // Flatten() lists the tuples by value, equal values in id order, and its
  // rmin + rmax never decreases along that order. Its first tuple with
  // rmin + rmax >= 2*rank is therefore the earliest of the buckets' first
  // such tuples; with none, the answer starts from its last tuple.
  std::optional<TupleRef> first;
  std::optional<TupleRef> last;
  for (std::size_t b = 0; b < buckets_.size(); ++b) {
    const EhBucket& bucket = buckets_[b];
    if (bucket.empty()) continue;
    std::size_t lo = 0;
    std::size_t hi = bucket.size();
    while (lo < hi) {
      const std::size_t mid = lo + (hi - lo) / 2;
      const GkTuple t = MergedTuple(buckets_, b, mid);
      if (t.rmin + t.rmax < 2 * rank) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    if (lo < bucket.size()) {
      const float v = TupleAt(bucket, lo).value;
      if (!first || v < first->value) first = TupleRef{b, lo, v};
    }
    const float v = TupleAt(bucket, bucket.size() - 1).value;
    if (!last || v >= last->value) last = TupleRef{b, bucket.size() - 1, v};
  }
  const TupleRef best = first ? *first : *last;
  // GkSummary::BestTupleNear: prefer the predecessor in that order, the
  // latest of the buckets' last tuples before `best`, when it deviates less.
  std::optional<TupleRef> prev;
  for (std::size_t c = 0; c < buckets_.size(); ++c) {
    if (buckets_[c].empty()) continue;
    const std::size_t before =
        c == best.b ? best.i : CountBefore(buckets_[c], best.value, c < best.b);
    if (before == 0) continue;
    const float v = TupleAt(buckets_[c], before - 1).value;
    if (!prev || v >= prev->value) prev = TupleRef{c, before - 1, v};
  }
  const GkTuple answer = MergedTuple(buckets_, best.b, best.i);
  if (prev) {
    const GkTuple p = MergedTuple(buckets_, prev->b, prev->i);
    if (GkSummary::RankDeviation(p, rank) < GkSummary::RankDeviation(answer, rank)) {
      return p.value;
    }
  }
  return answer.value;
}

double EhQuantileSummary::MaxBucketEpsilon() const {
  double epsilon = 0;
  for (const EhBucket& bucket : buckets_) epsilon = std::max(epsilon, bucket.epsilon());
  return epsilon;
}

GkSummary EhQuantileSummary::Flatten() const {
  // The leading runs merge as values, which keeps them exact, so their
  // tuples are built once.
  std::vector<float> run;
  std::size_t i = 0;
  for (; i < buckets_.size(); ++i) {
    const EhBucket& bucket = buckets_[i];
    if (bucket.empty()) continue;
    if (bucket.run.empty()) break;
    run = MergedRun(run, bucket.run);
  }
  GkSummary flat = GkSummary::Exact(run);
  for (; i < buckets_.size(); ++i) {
    const EhBucket& bucket = buckets_[i];
    if (bucket.empty()) continue;
    if (bucket.run.empty()) {
      flat = GkSummary::Merge(flat, bucket.summary);
    } else {
      flat = GkSummary::Merge(flat, GkSummary::Exact(bucket.run));
    }
  }
  return flat;
}

std::size_t EhQuantileSummary::TotalTuples() const {
  std::size_t total = 0;
  for (const EhBucket& bucket : buckets_) total += bucket.size();
  return total;
}

}  // namespace streamgpu::sketch
