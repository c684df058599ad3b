#include "sketch/gk_summary.h"

#include <algorithm>
#include <cmath>
#include <iterator>

#include "common/check.h"
#include "common/run_merge.h"

namespace streamgpu::sketch {

GkSummary GkSummary::FromSorted(std::span<const float> sorted_window,
                                double target_epsilon) {
  STREAMGPU_CHECK(target_epsilon > 0.0);
  GkSummary out;
  const std::uint64_t w = sorted_window.size();
  if (w == 0) return out;
  out.count_ = w;

  const std::uint64_t step = SamplingStep(w, target_epsilon);
  for (std::uint64_t r = 0; r < w; r += step) {
    STREAMGPU_DCHECK(r == 0 || sorted_window[r - 1] <= sorted_window[r]);
    out.tuples_.push_back({sorted_window[r], r + 1, r + 1});
  }
  if (out.tuples_.back().rmin != w) out.tuples_.push_back({sorted_window[w - 1], w, w});

  // Ranks are exact; the only error is the distance to the nearest sample,
  // at most floor(step/2).
  out.epsilon_ = static_cast<double>(step / 2) / static_cast<double>(w);
  return out;
}

std::uint64_t GkSummary::SamplingStep(std::uint64_t w, double target_epsilon) {
  return std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(2.0 * target_epsilon * static_cast<double>(w)));
}

GkSummary GkSummary::Exact(std::span<const float> sorted) {
  GkSummary out;
  out.count_ = sorted.size();
  out.tuples_.resize(sorted.size());
  for (std::uint64_t r = 0; r < sorted.size(); ++r) {
    out.tuples_[r] = {sorted[r], r + 1, r + 1};
  }
  return out;
}

bool GkSummary::IsExact() const {
  if (epsilon_ != 0.0 || tuples_.size() != count_) return false;
  for (std::uint64_t r = 0; r < tuples_.size(); ++r) {
    if (tuples_[r].rmin != r + 1 || tuples_[r].rmax != r + 1) return false;
  }
  return true;
}

bool GkSummary::FromParts(std::vector<GkTuple> tuples, std::uint64_t count,
                          double epsilon, GkSummary* out) {
  if (out == nullptr) return false;
  if (epsilon < 0.0 || epsilon >= 1.0) return false;
  if (tuples.empty() != (count == 0)) return false;
  for (std::size_t i = 0; i < tuples.size(); ++i) {
    const GkTuple& t = tuples[i];
    if (t.rmin < 1 || t.rmin > t.rmax || t.rmax > count) return false;
    if (i > 0) {
      if (tuples[i - 1].value > t.value) return false;
      if (tuples[i - 1].rmin > t.rmin || tuples[i - 1].rmax > t.rmax) return false;
    }
  }
  out->tuples_ = std::move(tuples);
  out->count_ = count;
  out->epsilon_ = epsilon;
  return true;
}

namespace {

/// GkSummary::Merge's tuples one at a time: the one definition of the merged
/// rank bounds, which Merge writes out and MergePruned sweeps.
///
/// Equal values are ordered consistently — every element of `a` precedes
/// every equal-valued element of `b`. A consistent tie order keeps the rank
/// intervals tight on duplicate-heavy data; without it each merge widens
/// the interval of a repeated value by the partner's multiplicity and the
/// epsilon invariant collapses.
///
/// The merge takes a's tuple x exactly when x.value <= b[j].value, so every
/// b-tuple already taken lies before x and b[j] does not: the b-elements
/// certainly before x are those covered by the last b-tuple taken, and at
/// most b[j].rmax - 1 of b's elements can precede x. A tuple taken from `b`
/// mirrors this against `a`. Carrying the last taken rmin of each side
/// makes every output tuple O(1). The rank terms are selected by masks, but
/// GCC 12 at -O3 still compiles the choice of the taken tuple to a compare
/// and a branch. That costs little: a step that selects every field by mask
/// (checked branch-free) merged 70,002 tuples in 453-473 us against
/// 445-525 us for this one, because each step waits on the previous one's
/// load, compare and advance, not on a misprediction.
class MergeCursor {
 public:
  /// A cursor after the first i of a's tuples and the first j of b's, which
  /// must be the co-rank of merged position i + j: (0, 0) starts the merge.
  MergeCursor(std::span<const GkTuple> a, std::uint64_t a_count, std::span<const GkTuple> b,
              std::uint64_t b_count, std::size_t i = 0, std::size_t j = 0)
      : pa_(a.data() + i),
        a_end_(a.data() + a.size()),
        pb_(b.data() + j),
        b_end_(b.data() + b.size()),
        a_count_(a_count),
        b_count_(b_count),
        a_below_(i > 0 ? a[i - 1].rmin : 0),
        b_below_(j > 0 ? b[j - 1].rmin : 0) {}

  /// True while both sides have tuples left, when Step() makes the next one.
  bool both() const { return pa_ < a_end_ && pb_ < b_end_; }

  GkTuple Step() {
    const std::uint64_t take_a = pa_->value <= pb_->value ? 1 : 0;
    const std::uint64_t mask = 0 - take_a;
    const GkTuple* t = take_a != 0 ? pa_ : pb_;
    const GkTuple out{t->value, t->rmin + ((b_below_ & mask) | (a_below_ & ~mask)),
                      t->rmax + ((pb_->rmax & mask) | (pa_->rmax & ~mask)) - 1};
    a_below_ = (pa_->rmin & mask) | (a_below_ & ~mask);
    b_below_ = (b_below_ & mask) | (pb_->rmin & ~mask);
    pa_ += take_a;
    pb_ += 1 - take_a;
    return out;
  }

  /// The next tuple once one side has none left: the other side's, above
  /// all of the exhausted side's elements.
  GkTuple Tail() {
    if (pa_ < a_end_) {
      const GkTuple out{pa_->value, pa_->rmin + b_below_, pa_->rmax + b_count_};
      ++pa_;
      return out;
    }
    const GkTuple out{pb_->value, pb_->rmin + a_below_, pb_->rmax + a_count_};
    ++pb_;
    return out;
  }

  GkTuple Next() { return both() ? Step() : Tail(); }

 private:
  const GkTuple* pa_;
  const GkTuple* const a_end_;
  const GkTuple* pb_;
  const GkTuple* const b_end_;
  const std::uint64_t a_count_;
  const std::uint64_t b_count_;
  std::uint64_t a_below_;  ///< rmin of the last a-tuple taken
  std::uint64_t b_below_;  ///< rmin of the last b-tuple taken
};

/// Target rank i of Prune(max_tuples), i = 0..max_tuples: evenly spaced over
/// [1, count] and nondecreasing in i. The rounding is std::llround's, half
/// away from zero, inline: for x >= 0, x - trunc(x) is exact.
std::uint64_t PruneRank(std::size_t i, std::uint64_t count, std::size_t max_tuples) {
  const double x = static_cast<double>(i) * static_cast<double>(count) /
                   static_cast<double>(max_tuples);
  const auto whole = static_cast<std::uint64_t>(x);
  return std::max<std::uint64_t>(1, whole + (x - static_cast<double>(whole) >= 0.5 ? 1 : 0));
}

/// Where a prune sweep starts: at tuple `first` of the swept order, answering
/// targets [target, target_end). `before` is tuple first - 1 (unused when
/// first is 0).
struct SweepStart {
  std::size_t first = 0;
  GkTuple before;
  std::size_t target = 0;
  std::size_t target_end = 0;
};

/// Prune's sweep over `size` tuples that `next()` yields in value order from
/// `start.first` on, writing the tuples chosen for the start's targets to
/// `out` without repeating one in a row; returns the end of what it wrote.
/// The target ranks never decrease, so neither does the first tuple with
/// rmin + rmax >= 2*rank that BestTupleForRank binary-searches for: one
/// sweep finds it for every target, and BestTupleNear's choice reads only it
/// and its predecessor. Once the sweep passes the last tuple, `at_first`
/// stays that tuple, which is BestTupleNear's choice there: its rmin + rmax
/// < 2*rank makes its deviation rank - rmin, which no predecessor, whose
/// rmin is no larger, beats.
template <typename Next, typename Out>
Out PruneSweep(const SweepStart& start, std::size_t size, std::uint64_t count,
               std::size_t max_tuples, Next next, Out out) {
  std::size_t first = start.first;
  GkTuple before_first = start.before;
  GkTuple at_first = next();
  GkTuple last;
  for (std::size_t i = start.target; i < start.target_end; ++i) {
    const std::uint64_t rank = PruneRank(i, count, max_tuples);
    while (first < size && at_first.rmin + at_first.rmax < 2 * rank) {
      before_first = at_first;
      if (++first < size) at_first = next();
    }
    const GkTuple& t = first > 0 && GkSummary::RankDeviation(before_first, rank) <
                                        GkSummary::RankDeviation(at_first, rank)
                           ? before_first
                           : at_first;
    if (i == start.target || !(last == t)) *out++ = t;
    last = t;
  }
  return out;
}

/// One slice of a sliced MergePruned: its sweep's start, the merge cursor at
/// its first merged tuple, and where its output ends once it has run.
struct MergeSlice {
  SweepStart sweep;
  MergeCursor merged;
  GkTuple* end = nullptr;
};

}  // namespace

GkSummary GkSummary::Merge(const GkSummary& a, const GkSummary& b) {
  if (a.empty()) return b;
  if (b.empty()) return a;

  GkSummary out;
  out.count_ = a.count_ + b.count_;
  out.epsilon_ = std::max(a.epsilon_, b.epsilon_);
  out.tuples_.resize(a.size() + b.size());
  MergeCursor merged(a.tuples_, a.count_, b.tuples_, b.count_);
  GkTuple* o = out.tuples_.data();
  GkTuple* const end = o + out.size();
  while (merged.both()) *o++ = merged.Step();
  while (o != end) *o++ = merged.Tail();
  return out;
}

GkSummary GkSummary::MergePruned(const GkSummary& a, const GkSummary& b,
                                 std::size_t max_tuples, std::size_t slices,
                                 ForkJoin* runner) {
  STREAMGPU_CHECK(max_tuples >= 1 && slices >= 1);
  const std::size_t size = a.size() + b.size();
  if (a.empty() || b.empty() || size <= max_tuples + 1) return Merge(a, b).Prune(max_tuples);
  GkSummary out;
  out.count_ = a.count_ + b.count_;
  out.epsilon_ =
      std::max(a.epsilon_, b.epsilon_) + 1.0 / (2.0 * static_cast<double>(max_tuples));
  const std::span<const GkTuple> at(a.tuples_);
  const std::span<const GkTuple> bt(b.tuples_);
  const std::size_t k = std::min(slices, size);
  std::vector<MergeSlice> cuts;
  cuts.reserve(k);
  cuts.push_back({{}, MergeCursor(at, a.count_, bt, b.count_), nullptr});
  for (std::size_t q = 1; q < k; ++q) {
    // Slice q starts at merged position p. The cursor at p - 1's co-rank
    // makes merged tuple p - 1, the sweep's `before`, and then stands at p.
    const std::size_t p = q * size / k;
    const std::size_t fewest = p - 1 > bt.size() ? p - 1 - bt.size() : 0;
    const std::size_t i =
        MergeCoRank(at, bt, p - 1, fewest, std::min(p - 1, at.size()), &GkTuple::value);
    MergeSlice& cut = cuts.emplace_back(
        MergeSlice{{}, MergeCursor(at, a.count_, bt, b.count_, i, p - 1 - i), nullptr});
    cut.sweep.first = p;
    cut.sweep.before = cut.merged.Next();
    // rmin + rmax never decreases along the merged order, so the targets
    // whose first tuple with rmin + rmax >= 2*rank lies at p or later are
    // those with 2*rank above tuple p - 1's rmin + rmax.
    const std::uint64_t before = cut.sweep.before.rmin + cut.sweep.before.rmax;
    std::size_t lo = cuts[q - 1].sweep.target;
    std::size_t hi = max_tuples + 1;
    while (lo < hi) {
      const std::size_t mid = lo + (hi - lo) / 2;
      if (2 * PruneRank(mid, out.count_, max_tuples) > before) {
        hi = mid;
      } else {
        lo = mid + 1;
      }
    }
    cuts[q - 1].sweep.target_end = lo;
    cut.sweep.target = lo;
  }
  cuts.back().sweep.target_end = max_tuples + 1;

  // A slice writes from where its first target's tuple would go if no two
  // targets chose the same tuple, so no two slices overlap.
  out.tuples_.resize(max_tuples + 1);
  GkTuple* const data = out.tuples_.data();
  const auto run_slice = [&](std::size_t q) {
    // A local cursor, which the tuples the sweep writes cannot alias.
    MergeCursor merged = cuts[q].merged;
    cuts[q].end = PruneSweep(cuts[q].sweep, size, out.count_, max_tuples,
                             [&merged] { return merged.Next(); },
                             data + cuts[q].sweep.target);
  };
  if (runner == nullptr || k == 1) {
    for (std::size_t q = 0; q < k; ++q) run_slice(q);
  } else {
    runner->Run(k, run_slice);
  }
  // Close the gaps, dropping a slice's first tuple when it is the last one
  // kept before it.
  GkTuple* kept = cuts[0].end;
  for (std::size_t q = 1; q < k; ++q) {
    GkTuple* from = data + cuts[q].sweep.target;
    if (from != cuts[q].end && kept != data && kept[-1] == *from) ++from;
    kept = kept == from ? cuts[q].end : std::copy(from, cuts[q].end, kept);
  }
  out.tuples_.resize(static_cast<std::size_t>(kept - data));
  return out;
}

GkSummary GkSummary::Prune(std::size_t max_tuples) const& {
  STREAMGPU_CHECK(max_tuples >= 1);
  if (size() <= max_tuples + 1) return *this;
  return Pruned(max_tuples);
}

GkSummary GkSummary::Prune(std::size_t max_tuples) && {
  STREAMGPU_CHECK(max_tuples >= 1);
  if (size() <= max_tuples + 1) return std::move(*this);
  return Pruned(max_tuples);
}

GkSummary GkSummary::Pruned(std::size_t max_tuples) const {
  GkSummary out;
  out.count_ = count_;
  out.epsilon_ = epsilon_ + 1.0 / (2.0 * static_cast<double>(max_tuples));
  out.tuples_.reserve(max_tuples + 1);
  const GkTuple* next = tuples_.data();
  PruneSweep({0, {}, 0, max_tuples + 1}, size(), count_, max_tuples,
             [&next] { return *next++; }, std::back_inserter(out.tuples_));
  return out;
}

GkSummary GkSummary::PruneExact(std::span<const float> sorted, std::size_t max_tuples) {
  STREAMGPU_CHECK(max_tuples >= 1 && sorted.size() > max_tuples + 1);
  GkSummary out;
  out.count_ = sorted.size();
  out.epsilon_ = 1.0 / (2.0 * static_cast<double>(max_tuples));
  out.tuples_.reserve(max_tuples + 1);
  for (std::size_t i = 0; i <= max_tuples; ++i) {
    const std::uint64_t rank = PruneRank(i, out.count_, max_tuples);
    const GkTuple t{sorted[rank - 1], rank, rank};
    if (out.tuples_.empty() || !(out.tuples_.back() == t)) out.tuples_.push_back(t);
  }
  return out;
}

std::size_t GkSummary::BestTupleForRank(std::uint64_t rank) const {
  STREAMGPU_CHECK(!tuples_.empty());
  // Worst-case rank deviation of tuple t from target r is
  // cost(t) = max(r - rmin, rmax - r). Over the value-sorted tuples the
  // first term is nonincreasing and the second nondecreasing, so cost is
  // unimodal and its minimum sits at the first tuple with
  // rmin + rmax >= 2r — a binary-searchable monotone predicate (rmin and
  // rmax are both nondecreasing). Compare that tuple with its predecessor.
  const auto it = std::partition_point(
      tuples_.begin(), tuples_.end(),
      [rank](const GkTuple& t) { return t.rmin + t.rmax < 2 * rank; });
  return BestTupleNear(static_cast<std::size_t>(it - tuples_.begin()), rank);
}

std::uint64_t GkSummary::RankDeviation(const GkTuple& t, std::uint64_t rank) {
  const std::uint64_t lo = t.rmin > rank ? t.rmin - rank : rank - t.rmin;
  const std::uint64_t hi = t.rmax > rank ? t.rmax - rank : rank - t.rmax;
  return std::max(lo, hi);
}

std::size_t GkSummary::BestTupleNear(std::size_t first, std::uint64_t rank) const {
  std::size_t best = first == tuples_.size() ? tuples_.size() - 1 : first;
  if (best > 0 && RankDeviation(tuples_[best - 1], rank) < RankDeviation(tuples_[best], rank)) {
    --best;
  }
  return best;
}

std::uint64_t GkSummary::RankForPhi(double phi, std::uint64_t count) {
  return std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(std::ceil(phi * static_cast<double>(count))));
}

float GkSummary::Query(double phi) const {
  STREAMGPU_CHECK(phi > 0.0 && phi <= 1.0);
  STREAMGPU_CHECK(!empty());
  return QueryRank(RankForPhi(phi, count_));
}

float GkSummary::QueryRank(std::uint64_t rank) const {
  STREAMGPU_CHECK(!empty());
  STREAMGPU_CHECK(rank >= 1 && rank <= count_);
  return tuples_[BestTupleForRank(rank)].value;
}

}  // namespace streamgpu::sketch
