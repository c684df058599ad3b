#include "sketch/gk_summary.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

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
/// makes every output tuple O(1); the side is chosen by masks, not by a
/// branch the random order of the values would mispredict.
class MergeCursor {
 public:
  MergeCursor(std::span<const GkTuple> a, std::uint64_t a_count, std::span<const GkTuple> b,
              std::uint64_t b_count)
      : pa_(a.data()),
        a_end_(a.data() + a.size()),
        pb_(b.data()),
        b_end_(b.data() + b.size()),
        a_count_(a_count),
        b_count_(b_count) {}

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
  std::uint64_t a_below_ = 0;  ///< rmin of the last a-tuple taken
  std::uint64_t b_below_ = 0;  ///< rmin of the last b-tuple taken
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

/// Prune's sweep over `size` tuples that `next()` yields in value order,
/// appending the pruned tuples to `out`. The target ranks never decrease,
/// so neither does the first tuple with rmin + rmax >= 2*rank that
/// BestTupleForRank binary-searches for: one sweep finds it for every
/// target, and BestTupleNear's choice reads only it and its predecessor.
/// Once the sweep passes the last tuple, `at_first` stays that tuple, which
/// is BestTupleNear's choice there: its rmin + rmax < 2*rank makes its
/// deviation rank - rmin, which no predecessor, whose rmin is no larger,
/// beats.
template <typename Next>
void PruneSweep(std::size_t size, std::uint64_t count, std::size_t max_tuples, Next next,
                std::vector<GkTuple>* out) {
  std::size_t first = 0;
  GkTuple at_first = next();
  GkTuple before_first;
  for (std::size_t i = 0; i <= max_tuples; ++i) {
    const std::uint64_t rank = PruneRank(i, count, max_tuples);
    while (first < size && at_first.rmin + at_first.rmax < 2 * rank) {
      before_first = at_first;
      if (++first < size) at_first = next();
    }
    const GkTuple& t = first > 0 && GkSummary::RankDeviation(before_first, rank) <
                                        GkSummary::RankDeviation(at_first, rank)
                           ? before_first
                           : at_first;
    if (out->empty() || !(out->back() == t)) out->push_back(t);
  }
}

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
                                 std::size_t max_tuples) {
  STREAMGPU_CHECK(max_tuples >= 1);
  const std::size_t size = a.size() + b.size();
  if (a.empty() || b.empty() || size <= max_tuples + 1) return Merge(a, b).Prune(max_tuples);
  GkSummary out;
  out.count_ = a.count_ + b.count_;
  out.epsilon_ =
      std::max(a.epsilon_, b.epsilon_) + 1.0 / (2.0 * static_cast<double>(max_tuples));
  out.tuples_.reserve(max_tuples + 1);
  MergeCursor merged(a.tuples_, a.count_, b.tuples_, b.count_);
  PruneSweep(size, out.count_, max_tuples, [&merged] { return merged.Next(); }, &out.tuples_);
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
  PruneSweep(size(), count_, max_tuples, [&next] { return *next++; }, &out.tuples_);
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
