#include "obs/summary.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace streamgpu::obs {

namespace {

std::size_t BlockSizeFor(double epsilon) {
  // A block of ~4/epsilon values condensed at epsilon/2 keeps ~2/epsilon
  // tuples — dense enough that the sketch is meaningfully smaller than the
  // block, small enough that sorting a block stays cheap.
  return std::max<std::size_t>(64, static_cast<std::size_t>(std::ceil(4.0 / epsilon)));
}

std::size_t MaxTuplesFor(double epsilon) {
  // Prune target for carry-merges: 1/(2 * max_tuples) = epsilon/32 per level.
  return static_cast<std::size_t>(std::ceil(16.0 / epsilon));
}

}  // namespace

StreamingSummary::StreamingSummary(double target_epsilon)
    : target_epsilon_(target_epsilon),
      block_size_(BlockSizeFor(target_epsilon)),
      max_tuples_(MaxTuplesFor(target_epsilon)) {
  STREAMGPU_CHECK_MSG(target_epsilon > 0 && target_epsilon < 1,
                      "summary epsilon must be in (0, 1)");
  buffer_.reserve(block_size_);
}

void StreamingSummary::Observe(double value) {
  buffer_.push_back(static_cast<float>(value));
  ++count_;
  sum_ += value;
  if (buffer_.size() >= block_size_) FlushBuffer();
}

void StreamingSummary::FlushBuffer() {
  std::vector<float> sorted = buffer_;
  std::sort(sorted.begin(), sorted.end());
  sketch::GkSummary carry =
      sketch::GkSummary::FromSorted(sorted, target_epsilon_ / 2);
  buffer_.clear();

  // Binary-counter carry: level k holds the summary of 2^k blocks or is
  // vacant. Each occupied level absorbs the carry (merge + prune) and goes
  // vacant, exactly like binary addition.
  std::size_t k = 0;
  for (; k < levels_.size() && !levels_[k].empty(); ++k) {
    carry = sketch::GkSummary::MergePruned(levels_[k], carry, max_tuples_);
    levels_[k] = sketch::GkSummary();
  }
  if (k == levels_.size()) levels_.emplace_back();
  levels_[k] = std::move(carry);
}

sketch::GkSummary StreamingSummary::Merged() const {
  sketch::GkSummary merged;
  if (!buffer_.empty()) {
    // The open buffer is summarized exactly: an epsilon small enough that
    // the sampling step is 1 keeps every buffered value, so the fresh tail
    // contributes zero error (FromSorted then reports epsilon 0).
    std::vector<float> sorted = buffer_;
    std::sort(sorted.begin(), sorted.end());
    merged = sketch::GkSummary::FromSorted(sorted, 1e-9);
  }
  for (const sketch::GkSummary& level : levels_) {
    if (level.empty()) continue;
    merged = merged.empty() ? level : sketch::GkSummary::Merge(merged, level);
  }
  return merged;
}

double StreamingSummary::Quantile(double phi) const {
  const sketch::GkSummary merged = Merged();
  if (merged.empty()) return 0;
  return merged.Query(phi);
}

double StreamingSummary::epsilon() const {
  // Merge preserves max(epsilon) across parts, so the merged view's bound is
  // the honest one for every quantile this summary reports.
  return Merged().epsilon();
}

std::size_t StreamingSummary::TupleCount() const {
  std::size_t tuples = buffer_.size();
  for (const sketch::GkSummary& level : levels_) tuples += level.size();
  return tuples;
}

}  // namespace streamgpu::obs
