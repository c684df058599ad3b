#include "sketch/sliding_window.h"

#include <algorithm>
#include <cmath>
#include <map>

#include "common/check.h"

namespace streamgpu::sketch {

namespace {

std::uint64_t BlockSizeFor(double epsilon, std::uint64_t window_size) {
  return std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(epsilon * static_cast<double>(window_size) / 2.0));
}

}  // namespace

// ---------------------------------------------------------------------------
// SlidingWindowFrequency
// ---------------------------------------------------------------------------

SlidingWindowFrequency::SlidingWindowFrequency(double epsilon, std::uint64_t window_size)
    : epsilon_(epsilon), window_size_(window_size) {
  STREAMGPU_CHECK(epsilon > 0.0 && epsilon < 1.0);
  STREAMGPU_CHECK(window_size >= 1);
  block_size_ = BlockSizeFor(epsilon, window_size);
  // Dropping per-block counts below epsilon*B/2 costs at most
  // (W/B) * epsilon*B/2 = epsilon*W/2 per value across all live blocks;
  // together with the excluded boundary block (<= B <= epsilon*W/2) the
  // total undercount stays within epsilon*W.
  truncate_threshold_ = static_cast<std::uint64_t>(
      epsilon_ * static_cast<double>(block_size_) / 2.0);
}

void SlidingWindowFrequency::AddBlockHistogram(
    std::span<const HistogramEntry> histogram, std::uint64_t block_elements) {
  STREAMGPU_CHECK(block_elements <= block_size_);
  if (block_elements == 0) return;
  Block block;
  block.elements = block_elements;
  block.entries.reserve(histogram.size());
  for (const HistogramEntry& e : histogram) {
    STREAMGPU_DCHECK(block.entries.empty() || block.entries.back().value < e.value);
    if (e.count > truncate_threshold_) block.entries.push_back(e);
  }
  covered_ += block_elements;
  blocks_.push_back(std::move(block));

  // Keep at most window_size elements covered: with blocks of B <=
  // epsilon*W/2, the retained suffix spans more than W - B elements, so the
  // uncovered boundary plus per-block truncation stays within epsilon*W.
  while (!blocks_.empty() && covered_ > window_size_) {
    covered_ -= blocks_.front().elements;
    blocks_.pop_front();
  }
}

std::size_t SlidingWindowFrequency::LiveBlockCount(std::uint64_t window) const {
  if (window == 0 || window > window_size_) window = window_size_;
  std::uint64_t span = 0;
  std::size_t live = 0;
  for (auto it = blocks_.rbegin(); it != blocks_.rend(); ++it) {
    if (span + it->elements > window) break;
    span += it->elements;
    ++live;
  }
  return live;
}

std::uint64_t SlidingWindowFrequency::EstimateCount(float value,
                                                    std::uint64_t window) const {
  const std::size_t live = LiveBlockCount(window);
  std::uint64_t total = 0;
  for (std::size_t k = 0; k < live; ++k) {
    const Block& block = blocks_[blocks_.size() - 1 - k];
    const auto it = std::lower_bound(
        block.entries.begin(), block.entries.end(), value,
        [](const HistogramEntry& e, float v) { return e.value < v; });
    if (it != block.entries.end() && it->value == value) total += it->count;
  }
  return total;
}

std::vector<std::pair<float, std::uint64_t>> SlidingWindowFrequency::HeavyHitters(
    double support, std::uint64_t window) const {
  if (window == 0 || window > window_size_) window = window_size_;
  const std::size_t live = LiveBlockCount(window);
  std::map<float, std::uint64_t> merged;
  for (std::size_t k = 0; k < live; ++k) {
    const Block& block = blocks_[blocks_.size() - 1 - k];
    for (const HistogramEntry& e : block.entries) merged[e.value] += e.count;
  }
  // Estimates undercount by at most epsilon * window_size, so the cutoff is
  // lowered by that slack to avoid false negatives.
  const double threshold = support * static_cast<double>(window) -
                           epsilon_ * static_cast<double>(window_size_);
  std::vector<std::pair<float, std::uint64_t>> out;
  for (const auto& [value, count] : merged) {
    if (static_cast<double>(count) >= threshold) out.emplace_back(value, count);
  }
  std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second > b.second;
    return a.first < b.first;
  });
  return out;
}

std::size_t SlidingWindowFrequency::summary_size() const {
  std::size_t total = 0;
  for (const Block& b : blocks_) total += b.entries.size();
  return total;
}

// ---------------------------------------------------------------------------
// SlidingWindowQuantile
// ---------------------------------------------------------------------------

SlidingWindowQuantile::SlidingWindowQuantile(double epsilon, std::uint64_t window_size)
    : epsilon_(epsilon), window_size_(window_size) {
  STREAMGPU_CHECK(epsilon > 0.0 && epsilon < 1.0);
  STREAMGPU_CHECK(window_size >= 1);
  block_size_ = BlockSizeFor(epsilon, window_size);
}

void SlidingWindowQuantile::AddBlockSummary(GkSummary block_summary) {
  STREAMGPU_CHECK(block_summary.count() <= block_size_);
  STREAMGPU_CHECK_MSG(block_summary.epsilon() <= epsilon_ / 2.0 + 1e-12,
                      "block summary must be (epsilon/2)-approximate");
  if (block_summary.empty()) return;
  covered_ += block_summary.count();
  blocks_.push_back(std::move(block_summary));
  // Keep at most window_size elements covered (see AddBlockHistogram).
  while (!blocks_.empty() && covered_ > window_size_) {
    covered_ -= blocks_.front().count();
    blocks_.pop_front();
  }
}

std::size_t SlidingWindowQuantile::LiveBlockCount(std::uint64_t window) const {
  if (window == 0 || window > window_size_) window = window_size_;
  std::uint64_t span = 0;
  std::size_t live = 0;
  for (auto it = blocks_.rbegin(); it != blocks_.rend(); ++it) {
    if (span + it->count() > window) break;
    span += it->count();
    ++live;
  }
  return live;
}

float SlidingWindowQuantile::Query(double phi, std::uint64_t window) const {
  STREAMGPU_CHECK_MSG(!blocks_.empty(), "query requires at least one block");
  // A window shorter than the newest block is answered over that block; it
  // holds at most B <= epsilon*W/2 elements outside the window.
  const std::size_t live = std::max<std::size_t>(1, LiveBlockCount(window));
  GkSummary all;
  for (std::size_t k = 0; k < live; ++k) {
    all = GkSummary::Merge(all, blocks_[blocks_.size() - 1 - k]);
  }
  return all.Query(phi);
}

std::size_t SlidingWindowQuantile::summary_size() const {
  std::size_t total = 0;
  for (const GkSummary& b : blocks_) total += b.size();
  return total;
}

}  // namespace streamgpu::sketch
