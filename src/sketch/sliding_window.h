// Epsilon-approximate frequency and quantile queries over sliding windows
// (§5.3). The source text of §5.3 is truncated in the paper; this module
// reconstructs the standard block-decomposition approach that the §5.2
// machinery (per-window summaries + merge) directly supports:
//
//   * The last W elements are covered by a queue of fixed-size blocks of
//     B = max(1, floor(epsilon*W/2)) elements.
//   * Each completed block is sorted (the GPU-accelerated step) and reduced
//     to a small per-block summary — a truncated histogram for frequencies,
//     an (epsilon/2)-approximate GK summary for quantiles.
//   * A query over the most recent W' <= W elements combines the summaries
//     of the blocks fully contained in the query window. Excluding the
//     partially expired boundary block costs at most B <= epsilon*W/2
//     additional error, keeping the total within epsilon*W. A quantile
//     window shorter than the newest block is answered over that block,
//     which holds at most B elements outside the window.
//
// Both fixed-width (W' == W) and variable-width (any W' <= W) windows are
// supported, per §3.1's query taxonomy.

#ifndef STREAMGPU_SKETCH_SLIDING_WINDOW_H_
#define STREAMGPU_SKETCH_SLIDING_WINDOW_H_

#include <cstdint>
#include <deque>
#include <span>
#include <vector>

#include "sketch/gk_summary.h"
#include "sketch/histogram.h"

namespace streamgpu::sketch {

/// Sliding-window heavy hitters / frequency estimation.
class SlidingWindowFrequency {
 public:
  /// `epsilon` in (0, 1); `window_size` W is the maximum window width.
  SlidingWindowFrequency(double epsilon, std::uint64_t window_size);

  /// Block width B the stream must be chunked into.
  std::uint64_t block_size() const { return block_size_; }

  /// Inserts the histogram of one completed block (`BuildHistogram` of the
  /// sorted block; `block_elements` elements, == block_size() except for a
  /// final partial block). Entries with block count below the truncation
  /// threshold are dropped to bound space; expired blocks are evicted.
  void AddBlockHistogram(std::span<const HistogramEntry> histogram,
                         std::uint64_t block_elements);

  /// Estimated frequency of `value` over the most recent `window` elements
  /// (0 = the full window_size). Underestimates by at most epsilon * W.
  std::uint64_t EstimateCount(float value, std::uint64_t window = 0) const;

  /// Heavy hitters at `support` over the most recent `window` elements:
  /// contains every value with true in-window frequency >= support * window
  /// (no false negatives). Descending estimated count.
  std::vector<std::pair<float, std::uint64_t>> HeavyHitters(
      double support, std::uint64_t window = 0) const;

  /// Elements currently covered by live blocks.
  std::uint64_t covered_elements() const { return covered_; }

  /// Total histogram entries retained (space usage).
  std::size_t summary_size() const;

  double epsilon() const { return epsilon_; }
  std::uint64_t window_size() const { return window_size_; }

 private:
  struct Block {
    std::vector<HistogramEntry> entries;  ///< sorted by value, truncated
    std::uint64_t elements = 0;
  };

  /// Blocks (newest last) fully contained in the most recent `window`
  /// elements; returns how many of the newest blocks qualify.
  std::size_t LiveBlockCount(std::uint64_t window) const;

  double epsilon_;
  std::uint64_t window_size_;
  std::uint64_t block_size_;
  std::uint64_t truncate_threshold_;
  std::uint64_t covered_ = 0;
  std::deque<Block> blocks_;
};

/// Sliding-window epsilon-approximate quantiles.
class SlidingWindowQuantile {
 public:
  /// `epsilon` in (0, 1); `window_size` W is the maximum window width.
  SlidingWindowQuantile(double epsilon, std::uint64_t window_size);

  /// Block width B the stream must be chunked into.
  std::uint64_t block_size() const { return block_size_; }

  /// Error budget for per-block summaries passed to GkSummary::FromSorted.
  double block_epsilon() const { return epsilon_ / 2.0; }

  /// Inserts the (epsilon/2)-approximate summary of one completed block;
  /// expired blocks are evicted.
  void AddBlockSummary(GkSummary block_summary);

  /// phi-quantile over the most recent `window` elements (0 = full
  /// window_size; a window shorter than the newest block is answered over
  /// that block). Rank error at most epsilon * W. Needs at least one block.
  float Query(double phi, std::uint64_t window = 0) const;

  /// Elements currently covered by live blocks.
  std::uint64_t covered_elements() const { return covered_; }

  /// Total tuples retained (space usage).
  std::size_t summary_size() const;

  double epsilon() const { return epsilon_; }
  std::uint64_t window_size() const { return window_size_; }

 private:
  std::size_t LiveBlockCount(std::uint64_t window) const;

  double epsilon_;
  std::uint64_t window_size_;
  std::uint64_t block_size_;
  std::uint64_t covered_ = 0;
  std::deque<GkSummary> blocks_;
};

}  // namespace streamgpu::sketch

#endif  // STREAMGPU_SKETCH_SLIDING_WINDOW_H_
