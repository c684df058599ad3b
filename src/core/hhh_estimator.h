// Public API: hierarchical heavy hitters over a stream (§1.2's extension
// query), with the per-window sort running on the configured backend. One
// sort serves every hierarchy level: generalization (integer division by the
// branching factor) is monotone, so each level's histogram is a linear scan
// of the same GPU-sorted window.

#ifndef STREAMGPU_CORE_HHH_ESTIMATOR_H_
#define STREAMGPU_CORE_HHH_ESTIMATOR_H_

#include <cstdint>
#include <span>
#include <vector>

#include "core/backend.h"
#include "core/costs.h"
#include "core/options.h"
#include "sketch/hierarchical.h"
#include "stream/window_buffer.h"
#include "stream/window_executor.h"

namespace streamgpu::core {

/// Streaming hierarchical heavy-hitter estimator.
class HhhEstimator {
 public:
  /// `levels` hierarchy levels above the leaves, aggregated by `branch`
  /// per level (see sketch::HierarchicalHeavyHitters). Sliding windows are
  /// not supported for this query type; options.sliding_window must be 0.
  HhhEstimator(const Options& options, int levels, double branch = 2.0);

  /// Processes one stream element.
  void Observe(float value);

  /// Processes a batch of stream elements.
  void ObserveBatch(std::span<const float> values);

  /// Processes any buffered windows, including a final partial one.
  void Flush();

  /// Hierarchical heavy hitters at `support` over the processed prefix.
  std::vector<sketch::HhhResult> Query(double support) const {
    return hhh_.Query(support);
  }

  /// Estimated subtree frequency of `prefix` at `level`.
  std::uint64_t EstimateCount(float prefix, int level) const;

  std::uint64_t processed_length() const { return hhh_.stream_length(); }
  std::size_t summary_size() const { return hhh_.summary_size(); }

  /// Accumulated costs; the sort entry reflects the configured backend.
  const PipelineCosts& costs() const { return costs_; }

  /// Simulated end-to-end 2005-hardware seconds.
  double SimulatedSeconds() const { return costs_.SimulatedTotalSeconds(cpu_model_); }

  const Options& options() const { return options_; }

 private:
  /// The executor's drain: feeds each sorted window to every hierarchy
  /// level (one sort serves them all).
  Status MergeBatch(stream::WindowBatch& batch);

  Options options_;
  SortEngine engine_;
  stream::WindowBatcher batcher_;
  sketch::HierarchicalHeavyHitters hhh_;
  hwmodel::CpuModel cpu_model_;
  PipelineCosts costs_;
  /// Inline (one-sorter) executor; declared last, after what its drain uses.
  stream::WindowExecutor executor_;
};

}  // namespace streamgpu::core

#endif  // STREAMGPU_CORE_HHH_ESTIMATOR_H_
