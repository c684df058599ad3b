// Per-operation cost accounting for a whole estimator pipeline: the
// sort / merge / compress split that Fig. 6 reports, in both host wall-clock
// and simulated 2005-hardware time.
//
// Two clocks coexist here — docs/COST_MODEL.md explains the split in full:
// * `*_wall_seconds` fields time the simulator itself on the host and depend
//   on load, worker count, and machine. They never feed the simulated model.
// * Operation counts (`histogram_elements`, `merged_entries`, ...) are exact
//   and deterministic; the Simulated*Seconds() helpers convert them into
//   2005-testbed time via hwmodel. Pipelined execution (Options::
//   num_sort_workers >= 2) changes the wall-clock fields but leaves every
//   count — and therefore every simulated figure — bit-identical to serial.

#ifndef STREAMGPU_CORE_COSTS_H_
#define STREAMGPU_CORE_COSTS_H_

#include <cstdint>

#include "hwmodel/cpu_model.h"
#include "sort/sorter.h"

namespace streamgpu::core {

/// Accumulated cost record of one estimator.
struct PipelineCosts {
  /// Sorting work (GPU or CPU depending on backend), accumulated over every
  /// window.
  sort::SortRunInfo sort;

  /// Host wall-clock of the non-sort summary operations. A combine that
  /// merges and prunes in one pass (GkSummary::MergePruned) counts as
  /// compress time; merge time covers the run merges only.
  double histogram_wall_seconds = 0;
  double merge_wall_seconds = 0;
  double compress_wall_seconds = 0;

  /// Operation counts feeding the P4 model for the non-sort operations
  /// (these always run on the CPU, in both backend configurations).
  std::uint64_t histogram_elements = 0;
  std::uint64_t merged_entries = 0;
  std::uint64_t compressed_entries = 0;

  /// Wall-clock overlap accounting of the parallel ingest pipeline (zero in
  /// serial mode). Mirrors stream::PipelineWaitStats; host wall-clock only,
  /// never part of the simulated totals.
  double ingest_stall_seconds = 0;       ///< Observe() blocked on backpressure
  double sort_queue_wait_seconds = 0;    ///< batches waited for a free worker
  double drain_queue_wait_seconds = 0;   ///< sorted batches waited for in-order drain
  double sort_wall_seconds = 0;          ///< summed worker time inside SortRuns
  double drain_wall_seconds = 0;         ///< summary-thread time merging windows
  std::uint64_t pipelined_batches = 0;   ///< batches that went through the pipeline

  /// Simulated P4 time of the histogram scan (linear pass over each sorted
  /// window).
  double SimulatedHistogramSeconds(const hwmodel::CpuModel& model) const {
    return model.LinearPassSeconds(histogram_elements, sizeof(float),
                                   /*cycles_per_element=*/3.0);
  }

  /// Simulated P4 time of summary merges (linear merge of sorted entry
  /// lists; an entry is ~16 bytes).
  double SimulatedMergeSeconds(const hwmodel::CpuModel& model) const {
    return model.LinearPassSeconds(merged_entries, 16, /*cycles_per_element=*/8.0);
  }

  /// Simulated P4 time of compress passes.
  double SimulatedCompressSeconds(const hwmodel::CpuModel& model) const {
    return model.LinearPassSeconds(compressed_entries, 16, /*cycles_per_element=*/4.0);
  }

  /// End-to-end simulated time: sort (backend hardware) + summary
  /// operations (always CPU).
  double SimulatedTotalSeconds(const hwmodel::CpuModel& model) const {
    return sort.simulated_seconds + SimulatedHistogramSeconds(model) +
           SimulatedMergeSeconds(model) + SimulatedCompressSeconds(model);
  }
};

}  // namespace streamgpu::core

#endif  // STREAMGPU_CORE_COSTS_H_
