// Second-generation CPU sorting backend: cache-blocked LSD radix sort with a
// loser-tree merge of the blocks ("radix/merge").
//
// The paper's CPU baseline (§3.2) is a comparison sort whose costs are branch
// mispredicts and cache misses; the GPU-sorting literature that followed the
// paper (see PAPERS.md: the GPU sample-sort line and the sorting survey)
// replaced comparison networks with distribution sorts. This backend is the
// host-side member of that generation: floats are mapped to order-preserving
// unsigned keys, sorted by byte-wise counting passes (no comparison branches
// at all), in chunks sized to stay cache-resident, and the sorted chunks are
// combined with the existing loser-tree merge. It is the library's fast CPU
// path — the planner's small-window pick and the ResilientSorter degrade
// target (docs/SORT_BACKENDS.md, docs/ROBUSTNESS.md).
//
// Determinism contract: the output is a pure function of the input's float
// bit patterns — elements are ordered by their order-preserving key
// transform, which totally orders every bit pattern (-0.0 before +0.0, NaNs
// above +inf by payload). Re-running on any host, at any optimization level,
// produces byte-identical output. No RNG, no wall clock, no address-dependent
// behavior.
//
// Thread safety: a RadixMergeSorter instance is NOT thread-safe (it reuses
// internal scratch across calls, like every other backend); distinct
// instances are fully independent and may run concurrently — the pipeline
// gives each worker its own instance.

#ifndef STREAMGPU_SORT_RADIX_SORT_H_
#define STREAMGPU_SORT_RADIX_SORT_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/float_order.h"
#include "hwmodel/cpu_model.h"
#include "sort/sorter.h"

namespace streamgpu::sort {

/// Sorts `keys` ascending in place with byte-wise LSD counting passes
/// (insertion sort below a small cutoff). `scratch` is resized to
/// keys.size() and its capacity is reused across calls. Deterministic and
/// branch-predictable; performs zero key comparisons above the cutoff.
void RadixSortKeys(std::span<std::uint32_t> keys, std::vector<std::uint32_t>* scratch);

/// Merges `runs` (each ascending) into `out` with a loser tree over the key
/// space: ceil(log2 k) comparisons per output element, stable toward lower
/// run indices on ties. Returns the number of key comparisons performed.
std::uint64_t MergeKeyRuns(std::span<const std::span<const std::uint32_t>> runs,
                           std::span<std::uint32_t> out);

/// Cache-blocked radix/merge Sorter over the order-preserving key transform.
/// Simulated-2005 timing charges the Pentium IV model's radix + merge
/// formulas (hwmodel::CpuModel::{RadixSortSeconds,MergeSeconds}); see
/// docs/COST_MODEL.md. last_run().comparisons counts only the merge stage
/// (the counting passes are comparison-free).
class RadixMergeSorter final : public Sorter {
 public:
  /// Keys per cache-resident chunk: 256K keys = 1 MB, sized so one chunk plus
  /// its scatter buffer stay within a typical per-core L2.
  static constexpr std::size_t kChunkKeys = std::size_t{1} << 18;

  explicit RadixMergeSorter(const hwmodel::CpuHardwareProfile& profile)
      : model_(profile) {}

  void Sort(std::span<float> data) override;
  const SortRunInfo& last_run() const override { return last_run_; }
  const char* name() const override { return "cpu-radix"; }

 protected:
  void set_last_run(const SortRunInfo& info) override { last_run_ = info; }

 private:
  hwmodel::CpuModel model_;
  SortRunInfo last_run_;

  // Reusable scratch (capacity persists across calls): the key plane, the
  // counting-scatter buffer, the merged output, and the run-view list.
  std::vector<std::uint32_t> keys_;
  std::vector<std::uint32_t> radix_scratch_;
  std::vector<std::uint32_t> merge_out_;
  std::vector<std::span<const std::uint32_t>> run_views_;
};

}  // namespace streamgpu::sort

#endif  // STREAMGPU_SORT_RADIX_SORT_H_
