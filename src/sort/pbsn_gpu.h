// The paper's novel GPU sorting algorithm (§4): the periodic balanced
// sorting network executed entirely with rasterization — comparator mappings
// via quad texture coordinates, comparisons via MIN/MAX framebuffer blending
// (Routines 4.1-4.4).
//
// Four independent subsequences are packed into the RGBA channels of one 2-D
// texture and sorted simultaneously by the 4-wide vector blend units; a
// CPU-side 4-way merge combines the sorted runs (§4.4).

#ifndef STREAMGPU_SORT_PBSN_GPU_H_
#define STREAMGPU_SORT_PBSN_GPU_H_

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "gpu/device.h"
#include "hwmodel/cpu_model.h"
#include "hwmodel/gpu_model.h"
#include "sort/sorter.h"

namespace streamgpu::sort {

/// Configuration of the GPU PBSN sorter.
struct PbsnOptions {
  /// Render-target and texture precision. The paper's optimized
  /// implementation uses 16-bit offscreen buffers (§4.5); kFloat16
  /// reproduces that (values are quantized through binary16).
  gpu::Format format = gpu::Format::kFloat32;

  /// Pack four subsequences into the RGBA channels and merge on the CPU
  /// (§4.4). When false, only the R channel carries data — the ablation
  /// for the vector-parallelism design choice.
  bool use_four_channels = true;

  /// Use the row-block fast path of Routine 4.4 / Fig. 2, which renders
  /// one quad of height H per row block when B <= W. When false, each
  /// block of each row is rendered with its own height-1 quads —
  /// identical fragments, many more draw calls (setup-cost ablation).
  bool use_row_block_optimization = true;
};

/// GPU PBSN sorter over a simulated device.
class PbsnGpuSorter final : public Sorter {
 public:
  using Options = PbsnOptions;

  /// The device is borrowed and must outlive the sorter. Hardware profiles
  /// drive the simulated timing of the GPU passes and the CPU merge.
  PbsnGpuSorter(gpu::GpuDevice* device, const hwmodel::GpuHardwareProfile& gpu_profile,
                const hwmodel::CpuHardwareProfile& cpu_profile,
                Options options = Options());

  void Sort(std::span<float> data) override;

  /// Sorts several independent runs, four at a time through the RGBA
  /// channels of a shared texture (the paper's four-window buffering, §4.1).
  /// Runs in one group are padded to the longest run's power-of-two size.
  void SortRuns(std::span<std::span<float>> runs) override;

  const SortRunInfo& last_run() const override { return last_run_; }
  const char* name() const override { return "gpu-pbsn"; }

  /// Device work counters for the most recent Sort() call.
  const gpu::GpuStats& last_stats() const { return last_stats_; }

  /// Simulated GPU time breakdown of the most recent Sort() call (Fig. 4).
  const hwmodel::GpuTimeBreakdown& last_breakdown() const { return last_breakdown_; }

  /// The stage recorded for the most recent texture shape that has one
  /// (host-side inspection in tests; see SortGroup).
  const gpu::StageProgram& stage_program() const { return stage_; }

  const Options& options() const { return options_; }

 protected:
  void set_last_run(const SortRunInfo& info) override { last_run_ = info; }

 private:
  /// Uploads up to four runs into one texture, runs the full PBSN schedule,
  /// and reads the sorted runs back in place. Accumulates stats/timing into
  /// the current call's record. The first group of a texture shape records
  /// one stage into stage_, and every stage replays it where the device
  /// accepts (gpu::GpuDevice::ReplayStage); elsewhere the stage's quads are
  /// drawn one by one, the reference.
  void SortGroup(const std::array<std::span<float>, gpu::kNumChannels>& runs);

  gpu::GpuDevice* device_;
  hwmodel::GpuModel gpu_model_;
  hwmodel::CpuModel cpu_model_;
  Options options_;
  SortRunInfo last_run_;
  gpu::GpuStats last_stats_;
  hwmodel::GpuTimeBreakdown last_breakdown_;
  gpu::StageProgram stage_;

  // Reusable scratch (capacity persists across calls, so the steady-state
  // window loop performs no heap allocation): the upload/readback staging
  // plane and the CPU-merge buffers of Sort().
  std::vector<float> staging_;
  std::vector<float> merge_out_;
  std::vector<float> merge_scratch_;
};

}  // namespace streamgpu::sort

#endif  // STREAMGPU_SORT_PBSN_GPU_H_
