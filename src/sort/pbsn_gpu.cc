#include "sort/pbsn_gpu.h"

#include <algorithm>
#include <array>
#include <limits>
#include <vector>

#include "common/check.h"
#include "common/timer.h"
#include "gpu/vertex.h"
#include "sort/merge.h"
#include "sort/pbsn_network.h"

namespace streamgpu::sort {

namespace {

constexpr float kPad = std::numeric_limits<float>::infinity();

// Texture dimensions for M = 2^L texels: width 2^ceil(L/2), height the rest,
// so W >= H and both are powers of two (§4.4, Routine 4.3).
void TextureDims(std::int64_t padded, int* width, int* height) {
  const int levels = CeilLog2(static_cast<std::uint64_t>(padded));
  *width = 1 << ((levels + 1) / 2);
  *height = 1 << (levels / 2);
}

// Fig. 2 (left): blocks lie within rows. One quad per row block covers the
// same columns of every row; the texture u coordinate mirrors the block
// (u(x) = 2*offset + B - x) and v is the identity.
template <typename Draw>
void RowBlockStep(int width, int height, std::int64_t block_size, bool row_block_optimization,
                  Draw&& draw) {
  const auto b = static_cast<float>(block_size);
  const float h = static_cast<float>(height);
  const std::int64_t num_row_blocks = width / block_size;
  for (std::int64_t j = 0; j < num_row_blocks; ++j) {
    const float off = static_cast<float>(j * block_size);
    const float row_span = row_block_optimization ? h : 1.0f;
    for (float y0 = 0; y0 < h; y0 += row_span) {
      const float y1 = y0 + row_span;
      // ComputeRowMin: lower half of the block keeps the minimum.
      draw(gpu::BlendOp::kMin, gpu::Quad::Make(off, y0, off + b / 2, y1,        //
                                               off + b, y0, off + b / 2, y0,    //
                                               off + b / 2, y1, off + b, y1));
      // ComputeRowMax: upper half keeps the maximum.
      draw(gpu::BlendOp::kMax, gpu::Quad::Make(off + b / 2, y0, off + b, y1,    //
                                               off + b / 2, y0, off, y0,        //
                                               off, y1, off + b / 2, y1));
    }
  }
}

// Fig. 2 (right): blocks span block_size/width full rows. The u coordinate
// mirrors the columns and v mirrors the block's rows (Routine 4.2).
template <typename Draw>
void TallBlockStep(int width, int height, std::int64_t block_size, Draw&& draw) {
  const float w = static_cast<float>(width);
  const std::int64_t block_height = block_size / width;
  STREAMGPU_CHECK(block_height >= 2 && block_height % 2 == 0);
  const std::int64_t num_blocks =
      static_cast<std::int64_t>(width) * height / block_size;
  const auto bh = static_cast<float>(block_height);
  for (std::int64_t i = 0; i < num_blocks; ++i) {
    const float r = static_cast<float>(i * block_height);
    // ComputeMin over the block's lower half-rows.
    draw(gpu::BlendOp::kMin, gpu::Quad::Make(0, r, w, r + bh / 2,        //
                                             w, r + bh, 0, r + bh,       //
                                             0, r + bh / 2, w, r + bh / 2));
    // ComputeMax over the block's upper half-rows.
    draw(gpu::BlendOp::kMax, gpu::Quad::Make(0, r + bh / 2, w, r + bh,   //
                                             w, r + bh / 2, 0, r + bh / 2,  //
                                             0, r, w, r));
  }
}

// One step of the sorting network at the given block size: hands the MIN
// and MAX comparator quads of Routine 4.4 / Fig. 2 to `draw(op, quad)` in
// drawing order.
template <typename Draw>
void SortStep(int width, int height, std::int64_t block_size, bool row_block_optimization,
              Draw&& draw) {
  if (block_size <= width) {
    RowBlockStep(width, height, block_size, row_block_optimization, draw);
  } else {
    TallBlockStep(width, height, block_size, draw);
  }
}

}  // namespace

PbsnGpuSorter::PbsnGpuSorter(gpu::GpuDevice* device,
                             const hwmodel::GpuHardwareProfile& gpu_profile,
                             const hwmodel::CpuHardwareProfile& cpu_profile,
                             Options options)
    : device_(device),
      gpu_model_(gpu_profile),
      cpu_model_(cpu_profile),
      options_(options) {
  STREAMGPU_CHECK(device != nullptr);
}

void PbsnGpuSorter::Sort(std::span<float> data) {
  Timer timer;
  last_run_ = SortRunInfo{};
  last_stats_ = gpu::GpuStats{};
  last_breakdown_ = hwmodel::GpuTimeBreakdown{};
  const std::int64_t n = static_cast<std::int64_t>(data.size());
  if (n == 0) {
    last_run_.wall_seconds = timer.ElapsedSeconds();
    return;
  }

  std::array<std::span<float>, gpu::kNumChannels> group;
  if (options_.use_four_channels) {
    // Split into four contiguous subsequences, one per color channel (§4.4).
    const std::int64_t per_channel = (n + gpu::kNumChannels - 1) / gpu::kNumChannels;
    for (int c = 0; c < gpu::kNumChannels; ++c) {
      const std::int64_t begin = std::min<std::int64_t>(n, c * per_channel);
      const std::int64_t end = std::min<std::int64_t>(n, begin + per_channel);
      group[c] = data.subspan(static_cast<std::size_t>(begin),
                              static_cast<std::size_t>(end - begin));
    }
  } else {
    group[0] = data;
  }
  SortGroup(group);

  std::uint64_t merge_comparisons = 0;
  if (options_.use_four_channels) {
    // The four sorted channel runs are merged in software (§4.4).
    merge_out_.resize(static_cast<std::size_t>(n));
    std::array<std::span<const float>, gpu::kNumChannels> views;
    for (int c = 0; c < gpu::kNumChannels; ++c) views[c] = group[c];
    merge_comparisons = FourWayMerge(views, merge_out_, &merge_scratch_);
    std::copy(merge_out_.begin(), merge_out_.end(), data.begin());
    last_run_.sim_merge_seconds =
        cpu_model_.MergeSeconds(static_cast<std::uint64_t>(n), 4, sizeof(float));
  }

  last_run_.wall_seconds = timer.ElapsedSeconds();
  last_run_.sim_device_seconds = last_breakdown_.DeviceSeconds();
  last_run_.sim_transfer_seconds = last_breakdown_.transfer_s;
  last_run_.simulated_seconds = last_breakdown_.TotalSeconds() + last_run_.sim_merge_seconds;
  last_run_.comparisons = last_stats_.ScalarComparisons() + merge_comparisons;
}

void PbsnGpuSorter::SortRuns(std::span<std::span<float>> runs) {
  Timer timer;
  last_run_ = SortRunInfo{};
  last_stats_ = gpu::GpuStats{};
  last_breakdown_ = hwmodel::GpuTimeBreakdown{};

  // Buffer four runs (stream windows) per texture, one per color channel
  // (§4.1: "we buffer four windows of data values and represent each of the
  // windows in a color component").
  const int group_width = options_.use_four_channels ? gpu::kNumChannels : 1;
  for (std::size_t base = 0; base < runs.size(); base += group_width) {
    std::array<std::span<float>, gpu::kNumChannels> group;
    for (int c = 0; c < group_width && base + c < runs.size(); ++c) {
      group[c] = runs[base + c];
    }
    SortGroup(group);
  }

  last_run_.wall_seconds = timer.ElapsedSeconds();
  last_run_.sim_device_seconds = last_breakdown_.DeviceSeconds();
  last_run_.sim_transfer_seconds = last_breakdown_.transfer_s;
  last_run_.simulated_seconds = last_breakdown_.TotalSeconds();
  last_run_.comparisons = last_stats_.ScalarComparisons();
}

void PbsnGpuSorter::SortGroup(const std::array<std::span<float>, gpu::kNumChannels>& runs) {
  std::int64_t longest = 0;
  for (const auto& run : runs) {
    longest = std::max<std::int64_t>(longest, static_cast<std::int64_t>(run.size()));
  }
  if (longest == 0) return;

  const std::int64_t padded = longest < 2
                                  ? 1
                                  : static_cast<std::int64_t>(NextPowerOfTwo(
                                        static_cast<std::uint64_t>(longest)));
  int width = 0;
  int height = 0;
  TextureDims(padded, &width, &height);
  STREAMGPU_CHECK(static_cast<std::int64_t>(width) * height == padded);

  const gpu::GpuStats before = device_->stats();

  // --- Transfer the runs to the GPU as one RGBA texture (§4.1). ---
  // The staging plane is a reusable member: same-sized windows (the steady
  // state of every stream pipeline) never reallocate it.
  gpu::TextureHandle tex = device_->CreateTexture(width, height, options_.format);
  staging_.resize(static_cast<std::size_t>(padded));
  for (int c = 0; c < gpu::kNumChannels; ++c) {
    std::copy(runs[c].begin(), runs[c].end(), staging_.begin());
    std::fill(staging_.begin() + static_cast<std::ptrdiff_t>(runs[c].size()),
              staging_.end(), kPad);
    device_->UploadChannel(tex, c, staging_);
  }

  // --- Routine 4.3: copy into the framebuffer, then log(M) stages of ---
  // --- log(M) steps, copying back into the texture after each step.  ---
  device_->BindFramebuffer(width, height, options_.format);
  device_->SetBlend(gpu::BlendOp::kReplace);
  device_->DrawQuad(tex, gpu::Quad::Identity(0, 0, static_cast<float>(width),
                                             static_cast<float>(height)));

  // The network is periodic: every stage issues the same steps, so the first
  // group of a texture shape records one stage for the device to replay.
  const int stages = CeilLog2(static_cast<std::uint64_t>(padded));
  const bool row_blocks = options_.use_row_block_optimization;
  if (stages > 0 && (stage_.width() != width || stage_.height() != height)) {
    // Counted first: a program replays only once exactly the declared
    // draws were recorded.
    std::size_t draws = 0;
    for (std::int64_t block = padded; block >= 2; block /= 2) {
      SortStep(width, height, block, row_blocks,
               [&draws](gpu::BlendOp, const gpu::Quad&) { ++draws; });
    }
    stage_.Reset(width, height, draws);
    for (std::int64_t block = padded; block >= 2; block /= 2) {
      SortStep(width, height, block, row_blocks,
               [this](gpu::BlendOp op, const gpu::Quad& quad) { stage_.Add(quad, op); });
      stage_.EndStep();
    }
  }
  for (int stage = 0; stage < stages; ++stage) {
    if (device_->ReplayStage(tex, stage_)) continue;
    for (std::int64_t block = padded; block >= 2; block /= 2) {
      SortStep(width, height, block, row_blocks,
               [this, tex](gpu::BlendOp op, const gpu::Quad& quad) {
                 device_->SetBlend(op);
                 device_->DrawQuad(tex, quad);
               });
      device_->CopyFramebufferToTexture(tex);
    }
  }

  // --- Read the sorted channels back (§4.1). ---
  for (int c = 0; c < gpu::kNumChannels; ++c) {
    device_->ReadbackChannel(c, staging_);
    std::copy_n(staging_.begin(), runs[c].size(), runs[c].begin());
  }

  const gpu::GpuStats delta = device_->stats() - before;
  last_stats_ += delta;
  const hwmodel::GpuTimeBreakdown b = gpu_model_.Simulate(delta);
  last_breakdown_.compute_s += b.compute_s;
  last_breakdown_.memory_s += b.memory_s;
  last_breakdown_.setup_s += b.setup_s;
  last_breakdown_.transfer_s += b.transfer_s;

  device_->DestroyAllTextures();
}

}  // namespace streamgpu::sort
