// Engine equivalence suite: the vectorized fast path must be indistinguishable
// from the reference per-pixel path, across formats and across pipeline
// parallelism.
//
// The invariant (docs/ARCHITECTURE.md, "Pass-execution engine") is strict:
// byte-identical sorted output and identical GpuStats for every cell of
// {generic, fast} x {kFloat16, kFloat32} x {1, 8 workers}. Host-side engine
// choices — row kernels vs. bilinear loops, framebuffer aliasing, worker
// fan-out — are performance details; any observable divergence is a bug.
//
// The golden test additionally pins the absolute counter values for a fixed
// input, so a change that shifts both paths in lockstep (and would slip past
// the pairwise comparison) still trips the suite.

#include <cstring>
#include <numeric>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "core/status.h"
#include "gpu/device.h"
#include "gpu/half.h"
#include "gpu/rasterizer.h"
#include "gpu/stats.h"
#include "hwmodel/hardware_profiles.h"
#include "sort/pbsn_gpu.h"
#include "stream/generator.h"
#include "stream/window_executor.h"
#include "stream/window_buffer.h"

namespace streamgpu {
namespace {

constexpr std::uint64_t kWindow = 1 << 10;
constexpr int kWindowsPerBatch = 4;

struct RunResult {
  std::vector<float> sorted;   // drained batches, concatenated in order
  gpu::GpuStats stats;         // summed over all worker devices
  double simulated_seconds = 0;
};

// RAII guard: the raster path is process-global, restore it on test exit.
class ScopedRasterPath {
 public:
  explicit ScopedRasterPath(gpu::RasterPath path) : saved_(gpu::Rasterizer::path()) {
    gpu::Rasterizer::SetPath(path);
  }
  ~ScopedRasterPath() { gpu::Rasterizer::SetPath(saved_); }

 private:
  gpu::RasterPath saved_;
};

// Streams `data` through a WindowBatcher -> WindowExecutor with `workers`
// PBSN sorters (one simulated device each) under the given raster path.
RunResult RunPipeline(gpu::RasterPath path, gpu::Format format, int workers,
                      const std::vector<float>& data) {
  ScopedRasterPath scoped(path);

  std::vector<gpu::GpuDevice> devices(workers);
  std::vector<sort::PbsnGpuSorter> sorters;
  sorters.reserve(workers);
  sort::PbsnOptions opt;
  opt.format = format;
  for (int w = 0; w < workers; ++w) {
    sorters.emplace_back(&devices[w], hwmodel::kGeForce6800Ultra,
                         hwmodel::kPentium4_3400, opt);
  }
  std::vector<sort::Sorter*> sorter_ptrs;
  for (auto& s : sorters) sorter_ptrs.push_back(&s);

  RunResult result;
  {
    stream::WindowExecutor executor(
        {}, sorter_ptrs, [&result](stream::WindowBatch& batch) {
          const std::vector<float>& sorted = batch.chunks.front().data;
          result.sorted.insert(result.sorted.end(), sorted.begin(), sorted.end());
          result.simulated_seconds += batch.run.simulated_seconds;
          return core::Status::Ok();
        });
    stream::WindowBatcher batcher(kWindow, kWindowsPerBatch);
    for (float v : data) {
      if (batcher.Push(v)) executor.SubmitStaged(batcher);
    }
    if (!batcher.empty()) executor.SubmitStaged(batcher);
    executor.WaitIdle();
  }
  for (const auto& d : devices) result.stats += d.stats();
  return result;
}

// 6 full batches plus a trailing partial batch (odd window count, partial
// final window) so run padding is exercised too.
std::vector<float> TestData() {
  stream::StreamGenerator gen(
      {.distribution = stream::Distribution::kUniformReal, .seed = 1234});
  auto data = gen.Take(kWindow * kWindowsPerBatch * 6 + kWindow * 2 + 100);
  // Sprinkle duplicates and exact-tie values across window boundaries.
  for (std::size_t i = 0; i < data.size(); i += 97) data[i] = 0.5f;
  for (std::size_t i = 50; i < data.size(); i += 131) data[i] = data[i / 2];
  return data;
}

std::string FormatName(gpu::Format f) {
  return f == gpu::Format::kFloat16 ? "kFloat16" : "kFloat32";
}

TEST(EngineEquivalenceTest, FastMatchesGenericAcrossFormatsAndWorkers) {
  const auto data = TestData();

  for (gpu::Format format : {gpu::Format::kFloat16, gpu::Format::kFloat32}) {
    SCOPED_TRACE(FormatName(format));
    // Reference: the per-pixel bilinear path, serial.
    const RunResult golden =
        RunPipeline(gpu::RasterPath::kGeneric, format, /*workers=*/1, data);
    ASSERT_EQ(golden.sorted.size(), data.size());

    for (gpu::RasterPath path : {gpu::RasterPath::kGeneric, gpu::RasterPath::kFast}) {
      for (int workers : {1, 8}) {
        SCOPED_TRACE(testing::Message()
                     << (path == gpu::RasterPath::kFast ? "fast" : "generic")
                     << " workers=" << workers);
        const RunResult got = RunPipeline(path, format, workers, data);

        ASSERT_EQ(got.sorted.size(), golden.sorted.size());
        // Byte-identical output: memcmp, not float compare — -0.0 vs 0.0 or a
        // NaN payload change must fail.
        EXPECT_EQ(std::memcmp(got.sorted.data(), golden.sorted.data(),
                              golden.sorted.size() * sizeof(float)),
                  0);
        EXPECT_EQ(got.stats, golden.stats);
        EXPECT_DOUBLE_EQ(got.simulated_seconds, golden.simulated_seconds);
      }
    }
  }
}

// The sorted output must also be *correct*: each window ascending, and for
// kFloat16 equal to the sort of the binary16-quantized input (quantization
// happens at upload; the comparator network then only moves values around).
TEST(EngineEquivalenceTest, FastPathSortsWindowsCorrectly) {
  const auto data = TestData();

  for (gpu::Format format : {gpu::Format::kFloat16, gpu::Format::kFloat32}) {
    SCOPED_TRACE(FormatName(format));
    const RunResult got =
        RunPipeline(gpu::RasterPath::kFast, format, /*workers=*/8, data);
    ASSERT_EQ(got.sorted.size(), data.size());

    for (std::size_t off = 0; off < data.size(); off += kWindow) {
      const std::size_t len = std::min<std::size_t>(kWindow, data.size() - off);
      std::vector<float> expect(data.begin() + off, data.begin() + off + len);
      if (format == gpu::Format::kFloat16) {
        for (float& v : expect) v = gpu::QuantizeToHalf(v);
      }
      std::sort(expect.begin(), expect.end());
      ASSERT_EQ(std::memcmp(got.sorted.data() + off, expect.data(),
                            len * sizeof(float)),
                0)
          << "window at offset " << off;
    }
  }
}

// Golden counters for one fixed 4-window batch. These values are part of the
// simulated-2005 contract: the cost model consumes them, so any engine change
// that moves them changes reported simulated milliseconds. Update only with a
// corresponding cost-model justification.
TEST(EngineEquivalenceTest, GoldenStatsForFixedBatch) {
  ScopedRasterPath scoped(gpu::RasterPath::kFast);

  stream::StreamGenerator gen(
      {.distribution = stream::Distribution::kUniformReal, .seed = 99});
  auto data = gen.Take(kWindow * kWindowsPerBatch);

  gpu::GpuDevice device;
  sort::PbsnOptions opt;
  opt.format = gpu::Format::kFloat16;
  sort::PbsnGpuSorter sorter(&device, hwmodel::kGeForce6800Ultra,
                             hwmodel::kPentium4_3400, opt);
  std::vector<std::span<float>> runs;
  for (int w = 0; w < kWindowsPerBatch; ++w) {
    runs.emplace_back(data.data() + w * kWindow, kWindow);
  }
  sorter.SortRuns(runs);

  const gpu::GpuStats& s = device.stats();
  EXPECT_EQ(s.framebuffer_binds, 1u);
  // PBSN on a 32x32 texture: log2(1024)=10 -> 10 stages x 10 steps.
  EXPECT_EQ(s.fb_to_texture_copies, 100u);
  EXPECT_EQ(s.fragments_shaded, s.blend_fragments + 1024u * kWindowsPerBatch / 4u);
  EXPECT_EQ(s.texture_fetches, s.fragments_shaded);
  EXPECT_EQ(s.bytes_uploaded, kWindow * kWindowsPerBatch * sizeof(float) / 2);
  EXPECT_EQ(s.bytes_readback, kWindow * kWindowsPerBatch * sizeof(float) / 2);
  EXPECT_GT(s.bytes_vram, 0u);

  // Absolute counter pins (regenerate with STREAMGPU_RASTER_PATH=generic to
  // confirm both paths still agree before updating).
  EXPECT_EQ(s.draw_calls, 1241u);
  EXPECT_EQ(s.blend_fragments, 102400u);
  const gpu::GpuStats fast = s;

  // And the generic path lands on the same counters.
  gpu::Rasterizer::SetPath(gpu::RasterPath::kGeneric);
  gpu::GpuDevice device2;
  sort::PbsnGpuSorter sorter2(&device2, hwmodel::kGeForce6800Ultra,
                              hwmodel::kPentium4_3400, opt);
  auto data2 = stream::StreamGenerator(
                   {.distribution = stream::Distribution::kUniformReal, .seed = 99})
                   .Take(kWindow * kWindowsPerBatch);
  std::vector<std::span<float>> runs2;
  for (int w = 0; w < kWindowsPerBatch; ++w) {
    runs2.emplace_back(data2.data() + w * kWindow, kWindow);
  }
  sorter2.SortRuns(runs2);
  EXPECT_EQ(device2.stats(), fast);
}

}  // namespace
}  // namespace streamgpu
