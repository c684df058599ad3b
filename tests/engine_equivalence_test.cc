// Engine equivalence suite: the vectorized fast path must be indistinguishable
// from the reference per-pixel path, across formats and across pipeline
// parallelism.
//
// The invariant (docs/ARCHITECTURE.md, "Pass-execution engine") is strict:
// byte-identical sorted output and identical GpuStats for every cell of
// {generic, fast, check} x {kFloat16, kFloat32} x {1, 8 workers}, over
// 1,024-element windows (32x32 textures), 2,048-element windows (64x32) and
// 1-element windows (1x1), with ±0, ±inf, NaN, binary16 subnormals and values
// past the binary16 range in the stream. Host-side engine choices — row
// kernels vs. bilinear loops, framebuffer aliasing, worker fan-out — are
// performance details; any observable divergence is a bug. The check path
// compares every draw's output bit for bit, not only the readback.
//
// The golden test additionally pins the absolute counter values for a fixed
// input, so a change that shifts both paths in lockstep (and would slip past
// the pairwise comparison) still trips the suite.

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <limits>
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
// PBSN sorters (one simulated device each) under the given raster path, in
// windows of `window` elements.
RunResult RunPipeline(gpu::RasterPath path, gpu::Format format, int workers,
                      const std::vector<float>& data, std::uint64_t window = kWindow) {
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
          for (const sort::SortRunInfo& run : batch.sorts) {
            result.simulated_seconds += run.simulated_seconds;
          }
          return core::Status::Ok();
        });
    stream::WindowBatcher batcher(window, kWindowsPerBatch);
    for (float v : data) {
      if (batcher.Push(v)) executor.SubmitStaged(batcher);
    }
    if (!batcher.empty()) executor.SubmitStaged(batcher);
    executor.WaitIdle();
  }
  for (const auto& d : devices) result.stats += d.stats();
  return result;
}

// Ordered values outside [0, 1) that streams carry: signed zeros,
// infinities, binary16 subnormals (exact and between two subnormals), the
// binary16 range edge and values past it (infinite in binary16), a float
// subnormal (zero in binary16) and a value that rounds at binary16 precision.
const std::vector<float>& SpecialValues() {
  static const std::vector<float> values = {
      0.0f,
      -0.0f,
      std::numeric_limits<float>::infinity(),
      -std::numeric_limits<float>::infinity(),
      std::ldexp(1.0f, -24),
      -std::ldexp(1.0f, -24),
      std::ldexp(3.0f, -20),
      std::ldexp(1.5f, -24),
      std::ldexp(1023.0f, -24),
      65504.0f,
      -65504.0f,
      65519.0f,
      65520.0f,
      1e6f,
      -3e38f,
      std::numeric_limits<float>::denorm_min(),
      1.0f / 3.0f,
  };
  return values;
}

// `windows` full windows of `window` elements plus, for `window` > 100, a
// trailing 100-element window (an odd window count and a partial final window
// exercise run padding): uniform reals in [0, 1) with duplicates, exact ties
// across window boundaries, and SpecialValues() at every `special_every`-th
// element.
std::vector<float> TestData(std::uint64_t window = kWindow,
                            std::uint64_t windows = kWindowsPerBatch * 6 + 2,
                            std::size_t special_every = 61) {
  stream::StreamGenerator gen(
      {.distribution = stream::Distribution::kUniformReal, .seed = 1234});
  auto data = gen.Take(window * windows + (window > 100 ? 100 : 0));
  for (std::size_t i = 0; i < data.size(); i += 97) data[i] = 0.5f;
  for (std::size_t i = 50; i < data.size(); i += 131) data[i] = data[i / 2];
  const std::vector<float>& special = SpecialValues();
  for (std::size_t i = 3, k = 0; i < data.size(); i += special_every, ++k) {
    data[i] = special[k % special.size()];
  }
  return data;
}

// `data` with NaNs of both signs, and one with a payload, at every `every`-th
// element. MIN/MAX comparators do not order NaNs, so the windows come out
// unsorted; only the fast-vs-generic comparison, which needs no order, uses
// these.
std::vector<float> WithNaNs(std::vector<float> data, std::size_t every = 173) {
  const float nans[] = {std::numeric_limits<float>::quiet_NaN(),
                        -std::numeric_limits<float>::quiet_NaN(),
                        std::bit_cast<float>(0x7FC01234u)};
  for (std::size_t i = 7, k = 0; i < data.size(); i += every, ++k) data[i] = nans[k % 3];
  return data;
}

std::string FormatName(gpu::Format f) {
  return f == gpu::Format::kFloat16 ? "kFloat16" : "kFloat32";
}

const char* PathName(gpu::RasterPath path) {
  switch (path) {
    case gpu::RasterPath::kFast:
      return "fast";
    case gpu::RasterPath::kGeneric:
      return "generic";
    case gpu::RasterPath::kCheck:
      return "check";
  }
  return "?";
}

TEST(EngineEquivalenceTest, FastMatchesGenericAcrossFormatsAndWorkers) {
  // 32x32 textures (the stream shape), 64x32 (a non-square texture, whose
  // stages split into row-block and tall-block steps differently) and 1x1
  // (no comparator step at all).
  const struct {
    std::uint64_t window;
    std::vector<float> data;
  } inputs[] = {
      {kWindow, WithNaNs(TestData())},
      {2 * kWindow, WithNaNs(TestData(2 * kWindow, kWindowsPerBatch * 2 + 1))},
      {1, WithNaNs(TestData(1, kWindowsPerBatch * 8 + 3, /*special_every=*/2), 5)},
  };

  for (const auto& [window, data] : inputs) {
    for (gpu::Format format : {gpu::Format::kFloat16, gpu::Format::kFloat32}) {
      SCOPED_TRACE(testing::Message() << FormatName(format) << " window=" << window);
      // Reference: the per-pixel bilinear path, serial.
      const RunResult golden =
          RunPipeline(gpu::RasterPath::kGeneric, format, /*workers=*/1, data, window);
      ASSERT_EQ(golden.sorted.size(), data.size());

      // kCheck runs both paths on every draw and CHECK-fails on a bit
      // difference in any covered pixel.
      for (gpu::RasterPath path : {gpu::RasterPath::kGeneric, gpu::RasterPath::kFast,
                                   gpu::RasterPath::kCheck}) {
        for (int workers : {1, 8}) {
          SCOPED_TRACE(testing::Message() << PathName(path) << " workers=" << workers);
          const RunResult got = RunPipeline(path, format, workers, data, window);

          ASSERT_EQ(got.sorted.size(), golden.sorted.size());
          // Byte-identical output: memcmp, not float compare — -0.0 vs 0.0 or
          // a NaN payload change must fail.
          EXPECT_EQ(std::memcmp(got.sorted.data(), golden.sorted.data(),
                                golden.sorted.size() * sizeof(float)),
                    0);
          EXPECT_EQ(got.stats, golden.stats);
          EXPECT_DOUBLE_EQ(got.simulated_seconds, golden.simulated_seconds);
        }
      }
    }
  }
}

// The sorted output must also be *correct*: each window ascending, and for
// kFloat16 equal to the sort of the binary16-quantized input (quantization
// happens at upload; the comparator network then only moves values around).
// -0.0 and 0.0 compare equal, so their relative order is the network's own;
// the window must still hold as many negative zeros as its input.
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
      const auto window = std::span<const float>(got.sorted).subspan(off, len);
      ASSERT_TRUE(std::equal(window.begin(), window.end(), expect.begin()))
          << "window at offset " << off;
      const auto negative_zero = [](float v) { return v == 0.0f && std::signbit(v); };
      ASSERT_EQ(std::count_if(window.begin(), window.end(), negative_zero),
                std::count_if(expect.begin(), expect.end(), negative_zero))
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
