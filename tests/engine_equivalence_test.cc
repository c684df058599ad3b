// Engine equivalence suite: the vectorized fast path must be indistinguishable
// from the reference per-pixel path, across formats and across pipeline
// parallelism.
//
// The invariant (docs/ARCHITECTURE.md, "Pass-execution engine") is strict:
// byte-identical sorted output and identical GpuStats for every cell of
// {generic, fast} x {kFloat16, kFloat32} x {1, 8 workers}, over
// 1,024-element windows (32x32 textures), 2,048-element windows (64x32) and
// 1-element windows (1x1), with ±0, ±inf, NaN, binary16 subnormals and values
// past the binary16 range in the stream. Host-side engine choices — row
// kernels vs. bilinear loops, framebuffer aliasing, worker fan-out — are
// performance details; any observable divergence is a bug.
//
// The golden test additionally pins the absolute counter values for a fixed
// input, so a change that shifts both paths in lockstep (and would slip past
// the pairwise comparison) still trips the suite.
//
// On the fast path a PBSN sorter records one stage per texture shape and the
// device replays it (GpuDevice::ReplayStage). A fault hook that never fires
// makes the device decline, so the same sorter then draws every quad on its
// own: the reference each replay is compared with, bytes and counters.

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <limits>
#include <numeric>
#include <span>
#include <utility>
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

// Installed on a device, any fault hook makes GpuDevice::ReplayStage decline
// (every draw would poll it); this one never fires, so the draws it forces
// run exactly as they would without it.
class NeverFires final : public gpu::DeviceFaultHook {
 public:
  gpu::DeviceFault OnDeviceOp(gpu::DeviceFaultSite, std::uint64_t) override { return {}; }
};

// Every counter, each named on a mismatch.
void ExpectSameStats(const gpu::GpuStats& got, const gpu::GpuStats& want) {
  EXPECT_EQ(got.draw_calls, want.draw_calls);
  EXPECT_EQ(got.fragments_shaded, want.fragments_shaded);
  EXPECT_EQ(got.blend_fragments, want.blend_fragments);
  EXPECT_EQ(got.texture_fetches, want.texture_fetches);
  EXPECT_EQ(got.program_fragments, want.program_fragments);
  EXPECT_EQ(got.program_instructions, want.program_instructions);
  EXPECT_EQ(got.bytes_uploaded, want.bytes_uploaded);
  EXPECT_EQ(got.bytes_readback, want.bytes_readback);
  EXPECT_EQ(got.bytes_vram, want.bytes_vram);
  EXPECT_EQ(got.fb_to_texture_copies, want.fb_to_texture_copies);
  EXPECT_EQ(got.framebuffer_binds, want.framebuffer_binds);
  EXPECT_EQ(got.depth_test_fragments, want.depth_test_fragments);
  EXPECT_EQ(got.occlusion_queries, want.occlusion_queries);
}

// Byte-identical output (memcmp, not float compare: -0.0 vs 0.0 or a NaN
// payload change must fail), every counter and the simulated time.
void ExpectSameRun(const RunResult& got, const RunResult& want) {
  ASSERT_EQ(got.sorted.size(), want.sorted.size());
  EXPECT_EQ(std::memcmp(got.sorted.data(), want.sorted.data(),
                        want.sorted.size() * sizeof(float)),
            0);
  ExpectSameStats(got.stats, want.stats);
  EXPECT_DOUBLE_EQ(got.simulated_seconds, want.simulated_seconds);
}

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
// windows of `window` elements. With `replay` false every device carries a
// NeverFires hook, so no stage is replayed.
RunResult RunPipeline(gpu::RasterPath path, gpu::Format format, int workers,
                      const std::vector<float>& data, std::uint64_t window = kWindow,
                      bool replay = true) {
  ScopedRasterPath scoped(path);

  std::vector<gpu::GpuDevice> devices(workers);
  NeverFires hook;
  if (!replay) {
    for (auto& d : devices) d.set_fault_hook(&hook);
  }
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

      // The fast path runs with its stage replay and with every quad drawn
      // on its own.
      const struct {
        gpu::RasterPath path;
        bool replay;
      } engines[] = {{gpu::RasterPath::kGeneric, true},
                     {gpu::RasterPath::kFast, true},
                     {gpu::RasterPath::kFast, false}};
      for (const auto& [path, replay] : engines) {
        for (int workers : {1, 8}) {
          SCOPED_TRACE(testing::Message() << PathName(path) << " replay=" << replay
                                          << " workers=" << workers);
          ExpectSameRun(RunPipeline(path, format, workers, data, window, replay), golden);
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

  // Absolute counter pins (the generic path below must land on them too
  // before they are updated).
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

// The shape a sorter's recorded stage has after one SortRuns call.
struct StageShape {
  int width = 0;
  int height = 0;
  bool replayable = false;

  friend bool operator==(const StageShape&, const StageShape&) = default;
};

// Sorts fresh test data on the fast path with one PBSN sorter on its own
// device: one SortRuns call of four runs per entry of `run_lengths`, the runs
// taken from the front of the data in order. With `replay` false a
// NeverFires hook makes every stage draw quad by quad. `stages`, when
// non-null, receives the recorded stage after each call.
RunResult SortCalls(const std::vector<std::size_t>& run_lengths, bool replay,
                    sort::PbsnOptions opt, std::vector<StageShape>* stages = nullptr) {
  ScopedRasterPath scoped(gpu::RasterPath::kFast);
  std::size_t total = 0;
  for (std::size_t len : run_lengths) total += len * kWindowsPerBatch;
  RunResult result;
  result.sorted = WithNaNs(TestData(1, total));

  gpu::GpuDevice device;
  NeverFires hook;
  if (!replay) device.set_fault_hook(&hook);
  sort::PbsnGpuSorter sorter(&device, hwmodel::kGeForce6800Ultra, hwmodel::kPentium4_3400,
                             opt);
  float* next = result.sorted.data();
  for (std::size_t len : run_lengths) {
    std::vector<std::span<float>> runs;
    for (int r = 0; r < kWindowsPerBatch; ++r, next += len) runs.emplace_back(next, len);
    sorter.SortRuns(runs);
    result.simulated_seconds += sorter.last_run().simulated_seconds;
    if (stages != nullptr) {
      const gpu::StageProgram& stage = sorter.stage_program();
      stages->push_back({stage.width(), stage.height(), stage.replayable()});
    }
  }
  result.stats = device.stats();
  return result;
}

// bench_engine's PBSN shapes: four windows of 16 (4x4 texture), 250 (16x16)
// and 4,000 (64x64) elements, three calls each.
TEST(EngineEquivalenceTest, ReplayMatchesDrawByDrawOnBenchShapes) {
  for (const auto& [window, side] : {std::pair<std::size_t, int>{16, 4},
                                     {250, 16},
                                     {4000, 64}}) {
    for (gpu::Format format : {gpu::Format::kFloat16, gpu::Format::kFloat32}) {
      SCOPED_TRACE(testing::Message() << FormatName(format) << " window=" << window);
      sort::PbsnOptions opt;
      opt.format = format;
      const std::vector<std::size_t> calls(3, window);
      std::vector<StageShape> stages;
      const RunResult replayed = SortCalls(calls, /*replay=*/true, opt, &stages);
      ExpectSameRun(replayed, SortCalls(calls, /*replay=*/false, opt));
      EXPECT_EQ(stages, std::vector<StageShape>(3, {side, side, true}));
    }
  }
}

// A sorter whose groups alternate between two texture shapes records the
// stage again at every change of shape.
TEST(EngineEquivalenceTest, ReplayReRecordsWhenTheShapeChanges) {
  sort::PbsnOptions opt;
  opt.format = gpu::Format::kFloat16;
  const std::vector<std::size_t> calls = {1000, 16, 1000, 16, 1000};
  std::vector<StageShape> stages;
  const RunResult replayed = SortCalls(calls, /*replay=*/true, opt, &stages);
  ExpectSameRun(replayed, SortCalls(calls, /*replay=*/false, opt));
  const StageShape big{32, 32, true};
  const StageShape small{4, 4, true};
  EXPECT_EQ(stages, (std::vector<StageShape>{big, small, big, small, big}));
}

// Without the row-block fast path a stage issues more draws than the texture
// has texels: the sorter records nothing, the device declines, and every
// stage is drawn quad by quad.
TEST(EngineEquivalenceTest, RowBlockAblationStageIsDeclined) {
  sort::PbsnOptions opt;
  opt.format = gpu::Format::kFloat16;
  opt.use_row_block_optimization = false;
  const std::vector<std::size_t> calls = {1000, 1000};
  std::vector<StageShape> stages;
  const RunResult got = SortCalls(calls, /*replay=*/true, opt, &stages);
  ExpectSameRun(got, SortCalls(calls, /*replay=*/false, opt));
  EXPECT_EQ(stages, std::vector<StageShape>(2, {32, 32, false}));
}

// One PBSN step on a 4x4 texture: Routine 4.4's comparator at block 4, a MIN
// quad over the left half of every row and a MAX quad over the right half,
// both mirrored.
const gpu::Quad kMinQuad = gpu::Quad::Make(0, 0, 2, 4, 4, 0, 2, 0, 2, 4, 4, 4);
const gpu::Quad kMaxQuad = gpu::Quad::Make(2, 0, 4, 4, 2, 0, 0, 0, 0, 4, 2, 4);

gpu::StageProgram OneStepStage() {
  gpu::StageProgram stage;
  stage.Reset(4, 4, 2);
  stage.Add(kMinQuad, gpu::BlendOp::kMin);
  stage.Add(kMaxQuad, gpu::BlendOp::kMax);
  stage.EndStep();
  return stage;
}

// The step as the sorter issues it when the device declines.
void DrawStep(gpu::GpuDevice& device, gpu::TextureHandle tex) {
  device.SetBlend(gpu::BlendOp::kMin);
  device.DrawQuad(tex, kMinQuad);
  device.SetBlend(gpu::BlendOp::kMax);
  device.DrawQuad(tex, kMaxQuad);
  device.CopyFramebufferToTexture(tex);
}

// A device in the state a PBSN group's first stage starts from: a 4x4
// texture uploaded, the framebuffer bound and filled by the Copy pass.
gpu::TextureHandle PrepareDevice(gpu::GpuDevice& device,
                                 gpu::Format tex_format = gpu::Format::kFloat16) {
  const gpu::TextureHandle tex = device.CreateTexture(4, 4, tex_format);
  const std::vector<float> values = TestData(1, 16, 3);
  for (int c = 0; c < gpu::kNumChannels; ++c) {
    std::vector<float> channel(values.rbegin(), values.rend());
    std::rotate(channel.begin(), channel.begin() + 5 * c, channel.end());
    device.UploadChannel(tex, c, channel);
  }
  device.BindFramebuffer(4, 4, gpu::Format::kFloat16);
  device.SetBlend(gpu::BlendOp::kReplace);
  device.DrawQuad(tex, gpu::Quad::Identity(0, 0, 4, 4));
  return tex;
}

// Every texel of both surfaces and every counter of two devices.
void ExpectSameDevice(const gpu::GpuDevice& got, const gpu::GpuDevice& want,
                      gpu::TextureHandle tex) {
  const auto bits = [](const gpu::Surface& s) {
    std::vector<std::uint32_t> out;
    for (int y = 0; y < s.height(); ++y) {
      for (int x = 0; x < s.width(); ++x) {
        for (int c = 0; c < gpu::kNumChannels; ++c) {
          out.push_back(std::bit_cast<std::uint32_t>(s.Get(c, x, y)));
        }
      }
    }
    return out;
  };
  EXPECT_EQ(bits(got.framebuffer()), bits(want.framebuffer()));
  EXPECT_EQ(bits(got.Texture(tex)), bits(want.Texture(tex)));
  ExpectSameStats(got.stats(), want.stats());
}

TEST(EngineEquivalenceTest, ReplayStageMatchesTheDrawsItRecorded) {
  ScopedRasterPath scoped(gpu::RasterPath::kFast);
  const gpu::StageProgram stage = OneStepStage();
  ASSERT_TRUE(stage.replayable());
  ASSERT_EQ(stage.draws(), 2u);

  gpu::GpuDevice replayed;
  gpu::GpuDevice drawn;
  const gpu::TextureHandle tex = PrepareDevice(replayed);
  ASSERT_EQ(PrepareDevice(drawn), tex);
  // The first stage starts with nothing aliased, the second with the texture
  // aliased and untouched since the first stage's copy.
  for (int s = 0; s < 2; ++s) {
    EXPECT_TRUE(replayed.ReplayStage(tex, stage));
    DrawStep(drawn, tex);
  }
  ExpectSameDevice(replayed, drawn, tex);

  // The replay leaves the blend equation the step's last SetBlend set: a
  // draw with no SetBlend of its own blends the same way on both devices.
  for (gpu::GpuDevice* d : {&replayed, &drawn}) {
    d->DrawQuad(tex, kMinQuad);
    d->CopyFramebufferToTexture(tex);
  }
  ExpectSameDevice(replayed, drawn, tex);
}

// Each decline leaves the device as it was: the stage drawn quad by quad
// afterwards gives what a device that was never asked to replay gives.
TEST(EngineEquivalenceTest, ReplayStageDeclinesWithoutSideEffects) {
  ScopedRasterPath scoped(gpu::RasterPath::kFast);
  const gpu::StageProgram stage = OneStepStage();

  const auto expect_declined = [&](const char* why, const auto& set_up,
                                   const gpu::StageProgram& program,
                                   gpu::Format tex_format = gpu::Format::kFloat16) {
    SCOPED_TRACE(why);
    gpu::GpuDevice asked;
    gpu::GpuDevice reference;
    const gpu::TextureHandle tex = PrepareDevice(asked, tex_format);
    PrepareDevice(reference, tex_format);
    set_up(asked, tex);
    set_up(reference, tex);
    EXPECT_FALSE(asked.ReplayStage(tex, program));
    for (gpu::GpuDevice* d : {&asked, &reference}) {
      d->set_fault_hook(nullptr);
      d->Recover();
      DrawStep(*d, tex);
    }
    ExpectSameDevice(asked, reference, tex);
  };
  const auto nothing = [](gpu::GpuDevice&, gpu::TextureHandle) {};

  NeverFires never;
  expect_declined("fault hook installed",
                  [&](gpu::GpuDevice& d, gpu::TextureHandle) { d.set_fault_hook(&never); },
                  stage);

  class LoseDevice final : public gpu::DeviceFaultHook {
   public:
    gpu::DeviceFault OnDeviceOp(gpu::DeviceFaultSite, std::uint64_t) override {
      return {.kind = gpu::DeviceFault::Kind::kDeviceLost};
    }
  } lose;
  expect_declined("device lost",
                  [&](gpu::GpuDevice& d, gpu::TextureHandle tex) {
                    d.set_fault_hook(&lose);
                    d.DrawQuad(tex, gpu::Quad::Identity(0, 0, 4, 4));
                    d.set_fault_hook(nullptr);
                    ASSERT_TRUE(d.lost());
                  },
                  stage);

  {
    ScopedRasterPath generic(gpu::RasterPath::kGeneric);
    expect_declined(PathName(gpu::RasterPath::kGeneric), nothing, stage);
  }

  expect_declined("framebuffer drawn since its last copy",
                  [](gpu::GpuDevice& d, gpu::TextureHandle tex) {
                    DrawStep(d, tex);
                    d.SetBlend(gpu::BlendOp::kMin);
                    d.DrawQuad(tex, kMinQuad);
                  },
                  stage);
  expect_declined("framebuffer aliases another texture",
                  [](gpu::GpuDevice& d, gpu::TextureHandle) {
                    d.CopyFramebufferToTexture(d.CreateTexture(4, 4, gpu::Format::kFloat16));
                  },
                  stage);
  expect_declined("texture format differs from the framebuffer's", nothing, stage,
                  gpu::Format::kFloat32);

  // Eight two-draw steps put one draw on each of the 16 texels; a stage of
  // seventeen draws is not recorded.
  gpu::StageProgram one_per_texel;
  one_per_texel.Reset(4, 4, 16);
  for (int step = 0; step < 8; ++step) {
    one_per_texel.Add(kMinQuad, gpu::BlendOp::kMin);
    one_per_texel.Add(kMaxQuad, gpu::BlendOp::kMax);
    one_per_texel.EndStep();
  }
  EXPECT_TRUE(one_per_texel.replayable());
  gpu::StageProgram too_many;
  too_many.Reset(4, 4, 17);
  EXPECT_FALSE(too_many.replayable());
  expect_declined("more draws than texels", nothing, too_many);

  gpu::StageProgram open_step;
  open_step.Reset(4, 4, 2);
  open_step.Add(kMinQuad, gpu::BlendOp::kMin);
  open_step.Add(kMaxQuad, gpu::BlendOp::kMax);
  EXPECT_FALSE(open_step.replayable());
  expect_declined("a step left open", nothing, open_step);

  // Two tiling steps where one was declared.
  gpu::StageProgram past_declared;
  past_declared.Reset(4, 4, 2);
  for (int step = 0; step < 2; ++step) {
    past_declared.Add(kMinQuad, gpu::BlendOp::kMin);
    past_declared.Add(kMaxQuad, gpu::BlendOp::kMax);
    past_declared.EndStep();
  }
  EXPECT_FALSE(past_declared.replayable());
  expect_declined("draws past the declared count", nothing, past_declared);

  gpu::StageProgram empty;
  empty.Reset(4, 4, 0);
  EXPECT_FALSE(empty.replayable());
  expect_declined("no draws", nothing, empty);

  gpu::StageProgram untiled;
  untiled.Reset(4, 4, 1);
  untiled.Add(kMinQuad, gpu::BlendOp::kMin);
  untiled.EndStep();
  EXPECT_FALSE(untiled.replayable());
  expect_declined("a step that does not tile the framebuffer", nothing, untiled);

  // Two draws over the same half add up to the framebuffer's area but leave
  // the other half unwritten.
  gpu::StageProgram overlapping;
  overlapping.Reset(4, 4, 2);
  overlapping.Add(kMinQuad, gpu::BlendOp::kMin);
  overlapping.Add(kMinQuad, gpu::BlendOp::kMin);
  overlapping.EndStep();
  EXPECT_FALSE(overlapping.replayable());
  expect_declined("a step whose draws overlap", nothing, overlapping);

  gpu::StageProgram scaled;
  scaled.Reset(4, 4, 1);
  scaled.Add(gpu::Quad::Make(0, 0, 4, 4, 0, 0, 2, 0, 2, 2, 0, 2), gpu::BlendOp::kMin);
  scaled.EndStep();
  EXPECT_FALSE(scaled.replayable());
  expect_declined("a quad that is not a unit-step rectangle", nothing, scaled);

  // Tiling, unit-step steps that are not a mirror compare-exchange: each
  // half fetching its own texels, and the comparator halves blending the
  // other way round.
  gpu::StageProgram identity;
  identity.Reset(4, 4, 2);
  identity.Add(gpu::Quad::Identity(0, 0, 2, 4), gpu::BlendOp::kMin);
  identity.Add(gpu::Quad::Identity(2, 0, 4, 4), gpu::BlendOp::kMax);
  identity.EndStep();
  EXPECT_FALSE(identity.replayable());
  expect_declined("a step whose columns map to themselves", nothing, identity);

  gpu::StageProgram swapped;
  swapped.Reset(4, 4, 2);
  swapped.Add(kMinQuad, gpu::BlendOp::kMax);
  swapped.Add(kMaxQuad, gpu::BlendOp::kMin);
  swapped.EndStep();
  EXPECT_FALSE(swapped.replayable());
  expect_declined("a step with MIN and MAX swapped", nothing, swapped);

  // Steps whose first pixel fetches its mirror texel but whose other pixels
  // do not: the MIN half's columns (block 4), or its rows (block 16), walk
  // up from there instead of down.
  gpu::StageProgram ascending_columns;
  ascending_columns.Reset(4, 4, 2);
  ascending_columns.Add(gpu::Quad::Make(0, 0, 2, 4, 3, 0, 5, 0, 5, 4, 3, 4),
                        gpu::BlendOp::kMin);
  ascending_columns.Add(kMaxQuad, gpu::BlendOp::kMax);
  ascending_columns.EndStep();
  EXPECT_FALSE(ascending_columns.replayable());
  expect_declined("a step whose columns ascend from the mirror", nothing,
                  ascending_columns);

  gpu::StageProgram ascending_rows;
  ascending_rows.Reset(4, 4, 2);
  ascending_rows.Add(gpu::Quad::Make(0, 0, 4, 2, 4, 3, 0, 3, 0, 5, 4, 5),
                     gpu::BlendOp::kMin);
  ascending_rows.Add(gpu::Quad::Make(0, 2, 4, 4, 4, 2, 0, 2, 0, 0, 4, 0),
                     gpu::BlendOp::kMax);
  ascending_rows.EndStep();
  EXPECT_FALSE(ascending_rows.replayable());
  expect_declined("a step whose rows ascend from the mirror", nothing, ascending_rows);

  // Mirrors of two block sizes in one step: block 2 on the left half, the
  // right half of block 4 on the right.
  gpu::StageProgram mixed;
  mixed.Reset(4, 4, 3);
  mixed.Add(gpu::Quad::Make(0, 0, 1, 4, 2, 0, 1, 0, 1, 4, 2, 4), gpu::BlendOp::kMin);
  mixed.Add(gpu::Quad::Make(1, 0, 2, 4, 1, 0, 0, 0, 0, 4, 1, 4), gpu::BlendOp::kMax);
  mixed.Add(kMaxQuad, gpu::BlendOp::kMax);
  mixed.EndStep();
  EXPECT_FALSE(mixed.replayable());
  expect_declined("a step that mirrors two block sizes", nothing, mixed);
}

// The quads of one step with their blend equations, in drawing order.
using StepQuads = std::vector<std::pair<gpu::BlendOp, gpu::Quad>>;

// One PBSN step at `block` on a width x height texture, as Routine 4.4 and
// Fig. 2 draw it: per row block a MIN and a MAX quad over all rows, or per
// tall block a MIN quad over its lower rows and a MAX quad over its upper
// ones, each fetching the mirrored half.
StepQuads MirrorStepQuads(int width, int height, int block) {
  StepQuads quads;
  const float w = static_cast<float>(width);
  const float h = static_cast<float>(height);
  const float b = static_cast<float>(block);
  if (block <= width) {
    for (float off = 0; off < w; off += b) {
      quads.emplace_back(gpu::BlendOp::kMin,
                         gpu::Quad::Make(off, 0, off + b / 2, h, off + b, 0, off + b / 2,
                                         0, off + b / 2, h, off + b, h));
      quads.emplace_back(gpu::BlendOp::kMax,
                         gpu::Quad::Make(off + b / 2, 0, off + b, h, off + b / 2, 0, off,
                                         0, off, h, off + b / 2, h));
    }
  } else {
    const float bh = b / w;
    for (float r = 0; r < h; r += bh) {
      quads.emplace_back(gpu::BlendOp::kMin,
                         gpu::Quad::Make(0, r, w, r + bh / 2, w, r + bh, 0, r + bh, 0,
                                         r + bh / 2, w, r + bh / 2));
      quads.emplace_back(gpu::BlendOp::kMax,
                         gpu::Quad::Make(0, r + bh / 2, w, r + bh, w, r + bh / 2, 0,
                                         r + bh / 2, 0, r, w, r));
    }
  }
  return quads;
}

// A full PBSN stage on a width x height texture: steps at blocks M, M/2, ...,
// 2 (M = width * height).
std::vector<StepQuads> PbsnStage(int width, int height) {
  std::vector<StepQuads> steps;
  for (int block = width * height; block >= 2; block /= 2) {
    steps.push_back(MirrorStepQuads(width, height, block));
  }
  return steps;
}

gpu::StageProgram Record(int width, int height, const std::vector<StepQuads>& steps) {
  std::size_t draws = 0;
  for (const auto& step : steps) draws += step.size();
  gpu::StageProgram program;
  program.Reset(width, height, draws);
  for (const auto& step : steps) {
    for (const auto& [op, quad] : step) program.Add(quad, op);
    program.EndStep();
  }
  return program;
}

void Draw(gpu::GpuDevice& device, gpu::TextureHandle tex,
          const std::vector<StepQuads>& steps) {
  for (const auto& step : steps) {
    for (const auto& [op, quad] : step) {
      device.SetBlend(op);
      device.DrawQuad(tex, quad);
    }
    device.CopyFramebufferToTexture(tex);
  }
}

// A width x height texture of `format` holding test data with NaNs, ±0 and
// ±inf, each channel a different rotation of `seed`'s values.
gpu::TextureHandle UploadTexture(gpu::GpuDevice& device, int width, int height,
                                 gpu::Format format, std::uint64_t seed) {
  const gpu::TextureHandle tex = device.CreateTexture(width, height, format);
  const std::size_t texels = static_cast<std::size_t>(width) * height;
  std::vector<float> values = WithNaNs(TestData(1, texels + seed, 3), 7);
  values.erase(values.begin(), values.begin() + static_cast<std::ptrdiff_t>(seed));
  for (int c = 0; c < gpu::kNumChannels; ++c) {
    std::vector<float> channel(values.begin(),
                               values.begin() + static_cast<std::ptrdiff_t>(texels));
    std::rotate(channel.begin(), channel.begin() + (3 * c) % texels, channel.end());
    device.UploadChannel(tex, c, channel);
  }
  return tex;
}

// Two stages replayed against two stages drawn, on every texture shape the
// network passes treat differently: one step (2x1); passes of two, three and
// four steps (2x2, 4x2, 4x4); 64x32, whose tall blocks of two and four rows
// hold groups that lie within rows and whose largest block's groups span
// rows; and 256x256, whose tall-block groups span many rows. The first stage
// starts with nothing aliased, the framebuffer filled by the Copy pass from
// the replayed texture or from a second texture of other values: that
// stage's first step blends into the framebuffer's own values, so a replay
// that read the replayed texture for both operands would differ from the
// draws. The second stage starts from the first's last copy.
TEST(EngineEquivalenceTest, ReplayMatchesDrawsOnNetworkShapes) {
  ScopedRasterPath scoped(gpu::RasterPath::kFast);
  for (const auto& [width, height] : {std::pair<int, int>{2, 1}, {2, 2}, {4, 2}, {4, 4},
                                      {8, 8}, {64, 32}, {256, 256}}) {
    for (gpu::Format format : {gpu::Format::kFloat16, gpu::Format::kFloat32}) {
      for (const gpu::TextureHandle copied : {0, 1}) {
        SCOPED_TRACE(testing::Message() << FormatName(format) << " " << width << "x"
                                        << height << " framebuffer from texture "
                                        << copied);
        const auto steps = PbsnStage(width, height);
        const gpu::StageProgram program = Record(width, height, steps);
        ASSERT_TRUE(program.replayable());
        ASSERT_EQ(program.steps().size(), steps.size());

        gpu::GpuDevice replayed;
        gpu::GpuDevice drawn;
        for (gpu::GpuDevice* d : {&replayed, &drawn}) {
          ASSERT_EQ(UploadTexture(*d, width, height, format, 0), 0);
          ASSERT_EQ(UploadTexture(*d, width, height, format, 11), 1);
          d->BindFramebuffer(width, height, format);
          d->SetBlend(gpu::BlendOp::kReplace);
          d->DrawQuad(copied, gpu::Quad::Identity(0, 0, static_cast<float>(width),
                                                  static_cast<float>(height)));
        }
        for (int stage = 0; stage < 2; ++stage) {
          EXPECT_TRUE(replayed.ReplayStage(0, program));
          Draw(drawn, 0, steps);
          ExpectSameDevice(replayed, drawn, 0);
          ExpectSameDevice(replayed, drawn, 1);
        }
      }
    }
  }
}

}  // namespace
}  // namespace streamgpu
