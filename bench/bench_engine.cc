// Engine microbenchmarks: host-side throughput of the pass-execution engine.
//
// Unlike the figure benches, nothing here is simulated-2005 time — this is
// the wall-clock cost of the simulator itself, per element, for the shapes
// the PBSN sort actually issues (docs/COST_MODEL.md, "Host wall-clock vs.
// simulated time"):
//
//   copy_identity  — full-surface REPLACE quad (memcpy row kernel)
//   min_wide       — one row-block comparator, block = width (contiguous
//                    descending rows, the vectorized MIN kernel)
//   min_narrow     — block = 8 comparators tiling the surface (narrow
//                    columns; cache-line-transaction bound)
//   tall_mirrored  — tall-block comparator with mirrored v (one rectangle
//                    kernel stepping the source rows backwards)
//   fb_copy        — CopyFramebufferToTexture in the ping-pong steady state
//                    (storage swap, should be near-free)
//   pbsn_4x1000_f16 — a full PBSN SortRuns of four 1,000-element f16 windows:
//                    the 32x32 texture group a frequency stream sorts per
//                    batch, 1,241 draws of at most 512 texels each, where the
//                    per-draw cost rather than the blend sets the rate (every
//                    other engine row runs on a 512x512 texture)
//   two_way_merge / kway8_merge — the CPU merge stage (two_way_merge runs
//                    the co-ranked run merge of common/run_merge.h)
//   eh_block_merge_32x1000 — EhQuantileSummary::MergeBlock of 32 sorted
//                    1,000-element windows: a quantile sort worker's five
//                    levels of run merges per 32-window batch
//   gk_combine_35k — GkSummary::MergePruned of two 35,001-tuple summaries at
//                    budget 35,000: one exponential-histogram combine above
//                    the first prune (ns per input tuple)
//   gk_combine_35k_sliced — the same combine cut into 3 co-ranked slices,
//                    all run on the calling thread: what a pipelined quantile
//                    stream's drain pays when no sort worker is idle
//   radix_1m       — cache-blocked LSD radix passes on 1M ordered keys
//                    (the radix/merge backend's per-chunk kernel)
//   loser_merge8   — loser-tree merge of 8 sorted key runs (MergeKeyRuns)
//   sample_1m      — full sample-sort pass on 1M floats (classify + scatter
//                    + in-cache bucket radix)
//
// A large-memcpy calibration (ns/byte) is reported alongside, so the CI
// regression gate can compare machine-normalized ratios instead of raw
// nanoseconds (tools/check_bench_regression.py).
//
// Results go to stdout and, as JSON, to STREAMGPU_BENCH_JSON (default
// BENCH_engine.json). The committed repo-root BENCH_sort.json holds the
// blessed baseline of these numbers.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <random>
#include <span>
#include <vector>

#include "bench_util.h"
#include "common/timer.h"
#include "gpu/device.h"
#include "gpu/rasterizer.h"
#include "gpu/surface.h"
#include "gpu/vertex.h"
#include "hwmodel/hardware_profiles.h"
#include "sort/merge.h"
#include "sort/pbsn_gpu.h"
#include "sort/radix_sort.h"
#include "sort/sample_sort.h"
#include "sketch/exponential_histogram.h"
#include "sketch/gk_summary.h"

namespace {

using namespace streamgpu;
using gpu::BlendOp;
using gpu::Quad;
using gpu::Surface;

constexpr int kDim = 512;  // the 1M-key sort's texture (4 x 256K channels)

// Median-of-samples wall time for `fn`, amortized over `reps` inner
// iterations, in nanoseconds per `elements`.
template <typename Fn>
double NsPerElement(int samples, int reps, double elements, Fn&& fn) {
  std::vector<double> times;
  times.reserve(samples);
  for (int s = 0; s < samples; ++s) {
    Timer t;
    for (int r = 0; r < reps; ++r) fn();
    times.push_back(t.ElapsedSeconds());
  }
  std::sort(times.begin(), times.end());
  const double median = times[times.size() / 2];
  return median * 1e9 / (static_cast<double>(reps) * elements);
}

void FillRandom(Surface* s, unsigned seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<float> dist(0.0f, 1000.0f);
  for (int c = 0; c < gpu::kNumChannels; ++c) {
    for (int y = 0; y < s->height(); ++y) {
      for (int x = 0; x < s->width(); ++x) s->Set(c, x, y, dist(rng));
    }
  }
}

struct Result {
  const char* name;
  double ns_per_element;
  double elements_per_pass;
};

}  // namespace

int main() {
  bench::PrintHeader("Engine microbenchmarks: host ns/element of the simulator",
                     "(not a paper figure; see docs/COST_MODEL.md)");

  // --- memcpy calibration: the machine's streaming-copy speed. ---
  const std::size_t cal_bytes = 16u << 20;
  std::vector<char> cal_src(cal_bytes, 1);
  std::vector<char> cal_dst(cal_bytes, 0);
  const double memcpy_ns_per_byte =
      NsPerElement(5, 8, static_cast<double>(cal_bytes),
                   [&] { std::memcpy(cal_dst.data(), cal_src.data(), cal_bytes); });

  std::vector<Result> results;

  // --- DrawQuad kernels on the 1M-key texture shape. ---
  Surface tex(kDim, kDim, gpu::Format::kFloat32);
  Surface fb(kDim, kDim, gpu::Format::kFloat32);
  FillRandom(&tex, 7);
  gpu::GpuStats stats;
  const float w = kDim;
  const float h = kDim;

  results.push_back({"copy_identity",
                     NsPerElement(5, 50, static_cast<double>(kDim) * kDim,
                                  [&] {
                                    gpu::Rasterizer::DrawQuad(
                                        tex, Quad::Identity(0, 0, w, h),
                                        BlendOp::kReplace, &fb, &stats);
                                  }),
                     static_cast<double>(kDim) * kDim});

  // Row-block comparator with block = width: the MIN half covers w/2 x h.
  const Quad min_wide = Quad::Make(0, 0, w / 2, h,  //
                                   w, 0, w / 2, 0,  //
                                   w / 2, h, w, h);
  results.push_back({"min_wide",
                     NsPerElement(5, 50, static_cast<double>(kDim) * kDim / 2,
                                  [&] {
                                    gpu::Rasterizer::DrawQuad(tex, min_wide,
                                                              BlendOp::kMin, &fb,
                                                              &stats);
                                  }),
                     static_cast<double>(kDim) * kDim / 2});

  // Row-block comparators with block = 8: w/8 quads of 4 columns each.
  std::vector<Quad> narrow;
  for (int j = 0; j < kDim / 8; ++j) {
    const float off = static_cast<float>(j) * 8;
    narrow.push_back(Quad::Make(off, 0, off + 4, h,    //
                                off + 8, 0, off + 4, 0,  //
                                off + 4, h, off + 8, h));
  }
  results.push_back({"min_narrow",
                     NsPerElement(5, 50, static_cast<double>(kDim) * kDim / 2,
                                  [&] {
                                    for (const Quad& q : narrow) {
                                      gpu::Rasterizer::DrawQuad(tex, q, BlendOp::kMin,
                                                                &fb, &stats);
                                    }
                                  }),
                     static_cast<double>(kDim) * kDim / 2});

  // Tall-block comparator, block spanning all rows: mirrored v, full-width
  // rows.
  const Quad tall = Quad::Make(0, 0, w, h / 2,  //
                               w, h, 0, h,      //
                               0, h / 2, w, h / 2);
  results.push_back({"tall_mirrored",
                     NsPerElement(5, 50, static_cast<double>(kDim) * kDim / 2,
                                  [&] {
                                    gpu::Rasterizer::DrawQuad(tex, tall, BlendOp::kMin,
                                                              &fb, &stats);
                                  }),
                     static_cast<double>(kDim) * kDim / 2});

  // --- Framebuffer-to-texture copy in the ping-pong steady state. ---
  {
    gpu::GpuDevice device;
    gpu::TextureHandle t = device.CreateTexture(kDim, kDim, gpu::Format::kFloat32);
    device.BindFramebuffer(kDim, kDim, gpu::Format::kFloat32);
    device.SetBlend(BlendOp::kReplace);
    device.DrawQuad(t, Quad::Identity(0, 0, w, h));
    results.push_back({"fb_copy",
                       NsPerElement(5, 200, static_cast<double>(kDim) * kDim,
                                    [&] {
                                      device.DrawQuad(t, Quad::Identity(0, 0, w, h));
                                      device.CopyFramebufferToTexture(t);
                                    }),
                       static_cast<double>(kDim) * kDim});
  }

  // --- The stream-window shape: one PBSN group on a 32x32 f16 texture. ---
  {
    gpu::GpuDevice device;
    sort::PbsnOptions opt;
    opt.format = gpu::Format::kFloat16;
    sort::PbsnGpuSorter sorter(&device, hwmodel::kGeForce6800Ultra,
                               hwmodel::kPentium4_3400, opt);
    constexpr std::size_t kWindow = 1000;
    constexpr int kWindows = 4;
    std::mt19937 rng(17);
    std::uniform_real_distribution<float> dist(0.0f, 1000.0f);
    std::vector<float> input(kWindow * kWindows);
    for (float& v : input) v = dist(rng);
    std::vector<float> data(input.size());
    std::vector<std::span<float>> runs;
    for (int w = 0; w < kWindows; ++w) runs.emplace_back(data.data() + w * kWindow, kWindow);
    results.push_back({"pbsn_4x1000_f16",
                       NsPerElement(5, 200, static_cast<double>(input.size()),
                                    [&] {
                                      std::copy(input.begin(), input.end(), data.begin());
                                      sorter.SortRuns(runs);
                                    }),
                       static_cast<double>(input.size())});
  }

  // --- CPU merge stage. ---
  {
    std::mt19937 rng(11);
    std::uniform_real_distribution<float> dist(0.0f, 1.0f);
    const std::size_t half = 512u << 10;
    std::vector<float> a(half), b(half), out(2 * half);
    for (float& v : a) v = dist(rng);
    for (float& v : b) v = dist(rng);
    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());
    results.push_back({"two_way_merge",
                       NsPerElement(5, 4, static_cast<double>(out.size()),
                                    [&] { sort::TwoWayMerge(a, b, out); }),
                       static_cast<double>(out.size())});

    std::vector<std::vector<float>> runs(8);
    std::size_t total = 0;
    for (auto& run : runs) {
      run.resize(128u << 10);
      for (float& v : run) v = dist(rng);
      std::sort(run.begin(), run.end());
      total += run.size();
    }
    std::vector<std::span<const float>> views(runs.begin(), runs.end());
    std::vector<float> kout(total);
    results.push_back({"kway8_merge",
                       NsPerElement(5, 4, static_cast<double>(total),
                                    [&] { sort::KWayMerge(views, kout); }),
                       static_cast<double>(total)});
  }

  // --- The GK+EH summary kernels at the quantile estimator's default
  // shapes: 1,000-element windows, 32 to a block, and combines pruned to
  // 35,000 tuples. ---
  {
    std::mt19937 rng(19);
    std::uniform_real_distribution<float> dist(0.0f, 1.0f);
    constexpr std::size_t kWindow = 1000;
    std::vector<float> windows(32 * kWindow);
    for (float& v : windows) v = dist(rng);
    for (auto it = windows.begin(); it != windows.end(); it += kWindow) {
      std::sort(it, it + kWindow);
    }
    std::vector<float> scratch;
    std::vector<float> block;
    results.push_back({"eh_block_merge_32x1000",
                       NsPerElement(5, 20, static_cast<double>(windows.size()),
                                    [&] {
                                      sketch::EhQuantileSummary::MergeBlock(
                                          windows, kWindow, &scratch, &block);
                                    }),
                       static_cast<double>(windows.size())});

    // Each side is the prune of a 64,000-element run, as when two merged
    // 32-window blocks first exceed the budget.
    constexpr std::size_t kBudget = 35000;
    std::vector<float> run(64000);
    const auto pruned_run = [&] {
      for (float& v : run) v = dist(rng);
      std::sort(run.begin(), run.end());
      return sketch::GkSummary::PruneExact(run, kBudget);
    };
    const sketch::GkSummary a = pruned_run();
    const sketch::GkSummary b = pruned_run();
    const double tuples = static_cast<double>(a.size() + b.size());
    sketch::GkSummary combined;
    results.push_back({"gk_combine_35k",
                       NsPerElement(5, 10, tuples,
                                    [&] { combined = sketch::GkSummary::MergePruned(a, b, kBudget); }),
                       tuples});
    results.push_back({"gk_combine_35k_sliced",
                       NsPerElement(5, 10, tuples,
                                    [&] {
                                      combined = sketch::GkSummary::MergePruned(a, b, kBudget, 3);
                                    }),
                       tuples});
  }

  // --- Second-generation sort kernels (radix passes, loser-tree merge,
  // sample sort end to end). ---
  {
    std::mt19937 rng(13);
    const std::size_t n = 1u << 20;
    std::vector<std::uint32_t> keys(n);
    std::vector<std::uint32_t> work(n);
    std::vector<std::uint32_t> scratch;
    for (auto& k : keys) k = rng();
    results.push_back({"radix_1m",
                       NsPerElement(5, 2, static_cast<double>(n),
                                    [&] {
                                      work = keys;
                                      sort::RadixSortKeys(work, &scratch);
                                    }),
                       static_cast<double>(n)});

    const std::size_t run_len = n / 8;
    std::vector<std::vector<std::uint32_t>> key_runs(8);
    for (auto& run : key_runs) {
      run.resize(run_len);
      for (auto& k : run) k = rng();
      std::sort(run.begin(), run.end());
    }
    std::vector<std::span<const std::uint32_t>> run_views(key_runs.begin(),
                                                          key_runs.end());
    std::vector<std::uint32_t> merged(n);
    results.push_back({"loser_merge8",
                       NsPerElement(5, 2, static_cast<double>(n),
                                    [&] { sort::MergeKeyRuns(run_views, merged); }),
                       static_cast<double>(n)});

    std::uniform_real_distribution<float> dist(-1000.0f, 1000.0f);
    std::vector<float> data(n);
    std::vector<float> sorted(n);
    for (float& v : data) v = dist(rng);
    sort::SampleSortSorter sample(hwmodel::kPentium4_3400);
    results.push_back({"sample_1m",
                       NsPerElement(5, 2, static_cast<double>(n),
                                    [&] {
                                      sorted = data;
                                      sample.Sort(sorted);
                                    }),
                       static_cast<double>(n)});
  }

  std::printf("%-22s %16s %18s\n", "kernel", "ns/element", "vs memcpy(ns/B)");
  std::printf("%-22s %16.3f %18s\n", "memcpy", memcpy_ns_per_byte, "1 B");
  for (const Result& r : results) {
    std::printf("%-22s %16.3f %18.2f\n", r.name, r.ns_per_element,
                r.ns_per_element / memcpy_ns_per_byte);
  }
  std::printf("\n");

  if (const char* path = bench::JsonOutPath("BENCH_engine.json")) {
    if (std::FILE* f = std::fopen(path, "w")) {
      {
        // Scoped so the writer's closing brace lands before fclose.
        bench::JsonWriter j(f);
        j.Number("schema", std::uint64_t{1});
        j.BeginObject("engine");
        j.Number("memcpy_ns_per_byte", memcpy_ns_per_byte);
        j.BeginObject("kernels");
        for (const Result& r : results) {
          j.BeginObject(r.name);
          j.Number("ns_per_element", r.ns_per_element);
          j.Number("rel_memcpy", r.ns_per_element / memcpy_ns_per_byte);
          j.End('}');
        }
        j.End('}');
        j.End('}');
      }
      std::fclose(f);
      std::printf("JSON results written to %s\n", path);
    }
  }
  return 0;
}
