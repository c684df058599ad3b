// Steady-state allocation audit of the ingest pipeline.
//
// The zero-allocation window path (docs/ARCHITECTURE.md, "Buffer recycling")
// promises that once the rings and pools are warm, the per-window loop —
// WindowBatcher staging, WindowExecutor submit/sort/reorder/drain, sorter
// scratch, simulated-device storage — performs no heap allocations at all.
// This binary overrides global operator new/delete with a counting hook and
// holds the pipeline to that promise: warm up, snapshot the counter, stream
// several more full batches through every stage, and require the counter not
// to move.
//
// The hook lives in this dedicated test binary only (gtest itself allocates
// freely; the counter is sampled around the hot loop, not asserted globally).

// The counting hooks forward to malloc/free by construction, but when GCC
// inlines only the delete side at a use site it pairs the opaque
// `operator new` call with the visible `std::free` and reports a spurious
// new/free mismatch. Silence that diagnostic for this TU only.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <span>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/options.h"
#include "core/quantile_estimator.h"
#include "core/status.h"
#include "core/summary_core.h"
#include "gpu/device.h"
#include "hwmodel/hardware_profiles.h"
#include "sort/cpu_sort.h"
#include "sort/pbsn_gpu.h"
#include "stream/generator.h"
#include "stream/window_buffer.h"
#include "stream/window_executor.h"

namespace {

std::atomic<std::uint64_t> g_allocations{0};

}  // namespace

// Counting allocator hooks. Sized/aligned variants forward here.
void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void* operator new(std::size_t size, std::align_val_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  void* p = nullptr;
  if (posix_memalign(&p, static_cast<std::size_t>(align), size ? size : 1) != 0) {
    throw std::bad_alloc();
  }
  return p;
}

void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }

namespace streamgpu {
namespace {

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitized = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif
#else
constexpr bool kSanitized = false;
#endif

std::uint64_t AllocCount() { return g_allocations.load(std::memory_order_relaxed); }

// The full estimator stack: ingest -> batcher -> pipeline (2 GPU workers)
// -> sorted-batch drain into the quantile summary. After `warmup_batches`
// batches, additional batches must not allocate anywhere in the loop.
TEST(AllocTest, SteadyStatePipelineLoopIsAllocationFree) {
  if (kSanitized) GTEST_SKIP() << "sanitizers intercept operator new";

  core::Options options;
  options.epsilon = 0.01;
  options.backend = core::Backend::kGpuPbsn;
  options.window_size = 1 << 10;
  options.num_sort_workers = 2;
  core::QuantileEstimator estimator(options);

  stream::StreamGenerator gen(
      {.distribution = stream::Distribution::kUniformReal, .seed = 7});
  // One batch = batch_windows (4) windows of window_size elements.
  const std::size_t batch_elements = static_cast<std::size_t>(options.window_size) * 4;
  const auto data = gen.Take(batch_elements * 24);

  // Warm-up: fills the rings, the recycled-buffer pool, every worker's
  // sorter scratch and simulated-device arena, and the summary's node pools.
  // No Flush here — it would finalize the estimator (Flush() is terminal);
  // the warm-up is a whole number of batches, so nothing stays buffered, and
  // the query below synchronizes with the pipeline so every in-flight buffer
  // is back in the recycle pool before the counter snapshot.
  std::size_t i = 0;
  for (; i < batch_elements * 16; ++i) estimator.Observe(data[i]);
  (void)estimator.summary_size();

  const std::uint64_t before = AllocCount();
  for (; i < data.size(); ++i) estimator.Observe(data[i]);
  estimator.Flush();
  const std::uint64_t after = AllocCount();

  // The GK sketch layer legitimately allocates per window: FromSorted builds
  // a fresh summary (~10 node/tuple allocations at epsilon 0.01) that the
  // whole-stream structure then absorbs. That is algorithmic state growth,
  // not pipeline machinery — the pipeline itself is held to exactly zero by
  // the tests below. The bound here (~12 per window, 32 windows streamed)
  // still catches the old per-window buffer churn, which added several
  // hundred float-vector allocations at this window count.
  EXPECT_LE(after - before, 12u * 32u) << "per-window allocations in the estimator loop";
}

/// Streams batches of four 1,024-element windows through a WindowExecutor
/// over `sorters` and expects the steady-state ingest->drain loop to
/// allocate nothing. While warming up, the drain lags, so ingest fills every
/// in-flight slot and holds one batch more: the recycle pool then holds as
/// many batches as the measured loop can ever have alive (with std::sort this
/// fast, an unhurried drain often left the pool one batch short). The
/// warm-up also runs until every worker has sorted at least two batches,
/// counted by a PrepareFn, so no worker meets its first batch while measured.
void ExpectExecutorLoopAllocationFree(const std::vector<sort::Sorter*>& sorters,
                                      std::uint64_t seed) {
  constexpr std::uint64_t kWindow = 1 << 10;
  constexpr int kWindowsPerBatch = 4;
  constexpr std::size_t kBatchElements = kWindow * kWindowsPerBatch;

  std::uint64_t drained = 0;
  std::atomic<bool> warming{true};
  std::vector<std::atomic<int>> sorted_by(sorters.size());
  stream::WindowExecutor::Config config;
  config.max_batches_in_flight = 4;
  stream::WindowExecutor executor(
      config, sorters,
      [&drained, &warming](stream::WindowBatch& batch) {
        if (warming.load()) std::this_thread::sleep_for(std::chrono::milliseconds(1));
        drained += batch.elements;  // read-only drain; storage stays recyclable
        return streamgpu::core::Status::Ok();
      },
      [&sorted_by](int worker_index, stream::WindowBatch&) {
        sorted_by[static_cast<std::size_t>(worker_index)].fetch_add(1);
      });

  stream::StreamGenerator gen(
      {.distribution = stream::Distribution::kUniformReal, .seed = seed});
  stream::WindowBatcher batcher(kWindow, kWindowsPerBatch);
  auto stream_batches = [&](std::size_t batches) {
    for (std::size_t b = 0; b < batches; ++b) {
      const auto data = gen.Take(kBatchElements);
      for (float v : data) {
        if (batcher.Push(v)) executor.SubmitStaged(batcher);
      }
    }
    executor.WaitIdle();
  };
  const auto every_worker_warm = [&sorted_by] {
    return std::ranges::all_of(sorted_by,
                               [](const std::atomic<int>& n) { return n.load() >= 2; });
  };

  // Warm-up: rings, pool, worker scratch, sorter scratch.
  std::size_t warmup_batches = 12;
  stream_batches(warmup_batches);
  for (int round = 0; round < 16 && !every_worker_warm(); ++round) {
    stream_batches(4);
    warmup_batches += 4;
  }
  for (std::size_t w = 0; w < sorted_by.size(); ++w) {
    ASSERT_GE(sorted_by[w].load(), 2) << "worker " << w << " sorted too few warm-up batches";
  }
  warming = false;

  // gen.Take above allocates; measure only the ingest->drain loop.
  std::vector<std::vector<float>> prepared;
  for (int b = 0; b < 16; ++b) prepared.push_back(gen.Take(kBatchElements));

  const std::uint64_t before = AllocCount();
  for (const auto& data : prepared) {
    for (float v : data) {
      if (batcher.Push(v)) executor.SubmitStaged(batcher);
    }
  }
  executor.WaitIdle();
  const std::uint64_t after = AllocCount();

  EXPECT_EQ(after - before, 0u) << "steady-state executor loop allocated";
  EXPECT_EQ(drained, kBatchElements * (warmup_batches + 16));
}

// The executor in isolation (no summary structures): strictly zero
// allocations per steady-state batch, inline (one sorter) and threaded.
TEST(AllocTest, WindowExecutorAloneIsAllocationFree) {
  if (kSanitized) GTEST_SKIP() << "sanitizers intercept operator new";
  sort::StdSortSorter sorter_a(hwmodel::kPentium4_3400);
  sort::StdSortSorter sorter_b(hwmodel::kPentium4_3400);
  for (const std::vector<sort::Sorter*>& sorters :
       {std::vector<sort::Sorter*>{&sorter_a},
        std::vector<sort::Sorter*>{&sorter_a, &sorter_b}}) {
    SCOPED_TRACE(testing::Message() << "sorters=" << sorters.size());
    ExpectExecutorLoopAllocationFree(sorters, 11);
  }
}

// Same strict-zero contract, with the simulated-GPU sorters: covers the
// device texture/framebuffer arena, the sorter's staging plane, and the
// rasterizer's per-thread scratch on top of the executor rings.
TEST(AllocTest, GpuWindowExecutorIsAllocationFree) {
  if (kSanitized) GTEST_SKIP() << "sanitizers intercept operator new";
  gpu::GpuDevice device_a;
  gpu::GpuDevice device_b;
  sort::PbsnOptions opt;
  opt.format = gpu::Format::kFloat16;
  sort::PbsnGpuSorter sorter_a(&device_a, hwmodel::kGeForce6800Ultra,
                               hwmodel::kPentium4_3400, opt);
  sort::PbsnGpuSorter sorter_b(&device_b, hwmodel::kGeForce6800Ultra,
                               hwmodel::kPentium4_3400, opt);
  ExpectExecutorLoopAllocationFree({&sorter_a, &sorter_b}, 13);
}

// A whole-history GK+EH query reads the bucket list in place: once the
// summary is warm, answering allocates nothing.
TEST(AllocTest, GkEhQuantileQueryIsAllocationFree) {
  if (kSanitized) GTEST_SKIP() << "sanitizers intercept operator new";

  const double epsilon = 0.01;
  const std::uint64_t window = core::NaturalQuantileWindow(epsilon, 0, 0);
  core::QuantileSummaryCore summary(epsilon, window, /*sliding_window=*/0,
                                    /*expected_stream_length=*/0);
  // 300 windows of 100: buckets 3, 4 and 6 hold exact runs (4, 8 and 32
  // windows); bucket 9 (256 windows) is past the 3,501-element prune
  // budget, so it holds tuples.
  stream::StreamGenerator gen(
      {.distribution = stream::Distribution::kUniformReal, .seed = 17});
  for (int i = 0; i < 300; ++i) {
    std::vector<float> w = gen.Take(window);
    std::sort(w.begin(), w.end());
    summary.MergeSortedWindow(w);
  }

  float sum = 0;
  const std::uint64_t before = AllocCount();
  for (int round = 0; round < 100; ++round) {
    for (const double phi : {0.01, 0.5, 0.99}) sum += summary.Quantile(phi, 0).value;
  }
  const std::uint64_t after = AllocCount();

  EXPECT_EQ(after - before, 0u) << "steady-state GK+EH queries allocated";
  EXPECT_GT(sum, 0.0f);
}

}  // namespace
}  // namespace streamgpu
