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
// It also records the largest request and, with glibc, the live heap bytes,
// which the checkpoint and service memory tests below read.

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
#include <filesystem>
#include <memory>
#include <new>
#include <span>
#include <string>
#include <thread>
#include <vector>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include <gtest/gtest.h>

#include "core/options.h"
#include "core/quantile_estimator.h"
#include "core/status.h"
#include "core/summary_core.h"
#include "durable/checkpoint.h"
#include "gpu/device.h"
#include "hwmodel/hardware_profiles.h"
#include "service/stream_service.h"
#include "sort/cpu_sort.h"
#include "sort/pbsn_gpu.h"
#include "stream/generator.h"
#include "stream/window_buffer.h"
#include "stream/window_executor.h"

namespace {

std::atomic<std::uint64_t> g_allocations{0};
std::atomic<std::size_t> g_largest{0};      // largest request since reset
std::atomic<std::int64_t> g_live_bytes{0};  // usable bytes of live blocks (glibc)

std::size_t UsableSize(void* p) {
#if defined(__GLIBC__)
  return malloc_usable_size(p);
#else
  (void)p;
  return 0;
#endif
}

void* Counted(void* p, std::size_t size) {
  if (p == nullptr) throw std::bad_alloc();
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  std::size_t largest = g_largest.load(std::memory_order_relaxed);
  while (size > largest &&
         !g_largest.compare_exchange_weak(largest, size, std::memory_order_relaxed)) {
  }
  g_live_bytes.fetch_add(static_cast<std::int64_t>(UsableSize(p)),
                         std::memory_order_relaxed);
  return p;
}

void Release(void* p) {
  if (p == nullptr) return;
  g_live_bytes.fetch_sub(static_cast<std::int64_t>(UsableSize(p)),
                         std::memory_order_relaxed);
  std::free(p);
}

}  // namespace

// Counting allocator hooks. Sized/aligned variants forward here.
void* operator new(std::size_t size) { return Counted(std::malloc(size ? size : 1), size); }

void* operator new[](std::size_t size) { return ::operator new(size); }

void* operator new(std::size_t size, std::align_val_t align) {
  void* p = nullptr;
  if (posix_memalign(&p, static_cast<std::size_t>(align), size ? size : 1) != 0) {
    throw std::bad_alloc();
  }
  return Counted(p, size);
}

void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}

void operator delete(void* p) noexcept { Release(p); }
void operator delete[](void* p) noexcept { Release(p); }
void operator delete(void* p, std::size_t) noexcept { Release(p); }
void operator delete[](void* p, std::size_t) noexcept { Release(p); }
void operator delete(void* p, std::align_val_t) noexcept { Release(p); }
void operator delete[](void* p, std::align_val_t) noexcept { Release(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { Release(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { Release(p); }

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

std::int64_t LiveBytes() { return g_live_bytes.load(std::memory_order_relaxed); }

#if defined(__GLIBC__)
constexpr bool kTracksLiveBytes = true;
#else
constexpr bool kTracksLiveBytes = false;
#endif

/// A fresh, empty directory under the test temp root.
std::string FreshDir(const std::string& name) {
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) / ("alloc_" + name);
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir.string();
}

/// Registers `streams` streams and appends `per_stream` Zipf values to each.
std::vector<service::StreamKey> Populate(service::StreamService& svc, std::size_t streams,
                                         std::size_t per_stream, double epsilon) {
  service::StreamConfig config;
  config.epsilon = epsilon;
  stream::StreamGenerator gen({.distribution = stream::Distribution::kZipf, .seed = 31});
  std::vector<service::StreamKey> keys;
  for (std::size_t i = 0; i < streams; ++i) {
    keys.push_back({i % 16, i});
    EXPECT_TRUE(svc.Register(keys.back(), config).ok());
    const auto admitted = svc.Append(keys.back(), gen.Take(per_stream));
    EXPECT_TRUE(admitted.ok() && *admitted == per_stream);
  }
  return keys;
}

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

// A service checkpoint streams to its .tmp file as it is encoded: however
// large the snapshot, no allocation made while it runs exceeds the flush
// size plus the largest record, doubled for the buffer's growth.
TEST(AllocTest, ServiceCheckpointHoldsAFlushNotTheSnapshot) {
  if (kSanitized) GTEST_SKIP() << "sanitizers intercept operator new";
  service::StreamService svc(service::ServiceConfig{});
  (void)Populate(svc, 2000, 450, 0.01);
  ASSERT_TRUE(svc.WaitIdle().ok());

  const std::string dir = FreshDir("service_checkpoint");
  durable::CheckpointWriter writer(dir);
  g_largest.store(0);
  ASSERT_TRUE(svc.Checkpoint(&writer).ok());
  const std::size_t largest_allocation = g_largest.load();

  const auto snapshot = durable::LoadLatestSnapshot(dir);
  ASSERT_TRUE(snapshot.ok());
  std::size_t largest_record = 0;
  for (const durable::OwnedRecord& record : snapshot->records) {
    largest_record =
        std::max(largest_record, durable::kRecordHeaderSize + record.payload.size());
  }
  const std::size_t bound = 2 * (durable::kSnapshotFlushBytes + largest_record);
  ASSERT_GT(writer.last_snapshot_bytes(), 4 * bound);
  EXPECT_LE(largest_allocation, bound)
      << "snapshot " << writer.last_snapshot_bytes() << " B, largest record "
      << largest_record << " B";
}

// Once its streams are finalized, a service holds its registry and its
// summaries only. Flush(key) frees the stream's staged window; FlushAll also
// frees the shards' and the executor's batches, leaving no more live heap
// than the same service restored from its checkpoint holds, give or take
// the sorter's scratch. Answers, exports and checkpoint bytes survive the
// release, and a stream registered afterwards ingests as usual.
TEST(AllocTest, FlushedServiceHoldsOnlyRegistryAndSummaries) {
  if (kSanitized) GTEST_SKIP() << "sanitizers intercept operator new";
  if (!kTracksLiveBytes) GTEST_SKIP() << "live heap bytes need glibc";
  constexpr std::size_t kStreams = 500;
  constexpr double kEpsilon = 0.001;  // 1,000-element windows
  constexpr std::int64_t kWindowBytes = 1000 * sizeof(float);
  const service::ServiceConfig config;

  const std::int64_t base = LiveBytes();
  auto svc = std::make_unique<service::StreamService>(config);
  // One whole window each goes to the shards; one element stays staged.
  const std::vector<service::StreamKey> keys = Populate(*svc, kStreams, 1001, kEpsilon);
  ASSERT_TRUE(svc->WaitIdle().ok());
  const std::int64_t staged = LiveBytes();
  for (std::size_t i = 0; i < kStreams / 2; ++i) ASSERT_TRUE(svc->Flush(keys[i]).ok());
  ASSERT_TRUE(svc->WaitIdle().ok());
  EXPECT_LT(LiveBytes(), staged - static_cast<std::int64_t>(kStreams / 2) * kWindowBytes * 3 / 4);
  ASSERT_TRUE(svc->FlushAll().ok());
  const std::int64_t held = LiveBytes() - base;

  const std::string dir = FreshDir("flushed_service");
  {
    durable::CheckpointWriter writer(dir);
    ASSERT_TRUE(svc->Checkpoint(&writer).ok());
  }
  const std::int64_t before_restore = LiveBytes();
  auto restored = service::StreamService::RestoreFrom(config, dir);
  ASSERT_TRUE(restored.ok());
  const std::int64_t restored_held = LiveBytes() - before_restore;
  EXPECT_LT(held, restored_held + 64 * kWindowBytes)
      << "flushed " << held << " B, restored " << restored_held << " B";

  for (const double phi : {0.01, 0.5, 0.99}) {
    EXPECT_EQ(svc->BatchQuantiles(keys, phi), (*restored)->BatchQuantiles(keys, phi));
  }
  for (const service::StreamKey& key : keys) {
    EXPECT_EQ(*svc->ExportQuantileSummary(key), *(*restored)->ExportQuantileSummary(key));
  }
  const std::string again = FreshDir("flushed_service_again");
  {
    durable::CheckpointWriter writer(again);
    ASSERT_TRUE((*restored)->Checkpoint(&writer).ok());
  }
  const auto first = durable::LoadLatestSnapshot(dir);
  const auto second = durable::LoadLatestSnapshot(again);
  ASSERT_TRUE(first.ok() && second.ok());
  ASSERT_EQ(first->records.size(), second->records.size());
  for (std::size_t r = 0; r < first->records.size(); ++r) {
    EXPECT_EQ(first->records[r].payload, second->records[r].payload) << "record " << r;
  }

  // A stream registered after FlushAll ingests into fresh storage and
  // answers as it would on a fresh service.
  service::StreamService fresh(config);
  const service::StreamKey late{99, 99};
  const std::vector<service::StreamKey> fresh_keys = Populate(fresh, 1, 2500, kEpsilon);
  service::StreamConfig stream_config;
  stream_config.epsilon = kEpsilon;
  ASSERT_TRUE(svc->Register(late, stream_config).ok());
  stream::StreamGenerator gen({.distribution = stream::Distribution::kZipf, .seed = 31});
  const auto admitted = svc->Append(late, gen.Take(2500));
  ASSERT_TRUE(admitted.ok() && *admitted == 2500);
  ASSERT_TRUE(svc->FlushAll().ok());
  ASSERT_TRUE(fresh.FlushAll().ok());
  EXPECT_EQ(*svc->ExportQuantileSummary(late), *fresh.ExportQuantileSummary(fresh_keys[0]));
  EXPECT_EQ(svc->BatchQuantiles(keys, 0.5), (*restored)->BatchQuantiles(keys, 0.5));
}

}  // namespace
}  // namespace streamgpu
