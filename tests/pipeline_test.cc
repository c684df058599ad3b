// Pipeline determinism suite: the threaded window executor
// (stream::WindowExecutor and its wiring through the core estimators) must
// be an execution-mode change only. For every backend, worker count, and seed,
// pipelined execution has to produce byte-identical query answers and
// identical operation counts / simulated-2005 times to serial execution,
// because the single summary thread drains sorted windows in submission
// order. Plus shutdown/flush-mid-window edge cases, the executor's
// quarantine hand-off, and its failure paths (a dead drain, the drain
// deadline).

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <map>
#include <random>
#include <set>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/fork_join.h"
#include "core/stream_miner.h"
#include "core/summary_core.h"
#include "gpu/half.h"
#include "hwmodel/hardware_profiles.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "sketch/gk_summary.h"
#include "sort/cpu_sort.h"
#include "stream/generator.h"
#include "stream/window_buffer.h"
#include "stream/window_executor.h"

namespace streamgpu::core {
namespace {

std::vector<float> ZipfStream(std::size_t n, unsigned seed) {
  stream::StreamGenerator gen({.distribution = stream::Distribution::kZipf,
                               .seed = seed,
                               .domain_size = 400});
  return gen.Take(n);
}

// Everything observable about a StreamMiner after a run: query answers,
// space, and the full deterministic slice of the cost records (wall-clock
// fields excluded — those legitimately differ across execution modes).
struct Snapshot {
  FrequencyReport hitters;
  FrequencyReport top3;
  std::vector<float> quantiles;
  std::vector<std::uint64_t> probe_counts;
  std::uint64_t freq_processed = 0;
  std::uint64_t quant_processed = 0;
  std::size_t freq_summary = 0;
  std::size_t quant_summary = 0;
  double freq_sim_seconds = 0;
  double quant_sim_seconds = 0;
  double freq_sort_sim = 0;
  double quant_sort_sim = 0;
  std::uint64_t freq_comparisons = 0;
  std::uint64_t quant_comparisons = 0;
  std::uint64_t freq_hist_elements = 0;
  std::uint64_t quant_hist_elements = 0;
  std::uint64_t freq_merged = 0;
  std::uint64_t freq_compressed = 0;
  gpu::GpuStats freq_device;
  gpu::GpuStats quant_device;

  friend bool operator==(const Snapshot&, const Snapshot&) = default;
};

Snapshot Capture(const StreamMiner& miner) {
  Snapshot s;
  const auto& fe = miner.frequencies();
  const auto& qe = miner.quantiles();
  s.hitters = fe.HeavyHitters(0.02);
  s.top3 = fe.TopK(3);
  for (double phi : {0.1, 0.5, 0.9, 0.99}) {
    s.quantiles.push_back(qe.Quantile(phi).value);
  }
  for (float probe : {0.0f, 1.0f, 5.0f, 123.0f}) {
    s.probe_counts.push_back(fe.EstimateCount(probe));
  }
  s.freq_processed = fe.processed_length();
  s.quant_processed = qe.processed_length();
  s.freq_summary = fe.summary_size();
  s.quant_summary = qe.summary_size();
  s.freq_sim_seconds = fe.SimulatedSeconds();
  s.quant_sim_seconds = qe.SimulatedSeconds();
  s.freq_sort_sim = fe.costs().sort.simulated_seconds;
  s.quant_sort_sim = qe.costs().sort.simulated_seconds;
  s.freq_comparisons = fe.costs().sort.comparisons;
  s.quant_comparisons = qe.costs().sort.comparisons;
  s.freq_hist_elements = fe.costs().histogram_elements;
  s.quant_hist_elements = qe.costs().histogram_elements;
  s.freq_merged = fe.costs().merged_entries;
  s.freq_compressed = fe.costs().compressed_entries;
  s.freq_device = fe.device_stats();
  s.quant_device = qe.device_stats();
  return s;
}

Snapshot RunMiner(Options opt, const std::vector<float>& data) {
  StreamMiner miner(opt);
  miner.ObserveBatch(data);
  miner.Flush();
  return Capture(miner);
}

constexpr Backend kAllBackends[] = {Backend::kGpuPbsn, Backend::kGpuBitonic,
                                    Backend::kCpuQuicksort, Backend::kCpuStdSort};

TEST(PipelineDeterminismTest, MatchesSerialAcrossBackendsWorkersAndSeeds) {
  for (unsigned seed : {1u, 2u}) {
    const auto data = ZipfStream(12000, seed);
    for (Backend backend : kAllBackends) {
      Options opt;
      opt.epsilon = 0.01;
      opt.backend = backend;

      opt.num_sort_workers = 1;  // serial reference
      const Snapshot serial = RunMiner(opt, data);

      for (int workers : {2, 8}) {
        opt.num_sort_workers = workers;
        const Snapshot pipelined = RunMiner(opt, data);
        EXPECT_EQ(pipelined, serial)
            << BackendName(backend) << " seed=" << seed << " workers=" << workers;
      }
    }
  }
}

TEST(PipelineDeterminismTest, MatchesSerialInSlidingMode) {
  const auto data = ZipfStream(15000, 3);
  for (Backend backend : {Backend::kGpuPbsn, Backend::kCpuQuicksort}) {
    Options opt;
    opt.epsilon = 0.01;
    opt.backend = backend;
    opt.sliding_window = 5000;

    opt.num_sort_workers = 1;
    const Snapshot serial = RunMiner(opt, data);

    opt.num_sort_workers = 4;
    const Snapshot pipelined = RunMiner(opt, data);
    EXPECT_EQ(pipelined, serial) << BackendName(backend);
  }
}

TEST(PipelineDeterminismTest, MidStreamQueriesMatchSerial) {
  // Queries synchronize with the pipeline (drain everything in flight), so a
  // mid-stream query sees exactly the serial state at the same point.
  const auto data = ZipfStream(9000, 4);
  Options opt;
  opt.epsilon = 0.01;
  opt.backend = Backend::kGpuPbsn;

  Options serial_opt = opt;
  serial_opt.num_sort_workers = 1;
  Options pipe_opt = opt;
  pipe_opt.num_sort_workers = 3;

  FrequencyEstimator serial(serial_opt);
  FrequencyEstimator pipelined(pipe_opt);
  for (std::size_t i = 0; i < data.size(); ++i) {
    serial.Observe(data[i]);
    pipelined.Observe(data[i]);
    if (i == data.size() / 3 || i == 2 * data.size() / 3) {
      EXPECT_EQ(pipelined.HeavyHitters(0.03), serial.HeavyHitters(0.03)) << i;
      EXPECT_EQ(pipelined.processed_length(), serial.processed_length()) << i;
      EXPECT_EQ(pipelined.SimulatedSeconds(), serial.SimulatedSeconds()) << i;
    }
  }
  serial.Flush();
  pipelined.Flush();
  EXPECT_EQ(pipelined.HeavyHitters(0.02), serial.HeavyHitters(0.02));
}

TEST(PipelineDeterminismTest, SplitIngestAndTerminalFlushMatchSerial) {
  // Ingest in unaligned spans (the final window is partial), finalize once,
  // and hit the post-Flush lifecycle: both modes must chunk the stream
  // identically and reject late observations the same way.
  const auto data = ZipfStream(1234, 5);
  for (Backend backend : {Backend::kGpuPbsn, Backend::kCpuStdSort}) {
    Options opt;
    opt.epsilon = 0.02;  // window 50: 1234 is mid-window for any batch size
    opt.backend = backend;

    auto run_split = [&](int workers) {
      Options o = opt;
      o.num_sort_workers = workers;
      StreamMiner miner(o);
      const std::size_t cut = 533;  // mid-window split
      EXPECT_TRUE(miner.ObserveBatch(std::span(data.data(), cut)).ok());
      EXPECT_TRUE(
          miner.ObserveBatch(std::span(data.data() + cut, data.size() - cut)).ok());
      miner.Flush();
      miner.Flush();  // idempotent
      EXPECT_TRUE(miner.finalized());
      EXPECT_EQ(miner.Observe(1.0f).code(), Status::Code::kFailedPrecondition);
      return Capture(miner);
    };
    EXPECT_EQ(run_split(4), run_split(1)) << BackendName(backend);
  }
}

TEST(PipelineDeterminismTest, PipelineCostsRecordWaitAccounting) {
  const auto data = ZipfStream(8000, 6);
  Options opt;
  opt.epsilon = 0.01;
  opt.backend = Backend::kCpuStdSort;
  opt.num_sort_workers = 2;
  FrequencyEstimator fe(opt);
  fe.ObserveBatch(data);
  fe.Flush();
  const PipelineCosts& costs = fe.costs();
  EXPECT_GT(costs.pipelined_batches, 0u);
  EXPECT_GT(costs.sort_wall_seconds, 0.0);
  EXPECT_GT(costs.drain_wall_seconds, 0.0);
  EXPECT_GE(costs.ingest_stall_seconds, 0.0);

  // Serial mode leaves the pipeline fields untouched.
  opt.num_sort_workers = 1;
  FrequencyEstimator serial(opt);
  serial.ObserveBatch(data);
  serial.Flush();
  EXPECT_EQ(serial.costs().pipelined_batches, 0u);
  EXPECT_EQ(serial.costs().sort_wall_seconds, 0.0);
}

TEST(PipelineDeterminismTest, BackpressureCapStillDeterministic) {
  const auto data = ZipfStream(6000, 7);
  Options opt;
  opt.epsilon = 0.01;
  opt.backend = Backend::kCpuQuicksort;

  opt.num_sort_workers = 1;
  const Snapshot serial = RunMiner(opt, data);

  opt.num_sort_workers = 4;
  opt.max_windows_in_flight = 4;  // one batch in flight: fully serialized flow
  const Snapshot pipelined = RunMiner(opt, data);
  EXPECT_EQ(pipelined, serial);
}

// Everything a quantile estimator run leaves behind: its reports, its
// export, its checkpoint directory's files and its deterministic costs.
struct QuantileRun {
  std::vector<QuantileReport> reports;
  std::vector<std::uint8_t> summary;
  std::map<std::string, std::string> checkpoint_files;
  std::uint64_t merged_entries = 0;
  std::uint64_t compressed_entries = 0;
  std::uint64_t histogram_elements = 0;
  double simulated_seconds = 0;

  friend bool operator==(const QuantileRun&, const QuantileRun&) = default;
};

std::map<std::string, std::string> ReadDirectory(const std::filesystem::path& dir) {
  std::map<std::string, std::string> files;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    std::ifstream in(entry.path(), std::ios::binary);
    files[entry.path().filename().string()] =
        std::string(std::istreambuf_iterator<char>(in), {});
  }
  return files;
}

constexpr double kRunPhis[] = {0.01, 0.5, 0.99};

// Feeds `data` to a quantile estimator (epsilon 1e-3, W = 1,000) in 4,096-
// element calls with `workers` sort workers, checkpointing every 37 windows
// and once more after call 20, and queries after every `query_every` calls
// and at the end.
QuantileRun RunQuantiles(const std::vector<float>& data, Backend backend, int workers,
                         std::size_t query_every, const std::string& label) {
  constexpr std::size_t kChunk = 4096;
  SCOPED_TRACE(testing::Message() << BackendName(backend) << " workers=" << workers);
  const std::filesystem::path dir = std::filesystem::path(::testing::TempDir()) /
                                    ("pipeline_ck_" + label + BackendName(backend) +
                                     std::to_string(workers));
  std::filesystem::remove_all(dir);
  Options opt;
  opt.epsilon = 0.001;
  opt.backend = backend;
  opt.num_sort_workers = workers;
  opt.checkpoint_dir = dir.string();
  opt.checkpoint_every_windows = 37;
  QuantileEstimator qe(opt);
  QuantileRun out;
  for (std::size_t off = 0; off < data.size(); off += kChunk) {
    const std::size_t len = std::min(kChunk, data.size() - off);
    EXPECT_TRUE(qe.ObserveBatch(std::span(data).subspan(off, len)).ok());
    if (off / kChunk == 20) {
      EXPECT_TRUE(qe.Checkpoint().ok());
    }
    if ((off / kChunk + 1) % query_every != 0) continue;
    if (backend != Backend::kGpuPbsn) {
      // Every full window observed is processed.
      EXPECT_EQ(qe.processed_length(), (off + len) / 1000 * 1000);
    }
    for (double phi : kRunPhis) out.reports.push_back(qe.Quantile(phi));
  }
  EXPECT_TRUE(qe.Flush().ok());
  for (double phi : kRunPhis) out.reports.push_back(qe.Quantile(phi));
  out.summary = qe.SerializedSummary().value();
  out.checkpoint_files = ReadDirectory(dir);
  EXPECT_GE(out.checkpoint_files.size(), 2u);
  out.merged_entries = qe.costs().merged_entries;
  out.compressed_entries = qe.costs().compressed_entries;
  out.histogram_elements = qe.costs().histogram_elements;
  out.simulated_seconds = qe.SimulatedSeconds();
  return out;
}

TEST(PipelineDeterminismTest, QuantileBatchesMatchSerialWithQueriesAndCheckpoints) {
  // Host backends batch 32 windows and pre-merge aligned blocks on the sort
  // workers; PBSN batches one texture. Queries every 4,096 elements land
  // mid-window (W = 1,000), so Sync() cuts host batches short and the next
  // batch realigns; an explicit Checkpoint() lands mid-batch, beside the
  // 37-window cadence. Every worker count must leave the same reports,
  // export, checkpoint bytes and costs.
  stream::StreamGenerator gen(
      {.distribution = stream::Distribution::kUniformReal, .seed = 21});
  const std::vector<float> data = gen.Take(150000);
  for (Backend backend : {Backend::kCpuRadixMerge, Backend::kGpuPbsn}) {
    const QuantileRun serial = RunQuantiles(data, backend, 1, 1, "short");
    for (int workers : {2, 4}) {
      EXPECT_TRUE(RunQuantiles(data, backend, workers, 1, "short") == serial)
          << BackendName(backend) << " workers=" << workers;
    }
  }
}

TEST(PipelineDeterminismTest, SlicedCombinesMatchSerial) {
  // 2^19 elements: combines above the first prune (two 35,001-tuple GK
  // summaries) fire at windows 128, 256, 384 and 512, in chains of 2 and 3
  // at windows 256 and 512. With 2 and 4 sort workers the drain cuts each
  // into co-ranked slices that idle workers run; serially each is one pass.
  // A query every 8 calls leaves batches of up to 32 windows between them.
  stream::StreamGenerator gen(
      {.distribution = stream::Distribution::kUniformReal, .seed = 22});
  const std::vector<float> data = gen.Take(std::size_t{1} << 19);
  const QuantileRun serial = RunQuantiles(data, Backend::kCpuRadixMerge, 1, 8, "long");
  for (int workers : {2, 4}) {
    EXPECT_TRUE(RunQuantiles(data, Backend::kCpuRadixMerge, workers, 8, "long") == serial)
        << "workers=" << workers;
  }
}

TEST(PipelineDeterminismTest, QuarantinedRunsEqualACoreFedTheirSurvivors) {
  // Without the CPU fallback, persistent corruption quarantines PBSN
  // windows, which shifts the summary's window count off the stream's:
  // pre-merged blocks after it must be refused and the windows merged one
  // by one. Which windows a threaded run loses depends on which worker
  // sorted them, so each run is checked against a core fed, one window at
  // a time, the windows the run's drain did not report as quarantined.
  const auto data = ZipfStream(20000, 7);
  const double eps = 0.005;
  const std::uint64_t window = 200;
  constexpr std::size_t kChunk = 4096;
  for (int workers : {1, 2, 4}) {
    SCOPED_TRACE(testing::Message() << "workers=" << workers);
    obs::FlightRecorder flight(1 << 16);
    Options opt;
    opt.epsilon = eps;
    opt.backend = Backend::kGpuPbsn;
    opt.num_sort_workers = workers;
    opt.obs.flight = &flight;
    opt.fault.plan = *FaultPlan::Parse("readback:bitflip:every=2", 13);
    opt.fault.cpu_fallback = false;
    opt.fault.max_retries = 1;
    opt.fault.backoff_initial_us = 1;
    opt.fault.backoff_max_us = 1;
    QuantileEstimator qe(opt);
    std::vector<std::pair<std::uint64_t, std::vector<QuantileReport>>> seen;
    for (std::size_t off = 0; off < data.size(); off += kChunk) {
      const std::size_t len = std::min(kChunk, data.size() - off);
      ASSERT_TRUE(qe.ObserveBatch(std::span(data).subspan(off, len)).ok());
      std::vector<QuantileReport> reports;
      for (double phi : kRunPhis) reports.push_back(qe.Quantile(phi));
      // PBSN keeps staged windows for a full texture of four.
      seen.emplace_back((off + len) / (4 * window) * 4, std::move(reports));
    }
    ASSERT_TRUE(qe.Flush().ok());
    std::vector<QuantileReport> final_reports;
    for (double phi : kRunPhis) final_reports.push_back(qe.Quantile(phi));
    seen.emplace_back(data.size() / window, std::move(final_reports));

    std::set<std::uint64_t> quarantined;
    for (const obs::FlightEvent& e : flight.Events()) {
      if (e.kind == obs::FlightEventKind::kWindowQuarantined &&
          std::strcmp(e.stage, "drain") == 0) {
        quarantined.insert(e.seq);
      }
    }
    EXPECT_FALSE(quarantined.empty());
    EXPECT_EQ(quarantined.size(), qe.fault_stats().windows_quarantined);

    QuantileSummaryCore reference(eps, window, 0, 0);
    std::uint64_t fed = 0;
    for (const auto& [windows, reports] : seen) {
      for (; fed < windows; ++fed) {
        std::vector<float> w(data.begin() + static_cast<std::ptrdiff_t>(fed * window),
                             data.begin() + static_cast<std::ptrdiff_t>((fed + 1) * window));
        if (quarantined.contains(fed)) {
          reference.QuarantineWindow(w.size());
          continue;
        }
        for (float& v : w) v = gpu::QuantizeToHalf(v);
        std::sort(w.begin(), w.end());
        reference.MergeSortedWindow(w);
      }
      for (std::size_t i = 0; i < reports.size(); ++i) {
        EXPECT_EQ(reports[i], reference.Quantile(kRunPhis[i], 0)) << "after window " << windows;
      }
    }
    std::vector<std::uint8_t> want;
    ASSERT_TRUE(reference.AppendWireSummary(&want).ok());
    EXPECT_EQ(qe.SerializedSummary().value(), want);
  }
}

TEST(PipelineShutdownTest, DestructionFlushesInFlightBatchesCleanly) {
  // Destroying a pipelined estimator with batches still in flight (no
  // Flush) must join all threads without deadlock, crash, or leak (TSan/
  // ASan-observable). Queries are deliberately skipped.
  const auto data = ZipfStream(10000, 8);
  for (int workers : {2, 8}) {
    Options opt;
    opt.epsilon = 0.005;
    opt.backend = Backend::kCpuStdSort;
    opt.num_sort_workers = workers;
    QuantileEstimator qe(opt);
    qe.ObserveBatch(data);
    // ~50 batches were submitted; destructor runs with work in flight.
  }
  SUCCEED();
}

TEST(PipelineShutdownTest, WaitIdleOnEmptyPipelineReturnsImmediately) {
  Options opt;
  opt.epsilon = 0.01;
  opt.num_sort_workers = 2;
  opt.backend = Backend::kCpuStdSort;
  FrequencyEstimator fe(opt);
  fe.Flush();                                // nothing buffered
  EXPECT_EQ(fe.processed_length(), 0u);      // queries sync against idle pipeline
  EXPECT_TRUE(fe.HeavyHitters(0.01).items.empty());
  EXPECT_EQ(fe.costs().pipelined_batches, 0u);
}

TEST(PipelineObservabilityTest, CountersBitIdenticalAcrossWorkerCounts) {
  // The metrics determinism contract (docs/OBSERVABILITY.md): counters and
  // histograms record operation counts, so their merged totals are
  // bit-identical between serial and pipelined execution — even though the
  // pipelined run shards them across 8 worker threads plus ingest and drain.
  const auto data = ZipfStream(20000, 9);
  auto run = [&](int workers) {
    obs::MetricsRegistry metrics;
    Options opt;
    opt.epsilon = 0.005;
    opt.backend = Backend::kGpuPbsn;
    opt.num_sort_workers = workers;
    opt.obs.metrics = &metrics;
    StreamMiner miner(opt);
    miner.ObserveBatch(data);
    miner.Flush();
    (void)miner.frequencies().HeavyHitters(0.02);
    (void)miner.quantiles().Quantile(0.5);
    return metrics.Snapshot();
  };

  const obs::MetricsSnapshot serial = run(1);
  const obs::MetricsSnapshot pipelined = run(8);

  ASSERT_FALSE(serial.counters.empty());
  EXPECT_EQ(pipelined.counters, serial.counters);
  ASSERT_FALSE(serial.histograms.empty());
  ASSERT_EQ(pipelined.histograms.size(), serial.histograms.size());
  for (std::size_t i = 0; i < serial.histograms.size(); ++i) {
    EXPECT_EQ(pipelined.histograms[i].name, serial.histograms[i].name);
    EXPECT_EQ(pipelined.histograms[i].counts, serial.histograms[i].counts) << i;
    EXPECT_EQ(pipelined.histograms[i].sum, serial.histograms[i].sum) << i;
  }
  // Gauges (wall-clock readings) carry no such guarantee — only their names.
}

// Submits `data` to `executor` as a one-chunk batch of `window`-wide
// windows (the last may be partial), the way a dedicated estimator does.
Status SubmitChunk(stream::WindowExecutor& executor, std::vector<float>&& data,
                   std::uint64_t window) {
  stream::WindowBatch batch = executor.AcquireBatch();
  if (batch.chunks.empty()) batch.chunks.emplace_back();
  stream::WindowChunk& chunk = batch.chunks.front();
  chunk.window_size = window;
  chunk.final_partial = true;
  chunk.data = std::move(data);
  batch.elements = chunk.data.size();
  return executor.Submit(std::move(batch));
}

// Direct executor exercise: drain order must equal submission order even
// with many workers racing, and every window must come back sorted.
TEST(WindowExecutorTest, DrainsInSubmissionOrderAndSortsEveryWindow) {
  constexpr int kWorkers = 4;
  constexpr std::uint64_t kWindow = 64;
  constexpr int kBatches = 50;

  std::vector<sort::StdSortSorter> sorters(
      static_cast<std::size_t>(kWorkers),
      sort::StdSortSorter(hwmodel::kPentium4_3400));
  std::vector<sort::Sorter*> sorter_ptrs;
  for (auto& s : sorters) sorter_ptrs.push_back(&s);

  std::vector<float> drained_markers;  // first element of each drained batch
  std::uint64_t drained_elements = 0;
  bool all_sorted = true;
  stream::WindowExecutor executor(
      {}, sorter_ptrs, [&](stream::WindowBatch& drained) {
        // Batches are marked by their first window's minimum: batch i holds
        // values in [i*1000, i*1000 + size).
        const std::vector<float>& batch = drained.chunks.front().data;
        drained_markers.push_back(batch.front());
        drained_elements += batch.size();
        for (std::size_t off = 0; off < batch.size(); off += kWindow) {
          const std::size_t end = std::min(batch.size(), off + kWindow);
          for (std::size_t j = off + 1; j < end; ++j) {
            if (batch[j - 1] > batch[j]) all_sorted = false;
          }
        }
        std::uint64_t comparisons = 0;
        for (const sort::SortRunInfo& run : drained.sorts) comparisons += run.comparisons;
        EXPECT_GT(comparisons, 0u);
        return core::Status::Ok();
      });

  std::uint64_t submitted_elements = 0;
  for (int b = 0; b < kBatches; ++b) {
    // Descending input so sorting has to do real work; size varies so the
    // final window of most batches is partial.
    const std::size_t size = 3 * kWindow + static_cast<std::size_t>(b % 17);
    std::vector<float> batch(size);
    for (std::size_t j = 0; j < size; ++j) {
      batch[j] = static_cast<float>(b * 1000 + (size - 1 - j));
    }
    submitted_elements += size;
    SubmitChunk(executor, std::move(batch), kWindow);
  }
  executor.WaitIdle();

  ASSERT_EQ(drained_markers.size(), static_cast<std::size_t>(kBatches));
  for (int b = 0; b < kBatches; ++b) {
    // After per-window sorting, the batch front is the first window's
    // minimum: the descending fill put values [2*kWindow + b%17, ...) there.
    const float expected =
        static_cast<float>(b * 1000 + 2 * kWindow + static_cast<std::uint64_t>(b % 17));
    EXPECT_EQ(drained_markers[static_cast<std::size_t>(b)], expected)
        << "batch drained out of order";
  }
  EXPECT_TRUE(all_sorted);
  EXPECT_EQ(drained_elements, submitted_elements);
  EXPECT_EQ(executor.stats().batches, static_cast<std::uint64_t>(kBatches));
}

// A descending batch of `windows` windows, so that sorting it is real work.
std::vector<float> DescendingBatch(std::size_t windows, std::uint64_t window) {
  std::vector<float> batch(windows * window);
  for (std::size_t j = 0; j < batch.size(); ++j) {
    batch[j] = static_cast<float>(batch.size() - j);
  }
  return batch;
}

// Forwards to `inner`, holding task 0 on the calling thread until every
// other task has run, so that only other threads can run those.
class OthersFirst final : public ForkJoin {
 public:
  explicit OthersFirst(ForkJoin& inner) : inner_(inner) {}
  std::size_t width() const override { return inner_.width(); }
  void Run(std::size_t tasks, const std::function<void(std::size_t)>& task) override {
    std::atomic<std::size_t> done{0};
    inner_.Run(tasks, [&](std::size_t i) {
      while (i == 0 && done.load() + 1 < tasks) std::this_thread::yield();
      task(i);
      ++done;
    });
  }

 private:
  ForkJoin& inner_;
};

TEST(WindowExecutorTest, RunSpreadsTheDrainsTasksOverIdleWorkers) {
  // The drain callback forks tasks while the workers sort later batches.
  // Every task runs exactly once, whoever claims it; on every fourth batch
  // task 0 waits for the others, which only the workers can then run.
  constexpr int kWorkers = 2;
  constexpr std::uint64_t kWindow = 256;
  constexpr std::size_t kBatches = 40;
  constexpr std::size_t kTasks = 5;
  std::vector<sort::StdSortSorter> sorters(static_cast<std::size_t>(kWorkers),
                                           sort::StdSortSorter(hwmodel::kPentium4_3400));
  std::vector<sort::Sorter*> sorter_ptrs;
  for (auto& sorter : sorters) sorter_ptrs.push_back(&sorter);
  std::vector<std::atomic<int>> runs(kBatches * kTasks);
  std::size_t drained = 0;
  stream::WindowExecutor* self = nullptr;
  stream::WindowExecutor executor({}, sorter_ptrs, [&](stream::WindowBatch&) {
    const std::size_t b = drained++;
    const auto task = [&runs, b](std::size_t i) { ++runs[b * kTasks + i]; };
    if (b % 4 == 0) {
      OthersFirst forced(*self);
      forced.Run(kTasks, task);
    } else {
      self->Run(kTasks, task);
    }
    return core::Status::Ok();
  });
  self = &executor;
  EXPECT_EQ(executor.width(), static_cast<std::size_t>(kWorkers) + 1);
  for (std::size_t b = 0; b < kBatches; ++b) {
    ASSERT_TRUE(SubmitChunk(executor, DescendingBatch(16, kWindow), kWindow).ok());
  }
  ASSERT_TRUE(executor.WaitIdle().ok());
  ASSERT_EQ(drained, kBatches);
  for (std::size_t i = 0; i < runs.size(); ++i) {
    EXPECT_EQ(runs[i].load(), 1) << "batch " << i / kTasks << " task " << i % kTasks;
  }
  // The forced batches' tasks 1..4 ran on workers; others may have too.
  const std::uint64_t on_workers = executor.stats().worker_tasks;
  EXPECT_GE(on_workers, kBatches / 4 * (kTasks - 1));
  EXPECT_LE(on_workers, kBatches * (kTasks - 1));
}

TEST(WindowExecutorTest, InlineRunRunsEveryTaskOnTheCallerInOrder) {
  sort::StdSortSorter sorter(hwmodel::kPentium4_3400);
  std::vector<std::size_t> order;
  std::vector<std::thread::id> threads;
  stream::WindowExecutor* self = nullptr;
  stream::WindowExecutor executor({}, {&sorter}, [&](stream::WindowBatch&) {
    self->Run(6, [&](std::size_t i) {
      order.push_back(i);
      threads.push_back(std::this_thread::get_id());
    });
    return core::Status::Ok();
  });
  self = &executor;
  EXPECT_EQ(executor.width(), 1u);
  ASSERT_TRUE(SubmitChunk(executor, DescendingBatch(2, 8), 8).ok());
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4, 5}));
  for (const std::thread::id& id : threads) EXPECT_EQ(id, std::this_thread::get_id());
  EXPECT_EQ(executor.stats().worker_tasks, 0u);
}

TEST(WindowExecutorTest, DestructionWhileTasksRunLosesNone) {
  // The executor is destroyed with batches in flight whose drains fork
  // slow tasks: the destructor drains every batch, and every task runs.
  constexpr std::size_t kBatches = 12;
  constexpr std::size_t kTasks = 4;
  std::vector<std::atomic<int>> runs(kBatches * kTasks);
  {
    std::vector<sort::StdSortSorter> sorters(3, sort::StdSortSorter(hwmodel::kPentium4_3400));
    std::vector<sort::Sorter*> sorter_ptrs;
    for (auto& sorter : sorters) sorter_ptrs.push_back(&sorter);
    std::size_t drained = 0;
    stream::WindowExecutor* self = nullptr;
    stream::WindowExecutor executor({}, sorter_ptrs, [&](stream::WindowBatch&) {
      const std::size_t b = drained++;
      self->Run(kTasks, [&](std::size_t i) {
        std::this_thread::sleep_for(std::chrono::microseconds(300));
        ++runs[b * kTasks + i];
      });
      return core::Status::Ok();
    });
    self = &executor;
    for (std::size_t b = 0; b < kBatches; ++b) {
      ASSERT_TRUE(SubmitChunk(executor, DescendingBatch(4, 64), 64).ok());
    }
  }
  for (std::size_t i = 0; i < runs.size(); ++i) {
    EXPECT_EQ(runs[i].load(), 1) << "batch " << i / kTasks << " task " << i % kTasks;
  }
}

TEST(WindowExecutorTest, GkCombineSlicesOnWorkersMatchTheOnePass) {
  // The sliced GkSummary::MergePruned with its slices forced onto the sort
  // workers, as a quantile stream's drain runs it, equals the one pass.
  std::mt19937 rng(23);
  std::uniform_real_distribution<float> dist(0.0f, 1.0f);
  const auto side = [&](std::size_t n) {
    std::vector<float> values(n);
    for (float& v : values) v = dist(rng);
    std::sort(values.begin(), values.end());
    return sketch::GkSummary::PruneExact(values, n / 2);
  };
  const sketch::GkSummary a = side(12000);
  const sketch::GkSummary b = side(9000);
  std::vector<sort::StdSortSorter> sorters(2, sort::StdSortSorter(hwmodel::kPentium4_3400));
  std::vector<sort::Sorter*> sorter_ptrs{&sorters[0], &sorters[1]};
  std::vector<sketch::GkSummary> combined;
  stream::WindowExecutor* self = nullptr;
  stream::WindowExecutor executor({}, sorter_ptrs, [&](stream::WindowBatch&) {
    OthersFirst forced(*self);
    for (std::size_t budget : {50u, 3000u, 7000u}) {
      combined.push_back(sketch::GkSummary::MergePruned(a, b, budget, 3, &forced));
    }
    return core::Status::Ok();
  });
  self = &executor;
  ASSERT_TRUE(SubmitChunk(executor, DescendingBatch(2, 8), 8).ok());
  ASSERT_TRUE(executor.WaitIdle().ok());
  ASSERT_EQ(combined.size(), 3u);
  std::size_t i = 0;
  for (std::size_t budget : {50u, 3000u, 7000u}) {
    const sketch::GkSummary want = sketch::GkSummary::MergePruned(a, b, budget);
    EXPECT_EQ(combined[i].tuples(), want.tuples()) << "budget " << budget;
    EXPECT_EQ(combined[i].count(), want.count());
    EXPECT_EQ(combined[i].epsilon(), want.epsilon());
    ++i;
  }
  EXPECT_EQ(executor.stats().worker_tasks, 6u);
}

// Sorts every run and reports a fixed quarantine mask for one chosen
// SortRuns call (the `flagged_call`-th, counting from 0), the way a
// ResilientSorter reports windows it could not recover.
class StubQuarantineSorter final : public sort::Sorter {
 public:
  StubQuarantineSorter(int flagged_call, std::uint64_t mask)
      : flagged_call_(flagged_call), mask_(mask) {}

  void Sort(std::span<float> data) override { std::sort(data.begin(), data.end()); }
  void SortRuns(std::span<std::span<float>> runs) override {
    for (std::span<float> run : runs) Sort(run);
    last_mask_ = calls_++ == flagged_call_ ? mask_ : 0;
  }
  const sort::SortRunInfo& last_run() const override { return run_; }
  std::uint64_t last_quarantine_mask() const override { return last_mask_; }
  const char* name() const override { return "stub"; }

 protected:
  void set_last_run(const sort::SortRunInfo& info) override { run_ = info; }

 private:
  const int flagged_call_;
  const std::uint64_t mask_;
  int calls_ = 0;
  std::uint64_t last_mask_ = 0;
  sort::SortRunInfo run_;
};

// Quarantine flags must survive the executor's grouping: a batch of more
// than 64 windows is sorted in several SortRuns calls, and the mask of the
// second call must land on exactly the windows it covers — here windows of
// the batch's later chunks — in both inline and threaded mode.
TEST(WindowExecutorTest, QuarantineFlagsCrossSortGroupsAndChunks) {
  constexpr std::uint64_t kWindow = 8;
  constexpr std::size_t kChunks = 5;
  constexpr std::size_t kWindowsPerChunk = 20;  // 100 windows: groups of 64 + 36
  // Bits 1, 5 and 30 of the second group: batch windows 65, 69 and 94, i.e.
  // chunk 3's windows 5 and 9 and chunk 4's window 14.
  constexpr std::uint64_t kMask = (1ull << 1) | (1ull << 5) | (1ull << 30);
  const std::vector<std::size_t> expected = {65, 69, 94};

  for (int workers : {1, 2}) {
    SCOPED_TRACE(testing::Message() << "workers=" << workers);
    // Every worker flags its second SortRuns call; each batch has exactly
    // two groups, so whichever worker sorts the batch flags group two.
    std::vector<StubQuarantineSorter> sorters(static_cast<std::size_t>(workers),
                                              StubQuarantineSorter(1, kMask));
    std::vector<sort::Sorter*> sorter_ptrs;
    for (auto& s : sorters) sorter_ptrs.push_back(&s);

    std::vector<std::size_t> flagged;
    std::vector<std::uint32_t> flagged_streams;
    std::size_t windows_seen = 0;
    stream::WindowExecutor executor(
        {}, sorter_ptrs, [&](stream::WindowBatch& batch) {
          EXPECT_EQ(batch.quarantined.size(), kChunks * kWindowsPerChunk);
          std::size_t index = 0;
          batch.ForEachWindow([&](const stream::WindowChunk& chunk,
                                  std::span<float> window, bool quarantined) {
            EXPECT_EQ(window.size(), kWindow);
            if (quarantined) {
              flagged.push_back(index);
              flagged_streams.push_back(chunk.stream);
            }
            ++index;
          });
          windows_seen += index;
          return core::Status::Ok();
        });

    stream::WindowBatch batch;
    for (std::size_t c = 0; c < kChunks; ++c) {
      stream::WindowChunk chunk;
      chunk.stream = static_cast<std::uint32_t>(c);
      chunk.window_size = kWindow;
      chunk.data.resize(kWindowsPerChunk * kWindow);
      for (std::size_t j = 0; j < chunk.data.size(); ++j) {
        chunk.data[j] = static_cast<float>(chunk.data.size() - j);
      }
      batch.elements += chunk.data.size();
      batch.chunks.push_back(std::move(chunk));
    }
    ASSERT_TRUE(executor.Submit(std::move(batch)).ok());
    ASSERT_TRUE(executor.WaitIdle().ok());

    EXPECT_EQ(windows_seen, kChunks * kWindowsPerChunk);
    EXPECT_EQ(flagged, expected);
    EXPECT_EQ(flagged_streams, (std::vector<std::uint32_t>{3, 3, 4}));
  }
}

// --- Executor failure paths -------------------------------------------------

TEST(PipelineFailureTest, DeadDrainPropagatesStatusInsteadOfHanging) {
  // Regression: a DrainFn failure used to kill the drain thread silently;
  // once the in-flight cap filled, Observe() blocked forever. Now the first
  // failure poisons the executor and Submit()/WaitIdle() return it.
  constexpr std::uint64_t kWindow = 64;
  sort::StdSortSorter sorter_a(hwmodel::kPentium4_3400);
  sort::StdSortSorter sorter_b(hwmodel::kPentium4_3400);
  stream::WindowExecutor::Config config;
  config.max_batches_in_flight = 2;
  int drained = 0;
  stream::WindowExecutor executor(config, {&sorter_a, &sorter_b},
                                  [&drained](stream::WindowBatch&) {
                                    ++drained;
                                    return Status::Internal("summary thread exploded");
                                  });

  Status status = Status::Ok();
  for (int b = 0; b < 50 && status.ok(); ++b) {
    std::vector<float> batch(kWindow, static_cast<float>(b));
    status = SubmitChunk(executor, std::move(batch), kWindow);
  }
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), Status::Code::kInternal);
  EXPECT_EQ(drained, 1);  // the poisoned drain stopped consuming
  EXPECT_EQ(executor.WaitIdle().code(), Status::Code::kInternal);
}

TEST(PipelineFailureTest, DrainDeadlineTurnsBackpressureIntoStatus) {
  // One slow drain + a cap of one batch: Submit() blocks on backpressure and
  // must give up with kDeadlineExceeded after the configured deadline rather
  // than waiting indefinitely. Threaded mode (two workers): inline mode
  // never blocks.
  constexpr std::uint64_t kWindow = 64;
  sort::StdSortSorter sorter_a(hwmodel::kPentium4_3400);
  sort::StdSortSorter sorter_b(hwmodel::kPentium4_3400);
  stream::WindowExecutor::Config config;
  config.max_batches_in_flight = 1;
  config.drain_deadline_seconds = 0.05;
  stream::WindowExecutor executor(config, {&sorter_a, &sorter_b},
                                  [](stream::WindowBatch&) {
                                    std::this_thread::sleep_for(
                                        std::chrono::milliseconds(400));
                                    return Status::Ok();
                                  });

  Status status = Status::Ok();
  for (int b = 0; b < 8 && status.ok(); ++b) {
    std::vector<float> batch(kWindow, static_cast<float>(b));
    status = SubmitChunk(executor, std::move(batch), kWindow);
  }
  EXPECT_EQ(status.code(), Status::Code::kDeadlineExceeded);
}

TEST(WindowExecutorTest, WindowBatcherTakeBufferMovesAndResets) {
  stream::WindowBatcher batcher(4, 2);
  for (int i = 0; i < 7; ++i) EXPECT_FALSE(batcher.Push(static_cast<float>(i)));
  EXPECT_TRUE(batcher.Push(7.0f));
  std::vector<float> taken = batcher.TakeBuffer();
  EXPECT_EQ(taken.size(), 8u);
  EXPECT_TRUE(batcher.empty());
  // The batcher is immediately reusable.
  for (int i = 0; i < 3; ++i) batcher.Push(static_cast<float>(i));
  EXPECT_EQ(batcher.buffered(), 3u);
}

}  // namespace
}  // namespace streamgpu::core
