// e2e_bench: end-to-end benchmark of streamgpu through its public API.
//
//   e2e_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--scratch <dir>] [--trace-out <file.json>]
//
// Drives core::QuantileEstimator, core::FrequencyEstimator and
// service::StreamService from one process. Inputs are pre-generated from
// the seed before any timer starts; every timed answer is checked against an
// exact oracle after the timed region. Host wall-clock only: simulated-2005
// time belongs to the bench_fig* reproductions and is never reported here.
//
// --trace 0 repeats the workload (2 sort workers) for --seconds and reports
// the end-to-end metrics as medians over the repetitions.
// --trace 1 runs the workload three times on the same seed: once with
// 2 workers (read through costs()/stats()/device_stats()), once serially
// untraced, and once serially with a span around every public call. It then
// replays the same windows through SortEngine::sorter().SortRuns and
// {Quantile,Frequency}SummaryCore::MergeSortedWindow to split ingest-call
// time into sort, summary and the residual staging/dispatch time, and
// reports the per-layer metrics.
//
// The last stdout line is one JSON object: correct, attempted, failed and
// metrics (name -> {value, unit}). The exit code is non-zero when any
// operation failed. README.md documents workloads and metrics.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <span>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <vector>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "core/backend.h"
#include "core/frequency_estimator.h"
#include "core/quantile_estimator.h"
#include "core/summary_core.h"
#include "durable/checkpoint.h"
#include "gpu/half.h"
#include "oracle.h"
#include "service/stream_service.h"
#include "sketch/exact.h"
#include "spans.h"
#include "stream/generator.h"

namespace e2e {
namespace {

using namespace streamgpu;

constexpr double kEpsilon = 1e-3;
constexpr int kWorkers = 2;        // ingest + 2 sort workers + drain = 4 threads
constexpr int kSetupSamples = 4;   // setups timed per timed repetition
constexpr int kWarmups = 3;        // untimed repetitions, each measuring heap growth
constexpr int kMinReps = 3;

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Heap memory in use in MB, over every malloc arena plus mmapped blocks (0
// without glibc). Unlike the resident set, it does not depend on how much
// freed memory the allocator kept from earlier repetitions.
double HeapMb() {
#if defined(__GLIBC__)
  const struct mallinfo2 info = mallinfo2();
  return static_cast<double>(info.uordblks + info.hblkhd) / 1e6;
#else
  return 0;
#endif
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Nearest-rank percentile, p in (0, 1].
double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t rank = static_cast<std::size_t>(std::ceil(p * v.size()));
  return v[std::max<std::size_t>(rank, 1) - 1];
}

double Sum(const std::vector<double>& v) {
  double total = 0;
  for (double x : v) total += x;
  return total;
}

// Operations attempted and failed, plus the worst error-to-bound ratio.
struct Ledger {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  double max_ratio = 0;

  void Fail(const char* what, const std::string& detail) {
    if (++failed <= 10) std::fprintf(stderr, "FAILED %s: %s\n", what, detail.c_str());
  }
  bool Call(const core::Status& status, const char* what) {
    ++attempted;
    if (!status.ok()) Fail(what, status.message());
    return status.ok();
  }
  // Records one checked answer of an already-counted call.
  void Answer(double ratio, const char* what) {
    max_ratio = std::max(max_ratio, ratio);
    if (!(ratio <= 1.0)) Fail(what, "error beyond the stated bound");
  }
};

// Everything one execution of a workload measured.
struct Pass {
  std::vector<double> setup_s;  // one per timed setup
  double ingest_s = 0;          // first ingest call .. Flush/FlushAll return
  double wall_s = 0;            // whole pass, setup through the last call
  std::uint64_t elements = 0;
  std::vector<double> query_us;
  std::vector<double> sync_us;  // processed_length() before each query round
  std::uint64_t reports = 0;
  double heap_mb = 0;           // heap growth, setup .. after the last query
  double flush_s = 0;
  std::vector<double> checkpoint_s;
  double restore_s = 0;
  double load_s = 0;
  std::uint64_t snapshot_bytes = 0;
  std::uint64_t streams = 0;
  core::PipelineCosts costs;
  gpu::GpuStats device;
  service::ServiceStats stats;
  std::size_t summary_tuples = 0;
};

struct PassOptions {
  int workers = kWorkers;
  Spans* spans = nullptr;  // traced pass
  int setup_samples = 1;
};

// The same windows, replayed through the sort and summary layers directly.
struct Replay {
  double sort_s = 0;
  double summary_s = 0;
  std::uint64_t comparisons = 0;
  double histogram_s = 0;
  double merge_s = 0;
  double compress_s = 0;
  std::uint64_t merged_tuples = 0;
  std::uint64_t pruned_tuples = 0;
  std::uint64_t tuples = 0;
  bool match = false;  // replayed summaries answer exactly as the program did
};

class Workload {
 public:
  virtual ~Workload() = default;
  virtual void Generate(std::uint64_t seed) = 0;
  virtual Pass Run(const PassOptions& options, Ledger& ledger) = 0;
  // Checks every answer recorded since the last Check(), then forgets them.
  virtual void Check(Ledger& ledger) = 0;
  // Replays the input windows; compares against the last pass's final answers.
  virtual Replay ReplayWindows(Spans* spans) = 0;
  virtual bool is_service() const = 0;
};

// Splits `data` into windows of `window` elements (the last may be partial).
void SplitWindows(std::span<float> data, std::size_t window,
                  std::vector<std::span<float>>* out) {
  out->clear();
  for (std::size_t off = 0; off < data.size(); off += window) {
    out->push_back(data.subspan(off, std::min(window, data.size() - off)));
  }
}

// ---------------------------------------------------------------------------
// Dedicated estimators: quantile-long and frequency-flows.

template <class Estimator>
class EstimatorWorkload : public Workload {
  static constexpr bool kQuantile = std::is_same_v<Estimator, core::QuantileEstimator>;
  using Report =
      std::conditional_t<kQuantile, core::QuantileReport, core::FrequencyReport>;
  using Core = std::conditional_t<kQuantile, core::QuantileSummaryCore,
                                  core::FrequencySummaryCore>;

 public:
  struct Shape {
    stream::Distribution distribution;
    core::Backend backend;
    std::size_t elements;
    std::size_t chunk;                // elements per ObserveBatch call
    std::size_t query_every_calls;    // one query round every N calls
    std::vector<double> parameters;   // phis or supports of one round
  };

  explicit EstimatorWorkload(Shape shape) : shape_(std::move(shape)) {}

  bool is_service() const override { return false; }

  void Generate(std::uint64_t seed) override {
    stream::StreamGenerator gen({.distribution = shape_.distribution, .seed = seed});
    input_ = gen.Take(shape_.elements);
    // The estimator's value universe: binary16 on the GPU f16 path.
    universe_ = input_;
    if (core::SortEngine(MakeOptions(1)).is_gpu()) {
      gpu::QuantizeToHalfN(input_.data(), universe_.data(), universe_.size());
    }
  }

  Pass Run(const PassOptions& po, Ledger& ledger) override {
    Pass pass;
    Spans* spans = po.spans;
    const double heap0 = HeapMb();
    const double pass0 = Now();
    Scope root(spans, "pass", "bench");
    std::unique_ptr<Estimator> est;
    for (int i = 0; i < po.setup_samples; ++i) {
      est.reset();
      Scope s(spans, "Create", "setup");
      const double t0 = Now();
      auto created = Estimator::Create(MakeOptions(po.workers));
      pass.setup_s.push_back(Now() - t0);
      if (!ledger.Call(created.status(), "Create")) return pass;
      est = std::move(created).value();
    }

    final_answers_.clear();
    const std::span<const float> input(input_);
    const double ingest0 = Now();
    std::size_t calls = 0;
    for (std::size_t off = 0; off < input.size(); off += shape_.chunk) {
      const auto part = input.subspan(off, std::min(shape_.chunk, input.size() - off));
      {
        Scope s(spans, "ObserveBatch", "ingest");
        ledger.Call(est->ObserveBatch(part), "ObserveBatch");
      }
      if (++calls % shape_.query_every_calls == 0) QueryRound(*est, po, pass, ledger);
    }
    {
      Scope s(spans, "Flush", "ingest");
      const double t0 = Now();
      ledger.Call(est->Flush(), "Flush");
      pass.flush_s = Now() - t0;
    }
    pass.ingest_s = Now() - ingest0;
    pass.elements = input.size();
    QueryRound(*est, po, pass, ledger, &final_answers_);
    pass.heap_mb = HeapMb() - heap0;
    pass.costs = est->costs();
    pass.device = est->device_stats();
    pass.summary_tuples = est->summary_size();
    pass.wall_s = Now() - pass0;
    return pass;
  }

  void Check(Ledger& ledger) override {
    if constexpr (kQuantile) {
      // Answers repeat across repetitions (queries Sync first, so coverage
      // is deterministic); check each distinct answer once.
      std::map<std::tuple<std::uint64_t, double, float, std::uint64_t>, double> seen;
      for (const Report& r : answers_) {
        const auto key =
            std::make_tuple(r.window_coverage, r.phi, r.value, r.rank_error_bound);
        auto it = seen.find(key);
        if (it == seen.end()) {
          const std::span<const float> covered(universe_.data(), r.window_coverage);
          it = seen.emplace(key, QuantileErrorRatio(covered, r)).first;
        }
        ledger.Answer(it->second, "Quantile");
      }
    } else {
      // Exact counts grow prefix by prefix in coverage order.
      std::vector<const Report*> order;
      for (const Report& r : answers_) order.push_back(&r);
      std::stable_sort(order.begin(), order.end(), [](const Report* a, const Report* b) {
        return a->window_coverage < b->window_coverage;
      });
      std::unordered_map<float, std::uint64_t> exact;
      std::size_t counted = 0;
      for (const Report* r : order) {
        const std::span<const float> delta(universe_.data() + counted,
                                           r->window_coverage - counted);
        for (const auto& [value, count] : sketch::ExactCounts(delta)) {
          exact[value] += count;
        }
        counted = r->window_coverage;
        ledger.Answer(HeavyHitterErrorRatio(exact, *r), "HeavyHitters");
      }
    }
    answers_.clear();
  }

  Replay ReplayWindows(Spans* spans) override {
    Replay replay;
    Scope root(spans, "replay", "bench", 2);
    core::SortEngine engine(MakeOptions(1));
    const std::uint64_t window =
        kQuantile ? core::NaturalQuantileWindow(kEpsilon, 0, 0)
                  : core::NaturalFrequencyWindow(kEpsilon, 0, 0);
    Core core = MakeCore(window);
    const std::size_t batch = window * static_cast<std::size_t>(engine.batch_windows());
    std::vector<float> buffer;
    std::vector<std::span<float>> runs;
    for (std::size_t off = 0; off < universe_.size(); off += batch) {
      const std::size_t len = std::min(batch, universe_.size() - off);
      buffer.assign(universe_.begin() + off, universe_.begin() + off + len);
      SplitWindows(buffer, window, &runs);
      {
        Scope s(spans, "SortRuns", "sort", 2);
        const double t0 = Now();
        engine.sorter().SortRuns(runs);
        replay.sort_s += Now() - t0;
        replay.comparisons += engine.sorter().last_run().comparisons;
      }
      for (const std::span<float> run : runs) {
        Scope s(spans, "MergeSortedWindow", "summary", 2);
        const double t0 = Now();
        core.MergeSortedWindow(run);
        replay.summary_s += Now() - t0;
      }
    }
    replay.histogram_s = core.histogram_wall_seconds();
    if constexpr (kQuantile) {
      replay.merge_s = core.merge_seconds();
      replay.compress_s = core.compress_seconds();
      replay.merged_tuples = core.merged_tuples();
      replay.pruned_tuples = core.pruned_tuples();
    } else {
      replay.merge_s = core.op_costs()->merge_seconds;
      replay.compress_s = core.op_costs()->compress_seconds;
      replay.merged_tuples = core.op_costs()->merged_entries;
      replay.pruned_tuples = core.op_costs()->compressed_entries;
    }
    replay.tuples = core.summary_size();
    replay.match = !final_answers_.empty();
    for (std::size_t i = 0; i < final_answers_.size(); ++i) {
      replay.match =
          replay.match && Answer(core, shape_.parameters[i]) == final_answers_[i];
    }
    return replay;
  }

 private:
  core::Options MakeOptions(int workers) const {
    core::Options opt;
    opt.epsilon = kEpsilon;
    opt.backend = shape_.backend;
    opt.num_sort_workers = workers;
    return opt;
  }

  static Core MakeCore(std::uint64_t window) {
    if constexpr (kQuantile) {
      return Core(kEpsilon, window, 0, 0);
    } else {
      return Core(kEpsilon, window, 0);
    }
  }

  template <class Source>
  static Report Answer(const Source& source, double parameter) {
    if constexpr (std::is_same_v<Source, Core>) {
      if constexpr (kQuantile) {
        return source.Quantile(parameter, 0);
      } else {
        return source.HeavyHitters(parameter, 0);
      }
    } else if constexpr (kQuantile) {
      return source.Quantile(parameter);
    } else {
      return source.HeavyHitters(parameter);
    }
  }

  void QueryRound(Estimator& est, const PassOptions& po, Pass& pass, Ledger& ledger,
                  std::vector<Report>* finals = nullptr) {
    {
      // Waits for in-flight batches, which every query does first; timed
      // apart so the query latency is the query's own work.
      const double t0 = Now();
      (void)est.processed_length();
      pass.sync_us.push_back((Now() - t0) * 1e6);
    }
    for (double parameter : shape_.parameters) {
      Scope s(po.spans, kQuantile ? "Quantile" : "HeavyHitters", "query");
      const double t0 = Now();
      Report report = Answer(est, parameter);
      pass.query_us.push_back((Now() - t0) * 1e6);
      ++pass.reports;
      ++ledger.attempted;
      if (finals != nullptr) finals->push_back(report);
      answers_.push_back(std::move(report));
    }
  }

  Shape shape_;
  std::vector<float> input_;
  std::vector<float> universe_;
  std::vector<Report> answers_;        // awaiting Check()
  std::vector<Report> final_answers_;  // after Flush, last pass
};

// ---------------------------------------------------------------------------
// StreamService: service-checkpoint.

class ServiceWorkload : public Workload {
 public:
  struct Shape {
    std::uint64_t streams;
    double zipf_s;                   // skew of the stream each append goes to
    std::size_t elements;
    std::size_t append;              // elements per Append call
    std::size_t snapshot_keys;       // keys per BatchQuantiles call
    std::size_t checkpoint_every_appends;  // each followed by a query round
  };

  ServiceWorkload(Shape shape, std::string scratch)
      : shape_(shape), scratch_(std::move(scratch)) {}

  bool is_service() const override { return true; }

  void Generate(std::uint64_t seed) override {
    keys_.clear();
    for (std::uint64_t i = 0; i < shape_.streams; ++i) keys_.push_back({i % 16, i});
    std::vector<double> cdf(shape_.streams);
    double total = 0;
    for (std::uint64_t i = 0; i < shape_.streams; ++i) {
      total += 1.0 / std::pow(static_cast<double>(i + 1), shape_.zipf_s);
      cdf[i] = total;
    }
    std::mt19937_64 rng(seed ^ 0x5DEECE66Dull);
    std::uniform_real_distribution<double> uniform(0.0, total);
    const std::size_t appends = shape_.elements / shape_.append;
    targets_.resize(appends);
    for (std::uint32_t& target : targets_) {
      const auto it = std::lower_bound(cdf.begin(), cdf.end(), uniform(rng));
      target = static_cast<std::uint32_t>(
          std::min<std::size_t>(it - cdf.begin(), shape_.streams - 1));
    }
    stream::StreamGenerator gen(
        {.distribution = stream::Distribution::kUniformReal, .seed = seed});
    values_ = gen.Take(appends * shape_.append);
    per_stream_.assign(shape_.streams, {});
    for (std::size_t a = 0; a < appends; ++a) {
      const float* v = values_.data() + a * shape_.append;
      std::vector<float>& data = per_stream_[targets_[a]];
      data.insert(data.end(), v, v + shape_.append);
    }
  }

  Pass Run(const PassOptions& po, Ledger& ledger) override {
    Pass pass;
    Spans* spans = po.spans;
    const service::ServiceConfig config = MakeConfig(po.workers);
    service::StreamConfig stream_config;
    stream_config.epsilon = kEpsilon;
    const std::string dir = scratch_ + "/checkpoint";
    std::filesystem::remove_all(dir);

    const double heap0 = HeapMb();
    const double pass0 = Now();
    std::unique_ptr<service::StreamService> svc, restored;
    {
      Scope root(spans, "pass", "bench");
      for (int i = 0; i < po.setup_samples; ++i) {
        svc.reset();
        const double t0 = Now();
        {
          Scope s(spans, "Create", "setup");
          auto created = service::StreamService::Create(config);
          if (!ledger.Call(created.status(), "Create")) return pass;
          svc = std::move(created).value();
        }
        for (const service::StreamKey& key : keys_) {
          Scope s(spans, "Register", "setup");
          ledger.Call(svc->Register(key, stream_config), "Register");
        }
        pass.setup_s.push_back(Now() - t0);
      }
      pass.streams = keys_.size();

      durable::CheckpointWriter writer(dir);
      const std::span<const service::StreamKey> snapshot(keys_.data(),
                                                       shape_.snapshot_keys);
      final_answers_.clear();
      const double ingest0 = Now();
      for (std::size_t a = 0; a < targets_.size(); ++a) {
        const std::span<const float> part(values_.data() + a * shape_.append,
                                          shape_.append);
        {
          Scope s(spans, "Append", "ingest");
          const auto admitted = svc->Append(keys_[targets_[a]], part);
          if (ledger.Call(admitted.status(), "Append") && *admitted != part.size()) {
            ledger.Fail("Append", "elements shed under kBlock admission");
          }
        }
        if ((a + 1) % shape_.checkpoint_every_appends == 0) {
          Checkpoint(*svc, writer, spans, pass, ledger);
          // The checkpoint left every shard idle, so these reads wait on no
          // drain: their latency is the reads' own work.
          for (double phi : {0.01, 0.5, 0.99}) {
            BatchQuery(*svc, snapshot, phi, po, pass, ledger);
          }
        }
      }
      {
        Scope s(spans, "FlushAll", "ingest");
        const double t0 = Now();
        ledger.Call(svc->FlushAll(), "FlushAll");
        pass.flush_s = Now() - t0;
      }
      pass.ingest_s = Now() - ingest0;
      pass.elements = values_.size();
      final_answers_ = BatchQuery(*svc, snapshot, 0.5, po, pass, ledger);
      pass.heap_mb = HeapMb() - heap0;
      pass.stats = svc->stats();
      ++ledger.attempted;
      if (pass.stats.elements_shed != 0) {
        ledger.Fail("FlushAll", "elements shed under kBlock admission");
      }

      Checkpoint(*svc, writer, spans, pass, ledger);
      restored = Restore(config, dir, spans, pass, ledger);
      pass.wall_s = Now() - pass0;
    }
    if (restored != nullptr) VerifyRestored(*svc, *restored, ledger);
    std::filesystem::remove_all(dir);
    return pass;
  }

  void Check(Ledger& ledger) override {
    // Coverage depends on what the drain merged by query time; many
    // answers still repeat, so each distinct one is checked once.
    using Key = std::tuple<std::uint32_t, std::uint64_t, double, float, std::uint64_t>;
    std::map<Key, double> seen;
    for (const std::vector<core::QuantileReport>& reports : answers_) {
      double worst = 0;
      for (std::size_t i = 0; i < reports.size(); ++i) {
        const core::QuantileReport& r = reports[i];
        const auto stream = static_cast<std::uint32_t>(i);  // snapshot = keys 0..K-1
        const Key key{stream, r.window_coverage, r.phi, r.value, r.rank_error_bound};
        auto it = seen.find(key);
        if (it == seen.end()) {
          double ratio = std::numeric_limits<double>::infinity();
          if (r.window_coverage <= per_stream_[stream].size() && r.elements_shed == 0) {
            ratio = QuantileErrorRatio(
                std::span<const float>(per_stream_[stream].data(), r.window_coverage), r);
          }
          it = seen.emplace(key, ratio).first;
        }
        worst = std::max(worst, it->second);
      }
      ledger.Answer(worst, "BatchQuantiles");
    }
    answers_.clear();
  }

  Replay ReplayWindows(Spans* spans) override {
    Replay replay;
    Scope root(spans, "replay", "bench", 2);
    core::Options options;
    options.epsilon = kEpsilon;
    options.backend = MakeConfig(1).backend;
    core::SortEngine engine(options);
    const std::uint64_t window = core::NaturalQuantileWindow(kEpsilon, 0, 0);
    std::vector<std::optional<core::QuantileSummaryCore>> cores(shape_.streams);
    auto core_of = [&](std::uint32_t s) -> core::QuantileSummaryCore& {
      if (!cores[s].has_value()) cores[s].emplace(kEpsilon, window, 0, 0);
      return *cores[s];
    };
    // Windows of every stream in stream order, sorted in micro-batches of
    // the service's default dispatch size.
    const std::size_t batch_elements = 64 * window;
    std::vector<float> buffer;
    std::vector<std::pair<std::uint32_t, std::span<float>>> pending;
    std::vector<std::span<float>> runs;
    buffer.reserve(batch_elements + window);
    auto flush_batch = [&] {
      runs.clear();
      for (const auto& entry : pending) runs.push_back(entry.second);
      {
        Scope s(spans, "SortRuns", "sort", 2);
        const double t0 = Now();
        engine.sorter().SortRuns(runs);
        replay.sort_s += Now() - t0;
        replay.comparisons += engine.sorter().last_run().comparisons;
      }
      for (const auto& [stream, run] : pending) {
        core::QuantileSummaryCore& core = core_of(stream);
        Scope s(spans, "MergeSortedWindow", "summary", 2);
        const double t0 = Now();
        core.MergeSortedWindow(run);
        replay.summary_s += Now() - t0;
      }
      pending.clear();
      buffer.clear();
    };
    for (std::uint32_t s = 0; s < shape_.streams; ++s) {
      const std::vector<float>& data = per_stream_[s];
      for (std::size_t off = 0; off < data.size(); off += window) {
        const std::size_t len = std::min<std::size_t>(window, data.size() - off);
        if (buffer.size() + len > buffer.capacity()) flush_batch();
        const std::size_t start = buffer.size();
        buffer.insert(buffer.end(), data.begin() + off, data.begin() + off + len);
        pending.emplace_back(s, std::span<float>(buffer.data() + start, len));
      }
    }
    if (!pending.empty()) flush_batch();
    for (const auto& core : cores) {
      if (!core.has_value()) continue;
      replay.histogram_s += core->histogram_wall_seconds();
      replay.merge_s += core->merge_seconds();
      replay.compress_s += core->compress_seconds();
      replay.merged_tuples += core->merged_tuples();
      replay.pruned_tuples += core->pruned_tuples();
      replay.tuples += core->summary_size();
    }
    replay.match = !final_answers_.empty();
    for (std::size_t i = 0; i < final_answers_.size(); ++i) {
      replay.match = replay.match &&
                     core_of(static_cast<std::uint32_t>(i)).Quantile(0.5, 0) ==
                         final_answers_[i];
    }
    return replay;
  }

 private:
  static service::ServiceConfig MakeConfig(int workers) {
    service::ServiceConfig config;
    config.backend = core::Backend::kCpuRadixMerge;
    config.num_workers = workers;
    return config;
  }

  std::vector<core::QuantileReport> BatchQuery(const service::StreamService& svc,
                                               std::span<const service::StreamKey> keys,
                                               double phi, const PassOptions& po,
                                               Pass& pass, Ledger& ledger) {
    Scope s(po.spans, "BatchQuantiles", "query");
    const double t0 = Now();
    std::vector<core::QuantileReport> reports = svc.BatchQuantiles(keys, phi);
    pass.query_us.push_back((Now() - t0) * 1e6);
    pass.reports += reports.size();
    ++ledger.attempted;
    answers_.push_back(reports);
    return reports;
  }

  void Checkpoint(service::StreamService& svc, durable::CheckpointWriter& writer,
                  Spans* spans, Pass& pass, Ledger& ledger) {
    {
      // Checkpoint() drains pending shard batches first; doing it here keeps
      // that sort/summary work out of the durable span.
      Scope s(spans, "WaitIdle", "ingest");
      ledger.Call(svc.WaitIdle(), "WaitIdle");
    }
    Scope s(spans, "Checkpoint", "durable");
    const double t0 = Now();
    if (ledger.Call(svc.Checkpoint(&writer), "Checkpoint")) {
      pass.checkpoint_s.push_back(Now() - t0);
      pass.snapshot_bytes = writer.last_snapshot_bytes();
    }
  }

  // Restores from the last checkpoint; also times the snapshot load alone.
  static std::unique_ptr<service::StreamService> Restore(
      const service::ServiceConfig& config, const std::string& dir, Spans* spans,
      Pass& pass, Ledger& ledger) {
    std::unique_ptr<service::StreamService> restored;
    {
      Scope s(spans, "RestoreFrom", "durable");
      const double t0 = Now();
      auto result = service::StreamService::RestoreFrom(config, dir);
      pass.restore_s = Now() - t0;
      if (!ledger.Call(result.status(), "RestoreFrom")) return nullptr;
      restored = std::move(result).value();
    }
    Scope s(spans, "LoadLatestSnapshot", "durable");
    const double t0 = Now();
    ledger.Call(durable::LoadLatestSnapshot(dir).status(), "LoadLatestSnapshot");
    pass.load_s = Now() - t0;
    return restored;
  }

  // The restored service must answer byte-identically to the live one.
  void VerifyRestored(const service::StreamService& live,
                      const service::StreamService& restored, Ledger& ledger) const {
    ++ledger.attempted;
    bool identical = true;
    for (double phi : {0.01, 0.5, 0.99}) {
      identical = identical && live.BatchQuantiles(keys_, phi) ==
                                   restored.BatchQuantiles(keys_, phi);
    }
    for (std::size_t s = 0; s < keys_.size() && identical; ++s) {
      if (per_stream_[s].empty()) continue;
      const auto a = live.ExportQuantileSummary(keys_[s]);
      const auto b = restored.ExportQuantileSummary(keys_[s]);
      identical = a.ok() && b.ok() && *a == *b;
    }
    if (!identical) ledger.Fail("RestoreFrom", "restored answers differ from live ones");
  }

  Shape shape_;
  std::string scratch_;
  std::vector<service::StreamKey> keys_;
  std::vector<std::uint32_t> targets_;  // stream index of each append
  std::vector<float> values_;           // append payloads, back to back
  std::vector<std::vector<float>> per_stream_;
  // One report per snapshot key for each BatchQuantiles call, awaiting Check().
  std::vector<std::vector<core::QuantileReport>> answers_;
  std::vector<core::QuantileReport> final_answers_;  // after FlushAll, last pass
};

// ---------------------------------------------------------------------------
// Output.

struct Metric {
  std::string name;
  std::string unit;
  double value;
};

void PrintResult(const std::vector<Metric>& metrics, const Ledger& ledger) {
  for (const Metric& m : metrics) {
    std::printf("%-34s %16.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("attempted %llu, failed %llu\n",
              static_cast<unsigned long long>(ledger.attempted),
              static_cast<unsigned long long>(ledger.failed));
  std::string json = "{\"correct\": ";
  json += ledger.failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(ledger.attempted);
  json += ", \"failed\": " + std::to_string(ledger.failed) + ", \"metrics\": {";
  char buf[64];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    // JSON has no infinities; a non-finite value is already a failed check.
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : -1.0;
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    json += (i == 0 ? "\"" : ", \"") + metrics[i].name + "\": {\"value\": " + buf +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

std::vector<Metric> EndToEnd(Workload& workload, double seconds, Ledger& ledger) {
  std::vector<double> setup, meps, heap;
  // Untimed warm-up repetitions fill caches and the allocator and measure
  // the heap growth. Their answers are checked like all others.
  for (int i = 0; i < kWarmups; ++i) {
    heap.push_back(workload.Run({.workers = kWorkers}, ledger).heap_mb);
  }
  const double start = Now();
  int reps = 0;
  while (reps < kMinReps || Now() - start < seconds) {
    const Pass pass =
        workload.Run({.workers = kWorkers, .setup_samples = kSetupSamples}, ledger);
    ++reps;
    setup.insert(setup.end(), pass.setup_s.begin(), pass.setup_s.end());
    meps.push_back(static_cast<double>(pass.elements) / pass.ingest_s / 1e6);
    if (ledger.failed != 0) break;
  }
  const double measured = Now() - start;
  workload.Check(ledger);
  std::printf("%d repetitions in %.2f s; %zu setups\n", reps, measured, setup.size());
  std::printf("worst observed error / stated bound: %.6g\n", ledger.max_ratio);
  return {
      {"setup_s", "s", Median(setup)},
      {"ingest_meps", "M/s", Median(meps)},
      {"heap_growth_mb", "MB", Median(heap)},
  };
}

std::vector<Metric> PerLayer(Workload& workload, const std::string& trace_out,
                             Ledger& ledger) {
  // A: the timed configuration, read through the public accessors.
  const Pass a = workload.Run({.workers = kWorkers}, ledger);
  // B: serial and untraced; C: serial with a span around every call.
  const Pass b = workload.Run({.workers = 1}, ledger);
  Spans spans;
  const Pass c = workload.Run({.workers = 1, .spans = &spans}, ledger);
  const Replay replay = workload.ReplayWindows(&spans);
  workload.Check(ledger);

  const bool svc = workload.is_service();
  const double elements = static_cast<double>(c.elements);

  // Self time per layer over the traced pass (track 1). The time of the
  // ingest calls (ObserveBatch/Append, Flush/FlushAll, WaitIdle) is split by
  // the replay into sort, summary and the staging/dispatch residual.
  std::map<std::string, double> layers;
  double pass_us = 0, root_self_us = 0;
  {
    const std::vector<double> self = spans.SelfMicros();
    for (std::size_t i = 0; i < spans.spans().size(); ++i) {
      const Spans::Span& span = spans.spans()[i];
      if (span.track != 1) continue;
      if (span.parent == 0) {
        pass_us = span.dur_us;
        root_self_us = self[i];
        continue;
      }
      layers[span.layer] += self[i] * 1e-6;
    }
  }
  const double ingest_s = layers["ingest"];
  const double residual_s = std::max(0.0, ingest_s - replay.sort_s - replay.summary_s);
  layers.erase("ingest");
  layers["sort"] = replay.sort_s;
  layers["summary"] = replay.summary_s;
  layers[svc ? "service" : "pipeline"] += residual_s;
  layers["unattributed"] = root_self_us * 1e-6;
  std::printf("traced serial pass %.3f s; ingest calls %.3f s\n", pass_us * 1e-6,
              ingest_s);
  std::printf("%-14s %10s %8s\n", "layer", "self s", "share");
  for (const auto& [layer, seconds] : layers) {
    std::printf("%-14s %10.4f %7.1f%%\n", layer.c_str(), seconds,
                100.0 * seconds / (pass_us * 1e-6));
  }
  if (!trace_out.empty() &&
      !spans.WriteChromeJson(trace_out, {"traced pass", "replay"})) {
    std::fprintf(stderr, "cannot write %s\n", trace_out.c_str());
  }

  const double query_s = Sum(a.query_us) * 1e-6;
  const double checkpoint_s = Median(a.checkpoint_s);
  const double dispatches = static_cast<double>(a.stats.batches_dispatched);
  return {
      {"sort.ns_per_el", "ns/el", replay.sort_s / elements * 1e9},
      {"sort.busy_share", "ratio", replay.sort_s / ingest_s},
      {"sort.queue_wait_s", "s", a.costs.sort_queue_wait_seconds},
      {"sort.comparisons", "count",
       static_cast<double>(svc ? replay.comparisons : a.costs.sort.comparisons)},
      {"gpu.fragments", "count", static_cast<double>(a.device.fragments_shaded)},
      {"gpu.blend_ops", "count", static_cast<double>(a.device.blend_fragments)},
      {"gpu.bus_bytes", "bytes",
       static_cast<double>(a.device.bytes_uploaded + a.device.bytes_readback)},
      {"summary.ns_per_el", "ns/el", replay.summary_s / elements * 1e9},
      {"summary.busy_share", "ratio", replay.summary_s / ingest_s},
      {"summary.histogram_s", "s", replay.histogram_s},
      {"summary.merge_s", "s", replay.merge_s},
      {"summary.compress_s", "s", replay.compress_s},
      {"summary.merged_tuples", "count", static_cast<double>(replay.merged_tuples)},
      {"summary.pruned_tuples", "count", static_cast<double>(replay.pruned_tuples)},
      {"summary.tuples", "count",
       static_cast<double>(svc ? replay.tuples : a.summary_tuples)},
      {"query.sync_wait_us", "us", Median(a.sync_us)},
      {"query.self_us", "us", Median(a.query_us)},
      {"query.p90_us", "us", Percentile(a.query_us, 0.90)},
      {"query.ns_per_report", "ns", query_s * 1e9 / static_cast<double>(a.reports)},
      {"pipeline.residual_share", "ratio", residual_s / ingest_s},
      {"pipeline.drain_busy_share", "ratio",
       (svc ? replay.summary_s : a.costs.drain_wall_seconds) / a.ingest_s},
      {"pipeline.ingest_stall_s", "s", a.costs.ingest_stall_seconds},
      {"pipeline.drain_queue_wait_s", "s", a.costs.drain_queue_wait_seconds},
      {"pipeline.batches", "count",
       svc ? dispatches : static_cast<double>(a.costs.pipelined_batches)},
      {"pipeline.speedup", "ratio", b.ingest_s / a.ingest_s},
      {"service.append_ns_per_el", "ns/el",
       svc ? spans.TotalSeconds("Append") / elements * 1e9 : 0.0},
      {"service.dispatches", "count", dispatches},
      {"service.elements_per_dispatch", "count",
       dispatches > 0 ? static_cast<double>(a.elements) / dispatches : 0.0},
      {"service.windows_merged", "count", static_cast<double>(a.stats.windows_merged)},
      {"service.elements_shed", "count", static_cast<double>(a.stats.elements_shed)},
      {"service.register_us_per_stream", "us",
       svc ? Median(a.setup_s) * 1e6 / static_cast<double>(a.streams) : 0.0},
      {"service.flush_s", "s", svc ? a.flush_s : 0.0},
      {"durable.checkpoints", "count", static_cast<double>(a.checkpoint_s.size())},
      {"durable.checkpoint_s", "s", checkpoint_s},
      {"durable.restore_s", "s", a.restore_s},
      {"durable.snapshot_mb", "MB", static_cast<double>(a.snapshot_bytes) / 1e6},
      {"durable.snapshot_bytes_per_stream", "bytes",
       a.streams > 0 ? static_cast<double>(a.snapshot_bytes) / a.streams : 0.0},
      {"durable.load_s", "s", a.load_s},
      {"durable.install_s", "s", std::max(0.0, a.restore_s - a.load_s)},
      {"durable.write_mb_per_s", "MB/s",
       checkpoint_s > 0 ? static_cast<double>(a.snapshot_bytes) / 1e6 / checkpoint_s
                        : 0.0},
      {"oracle.error_to_bound_max", "ratio", ledger.max_ratio},
      {"trace.unattributed_share", "ratio", root_self_us / pass_us},
      {"trace.overhead", "ratio", c.wall_s / b.wall_s},
      {"trace.replay_match", "bool", replay.match ? 1.0 : 0.0},
  };
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       const std::string& scratch) {
  using QuantileLong = EstimatorWorkload<core::QuantileEstimator>;
  using FrequencyFlows = EstimatorWorkload<core::FrequencyEstimator>;
  if (name == "quantile-long") {
    return std::make_unique<QuantileLong>(QuantileLong::Shape{
        .distribution = stream::Distribution::kUniformReal,
        .backend = core::Backend::kCpuRadixMerge,
        .elements = std::size_t{1} << 20,
        .chunk = 4096,
        .query_every_calls = 32,
        .parameters = {0.01, 0.5, 0.99}});
  }
  if (name == "frequency-flows") {
    return std::make_unique<FrequencyFlows>(FrequencyFlows::Shape{
        .distribution = stream::Distribution::kNetworkFlows,
        .backend = core::Options{}.backend,
        .elements = std::size_t{2} << 20,
        .chunk = 4096,
        .query_every_calls = 16,
        .parameters = {0.01}});
  }
  if (name == "service-checkpoint") {
    return std::make_unique<ServiceWorkload>(
        ServiceWorkload::Shape{.streams = 2000,
                               .zipf_s = 1.3,
                               .elements = std::size_t{1} << 19,
                               .append = 64,
                               .snapshot_keys = 200,
                               .checkpoint_every_appends = 2048},
        scratch);
  }
  return nullptr;
}

}  // namespace
}  // namespace e2e

int main(int argc, char** argv) {
#if defined(__GLIBC__)
  // Every repetition builds a fresh estimator or service. Freed blocks stay
  // in the heap for the next one instead of going back to the kernel, so
  // the timed repetitions time the program, not page faults on new
  // mappings (a user's long-lived estimator pays those once).
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  mallopt(M_TRIM_THRESHOLD, std::numeric_limits<int>::max());
#endif
  std::string workload_name, scratch = ".bench_build/scratch", trace_out;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i], value = argv[i + 1];
    if (flag == "--workload") {
      workload_name = value;
    } else if (flag == "--seed") {
      seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      trace = value == "1";
    } else if (flag == "--scratch") {
      scratch = value;
    } else if (flag == "--trace-out") {
      trace_out = value;
    } else {
      std::fprintf(stderr, "error: unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  auto workload = e2e::MakeWorkload(workload_name, scratch);
  if (workload == nullptr) {
    std::fprintf(stderr, "error: unknown workload '%s'\n", workload_name.c_str());
    return 2;
  }
  std::filesystem::create_directories(scratch);
  const double t0 = e2e::Now();
  workload->Generate(seed);
  std::printf("workload %s, seed %llu: inputs generated in %.2f s\n",
              workload_name.c_str(), static_cast<unsigned long long>(seed),
              e2e::Now() - t0);

  e2e::Ledger ledger;
  const std::vector<e2e::Metric> metrics =
      trace ? e2e::PerLayer(*workload, trace_out, ledger)
            : e2e::EndToEnd(*workload, seconds, ledger);
  e2e::PrintResult(metrics, ledger);
  return ledger.failed == 0 ? 0 : 1;
}
