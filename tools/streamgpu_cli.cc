// streamgpu command-line tool: run quantile / frequency estimation or the
// sorting backends over a generated stream or a file of values, from the
// shell.
//
// Usage:
//   streamgpu_cli quantiles   [options] --phi 0.5,0.9,0.99
//   streamgpu_cli frequencies [options] --support 0.01
//   streamgpu_cli sort        [options]
//   streamgpu_cli serve       [options] --streams 1000 --tenants 10
//   streamgpu_cli merge       SHARD.bin [SHARD.bin ...] --phi 0.5 --support 0.01
//   streamgpu_cli restore     <quantiles|frequencies|serve> [options]
//
// Common options:
//   --input PATH           read whitespace-separated float values (inf and
//                          -inf included) from PATH; a malformed token or a
//                          NaN exits 2 with its line number
//   --generate DIST        synthesize the stream: uniform | zipf | sorted |
//                          network | finance   (default zipf)
//   --n COUNT              generated stream length       (default 1000000)
//   --seed SEED            generator seed                (default 1)
//   --epsilon EPS          approximation parameter       (default 0.001)
//   --quantile-sketch K    whole-history quantile backend: gk | gk-adaptive |
//                          kll (default gk; docs/SKETCHES.md)
//   --summary-out PATH     write the mergeable wire summary (sketch/serialize.h
//                          envelope) to PATH: the quantile summary under
//                          `quantiles`, a same-epsilon Misra-Gries summary
//                          under `frequencies`, the merged summary under
//                          `merge` — the shard artifact `merge` consumes
//   --sort-backend NAME    auto | pbsn | sample | bitonic | cpu | radix |
//                          stdsort                       (default pbsn).
//                          "auto" runs the cost-model planner
//                          (docs/SORT_BACKENDS.md)
//   --sliding W            sliding-window width          (default off)
//   --workers N            sort-worker threads; >= 2 enables the parallel
//                          ingest pipeline                (default 1: serial)
//   --in-flight M          max windows buffered in the pipeline; under serve,
//                          max shard batches in flight     (default auto)
//   --expect-range LO,HI   a-priori value range, validated against the
//                          backend's precision            (default unknown)
//
// Observability (docs/OBSERVABILITY.md):
//   --metrics-out PATH     write the metrics snapshot to PATH
//   --metrics-format FMT   snapshot serialization: json (the documented
//                          schema) or prom (Prometheus text exposition)
//                          (default json)
//   --metrics-export-every SECS
//                          continuously re-export the snapshot to
//                          --metrics-out every SECS seconds from a
//                          background thread (atomic rename; scrape-safe)
//   --flight-out PATH      arm the fault flight recorder: crash-path dumps
//                          (quarantine, drain failure, degrade) land at
//                          PATH; a shutdown dump is written if nothing
//                          went wrong
//   --trace-out PATH       write a Chrome trace-event JSON to PATH
//                          (chrome://tracing or https://ui.perfetto.dev)
//   --trace-sample-every K record every K-th span per stage (default 1: all)
//
// Multi-tenant service (serve command only; docs/SERVICE.md). serve always
// synthesizes its streams and wires no fault injection: it rejects --input
// and the fault-injection flags below with exit status 2.
//   --streams N            streams multiplexed onto the worker pool
//                          (default 1000); --n is the per-stream length
//   --tenants T            tenants the streams are spread across (default 10)
//   --shed-capacity CAP    enable load shedding: per-shard ingress backlog
//                          cap in elements (default 0: block, never shed)
//   --shard-batch N        elements a shard coalesces before dispatching one
//                          micro-batch (default 0: 64k). Smaller batches
//                          bound per-stream merge latency — and let
//                          --checkpoint-every-windows fire mid-ingest on
//                          runs smaller than the default micro-batch
//
// Merging shard summaries (merge command only; docs/SKETCHES.md):
//   positional arguments   shard summary files (one envelope per file, as
//                          written by --summary-out); all shards must carry
//                          the same sketch type. Quantile shards (gk | kll)
//                          answer --phi; frequency shards (misra-gries |
//                          count-min) answer --support. Shards are folded in
//                          canonical byte order, so the merged answer is
//                          bit-identical for any argument order.
//
// Durability (docs/DURABILITY.md):
//   --checkpoint-dir DIR   crash-consistent checkpoint directory. With
//                          quantiles / frequencies the estimator snapshots
//                          into it; with serve the whole service does. The
//                          `restore` command resumes from the newest usable
//                          snapshot in DIR — it re-reads the same input
//                          (identical --input or --generate/--n/--seed) and
//                          replays only the un-checkpointed suffix, so the
//                          report is bit-identical to an uninterrupted run.
//                          When DIR holds no usable checkpoint, restore
//                          starts fresh (first run after provisioning).
//   --checkpoint-every-windows N
//                          snapshot cadence: checkpoint after every N merged
//                          windows (default 0: only what `restore` finds
//                          from a previous run; estimator modes then never
//                          checkpoint)
//   --report-out PATH      write the deterministic report lines (quantile
//                          answers, heavy hitters, coverage — no timings)
//                          to PATH; the artifact tools/crash_harness.py
//                          diffs between a killed-and-restored run and an
//                          uninterrupted one
//
// Fault injection (docs/ROBUSTNESS.md):
//   --fault-plan SPEC      deterministic fault plan, e.g.
//                          "pass:bitflip:every=5;queue:stall:p=0.01,stall_us=200"
//                          (sites upload|pass|readback|queue; kinds
//                          bitflip|nan|half|lost|stall)
//   --fault-seed SEED      fault-plan RNG seed             (default 1)
//   --fault-retries N      sort retries before fallback/quarantine (default 3)
//   --no-cpu-fallback      quarantine unrecoverable windows instead of
//                          re-sorting them on the CPU
//   --drain-deadline SECS  fail with kDeadlineExceeded if the pipeline makes
//                          no progress for SECS seconds    (default 0: wait)
//
// Malformed flag values (an empty value, trailing text, a sign on a count,
// overflow, a non-finite real) and invalid configurations (bad epsilon,
// window/backend mismatches, ...) are reported on stderr and exit with
// status 2.
//
// Examples:
//   streamgpu_cli quantiles --generate finance --n 500000 --phi 0.5,0.99
//   streamgpu_cli frequencies --generate zipf --support 0.02 --sort-backend cpu
//   streamgpu_cli frequencies --n 4000000 --sort-backend auto --workers 4
//       --metrics-out metrics.json --trace-out trace.json  (one command line)
//   streamgpu_cli sort --n 262144 --sort-backend pbsn

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/timer.h"
#include "core/frequency_estimator.h"
#include "durable/checkpoint.h"
#include "sketch/combiner.h"
#include "sketch/misra_gries.h"
#include "sketch/quantile_sketch.h"
#include "sketch/serialize.h"
#include "core/instrumentation.h"
#include "core/quantile_estimator.h"
#include "obs/exporter.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/prometheus.h"
#include "obs/trace.h"
#include "service/stream_service.h"
#include "stream/generator.h"

namespace {

using namespace streamgpu;

struct CliOptions {
  std::string command;
  std::string input_path;
  std::string distribution = "zipf";
  std::size_t n = 1'000'000;
  std::uint64_t seed = 1;
  double epsilon = 0.001;
  std::string backend = "pbsn";
  std::uint64_t sliding = 0;
  int workers = 1;
  int in_flight = 0;
  std::vector<double> phis = {0.25, 0.5, 0.75, 0.9, 0.99};
  double support = 0.01;
  float expect_min = 0;
  float expect_max = 0;
  std::string metrics_out;
  std::string metrics_format = "json";
  double metrics_export_every = 0;
  std::string flight_out;
  std::string trace_out;
  std::uint64_t trace_sample_every = 1;
  std::string fault_plan;
  std::uint64_t fault_seed = 1;
  int fault_retries = 3;
  bool cpu_fallback = true;
  double drain_deadline = 0;
  std::uint64_t streams = 1000;
  std::uint64_t tenants = 10;
  std::size_t shed_capacity = 0;
  std::size_t shard_batch = 0;
  std::string quantile_sketch = "gk";
  std::string summary_out;
  std::string checkpoint_dir;
  std::uint64_t checkpoint_every_windows = 0;
  std::string report_out;
  bool restore = false;  // `restore` command: resume `command` from a checkpoint
  std::vector<std::string> shard_files;  // merge command positionals
};

[[noreturn]] void Usage(const char* error) {
  if (error != nullptr) std::fprintf(stderr, "error: %s\n\n", error);
  std::fprintf(stderr,
               "usage: streamgpu_cli <quantiles|frequencies|sort|serve> [options]\n"
               "       streamgpu_cli merge SHARD.bin [SHARD.bin ...] [--phi ...|--support S]\n"
               "       streamgpu_cli restore <quantiles|frequencies|serve> [options]\n"
               "  --input PATH | --generate uniform|zipf|sorted|network|finance\n"
               "  --n COUNT --seed SEED --epsilon EPS\n"
               "  --quantile-sketch gk|gk-adaptive|kll --summary-out PATH\n"
               "  --sort-backend auto|pbsn|sample|bitonic|cpu|radix|stdsort\n"
               "  --sliding W\n"
               "  --workers N --in-flight M --expect-range LO,HI\n"
               "    (--in-flight counts windows; shard batches under serve)\n"
               "  --metrics-out PATH --metrics-format json|prom\n"
               "  --metrics-export-every SECS --flight-out PATH\n"
               "  --trace-out PATH --trace-sample-every K\n"
               "  --checkpoint-dir DIR --checkpoint-every-windows N\n"
               "  --report-out PATH\n"
               "  --fault-plan SPEC --fault-seed SEED --fault-retries N\n"
               "  --no-cpu-fallback --drain-deadline SECS\n"
               "  --phi P1,P2,...    (quantiles; each in (0, 1])\n"
               "  --support S        (frequencies)\n"
               "  --streams N --tenants T --shed-capacity CAP --shard-batch N  (serve)\n");
  std::exit(2);
}

// Strict flag-value parsers, one per kind: the whole value must be one
// number of that kind. An empty value, trailing text, a sign on an unsigned
// flag, overflow or a non-finite real is a usage error.

template <typename T>
T ParseInteger(const std::string& flag, const std::string& raw, const char* kind) {
  T value{};
  const char* last = raw.data() + raw.size();
  const auto [end, ec] = std::from_chars(raw.data(), last, value);
  if (ec != std::errc() || end != last) {
    Usage((flag + " needs " + kind + ", got '" + raw + "'").c_str());
  }
  return value;
}

std::uint64_t ParseUnsigned(const std::string& flag, const std::string& raw) {
  return ParseInteger<std::uint64_t>(flag, raw, "an unsigned integer");
}

int ParseInt(const std::string& flag, const std::string& raw) {
  return ParseInteger<int>(flag, raw, "an integer");
}

double ParseReal(const std::string& flag, const std::string& raw) {
  char* end = nullptr;
  const double value = std::strtod(raw.c_str(), &end);
  if (raw.empty() || *end != '\0' || !std::isfinite(value)) {
    Usage((flag + " needs a finite number, got '" + raw + "'").c_str());
  }
  return value;
}

/// A comma-separated list of reals; every item, an empty one included,
/// must pass ParseReal.
std::vector<double> ParseRealList(const std::string& flag, const std::string& raw) {
  std::vector<double> out;
  std::size_t start = 0;
  while (start <= raw.size()) {
    std::size_t end = raw.find(',', start);
    if (end == std::string::npos) end = raw.size();
    out.push_back(ParseReal(flag, raw.substr(start, end - start)));
    start = end + 1;
  }
  return out;
}

CliOptions ParseArgs(int argc, char** argv) {
  if (argc < 2) Usage("missing command");
  CliOptions opt;
  opt.command = argv[1];
  int first = 2;
  if (opt.command == "restore") {
    if (argc < 3) Usage("restore needs a mode: quantiles | frequencies | serve");
    opt.restore = true;
    opt.command = argv[2];
    if (opt.command != "quantiles" && opt.command != "frequencies" &&
        opt.command != "serve") {
      Usage("restore supports the quantiles, frequencies, and serve modes");
    }
    first = 3;
  }
  // Flags serve parses but cannot honor: the service synthesizes its
  // streams and has no fault-injection or drain-deadline wiring.
  static const std::vector<std::string> kServeRejects = {
      "--input", "--fault-plan", "--fault-seed", "--fault-retries",
      "--no-cpu-fallback", "--drain-deadline"};
  std::vector<std::string> rejected;
  for (int i = first; i < argc; ++i) {
    const std::string flag = argv[i];
    if (opt.command == "serve" &&
        std::find(kServeRejects.begin(), kServeRejects.end(), flag) != kServeRejects.end()) {
      rejected.push_back(flag);
    }
    const auto next = [&]() -> std::string {
      if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
      return argv[++i];
    };
    if (flag == "--input") {
      opt.input_path = next();
    } else if (flag == "--generate") {
      opt.distribution = next();
    } else if (flag == "--n") {
      opt.n = ParseUnsigned(flag, next());
    } else if (flag == "--seed") {
      opt.seed = ParseUnsigned(flag, next());
    } else if (flag == "--epsilon") {
      opt.epsilon = ParseReal(flag, next());
    } else if (flag == "--sort-backend") {
      opt.backend = next();
    } else if (flag == "--sliding") {
      opt.sliding = ParseUnsigned(flag, next());
    } else if (flag == "--workers") {
      opt.workers = ParseInt(flag, next());
    } else if (flag == "--in-flight") {
      opt.in_flight = ParseInt(flag, next());
    } else if (flag == "--expect-range") {
      const auto range = ParseRealList(flag, next());
      if (range.size() != 2) Usage("--expect-range needs LO,HI");
      opt.expect_min = static_cast<float>(range[0]);
      opt.expect_max = static_cast<float>(range[1]);
    } else if (flag == "--metrics-out") {
      opt.metrics_out = next();
    } else if (flag == "--metrics-format") {
      opt.metrics_format = next();
      if (opt.metrics_format != "json" && opt.metrics_format != "prom") {
        Usage("--metrics-format must be json or prom");
      }
    } else if (flag == "--metrics-export-every") {
      opt.metrics_export_every = ParseReal(flag, next());
      if (opt.metrics_export_every <= 0) {
        Usage("--metrics-export-every must be > 0 seconds");
      }
    } else if (flag == "--flight-out") {
      opt.flight_out = next();
    } else if (flag == "--trace-out") {
      opt.trace_out = next();
    } else if (flag == "--trace-sample-every") {
      opt.trace_sample_every = ParseUnsigned(flag, next());
      if (opt.trace_sample_every == 0) Usage("--trace-sample-every must be >= 1");
    } else if (flag == "--fault-plan") {
      opt.fault_plan = next();
    } else if (flag == "--fault-seed") {
      opt.fault_seed = ParseUnsigned(flag, next());
    } else if (flag == "--fault-retries") {
      opt.fault_retries = ParseInt(flag, next());
    } else if (flag == "--no-cpu-fallback") {
      opt.cpu_fallback = false;
    } else if (flag == "--drain-deadline") {
      opt.drain_deadline = ParseReal(flag, next());
    } else if (flag == "--streams") {
      opt.streams = ParseUnsigned(flag, next());
      if (opt.streams == 0) Usage("--streams must be >= 1");
    } else if (flag == "--tenants") {
      opt.tenants = ParseUnsigned(flag, next());
      if (opt.tenants == 0) Usage("--tenants must be >= 1");
    } else if (flag == "--shed-capacity") {
      opt.shed_capacity = ParseUnsigned(flag, next());
    } else if (flag == "--shard-batch") {
      opt.shard_batch = ParseUnsigned(flag, next());
    } else if (flag == "--phi") {
      const std::string raw = next();
      opt.phis = ParseRealList(flag, raw);
      if (std::any_of(opt.phis.begin(), opt.phis.end(),
                      [](double phi) { return !(phi > 0.0 && phi <= 1.0); })) {
        Usage(("--phi values must be in (0, 1], got '" + raw + "'").c_str());
      }
    } else if (flag == "--support") {
      opt.support = ParseReal(flag, next());
    } else if (flag == "--quantile-sketch") {
      opt.quantile_sketch = next();
      sketch::QuantileSketchKind kind;
      if (!sketch::ParseQuantileSketchKind(opt.quantile_sketch.c_str(), &kind)) {
        Usage("--quantile-sketch must be gk, gk-adaptive, or kll");
      }
    } else if (flag == "--summary-out") {
      opt.summary_out = next();
    } else if (flag == "--checkpoint-dir") {
      opt.checkpoint_dir = next();
    } else if (flag == "--checkpoint-every-windows") {
      opt.checkpoint_every_windows = ParseUnsigned(flag, next());
    } else if (flag == "--report-out") {
      opt.report_out = next();
    } else if (flag == "--help" || flag == "-h") {
      Usage(nullptr);
    } else if (flag.size() >= 2 && flag[0] == '-' && flag[1] == '-') {
      Usage(("unknown flag " + flag).c_str());
    } else if (opt.command == "merge") {
      opt.shard_files.push_back(flag);
    } else {
      Usage(("unexpected argument " + flag).c_str());
    }
  }
  if (!rejected.empty()) {
    for (const std::string& flag : rejected) {
      std::fprintf(stderr, "error: serve does not support %s\n", flag.c_str());
    }
    std::exit(2);
  }
  if (opt.restore && opt.checkpoint_dir.empty()) {
    Usage("restore needs --checkpoint-dir");
  }
  return opt;
}

core::Backend ParseBackend(const std::string& name) {
  if (name == "auto") return core::Backend::kAuto;
  if (name == "pbsn") return core::Backend::kGpuPbsn;
  if (name == "bitonic") return core::Backend::kGpuBitonic;
  if (name == "sample") return core::Backend::kSampleSort;
  if (name == "radix") return core::Backend::kCpuRadixMerge;
  if (name == "cpu") return core::Backend::kCpuQuicksort;
  if (name == "stdsort") return core::Backend::kCpuStdSort;
  Usage(("unknown backend " + name).c_str());
}

stream::Distribution ParseDistribution(const std::string& name) {
  if (name == "uniform") return stream::Distribution::kUniform;
  if (name == "zipf") return stream::Distribution::kZipf;
  if (name == "sorted") return stream::Distribution::kSorted;
  if (name == "network") return stream::Distribution::kNetworkFlows;
  if (name == "finance") return stream::Distribution::kFinanceTicks;
  Usage(("unknown distribution " + name).c_str());
}

std::vector<float> LoadStream(const CliOptions& opt) {
  if (!opt.input_path.empty()) {
    std::ifstream in(opt.input_path);
    if (!in) {
      std::fprintf(stderr, "error: cannot open %s\n", opt.input_path.c_str());
      std::exit(1);
    }
    // Each whitespace-separated token must be one whole float, as ParseReal
    // reads a flag: `inf` and `-inf` are values, a NaN has no rank, and a
    // token that does not parse (or overflows) is an error, not the end.
    std::vector<float> values;
    std::string line;
    for (int line_number = 1; std::getline(in, line); ++line_number) {
      std::istringstream tokens(line);
      std::string token;
      while (tokens >> token) {
        char* end = nullptr;
        errno = 0;
        const float v = std::strtof(token.c_str(), &end);
        const char* problem = nullptr;
        if (*end != '\0') {
          problem = "is not a number";
        } else if (std::isnan(v)) {
          problem = "is NaN, which has no rank";
        } else if (errno == ERANGE && std::isinf(v)) {
          problem = "overflows a float";
        }
        if (problem != nullptr) {
          std::fprintf(stderr, "error: %s:%d: '%s' %s\n", opt.input_path.c_str(), line_number,
                       token.c_str(), problem);
          std::exit(2);
        }
        values.push_back(v);
      }
    }
    if (values.empty()) {
      std::fprintf(stderr, "error: no values in %s\n", opt.input_path.c_str());
      std::exit(1);
    }
    return values;
  }
  stream::StreamGenerator gen(
      {.distribution = ParseDistribution(opt.distribution), .seed = opt.seed});
  return gen.Take(opt.n);
}

/// Owns the optional sinks for one run and writes them out at the end.
struct ObsSinks {
  std::unique_ptr<obs::MetricsRegistry> metrics;
  std::unique_ptr<obs::TraceRecorder> trace;
  std::unique_ptr<obs::FlightRecorder> flight;
  // Declared after metrics (destruction order): the exporter's thread reads
  // the registry until Stop().
  std::unique_ptr<obs::MetricsExporter> exporter;

  explicit ObsSinks(const CliOptions& opt) {
    if (!opt.metrics_out.empty()) metrics = std::make_unique<obs::MetricsRegistry>();
    if (!opt.trace_out.empty()) {
      trace = std::make_unique<obs::TraceRecorder>(opt.trace_sample_every);
    }
    if (!opt.flight_out.empty()) {
      flight = std::make_unique<obs::FlightRecorder>();
      flight->set_dump_path(opt.flight_out);
    }
    if (opt.metrics_export_every > 0) {
      if (metrics == nullptr) Usage("--metrics-export-every needs --metrics-out");
      obs::MetricsExporterOptions export_opt;
      export_opt.path = opt.metrics_out;
      export_opt.period_seconds = opt.metrics_export_every;
      export_opt.format = opt.metrics_format == "prom" ? obs::MetricsFormat::kProm
                                                       : obs::MetricsFormat::kJson;
      exporter = std::make_unique<obs::MetricsExporter>(metrics.get(), export_opt);
    }
  }

  obs::Observability view() const { return {metrics.get(), trace.get(), flight.get()}; }

  void Write(const CliOptions& opt) const {
    if (exporter != nullptr) {
      // Stop() joins the background thread and publishes one final export in
      // the configured format, so there is nothing left to write here.
      exporter->Stop();
      std::fprintf(stderr, "# metrics (%s, exported %llu times) -> %s\n",
                   opt.metrics_format.c_str(),
                   static_cast<unsigned long long>(exporter->exports()),
                   opt.metrics_out.c_str());
    } else if (metrics != nullptr) {
      const bool ok =
          opt.metrics_format == "prom"
              ? obs::WritePrometheusFile(metrics->Snapshot(), opt.metrics_out.c_str())
              : metrics->WriteJsonFile(opt.metrics_out.c_str());
      if (!ok) {
        std::fprintf(stderr, "error: cannot write %s\n", opt.metrics_out.c_str());
        std::exit(1);
      }
      std::fprintf(stderr, "# metrics snapshot (%s) -> %s\n",
                   opt.metrics_format.c_str(), opt.metrics_out.c_str());
    }
    if (flight != nullptr) {
      // Crash paths (quarantine, drain failure, degrade) dump on their own;
      // when the run stayed clean, publish a shutdown dump so the artifact
      // always exists for inspection.
      if (flight->dumps() == 0) flight->Dump("shutdown");
      std::fprintf(stderr, "# flight recorder (%llu events) -> %s\n",
                   static_cast<unsigned long long>(flight->total_events()),
                   opt.flight_out.c_str());
    }
    if (trace != nullptr) {
      if (!trace->WriteJsonFile(opt.trace_out.c_str())) {
        std::fprintf(stderr, "error: cannot write %s\n", opt.trace_out.c_str());
        std::exit(1);
      }
      std::fprintf(stderr, "# trace (load in chrome://tracing or ui.perfetto.dev) -> %s\n",
                   opt.trace_out.c_str());
    }
  }
};

/// Routes the deterministic report lines — quantile answers, heavy hitters,
/// coverage, never timings — to stdout and, with --report-out, to a file.
/// The file is the artifact tools/crash_harness.py diffs byte-for-byte
/// between a killed-and-restored run and an uninterrupted one.
class ReportWriter {
 public:
  explicit ReportWriter(std::string path) : path_(std::move(path)) {}

  [[gnu::format(printf, 2, 3)]] void Printf(const char* format, ...) {
    std::va_list args;
    va_start(args, format);
    std::vprintf(format, args);
    va_end(args);
    if (path_.empty()) return;
    char line[1024];
    va_start(args, format);
    std::vsnprintf(line, sizeof line, format, args);
    va_end(args);
    lines_ += line;
  }

  /// Publishes the collected lines to --report-out (no-op without one).
  void Write() const {
    if (path_.empty()) return;
    std::ofstream out(path_, std::ios::trunc);
    if (!out || !out.write(lines_.data(), static_cast<std::streamsize>(lines_.size()))) {
      std::fprintf(stderr, "error: cannot write %s\n", path_.c_str());
      std::exit(1);
    }
    std::fprintf(stderr, "# report -> %s\n", path_.c_str());
  }

 private:
  std::string path_;
  std::string lines_;
};

core::Options MakeCoreOptions(const CliOptions& opt, const ObsSinks& sinks) {
  core::Options core_opt;
  core_opt.epsilon = opt.epsilon;
  core_opt.backend = ParseBackend(opt.backend);
  core_opt.sliding_window = opt.sliding;
  core_opt.num_sort_workers = opt.workers;
  core_opt.max_windows_in_flight = opt.in_flight;
  core_opt.expected_min_value = opt.expect_min;
  core_opt.expected_max_value = opt.expect_max;
  sketch::ParseQuantileSketchKind(opt.quantile_sketch.c_str(),
                                  &core_opt.quantile_sketch);  // validated in ParseArgs
  core_opt.obs = sinks.view();
  if (!opt.fault_plan.empty()) {
    core::StatusOr<core::FaultPlan> plan =
        core::FaultPlan::Parse(opt.fault_plan, opt.fault_seed);
    if (!plan.ok()) Usage(plan.status().message().c_str());
    core_opt.fault.plan = std::move(*plan);
  }
  core_opt.fault.max_retries = opt.fault_retries;
  core_opt.fault.cpu_fallback = opt.cpu_fallback;
  core_opt.fault.drain_deadline_seconds = opt.drain_deadline;
  core_opt.checkpoint_dir = opt.checkpoint_dir;
  core_opt.checkpoint_every_windows = opt.checkpoint_every_windows;
  return core_opt;
}

/// Restore-command front half for the estimator modes: resumes from the
/// newest usable snapshot, or — when the directory holds none — falls back
/// to a fresh run (the first run after provisioning). Snapshot corruption
/// and configuration mismatches are fatal. Returns null on the fresh-start
/// fallback and sets *replay_from on success.
template <typename Estimator>
std::unique_ptr<Estimator> TryRestore(const core::Options& core_opt,
                                      std::size_t stream_size,
                                      std::size_t* replay_from) {
  core::StatusOr<std::unique_ptr<Estimator>> restored = Estimator::Restore(core_opt);
  if (!restored.ok()) {
    if (restored.status().code() == core::Status::Code::kFailedPrecondition) {
      std::fprintf(stderr, "# restore: %s; starting fresh\n",
                   restored.status().message().c_str());
      return nullptr;
    }
    std::fprintf(stderr, "error: restore failed: %s\n",
                 restored.status().message().c_str());
    std::exit(1);
  }
  std::unique_ptr<Estimator> estimator = std::move(restored).value();
  const std::uint64_t observed = estimator->observed_length();
  if (observed > stream_size) {
    std::fprintf(stderr,
                 "error: checkpoint watermark %llu exceeds the %zu-element input; "
                 "restore must replay the same stream the checkpoint was cut from\n",
                 static_cast<unsigned long long>(observed), stream_size);
    std::exit(1);
  }
  *replay_from = static_cast<std::size_t>(observed);
  std::fprintf(stderr, "# restored at watermark %llu; replaying %zu elements\n",
               static_cast<unsigned long long>(observed), stream_size - *replay_from);
  return estimator;
}

/// Aborts with the Status message when a stream operation failed (e.g. the
/// pipeline hit its drain deadline under a stall plan).
void CheckStream(const core::Status& status, const char* what) {
  if (status.ok()) return;
  std::fprintf(stderr, "error: %s failed: %s\n", what, status.message().c_str());
  std::exit(1);
}

/// One-line recovery summary, printed only when a fault plan was active.
void PrintFaultSummary(const CliOptions& opt, const core::FaultStats& stats) {
  if (opt.fault_plan.empty()) return;
  std::printf("# faults: %llu injected, %llu sort retries, %llu cpu fallbacks, "
              "%llu windows quarantined (%llu elements dropped)\n",
              static_cast<unsigned long long>(stats.faults_injected),
              static_cast<unsigned long long>(stats.sort_retries),
              static_cast<unsigned long long>(stats.cpu_fallbacks),
              static_cast<unsigned long long>(stats.windows_quarantined),
              static_cast<unsigned long long>(stats.elements_dropped));
}

void WriteSummaryFile(const std::string& path, std::span<const std::uint8_t> bytes) {
  std::ofstream out(path, std::ios::binary);
  if (!out ||
      !out.write(reinterpret_cast<const char*>(bytes.data()),
                 static_cast<std::streamsize>(bytes.size()))) {
    std::fprintf(stderr, "error: cannot write %s\n", path.c_str());
    std::exit(1);
  }
  std::fprintf(stderr, "# mergeable summary (%zu bytes) -> %s\n", bytes.size(),
               path.c_str());
}

std::vector<std::uint8_t> ReadSummaryFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "error: cannot open %s\n", path.c_str());
    std::exit(1);
  }
  std::vector<std::uint8_t> bytes((std::istreambuf_iterator<char>(in)),
                                  std::istreambuf_iterator<char>());
  return bytes;
}

/// Unwraps a factory result, or reports the configuration error and exits 2.
template <typename T>
std::unique_ptr<T> CreateOrDie(core::StatusOr<std::unique_ptr<T>> result) {
  if (!result.ok()) {
    std::fprintf(stderr, "error: invalid configuration: %s\n",
                 result.status().message().c_str());
    std::exit(2);
  }
  return std::move(result).value();
}

int RunQuantiles(const CliOptions& opt) {
  const auto stream = LoadStream(opt);
  const ObsSinks sinks(opt);
  ReportWriter report_out(opt.report_out);
  const core::Options core_opt = MakeCoreOptions(opt, sinks);
  std::size_t replay_from = 0;
  std::unique_ptr<core::QuantileEstimator> qe;
  if (opt.restore) {
    qe = TryRestore<core::QuantileEstimator>(core_opt, stream.size(), &replay_from);
  }
  if (qe == nullptr) qe = CreateOrDie(core::QuantileEstimator::Create(core_opt));
  Timer timer;
  CheckStream(qe->ObserveBatch(std::span<const float>(stream).subspan(replay_from)),
              "observe");
  CheckStream(qe->Flush(), "flush");
  std::printf("# %zu values, epsilon %g, backend %s%s, workers %d\n", stream.size(),
              opt.epsilon, opt.backend.c_str(), opt.sliding != 0 ? " (sliding)" : "",
              opt.workers);
  for (double phi : opt.phis) {
    const core::QuantileReport report = qe->Quantile(phi);
    report_out.Printf("q%-8g %-12g (rank +- %llu of %llu)\n", phi, report.value,
                      static_cast<unsigned long long>(report.rank_error_bound),
                      static_cast<unsigned long long>(report.window_coverage));
  }
  std::printf("# summary: %zu tuples; simulated-2005 %.1f ms; wall %.2f s\n",
              qe->summary_size(), qe->SimulatedSeconds() * 1e3, timer.ElapsedSeconds());
  PrintFaultSummary(opt, qe->fault_stats());
  if (qe->checkpoints() != 0) {
    std::fprintf(stderr, "# checkpoints: %llu -> %s\n",
                 static_cast<unsigned long long>(qe->checkpoints()),
                 opt.checkpoint_dir.c_str());
  }
  if (!opt.summary_out.empty()) {
    const auto bytes = qe->SerializedSummary();
    if (!bytes.ok()) {
      std::fprintf(stderr, "error: summary export failed: %s\n",
                   bytes.status().message().c_str());
      std::exit(2);
    }
    WriteSummaryFile(opt.summary_out, *bytes);
  }
  qe->ExportMetrics();
  sinks.Write(opt);
  report_out.Write();
  return 0;
}

int RunFrequencies(const CliOptions& opt) {
  const auto stream = LoadStream(opt);
  const ObsSinks sinks(opt);
  ReportWriter report_out(opt.report_out);
  const core::Options core_opt = MakeCoreOptions(opt, sinks);
  std::size_t replay_from = 0;
  std::unique_ptr<core::FrequencyEstimator> fe;
  if (opt.restore) {
    fe = TryRestore<core::FrequencyEstimator>(core_opt, stream.size(), &replay_from);
  }
  if (fe == nullptr) fe = CreateOrDie(core::FrequencyEstimator::Create(core_opt));
  Timer timer;
  CheckStream(fe->ObserveBatch(std::span<const float>(stream).subspan(replay_from)),
              "observe");
  CheckStream(fe->Flush(), "flush");
  std::printf("# %zu values, epsilon %g, support %g, backend %s%s, workers %d\n",
              stream.size(), opt.epsilon, opt.support, opt.backend.c_str(),
              opt.sliding != 0 ? " (sliding)" : "", opt.workers);
  const core::FrequencyReport report = fe->HeavyHitters(opt.support);
  for (const auto& item : report.items) {
    report_out.Printf("%-12g >= %llu\n", item.value,
                      static_cast<unsigned long long>(item.estimate));
  }
  report_out.Printf("# undercount bound %llu over %llu covered elements\n",
                    static_cast<unsigned long long>(report.error_bound),
                    static_cast<unsigned long long>(report.window_coverage));
  std::printf("# summary: %zu entries; simulated-2005 %.1f ms; wall %.2f s\n",
              fe->summary_size(), fe->SimulatedSeconds() * 1e3, timer.ElapsedSeconds());
  PrintFaultSummary(opt, fe->fault_stats());
  if (fe->checkpoints() != 0) {
    std::fprintf(stderr, "# checkpoints: %llu -> %s\n",
                 static_cast<unsigned long long>(fe->checkpoints()),
                 opt.checkpoint_dir.c_str());
  }
  if (!opt.summary_out.empty()) {
    // The estimator's internal summary is not mergeable across the f16
    // quantization boundary; export a same-epsilon Misra-Gries summary built
    // from the raw stream instead — exactly what `merge` consumes.
    sketch::MisraGries mg(opt.epsilon);
    mg.ObserveBatch(stream);
    std::vector<std::uint8_t> bytes;
    const core::Status status = sketch::SerializeSummary(mg, &bytes);
    if (!status.ok()) {
      std::fprintf(stderr, "error: summary export failed: %s\n",
                   status.message().c_str());
      std::exit(2);
    }
    WriteSummaryFile(opt.summary_out, bytes);
  }
  fe->ExportMetrics();
  sinks.Write(opt);
  report_out.Write();
  return 0;
}

int RunMerge(const CliOptions& opt) {
  if (opt.shard_files.empty()) Usage("merge needs at least one shard file");

  // Dispatch on the first shard's type tag; every shard must agree (the
  // combiners enforce it).
  const std::vector<std::uint8_t> first = ReadSummaryFile(opt.shard_files.front());
  const auto type = sketch::PeekSketchType(first);
  if (!type.ok()) {
    std::fprintf(stderr, "error: %s: %s\n", opt.shard_files.front().c_str(),
                 type.status().message().c_str());
    std::exit(1);
  }

  const bool quantile = *type == sketch::SketchType::kGkSummary ||
                        *type == sketch::SketchType::kKll;
  sketch::QuantileShardCombiner quantiles;
  sketch::FrequencyShardCombiner frequencies;
  for (const std::string& path : opt.shard_files) {
    const std::vector<std::uint8_t> bytes = ReadSummaryFile(path);
    const core::Status status =
        quantile ? quantiles.AddShard(bytes) : frequencies.AddShard(bytes);
    if (!status.ok()) {
      std::fprintf(stderr, "error: %s: %s\n", path.c_str(),
                   status.message().c_str());
      std::exit(1);
    }
  }

  std::printf("# merged %zu %s shard summaries\n", opt.shard_files.size(),
              sketch::SketchTypeName(*type));
  std::vector<std::uint8_t> merged_bytes;
  if (quantile) {
    for (double phi : opt.phis) {
      const core::QuantileReport report = quantiles.Quantile(phi);
      std::printf("q%-8g %-12g (rank +- %llu of %llu)\n", phi, report.value,
                  static_cast<unsigned long long>(report.rank_error_bound),
                  static_cast<unsigned long long>(report.window_coverage));
    }
    if (!opt.summary_out.empty()) {
      CheckStream(quantiles.AppendMergedSummary(&merged_bytes), "summary export");
    }
  } else {
    const auto report = frequencies.HeavyHitters(opt.support);
    if (!report.ok()) {
      std::fprintf(stderr, "error: heavy hitters: %s\n",
                   report.status().message().c_str());
      std::exit(1);
    }
    for (const auto& item : report->items) {
      std::printf("%-12g >= %llu\n", item.value,
                  static_cast<unsigned long long>(item.estimate));
    }
    std::printf("# undercount bound %llu over %llu covered elements\n",
                static_cast<unsigned long long>(report->error_bound),
                static_cast<unsigned long long>(report->window_coverage));
    if (!opt.summary_out.empty()) {
      CheckStream(frequencies.AppendMergedSummary(&merged_bytes), "summary export");
    }
  }
  if (!opt.summary_out.empty()) WriteSummaryFile(opt.summary_out, merged_bytes);
  return 0;
}

int RunSort(const CliOptions& opt) {
  auto stream = LoadStream(opt);
  const ObsSinks sinks(opt);
  const core::Options core_opt = MakeCoreOptions(opt, sinks);
  const core::Status status = core_opt.Validate();
  if (!status.ok()) {
    std::fprintf(stderr, "error: invalid configuration: %s\n",
                 status.message().c_str());
    std::exit(2);
  }
  core::SortEngine engine(core_opt);
  // The decorator gives the sort command the same spans/counters as the
  // estimator paths (a no-op pass-through when no sink is wired).
  core::TracingSorter sorter(&engine.sorter(), engine.device(), sinks.view(), "sort");
  Timer timer;
  sorter.Sort(stream);
  const auto& run = sorter.last_run();
  std::printf("sorted %zu values with %s\n", stream.size(), sorter.name());
  std::printf("  comparisons      : %llu\n",
              static_cast<unsigned long long>(run.comparisons));
  std::printf("  simulated-2005   : %.2f ms (device %.2f, transfer %.2f, merge %.2f)\n",
              run.simulated_seconds * 1e3, run.sim_device_seconds * 1e3,
              run.sim_transfer_seconds * 1e3, run.sim_merge_seconds * 1e3);
  std::printf("  simulator wall   : %.2f s\n", timer.ElapsedSeconds());
  sinks.Write(opt);
  return 0;
}

int RunServe(const CliOptions& opt) {
  const ObsSinks sinks(opt);
  ReportWriter report_out(opt.report_out);
  service::ServiceConfig config;
  config.backend = ParseBackend(opt.backend);
  config.num_workers = opt.workers;
  config.max_batches_in_flight = opt.in_flight;
  if (opt.shed_capacity > 0) {
    config.admission = stream::AdmissionPolicy::kShed;
    config.shard_ingress_capacity = opt.shed_capacity;
  }
  config.shard_batch_elements = opt.shard_batch;
  config.obs = sinks.view();

  // `restore serve`: rebuild the whole service from the newest usable
  // snapshot; a directory with no usable checkpoint means the first run
  // after provisioning, so fall back to a fresh service.
  std::unique_ptr<service::StreamService> service;
  bool restored = false;
  if (opt.restore) {
    auto result = service::StreamService::RestoreFrom(config, opt.checkpoint_dir);
    if (result.ok()) {
      service = std::move(result).value();
      restored = true;
      if (service->num_streams() != opt.streams) {
        std::fprintf(stderr,
                     "error: checkpoint holds %zu streams but --streams is %llu; "
                     "restore must replay the checkpointed topology\n",
                     service->num_streams(),
                     static_cast<unsigned long long>(opt.streams));
        std::exit(1);
      }
      std::fprintf(stderr, "# restored %zu streams from %s\n",
                   service->num_streams(), opt.checkpoint_dir.c_str());
    } else if (result.status().code() == core::Status::Code::kFailedPrecondition) {
      std::fprintf(stderr, "# restore: %s; starting fresh\n",
                   result.status().message().c_str());
    } else {
      std::fprintf(stderr, "error: restore failed: %s\n",
                   result.status().message().c_str());
      std::exit(1);
    }
  }
  if (service == nullptr) {
    service = CreateOrDie(service::StreamService::Create(config));
  }

  service::StreamConfig stream_config;
  stream_config.epsilon = opt.epsilon;
  stream_config.sliding_window = opt.sliding;
  sketch::ParseQuantileSketchKind(opt.quantile_sketch.c_str(),
                                  &stream_config.quantile_sketch);
  std::vector<service::StreamKey> keys;
  keys.reserve(opt.streams);
  Timer register_timer;
  for (std::uint64_t i = 0; i < opt.streams; ++i) {
    keys.push_back({i % opt.tenants, i});
    if (restored) continue;  // RestoreFrom re-registered the same topology
    const core::Status status = service->Register(keys.back(), stream_config);
    if (!status.ok()) {
      std::fprintf(stderr, "error: register failed: %s\n", status.message().c_str());
      std::exit(2);
    }
  }
  const double register_seconds = register_timer.ElapsedSeconds();

  // Restored streams skip everything the checkpoint already covers: the
  // replay cursor is the per-stream offered count (admitted + shed), so the
  // generator is drawn in the original order but only the un-checkpointed
  // suffix is re-appended.
  std::vector<std::uint64_t> offered(keys.size(), 0);
  if (restored) {
    for (std::size_t i = 0; i < keys.size(); ++i) {
      const auto cursor = service->OfferedLength(keys[i]);
      CheckStream(cursor.status(), "restore cursor");
      if (*cursor > opt.n) {
        std::fprintf(stderr,
                     "error: stream %zu checkpointed at %llu elements but --n is %zu\n",
                     i, static_cast<unsigned long long>(*cursor), opt.n);
        std::exit(1);
      }
      offered[i] = *cursor;
    }
  }

  // Periodic service checkpoints, cut at --checkpoint-every-windows merged
  // windows (checked between ingest rounds; Checkpoint drains in-flight
  // batches itself, so each snapshot is a consistent cut).
  std::unique_ptr<durable::CheckpointWriter> checkpointer;
  if (!opt.checkpoint_dir.empty()) {
    checkpointer = std::make_unique<durable::CheckpointWriter>(opt.checkpoint_dir);
    checkpointer->SetObservability(sinks.view());
  }
  std::uint64_t checkpointed_windows = restored ? service->stats().windows_merged : 0;

  // Round-robin ingest in small chunks: the worst case for a per-stream
  // pipeline (tiny writes across many streams) and exactly the pattern the
  // shard-by-key batching is built to amortize. --n is the per-stream length.
  stream::StreamGenerator gen(
      {.distribution = ParseDistribution(opt.distribution), .seed = opt.seed});
  constexpr std::size_t kChunk = 64;
  std::vector<float> chunk(kChunk);
  std::size_t remaining_rounds = (opt.n + kChunk - 1) / kChunk;
  Timer timer;
  for (std::size_t round = 0; round < remaining_rounds; ++round) {
    const std::size_t take =
        std::min(kChunk, opt.n - round * kChunk);
    const std::uint64_t begin = static_cast<std::uint64_t>(round) * kChunk;
    for (std::size_t i = 0; i < keys.size(); ++i) {
      gen.Fill(std::span<float>(chunk.data(), take));
      if (offered[i] >= begin + take) continue;  // checkpoint already covers it
      const std::size_t skip =
          offered[i] > begin ? static_cast<std::size_t>(offered[i] - begin) : 0;
      const auto admitted = service->Append(
          keys[i], std::span<const float>(chunk.data() + skip, take - skip));
      CheckStream(admitted.status(), "append");
    }
    if (checkpointer != nullptr && opt.checkpoint_every_windows > 0) {
      const std::uint64_t merged = service->stats().windows_merged;
      if (merged - checkpointed_windows >= opt.checkpoint_every_windows) {
        CheckStream(service->Checkpoint(checkpointer.get()), "checkpoint");
        checkpointed_windows = service->stats().windows_merged;
      }
    }
  }
  CheckStream(service->FlushAll(), "flush");
  const double ingest_seconds = timer.ElapsedSeconds();

  const service::ServiceStats stats = service->stats();
  std::printf("# %llu streams x %zu elements across %llu tenants, backend %s, workers %d\n",
              static_cast<unsigned long long>(opt.streams), opt.n,
              static_cast<unsigned long long>(opt.tenants), opt.backend.c_str(),
              opt.workers);
  std::printf("registered %llu streams in %.3f s\n",
              static_cast<unsigned long long>(stats.streams), register_seconds);
  std::printf("ingested   %llu elements in %.2f s (%.2f M elements/s aggregate)\n",
              static_cast<unsigned long long>(stats.elements_observed), ingest_seconds,
              static_cast<double>(stats.elements_observed) / ingest_seconds / 1e6);
  std::printf("dispatched %llu shard batches (%llu windows merged, %d shards)\n",
              static_cast<unsigned long long>(stats.batches_dispatched),
              static_cast<unsigned long long>(stats.windows_merged),
              service->num_shards());
  if (stats.elements_shed != 0) {
    report_out.Printf("shed       %llu elements at the ingress (error bounds widened)\n",
                      static_cast<unsigned long long>(stats.elements_shed));
  }
  if (checkpointer != nullptr && checkpointer->commits() != 0) {
    std::fprintf(stderr, "# checkpoints: %llu -> %s\n",
                 static_cast<unsigned long long>(checkpointer->commits()),
                 opt.checkpoint_dir.c_str());
  }

  // Snapshot every stream with one batch query per phi.
  Timer query_timer;
  for (double phi : opt.phis) {
    const auto reports = service->BatchQuantiles(keys, phi);
    const service::StreamKey& probe = keys[opt.streams / 2];
    report_out.Printf(
        "q%-8g %-12g (stream %llu/%llu; rank +- %llu of %llu)\n", phi,
        reports[opt.streams / 2].value,
        static_cast<unsigned long long>(probe.tenant),
        static_cast<unsigned long long>(probe.stream),
        static_cast<unsigned long long>(reports[opt.streams / 2].rank_error_bound),
        static_cast<unsigned long long>(reports[opt.streams / 2].window_coverage));
  }
  std::printf("# batch queries: %zu reports in %.3f s\n",
              opt.phis.size() * keys.size(), query_timer.ElapsedSeconds());
  sinks.Write(opt);
  report_out.Write();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const CliOptions opt = ParseArgs(argc, argv);
  if (opt.command == "quantiles") return RunQuantiles(opt);
  if (opt.command == "frequencies") return RunFrequencies(opt);
  if (opt.command == "sort") return RunSort(opt);
  if (opt.command == "serve") return RunServe(opt);
  if (opt.command == "merge") return RunMerge(opt);
  Usage(("unknown command " + opt.command).c_str());
}
