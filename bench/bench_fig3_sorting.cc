// Figure 3: sorting time vs input size — our GPU PBSN sort against the
// prior GPU bitonic sort [40] and CPU quicksort built with two compilers.
//
// Expected shape (§4.5): the GPU PBSN sort is comparable to the
// Intel-compiler quicksort, clearly faster than the MSVC qsort for
// reasonably large n, almost an order of magnitude faster than the GPU
// bitonic baseline, and ~3x slower than the CPU below n = 16K.
//
// Two time scales are reported per row (docs/COST_MODEL.md, "Host wall-clock
// vs. simulated time"): the simulated-2005 milliseconds the figures are
// built from, and the host wall-clock of the simulator itself (also as
// ns per sorted key, the engine's throughput metric). STREAMGPU_SORT_FORMAT
// = f16 (default, the paper's 16-bit buffers) | f32 selects the PBSN render
// format. Results are also written as JSON (see JsonOutPath) for the CI
// regression gate.
//
// Like bench_engine, a large-memcpy calibration (ns/byte) is measured first
// and each row's ns/key is also reported as a machine-normalized ratio
// (rel_memcpy). tools/check_bench_regression.py --fig3-overhead gates that
// ratio against BENCH_sort.json: the estimator hot path carries the
// observability hooks (src/obs/), and this is the bench that proves the
// disabled-by-default guard stays under the 2% overhead budget.
//
// A second table sweeps the second-generation host backends (sample sort,
// radix/merge) and the cost-model "auto" planner against PBSN on host
// wall-clock; each row's per-backend numbers land in the JSON under
// "backends" and tools/check_bench_regression.py --fig3-backends holds the
// planner within 1.2x of the fastest other backend's ns/key at n >= 1M
// (docs/SORT_BACKENDS.md).
//
// A third table re-runs PBSN with observability fully ENABLED (labeled
// metrics + latency summaries via core::TracingSorter, plus an armed
// FlightRecorder) and reports the paired overhead. Those numbers land at row
// level as obs_ns_per_key / obs_rel_memcpy — deliberately NOT inside
// "backends" (the backend gate's name set is closed) — and
// tools/check_bench_regression.py --fig3-obs-overhead gates the within-run
// geomean obs_rel_memcpy / rel_memcpy under the same < 2% budget.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <vector>

#include "bench_util.h"
#include "common/timer.h"
#include "core/instrumentation.h"
#include "gpu/device.h"
#include "hwmodel/hardware_profiles.h"
#include "hwmodel/sort_planner.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/observability.h"
#include "sort/bitonic_gpu.h"
#include "sort/cpu_sort.h"
#include "sort/pbsn_gpu.h"
#include "sort/planned.h"
#include "sort/radix_sort.h"
#include "sort/sample_sort.h"
#include "stream/generator.h"

namespace {

using namespace streamgpu;

double SortSimMs(sort::Sorter& sorter, const std::vector<float>& data,
                 double* wall_ms = nullptr) {
  std::vector<float> copy = data;
  Timer t;
  sorter.Sort(copy);
  if (wall_ms != nullptr) *wall_ms = t.ElapsedMillis();
  return sorter.last_run().simulated_seconds * 1e3;
}

// The machine's streaming-copy speed (median of samples), same calibration
// bench_engine uses: ns/key divided by this is stable across CI runners.
double MemcpyNsPerByte() {
  const std::size_t bytes = 16u << 20;
  std::vector<char> src(bytes, 1);
  std::vector<char> dst(bytes, 0);
  std::vector<double> times;
  for (int s = 0; s < 5; ++s) {
    Timer t;
    for (int r = 0; r < 8; ++r) std::memcpy(dst.data(), src.data(), bytes);
    times.push_back(t.ElapsedSeconds());
  }
  std::sort(times.begin(), times.end());
  return times[times.size() / 2] * 1e9 / (8.0 * static_cast<double>(bytes));
}

/// One backend's numbers at one size, both clocks plus the normalized ratio.
struct BackendSample {
  double sim_ms = 0;
  double wall_ms = 0;
  double ns_per_key = 0;
  double rel_memcpy = 0;  // ns/key over the machine's memcpy ns/byte
};

BackendSample Measure(sort::Sorter& sorter, const std::vector<float>& data,
                      double memcpy_ns_per_byte) {
  BackendSample b;
  b.sim_ms = SortSimMs(sorter, data, &b.wall_ms);
  b.ns_per_key = b.wall_ms * 1e6 / static_cast<double>(data.size());
  b.rel_memcpy = b.ns_per_key / memcpy_ns_per_byte;
  return b;
}

// Best-of-N wall clock of each sorter on the same data, their repetitions
// interleaved. The gates divide these rows (the obs-overhead pair, and auto
// against the fastest other backend), so single-run jitter would dominate
// the budgets they check. Minimum-of-repeats is the standard
// stabilizer; interleaving puts every row under the same host conditions,
// which matters once a sort takes less time than a slow stretch of a shared
// host lasts.
std::vector<BackendSample> MeasureBest(const std::vector<sort::Sorter*>& sorters,
                                       const std::vector<float>& data,
                                       double memcpy_ns_per_byte, int reps = 5) {
  std::vector<BackendSample> best(sorters.size());
  for (int r = 0; r < reps; ++r) {
    for (std::size_t s = 0; s < sorters.size(); ++s) {
      const BackendSample b = Measure(*sorters[s], data, memcpy_ns_per_byte);
      if (r == 0 || b.wall_ms < best[s].wall_ms) best[s] = b;
    }
  }
  return best;
}

struct Row {
  std::size_t n = 0;
  double pbsn_sim_ms = 0;
  double pbsn_wall_ms = 0;
  double pbsn_ns_per_key = 0;
  double rel_memcpy = 0;  // ns/key over the machine's memcpy ns/byte
  double bitonic_sim_ms = -1;
  double intel_sim_ms = 0;
  double msvc_sim_ms = 0;
  // Second-generation host backends and the planner (host wall-clock focus).
  BackendSample sample;
  BackendSample radix;
  BackendSample autos;
  const char* auto_chosen = "?";
  // PBSN with observability enabled (TracingSorter + armed FlightRecorder).
  double obs_ns_per_key = 0;
  double obs_rel_memcpy = 0;
};

}  // namespace

int main() {
  bench::PrintHeader(
      "Figure 3: sorting performance, GPU PBSN vs GPU bitonic vs CPU quicksort",
      "GPU PBSN ~ Intel quicksort; beats MSVC qsort and is ~10x faster than "
      "GPU bitonic at large n; ~3x slower than CPU below 16K");

  const char* fmt_env = std::getenv("STREAMGPU_SORT_FORMAT");
  const bool use_f32 = fmt_env != nullptr && std::strcmp(fmt_env, "f32") == 0;
  const gpu::Format format = use_f32 ? gpu::Format::kFloat32 : gpu::Format::kFloat16;

  // The paper sweeps up to 8M elements; default scale covers 16K..1M.
  std::vector<std::size_t> sizes;
  for (std::size_t n = 16384; n <= bench::Scaled(1 << 20); n *= 4) sizes.push_back(n);
  const std::size_t bitonic_cap = bench::Scaled(1 << 17);

  const double memcpy_ns_per_byte = MemcpyNsPerByte();
  std::printf("memcpy calibration: %.4f ns/byte (rel column = ns/key over this)\n\n",
              memcpy_ns_per_byte);

  std::printf("%10s %14s %16s %16s %15s %14s %13s %8s\n", "n", "gpu-pbsn(ms)",
              "gpu-bitonic(ms)", "cpu-intel(ms)", "cpu-msvc(ms)", "pbsn-wall(ms)",
              "wall(ns/key)", "rel");

  std::vector<Row> rows;
  for (std::size_t n : sizes) {
    stream::StreamGenerator gen({.distribution = stream::Distribution::kUniformReal,
                                 .seed = 42});
    const auto data = gen.Take(n);

    gpu::GpuDevice device;
    sort::PbsnOptions pbsn_opt;
    pbsn_opt.format = format;  // f16 = the paper's 16-bit buffers
    sort::PbsnGpuSorter pbsn(&device, hwmodel::kGeForce6800Ultra,
                             hwmodel::kPentium4_3400, pbsn_opt);
    sort::BitonicGpuSorter bitonic(&device, hwmodel::kGeForce6800Ultra, format);
    sort::QuicksortSorter intel(hwmodel::kPentium4_3400);
    sort::QuicksortSorter msvc(hwmodel::kPentium4_3400Msvc);
    sort::SampleSortSorter sample(hwmodel::kPentium4_3400);
    sort::RadixMergeSorter radix(hwmodel::kPentium4_3400);
    // The planner, pinned to this run's calibration so the JSON records a
    // reproducible decision; same candidate pool as core::Backend::kAuto.
    hwmodel::SortPlannerConfig plan_config;
    plan_config.memcpy_ns_per_byte = memcpy_ns_per_byte;
    hwmodel::SortPlanner planner(
        plan_config, hwmodel::PlanObjective::kHostWall,
        {hwmodel::SortBackend::kGpuPbsn, hwmodel::SortBackend::kSampleSort,
         hwmodel::SortBackend::kCpuRadixMerge,
         hwmodel::SortBackend::kCpuQuicksort});
    sort::PlannedSorter autos(&planner,
                              {{hwmodel::SortBackend::kGpuPbsn, &pbsn},
                               {hwmodel::SortBackend::kSampleSort, &sample},
                               {hwmodel::SortBackend::kCpuRadixMerge, &radix},
                               {hwmodel::SortBackend::kCpuQuicksort, &intel}},
                              obs::Observability{}, "bench.");

    // The same PBSN sort with telemetry fully enabled: labeled counters, the
    // GK latency summary, and an armed flight recorder all on the hot path.
    obs::MetricsRegistry obs_metrics;
    obs::FlightRecorder obs_flight;
    core::TracingSorter traced(
        &pbsn, &device, obs::Observability{&obs_metrics, nullptr, &obs_flight},
        "bench");

    Row row;
    row.n = n;
    const std::vector<BackendSample> best =
        MeasureBest({&pbsn, &traced, &sample, &radix, &autos}, data, memcpy_ns_per_byte);
    const BackendSample& pbsn_best = best[0];
    const BackendSample& obs_best = best[1];
    row.pbsn_sim_ms = pbsn_best.sim_ms;
    row.pbsn_wall_ms = pbsn_best.wall_ms;
    row.pbsn_ns_per_key = pbsn_best.ns_per_key;
    row.rel_memcpy = pbsn_best.rel_memcpy;
    row.bitonic_sim_ms = n <= bitonic_cap ? SortSimMs(bitonic, data) : -1.0;
    row.intel_sim_ms = SortSimMs(intel, data);
    row.msvc_sim_ms = SortSimMs(msvc, data);
    row.sample = best[2];
    row.radix = best[3];
    row.autos = best[4];
    row.auto_chosen = hwmodel::SortBackendName(autos.last_choice());
    row.obs_ns_per_key = obs_best.ns_per_key;
    row.obs_rel_memcpy = obs_best.rel_memcpy;
    rows.push_back(row);

    if (row.bitonic_sim_ms >= 0) {
      std::printf("%10zu %14.2f %16.2f %16.2f %15.2f %14.1f %13.1f %8.1f\n", n,
                  row.pbsn_sim_ms, row.bitonic_sim_ms, row.intel_sim_ms,
                  row.msvc_sim_ms, row.pbsn_wall_ms, row.pbsn_ns_per_key,
                  row.rel_memcpy);
    } else {
      std::printf("%10zu %14.2f %16s %16.2f %15.2f %14.1f %13.1f %8.1f\n", n,
                  row.pbsn_sim_ms, "(skipped)", row.intel_sim_ms, row.msvc_sim_ms,
                  row.pbsn_wall_ms, row.pbsn_ns_per_key, row.rel_memcpy);
    }
  }
  std::printf("\nNote: gpu timings include CPU<->GPU transfer, as in the paper. "
              "Set STREAMGPU_SCALE=8 for the paper's full 8M sweep.\n\n");

  std::printf("Second-generation host backends, host wall ns/key "
              "(auto = cost-model planner):\n");
  std::printf("%10s %12s %12s %12s %12s %12s %10s\n", "n", "pbsn", "sample",
              "radix", "auto", "auto-pick", "vs-pbsn");
  for (const Row& r : rows) {
    std::printf("%10zu %12.1f %12.1f %12.1f %12.1f %12s %9.1fx\n", r.n,
                r.pbsn_ns_per_key, r.sample.ns_per_key, r.radix.ns_per_key,
                r.autos.ns_per_key, r.auto_chosen,
                r.autos.ns_per_key > 0 ? r.pbsn_ns_per_key / r.autos.ns_per_key
                                       : 0.0);
  }
  std::printf("\n");

  std::printf("Observability-enabled PBSN (labeled metrics + GK latency summary "
              "+ flight recorder), host wall ns/key:\n");
  std::printf("%10s %14s %14s %10s\n", "n", "plain", "obs-enabled", "overhead");
  for (const Row& r : rows) {
    std::printf("%10zu %14.1f %14.1f %9.3fx\n", r.n, r.pbsn_ns_per_key,
                r.obs_ns_per_key,
                r.pbsn_ns_per_key > 0 ? r.obs_ns_per_key / r.pbsn_ns_per_key
                                      : 0.0);
  }
  std::printf("\n");

  if (const char* path = bench::JsonOutPath("BENCH_fig3.json")) {
    if (std::FILE* f = std::fopen(path, "w")) {
      {
        // Scoped so the writer's closing brace lands before fclose.
        bench::JsonWriter j(f);
        j.Number("schema", std::uint64_t{1});
        j.BeginObject("fig3_sorting");
        j.String("format", use_f32 ? "f32" : "f16");
        j.Number("memcpy_ns_per_byte", memcpy_ns_per_byte);
        j.BeginArray("rows");
        for (const Row& r : rows) {
          j.BeginArrayObject();
          j.Number("n", static_cast<std::uint64_t>(r.n));
          j.Number("pbsn_sim_ms", r.pbsn_sim_ms);
          j.Number("pbsn_wall_ms", r.pbsn_wall_ms);
          j.Number("pbsn_ns_per_key", r.pbsn_ns_per_key);
          j.Number("rel_memcpy", r.rel_memcpy);
          if (r.bitonic_sim_ms >= 0) j.Number("bitonic_sim_ms", r.bitonic_sim_ms);
          j.Number("intel_sim_ms", r.intel_sim_ms);
          j.Number("msvc_sim_ms", r.msvc_sim_ms);
          // Enabled-observability PBSN numbers live at row level, NOT under
          // "backends": the --fig3-backends gate's name set is closed, and
          // these are the same backend re-measured, not a new one.
          j.Number("obs_ns_per_key", r.obs_ns_per_key);
          j.Number("obs_rel_memcpy", r.obs_rel_memcpy);
          // Per-backend host numbers; --fig3-backends gates these rows.
          j.BeginObject("backends");
          const struct {
            const char* name;
            const BackendSample* b;
          } backends[] = {{"pbsn", nullptr},
                          {"sample", &r.sample},
                          {"cpu-radix", &r.radix},
                          {"auto", &r.autos}};
          for (const auto& [name, b] : backends) {
            j.BeginObject(name);
            if (b == nullptr) {
              j.Number("sim_ms", r.pbsn_sim_ms);
              j.Number("wall_ms", r.pbsn_wall_ms);
              j.Number("ns_per_key", r.pbsn_ns_per_key);
              j.Number("rel_memcpy", r.rel_memcpy);
            } else {
              j.Number("sim_ms", b->sim_ms);
              j.Number("wall_ms", b->wall_ms);
              j.Number("ns_per_key", b->ns_per_key);
              j.Number("rel_memcpy", b->rel_memcpy);
            }
            if (b == &r.autos) j.String("chosen", r.auto_chosen);
            j.End('}');
          }
          j.End('}');
          j.End('}');
        }
        j.End(']');
        j.End('}');
      }
      std::fclose(f);
      std::printf("JSON results written to %s\n", path);
    }
  }
  return 0;
}
