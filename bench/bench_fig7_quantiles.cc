// Figure 7: epsilon-approximate quantile estimation (Greenwald-Khanna +
// exponential histogram, §5.2) over a large random stream — GPU vs CPU for
// varying epsilon.
//
// Expected shape: "the GPU performance is comparable to a high-end Pentium
// IV CPU"; "for low window sizes, the performance of the CPU-based algorithm
// is better ... the elements in the window fit within the L2 cache."

// The sketch shootout below compares the swappable whole-history quantile
// backends (GK+EH vs KLL, docs/SKETCHES.md) on ns/update, serialized summary
// bytes, and observed-vs-stated rank error; STREAMGPU_BENCH_JSON captures the
// rows for the CI gate (tools/check_bench_regression.py --sketch against
// BENCH_sketch.json).

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <vector>

#include "bench_util.h"
#include "common/timer.h"
#include "core/quantile_estimator.h"
#include "sketch/exact.h"
#include "sketch/quantile_sketch.h"
#include "stream/generator.h"

namespace {

using namespace streamgpu;

/// Worst observed rank error over a phi sweep, as a fraction of n.
double ObservedRelativeError(const sketch::QuantileSketch& sk,
                             const std::vector<float>& sorted) {
  const double n = static_cast<double>(sorted.size());
  double worst = 0;
  for (int i = 1; i <= 99; i += 2) {
    const double phi = static_cast<double>(i) / 100.0;
    const float answer = sk.Query(phi);
    const auto [lo, hi] = sketch::ExactRankRange(sorted, answer);
    const double target = std::ceil(phi * n);
    const double below = static_cast<double>(lo) + 1 - target;  // 1-based
    const double above = target - static_cast<double>(hi) - 1;
    worst = std::max(worst, std::max(below, above));
  }
  return worst / n;
}

void RunSketchShootout() {
  std::printf("\nSketch shootout: GK+EH vs KLL whole-history backends\n");
  std::printf("%8s %12s | %12s %13s | %14s %12s\n", "epsilon", "sketch",
              "ns/update", "summary(B)", "observed-eps", "bound-ok");

  const std::size_t n = bench::Scaled(1 << 20);
  const std::uint64_t window = 4096;

  const char* json_path = bench::JsonOutPath(nullptr);
  std::FILE* json_file = json_path != nullptr ? std::fopen(json_path, "w") : nullptr;
  std::unique_ptr<bench::JsonWriter> json;
  if (json_file != nullptr) {
    json = std::make_unique<bench::JsonWriter>(json_file);
    json->Number("schema", std::uint64_t{1});
    json->BeginObject("sketch");
    json->Number("n", static_cast<std::uint64_t>(n));
    json->BeginArray("rows");
  }

  for (const double epsilon : {0.02, 0.01, 0.005}) {
    for (const auto kind :
         {sketch::QuantileSketchKind::kGk, sketch::QuantileSketchKind::kKll}) {
      stream::StreamGenerator gen({.distribution = stream::Distribution::kZipf,
                                   .seed = 404});
      std::vector<float> data = gen.Take(n);

      auto sk = sketch::QuantileSketch::Create(kind, epsilon, window, n);
      if (!sk.ok()) continue;
      Timer timer;
      std::vector<float> chunk;
      for (std::size_t off = 0; off < data.size(); off += window) {
        const std::size_t len = std::min<std::size_t>(window, data.size() - off);
        chunk.assign(data.begin() + off, data.begin() + off + len);
        std::sort(chunk.begin(), chunk.end());
        (*sk)->AddSortedWindow(chunk, nullptr);
      }
      const double ns_per_update =
          timer.ElapsedSeconds() * 1e9 / static_cast<double>(n);

      std::vector<std::uint8_t> wire;
      const bool serialized = (*sk)->AppendWireSummary(&wire).ok();
      std::sort(data.begin(), data.end());
      const double observed = ObservedRelativeError(**sk, data);
      const double stated =
          static_cast<double>((*sk)->rank_error_bound()) / static_cast<double>(n);
      const bool bound_ok = observed <= stated + 1.0 / static_cast<double>(n);
      const char* name = sketch::QuantileSketchKindName(kind);

      std::printf("%8.3f %12s | %12.1f %13zu | %14.5f %12s\n", epsilon, name,
                  ns_per_update, wire.size(), observed, bound_ok ? "yes" : "NO");
      if (json != nullptr && serialized) {
        json->BeginArrayObject();
        json->String("sketch", name);
        json->Number("epsilon", epsilon);
        json->Number("ns_per_update", ns_per_update);
        json->Number("summary_bytes", static_cast<std::uint64_t>(wire.size()));
        json->Number("observed_rel_error", observed);
        json->Number("stated_rel_error", stated);
        json->End('}');
      }
    }
  }

  if (json != nullptr) {
    json->End(']');
    json->End('}');
    json.reset();
    std::fclose(json_file);
    std::printf("# sketch rows -> %s\n", json_path);
  }
}

}  // namespace

int main() {
  bench::PrintHeader(
      "Figure 7: quantile estimation over a random stream, GPU vs CPU",
      "GPU comparable to CPU overall; CPU better at small (cache-resident) windows");

  const std::size_t stream_length = bench::Scaled(1 << 21);

  std::printf("%12s %10s | %13s %13s | %10s | %12s %12s\n", "epsilon", "window",
              "gpu-total(ms)", "cpu-total(ms)", "median", "gpu-wall(s)", "cpu-wall(s)");

  for (std::size_t window : {1u << 10, 1u << 12, 1u << 14, 1u << 16, 1u << 18, 1u << 19}) {
    if (window * 4 > stream_length) break;
    const double epsilon = 1.0 / static_cast<double>(window);

    double gpu_total = 0;
    double cpu_total = 0;
    double gpu_wall = 0;
    double cpu_wall = 0;
    float median = 0;
    for (const core::Backend backend :
         {core::Backend::kGpuPbsn, core::Backend::kCpuQuicksort}) {
      stream::StreamGenerator gen(
          {.distribution = stream::Distribution::kUniform, .seed = 55, .domain_size = 2000});
      core::Options opt;
      opt.epsilon = epsilon;
      opt.backend = backend;
      opt.expected_stream_length = stream_length;
      core::QuantileEstimator qe(opt);
      Timer t;
      for (std::size_t i = 0; i < stream_length; ++i) qe.Observe(gen.Next());
      qe.Flush();
      if (backend == core::Backend::kGpuPbsn) {
        gpu_total = qe.SimulatedSeconds() * 1e3;
        gpu_wall = t.ElapsedSeconds();
        median = qe.Quantile(0.5).value;
      } else {
        cpu_total = qe.SimulatedSeconds() * 1e3;
        cpu_wall = t.ElapsedSeconds();
      }
    }
    std::printf("%12.2e %10zu | %13.1f %13.1f | %10.1f | %12.2f %12.2f\n", epsilon,
                window, gpu_total, cpu_total, median, gpu_wall, cpu_wall);
  }
  std::printf("\nNote: the uniform-[0,2000) stream's true median is ~1000; the reported "
              "median sanity-checks the summary while timing it.\n\n");
  RunSketchShootout();
  return 0;
}
