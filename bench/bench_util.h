// Shared helpers for the figure-reproduction benchmark binaries.
//
// Each binary regenerates one figure of the paper's evaluation as aligned
// text rows: simulated 2005-hardware milliseconds (the apples-to-apples
// numbers, produced by the hwmodel layer from exact operation counts) plus
// host wall-clock of the simulator itself for reference.
//
// STREAMGPU_SCALE (default 1) scales stream/input sizes toward the paper's
// full scale (8M-element sorts, 100M-element streams). The default sizes are
// chosen so every binary finishes in tens of seconds on one core.

#ifndef STREAMGPU_BENCH_BENCH_UTIL_H_
#define STREAMGPU_BENCH_BENCH_UTIL_H_

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/env.h"

namespace streamgpu::bench {

/// Scales `base` by STREAMGPU_SCALE, keeping at least `base`... values below
/// 1 shrink (useful for quick smoke runs).
inline std::size_t Scaled(std::size_t base) {
  const double s = BenchScale();
  const auto scaled = static_cast<std::size_t>(static_cast<double>(base) * s);
  return scaled < 16 ? 16 : scaled;
}

/// Where a bench should write its machine-readable JSON results:
/// STREAMGPU_BENCH_JSON when set (empty string disables), else `fallback`
/// (pass nullptr for no default). The committed baseline the CI regression
/// gate compares against lives at the repo root as BENCH_sort.json.
inline const char* JsonOutPath(const char* fallback) {
  const char* p = std::getenv("STREAMGPU_BENCH_JSON");
  if (p != nullptr) return *p != '\0' ? p : nullptr;
  return fallback;
}

/// Minimal JSON emitter for flat benchmark reports: objects, string keys,
/// number/string values. No escaping (keys and values are programmer-chosen
/// identifiers), no arrays-of-arrays — just enough for BENCH_*.json.
class JsonWriter {
 public:
  explicit JsonWriter(std::FILE* f) : f_(f) { std::fputc('{', f_); }
  ~JsonWriter() { std::fputs("}\n", f_); }

  void Key(const char* key) {
    Comma();
    std::fprintf(f_, "\"%s\": ", key);
    value_pending_ = true;
  }
  void Number(const char* key, double value) {
    Key(key);
    std::fprintf(f_, "%.6g", value);
    value_pending_ = false;
  }
  void Number(const char* key, std::uint64_t value) {
    Key(key);
    std::fprintf(f_, "%llu", static_cast<unsigned long long>(value));
    value_pending_ = false;
  }
  void String(const char* key, const char* value) {
    Key(key);
    std::fprintf(f_, "\"%s\"", value);
    value_pending_ = false;
  }
  void BeginObject(const char* key) {
    Key(key);
    std::fputc('{', f_);
    first_ = true;
    value_pending_ = false;
  }
  void BeginArray(const char* key) {
    Key(key);
    std::fputc('[', f_);
    first_ = true;
    value_pending_ = false;
  }
  void BeginArrayObject() {
    Comma();
    std::fputc('{', f_);
    first_ = true;
  }
  void End(char close) {  // '}' or ']'
    std::fputc(close, f_);
    first_ = false;
  }

 private:
  void Comma() {
    if (!first_ && !value_pending_) std::fputs(", ", f_);
    first_ = false;
  }
  std::FILE* f_;
  bool first_ = true;
  bool value_pending_ = false;
};

/// Median of `values`; the mean of the middle two for an even count.
inline double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid] : (values[mid - 1] + values[mid]) / 2;
}

/// Prints the standard figure header.
inline void PrintHeader(const char* figure, const char* claim) {
  std::printf("==============================================================================\n");
  std::printf("%s\n", figure);
  std::printf("Paper's qualitative claim: %s\n", claim);
  std::printf("(simulated hardware: GeForce FX 6800 Ultra vs 3.4 GHz Pentium IV; scale=%g)\n",
              BenchScale());
  std::printf("==============================================================================\n");
}

}  // namespace streamgpu::bench

#endif  // STREAMGPU_BENCH_BENCH_UTIL_H_
