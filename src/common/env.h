// Helpers for reading benchmark scale factors and flags from the environment.

#ifndef STREAMGPU_COMMON_ENV_H_
#define STREAMGPU_COMMON_ENV_H_

#include <cstdlib>
#include <string>

namespace streamgpu {

/// Returns the value of environment variable `name` parsed as a double, or
/// `fallback` when unset or unparsable.
inline double GetEnvDouble(const char* name, double fallback) {
  const char* raw = std::getenv(name);
  if (raw == nullptr || raw[0] == '\0') return fallback;
  char* end = nullptr;
  double value = std::strtod(raw, &end);
  if (end == raw) return fallback;
  return value;
}

/// Global benchmark scale factor (STREAMGPU_SCALE). 1.0 keeps the
/// seconds-level default sizes; larger values move toward the paper's full
/// 8M-element sorts and 100M-element streams.
inline double BenchScale() { return GetEnvDouble("STREAMGPU_SCALE", 1.0); }

}  // namespace streamgpu

#endif  // STREAMGPU_COMMON_ENV_H_
