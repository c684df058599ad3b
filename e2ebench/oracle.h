// Exact-answer oracle for e2e_bench.
//
// Every answer the benchmark times is checked after the timed region against
// the exact answer over the input prefix the report says it covers
// (`window_coverage`). The observed error is divided by the report's stated
// bound; a ratio above 1 is a failed operation.

#ifndef STREAMGPU_E2EBENCH_ORACLE_H_
#define STREAMGPU_E2EBENCH_ORACLE_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <unordered_map>

#include "core/report.h"
#include "sketch/exact.h"

namespace e2e {

/// Observed error of a quantile answer divided by its rank-error bound.
/// `covered` holds exactly the report's window_coverage elements. The
/// target rank is ceil(phi * N) (1-based); the error is its distance to the
/// answer's exact 1-based rank interval.
inline double QuantileErrorRatio(std::span<const float> covered,
                                 const streamgpu::core::QuantileReport& report) {
  if (covered.empty()) return 0;
  const auto [lo0, hi0] = streamgpu::sketch::ExactRankRange(covered, report.value);
  const double lo = static_cast<double>(lo0) + 1;
  const double hi = static_cast<double>(hi0) + 1;
  const double target = std::ceil(report.phi * static_cast<double>(covered.size()));
  const double error = target < lo ? lo - target : (target > hi ? target - hi : 0);
  if (error == 0) return 0;
  if (report.rank_error_bound == 0) return std::numeric_limits<double>::infinity();
  return error / static_cast<double>(report.rank_error_bound);
}

/// Observed error of a heavy-hitter answer divided by its bound, given the
/// exact counts of the covered prefix (values in the estimator's universe).
/// An overcount or a missed true heavy hitter is an unbounded error.
inline double HeavyHitterErrorRatio(
    const std::unordered_map<float, std::uint64_t>& exact,
    const streamgpu::core::FrequencyReport& report) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const double bound = static_cast<double>(report.error_bound);
  double worst = 0;
  for (const auto& item : report.items) {
    const auto it = exact.find(item.value);
    const std::uint64_t truth = it == exact.end() ? 0 : it->second;
    if (item.estimate > truth) return kInf;
    const double error = static_cast<double>(truth - item.estimate);
    if (error > 0) worst = std::max(worst, bound == 0 ? kInf : error / bound);
  }
  const double threshold = report.support * static_cast<double>(report.window_coverage);
  for (const auto& [value, count] : exact) {
    if (static_cast<double>(count) < threshold) continue;
    bool reported = false;
    for (const auto& item : report.items) reported |= item.value == value;
    if (!reported) return kInf;
  }
  return worst;
}

}  // namespace e2e

#endif  // STREAMGPU_E2EBENCH_ORACLE_H_
