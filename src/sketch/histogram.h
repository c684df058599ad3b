// Window histogram computation from sorted data (§3.2, operation 1).
//
// "For each window, the elements are ordered by sorting them and a histogram
// is computed. A histogram data structure holds each element value in the
// window and its frequency." Sorting is the expensive part (70-95% of CPU
// time) and is what the paper offloads to the GPU; the linear scan below is
// the cheap remainder.

#ifndef STREAMGPU_SKETCH_HISTOGRAM_H_
#define STREAMGPU_SKETCH_HISTOGRAM_H_

#include <cstdint>
#include <span>
#include <vector>

namespace streamgpu::sketch {

/// One histogram bucket: a distinct value and its number of occurrences.
struct HistogramEntry {
  float value = 0;
  std::uint64_t count = 0;

  friend bool operator==(const HistogramEntry&, const HistogramEntry&) = default;
};

/// Builds the (value, frequency) histogram of an ascending-sorted window in
/// one linear pass. Output entries are in ascending value order.
std::vector<HistogramEntry> BuildHistogram(std::span<const float> sorted_window);

}  // namespace streamgpu::sketch

#endif  // STREAMGPU_SKETCH_HISTOGRAM_H_
