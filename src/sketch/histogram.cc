#include "sketch/histogram.h"

#include "common/check.h"

namespace streamgpu::sketch {

std::vector<HistogramEntry> BuildHistogram(std::span<const float> sorted_window) {
  std::vector<HistogramEntry> out;
  if (sorted_window.empty()) return out;
  out.push_back({sorted_window[0], 1});
  for (std::size_t i = 1; i < sorted_window.size(); ++i) {
    STREAMGPU_DCHECK(sorted_window[i - 1] <= sorted_window[i]);
    if (sorted_window[i] == out.back().value) {
      ++out.back().count;
    } else {
      out.push_back({sorted_window[i], 1});
    }
  }
  return out;
}

}  // namespace streamgpu::sketch
