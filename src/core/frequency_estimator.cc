#include "core/frequency_estimator.h"

#include <cmath>
#include <string>

#include "gpu/half.h"

namespace streamgpu::core {

StatusOr<std::unique_ptr<FrequencyEstimator>> FrequencyEstimator::Create(
    const Options& options) {
  Status status = options.Validate();
  if (!status.ok()) return status;
  if (options.sliding_window == 0) {
    // Frequency-specific rule: the Manku-Motwani summary's bucket width caps
    // the whole-history window (the quantile summary has no such cap, so
    // this lives here rather than in Options::Validate()).
    const auto width = static_cast<std::uint64_t>(std::ceil(1.0 / options.epsilon));
    if (options.window_size > width) {
      return Status::InvalidArgument(
          "window_size (" + std::to_string(options.window_size) +
          ") must not exceed ceil(1/epsilon) (= " + std::to_string(width) +
          ") in whole-history mode");
    }
  }
  return std::make_unique<FrequencyEstimator>(options);
}

FrequencyReport FrequencyEstimator::HeavyHitters(double support,
                                                 std::uint64_t window) const {
  Sync();
  const FrequencyReport report = core_.HeavyHitters(support, window);
  if (obs_.metrics != nullptr) {
    obs_.metrics->Add(ids_.queries);
    ExportFrequencyReport(obs_.metrics, Traits::kPrefix, report);
  }
  return report;
}

std::uint64_t FrequencyEstimator::EstimateCount(float value, std::uint64_t window) const {
  Sync();
  if (obs_.metrics != nullptr) obs_.metrics->Add(ids_.queries);
  // Queries live in the same quantized value universe as ingestion.
  if (quantize_) value = gpu::QuantizeToHalf(value);
  return core_.EstimateCount(value, window);
}

FrequencyReport FrequencyEstimator::TopK(std::size_t k, std::uint64_t window) const {
  // HeavyHitters at support 0 returns every retained entry, sorted by
  // descending estimate; truncate to k.
  FrequencyReport report = HeavyHitters(0.0, window);
  if (report.items.size() > k) report.items.resize(k);
  if (obs_.metrics != nullptr) ExportFrequencyReport(obs_.metrics, Traits::kPrefix, report);
  return report;
}

}  // namespace streamgpu::core
