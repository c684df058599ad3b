#include "core/quantile_estimator.h"

namespace streamgpu::core {

StatusOr<std::unique_ptr<QuantileEstimator>> QuantileEstimator::Create(
    const Options& options) {
  Status status = options.Validate();
  if (!status.ok()) return status;
  return std::make_unique<QuantileEstimator>(options);
}

QuantileReport QuantileEstimator::Quantile(double phi, std::uint64_t window) const {
  Sync();
  const QuantileReport report = core_.Quantile(phi, window);
  if (obs_.metrics != nullptr) {
    obs_.metrics->Add(ids_.queries);
    ExportQuantileReport(obs_.metrics, Traits::kPrefix, report);
  }
  return report;
}

StatusOr<std::vector<std::uint8_t>> QuantileEstimator::SerializedSummary() const {
  if (!finalized()) {
    return Status::FailedPrecondition(
        "shard summaries are exported from a finalized estimator; call "
        "Flush() first so buffered windows are covered");
  }
  std::vector<std::uint8_t> bytes;
  const Status status = core_.AppendWireSummary(&bytes);
  if (!status.ok()) return status;
  return bytes;
}

}  // namespace streamgpu::core
