// Public API facade: one object that maintains both the frequency and the
// quantile summary over a single stream — the "numerical statistics
// co-processor" configuration of the paper's abstract.

#ifndef STREAMGPU_CORE_STREAM_MINER_H_
#define STREAMGPU_CORE_STREAM_MINER_H_

#include <memory>

#include "common/check.h"
#include "core/frequency_estimator.h"
#include "core/quantile_estimator.h"
#include "core/status.h"

namespace streamgpu::core {

/// Maintains frequency and quantile summaries side by side. Each estimator
/// owns its own backend engine (and, for GPU backends, its own simulated
/// device), so their cost records stay separable.
///
/// With Options::num_sort_workers >= 2 each estimator runs its own parallel
/// ingest pipeline (num_sort_workers sort threads + one summary thread, see
/// docs/ARCHITECTURE.md), so a pipelined StreamMiner overlaps the two
/// summaries' sorting as well. Answers and simulated-2005 costs are
/// identical to serial mode in either configuration.
///
/// When Options::obs wires metrics/tracing sinks, both estimators share them:
/// the frequency side records under "freq.", the quantile side under
/// "quant." (docs/OBSERVABILITY.md).
///
/// A miner does not checkpoint: Options::checkpoint_dir must be empty. The
/// two estimators would each write their own snapshots and epochs into the
/// one directory and prune each other's. To make both summaries durable,
/// run a FrequencyEstimator and a QuantileEstimator, each with its own
/// checkpoint_dir (docs/DURABILITY.md).
class StreamMiner {
 public:
  /// Validated construction: returns configuration errors — the union of
  /// both estimators' rules, plus an empty checkpoint_dir — instead of
  /// aborting. Never null on ok().
  static StatusOr<std::unique_ptr<StreamMiner>> Create(const Options& options) {
    const Status status = CheckNoCheckpointDir(options);
    if (!status.ok()) return status;
    // FrequencyEstimator::Create applies Options::Validate() plus the
    // frequency-specific whole-history window cap; the quantile rules are a
    // subset, so one factory call covers the miner.
    auto fe = FrequencyEstimator::Create(options);
    if (!fe.ok()) return fe.status();
    return std::unique_ptr<StreamMiner>(new StreamMiner(std::move(*fe), options));
  }

  /// Direct construction CHECK-aborts on invalid options; prefer Create().
  explicit StreamMiner(const Options& options)
      : frequencies_(std::make_unique<FrequencyEstimator>(Checked(options))),
        quantiles_(options) {}

  /// Processes one stream element through both summaries. Fails once
  /// Flush() has finalized the miner.
  Status Observe(float value) {
    Status status = frequencies_->Observe(value);
    if (!status.ok()) return status;
    return quantiles_.Observe(value);
  }

  /// Processes a batch of stream elements.
  Status ObserveBatch(std::span<const float> values) {
    Status status = frequencies_->ObserveBatch(values);
    if (!status.ok()) return status;
    return quantiles_.ObserveBatch(values);
  }

  /// Finalizes buffered windows in both summaries (end of stream).
  /// Idempotent; afterwards the miner is query-only. Returns the first
  /// estimator failure (e.g. a dead pipeline drain); both estimators are
  /// finalized regardless.
  Status Flush() {
    Status status = frequencies_->Flush();
    const Status quantile_status = quantiles_.Flush();
    if (status.ok()) status = quantile_status;
    return status;
  }

  /// True once Flush() has finalized both estimators.
  bool finalized() const { return frequencies_->finalized() && quantiles_.finalized(); }

  /// Serializes both estimators' costs and gauges into the wired
  /// MetricsRegistry (no-op without one).
  void ExportMetrics() const {
    frequencies_->ExportMetrics();
    quantiles_.ExportMetrics();
  }

  FrequencyEstimator& frequencies() { return *frequencies_; }
  const FrequencyEstimator& frequencies() const { return *frequencies_; }

  QuantileEstimator& quantiles() { return quantiles_; }
  const QuantileEstimator& quantiles() const { return quantiles_; }

 private:
  StreamMiner(std::unique_ptr<FrequencyEstimator> frequencies, const Options& options)
      : frequencies_(std::move(frequencies)), quantiles_(options) {}

  static Status CheckNoCheckpointDir(const Options& options) {
    if (options.checkpoint_dir.empty()) return Status::Ok();
    return Status::InvalidArgument(
        "StreamMiner does not checkpoint (checkpoint_dir is set): checkpoint a "
        "FrequencyEstimator and a QuantileEstimator, each with its own directory");
  }

  // `options`, CHECK-failing before either estimator is built when Create()
  // would reject them for the miner.
  static const Options& Checked(const Options& options) {
    const Status status = CheckNoCheckpointDir(options);
    STREAMGPU_CHECK_MSG(status.ok(), status.message().c_str());
    return options;
  }

  // unique_ptr so the Create() path reuses the already-validated frequency
  // estimator instead of constructing (and CHECK-validating) twice.
  std::unique_ptr<FrequencyEstimator> frequencies_;
  QuantileEstimator quantiles_;
};

}  // namespace streamgpu::core

#endif  // STREAMGPU_CORE_STREAM_MINER_H_
