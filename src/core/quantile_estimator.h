// Public API: epsilon-approximate quantile estimation over a data stream,
// GPU-accelerated per §5.2 — each window is sorted by the configured
// backend, rank-sampled into a Greenwald-Khanna summary, and maintained in
// an exponential histogram (whole history) or a block-decomposed
// sliding-window structure (§5.3).

#ifndef STREAMGPU_CORE_QUANTILE_ESTIMATOR_H_
#define STREAMGPU_CORE_QUANTILE_ESTIMATOR_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "core/options.h"
#include "core/report.h"
#include "core/status.h"
#include "core/summary_core.h"
#include "core/summary_estimator.h"

namespace streamgpu::core {

/// Streaming epsilon-approximate quantile estimator.
///
/// Usage:
///   Options opt;
///   opt.epsilon = 1e-3;
///   auto qe = QuantileEstimator::Create(opt);
///   if (!qe.ok()) { /* report qe.status() */ }
///   for (float v : stream) (*qe)->Observe(v);
///   (*qe)->Flush();
///   QuantileReport median = (*qe)->Quantile(0.5);
///
/// The returned element's rank among the covered elements is within
/// epsilon * N of phi * N; the report carries that bound explicitly.
///
/// Ingest, lifecycle, threaded execution, checkpointing, and observability
/// ("quant."-prefixed metrics and spans) are the shared SummaryEstimator's
/// (core/summary_estimator.h), identical to FrequencyEstimator's.
class QuantileEstimator : public SummaryEstimator<QuantileSummaryCore> {
 public:
  /// Validated construction: returns configuration errors (see
  /// Options::Validate()) instead of aborting. The returned estimator is
  /// never null on ok().
  static StatusOr<std::unique_ptr<QuantileEstimator>> Create(const Options& options);

  /// Direct construction CHECK-aborts on invalid options; prefer Create().
  explicit QuantileEstimator(const Options& options) : SummaryEstimator(options) {}

  /// Resumes from the newest usable snapshot in options.checkpoint_dir. The
  /// returned estimator answers exactly as the checkpointed one did;
  /// observed_length() tells the caller which input suffix to replay.
  /// kFailedPrecondition when the directory holds no usable checkpoint
  /// (callers typically start fresh); kInvalidArgument when the snapshot
  /// disagrees with `options` or is corrupt — never a crash.
  static StatusOr<std::unique_ptr<QuantileEstimator>> Restore(const Options& options) {
    return RestoreAs<QuantileEstimator>(options);
  }

  /// The phi-quantile (phi in (0, 1]) over the whole history, or — in
  /// sliding mode — over the most recent `window` elements (0 = full
  /// sliding window). The report carries the rank-error bound and the
  /// coverage the answer is stated over.
  QuantileReport Quantile(double phi, std::uint64_t window = 0) const;

  /// Serializes the mergeable shard summary as one wire envelope
  /// (sketch/serialize.h) — the export `streamgpu_cli merge` and the shard
  /// combiners consume. Requires a finalized estimator (call Flush() first,
  /// so buffered windows are covered) in whole-history mode; sliding mode
  /// is not mergeable. Fails with kFailedPrecondition otherwise.
  StatusOr<std::vector<std::uint8_t>> SerializedSummary() const;
};

}  // namespace streamgpu::core

#endif  // STREAMGPU_CORE_QUANTILE_ESTIMATOR_H_
