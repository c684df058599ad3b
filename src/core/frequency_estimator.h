// Public API: epsilon-approximate frequency estimation over a data stream,
// GPU-accelerated per §5.1 — the stream is chunked into windows, each window
// is sorted by the configured backend, reduced to a histogram, and merged
// into a Manku-Motwani summary (whole history) or a block-decomposed
// sliding-window summary (§5.3).

#ifndef STREAMGPU_CORE_FREQUENCY_ESTIMATOR_H_
#define STREAMGPU_CORE_FREQUENCY_ESTIMATOR_H_

#include <cstdint>
#include <memory>

#include "core/options.h"
#include "core/report.h"
#include "core/status.h"
#include "core/summary_core.h"
#include "core/summary_estimator.h"

namespace streamgpu::core {

/// Streaming epsilon-approximate frequency estimator.
///
/// Usage:
///   Options opt;
///   opt.epsilon = 1e-4;
///   auto fe = FrequencyEstimator::Create(opt);
///   if (!fe.ok()) { /* report fe.status() */ }
///   for (float v : stream) (*fe)->Observe(v);
///   (*fe)->Flush();
///   FrequencyReport hitters = (*fe)->HeavyHitters(0.01);
///
/// Queries reflect the windows processed so far; up to
/// batch-size * window-size recent elements may still be buffered until the
/// next batch boundary or Flush().
///
/// Ingest, lifecycle, threaded execution, checkpointing, and observability
/// ("freq."-prefixed metrics and spans) are the shared SummaryEstimator's
/// (core/summary_estimator.h), identical to QuantileEstimator's.
class FrequencyEstimator : public SummaryEstimator<FrequencySummaryCore> {
 public:
  /// Validated construction: returns the first configuration error (see
  /// Options::Validate(), plus the frequency-specific rule that a
  /// whole-history window_size must not exceed ceil(1/epsilon)) instead of
  /// aborting. The returned estimator is never null on ok().
  static StatusOr<std::unique_ptr<FrequencyEstimator>> Create(const Options& options);

  /// Direct construction CHECK-aborts on invalid options; prefer Create().
  explicit FrequencyEstimator(const Options& options) : SummaryEstimator(options) {}

  /// Resumes from the newest usable snapshot in options.checkpoint_dir. The
  /// returned estimator answers exactly as the checkpointed one did;
  /// observed_length() tells the caller which input suffix to replay.
  /// kFailedPrecondition when the directory holds no usable checkpoint
  /// (callers typically start fresh); kInvalidArgument when the snapshot
  /// disagrees with `options` or is corrupt — never a crash.
  static StatusOr<std::unique_ptr<FrequencyEstimator>> Restore(const Options& options) {
    return RestoreAs<FrequencyEstimator>(options);
  }

  /// Heavy hitters at `support` over the whole history, or — in sliding
  /// mode — over the most recent `window` elements (0 = full sliding
  /// window). No false negatives among processed elements. The report
  /// carries the guaranteed error bound and the coverage the answer is
  /// stated over.
  FrequencyReport HeavyHitters(double support, std::uint64_t window = 0) const;

  /// Estimated frequency of `value` (undercounts by at most epsilon * N).
  std::uint64_t EstimateCount(float value, std::uint64_t window = 0) const;

  /// The k values with the highest estimated frequencies (descending). With
  /// estimates within epsilon * N of truth, this is the true top-k whenever
  /// the k-th and (k+1)-th true frequencies are more than 2 * epsilon * N
  /// apart. The report's support is 0 (no threshold was applied).
  FrequencyReport TopK(std::size_t k, std::uint64_t window = 0) const;
};

}  // namespace streamgpu::core

#endif  // STREAMGPU_CORE_FREQUENCY_ESTIMATOR_H_
