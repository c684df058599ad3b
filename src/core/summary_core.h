// Per-stream summary state shared by the dedicated estimators and the
// multi-tenant StreamService.
//
// FrequencyEstimator/QuantileEstimator and service::StreamService answer the
// same queries over the same sorted-window stream; this file holds the one
// implementation of the merge/quarantine/shed accounting and report
// construction both sides delegate to, so a stream multiplexed through the
// service is bit-identical to a dedicated pipeline by construction rather
// than by parallel maintenance of two copies of the logic
// (docs/SERVICE.md, "Bit-identity").
//
// The cores are single-threaded value types: the owner serializes merges,
// sheds, and queries (the estimators via the pipeline's ordered drain
// thread, the service via its per-shard summary lock).

#ifndef STREAMGPU_CORE_SUMMARY_CORE_H_
#define STREAMGPU_CORE_SUMMARY_CORE_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "core/costs.h"
#include "core/report.h"
#include "core/status.h"
#include "sketch/lossy_counting.h"
#include "sketch/quantile_sketch.h"
#include "sketch/sliding_window.h"

namespace streamgpu::core {

/// The processing-window width a quantile stream uses when Options::
/// window_size is 0: the sliding block size in sliding mode, else
/// ceil(1/epsilon) (windows of that width give (epsilon/2)-summaries of
/// about 1/epsilon tuples). A non-zero `window_size` is returned unchanged.
std::uint64_t NaturalQuantileWindow(double epsilon, std::uint64_t window_size,
                                    std::uint64_t sliding_window);

/// The frequency path's counterpart: the sliding block size in sliding
/// mode, else the Manku-Motwani bucket width ceil(1/epsilon).
std::uint64_t NaturalFrequencyWindow(double epsilon, std::uint64_t window_size,
                                     std::uint64_t sliding_window);

/// Whole-history / sliding-window quantile summary with quarantine and
/// load-shed accounting. One instance per stream; merges take sorted
/// windows (ascending bit-pattern order, any backend).
class QuantileSummaryCore {
 public:
  /// `window_size` is the resolved processing window (see
  /// NaturalQuantileWindow); `sliding_window` 0 selects whole-history mode;
  /// `expected_stream_length` 0 provisions generously (2^32 windows);
  /// `kind` picks the whole-history backend (ignored in sliding mode, which
  /// keeps its dedicated GK block decomposition — Options::Validate()
  /// rejects the combination upstream).
  QuantileSummaryCore(double epsilon, std::uint64_t window_size,
                      std::uint64_t sliding_window,
                      std::uint64_t expected_stream_length,
                      sketch::QuantileSketchKind kind =
                          sketch::QuantileSketchKind::kGk);

  /// Folds one sorted window into the backend sketch. Returns the condensed
  /// per-window summary's tuple count (trace metadata). `runner` may run
  /// slices of the combines the window sets off (sketch::QuantileSketch::
  /// AddSortedWindow); null, the default, keeps them on the caller.
  std::size_t MergeSortedWindow(std::span<const float> window,
                                ForkJoin* runner = nullptr);

  /// The deepest aligned block MergeSortedBlock can take: 2^k full windows
  /// (sketch::QuantileSketch::max_block_level; 0 in sliding mode and for
  /// the non-GK kinds).
  int max_block_level() const;

  /// Folds 2^level consecutive full windows that a sort worker merged into
  /// `run` (sketch::EhQuantileSummary::MergeBlock), when that equals
  /// MergeSortedWindow on each of them in turn. Returns false and changes
  /// nothing otherwise; the caller then merges the windows one by one.
  /// `runner` is MergeSortedWindow's.
  bool MergeSortedBlock(std::vector<float>& run, int level, double merge_seconds,
                        ForkJoin* runner = nullptr);

  /// Accounts one unrecoverable window: not merged, not counted as
  /// processed; widens the error bound by its element count.
  void QuarantineWindow(std::size_t elements);

  /// Accounts elements dropped by admission control before they reached a
  /// window: the bound widens exactly as it does for quarantined elements,
  /// so the answer's stated guarantee stays honest under load shedding.
  void ShedElements(std::uint64_t elements);

  /// The phi-quantile report over everything merged so far (sliding mode:
  /// over the most recent `window` elements; 0 = full sliding window).
  QuantileReport Quantile(double phi, std::uint64_t window) const;

  /// Serializes the whole-history backend's mergeable summary as one wire
  /// envelope (sketch/serialize.h) appended to `out` — the shard export the
  /// combiner and `streamgpu_cli merge` consume. Sliding mode is not
  /// mergeable (the block decomposition is position-dependent) and fails
  /// with kFailedPrecondition.
  Status AppendWireSummary(std::vector<std::uint8_t>* out) const;

  /// Serializes the core's FULL durable state — the merge/quarantine/shed
  /// counters plus the backend sketch's complete internal state (not the
  /// condensed mergeable export) — as the payload of one kQuantileState
  /// checkpoint record (docs/DURABILITY.md). Sliding mode is not
  /// checkpointable (mirroring AppendWireSummary) and fails with
  /// kFailedPrecondition.
  Status AppendCheckpointState(std::vector<std::uint8_t>* out) const;

  /// Inverse of AppendCheckpointState: installs the checkpointed state into
  /// this freshly constructed core (processed() must still be 0). The
  /// configuration must match the one that wrote the checkpoint. Returns
  /// kInvalidArgument on corrupt payloads — never aborts.
  Status RestoreCheckpointState(std::span<const std::uint8_t> payload);

  std::uint64_t processed() const { return processed_; }
  std::size_t summary_size() const;
  std::uint64_t windows_quarantined() const { return windows_quarantined_; }
  std::uint64_t elements_dropped() const { return elements_dropped_; }
  std::uint64_t elements_shed() const { return elements_shed_; }
  bool sliding() const { return sliding_.has_value(); }
  sketch::QuantileSketchKind kind() const { return kind_; }

  /// Summary-maintenance cost mirrors (whole-history mode; zero in sliding
  /// mode), plus the wall time and element count of the per-window
  /// rank-sampling step — the estimators fold these into PipelineCosts.
  double merge_seconds() const;
  double compress_seconds() const;
  std::uint64_t merged_tuples() const;
  std::uint64_t pruned_tuples() const;
  double histogram_wall_seconds() const;
  std::uint64_t histogram_elements() const { return histogram_elements_; }

  /// Mirrors the summary-maintenance costs above into an estimator's cost
  /// record (the histogram/merge/compress fields; the rest stay untouched).
  void MirrorCosts(PipelineCosts* costs) const;

 private:
  std::uint64_t Coverage(std::uint64_t window) const;
  std::uint64_t ErrorBound() const;

  double epsilon_;
  std::uint64_t sliding_window_;
  std::uint64_t window_size_;      ///< resolved processing window (restore)
  std::uint64_t expected_length_;  ///< resolved a-priori N (restore)
  sketch::QuantileSketchKind kind_;
  std::unique_ptr<sketch::QuantileSketch> whole_;
  std::optional<sketch::SlidingWindowQuantile> sliding_;
  std::uint64_t processed_ = 0;
  std::uint64_t windows_quarantined_ = 0;
  std::uint64_t elements_dropped_ = 0;
  std::uint64_t elements_shed_ = 0;
  double histogram_wall_seconds_ = 0;
  std::uint64_t histogram_elements_ = 0;
};

/// Whole-history / sliding-window heavy-hitter summary, mirroring
/// QuantileSummaryCore's lifecycle and accounting.
class FrequencySummaryCore {
 public:
  FrequencySummaryCore(double epsilon, std::uint64_t window_size,
                       std::uint64_t sliding_window);

  /// Reduces one sorted window to a histogram and merges it. Returns the
  /// histogram's entry count (trace metadata).
  std::size_t MergeSortedWindow(std::span<const float> window);

  void QuarantineWindow(std::size_t elements);
  void ShedElements(std::uint64_t elements);

  /// Checkpoint state, mirroring QuantileSummaryCore: the accounting
  /// counters plus the exact Manku-Motwani summary (n, bucket id, entries)
  /// as the payload of one kFrequencyState record. Sliding mode fails with
  /// kFailedPrecondition.
  Status AppendCheckpointState(std::vector<std::uint8_t>* out) const;

  /// Installs checkpointed state into this fresh core (processed() == 0).
  Status RestoreCheckpointState(std::span<const std::uint8_t> payload);

  /// Heavy hitters above `support` (sliding mode: over the most recent
  /// `window` elements). Support 0 returns every retained entry (top-k).
  FrequencyReport HeavyHitters(double support, std::uint64_t window) const;

  /// Estimated frequency of `value` — the caller quantizes `value` into the
  /// stream's ingest universe first (binary16 on the GPU f16 path).
  std::uint64_t EstimateCount(float value, std::uint64_t window) const;

  std::uint64_t processed() const { return processed_; }
  std::size_t summary_size() const;
  std::uint64_t windows_quarantined() const { return windows_quarantined_; }
  std::uint64_t elements_dropped() const { return elements_dropped_; }
  std::uint64_t elements_shed() const { return elements_shed_; }
  bool sliding() const { return sliding_.has_value(); }

  /// Whole-history mode: the Manku-Motwani summary's own op costs.
  const sketch::SummaryOpCosts* op_costs() const;
  double histogram_wall_seconds() const { return histogram_wall_seconds_; }
  std::uint64_t histogram_elements() const { return histogram_elements_; }

  /// Mirrors the histogram and (whole-history) op costs into `costs`.
  void MirrorCosts(PipelineCosts* costs) const;

 private:
  std::uint64_t Coverage(std::uint64_t window) const;
  std::uint64_t ErrorBound() const;

  double epsilon_;
  std::uint64_t sliding_window_;
  std::optional<sketch::LossyCounting> whole_;
  std::optional<sketch::SlidingWindowFrequency> sliding_;
  std::uint64_t processed_ = 0;
  std::uint64_t windows_quarantined_ = 0;
  std::uint64_t elements_dropped_ = 0;
  std::uint64_t elements_shed_ = 0;
  double histogram_wall_seconds_ = 0;
  std::uint64_t histogram_elements_ = 0;
};

}  // namespace streamgpu::core

#endif  // STREAMGPU_CORE_SUMMARY_CORE_H_
