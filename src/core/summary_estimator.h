// The one estimator implementation behind QuantileEstimator and
// FrequencyEstimator: ingest, flush, sync, checkpoint/restore, costs, and
// stats written once over a summary core (core/summary_core.h). The two
// public classes derive from SummaryEstimator<Core> and add only their query
// methods (and, for frequencies, the whole-history window cap).
//
// The stream is staged into windows (WindowBatcher), each batch goes through
// the stream::WindowExecutor, and the executor's ordered drain merges every
// sorted window into the core. A batch is one RGBA texture of four windows
// on the GPU PBSN path (§4.1); a backend that sorts one window per call
// batches up to 32, and the sort worker pre-merges the batch's aligned
// blocks of windows for a GK+EH quantile core (docs/ARCHITECTURE.md).
// Options::num_sort_workers >= 2 runs the executor threaded (that many sort
// workers plus one drain thread); one worker runs it inline on the caller's
// thread. Answers and every simulated-2005 cost figure are identical either
// way.

#ifndef STREAMGPU_CORE_SUMMARY_ESTIMATOR_H_
#define STREAMGPU_CORE_SUMMARY_ESTIMATOR_H_

#include <bit>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/backend.h"
#include "core/costs.h"
#include "core/fault.h"
#include "core/instrumentation.h"
#include "core/options.h"
#include "core/report.h"
#include "core/status.h"
#include "core/summary_core.h"
#include "durable/checkpoint.h"
#include "gpu/stats.h"
#include "stream/window_buffer.h"
#include "stream/window_executor.h"

namespace streamgpu::core {

/// What the shared implementation needs to know about one summary core:
/// metric/span prefix, window and core construction from Options, and the
/// snapshot identity of its checkpoints.
template <typename Core>
struct SummaryTraits;

template <>
struct SummaryTraits<QuantileSummaryCore> {
  static constexpr const char* kPrefix = "quant";
  static constexpr const char* kName = "quantile";
  static constexpr const char* kMergeArg = "summary_tuples";  ///< window_merge span arg
  static constexpr std::uint16_t kMode = durable::kSnapshotModeQuantile;
  static constexpr durable::RecordType kStateRecord = durable::RecordType::kQuantileState;

  static std::uint64_t Window(const Options& o) {
    return NaturalQuantileWindow(o.epsilon, o.window_size, o.sliding_window);
  }
  static QuantileSummaryCore MakeCore(const Options& o, std::uint64_t window) {
    return QuantileSummaryCore(o.epsilon, window, o.sliding_window,
                               o.expected_stream_length, o.quantile_sketch);
  }
  static std::uint16_t Kind(const QuantileSummaryCore& core) {
    return static_cast<std::uint16_t>(core.kind());
  }
  static int MaxBlockLevel(const QuantileSummaryCore& core) {
    return core.max_block_level();
  }
  // `runner` (the executor) runs slices of the larger GK combines a window
  // or block sets off.
  static std::size_t MergeWindow(QuantileSummaryCore& core, std::span<const float> window,
                                 ForkJoin* runner) {
    return core.MergeSortedWindow(window, runner);
  }
  static bool MergeBlock(QuantileSummaryCore& core, stream::MergedRun& block,
                         ForkJoin* runner) {
    return core.MergeSortedBlock(block.values, std::countr_zero(block.windows),
                                 block.merge_seconds, runner);
  }
};

template <>
struct SummaryTraits<FrequencySummaryCore> {
  static constexpr const char* kPrefix = "freq";
  static constexpr const char* kName = "frequency";
  static constexpr const char* kMergeArg = "histogram_entries";
  static constexpr std::uint16_t kMode = durable::kSnapshotModeFrequency;
  static constexpr durable::RecordType kStateRecord = durable::RecordType::kFrequencyState;

  static std::uint64_t Window(const Options& o) {
    return NaturalFrequencyWindow(o.epsilon, o.window_size, o.sliding_window);
  }
  static FrequencySummaryCore MakeCore(const Options& o, std::uint64_t window) {
    return FrequencySummaryCore(o.epsilon, window, o.sliding_window);
  }
  static std::uint16_t Kind(const FrequencySummaryCore&) { return 0; }
  static int MaxBlockLevel(const FrequencySummaryCore&) { return 0; }
  static std::size_t MergeWindow(FrequencySummaryCore& core, std::span<const float> window,
                                 ForkJoin* /*runner*/) {
    return core.MergeSortedWindow(window);
  }
  static bool MergeBlock(FrequencySummaryCore&, stream::MergedRun&, ForkJoin*) { return false; }
};

/// Streaming estimator over one summary core. Not used directly: construct a
/// QuantileEstimator or FrequencyEstimator.
///
/// Lifecycle: Flush() finalizes the stream — it processes the remaining
/// partial window, is idempotent, and puts the estimator in a query-only
/// state. Observe()/ObserveBatch() after Flush() return a
/// kFailedPrecondition Status and change nothing (whole-history mode's error
/// guarantee assumes full windows in the interior of the stream, so elements
/// appended after a finalized partial window would silently void it).
///
/// Threaded mode (Options::num_sort_workers >= 2): window-batches are sorted
/// concurrently and drained into the summary in order on a dedicated thread.
/// Queries first wait for every in-flight batch. Observe()/Flush() and
/// queries must come from one thread (the same contract as serial mode).
///
/// Observability: when Options::obs wires a MetricsRegistry and/or a
/// TraceRecorder, the estimator records "<prefix>."-scoped counters, exports
/// cost gauges through ExportMetrics(), and emits per-stage spans (ingest /
/// sort + GPU passes / merge / drain). Both sinks default to null and the
/// disabled path costs one pointer compare per site. docs/OBSERVABILITY.md
/// documents the schema.
template <typename Core>
class SummaryEstimator {
 public:
  using Traits = SummaryTraits<Core>;

  ~SummaryEstimator();
  SummaryEstimator(const SummaryEstimator&) = delete;
  SummaryEstimator& operator=(const SummaryEstimator&) = delete;

  /// Processes one stream element. Fails (and ignores the element) once the
  /// estimator is finalized by Flush(), or — threaded — once the executor
  /// has failed (the drain's sticky Status, or kDeadlineExceeded when
  /// Options::fault.drain_deadline_seconds elapses on backpressure). A NaN
  /// has no rank: it is refused with kInvalidArgument and not observed.
  Status Observe(float value);

  /// Processes a batch of stream elements. A batch that holds a NaN is
  /// refused whole with kInvalidArgument naming the first, and none of it
  /// is observed. Otherwise stops at the first failing element and returns
  /// its Status (earlier elements stay observed).
  Status ObserveBatch(std::span<const float> values);

  /// Finalizes the stream: processes buffered windows, including a final
  /// partial one, and puts the estimator in a query-only state. Idempotent —
  /// repeated calls return the same Status. Returns the executor's failure
  /// Status when the drain died or the drain deadline elapsed; the
  /// estimator stays queryable over whatever was processed.
  Status Flush();

  /// True once Flush() has finalized the estimator.
  bool finalized() const { return finalized_; }

  /// Snapshots the estimator's full durable state — summary core (with its
  /// quarantine/shed accounting), staged partial window, and watermark —
  /// into Options::checkpoint_dir with the crash-consistent protocol of
  /// durable/checkpoint.h. Waits for in-flight batches first, so the
  /// snapshot is a consistent batch-boundary cut. kFailedPrecondition
  /// without a checkpoint_dir; executor failures propagate. Also runs
  /// automatically every Options::checkpoint_every_windows merged windows.
  /// See docs/DURABILITY.md.
  Status Checkpoint();

  /// Snapshots committed by this estimator (explicit + automatic).
  std::uint64_t checkpoints() const {
    return checkpoint_writer_ == nullptr ? 0 : checkpoint_writer_->commits();
  }

  /// Elements already folded into the summary.
  std::uint64_t processed_length() const;

  /// Elements observed, including still-buffered ones.
  std::uint64_t observed_length() const { return observed_; }

  /// Current summary entries/tuples (space usage).
  std::size_t summary_size() const;

  /// Accumulated per-operation costs (Fig. 5/6/7 source data).
  const PipelineCosts& costs() const;

  /// Serializes costs() and the stream/summary gauges into the wired
  /// MetricsRegistry (no-op without one). Counters are always live; this
  /// publishes the point-in-time values that have no incremental form.
  void ExportMetrics() const;

  /// Simulated end-to-end 2005-hardware seconds for everything processed.
  double SimulatedSeconds() const;

  /// Aggregated simulated-device counters (summed across sort workers;
  /// all-zero for the CPU backends).
  gpu::GpuStats device_stats() const;

  /// Aggregated fault-injection/recovery accounting across every sort
  /// worker (all-zero when Options::fault is disabled). See
  /// docs/ROBUSTNESS.md.
  FaultStats fault_stats() const;

  const Options& options() const { return options_; }
  bool sliding() const { return core_.sliding(); }
  bool pipelined() const { return executor_->threaded(); }

 protected:
  /// CHECK-aborts on invalid options (Options::Validate()).
  explicit SummaryEstimator(const Options& options);

  /// Submits the staged whole windows of a stream whose sorter packs one
  /// window per call, so every full window observed is processed; then,
  /// threaded, waits for in-flight batches, latches any executor failure,
  /// and refreshes the executor wait-stats in costs_.
  void Sync() const;

  /// Restore()'s body for the derived type: builds a fresh estimator through
  /// Derived::Create() (so restore rejects exactly the configs Create does)
  /// and installs the newest usable snapshot of Options::checkpoint_dir.
  template <typename Derived>
  static StatusOr<std::unique_ptr<Derived>> RestoreAs(const Options& options);

  Options options_;
  obs::Observability obs_;
  /// Query values live in the ingest universe: binary16 on the GPU f16 path.
  bool quantize_ = false;
  EstimatorMetricIds ids_;
  /// Summary state + report construction, shared with service::StreamService
  /// (core/summary_core.h) — the single implementation both paths answer
  /// from.
  Core core_;

 private:
  /// Hands the staged batch (`whole_windows`: its whole windows only) to
  /// the executor and latches any failure.
  Status SubmitBatch(bool whole_windows = false) const;

  /// Cadence bookkeeping after a successful batch submit: checkpoints when
  /// checkpoint_every_windows windows have been submitted since the last
  /// checkpoint, rounded up to whole packing units. Ok when no checkpoint
  /// is due.
  Status MaybeAutoCheckpoint();

  /// Schedules the next automatic checkpoint checkpoint_every_windows
  /// windows (rounded up to whole packing units) from here.
  void ScheduleCheckpoint();

  /// Sets the length of the batch under way: it ends at the next multiple
  /// of batch_windows_ windows released, so pre-merged blocks stay aligned
  /// on the stream's window count, or earlier where the checkpoint cadence
  /// falls due (one packing unit later when the last attempt failed).
  void StartBatch() const;

  /// Installs a validated snapshot into this freshly constructed estimator
  /// (RestoreAs()'s second half).
  Status InstallSnapshot(const durable::Snapshot& snapshot);

  /// The executor's prepare stage, on the sort worker: merges each aligned
  /// block of 2^k whole, unquarantined windows (k <= block_level_, aligned
  /// on the stream's window count) into one run, the merges the core's
  /// cascade would make (sketch::EhQuantileSummary::MergeBlock).
  void PrepareBatch(int worker_index, stream::WindowBatch& batch);

  /// The executor's drain: merges each sorted window of one batch into the
  /// core, in submission order, taking a pre-merged block in place of its
  /// windows where the core accepts it; quarantined windows are accounted
  /// instead.
  Status DrainBatch(stream::WindowBatch& batch);

  /// Merges one sorted window into the core (metrics + window_merge span).
  void MergeSortedWindow(std::span<float> window);

  /// Merges one pre-merged block into the core when it accepts it (metrics
  /// + window_merge span); false leaves the core untouched.
  bool MergeBlock(stream::MergedRun& block);

  /// Closes the open ingest_batch span (tracing only).
  void EndIngestSpan(std::size_t elements);

  /// One sorter stack per executor worker (core/backend.h).
  std::vector<std::unique_ptr<SortStack>> stacks_;
  /// Windows per SortRuns call: the engine's packing unit
  /// (SortEngine::batch_windows()).
  const int pack_windows_;
  /// Windows per full batch: the packing unit, or up to 32 when that is one
  /// window.
  const int batch_windows_;
  /// Mutable because Sync() hands staged whole windows over.
  mutable stream::WindowBatcher batcher_;
  /// Whole windows handed to the executor: the stream position batches and
  /// pre-merged blocks align on (a restore resumes it from the core).
  mutable std::uint64_t windows_released_ = 0;
  /// Deepest block a sort worker pre-merges (0: none, no prepare stage).
  int block_level_ = 0;
  /// One MergeBlock scratch buffer per sort worker.
  std::vector<std::vector<float>> merge_scratch_;
  hwmodel::CpuModel cpu_model_;
  mutable PipelineCosts costs_;
  std::uint64_t observed_ = 0;
  bool finalized_ = false;
  mutable Status executor_status_;  ///< first executor failure (sticky)

  /// Durable checkpointing (null when Options::checkpoint_dir is empty).
  std::unique_ptr<durable::CheckpointWriter> checkpoint_writer_;
  /// windows_released_ at which the next automatic checkpoint is due.
  std::uint64_t next_checkpoint_window_ = 0;

  std::uint64_t window_seq_ = 0;  ///< windows merged; trace sampling
  std::uint64_t ingest_seq_ = 0;  ///< batches ingested; trace sampling
  double ingest_start_us_ = -1;   ///< open ingest span start

  /// Declared last so its threads stop before the members they reference
  /// are destroyed.
  std::unique_ptr<stream::WindowExecutor> executor_;
};

template <typename Core>
template <typename Derived>
StatusOr<std::unique_ptr<Derived>> SummaryEstimator<Core>::RestoreAs(
    const Options& options) {
  if (options.checkpoint_dir.empty()) {
    return Status::InvalidArgument("Restore() requires Options::checkpoint_dir");
  }
  StatusOr<std::unique_ptr<Derived>> estimator = Derived::Create(options);
  if (!estimator.ok()) return estimator.status();
  StatusOr<durable::Snapshot> snapshot =
      durable::LoadLatestSnapshot(options.checkpoint_dir);
  if (!snapshot.ok()) return snapshot.status();
  const Status status = estimator.value()->InstallSnapshot(snapshot.value());
  if (!status.ok()) return status;
  durable::RecordRestore(options.obs, snapshot.value());
  return estimator;
}

extern template class SummaryEstimator<QuantileSummaryCore>;
extern template class SummaryEstimator<FrequencySummaryCore>;

}  // namespace streamgpu::core

#endif  // STREAMGPU_CORE_SUMMARY_ESTIMATOR_H_
