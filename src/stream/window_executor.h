// WindowExecutor: the one path from staged windows to summaries.
//
// Every query class runs the same loop (§4, §5.1): sort a batch of windows —
// four per RGBA texture on the GPU path — then merge each sorted window into
// its summary while later batches sort. The executor is that loop for the
// dedicated estimators and the multi-tenant service alike:
//
//   caller thread          N sort workers                  1 drain thread
//   Submit(batch) ──queue──> SortRuns(<= 64 windows) ──reorder──> drain(batch)
//                            [+ prepare(batch)]
//                            [+ drain's tasks] <──── Run(n tasks) ──┘
//
// * A batch is a list of chunks, each holding whole windows of one stream. A
//   dedicated estimator submits one-chunk batches; the service coalesces many
//   streams' chunks into one shard batch, so one queue operation and one
//   worker dispatch amortize across many small per-stream writes.
// * Workers sort a batch's windows in SortRuns groups of at most 64 (the
//   quarantine-mask width; a batch may ask for fewer) and hand the drain one
//   quarantine flag per window. Grouping is answer-neutral: every backend
//   sorts a window to the same permutation however windows are grouped
//   (core/options.h).
// * An optional prepare stage runs on the worker after the sort, so work
//   that only reads the sorted batch leaves the drain: a dedicated quantile
//   stream pre-merges aligned blocks of windows into MergedRuns there.
// * The drain callback can borrow the workers that are waiting for a batch
//   (Run, a ForkJoin): a dedicated quantile stream runs the slices of its
//   larger GK combines there (sketch::GkSummary::MergePruned). No thread is
//   added, and a task no idle worker claims runs on the drain.
// * Submit() blocks once `max_batches_in_flight` batches are in flight
//   (backpressure, accounted as ingest stall time).
// * Each worker owns its own Sorter — for the GPU backends one simulated
//   GpuDevice per worker, so GpuStats counting never races.
// * A single drain thread consumes sorted batches strictly in submission
//   order, so summaries see exactly the window sequence serial execution
//   produces: identical merges, identical epsilon guarantees, identical cost
//   accumulation order (bit-identical simulated seconds).
// * Given one sorter, the executor spawns no threads: Submit() sorts and
//   drains on the caller's thread, through the same grouping and drain code.
//
// Steady-state operation is allocation-free: the submit queue and the
// reorder buffer are fixed rings sized by the in-flight cap, per-worker
// window-span scratch is reused across batches, and drained batches are
// recycled to the caller through AcquireBatch() with their capacities intact
// (tests/alloc_test.cc holds this with a counting operator new).
//
// Wall-clock queue-wait per stage is recorded in threaded mode so benchmarks
// can report how much overlap the workers achieved (PipelineWaitStats).

#ifndef STREAMGPU_STREAM_WINDOW_EXECUTOR_H_
#define STREAMGPU_STREAM_WINDOW_EXECUTOR_H_

#include <algorithm>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <span>
#include <thread>
#include <vector>

#include "common/fork_join.h"
#include "core/status.h"
#include "obs/flight_recorder.h"
#include "obs/trace.h"
#include "sort/sorter.h"
#include "stream/window_buffer.h"

namespace streamgpu::stream {

/// One stream's contribution to a batch: whole windows of that stream,
/// concatenated. Only a final chunk (the end of the stream) may end in a
/// partial window.
struct WindowChunk {
  std::uint32_t stream = 0;       ///< caller's stream index (0 when dedicated)
  std::uint64_t window_size = 0;  ///< the stream's window width
  std::uint64_t first_window = 0; ///< index of its first window in the stream
  std::vector<float> data;        ///< window-aligned elements
  bool final_partial = false;     ///< last window may be partial

  /// Calls fn(window) for each window span, in order.
  template <typename Fn>
  void ForEachWindow(Fn&& fn) {
    for (std::size_t off = 0; off < data.size(); off += window_size) {
      fn(std::span<float>(data.data() + off,
                          std::min<std::size_t>(window_size, data.size() - off)));
    }
  }
};

/// Consecutive sorted windows of one batch merged into one ascending run by
/// a prepare stage on the sort worker, for the drain to take in their place
/// when it can.
struct MergedRun {
  std::size_t first_window = 0;  ///< batch-wide index of its first window
  std::size_t windows = 0;       ///< windows merged
  std::vector<float> values;
  double merge_seconds = 0;  ///< worker wall time spent merging
};

/// The executor's unit of work.
struct WindowBatch {
  std::vector<WindowChunk> chunks;  ///< recycled chunks may be empty (skipped)
  std::size_t elements = 0;         ///< sum of chunk sizes (set by the caller)
  /// Windows per SortRuns call, at most 64. A dedicated stream sorts one
  /// packing unit per call (one window, or one RGBA texture of four), so its
  /// sort calls do not depend on how many windows a batch carries.
  std::size_t windows_per_sort = 64;
  std::vector<sort::SortRunInfo> sorts;  ///< one record per SortRuns call
  /// One flag per window, in chunk order; non-zero marks a window the sorter
  /// could not recover — it holds its *unsorted* input and must be skipped
  /// and accounted as lost coverage. Set by the executor.
  std::vector<std::uint8_t> quarantined;
  /// Set by the prepare stage, in window order (empty without one).
  std::vector<MergedRun> merged;

  /// Calls fn(chunk, window, quarantined) for every window, in order.
  template <typename Fn>
  void ForEachWindow(Fn&& fn) {
    std::size_t index = 0;
    for (WindowChunk& chunk : chunks) {
      chunk.ForEachWindow([&](std::span<float> window) {
        fn(chunk, window, quarantined[index++] != 0);
      });
    }
  }
};

/// How WindowExecutor::SubmitStaged() hands a dedicated stream's staged
/// windows over.
struct Staging {
  std::size_t windows_per_sort = 64;  ///< WindowBatch::windows_per_sort
  std::uint64_t first_window = 0;     ///< WindowChunk::first_window
  /// Only the whole windows go, ending the batch early rather than the
  /// stream: a partial window stays staged.
  bool whole_windows = false;
};

/// Wall-clock overlap accounting of the threaded mode, accumulated over the
/// executor's lifetime (all zero in inline mode). None of it feeds the
/// simulated-2005 model (see docs/COST_MODEL.md).
struct PipelineWaitStats {
  /// Time Submit() spent blocked on the in-flight cap (ingest backpressure:
  /// the stream arrived faster than the workers could sort + drain).
  double ingest_stall_seconds = 0;

  /// Time batches sat in the submit queue before a worker picked them up.
  double sort_queue_wait_seconds = 0;

  /// Time sorted batches sat in the reorder buffer before the drain thread
  /// consumed them (drain busy, or an earlier batch still sorting).
  double drain_queue_wait_seconds = 0;

  /// Total wall-clock the workers spent sorting and preparing (summed
  /// across workers; exceeds elapsed time when sorts overlap).
  double sort_wall_seconds = 0;

  /// Total wall-clock spent inside the drain callback.
  double drain_wall_seconds = 0;

  /// Batches drained.
  std::uint64_t batches = 0;

  /// Tasks of the drain's fork-joins (WindowExecutor::Run) that sort
  /// workers ran, such as the slices of a GK combine.
  std::uint64_t worker_tasks = 0;
};

/// Sorts window batches and drains them in submission order, on a worker
/// pool (two or more sorters) or inline (one sorter).
///
/// Thread contract: Submit()/SubmitStaged()/AcquireBatch()/WaitIdle() must
/// be called from one thread (the caller's ingest thread). The drain
/// callback runs on the drain thread (threaded) or inside Submit()
/// (inline); WaitIdle() establishes a happens-before with every drain
/// completed so far, after which the caller may safely read drain-side
/// state. The destructor finishes all submitted work before joining.
class WindowExecutor : public ForkJoin {
 public:
  /// Consumes one sorted batch, strictly in submission order. The batch is
  /// on loan: read it, but do not keep references past the call — the
  /// executor reclaims its storage afterwards and reissues it through
  /// AcquireBatch(). A non-OK return poisons the executor: it drains no
  /// further batch, and every later Submit()/WaitIdle() returns that Status.
  using DrainFn = std::function<core::Status(WindowBatch& batch)>;

  /// Runs on the sort worker (inline: on the caller's thread) right after
  /// the batch is sorted, before the drain sees it. Batches prepare
  /// concurrently, so it may touch only the batch and state of its own
  /// worker.
  using PrepareFn = std::function<void(int worker_index, WindowBatch& batch)>;

  struct Config {
    /// Maximum batches admitted before Submit() blocks (threaded mode).
    /// 0 = number of workers + 2: enough that every worker stays busy while
    /// one batch drains and one is being filled.
    int max_batches_in_flight = 0;

    /// Span sink (borrowed; null = tracing off, the default). Threaded mode
    /// names its threads "<trace_label>.sort-N" / "<trace_label>.drain" and
    /// emits an ingest_stall span whenever Submit() blocks on backpressure;
    /// both modes emit one drain_batch span per drained batch. Sort spans
    /// come from the sorters themselves (core::TracingSorter).
    obs::TraceRecorder* trace = nullptr;

    /// Names the executor in traces and flight events ("freq" / "quant" for
    /// the estimators, "service" for StreamService). Must point at a static
    /// string: the flight recorder keeps the pointer.
    const char* trace_label = "pipeline";

    /// Flight-event sink (borrowed; null = off). Threaded mode records batch
    /// submit/drain progress and queue stalls; both modes record a
    /// drain_failed event and dump the ring when the drain latches its
    /// sticky failure (docs/OBSERVABILITY.md).
    obs::FlightRecorder* flight = nullptr;

    /// Maximum seconds Submit()/WaitIdle() block on the in-flight cap before
    /// returning kDeadlineExceeded instead of waiting forever (0 = no
    /// deadline). A wedged worker then surfaces as a Status, not a hang
    /// (docs/ROBUSTNESS.md).
    double drain_deadline_seconds = 0;

    /// Fault-injection hook polled by each worker before it sorts a dequeued
    /// batch; returns a stall in microseconds to sleep (0 = none). Null (the
    /// default) disables the queue fault site. Inline mode has no queue.
    std::function<unsigned(int worker_index)> queue_stall_hook;
  };

  /// `sorters` are borrowed, must outlive the executor, and must each be
  /// exclusive to it. Two or more spawn one worker thread per sorter plus
  /// the drain thread; exactly one runs inline with no threads. `prepare`
  /// may be empty.
  WindowExecutor(const Config& config, std::vector<sort::Sorter*> sorters,
                 DrainFn drain, PrepareFn prepare = {});
  ~WindowExecutor();

  WindowExecutor(const WindowExecutor&) = delete;
  WindowExecutor& operator=(const WindowExecutor&) = delete;

  /// Hands one batch to the executor (inline: sorts and drains it before
  /// returning). Blocks while the in-flight cap is reached. Batches with no
  /// elements are ignored. Returns non-OK — without enqueuing — once the
  /// drain has failed (its Status, sticky) or when the backpressure wait
  /// exceeds the drain deadline (kDeadlineExceeded).
  core::Status Submit(WindowBatch&& batch);

  /// Submits the windows staged in `batcher` as a one-chunk batch — how a
  /// dedicated stream feeds the executor. The batcher takes a recycled
  /// chunk's storage as its next buffer, so the steady state moves buffers
  /// instead of copying or allocating them. Unless `staging.whole_windows`,
  /// a batcher holding less than a full batch is the stream's end: its last
  /// window may be partial.
  core::Status SubmitStaged(WindowBatcher& batcher, const Staging& staging = {});

  /// Returns a drained batch's storage for reuse (chunk data cleared,
  /// capacities retained), or an empty batch when none has been recycled
  /// yet.
  WindowBatch AcquireBatch();

  /// Frees the recycled batches' storage, for a caller that submits no
  /// more (a finalized estimator). Call after WaitIdle().
  void ReleaseRecycled();

  /// Blocks until every submitted batch has been sorted and drained.
  /// Returns the drain failure Status (sticky) if the drain has failed, or
  /// kDeadlineExceeded when the drain deadline elapses first.
  core::Status WaitIdle();

  /// Snapshot of the wait/overlap accounting. Call after WaitIdle() for a
  /// consistent picture.
  PipelineWaitStats stats() const;

  /// True when worker threads sort and a drain thread merges.
  bool threaded() const { return !workers_.empty(); }

  /// The threads Run() can spread tasks over: the sort workers and the drain
  /// in threaded mode, the caller alone inline.
  std::size_t width() const override { return threaded() ? sorters_.size() + 1 : 1; }

  /// The drain callback's fork-join: runs task(0) on the drain, and every
  /// other task on a sort worker waiting for a batch or on the drain,
  /// whichever claims it first. The drain then waits only for the tasks
  /// workers claimed, so with every worker busy it runs them all itself, in
  /// order, as inline mode always does. Call it only from the drain
  /// callback; the tasks must not call back into the executor.
  void Run(std::size_t tasks, const std::function<void(std::size_t)>& task) override;

 private:
  struct PendingBatch {
    std::uint64_t seq = 0;
    WindowBatch batch;
    double enqueued_at = 0;
  };
  struct SortedBatch {
    WindowBatch batch;
    double ready_at = 0;
    bool occupied = false;  // ring-slot validity (reorder buffer)
  };

  /// Sorts every window of `batch` with worker `worker_index`'s sorter,
  /// records each call and the per-window quarantine flags, then runs the
  /// prepare stage.
  void SortBatch(int worker_index, WindowBatch& batch);

  /// Runs the drain callback (plus its span); on failure latches the Status
  /// and returns false.
  bool Drain(std::uint64_t seq, WindowBatch& batch);

  /// Clears `batch` and keeps it for AcquireBatch() (mu_ held).
  void RecycleLocked(WindowBatch&& batch);

  /// Waits on `cv` for `ready`, bounded by the drain deadline; false when
  /// the deadline elapsed first.
  template <typename Pred>
  bool WaitWithDeadline(std::unique_lock<std::mutex>& lock,
                        std::condition_variable& cv, Pred ready);

  /// Claims the drain's next unclaimed task and runs it with mu_ released;
  /// false when there is none (mu_ held on entry and on return).
  bool RunDrainTask(std::unique_lock<std::mutex>& lock, bool on_worker);

  void WorkerLoop(int worker_index);
  void DrainLoop();

  const std::vector<sort::Sorter*> sorters_;
  const DrainFn drain_;
  const PrepareFn prepare_;
  obs::TraceRecorder* const trace_;
  const char* const label_;
  obs::FlightRecorder* const flight_;
  const double drain_deadline_seconds_;
  const std::function<unsigned(int)> queue_stall_hook_;
  int max_in_flight_ = 0;

  mutable std::mutex mu_;
  std::condition_variable slot_free_;     // in_flight_ dropped below the cap
  std::condition_variable work_ready_;    // pending ring non-empty (or stopping)
  std::condition_variable sorted_ready_;  // reorder buffer advanced (or stopping)
  std::condition_variable idle_;          // a batch finished draining
  std::condition_variable tasks_done_;    // workers finished the drain's tasks

  bool stop_ = false;
  // First drain failure (sticky). While non-OK nothing drains any more:
  // Submit()/WaitIdle() return it instead of waiting on progress that will
  // never come.
  core::Status failed_;
  int in_flight_ = 0;
  std::uint64_t next_submit_seq_ = 0;
  std::uint64_t next_drain_seq_ = 0;

  // The drain's fork-join (Run): its task, the next index no thread has
  // claimed, the end, and the tasks workers are running.
  const std::function<void(std::size_t)>* task_ = nullptr;
  std::size_t next_task_ = 0;
  std::size_t end_task_ = 0;
  std::size_t worker_tasks_running_ = 0;

  // Submit queue: fixed ring of max_in_flight_ slots (the in-flight cap
  // bounds its population), consumed FIFO by the workers.
  std::vector<PendingBatch> pending_ring_;
  std::size_t pending_head_ = 0;
  std::size_t pending_count_ = 0;

  // Reorder buffer: slot seq % max_in_flight_ holds batch seq. The in-flight
  // cap keeps outstanding sequence numbers within one ring revolution, so a
  // slot is always free when a worker stores into it.
  std::vector<SortedBatch> sorted_ring_;

  // Drained batches, recycled to the caller (bounded by the in-flight cap
  // plus the one batch the caller is filling).
  std::vector<WindowBatch> free_batches_;

  // Per-worker window-span scratch for SortRuns (reused across batches).
  std::vector<std::vector<std::span<float>>> window_scratch_;

  PipelineWaitStats stats_;

  std::vector<std::thread> workers_;
  std::thread drain_thread_;
};

}  // namespace streamgpu::stream

#endif  // STREAMGPU_STREAM_WINDOW_EXECUTOR_H_
