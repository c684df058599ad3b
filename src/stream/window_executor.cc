#include "stream/window_executor.h"

#include <chrono>
#include <string>
#include <utility>

#include "common/check.h"
#include "common/timer.h"

namespace streamgpu::stream {

namespace {

// Window-group width per SortRuns call: the Sorter contract reports
// quarantine as a 64-bit mask over the runs of one call.
constexpr std::size_t kMaxRunsPerGroup = 64;

// Monotonic seconds for queue-wait arithmetic.
double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

WindowExecutor::WindowExecutor(const Config& config,
                               std::vector<sort::Sorter*> sorters, DrainFn drain,
                               PrepareFn prepare)
    : sorters_(std::move(sorters)),
      drain_(std::move(drain)),
      prepare_(std::move(prepare)),
      trace_(config.trace),
      label_(config.trace_label),
      flight_(config.flight),
      drain_deadline_seconds_(config.drain_deadline_seconds),
      queue_stall_hook_(config.queue_stall_hook) {
  STREAMGPU_CHECK_MSG(!sorters_.empty(), "executor needs at least one sorter");
  for (sort::Sorter* sorter : sorters_) STREAMGPU_CHECK(sorter != nullptr);
  STREAMGPU_CHECK_MSG(static_cast<bool>(drain_), "executor needs a drain callback");
  window_scratch_.resize(sorters_.size());
  if (sorters_.size() == 1) {
    // Inline mode: every Submit() drains before returning, so the recycle
    // list holds at most the one batch the caller takes back next.
    free_batches_.reserve(1);
    return;
  }
  max_in_flight_ = config.max_batches_in_flight > 0
                       ? config.max_batches_in_flight
                       : static_cast<int>(sorters_.size()) + 2;
  pending_ring_.resize(static_cast<std::size_t>(max_in_flight_));
  sorted_ring_.resize(static_cast<std::size_t>(max_in_flight_));
  free_batches_.reserve(static_cast<std::size_t>(max_in_flight_) + 1);

  workers_.reserve(sorters_.size());
  for (std::size_t i = 0; i < sorters_.size(); ++i) {
    workers_.emplace_back(&WindowExecutor::WorkerLoop, this, static_cast<int>(i));
  }
  drain_thread_ = std::thread(&WindowExecutor::DrainLoop, this);
}

WindowExecutor::~WindowExecutor() {
  if (!threaded()) return;
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  // Workers finish the pending queue, the drain thread finishes the reorder
  // buffer: destruction flushes rather than drops in-flight batches.
  work_ready_.notify_all();
  sorted_ready_.notify_all();
  for (std::thread& worker : workers_) worker.join();
  sorted_ready_.notify_all();  // workers are gone; wake the drain for its exit check
  drain_thread_.join();
}

template <typename Pred>
bool WindowExecutor::WaitWithDeadline(std::unique_lock<std::mutex>& lock,
                                      std::condition_variable& cv, Pred ready) {
  if (drain_deadline_seconds_ <= 0) {
    cv.wait(lock, ready);
    return true;
  }
  return cv.wait_for(lock, std::chrono::duration<double>(drain_deadline_seconds_),
                     ready);
}

core::Status WindowExecutor::Submit(WindowBatch&& batch) {
  if (batch.elements == 0) return core::Status::Ok();
  if (!threaded()) {
    if (!failed_.ok()) return failed_;
    SortBatch(0, batch);
    const bool drained = Drain(next_submit_seq_++, batch);
    std::lock_guard<std::mutex> lock(mu_);
    RecycleLocked(std::move(batch));
    return drained ? core::Status::Ok() : failed_;
  }

  std::unique_lock<std::mutex> lock(mu_);
  STREAMGPU_CHECK_MSG(!stop_, "Submit() after destruction began");
  const double wait_start = Now();
  const double trace_start = trace_ != nullptr ? trace_->NowMicros() : 0;
  // A dead drain never frees a slot: wake on failure too, so the in-flight
  // cap surfaces the drain's Status instead of blocking forever.
  if (!WaitWithDeadline(lock, slot_free_, [&] {
        return !failed_.ok() || in_flight_ < max_in_flight_;
      })) {
    return core::Status::DeadlineExceeded(
        "pipeline made no progress within the drain deadline");
  }
  if (!failed_.ok()) return failed_;
  stats_.ingest_stall_seconds += Now() - wait_start;
  if (trace_ != nullptr) {
    // Backpressure made visible: only worth a span when Submit() actually
    // blocked (sub-microsecond waits are lock handoff noise).
    const double stall_us = trace_->NowMicros() - trace_start;
    if (stall_us > 1.0) {
      trace_->AddSpan("ingest_stall", "ingest", trace_start, stall_us,
                      {{"seq", static_cast<double>(next_submit_seq_)}});
    }
  }
  ++in_flight_;
  PendingBatch& slot =
      pending_ring_[(pending_head_ + pending_count_) % pending_ring_.size()];
  ++pending_count_;
  slot.seq = next_submit_seq_++;
  slot.batch = std::move(batch);
  slot.enqueued_at = Now();
  if (flight_ != nullptr) {
    // The recorder takes its own leaf mutex; holding mu_ across it is safe
    // (the recorder never calls back into the executor).
    flight_->Record(obs::FlightEventKind::kBatchSubmitted, label_, "submit",
                    slot.seq, in_flight_);
  }
  work_ready_.notify_one();
  return core::Status::Ok();
}

core::Status WindowExecutor::SubmitStaged(WindowBatcher& batcher, const Staging& staging) {
  WindowBatch batch = AcquireBatch();
  if (batch.chunks.empty()) batch.chunks.emplace_back();
  batch.windows_per_sort = staging.windows_per_sort;
  WindowChunk& chunk = batch.chunks.front();
  chunk.window_size = batcher.window_size();
  chunk.first_window = staging.first_window;
  chunk.final_partial = !staging.whole_windows && !batcher.full();
  chunk.data = staging.whole_windows ? batcher.TakeWholeWindows(std::move(chunk.data))
                                     : batcher.TakeBuffer(std::move(chunk.data));
  batch.elements = chunk.data.size();
  return Submit(std::move(batch));
}

WindowBatch WindowExecutor::AcquireBatch() {
  std::lock_guard<std::mutex> lock(mu_);
  if (free_batches_.empty()) return {};
  WindowBatch out = std::move(free_batches_.back());
  free_batches_.pop_back();
  return out;
}

void WindowExecutor::ReleaseRecycled() {
  std::lock_guard<std::mutex> lock(mu_);
  free_batches_.clear();
}

core::Status WindowExecutor::WaitIdle() {
  std::unique_lock<std::mutex> lock(mu_);
  if (!threaded()) return failed_;
  if (!WaitWithDeadline(lock, idle_, [&] {
        return !failed_.ok() || next_drain_seq_ == next_submit_seq_;
      })) {
    return core::Status::DeadlineExceeded(
        "pipeline made no progress within the drain deadline");
  }
  return failed_;
}

PipelineWaitStats WindowExecutor::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

void WindowExecutor::SortBatch(int worker_index, WindowBatch& batch) {
  sort::Sorter& sorter = *sorters_[static_cast<std::size_t>(worker_index)];
  std::vector<std::span<float>>& windows =
      window_scratch_[static_cast<std::size_t>(worker_index)];
  windows.clear();
  for (WindowChunk& chunk : batch.chunks) {
    if (chunk.data.empty()) continue;  // recycled chunk not used this round
    STREAMGPU_CHECK(chunk.window_size >= 1);
    STREAMGPU_CHECK_MSG(chunk.final_partial || chunk.data.size() % chunk.window_size == 0,
                        "a non-final chunk must hold whole windows");
    chunk.ForEachWindow([&windows](std::span<float> window) { windows.push_back(window); });
  }
  batch.sorts.clear();
  batch.quarantined.assign(windows.size(), 0);
  const std::size_t group = std::clamp<std::size_t>(batch.windows_per_sort, 1, kMaxRunsPerGroup);
  for (std::size_t off = 0; off < windows.size(); off += group) {
    const std::size_t count = std::min(group, windows.size() - off);
    sorter.SortRuns(std::span<std::span<float>>(windows.data() + off, count));
    batch.sorts.push_back(sorter.last_run());
    const std::uint64_t mask = sorter.last_quarantine_mask();
    for (std::size_t i = 0; mask != 0 && i < count; ++i) {
      batch.quarantined[off + i] = static_cast<std::uint8_t>((mask >> i) & 1);
    }
  }
  batch.merged.clear();
  if (prepare_) prepare_(worker_index, batch);
}

bool WindowExecutor::Drain(std::uint64_t seq, WindowBatch& batch) {
  const bool traced = trace_ != nullptr && trace_->Sampled(seq);
  const double trace_start = traced ? trace_->NowMicros() : 0;
  core::Status status = drain_(batch);
  if (!status.ok()) {
    // The summary stage is broken; draining further batches into it would
    // compound the damage. Latch the Status — Submit()/WaitIdle() report it
    // from here on.
    if (flight_ != nullptr) {
      flight_->Record(obs::FlightEventKind::kDrainFailed, label_, "drain", seq,
                      static_cast<std::int64_t>(batch.elements));
      flight_->Dump("drain_failed");
    }
    std::lock_guard<std::mutex> lock(mu_);
    failed_ = std::move(status);
    slot_free_.notify_all();
    idle_.notify_all();
    return false;
  }
  if (traced) {
    trace_->AddSpan("drain_batch", "drain", trace_start,
                    trace_->NowMicros() - trace_start,
                    {{"seq", static_cast<double>(seq)},
                     {"elements", static_cast<double>(batch.elements)}});
  }
  return true;
}

void WindowExecutor::RecycleLocked(WindowBatch&& batch) {
  if (free_batches_.size() == free_batches_.capacity()) return;
  for (WindowChunk& chunk : batch.chunks) {
    chunk.data.clear();
    chunk.final_partial = false;
  }
  batch.elements = 0;
  batch.windows_per_sort = kMaxRunsPerGroup;
  batch.sorts.clear();
  batch.quarantined.clear();
  batch.merged.clear();
  free_batches_.push_back(std::move(batch));
}

void WindowExecutor::Run(std::size_t tasks, const std::function<void(std::size_t)>& task) {
  if (!threaded() || tasks < 2) {
    for (std::size_t i = 0; i < tasks; ++i) task(i);
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    STREAMGPU_CHECK_MSG(task_ == nullptr, "one fork-join at a time, from the drain");
    task_ = &task;
    next_task_ = 1;
    end_task_ = tasks;
  }
  work_ready_.notify_all();
  task(0);
  std::unique_lock<std::mutex> lock(mu_);
  while (RunDrainTask(lock, /*on_worker=*/false)) {
  }
  tasks_done_.wait(lock, [&] { return worker_tasks_running_ == 0; });
  task_ = nullptr;
}

bool WindowExecutor::RunDrainTask(std::unique_lock<std::mutex>& lock, bool on_worker) {
  if (next_task_ == end_task_) return false;
  const std::size_t index = next_task_++;
  const std::function<void(std::size_t)>& task = *task_;
  if (on_worker) ++worker_tasks_running_;
  lock.unlock();
  task(index);
  lock.lock();
  if (on_worker) {
    ++stats_.worker_tasks;
    if (--worker_tasks_running_ == 0) tasks_done_.notify_one();
  }
  return true;
}

void WindowExecutor::WorkerLoop(int worker_index) {
  if (trace_ != nullptr) {
    trace_->NameCurrentThread(std::string(label_) + ".sort-" +
                              std::to_string(worker_index));
  }
  PendingBatch pending;
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_ready_.wait(lock, [&] {
        return stop_ || pending_count_ != 0 || next_task_ != end_task_;
      });
      // The drain waits on its tasks, and every batch waits on the drain.
      if (RunDrainTask(lock, /*on_worker=*/true)) continue;
      if (pending_count_ == 0) return;  // stop_ set and queue drained
      pending = std::move(pending_ring_[pending_head_]);
      pending_head_ = (pending_head_ + 1) % pending_ring_.size();
      --pending_count_;
      stats_.sort_queue_wait_seconds += Now() - pending.enqueued_at;
    }

    // The queue fault site: a stalled dequeue models a descheduled/wedged
    // worker without touching the device (docs/ROBUSTNESS.md).
    if (queue_stall_hook_) {
      const unsigned stall_us = queue_stall_hook_(worker_index);
      if (stall_us > 0) {
        if (flight_ != nullptr) {
          flight_->Record(obs::FlightEventKind::kQueueStall, label_, "queue",
                          pending.seq, stall_us, worker_index);
        }
        std::this_thread::sleep_for(std::chrono::microseconds(stall_us));
      }
    }

    // Sort (and prepare) outside the lock: this is the stage that fans out
    // across workers.
    Timer sort_timer;
    SortBatch(worker_index, pending.batch);
    const double sort_wall = sort_timer.ElapsedSeconds();

    {
      std::lock_guard<std::mutex> lock(mu_);
      stats_.sort_wall_seconds += sort_wall;
      SortedBatch& slot = sorted_ring_[pending.seq % sorted_ring_.size()];
      STREAMGPU_DCHECK(!slot.occupied);
      slot.batch = std::move(pending.batch);
      slot.ready_at = Now();
      slot.occupied = true;
    }
    sorted_ready_.notify_one();
  }
}

void WindowExecutor::DrainLoop() {
  if (trace_ != nullptr) trace_->NameCurrentThread(std::string(label_) + ".drain");
  SortedBatch sorted;
  for (;;) {
    std::uint64_t seq;
    {
      std::unique_lock<std::mutex> lock(mu_);
      sorted_ready_.wait(lock, [&] {
        // Exit only once every submitted batch has been drained; workers
        // keep feeding the reorder buffer after stop_ is set.
        return sorted_ring_[next_drain_seq_ % sorted_ring_.size()].occupied ||
               (stop_ && next_drain_seq_ == next_submit_seq_);
      });
      SortedBatch& slot = sorted_ring_[next_drain_seq_ % sorted_ring_.size()];
      if (!slot.occupied) return;
      seq = next_drain_seq_;
      sorted = std::move(slot);
      slot.occupied = false;
      stats_.drain_queue_wait_seconds += Now() - sorted.ready_at;
    }

    // Merge outside the lock, overlapping the workers' sorting of later
    // batches. Strict submission order keeps every stream's window sequence
    // — and thus every answer and every accumulated cost — identical to
    // serial execution.
    Timer drain_timer;
    if (!Drain(seq, sorted.batch)) return;
    const double drain_wall = drain_timer.ElapsedSeconds();
    if (flight_ != nullptr) {
      // Drain is strictly ordered, so seq + 1 == batches drained so far.
      flight_->Record(obs::FlightEventKind::kBatchDrained, label_, "drain", seq,
                      static_cast<std::int64_t>(seq + 1));
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      stats_.drain_wall_seconds += drain_wall;
      ++stats_.batches;
      ++next_drain_seq_;
      --in_flight_;
      RecycleLocked(std::move(sorted.batch));
    }
    slot_free_.notify_one();
    idle_.notify_all();
  }
}

}  // namespace streamgpu::stream
