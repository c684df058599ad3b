#include "core/summary_estimator.h"

#include <algorithm>
#include <bit>
#include <string>
#include <utility>

#include "common/check.h"
#include "common/float_order.h"
#include "common/timer.h"
#include "gpu/half.h"
#include "hwmodel/hardware_profiles.h"
#include "sketch/exponential_histogram.h"

namespace streamgpu::core {

namespace {

// Validates user-provided options at the API boundary; constructor path, so
// violations abort (Create() returns them as Status instead).
const Options& ValidatedOptions(const Options& options) {
  const Status status = options.Validate();
  STREAMGPU_CHECK_MSG(status.ok(), status.ToString().c_str());
  return options;
}

// Windows per sort batch. A backend that packs several windows into one
// sort call (PBSN and auto: one RGBA texture) batches exactly that. One that
// sorts a window per call batches the largest power of two <= 32 windows
// holding <= 2^15 elements, so a worker can pre-merge aligned blocks; with
// an in-flight cap, at most cap / workers windows, so the cap still bounds
// staged windows and keeps every worker fed.
int BatchWindows(const Options& options, std::uint64_t window, int pack_windows,
                 std::size_t workers) {
  if (pack_windows != 1) return pack_windows;
  std::uint64_t batch = 32;
  while (batch > 1 && batch * window > (std::uint64_t{1} << 15)) batch /= 2;
  if (workers >= 2 && options.max_windows_in_flight > 0) {
    const std::uint64_t share =
        static_cast<std::uint64_t>(options.max_windows_in_flight) / workers;
    while (batch > 1 && batch > share) batch /= 2;
  }
  return static_cast<int>(batch);
}

std::uint64_t RoundUp(std::uint64_t n, int multiple) {
  const auto m = static_cast<std::uint64_t>(multiple);
  return (n + m - 1) / m * m;
}

}  // namespace

template <typename Core>
SummaryEstimator<Core>::SummaryEstimator(const Options& options)
    : options_(ValidatedOptions(options)),
      obs_(options.obs),
      core_(Traits::MakeCore(options, Traits::Window(options))),
      stacks_(MakeSortStacks(options, options.num_sort_workers, Traits::kPrefix)),
      pack_windows_(stacks_[0]->engine().batch_windows()),
      batch_windows_(
          BatchWindows(options, Traits::Window(options), pack_windows_, stacks_.size())),
      batcher_(Traits::Window(options), batch_windows_),
      cpu_model_(hwmodel::kPentium4_3400) {
  // The paper streams 16-bit floating point data (§5); the GPU path
  // quantizes on ingestion so summaries and queries agree bit-exactly.
  quantize_ = stacks_[0]->engine().is_gpu() && options.gpu_format == gpu::Format::kFloat16;
  ids_ = EstimatorMetricIds::Register(obs_.metrics, Traits::kPrefix, batcher_.window_size());
  if (obs_.trace != nullptr) obs_.trace->NameCurrentThread("ingest");
  if (obs_.trace != nullptr && obs_.metrics != nullptr) {
    // Span-cap overflow becomes visible as obs.trace.spans_dropped.
    obs_.trace->BindDropCounter(obs_.metrics);
  }
  if (!options.checkpoint_dir.empty()) {
    checkpoint_writer_ = std::make_unique<durable::CheckpointWriter>(options.checkpoint_dir);
    checkpoint_writer_->SetObservability(obs_);
  }
  ScheduleCheckpoint();
  // Blocks never span batches: at most log2(batch windows) levels.
  block_level_ = std::min(Traits::MaxBlockLevel(core_),
                          std::countr_zero(static_cast<unsigned>(batch_windows_)));
  if (block_level_ > 0) merge_scratch_.resize(stacks_.size());

  stream::WindowExecutor::Config config;
  config.trace = obs_.trace;
  config.trace_label = Traits::kPrefix;
  config.flight = obs_.flight;
  config.drain_deadline_seconds = options.fault.drain_deadline_seconds;
  if (options.max_windows_in_flight > 0) {
    // A window count, rounded up to whole batches.
    config.max_batches_in_flight = std::max(
        1, (options.max_windows_in_flight + batch_windows_ - 1) / batch_windows_);
  }
  if (options.fault.enabled()) {
    config.queue_stall_hook = [this](int worker_index) {
      return stacks_[static_cast<std::size_t>(worker_index)]->injector()->PollQueueStall();
    };
  }
  std::vector<sort::Sorter*> sorters;
  for (const auto& stack : stacks_) sorters.push_back(&stack->front());
  stream::WindowExecutor::PrepareFn prepare;
  if (block_level_ > 0) {
    prepare = [this](int worker_index, stream::WindowBatch& batch) {
      PrepareBatch(worker_index, batch);
    };
  }
  executor_ = std::make_unique<stream::WindowExecutor>(
      config, std::move(sorters),
      [this](stream::WindowBatch& batch) { return DrainBatch(batch); },
      std::move(prepare));
}

template <typename Core>
SummaryEstimator<Core>::~SummaryEstimator() = default;

template <typename Core>
Status SummaryEstimator<Core>::Observe(float value) {
  if (finalized_) {
    return Status::FailedPrecondition(
        "Observe() after Flush(): the estimator is finalized and query-only");
  }
  if (value != value) {
    return Status::InvalidArgument("Observe() value is NaN, which has no rank: not observed");
  }
  ++observed_;
  if (obs_.metrics != nullptr) obs_.metrics->Add(ids_.elements_observed);
  if (obs_.trace != nullptr && ingest_start_us_ < 0) {
    ingest_start_us_ = obs_.trace->NowMicros();
  }
  if (quantize_) value = gpu::QuantizeToHalf(value);
  if (batcher_.Push(value)) {
    EndIngestSpan(batcher_.buffered());
    const Status status = SubmitBatch();
    if (!status.ok()) return status;
    return MaybeAutoCheckpoint();
  }
  return Status::Ok();
}

template <typename Core>
Status SummaryEstimator<Core>::ObserveBatch(std::span<const float> values) {
  if (finalized_) {
    return Status::FailedPrecondition(
        "ObserveBatch() after Flush(): the estimator is finalized and query-only");
  }
  if (const std::size_t nan = FindNan(values); nan != values.size()) {
    return Status::InvalidArgument("ObserveBatch() element " + std::to_string(nan) + " of " +
                                   std::to_string(values.size()) +
                                   " is NaN, which has no rank: none of them observed");
  }
  // Bulk fast path: the lifecycle and backend checks above are hoisted out
  // of the loop, and whole spans are copied (or binary16-quantized) straight
  // into batch storage instead of pushing one element at a time. Batch
  // boundaries, counters, and trace spans land exactly as the per-element
  // path produces them.
  std::size_t consumed = 0;
  while (consumed < values.size()) {
    if (obs_.trace != nullptr && ingest_start_us_ < 0) {
      ingest_start_us_ = obs_.trace->NowMicros();
    }
    const std::span<float> slot = batcher_.Claim(values.size() - consumed);
    if (quantize_) {
      for (std::size_t i = 0; i < slot.size(); ++i) {
        slot[i] = gpu::QuantizeToHalf(values[consumed + i]);
      }
    } else {
      std::copy_n(values.begin() + static_cast<std::ptrdiff_t>(consumed),
                  slot.size(), slot.begin());
    }
    consumed += slot.size();
    observed_ += slot.size();
    if (obs_.metrics != nullptr) {
      obs_.metrics->Add(ids_.elements_observed, slot.size());
    }
    if (batcher_.full()) {
      EndIngestSpan(batcher_.buffered());
      const Status status = SubmitBatch();
      if (!status.ok()) return status;
      const Status checkpoint = MaybeAutoCheckpoint();
      if (!checkpoint.ok()) return checkpoint;
    }
  }
  return Status::Ok();
}

template <typename Core>
Status SummaryEstimator<Core>::SubmitBatch(bool whole_windows) const {
  const std::uint64_t windows = batcher_.buffered() / batcher_.window_size();
  if (whole_windows && windows == 0) return Status::Ok();
  stream::Staging staging;
  staging.windows_per_sort = static_cast<std::size_t>(pack_windows_);
  staging.first_window = windows_released_;
  staging.whole_windows = whole_windows;
  const Status status = executor_->SubmitStaged(batcher_, staging);
  windows_released_ += windows;
  StartBatch();
  // A wedged or dead executor surfaces as a Status to the caller instead of
  // blocking on a cap nobody will ever free (docs/ROBUSTNESS.md).
  if (!status.ok() && executor_status_.ok()) executor_status_ = status;
  return status;
}

template <typename Core>
void SummaryEstimator<Core>::EndIngestSpan(std::size_t elements) {
  if (obs_.trace == nullptr) return;
  const std::uint64_t seq = ingest_seq_++;
  if (ingest_start_us_ >= 0 && obs_.trace->Sampled(seq)) {
    // The span covers accumulating one batch in the WindowBatcher, from the
    // batch's first element to its hand-off.
    obs_.trace->AddSpan("ingest_batch", "ingest", ingest_start_us_,
                        obs_.trace->NowMicros() - ingest_start_us_,
                        {{"seq", static_cast<double>(seq)},
                         {"elements", static_cast<double>(elements)}});
  }
  ingest_start_us_ = -1;
}

template <typename Core>
Status SummaryEstimator<Core>::Flush() {
  if (finalized_) return executor_status_;
  finalized_ = true;
  if (!batcher_.empty()) {
    EndIngestSpan(batcher_.buffered());
    SubmitBatch();
  }
  Sync();
  if (executor_status_.ok()) {
    // Every batch has drained and no other will come: free the staging and
    // sort storage (the workers are idle, so their scratch too).
    executor_->ReleaseRecycled();
    batcher_.ReleaseStorage();
    for (std::vector<float>& scratch : merge_scratch_) scratch = std::vector<float>();
  }
  return executor_status_;
}

template <typename Core>
Status SummaryEstimator<Core>::DrainBatch(stream::WindowBatch& batch) {
  // Runs in submission order — on the drain thread, or inline on the
  // caller's — so the cost record (including the floating-point
  // simulated-seconds sums) accumulates in the same order either way: one
  // record per packing unit, whatever the batch size.
  for (const sort::SortRunInfo& run : batch.sorts) costs_.sort += run;
  Timer drain_timer;
  // The batch is one chunk (SubmitStaged), so a batch-wide window index is
  // also the chunk's.
  std::size_t index = 0;
  std::size_t merged_until = 0;  // windows below it came in with a block
  auto block = batch.merged.begin();
  batch.ForEachWindow([&](const stream::WindowChunk& chunk, std::span<float> window,
                          bool quarantined) {
    const std::size_t i = index++;
    if (i < merged_until) return;
    if (block != batch.merged.end() && block->first_window == i) {
      if (MergeBlock(*block)) merged_until = i + block->windows;
      ++block;
      if (i < merged_until) return;
    }
    if (quarantined) {
      core_.QuarantineWindow(window.size());
      if (obs_.flight != nullptr) {
        const std::uint64_t position = chunk.first_window + i;
        obs_.flight->Record(obs::FlightEventKind::kWindowQuarantined, "drain",
                            Traits::kPrefix, position, static_cast<std::int64_t>(position),
                            static_cast<std::int64_t>(window.size()));
      }
    } else {
      MergeSortedWindow(window);
    }
  });
  if (obs_.metrics != nullptr) {
    obs_.metrics->Observe(ids_.drain_latency, drain_timer.ElapsedSeconds() * 1e6);
  }
  return Status::Ok();
}

template <typename Core>
void SummaryEstimator<Core>::PrepareBatch(int worker_index, stream::WindowBatch& batch) {
  const stream::WindowChunk& chunk = batch.chunks.front();
  const std::size_t window = chunk.window_size;
  const std::size_t whole = chunk.data.size() / window;  // a partial window stays single
  const auto mergeable = [&](std::size_t first, int level) {
    const std::size_t end = first + (std::size_t{1} << level);
    return end <= whole && std::none_of(batch.quarantined.begin() + first,
                                        batch.quarantined.begin() + end,
                                        [](std::uint8_t q) { return q != 0; });
  };
  std::vector<float>& scratch = merge_scratch_[static_cast<std::size_t>(worker_index)];
  for (std::size_t i = 0; i < whole;) {
    // The largest block aligned on the stream's window count.
    int level = std::min(block_level_, std::countr_zero(chunk.first_window + i));
    while (level > 0 && !mergeable(i, level)) --level;
    if (level == 0) {
      ++i;
      continue;
    }
    const std::size_t windows = std::size_t{1} << level;
    stream::MergedRun& run = batch.merged.emplace_back();
    run.first_window = i;
    run.windows = windows;
    Timer merge_timer;
    sketch::EhQuantileSummary::MergeBlock(
        std::span<const float>(chunk.data).subspan(i * window, windows * window), window,
        &scratch, &run.values);
    run.merge_seconds = merge_timer.ElapsedSeconds();
    i += windows;
  }
}

template <typename Core>
void SummaryEstimator<Core>::MergeSortedWindow(std::span<float> window) {
  const std::uint64_t seq = window_seq_++;
  const bool traced = obs_.trace != nullptr && obs_.trace->Sampled(seq);
  const double t0 = traced ? obs_.trace->NowMicros() : 0;

  Timer merge_timer;
  // The drain's larger combines run as slices on the sort workers idle at
  // that moment (in one slice inline, where the executor has none).
  const std::size_t entries = Traits::MergeWindow(core_, window, executor_.get());

  if (obs_.metrics != nullptr) {
    obs_.metrics->Add(ids_.windows_merged);
    obs_.metrics->Add(ids_.elements_merged, window.size());
    obs_.metrics->Record(ids_.window_elements, static_cast<double>(window.size()));
    obs_.metrics->Observe(ids_.merge_latency, merge_timer.ElapsedSeconds() * 1e6);
  }
  if (traced) {
    obs_.trace->AddSpan("window_merge", "merge", t0, obs_.trace->NowMicros() - t0,
                        {{"window", static_cast<double>(seq)},
                         {"elements", static_cast<double>(window.size())},
                         {Traits::kMergeArg, static_cast<double>(entries)}});
  }
}

template <typename Core>
bool SummaryEstimator<Core>::MergeBlock(stream::MergedRun& block) {
  const std::uint64_t seq = window_seq_;
  const bool traced = obs_.trace != nullptr && obs_.trace->Sampled(seq);
  const double t0 = traced ? obs_.trace->NowMicros() : 0;

  Timer merge_timer;
  const std::size_t elements = block.values.size();
  if (!Traits::MergeBlock(core_, block, executor_.get())) return false;
  window_seq_ += block.windows;

  if (obs_.metrics != nullptr) {
    obs_.metrics->Add(ids_.windows_merged, block.windows);
    obs_.metrics->Add(ids_.elements_merged, elements);
    for (std::size_t w = 0; w < block.windows; ++w) {
      obs_.metrics->Record(ids_.window_elements,
                           static_cast<double>(elements / block.windows));
    }
    obs_.metrics->Observe(ids_.merge_latency, merge_timer.ElapsedSeconds() * 1e6);
  }
  if (traced) {
    obs_.trace->AddSpan("window_merge", "merge", t0, obs_.trace->NowMicros() - t0,
                        {{"window", static_cast<double>(seq)},
                         {"windows", static_cast<double>(block.windows)},
                         {"elements", static_cast<double>(elements)},
                         {Traits::kMergeArg, static_cast<double>(elements)}});
  }
  return true;
}

template <typename Core>
void SummaryEstimator<Core>::Sync() const {
  // A query covers every full window observed, so a stream whose sorter
  // takes one window per call hands its staged whole windows over first
  // (PBSN keeps them for a full texture).
  if (pack_windows_ == 1) SubmitBatch(/*whole_windows=*/true);
  if (!executor_->threaded()) return;  // inline: every batch already drained
  const Status status = executor_->WaitIdle();
  if (!status.ok() && executor_status_.ok()) executor_status_ = status;
  const stream::PipelineWaitStats stats = executor_->stats();
  costs_.ingest_stall_seconds = stats.ingest_stall_seconds;
  costs_.sort_queue_wait_seconds = stats.sort_queue_wait_seconds;
  costs_.drain_queue_wait_seconds = stats.drain_queue_wait_seconds;
  costs_.sort_wall_seconds = stats.sort_wall_seconds;
  costs_.drain_wall_seconds = stats.drain_wall_seconds;
  costs_.pipelined_batches = stats.batches;
}

template <typename Core>
Status SummaryEstimator<Core>::MaybeAutoCheckpoint() {
  if (options_.checkpoint_every_windows == 0 ||
      windows_released_ < next_checkpoint_window_) {
    return Status::Ok();
  }
  const Status status = Checkpoint();
  StartBatch();
  return status;
}

template <typename Core>
void SummaryEstimator<Core>::ScheduleCheckpoint() {
  next_checkpoint_window_ =
      windows_released_ + RoundUp(options_.checkpoint_every_windows, pack_windows_);
  StartBatch();
}

template <typename Core>
void SummaryEstimator<Core>::StartBatch() const {
  const auto batch = static_cast<std::uint64_t>(batch_windows_);
  std::uint64_t end = (windows_released_ / batch + 1) * batch;
  if (options_.checkpoint_every_windows > 0) {
    end = std::min(end, std::max(next_checkpoint_window_,
                                 windows_released_ + static_cast<std::uint64_t>(pack_windows_)));
  }
  batcher_.set_batch_windows(end - windows_released_);
}

template <typename Core>
Status SummaryEstimator<Core>::Checkpoint() {
  if (checkpoint_writer_ == nullptr) {
    return Status::FailedPrecondition(
        "Checkpoint() requires Options::checkpoint_dir");
  }
  // A consistent cut: every submitted batch is merged before the snapshot,
  // so the summary core, the staged partial window, and observed_ agree.
  Sync();
  if (!executor_status_.ok()) return executor_status_;

  durable::CheckpointWriter& writer = *checkpoint_writer_;
  writer.Begin();
  durable::SnapshotHeader header;
  header.mode = Traits::kMode;
  header.kind = Traits::Kind(core_);
  header.epsilon = options_.epsilon;
  header.window_size = batcher_.window_size();
  header.aux = options_.expected_stream_length;
  durable::AppendSnapshotHeader(header,
                                writer.BeginRecord(durable::RecordType::kSnapshotHeader));
  writer.EndRecord();
  if (Status s = core_.AppendCheckpointState(writer.BeginRecord(Traits::kStateRecord));
      !s.ok()) {
    return s;
  }
  writer.EndRecord();
  if (!batcher_.empty()) {
    durable::AppendWindowBuffer(batcher_.contents(),
                                writer.BeginRecord(durable::RecordType::kWindowBuffer));
    writer.EndRecord();
  }
  const Status status = writer.Commit(observed_);
  if (status.ok()) ScheduleCheckpoint();
  return status;
}

template <typename Core>
Status SummaryEstimator<Core>::InstallSnapshot(const durable::Snapshot& snapshot) {
  if (snapshot.records.empty()) {
    return Status::InvalidArgument("snapshot has no records");
  }
  durable::SnapshotHeader header;
  if (!durable::ReadSnapshotHeader(snapshot.records[0].payload, &header)) {
    return Status::InvalidArgument("malformed snapshot header");
  }
  if (header.mode != Traits::kMode) {
    return Status::InvalidArgument(
        "checkpoint was written by a different subsystem (header mode " +
        std::to_string(header.mode) + ")");
  }
  if (header.kind != Traits::Kind(core_) || header.epsilon != options_.epsilon ||
      header.window_size != batcher_.window_size() ||
      header.aux != options_.expected_stream_length) {
    return Status::InvalidArgument(
        "checkpoint configuration does not match Options (epsilon, window "
        "size, sketch kind, and expected stream length must equal the "
        "writer's)");
  }

  const std::string state_name = std::string(Traits::kName) + "-state record";
  const durable::OwnedRecord* state = nullptr;
  const durable::OwnedRecord* staged = nullptr;
  for (std::size_t i = 1; i < snapshot.records.size(); ++i) {
    const durable::OwnedRecord& record = snapshot.records[i];
    if (record.type == Traits::kStateRecord) {
      if (state != nullptr) return Status::InvalidArgument("duplicate " + state_name);
      state = &record;
    } else if (record.type == durable::RecordType::kWindowBuffer) {
      if (staged != nullptr) {
        return Status::InvalidArgument("duplicate window-buffer record");
      }
      staged = &record;
    } else {
      return Status::InvalidArgument(
          std::string("unexpected ") + durable::RecordTypeName(record.type) +
          " record in a " + Traits::kName + "-estimator snapshot");
    }
  }
  if (state == nullptr) {
    return Status::InvalidArgument("snapshot is missing its " + state_name);
  }
  if (Status s = core_.RestoreCheckpointState(state->payload); !s.ok()) return s;
  // Resume the window count where the snapshot's stream stood, so batches
  // (and with them PBSN textures and pre-merged blocks) align as they would
  // have without the restart.
  windows_released_ = core_.processed() / batcher_.window_size() + core_.windows_quarantined();
  ScheduleCheckpoint();

  if (staged != nullptr) {
    std::size_t buffered = 0;
    if (Status s = durable::ReadWindowBufferCount(staged->payload, &buffered); !s.ok()) {
      return s;
    }
    // A checkpoint stages less than one packing unit (Checkpoint() submits
    // a host stream's whole windows first), however large a batch is.
    const std::size_t capacity =
        batcher_.window_size() * static_cast<std::size_t>(pack_windows_);
    if (buffered == 0 || buffered >= capacity) {
      return Status::InvalidArgument(
          "window-buffer record stages " + std::to_string(buffered) +
          " elements; a checkpoint stages between 1 and " +
          std::to_string(capacity - 1));
    }
    // The staged elements were quantized at original ingest; copy them back
    // verbatim instead of re-quantizing.
    const std::span<float> slot = batcher_.Claim(buffered);
    if (slot.size() != buffered) {
      return Status::InvalidArgument(
          "window-buffer record stages " + std::to_string(buffered) +
          " elements past the batch that ends " + std::to_string(slot.size()) +
          " elements after window " + std::to_string(windows_released_));
    }
    durable::CopyWindowBuffer(staged->payload, slot);
  }

  const std::uint64_t covered = core_.processed() + core_.elements_dropped() +
                                core_.elements_shed() + batcher_.buffered();
  if (snapshot.watermark != covered) {
    return Status::InvalidArgument(
        "snapshot watermark " + std::to_string(snapshot.watermark) +
        " does not cover the restored state (" + std::to_string(covered) + ")");
  }
  observed_ = snapshot.watermark;
  if (obs_.metrics != nullptr && observed_ > 0) {
    // Re-seed the live counter so exports stay continuous across restarts.
    obs_.metrics->Add(ids_.elements_observed, observed_);
  }
  return Status::Ok();
}

template <typename Core>
std::uint64_t SummaryEstimator<Core>::processed_length() const {
  Sync();
  return core_.processed();
}

template <typename Core>
std::size_t SummaryEstimator<Core>::summary_size() const {
  Sync();
  return core_.summary_size();
}

template <typename Core>
gpu::GpuStats SummaryEstimator<Core>::device_stats() const {
  Sync();
  gpu::GpuStats total;
  for (const auto& stack : stacks_) {
    if (stack->engine().device() != nullptr) total += stack->engine().device()->stats();
  }
  return total;
}

template <typename Core>
FaultStats SummaryEstimator<Core>::fault_stats() const {
  Sync();
  FaultStats stats;
  for (const auto& stack : stacks_) stats += stack->fault_stats();
  // Quarantine is taken from the summary core's drain-side counters — the
  // same numbers the reports state — rather than the sorters' totals.
  stats.windows_quarantined = core_.windows_quarantined();
  stats.elements_dropped = core_.elements_dropped();
  return stats;
}

template <typename Core>
const PipelineCosts& SummaryEstimator<Core>::costs() const {
  Sync();
  core_.MirrorCosts(&costs_);
  return costs_;
}

template <typename Core>
void SummaryEstimator<Core>::ExportMetrics() const {
  if (obs_.metrics == nullptr) return;
  ExportPipelineCosts(obs_.metrics, Traits::kPrefix, costs(), cpu_model_);
  const auto set = [&](const char* name, double value) {
    obs_.metrics->Set(obs_.metrics->Gauge(std::string(Traits::kPrefix) + name), value);
  };
  set(".stream.observed", static_cast<double>(observed_));
  set(".stream.processed", static_cast<double>(processed_length()));
  set(".summary.entries", static_cast<double>(summary_size()));
}

template <typename Core>
double SummaryEstimator<Core>::SimulatedSeconds() const {
  return costs().SimulatedTotalSeconds(cpu_model_);
}

template class SummaryEstimator<QuantileSummaryCore>;
template class SummaryEstimator<FrequencySummaryCore>;

}  // namespace streamgpu::core
