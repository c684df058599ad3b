#include "service/stream_service.h"

#include <algorithm>
#include <string>
#include <utility>

#include "common/check.h"
#include "common/float_order.h"
#include "common/timer.h"
#include "gpu/half.h"
#include "sketch/combiner.h"
#include "sketch/wire.h"

namespace streamgpu::service {

namespace {

namespace wire = sketch::wire;

constexpr std::size_t kDefaultBatchElements = std::size_t{1} << 16;

int ResolveShards(const ServiceConfig& config) {
  if (config.num_shards > 0) return config.num_shards;
  return 4 * std::max(config.num_workers, 1);
}

}  // namespace

core::Status ServiceConfig::Validate() const {
  if (num_workers < 1 || num_workers > 1024) {
    return core::Status::InvalidArgument("num_workers must be in [1, 1024]");
  }
  if (num_shards < 0) {
    return core::Status::InvalidArgument("num_shards must be >= 0");
  }
  if (max_batches_in_flight < 0) {
    return core::Status::InvalidArgument("max_batches_in_flight must be >= 0");
  }
  if (max_batches_in_flight > 0 && num_workers >= 2 &&
      max_batches_in_flight < num_workers) {
    return core::Status::InvalidArgument(
        "max_batches_in_flight below num_workers starves the pool");
  }
  return core::Status::Ok();
}

core::StatusOr<std::unique_ptr<StreamService>> StreamService::Create(
    const ServiceConfig& config) {
  core::Status status = config.Validate();
  if (!status.ok()) return status;
  return std::make_unique<StreamService>(config);
}

StreamService::StreamService(const ServiceConfig& config)
    : config_(config),
      obs_(config.obs),
      admission_(config.admission,
                 static_cast<std::size_t>(ResolveShards(config)),
                 config.shard_ingress_capacity) {
  const core::Status status = config_.Validate();
  STREAMGPU_CHECK_MSG(status.ok(), status.ToString().c_str());

  batch_elements_ = config_.shard_batch_elements > 0
                        ? config_.shard_batch_elements
                        : kDefaultBatchElements;
  const int shards = ResolveShards(config_);
  shards_.reserve(static_cast<std::size_t>(shards));
  for (int i = 0; i < shards; ++i) shards_.push_back(std::make_unique<Shard>());

  // One sorter stack (and on GPU backends one simulated device) per worker;
  // the per-stream fields of Options are irrelevant to sorter construction.
  core::Options engine_options;
  engine_options.backend = config_.backend;
  engine_options.planner = config_.planner;
  engine_options.gpu_format = config_.gpu_format;
  engine_options.obs = obs_;
  stacks_ = core::MakeSortStacks(engine_options, config_.num_workers, "service");
  quantize_ = stacks_[0]->engine().is_gpu() && config_.gpu_format == gpu::Format::kFloat16;

  if (obs_.metrics != nullptr) {
    m_observed_ = obs_.metrics->Counter("service.elements_observed");
    m_shed_ = obs_.metrics->Counter("service.elements_shed");
    m_batches_ = obs_.metrics->Counter("service.batches_dispatched");
    m_windows_ = obs_.metrics->Counter("service.windows_merged");
    g_streams_ = obs_.metrics->Gauge("service.streams");
    s_batch_query_ = obs_.metrics->Summary("service.batch_query_seconds");
    m_merge_queries_ = obs_.metrics->Counter("service.merge.queries");
    m_merge_shards_ = obs_.metrics->Counter("service.merge.shards");
    s_merge_query_ = obs_.metrics->Summary("service.merge.query_seconds");
  }

  stream::WindowExecutor::Config executor_config;
  executor_config.max_batches_in_flight = config_.max_batches_in_flight;
  executor_config.trace = obs_.trace;
  executor_config.trace_label = "service";
  executor_config.flight = obs_.flight;
  std::vector<sort::Sorter*> sorters;
  for (const auto& stack : stacks_) sorters.push_back(&stack->front());
  executor_ = std::make_unique<stream::WindowExecutor>(
      executor_config, std::move(sorters),
      [this](stream::WindowBatch& batch) { return MergeBatch(batch); });
}

StreamService::~StreamService() = default;

StreamService::StreamState* StreamService::Find(const StreamKey& key) const {
  const auto it = index_.find(key);
  return it == index_.end() ? nullptr : streams_[it->second].get();
}

std::pair<obs::MetricId, obs::MetricId> StreamService::TenantMetrics(
    std::uint64_t tenant) {
  if (obs_.metrics == nullptr) return {obs::kInvalidMetric, obs::kInvalidMetric};
  const auto it = tenant_metrics_.find(tenant);
  if (it != tenant_metrics_.end()) return it->second;
  if (tenant_metrics_.size() < config_.max_tenant_metric_series) {
    const obs::MetricLabels labels = {{"tenant", std::to_string(tenant)}};
    const std::pair<obs::MetricId, obs::MetricId> ids = {
        obs_.metrics->Counter("service.tenant.elements_observed", labels),
        obs_.metrics->Counter("service.tenant.elements_shed", labels)};
    tenant_metrics_.emplace(tenant, ids);
    return ids;
  }
  // Cardinality cap reached: every further tenant shares one overflow
  // series (the registry aborts at kMaxCounters registered series, so the
  // cap is a correctness bound, not just hygiene).
  if (overflow_tenant_metrics_.first == obs::kInvalidMetric) {
    const obs::MetricLabels labels = {{"tenant", "~other"}};
    overflow_tenant_metrics_ = {
        obs_.metrics->Counter("service.tenant.elements_observed", labels),
        obs_.metrics->Counter("service.tenant.elements_shed", labels)};
  }
  return overflow_tenant_metrics_;
}

core::Status StreamService::Register(const StreamKey& key,
                                     const StreamConfig& config) {
  if (index_.find(key) != index_.end()) {
    return core::Status::FailedPrecondition("stream already registered");
  }
  if (!config.track_quantiles && !config.track_frequencies) {
    return core::Status::InvalidArgument(
        "stream must track quantiles, frequencies, or both");
  }
  // Reuse the estimator-agnostic validation rules (epsilon range, sliding
  // window consistency, window_size vs block size).
  core::Options options;
  options.epsilon = config.epsilon;
  options.backend = config_.backend;
  options.planner = config_.planner;
  options.gpu_format = config_.gpu_format;
  options.window_size = config.window_size;
  options.sliding_window = config.sliding_window;
  options.expected_stream_length = config.expected_stream_length;
  options.quantile_sketch = config.quantile_sketch;
  core::Status status = options.Validate();
  if (!status.ok()) return status;

  // Resolve the processing window exactly as a dedicated estimator would —
  // the precondition for bit-identical answers.
  std::uint64_t window =
      config.track_quantiles
          ? core::NaturalQuantileWindow(config.epsilon, config.window_size,
                                        config.sliding_window)
          : core::NaturalFrequencyWindow(config.epsilon, config.window_size,
                                         config.sliding_window);
  if (config.track_frequencies) {
    const std::uint64_t frequency_window = core::NaturalFrequencyWindow(
        config.epsilon, config.window_size, config.sliding_window);
    if (config.track_quantiles && frequency_window != window) {
      return core::Status::InvalidArgument(
          "quantile and frequency processing windows differ; register two "
          "streams");
    }
    window = config.track_quantiles ? window : frequency_window;
    // Whole-history frequency rule (mirrors FrequencyEstimator::Create): a
    // window wider than the Manku-Motwani bucket voids the error guarantee.
    const std::uint64_t bucket =
        core::NaturalFrequencyWindow(config.epsilon, 0, 0);
    if (config.sliding_window == 0 && window > bucket) {
      return core::Status::InvalidArgument(
          "whole-history frequency window_size must not exceed ceil(1/epsilon)");
    }
  }

  auto state = std::make_unique<StreamState>(window, key);
  state->config = config;
  state->index = static_cast<std::uint32_t>(streams_.size());
  state->shard = static_cast<std::uint32_t>(StreamKeyHash{}(key) % shards_.size());
  if (config.track_quantiles) {
    state->quantiles.emplace(config.epsilon, window, config.sliding_window,
                             config.expected_stream_length,
                             config.quantile_sketch);
  }
  if (config.track_frequencies) {
    state->frequencies.emplace(config.epsilon, window, config.sliding_window);
  }
  const auto tenant_ids = TenantMetrics(key.tenant);
  state->tenant_observed = tenant_ids.first;
  state->tenant_shed = tenant_ids.second;

  index_.emplace(key, state->index);
  streams_.push_back(std::move(state));
  stats_.streams = streams_.size();
  if (obs_.metrics != nullptr) {
    obs_.metrics->Set(g_streams_, static_cast<double>(streams_.size()));
  }
  return core::Status::Ok();
}

core::StatusOr<std::size_t> StreamService::Append(const StreamKey& key,
                                                  std::span<const float> values) {
  StreamState* state = Find(key);
  if (state == nullptr) return core::Status::InvalidArgument("unknown stream");
  if (state->finalized) {
    return core::Status::FailedPrecondition("stream is finalized");
  }
  if (values.empty()) return std::size_t{0};
  if (const std::size_t nan = FindNan(values); nan != values.size()) {
    return core::Status::InvalidArgument("Append() element " + std::to_string(nan) + " of " +
                                         std::to_string(values.size()) +
                                         " is NaN, which has no rank: none of them admitted");
  }

  const std::size_t admitted = admission_.Admit(state->shard, values.size());
  const std::size_t dropped = values.size() - admitted;

  std::size_t consumed = 0;
  while (consumed < admitted) {
    const std::span<float> slot = state->batcher.Claim(admitted - consumed);
    if (quantize_) {
      for (std::size_t i = 0; i < slot.size(); ++i) {
        slot[i] = gpu::QuantizeToHalf(values[consumed + i]);
      }
    } else {
      std::copy_n(values.begin() + static_cast<std::ptrdiff_t>(consumed),
                  slot.size(), slot.begin());
    }
    consumed += slot.size();
    if (state->batcher.full()) {
      const core::Status status = StageWindow(*state, /*final_partial=*/false);
      if (!status.ok()) return status;
    }
  }

  state->observed += admitted;
  stats_.elements_observed += admitted;
  if (obs_.metrics != nullptr) {
    obs_.metrics->Add(m_observed_, admitted);
    obs_.metrics->Add(state->tenant_observed, admitted);
  }
  if (dropped > 0) AccountShed(*state, dropped);
  return admitted;
}

void StreamService::AccountShed(StreamState& state, std::size_t dropped) {
  {
    // Shedding is the slow path; the shard summary lock serializes the
    // bound-widening against concurrent queries and drains.
    std::lock_guard<std::mutex> lock(shards_[state.shard]->summary_mu);
    if (state.quantiles) state.quantiles->ShedElements(dropped);
    if (state.frequencies) state.frequencies->ShedElements(dropped);
  }
  state.shed += dropped;
  stats_.elements_shed += dropped;
  if (obs_.metrics != nullptr) {
    obs_.metrics->Add(m_shed_, dropped);
    obs_.metrics->Add(state.tenant_shed, dropped);
  }
  if (obs_.flight != nullptr) {
    obs_.flight->Record(obs::FlightEventKind::kLoadShed, "service", "admission",
                        state.index, static_cast<std::int64_t>(dropped),
                        static_cast<std::int64_t>(admission_.backlog(state.shard)));
  }
}

core::Status StreamService::StageWindow(StreamState& state, bool final_partial) {
  Shard& shard = *shards_[state.shard];
  if (state.pending_chunk < 0) {
    if (shard.used_chunks == shard.pending.chunks.size()) {
      shard.pending.chunks.emplace_back();
    }
    stream::WindowChunk& chunk = shard.pending.chunks[shard.used_chunks];
    STREAMGPU_DCHECK(chunk.data.empty());
    chunk.stream = state.index;
    chunk.window_size = state.window_size;
    chunk.final_partial = false;
    state.pending_chunk = static_cast<int>(shard.used_chunks);
    ++shard.used_chunks;
  }
  stream::WindowChunk& chunk =
      shard.pending.chunks[static_cast<std::size_t>(state.pending_chunk)];
  const std::span<const float> elements = state.batcher.contents();
  chunk.data.insert(chunk.data.end(), elements.begin(), elements.end());
  if (final_partial) chunk.final_partial = true;
  shard.pending.elements += elements.size();
  state.batcher.Clear();
  if (!paused_ && shard.pending.elements >= batch_elements_) {
    return DispatchShard(state.shard);
  }
  return core::Status::Ok();
}

core::Status StreamService::DispatchShard(std::uint32_t shard_index) {
  Shard& shard = *shards_[shard_index];
  if (shard.pending.elements == 0) return core::Status::Ok();
  admission_.OnDispatched(shard_index, shard.pending.elements);
  for (std::size_t c = 0; c < shard.used_chunks; ++c) {
    streams_[shard.pending.chunks[c].stream]->pending_chunk = -1;
  }
  shard.used_chunks = 0;
  ++stats_.batches_dispatched;
  if (obs_.metrics != nullptr) obs_.metrics->Add(m_batches_);

  // One worker sorts and merges inline on the ingest thread; more hand the
  // batch to the pool. Either way the drained storage comes back for reuse.
  const core::Status status = executor_->Submit(std::move(shard.pending));
  shard.pending = executor_->AcquireBatch();
  return status;
}

core::Status StreamService::MergeBatch(stream::WindowBatch& batch) {
  // Every chunk of a batch belongs to one shard; chunk 0 is always in use.
  Shard& shard = *shards_[streams_[batch.chunks.front().stream]->shard];
  std::uint64_t windows = 0;
  {
    std::lock_guard<std::mutex> lock(shard.summary_mu);
    batch.ForEachWindow([&](const stream::WindowChunk& chunk,
                            std::span<float> window, bool quarantined) {
      StreamState& state = *streams_[chunk.stream];
      if (quarantined) {
        // Unrecoverable window: lost coverage, accounted in the stream's
        // reported bound exactly as a dedicated estimator accounts it.
        if (state.quantiles) state.quantiles->QuarantineWindow(window.size());
        if (state.frequencies) state.frequencies->QuarantineWindow(window.size());
        return;
      }
      if (state.quantiles) state.quantiles->MergeSortedWindow(window);
      if (state.frequencies) state.frequencies->MergeSortedWindow(window);
      ++windows;
    });
  }
  windows_merged_.fetch_add(windows, std::memory_order_relaxed);
  if (obs_.metrics != nullptr) obs_.metrics->Add(m_windows_, windows);
  return core::Status::Ok();
}

core::Status StreamService::Flush(const StreamKey& key) {
  StreamState* state = Find(key);
  if (state == nullptr) return core::Status::InvalidArgument("unknown stream");
  if (state->finalized) return core::Status::Ok();
  state->finalized = true;
  if (!state->batcher.empty()) {
    const core::Status status = StageWindow(*state, /*final_partial=*/true);
    if (!status.ok()) return status;
  }
  state->batcher.ReleaseStorage();  // no append comes after the final window
  return DispatchShard(state->shard);
}

core::Status StreamService::FlushAll() {
  paused_ = false;
  for (auto& state : streams_) {
    if (state->finalized) continue;
    state->finalized = true;
    if (!state->batcher.empty()) {
      const core::Status status = StageWindow(*state, /*final_partial=*/true);
      if (!status.ok()) return status;
    }
    state->batcher.ReleaseStorage();
  }
  if (core::Status status = WaitIdle(); !status.ok()) return status;
  // Every stream is finalized and the pool is idle: free the batch storage
  // no append can use, as SummaryEstimator::Flush does. A stream registered
  // later allocates its own.
  for (auto& shard : shards_) shard->pending = stream::WindowBatch();
  executor_->ReleaseRecycled();
  return core::Status::Ok();
}

core::Status StreamService::WaitIdle() {
  for (std::uint32_t s = 0; s < shards_.size(); ++s) {
    const core::Status status = DispatchShard(s);
    if (!status.ok()) return status;
  }
  return executor_->WaitIdle();
}

core::Status StreamService::ResumeDispatch() {
  paused_ = false;
  for (std::uint32_t s = 0; s < shards_.size(); ++s) {
    if (shards_[s]->pending.elements >= batch_elements_) {
      const core::Status status = DispatchShard(s);
      if (!status.ok()) return status;
    }
  }
  return core::Status::Ok();
}

namespace {

/// kInvalidArgument unless phi is in (0, 1]; NaN fails too.
core::Status CheckPhi(double phi) {
  if (phi > 0.0 && phi <= 1.0) return core::Status::Ok();
  return core::Status::InvalidArgument("phi must be in (0, 1], got " +
                                       std::to_string(phi));
}

}  // namespace

core::StatusOr<core::QuantileReport> StreamService::Quantile(
    const StreamKey& key, double phi, std::uint64_t window) const {
  if (core::Status s = CheckPhi(phi); !s.ok()) return s;
  StreamState* state = Find(key);
  if (state == nullptr) return core::Status::InvalidArgument("unknown stream");
  if (!state->quantiles) {
    return core::Status::InvalidArgument("stream does not track quantiles");
  }
  std::lock_guard<std::mutex> lock(shards_[state->shard]->summary_mu);
  return state->quantiles->Quantile(phi, window);
}

core::StatusOr<core::FrequencyReport> StreamService::HeavyHitters(
    const StreamKey& key, double support, std::uint64_t window) const {
  StreamState* state = Find(key);
  if (state == nullptr) return core::Status::InvalidArgument("unknown stream");
  if (!state->frequencies) {
    return core::Status::InvalidArgument("stream does not track frequencies");
  }
  std::lock_guard<std::mutex> lock(shards_[state->shard]->summary_mu);
  return state->frequencies->HeavyHitters(support, window);
}

core::StatusOr<std::uint64_t> StreamService::EstimateCount(
    const StreamKey& key, float value, std::uint64_t window) const {
  StreamState* state = Find(key);
  if (state == nullptr) return core::Status::InvalidArgument("unknown stream");
  if (!state->frequencies) {
    return core::Status::InvalidArgument("stream does not track frequencies");
  }
  const float probe = quantize_ ? gpu::QuantizeToHalf(value) : value;
  std::lock_guard<std::mutex> lock(shards_[state->shard]->summary_mu);
  return state->frequencies->EstimateCount(probe, window);
}

core::StatusOr<std::vector<std::uint8_t>> StreamService::ExportQuantileSummary(
    const StreamKey& key) const {
  StreamState* state = Find(key);
  if (state == nullptr) return core::Status::InvalidArgument("unknown stream");
  if (!state->quantiles) {
    return core::Status::InvalidArgument("stream does not track quantiles");
  }
  std::vector<std::uint8_t> bytes;
  std::lock_guard<std::mutex> lock(shards_[state->shard]->summary_mu);
  const core::Status status = state->quantiles->AppendWireSummary(&bytes);
  if (!status.ok()) return status;
  return bytes;
}

core::StatusOr<core::QuantileReport> StreamService::MergedQuantile(
    std::span<const StreamKey> keys, double phi) const {
  if (keys.empty()) {
    return core::Status::InvalidArgument("MergedQuantile needs at least one key");
  }
  if (core::Status s = CheckPhi(phi); !s.ok()) return s;
  Timer timer;
  sketch::QuantileShardCombiner combiner;
  std::uint64_t windows_quarantined = 0;
  std::uint64_t elements_dropped = 0;
  std::uint64_t elements_shed = 0;
  for (const StreamKey& key : keys) {
    core::StatusOr<std::vector<std::uint8_t>> bytes = ExportQuantileSummary(key);
    if (!bytes.ok()) return bytes.status();
    const core::Status status = combiner.AddShard(*bytes);
    if (!status.ok()) return status;
    // Lost coverage is a property of each source stream, not of its
    // serialized summary; fold it in here so the merged bound stays honest.
    StreamState* state = Find(key);
    std::lock_guard<std::mutex> lock(shards_[state->shard]->summary_mu);
    windows_quarantined += state->quantiles->windows_quarantined();
    elements_dropped += state->quantiles->elements_dropped();
    elements_shed += state->quantiles->elements_shed();
  }
  core::QuantileReport report = combiner.Quantile(phi);
  report.windows_quarantined = windows_quarantined;
  report.elements_dropped = elements_dropped;
  report.elements_shed = elements_shed;
  report.rank_error_bound += elements_dropped + elements_shed;
  if (obs_.metrics != nullptr) {
    obs_.metrics->Add(m_merge_queries_);
    obs_.metrics->Add(m_merge_shards_, keys.size());
    obs_.metrics->Observe(s_merge_query_, timer.ElapsedSeconds());
  }
  if (obs_.flight != nullptr) {
    obs_.flight->Record(obs::FlightEventKind::kSummaryMerged, "service", "merge",
                        /*seq=*/0, static_cast<std::int64_t>(keys.size()),
                        static_cast<std::int64_t>(report.window_coverage));
  }
  return report;
}

std::vector<core::QuantileReport> StreamService::BatchQuantiles(
    std::span<const StreamKey> keys, double phi, std::uint64_t window) const {
  std::vector<core::QuantileReport> out(keys.size());
  // Bucket the answer slots by owning shard so each shard's summary lock is
  // taken once per call, not once per stream.
  std::vector<std::vector<std::pair<std::size_t, StreamState*>>> by_shard(
      shards_.size());
  for (std::size_t i = 0; i < keys.size(); ++i) {
    StreamState* state = Find(keys[i]);
    STREAMGPU_CHECK_MSG(state != nullptr, "BatchQuantiles: unknown stream");
    STREAMGPU_CHECK_MSG(state->quantiles.has_value(),
                        "BatchQuantiles: stream does not track quantiles");
    by_shard[state->shard].emplace_back(i, state);
  }
  Timer timer;
  for (std::size_t s = 0; s < by_shard.size(); ++s) {
    if (by_shard[s].empty()) continue;
    std::lock_guard<std::mutex> lock(shards_[s]->summary_mu);
    for (const auto& [slot, state] : by_shard[s]) {
      out[slot] = state->quantiles->Quantile(phi, window);
    }
  }
  if (obs_.metrics != nullptr) {
    obs_.metrics->Observe(s_batch_query_, timer.ElapsedSeconds());
  }
  return out;
}

core::Status StreamService::Checkpoint(durable::CheckpointWriter* writer) {
  if (writer == nullptr) {
    return core::Status::InvalidArgument("Checkpoint requires a writer");
  }
  // A consistent cut: every staged window is merged before the snapshot, so
  // only per-stream partial windows (< one window each) remain in staging.
  if (core::Status s = WaitIdle(); !s.ok()) return s;

  using durable::RecordType;
  writer->Begin();
  durable::SnapshotHeader header;
  header.mode = durable::kSnapshotModeService;
  header.aux = streams_.size();
  durable::AppendSnapshotHeader(header, writer->BeginRecord(RecordType::kSnapshotHeader));
  writer->EndRecord();

  std::vector<std::uint8_t>* out = writer->BeginRecord(RecordType::kServiceStats);
  wire::Append<std::uint64_t>(out, stats_.elements_observed);
  wire::Append<std::uint64_t>(out, stats_.elements_shed);
  wire::Append<std::uint64_t>(out, stats_.batches_dispatched);
  wire::Append<std::uint64_t>(out, windows_merged_.load(std::memory_order_relaxed));
  writer->EndRecord();

  out = writer->BeginRecord(RecordType::kAdmissionState);
  wire::Append<std::uint64_t>(out, shards_.size());
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    wire::Append<std::uint64_t>(out, admission_.shed(s));
  }
  writer->EndRecord();

  for (const auto& state : streams_) {
    out = writer->BeginRecord(RecordType::kStreamBegin);
    wire::Append<std::uint64_t>(out, state->key.tenant);
    wire::Append<std::uint64_t>(out, state->key.stream);
    wire::Append<double>(out, state->config.epsilon);
    wire::Append<std::uint64_t>(out, state->config.window_size);
    wire::Append<std::uint64_t>(out, state->config.sliding_window);
    wire::Append<std::uint64_t>(out, state->config.expected_stream_length);
    wire::Append<std::uint16_t>(
        out, static_cast<std::uint16_t>(state->config.quantile_sketch));
    wire::Append<std::uint8_t>(out, state->config.track_quantiles ? 1 : 0);
    wire::Append<std::uint8_t>(out, state->config.track_frequencies ? 1 : 0);
    wire::Append<std::uint8_t>(out, state->finalized ? 1 : 0);
    wire::Append<std::uint64_t>(out, state->observed);
    wire::Append<std::uint64_t>(out, state->shed);
    writer->EndRecord();

    if (state->quantiles) {
      out = writer->BeginRecord(RecordType::kQuantileState);
      if (core::Status s = state->quantiles->AppendCheckpointState(out); !s.ok()) {
        return s;
      }
      writer->EndRecord();
    }
    if (state->frequencies) {
      out = writer->BeginRecord(RecordType::kFrequencyState);
      if (core::Status s = state->frequencies->AppendCheckpointState(out); !s.ok()) {
        return s;
      }
      writer->EndRecord();
    }
    if (!state->batcher.empty()) {
      durable::AppendWindowBuffer(state->batcher.contents(),
                                  writer->BeginRecord(RecordType::kWindowBuffer));
      writer->EndRecord();
    }
  }
  // The watermark is everything the service ever offered admission:
  // admitted + shed. RestoreFrom's caller replays each stream's suffix past
  // its per-stream observed + shed counts.
  return writer->Commit(stats_.elements_observed + stats_.elements_shed);
}

core::StatusOr<std::unique_ptr<StreamService>> StreamService::RestoreFrom(
    const ServiceConfig& config, const std::string& dir) {
  if (dir.empty()) {
    return core::Status::InvalidArgument(
        "RestoreFrom requires a checkpoint directory");
  }
  core::StatusOr<durable::Snapshot> snapshot = durable::LoadLatestSnapshot(dir);
  if (!snapshot.ok()) return snapshot.status();
  core::StatusOr<std::unique_ptr<StreamService>> service = Create(config);
  if (!service.ok()) return service.status();
  const core::Status status = service.value()->InstallSnapshot(snapshot.value());
  if (!status.ok()) return status;
  durable::RecordRestore(config.obs, snapshot.value());
  return service;
}

core::Status StreamService::InstallSnapshot(const durable::Snapshot& snapshot) {
  if (!streams_.empty()) {
    return core::Status::FailedPrecondition(
        "snapshots install into a freshly constructed service");
  }
  if (snapshot.records.empty()) {
    return core::Status::InvalidArgument("snapshot has no records");
  }
  durable::SnapshotHeader header;
  if (!durable::ReadSnapshotHeader(snapshot.records[0].payload, &header)) {
    return core::Status::InvalidArgument("malformed snapshot header");
  }
  if (header.mode != durable::kSnapshotModeService) {
    return core::Status::InvalidArgument(
        "checkpoint was written by a different subsystem (header mode " +
        std::to_string(header.mode) + ")");
  }

  ServiceStats restored_stats;
  std::vector<std::uint64_t> shard_shed;
  bool stats_seen = false;
  bool admission_seen = false;
  StreamState* current = nullptr;
  bool have_quantile_state = false;
  bool have_frequency_state = false;
  bool have_window_buffer = false;

  // Validates the just-finished stream group: its state records are all
  // present and together cover exactly the recorded watermark.
  const auto finish_stream = [&]() -> core::Status {
    if (current == nullptr) return core::Status::Ok();
    if (current->quantiles && !have_quantile_state) {
      return core::Status::InvalidArgument(
          "stream is missing its quantile-state record");
    }
    if (current->frequencies && !have_frequency_state) {
      return core::Status::InvalidArgument(
          "stream is missing its frequency-state record");
    }
    const std::uint64_t buffered = current->batcher.buffered();
    if (current->finalized && buffered != 0) {
      return core::Status::InvalidArgument(
          "finalized stream still stages elements");
    }
    const auto covers = [&](const std::uint64_t processed,
                            const std::uint64_t dropped,
                            const std::uint64_t shed) {
      return processed + dropped + buffered == current->observed &&
             shed == current->shed;
    };
    if (current->quantiles &&
        !covers(current->quantiles->processed(),
                current->quantiles->elements_dropped(),
                current->quantiles->elements_shed())) {
      return core::Status::InvalidArgument(
          "restored quantile state does not cover the stream's watermark");
    }
    if (current->frequencies &&
        !covers(current->frequencies->processed(),
                current->frequencies->elements_dropped(),
                current->frequencies->elements_shed())) {
      return core::Status::InvalidArgument(
          "restored frequency state does not cover the stream's watermark");
    }
    return core::Status::Ok();
  };

  for (std::size_t i = 1; i < snapshot.records.size(); ++i) {
    const durable::OwnedRecord& record = snapshot.records[i];
    std::span<const std::uint8_t> payload = record.payload;
    switch (record.type) {
      case durable::RecordType::kServiceStats: {
        if (stats_seen || current != nullptr) {
          return core::Status::InvalidArgument("misplaced service-stats record");
        }
        if (!wire::Read(&payload, &restored_stats.elements_observed) ||
            !wire::Read(&payload, &restored_stats.elements_shed) ||
            !wire::Read(&payload, &restored_stats.batches_dispatched) ||
            !wire::Read(&payload, &restored_stats.windows_merged) ||
            !payload.empty()) {
          return core::Status::InvalidArgument("malformed service-stats record");
        }
        stats_seen = true;
        break;
      }
      case durable::RecordType::kAdmissionState: {
        if (admission_seen || current != nullptr) {
          return core::Status::InvalidArgument("misplaced admission-state record");
        }
        std::uint64_t count = 0;
        if (!wire::Read(&payload, &count) || count != shards_.size()) {
          return core::Status::InvalidArgument(
              "admission-state shard count does not match the service "
              "configuration");
        }
        shard_shed.resize(shards_.size());
        for (std::uint64_t s = 0; s < count; ++s) {
          if (!wire::Read(&payload, &shard_shed[s])) {
            return core::Status::InvalidArgument(
                "truncated admission-state record");
          }
        }
        if (!payload.empty()) {
          return core::Status::InvalidArgument(
              "trailing bytes in admission-state record");
        }
        admission_seen = true;
        break;
      }
      case durable::RecordType::kStreamBegin: {
        if (core::Status s = finish_stream(); !s.ok()) return s;
        current = nullptr;
        StreamKey key;
        StreamConfig config;
        std::uint16_t kind = 0;
        std::uint8_t track_quantiles = 0;
        std::uint8_t track_frequencies = 0;
        std::uint8_t finalized = 0;
        std::uint64_t observed = 0;
        std::uint64_t shed = 0;
        if (!wire::Read(&payload, &key.tenant) ||
            !wire::Read(&payload, &key.stream) ||
            !wire::Read(&payload, &config.epsilon) ||
            !wire::Read(&payload, &config.window_size) ||
            !wire::Read(&payload, &config.sliding_window) ||
            !wire::Read(&payload, &config.expected_stream_length) ||
            !wire::Read(&payload, &kind) ||
            !wire::Read(&payload, &track_quantiles) ||
            !wire::Read(&payload, &track_frequencies) ||
            !wire::Read(&payload, &finalized) ||
            !wire::Read(&payload, &observed) ||
            !wire::Read(&payload, &shed) || !payload.empty()) {
          return core::Status::InvalidArgument("malformed stream record");
        }
        if (config.sliding_window != 0) {
          return core::Status::InvalidArgument(
              "snapshot holds a sliding-window stream (not checkpointable)");
        }
        if (kind > static_cast<std::uint16_t>(sketch::QuantileSketchKind::kKll) ||
            track_quantiles > 1 || track_frequencies > 1 || finalized > 1) {
          return core::Status::InvalidArgument("malformed stream record");
        }
        config.quantile_sketch = static_cast<sketch::QuantileSketchKind>(kind);
        config.track_quantiles = track_quantiles != 0;
        config.track_frequencies = track_frequencies != 0;
        // Re-registration assigns the same index (file order is
        // registration order) and the same shard (the hash is stable).
        if (core::Status s = Register(key, config); !s.ok()) return s;
        current = streams_.back().get();
        current->observed = observed;
        current->shed = shed;
        current->finalized = finalized != 0;
        have_quantile_state = false;
        have_frequency_state = false;
        have_window_buffer = false;
        break;
      }
      case durable::RecordType::kQuantileState: {
        if (current == nullptr || !current->quantiles || have_quantile_state) {
          return core::Status::InvalidArgument("misplaced quantile-state record");
        }
        if (core::Status s = current->quantiles->RestoreCheckpointState(payload);
            !s.ok()) {
          return s;
        }
        have_quantile_state = true;
        break;
      }
      case durable::RecordType::kFrequencyState: {
        if (current == nullptr || !current->frequencies || have_frequency_state) {
          return core::Status::InvalidArgument(
              "misplaced frequency-state record");
        }
        if (core::Status s =
                current->frequencies->RestoreCheckpointState(payload);
            !s.ok()) {
          return s;
        }
        have_frequency_state = true;
        break;
      }
      case durable::RecordType::kWindowBuffer: {
        if (current == nullptr || have_window_buffer) {
          return core::Status::InvalidArgument("misplaced window-buffer record");
        }
        std::size_t buffered = 0;
        if (core::Status s = durable::ReadWindowBufferCount(payload, &buffered); !s.ok()) {
          return s;
        }
        if (buffered == 0 || buffered >= current->window_size) {
          return core::Status::InvalidArgument(
              "window-buffer record stages " + std::to_string(buffered) +
              " elements; a service stream stages between 1 and " +
              std::to_string(current->window_size - 1));
        }
        // Already quantized at original ingest; copy back verbatim into the
        // just-registered stream's empty batch.
        durable::CopyWindowBuffer(payload, current->batcher.Claim(buffered));
        have_window_buffer = true;
        break;
      }
      default:
        return core::Status::InvalidArgument(
            std::string("unexpected ") + durable::RecordTypeName(record.type) +
            " record in a service snapshot");
    }
  }
  if (core::Status s = finish_stream(); !s.ok()) return s;
  if (!stats_seen || !admission_seen) {
    return core::Status::InvalidArgument(
        "snapshot is missing its service accounting records");
  }
  if (streams_.size() != header.aux) {
    return core::Status::InvalidArgument(
        "snapshot header stream count does not match its stream records");
  }
  if (snapshot.watermark !=
      restored_stats.elements_observed + restored_stats.elements_shed) {
    return core::Status::InvalidArgument(
        "snapshot watermark does not cover the restored service state");
  }

  // Reinstate admission accounting: the backlog is exactly the re-staged
  // partial windows; shed counts come from the snapshot.
  std::vector<std::size_t> backlog(shards_.size(), 0);
  for (const auto& state : streams_) {
    backlog[state->shard] += state->batcher.buffered();
  }
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    admission_.RestoreShard(s, backlog[s], shard_shed[s]);
  }

  const std::uint64_t streams = stats_.streams;  // set by Register
  stats_ = restored_stats;
  stats_.streams = streams;
  windows_merged_.store(restored_stats.windows_merged,
                        std::memory_order_relaxed);

  // Re-seed the live counters so metric exports stay continuous across
  // restarts (gauges refresh on their own).
  if (obs_.metrics != nullptr) {
    if (stats_.elements_observed > 0) {
      obs_.metrics->Add(m_observed_, stats_.elements_observed);
    }
    if (stats_.elements_shed > 0) obs_.metrics->Add(m_shed_, stats_.elements_shed);
    if (stats_.batches_dispatched > 0) {
      obs_.metrics->Add(m_batches_, stats_.batches_dispatched);
    }
    if (stats_.windows_merged > 0) {
      obs_.metrics->Add(m_windows_, stats_.windows_merged);
    }
    for (const auto& state : streams_) {
      if (state->observed > 0) {
        obs_.metrics->Add(state->tenant_observed, state->observed);
      }
      if (state->shed > 0) obs_.metrics->Add(state->tenant_shed, state->shed);
    }
  }
  return core::Status::Ok();
}

ServiceStats StreamService::stats() const {
  ServiceStats out = stats_;
  out.windows_merged = windows_merged_.load(std::memory_order_relaxed);
  return out;
}

}  // namespace streamgpu::service
