// StreamService: multi-tenant stream-mining service multiplexing up to
// hundreds of thousands of registered streams onto ONE shared worker pool.
//
// The paper's estimators assume one pipeline per stream; at DSMS scale (§1:
// "thousands of continuous queries over hundreds of data streams") that is a
// thread pool per stream — untenable at 100k streams. The service instead
// shards streams by key onto a fixed set of ingress shards, coalesces small
// per-stream writes into per-shard micro-batches, and dispatches those
// batches to one stream::WindowExecutor — the same executor the dedicated
// estimators run on: one queue operation and one sorter invocation amortize
// across many streams, so aggregate ingest throughput tracks the worker
// count, not the stream count.
//
// Per-stream answers stay bit-identical to a dedicated estimator pipeline:
// both sides delegate summary maintenance to the same
// core::{Quantile,Frequency}SummaryCore, every backend sorts a window to the
// same permutation regardless of batching, and the executor's ordered
// drain merges each stream's windows in ingest order (docs/SERVICE.md,
// "Bit-identity"). Sorters come from the same core::SortStack as the
// estimators', so a window the sorter cannot recover is quarantined and
// widens its stream's bound instead of aborting the service.
//
// Admission control (the §1 load-shedding DSMS frontend, live): each shard's
// backlog of admitted-but-undispatched elements is bounded by
// stream::AdmissionController. Under AdmissionPolicy::kShed, arrivals beyond
// the cap are dropped newest-first, per-stream shed counts are surfaced in
// reports (QuantileReport::elements_shed), and the reported error bound
// widens by the shed count — the answer's guarantee stays honest under
// overload, exactly like quarantined windows.
//
// Thread contract:
//  * Register/Append/Flush/FlushAll/WaitIdle/Pause/Resume: one ingest thread.
//  * Queries (Quantile/HeavyHitters/EstimateCount/BatchQuantiles) may run
//    concurrently with Append from other threads — they briefly take the
//    owning shard's summary lock, never stalling ingest on other shards —
//    but not concurrently with Register (registration mutates the registry).
//  * Query answers cover the windows drained so far; call FlushAll() +
//    WaitIdle() first for answers over everything appended.

#ifndef STREAMGPU_SERVICE_STREAM_SERVICE_H_
#define STREAMGPU_SERVICE_STREAM_SERVICE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "core/backend.h"
#include "core/options.h"
#include "core/report.h"
#include "core/status.h"
#include "core/summary_core.h"
#include "durable/checkpoint.h"
#include "obs/metrics.h"
#include "obs/observability.h"
#include "sketch/quantile_sketch.h"
#include "stream/dsms.h"
#include "stream/window_buffer.h"
#include "stream/window_executor.h"

namespace streamgpu::service {

/// Identity of one registered stream: tenant plus stream id within the
/// tenant. Tenants exist for metric labeling and reporting; isolation is
/// per-stream.
struct StreamKey {
  std::uint64_t tenant = 0;
  std::uint64_t stream = 0;

  friend bool operator==(const StreamKey& a, const StreamKey& b) {
    return a.tenant == b.tenant && a.stream == b.stream;
  }
};

struct StreamKeyHash {
  std::size_t operator()(const StreamKey& key) const {
    // splitmix64 finalizer over the combined words: cheap, well-mixed, and
    // deterministic across platforms (shard assignment must be stable).
    std::uint64_t x = key.tenant * 0x9E3779B97F4A7C15ull ^ key.stream;
    x ^= x >> 30;
    x *= 0xBF58476D1CE4E5B9ull;
    x ^= x >> 27;
    x *= 0x94D049BB133111EBull;
    x ^= x >> 31;
    return static_cast<std::size_t>(x);
  }
};

/// Per-stream approximation configuration — the subset of core::Options that
/// is a property of the stream rather than of the shared execution engine.
struct StreamConfig {
  /// Rank / frequency error bound: at most epsilon * N.
  double epsilon = 0.001;

  /// Elements per processing window; 0 = the natural width (see
  /// core::NaturalQuantileWindow). Must equal a dedicated estimator's
  /// resolved window for bit-identical answers (it does by construction
  /// when both sides use the same Options fields).
  std::uint64_t window_size = 0;

  /// Sliding-window width W; 0 = whole-history queries.
  std::uint64_t sliding_window = 0;

  /// A-priori stream length for the whole-history quantile structure; 0 =
  /// provision generously.
  std::uint64_t expected_stream_length = 0;

  /// Whole-history quantile backend (sketch/quantile_sketch.h). Non-GK
  /// kinds are rejected when combined with a sliding window, mirroring
  /// core::Options::Validate().
  sketch::QuantileSketchKind quantile_sketch = sketch::QuantileSketchKind::kGk;

  /// Which summaries to maintain. One sorted pass serves both: tracking
  /// both costs one sort plus two merges per window.
  bool track_quantiles = true;
  bool track_frequencies = false;
};

/// Shared execution-engine configuration for one StreamService.
struct ServiceConfig {
  /// Sorting backend shared by every stream (one Sorter per worker). The
  /// host radix/merge backend is the aggregate-throughput default; any
  /// backend is valid — answers are backend-independent by the determinism
  /// contract (the GPU f16 path additionally quantizes at ingest).
  core::Backend backend = core::Backend::kCpuRadixMerge;

  /// Planner knobs for Backend::kAuto.
  core::PlannerConfig planner;

  /// Texture precision for the GPU backends (kFloat16 quantizes ingest).
  gpu::Format gpu_format = gpu::Format::kFloat16;

  /// Sort workers in the shared pool. 1 = synchronous dispatch on the
  /// ingest thread (no threads spawned); >= 2 runs the executor threaded.
  int num_workers = 1;

  /// Ingress shards streams hash onto. 0 = 4 * num_workers (enough
  /// dispatch granularity to keep every worker busy).
  int num_shards = 0;

  /// Elements a shard coalesces before dispatching one micro-batch.
  /// 0 = 64k. Larger batches amortize more per dispatch; smaller ones
  /// bound per-stream merge latency.
  std::size_t shard_batch_elements = 0;

  /// Executor backpressure cap in shard batches; 0 = num_workers + 2.
  int max_batches_in_flight = 0;

  /// What Append() does when a shard's ingress backlog is full: kBlock
  /// (default) relies on executor backpressure; kShed drops the excess
  /// and widens the affected streams' error bounds (docs/SERVICE.md).
  stream::AdmissionPolicy admission = stream::AdmissionPolicy::kBlock;

  /// Per-shard backlog cap in elements (kShed only).
  std::size_t shard_ingress_capacity = std::size_t{1} << 20;

  /// Distinct tenants given their own labeled metric series
  /// ("service.tenant.*"{tenant="..."}); later tenants share the "~other"
  /// series. Bounds registry slot usage (obs::MetricsRegistry::kMaxCounters
  /// is a hard cap the registry aborts at).
  std::size_t max_tenant_metric_series = 32;

  /// Observability sinks (borrowed; null = disabled).
  obs::Observability obs;

  /// First configuration error, or OK.
  core::Status Validate() const;
};

/// Aggregate service accounting (point-in-time; single ingest thread).
struct ServiceStats {
  std::uint64_t streams = 0;
  std::uint64_t elements_observed = 0;  ///< admitted into stream staging
  std::uint64_t elements_shed = 0;      ///< dropped by admission control
  std::uint64_t batches_dispatched = 0;
  std::uint64_t windows_merged = 0;
};

/// Multi-tenant stream-mining service. See the file comment for the model
/// and docs/SERVICE.md for the full guide.
class StreamService {
 public:
  /// Validated construction; the returned service is never null on ok().
  static core::StatusOr<std::unique_ptr<StreamService>> Create(
      const ServiceConfig& config);

  /// CHECK-aborts on invalid config; prefer Create().
  explicit StreamService(const ServiceConfig& config);

  /// Finishes in-flight work, then joins the pool. Appended-but-unflushed
  /// elements still buffered in stream staging are discarded — call
  /// FlushAll() first when final answers matter.
  ~StreamService();

  StreamService(const StreamService&) = delete;
  StreamService& operator=(const StreamService&) = delete;

  /// Registers a stream. Returns kFailedPrecondition when the key already
  /// exists, or the StreamConfig's validation error. Registration is cheap
  /// (no window buffer is reserved until the first append), so hundreds of
  /// thousands of mostly-idle streams stay in bounded memory.
  core::Status Register(const StreamKey& key, const StreamConfig& config);

  bool Contains(const StreamKey& key) const {
    return index_.find(key) != index_.end();
  }
  std::size_t num_streams() const { return streams_.size(); }

  /// Appends elements to one stream. Returns the number admitted (always
  /// values.size() under kBlock; possibly fewer under kShed — the admitted
  /// count is the exact prefix of `values` that entered the stream, so a
  /// caller can mirror it elsewhere). Returns kInvalidArgument for an
  /// unknown key or for a call that holds a NaN (naming the first; none of
  /// the call is admitted or shed), kFailedPrecondition after Flush(key), or
  /// the executor's sticky failure.
  core::StatusOr<std::size_t> Append(const StreamKey& key,
                                     std::span<const float> values);

  /// Finalizes one stream: its buffered partial window is dispatched (as
  /// the stream's final, possibly partial, window), its staging storage is
  /// freed and further appends are rejected. Idempotent. Does not wait —
  /// call WaitIdle() before relying on the final answer.
  core::Status Flush(const StreamKey& key);

  /// Finalizes every stream, dispatches all pending shard batches, and
  /// waits for the pool to drain. After an OK return, every query answers
  /// over everything ever admitted, and the service holds no staging or
  /// batch storage: only its registry and summaries. Streams registered
  /// afterwards ingest as usual.
  core::Status FlushAll();

  /// Dispatches every pending shard batch without finalizing any stream
  /// (partial windows stay staged), then waits for the pool to drain.
  core::Status WaitIdle();

  /// Maintenance / test control: while paused, filled shard batches
  /// accumulate at the ingress (bounded by the admission policy) instead of
  /// dispatching. Resume dispatches every batch that reached the dispatch
  /// threshold while paused.
  void PauseDispatch() { paused_ = true; }
  core::Status ResumeDispatch();

  /// The phi-quantile of one stream over the windows drained so far. The
  /// report's error bound includes quarantine and shed widening; its
  /// elements_shed field carries the stream's shed count explicitly.
  /// Returns kInvalidArgument for phi outside (0, 1] (NaN included), an
  /// unknown key or a stream that does not track quantiles.
  core::StatusOr<core::QuantileReport> Quantile(const StreamKey& key, double phi,
                                                std::uint64_t window = 0) const;

  /// Heavy hitters of one stream (requires track_frequencies).
  core::StatusOr<core::FrequencyReport> HeavyHitters(
      const StreamKey& key, double support, std::uint64_t window = 0) const;

  /// Estimated frequency of `value` in one stream (requires
  /// track_frequencies). The value is quantized through binary16 first on
  /// the GPU f16 path, mirroring ingest.
  core::StatusOr<std::uint64_t> EstimateCount(const StreamKey& key, float value,
                                              std::uint64_t window = 0) const;

  /// Serializes one stream's mergeable quantile summary as a wire envelope
  /// (sketch/serialize.h) — the shard export `streamgpu_cli merge` and the
  /// combiners consume. Taken under the owning shard's summary lock, so it
  /// snapshots a consistent summary concurrent with ingest; call FlushAll()
  /// first for a summary over everything appended. Returns
  /// kInvalidArgument for an unknown key or a stream that does not track
  /// quantiles, kFailedPrecondition for sliding mode (not mergeable).
  core::StatusOr<std::vector<std::uint8_t>> ExportQuantileSummary(
      const StreamKey& key) const;

  /// Cross-shard query: merges the named streams' summaries and answers the
  /// phi-quantile over the union of their elements — the scale-out path
  /// where one logical stream was partitioned across keys. Every stream's
  /// quarantine/shed accounting is summed into the report, so the stated
  /// bound stays honest over the union. The merge is performed over
  /// serialized exports in canonical order (sketch/combiner.h), so the
  /// answer is bit-identical regardless of key order. All streams must
  /// track quantiles in whole-history mode with the same backend kind (and,
  /// KLL, the same epsilon). Returns kInvalidArgument for phi outside
  /// (0, 1] (NaN included).
  core::StatusOr<core::QuantileReport> MergedQuantile(
      std::span<const StreamKey> keys, double phi) const;

  /// Batch query: the phi-quantile of every key, in order. Groups keys by
  /// shard and takes each shard's summary lock once, so snapshotting
  /// thousands of reports costs one lock round per shard, not per stream.
  /// Every key must be registered and track quantiles (CHECKed), and phi
  /// must be in (0, 1]: unlike Quantile, this call has no Status to reject
  /// it with, so validate phi first (a GK stream CHECK-fails on it).
  std::vector<core::QuantileReport> BatchQuantiles(
      std::span<const StreamKey> keys, double phi,
      std::uint64_t window = 0) const;

  /// Snapshots the whole service — every registered stream's configuration,
  /// summary cores, staged partial window, observed/shed watermarks, plus
  /// the admission controller's shed accounting and the aggregate stats —
  /// into `writer` as one crash-consistent snapshot (docs/DURABILITY.md).
  /// Waits for in-flight shard batches first (WaitIdle), so the snapshot is
  /// a consistent cut; like Register, it must not run concurrently with
  /// queries. Fails with kFailedPrecondition when any stream is in sliding
  /// mode (not checkpointable).
  core::Status Checkpoint(durable::CheckpointWriter* writer);

  /// Rebuilds a service from the newest usable snapshot in `dir`:
  /// re-registers every stream (same indices and shard assignment — both
  /// are deterministic), reinstalls its summary cores and staged partial
  /// windows, and reinstates shed/admission/stats accounting, so reports
  /// and exports are bit-identical to the checkpointed service after the
  /// caller replays each stream's un-checkpointed suffix (the elements past
  /// observed + shed). kFailedPrecondition when `dir` holds no usable
  /// checkpoint (callers typically start fresh); kInvalidArgument when the
  /// snapshot is corrupt or disagrees with `config` — never a crash.
  static core::StatusOr<std::unique_ptr<StreamService>> RestoreFrom(
      const ServiceConfig& config, const std::string& dir);

  /// Elements ever offered to one stream (admitted + shed) — the replay
  /// cursor for durable restore: after RestoreFrom, the caller re-appends
  /// each stream's source suffix past this point. kInvalidArgument for an
  /// unknown key.
  core::StatusOr<std::uint64_t> OfferedLength(const StreamKey& key) const {
    const StreamState* state = Find(key);
    if (state == nullptr) return core::Status::InvalidArgument("unknown stream key");
    return state->observed + state->shed;
  }

  /// Aggregate accounting. Stable after WaitIdle()/FlushAll().
  ServiceStats stats() const;

  /// The admission controller (per-shard backlogs and shed counts).
  const stream::AdmissionController& admission() const { return admission_; }

  const ServiceConfig& config() const { return config_; }
  int num_shards() const { return static_cast<int>(shards_.size()); }
  bool dispatch_paused() const { return paused_; }

 private:
  /// One registered stream. Summary cores are guarded by the owning shard's
  /// summary lock; staging (batcher) belongs to the ingest thread.
  struct StreamState {
    StreamKey key;
    StreamConfig config;  ///< as registered (checkpoint re-registration)
    std::uint32_t index = 0;
    std::uint32_t shard = 0;
    std::uint64_t window_size = 0;
    stream::WindowBatcher batcher;
    std::optional<core::QuantileSummaryCore> quantiles;
    std::optional<core::FrequencySummaryCore> frequencies;
    std::uint64_t observed = 0;  ///< admitted elements
    std::uint64_t shed = 0;      ///< dropped by admission control
    int pending_chunk = -1;      ///< index into the shard's pending chunks
    bool finalized = false;
    obs::MetricId tenant_observed = obs::kInvalidMetric;
    obs::MetricId tenant_shed = obs::kInvalidMetric;

    StreamState(std::uint64_t window, const StreamKey& k)
        : key(k), window_size(window),
          batcher(window, /*batch_windows=*/1, /*lazy_reserve=*/true) {}
  };

  /// One ingress shard: the micro-batch being coalesced (ingest thread) and
  /// the lock serializing summary merges against queries.
  struct Shard {
    stream::WindowBatch pending;
    std::size_t used_chunks = 0;
    mutable std::mutex summary_mu;
  };

  StreamState* Find(const StreamKey& key) const;

  /// Installs a validated snapshot into this freshly constructed service
  /// (RestoreFrom()'s second half).
  core::Status InstallSnapshot(const durable::Snapshot& snapshot);

  /// Moves the stream's completed window (or finalizing partial window)
  /// from its staging buffer into the shard's pending chunk, dispatching
  /// the shard when the micro-batch threshold is reached.
  core::Status StageWindow(StreamState& state, bool final_partial);

  /// Submits (or, single-worker, synchronously processes) a shard's pending
  /// micro-batch.
  core::Status DispatchShard(std::uint32_t shard_index);

  /// The executor's drain: merges every chunk's windows into its stream's
  /// summary cores under the shard's summary lock; quarantined windows are
  /// accounted against their stream instead.
  core::Status MergeBatch(stream::WindowBatch& batch);

  /// Accounts `dropped` shed elements against the stream (summary cores,
  /// counters, flight event).
  void AccountShed(StreamState& state, std::size_t dropped);

  /// The tenant's labeled counter ids, creating them on first use (capped
  /// at max_tenant_metric_series; overflow shares the "~other" series).
  std::pair<obs::MetricId, obs::MetricId> TenantMetrics(std::uint64_t tenant);

  ServiceConfig config_;
  obs::Observability obs_;
  bool quantize_ = false;  ///< GPU f16 path: quantize at ingest
  std::size_t batch_elements_ = 0;

  std::unordered_map<StreamKey, std::uint32_t, StreamKeyHash> index_;
  std::vector<std::unique_ptr<StreamState>> streams_;
  std::vector<std::unique_ptr<Shard>> shards_;

  stream::AdmissionController admission_;
  bool paused_ = false;

  /// Ingest-thread accounting; windows_merged lives separately because the
  /// drain thread increments it (relaxed atomic; exact after WaitIdle()).
  ServiceStats stats_;
  std::atomic<std::uint64_t> windows_merged_{0};

  /// Tenant label cache: tenant id -> (observed, shed) counter ids.
  std::unordered_map<std::uint64_t, std::pair<obs::MetricId, obs::MetricId>>
      tenant_metrics_;
  std::pair<obs::MetricId, obs::MetricId> overflow_tenant_metrics_{
      obs::kInvalidMetric, obs::kInvalidMetric};

  /// Service-level instruments (kInvalidMetric when metrics are unwired).
  obs::MetricId m_observed_ = obs::kInvalidMetric;
  obs::MetricId m_shed_ = obs::kInvalidMetric;
  obs::MetricId m_batches_ = obs::kInvalidMetric;
  obs::MetricId m_windows_ = obs::kInvalidMetric;
  obs::MetricId g_streams_ = obs::kInvalidMetric;
  obs::MetricId s_batch_query_ = obs::kInvalidMetric;
  obs::MetricId m_merge_queries_ = obs::kInvalidMetric;
  obs::MetricId m_merge_shards_ = obs::kInvalidMetric;
  obs::MetricId s_merge_query_ = obs::kInvalidMetric;

  /// One sorter stack per worker (each owning its engine and, on GPU
  /// backends, its simulated device). Declared before the executor so worker
  /// threads stop before the sorters they borrow are destroyed.
  std::vector<std::unique_ptr<core::SortStack>> stacks_;
  std::unique_ptr<stream::WindowExecutor> executor_;
};

}  // namespace streamgpu::service

#endif  // STREAMGPU_SERVICE_STREAM_SERVICE_H_
