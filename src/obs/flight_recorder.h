// FlightRecorder: an always-on, fixed-size ring of recent structured events
// from the sort/pipeline path — which backend the planner chose, batch
// submit/sort/drain progress, queue depths, injected faults, and every
// retry/fallback/quarantine decision. When something goes terminally wrong
// (ResilientSorter quarantines a window, the pipeline drain latches its
// sticky failure), the recorder dumps the ring to a JSON artifact so the
// failure is diagnosable from one file instead of re-run under a debugger.
//
// Recording is deliberately cheap and allocation-free: an event is six
// plain fields written into a preallocated ring under a leaf mutex. `stage`
// and `label` MUST point at static-storage strings (backend names,
// FaultSiteName()/FaultKindName() results, string literals) — the recorder
// stores the pointers, not copies.
//
// Determinism: events carry no wall-clock timestamps, only logical sequence
// numbers supplied by the caller (window index, fault op index), so a fixed
// seed in serial mode produces a byte-identical dump (tests/telemetry_test.cc
// pins this).

#ifndef STREAMGPU_OBS_FLIGHT_RECORDER_H_
#define STREAMGPU_OBS_FLIGHT_RECORDER_H_

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <mutex>
#include <string>
#include <vector>

namespace streamgpu::obs {

/// What happened. Names (FlightEventKindName) appear verbatim in dumps.
enum class FlightEventKind : std::uint8_t {
  kBackendChosen,      ///< planner dispatched a run group; a = runs in group
  kBatchSubmitted,     ///< pipeline accepted a batch; a = queue depth after
  kBatchSorted,        ///< a sorter finished a batch; a = elements, b = runs
  kBatchDrained,       ///< drain consumed a batch; a = batches drained so far
  kQueueStall,         ///< injected queue stall fired; a = stall micros
  kFaultInjected,      ///< FaultInjector fired a rule; seq = site op index
  kSortRetry,          ///< ResilientSorter retrying; a = attempt, b = pending
  kDeviceLost,         ///< device-lost latched; a = consecutive losses
  kCpuFallback,        ///< batch re-sorted on the CPU; a = pending windows
  kDegraded,           ///< permanent CPU degrade after repeated device loss
  kWindowQuarantined,  ///< window dropped; a = window index (in its sort
                       ///< call for stage "sort", in its stream for stage
                       ///< "drain"), b = elements
  kDrainFailed,        ///< pipeline drain latched its sticky failure
  kLoadShed,           ///< service admission dropped arrivals; a = elements, b = backlog
  kSummaryMerged,      ///< cross-shard summary merge answered; a = shards, b = coverage
  kCheckpointWritten,  ///< durable snapshot committed; a = bytes, b = watermark
  kRestored,           ///< state restored from a checkpoint; a = records, b = watermark
};

const char* FlightEventKindName(FlightEventKind kind);

/// One ring entry. POD; `stage`/`label` are borrowed static strings.
struct FlightEvent {
  std::uint64_t index = 0;  ///< monotone global event number (survives wrap)
  FlightEventKind kind = FlightEventKind::kBatchSubmitted;
  const char* stage = "";  ///< where: "sort", "plan", "pipeline", fault site
  const char* label = "";  ///< who: backend name, fault kind, ...
  std::uint64_t seq = 0;   ///< logical sequence (window / batch / op index)
  std::int64_t a = 0;      ///< kind-specific payload (see enum comments)
  std::int64_t b = 0;
};

/// Thread-safe fixed-capacity event ring with JSON dump-on-demand.
class FlightRecorder {
 public:
  static constexpr std::size_t kDefaultCapacity = 512;

  explicit FlightRecorder(std::size_t capacity = kDefaultCapacity);

  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  /// Where Dump() writes. Empty (the default) turns Dump() into a counted
  /// no-op, so instrumentation can call it unconditionally.
  void set_dump_path(std::string path);
  const std::string& dump_path() const { return dump_path_; }

  /// Appends one event, overwriting the oldest once the ring is full.
  void Record(FlightEventKind kind, const char* stage, const char* label,
              std::uint64_t seq = 0, std::int64_t a = 0, std::int64_t b = 0);

  /// Writes the ring (oldest event first) as JSON to the dump path via
  /// write-to-temp + atomic rename. `reason` is recorded in the artifact.
  /// Returns false when no path is set or the write fails.
  bool Dump(const char* reason);

  /// Dump() to an explicit stream (tests, CLI shutdown dump).
  void WriteJson(std::FILE* f, const char* reason) const;

  /// Events recorded since construction (monotone; >= events retained).
  std::uint64_t total_events() const;

  /// Successful Dump() calls so far.
  std::uint64_t dumps() const { return dumps_.load(std::memory_order_relaxed); }

  /// Oldest-first copy of the retained events (tests).
  std::vector<FlightEvent> Events() const;

  std::size_t capacity() const { return ring_.size(); }

 private:
  void WriteJsonLocked(std::FILE* f, const char* reason) const;

  mutable std::mutex mu_;
  std::vector<FlightEvent> ring_;
  std::uint64_t next_index_ = 0;  // total events ever recorded
  std::string dump_path_;
  std::atomic<std::uint64_t> dumps_{0};
};

}  // namespace streamgpu::obs

#endif  // STREAMGPU_OBS_FLIGHT_RECORDER_H_
