// ResilientSorter: a self-verifying, self-healing wrapper around any sort
// backend.
//
// The paper's design trusts every GPU window sort; a single corrupted or
// dropped window would silently poison the downstream summaries. This
// wrapper closes that gap with a cheap O(n) post-sort guard and a bounded
// recovery policy:
//
//   snapshot inputs -> inner sort -> verify (sortedness + order-independent
//   multiset fingerprint) -> on failure: restore + retry with exponential
//   backoff -> on exhaustion: CPU-fallback sort, or quarantine the window.
//
// Repeated device loss permanently degrades the wrapper to the CPU fallback
// (the worker's device is considered gone). Quarantined runs are restored to
// their pre-sort contents and flagged in last_quarantine_mask(); the caller
// (the window executor's drain) skips them and widens its reported error bound instead of
// ingesting garbage. See docs/ROBUSTNESS.md.

#ifndef STREAMGPU_SORT_RESILIENT_H_
#define STREAMGPU_SORT_RESILIENT_H_

#include <cstdint>
#include <span>
#include <vector>

#include "gpu/device.h"
#include "gpu/fault_hook.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/observability.h"
#include "obs/trace.h"
#include "sort/sorter.h"

namespace streamgpu::sort {

/// Recovery policy knobs (mirrors core::FaultTolerance; duplicated here so
/// sort/ does not depend on core/).
struct ResilienceOptions {
  int max_retries = 3;        ///< re-sorts of a failed batch before giving up
  int max_device_losses = 2;  ///< consecutive losses at which the worker degrades to CPU
  bool cpu_fallback = true;   ///< fall back to `fallback` instead of quarantining
  unsigned backoff_initial_us = 100;
  unsigned backoff_max_us = 10000;
};

/// Verifies and heals an inner sorter. Batches are limited to 64 runs (the
/// quarantine mask width); stream::WindowExecutor groups at most that many.
class ResilientSorter final : public Sorter {
 public:
  /// Recovery/accounting totals since construction.
  struct Stats {
    std::uint64_t faults_injected = 0;  ///< via `hook` (0 when hook is null)
    std::uint64_t sort_retries = 0;
    std::uint64_t cpu_fallbacks = 0;  ///< batches sorted by the fallback
    std::uint64_t windows_quarantined = 0;
    std::uint64_t elements_dropped = 0;
  };

  /// All pointers are borrowed and must outlive the wrapper. `fallback` may
  /// be null (quarantine-only recovery); `device` may be null (CPU inner
  /// backend: no loss detection); `hook` may be null (no injected-fault
  /// accounting). `metric_prefix` namespaces the obs counters (e.g. "freq.").
  ResilientSorter(Sorter* inner, Sorter* fallback, gpu::GpuDevice* device,
                  gpu::DeviceFaultHook* hook, const obs::Observability& obs,
                  const std::string& metric_prefix, const ResilienceOptions& options);

  void Sort(std::span<float> data) override;
  void SortRuns(std::span<std::span<float>> runs) override;

  const SortRunInfo& last_run() const override { return last_run_; }
  std::uint64_t last_quarantine_mask() const override { return quarantine_mask_; }
  const char* name() const override { return inner_->name(); }

  const Stats& stats() const { return stats_; }

  /// True once repeated device loss has permanently degraded this wrapper to
  /// the CPU fallback.
  bool degraded() const { return degraded_; }

 protected:
  void set_last_run(const SortRunInfo& info) override { last_run_ = info; }

 private:
  /// Order-independent multiset fingerprint of `data` (sum of per-element
  /// hashes of the float bit patterns, -0.0 normalized to 0.0 so the GPU
  /// min/max paths' signed-zero behavior never false-positives).
  static std::uint64_t Fingerprint(std::span<const float> data);

  /// True when `data` is ascending with no NaNs and hashes to `fingerprint`.
  static bool Verify(std::span<const float> data, std::uint64_t fingerprint);

  void Backoff(int attempt) const;

  Sorter* const inner_;
  Sorter* const fallback_;
  gpu::GpuDevice* const device_;
  gpu::DeviceFaultHook* const hook_;
  obs::TraceRecorder* const trace_;
  obs::MetricsRegistry* const metrics_;
  obs::FlightRecorder* const flight_;
  const ResilienceOptions options_;

  obs::MetricId m_injected_ = obs::kInvalidMetric;
  obs::MetricId m_retries_ = obs::kInvalidMetric;
  obs::MetricId m_fallbacks_ = obs::kInvalidMetric;
  obs::MetricId m_quarantined_ = obs::kInvalidMetric;

  SortRunInfo last_run_;
  std::uint64_t quarantine_mask_ = 0;
  Stats stats_;
  std::uint64_t last_hook_fires_ = 0;
  int consecutive_losses_ = 0;
  bool degraded_ = false;
  std::uint64_t batch_index_ = 0;

  // Reused across batches: pre-sort snapshot of all runs (contiguous),
  // per-run offsets into it, per-run fingerprints, per-run failure flags,
  // and the span list handed to the inner/fallback sorter.
  std::vector<float> snapshot_;
  std::vector<std::size_t> offsets_;
  std::vector<std::uint64_t> fingerprints_;
  std::vector<char> failed_;
  std::vector<std::span<float>> pending_;
};

}  // namespace streamgpu::sort

#endif  // STREAMGPU_SORT_RESILIENT_H_
