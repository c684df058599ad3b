// Backend factory: owns the simulated GPU device (for the GPU backends) and
// the Sorter instance the estimators drive, plus SortStack, the one place
// that wraps that sorter in its fault-injection, recovery, and tracing
// decorators for the estimators and the service alike.

#ifndef STREAMGPU_CORE_BACKEND_H_
#define STREAMGPU_CORE_BACKEND_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "core/fault.h"
#include "core/instrumentation.h"
#include "core/options.h"
#include "gpu/device.h"
#include "hwmodel/sort_planner.h"
#include "sort/radix_sort.h"
#include "sort/resilient.h"
#include "sort/sorter.h"

namespace streamgpu::core {

/// A ready-to-use sorting engine for one estimator.
class SortEngine {
 public:
  /// Builds the sorter (and, for GPU backends, the simulated device) for
  /// `options`. Hardware profiles are the paper's testbed (GeForce 6800
  /// Ultra / 3.4 GHz Pentium IV).
  explicit SortEngine(const Options& options);

  sort::Sorter& sorter() { return *sorter_; }
  const sort::Sorter& sorter() const { return *sorter_; }

  /// True for the GPU-backed configurations.
  bool is_gpu() const { return device_ != nullptr; }

  /// The simulated device (GPU backends only; nullptr otherwise).
  gpu::GpuDevice* device() { return device_.get(); }
  const gpu::GpuDevice* device() const { return device_.get(); }

  /// Number of windows worth buffering per sort batch: four for the PBSN
  /// backend (one per RGBA channel, §4.1), one otherwise.
  int batch_windows() const { return batch_windows_; }

  /// The cost-model planner (Backend::kAuto only; nullptr otherwise).
  const hwmodel::SortPlanner* planner() const { return planner_.get(); }

 private:
  std::unique_ptr<gpu::GpuDevice> device_;
  // kAuto only: the concrete candidates the planned sorter dispatches to,
  // and the immutable planner they share. Declared before sorter_ so the
  // dispatcher is destroyed before the sorters it borrows.
  std::vector<std::unique_ptr<sort::Sorter>> candidate_sorters_;
  std::unique_ptr<hwmodel::SortPlanner> planner_;
  std::unique_ptr<sort::Sorter> sorter_;
  int batch_windows_ = 1;
};

/// One sort worker's sorter stack, built in a fixed order: engine -> fault
/// injector (hooked into the engine's device) -> ResilientSorter ->
/// TracingSorter. The fault layers exist only when Options::fault is
/// enabled and the tracing layer only when Options::obs wires a sink;
/// front() is the outermost layer present. Recovery sits inside tracing, so
/// retried sorts appear in the trace as the longer sort spans they are.
class SortStack {
 public:
  /// `stream_id` seeds the fault injector: 0 for the serial path, i + 1 for
  /// worker i (decorrelated fault sequences, each reproducible;
  /// docs/ROBUSTNESS.md). `prefix` scopes the decorators' metric names
  /// ("freq", "quant", "service").
  SortStack(const Options& options, std::uint64_t stream_id, const char* prefix);

  SortStack(const SortStack&) = delete;
  SortStack& operator=(const SortStack&) = delete;

  /// The sorter to drive: the outermost decorator, or the engine's sorter.
  sort::Sorter& front() { return *front_; }

  const SortEngine& engine() const { return engine_; }

  /// The stack's fault injector (null without a fault plan); the executor
  /// polls it for the queue fault site.
  FaultInjector* injector() { return injector_.get(); }

  /// Faults fired and recoveries made by this stack (zero without a plan;
  /// quarantine is counted drain-side, from the summary cores).
  FaultStats fault_stats() const;

 private:
  SortEngine engine_;
  std::unique_ptr<FaultInjector> injector_;
  std::unique_ptr<sort::RadixMergeSorter> fallback_;
  std::unique_ptr<sort::ResilientSorter> resilient_;
  std::unique_ptr<TracingSorter> traced_;
  sort::Sorter* front_ = nullptr;
};

/// Builds max(1, workers) SortStacks — one per executor worker, each with
/// its own engine and therefore, on the GPU backends, its own simulated
/// device, so GpuStats accounting never races across threads. A single
/// stack is the serial path (injector stream id 0); with two or more,
/// stack i is worker i (stream id i + 1).
std::vector<std::unique_ptr<SortStack>> MakeSortStacks(const Options& options,
                                                       int workers,
                                                       const char* prefix);

}  // namespace streamgpu::core

#endif  // STREAMGPU_CORE_BACKEND_H_
