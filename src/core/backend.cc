#include "core/backend.h"

#include <string>

#include "common/check.h"
#include "hwmodel/hardware_profiles.h"
#include "sort/bitonic_gpu.h"
#include "sort/cpu_sort.h"
#include "sort/pbsn_gpu.h"
#include "sort/planned.h"
#include "sort/radix_sort.h"
#include "sort/sample_sort.h"

namespace streamgpu::core {

SortEngine::SortEngine(const Options& options) {
  switch (options.backend) {
    case Backend::kGpuPbsn: {
      device_ = std::make_unique<gpu::GpuDevice>();
      sort::PbsnOptions pbsn;
      pbsn.format = options.gpu_format;
      sorter_ = std::make_unique<sort::PbsnGpuSorter>(
          device_.get(), hwmodel::kGeForce6800Ultra, hwmodel::kPentium4_3400, pbsn);
      batch_windows_ = gpu::kNumChannels;
      break;
    }
    case Backend::kGpuBitonic:
      device_ = std::make_unique<gpu::GpuDevice>();
      sorter_ = std::make_unique<sort::BitonicGpuSorter>(
          device_.get(), hwmodel::kGeForce6800Ultra, options.gpu_format);
      break;
    case Backend::kCpuQuicksort:
      sorter_ = std::make_unique<sort::QuicksortSorter>(hwmodel::kPentium4_3400);
      break;
    case Backend::kCpuStdSort:
      sorter_ = std::make_unique<sort::StdSortSorter>(hwmodel::kPentium4_3400);
      break;
    case Backend::kCpuRadixMerge:
      sorter_ = std::make_unique<sort::RadixMergeSorter>(hwmodel::kPentium4_3400);
      break;
    case Backend::kSampleSort:
      sorter_ = std::make_unique<sort::SampleSortSorter>(hwmodel::kPentium4_3400);
      break;
    case Backend::kAuto: {
      // Candidate pool: the paper's GPU sort plus the two second-generation
      // host sorts and the paper's CPU baseline. Candidate order is the
      // deterministic tiebreak.
      device_ = std::make_unique<gpu::GpuDevice>();
      sort::PbsnOptions pbsn;
      pbsn.format = options.gpu_format;
      candidate_sorters_.push_back(std::make_unique<sort::PbsnGpuSorter>(
          device_.get(), hwmodel::kGeForce6800Ultra, hwmodel::kPentium4_3400,
          pbsn));
      candidate_sorters_.push_back(
          std::make_unique<sort::SampleSortSorter>(hwmodel::kPentium4_3400));
      candidate_sorters_.push_back(
          std::make_unique<sort::RadixMergeSorter>(hwmodel::kPentium4_3400));
      candidate_sorters_.push_back(
          std::make_unique<sort::QuicksortSorter>(hwmodel::kPentium4_3400));
      const std::vector<hwmodel::SortBackend> kinds = {
          hwmodel::SortBackend::kGpuPbsn, hwmodel::SortBackend::kSampleSort,
          hwmodel::SortBackend::kCpuRadixMerge,
          hwmodel::SortBackend::kCpuQuicksort};
      hwmodel::SortPlannerConfig config;
      config.memcpy_ns_per_byte = options.planner.memcpy_ns_per_byte;
      const hwmodel::PlanObjective objective =
          options.planner.objective == PlannerConfig::Objective::kSimulated2005
              ? hwmodel::PlanObjective::kSimulated2005
              : hwmodel::PlanObjective::kHostWall;
      planner_ =
          std::make_unique<hwmodel::SortPlanner>(config, objective, kinds);
      std::vector<sort::PlannedSorter::Candidate> candidates;
      for (std::size_t i = 0; i < kinds.size(); ++i) {
        candidates.push_back({kinds[i], candidate_sorters_[i].get()});
      }
      sorter_ = std::make_unique<sort::PlannedSorter>(
          planner_.get(), std::move(candidates), options.obs, "sort.");
      // Keep the four-window RGBA batching so the PBSN candidate packs
      // channels when the planner picks it.
      batch_windows_ = gpu::kNumChannels;
      break;
    }
  }
  STREAMGPU_CHECK(sorter_ != nullptr);
}

SortStack::SortStack(const Options& options, std::uint64_t stream_id,
                     const char* prefix)
    : engine_(options) {
  front_ = &engine_.sorter();
  const obs::Observability& obs = options.obs;
  if (options.fault.enabled()) {
    const FaultTolerance& fault = options.fault;
    injector_ = std::make_unique<FaultInjector>(fault.plan, stream_id);
    injector_->set_flight_recorder(obs.flight);
    if (engine_.device() != nullptr) engine_.device()->set_fault_hook(injector_.get());
    if (fault.cpu_fallback) {
      fallback_ = std::make_unique<sort::RadixMergeSorter>(hwmodel::kPentium4_3400);
    }
    sort::ResilienceOptions recovery;
    recovery.max_retries = fault.max_retries;
    recovery.max_device_losses = fault.max_device_losses;
    recovery.cpu_fallback = fault.cpu_fallback;
    recovery.backoff_initial_us = fault.backoff_initial_us;
    recovery.backoff_max_us = fault.backoff_max_us;
    resilient_ = std::make_unique<sort::ResilientSorter>(
        front_, fallback_.get(), engine_.device(), injector_.get(), obs,
        std::string(prefix) + ".", recovery);
    front_ = resilient_.get();
  }
  if (obs.any()) {
    traced_ = std::make_unique<TracingSorter>(front_, engine_.device(), obs, prefix);
    front_ = traced_.get();
  }
}

FaultStats SortStack::fault_stats() const {
  FaultStats stats;
  if (injector_ != nullptr) stats.faults_injected = injector_->fires();
  if (resilient_ != nullptr) {
    stats.sort_retries = resilient_->stats().sort_retries;
    stats.cpu_fallbacks = resilient_->stats().cpu_fallbacks;
  }
  return stats;
}

std::vector<std::unique_ptr<SortStack>> MakeSortStacks(const Options& options,
                                                       int workers,
                                                       const char* prefix) {
  std::vector<std::unique_ptr<SortStack>> stacks;
  if (workers < 2) {
    stacks.push_back(std::make_unique<SortStack>(options, /*stream_id=*/0, prefix));
    return stacks;
  }
  stacks.reserve(static_cast<std::size_t>(workers));
  for (int i = 0; i < workers; ++i) {
    stacks.push_back(std::make_unique<SortStack>(options, i + 1, prefix));
  }
  return stacks;
}

}  // namespace streamgpu::core
