#include "core/hhh_estimator.h"

#include <cmath>

#include "common/check.h"
#include "common/timer.h"
#include "gpu/half.h"
#include "hwmodel/hardware_profiles.h"

namespace streamgpu::core {

namespace {

// Validates user-provided options at the API boundary.
const Options& ValidatedOptions(const Options& options) {
  STREAMGPU_CHECK_MSG(options.epsilon > 0.0 && options.epsilon < 1.0,
                      "epsilon must be in (0, 1)");
  return options;
}

}  // namespace

HhhEstimator::HhhEstimator(const Options& options, int levels, double branch)
    : options_(ValidatedOptions(options)),
      engine_(options),
      // engine_ is declared (and therefore initialized) before batcher_.
      batcher_(options.window_size != 0
                   ? options.window_size
                   : static_cast<std::uint64_t>(std::ceil(1.0 / options.epsilon)),
               engine_.batch_windows()),
      hhh_(options.epsilon, levels, branch),
      cpu_model_(hwmodel::kPentium4_3400),
      executor_({}, {&engine_.sorter()},
                [this](stream::WindowBatch& batch) { return MergeBatch(batch); }) {
  STREAMGPU_CHECK_MSG(options.sliding_window == 0,
                      "hierarchical heavy hitters support whole-history queries only");
  STREAMGPU_CHECK_MSG(batcher_.window_size() <= hhh_.window_width(),
                      "window_size must not exceed ceil(1/epsilon)");
}

void HhhEstimator::Observe(float value) {
  if (engine_.is_gpu() && options_.gpu_format == gpu::Format::kFloat16) {
    value = gpu::QuantizeToHalf(value);
  }
  if (batcher_.Push(value)) executor_.SubmitStaged(batcher_);
}

void HhhEstimator::ObserveBatch(std::span<const float> values) {
  for (float v : values) Observe(v);
}

void HhhEstimator::Flush() {
  if (!batcher_.empty()) executor_.SubmitStaged(batcher_);
}

Status HhhEstimator::MergeBatch(stream::WindowBatch& batch) {
  costs_.sort += batch.run;
  batch.ForEachWindow([this](const stream::WindowChunk&, std::span<float> window, bool) {
    Timer hist_timer;
    hhh_.AddSortedWindow(window);
    costs_.histogram_wall_seconds += hist_timer.ElapsedSeconds();
    // One linear histogram scan per hierarchy level, all off the same sort.
    costs_.histogram_elements +=
        window.size() * (static_cast<std::uint64_t>(hhh_.levels()) + 1);
  });
  return Status::Ok();
}

std::uint64_t HhhEstimator::EstimateCount(float prefix, int level) const {
  if (level == 0 && engine_.is_gpu() && options_.gpu_format == gpu::Format::kFloat16) {
    prefix = gpu::QuantizeToHalf(prefix);
  }
  return hhh_.EstimateCount(prefix, level);
}

}  // namespace streamgpu::core
