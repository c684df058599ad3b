#include "core/summary_core.h"

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/timer.h"
#include "sketch/gk_summary.h"
#include "sketch/histogram.h"
#include "sketch/wire.h"

namespace streamgpu::core {

std::uint64_t NaturalQuantileWindow(double epsilon, std::uint64_t window_size,
                                    std::uint64_t sliding_window) {
  if (window_size != 0) return window_size;
  if (sliding_window != 0) {
    return sketch::SlidingWindowQuantile(epsilon, sliding_window).block_size();
  }
  return static_cast<std::uint64_t>(std::ceil(1.0 / epsilon));
}

std::uint64_t NaturalFrequencyWindow(double epsilon, std::uint64_t window_size,
                                     std::uint64_t sliding_window) {
  if (window_size != 0) return window_size;
  if (sliding_window != 0) {
    return sketch::SlidingWindowFrequency(epsilon, sliding_window).block_size();
  }
  return static_cast<std::uint64_t>(std::ceil(1.0 / epsilon));
}

namespace {

std::uint64_t ExpectedLength(std::uint64_t expected_stream_length,
                             std::uint64_t window) {
  if (expected_stream_length != 0) return expected_stream_length;
  // Provision generously: 2^32 windows cover any realistic session.
  return window << 32;
}

}  // namespace

QuantileSummaryCore::QuantileSummaryCore(double epsilon,
                                         std::uint64_t window_size,
                                         std::uint64_t sliding_window,
                                         std::uint64_t expected_stream_length,
                                         sketch::QuantileSketchKind kind)
    : epsilon_(epsilon),
      sliding_window_(sliding_window),
      window_size_(window_size),
      expected_length_(ExpectedLength(expected_stream_length, window_size)),
      kind_(kind) {
  if (sliding_window != 0) {
    STREAMGPU_CHECK_MSG(kind == sketch::QuantileSketchKind::kGk,
                        "sliding-window mode supports the GK backend only");
    sliding_.emplace(epsilon, sliding_window);
    STREAMGPU_CHECK_MSG(window_size <= sliding_->block_size(),
                        "window_size must not exceed the sliding block size");
  } else {
    auto sketch = sketch::QuantileSketch::Create(
        kind, epsilon, window_size,
        ExpectedLength(expected_stream_length, window_size));
    STREAMGPU_CHECK_MSG(sketch.ok(), "invalid quantile sketch configuration");
    whole_ = std::move(sketch).value();
  }
}

std::size_t QuantileSummaryCore::MergeSortedWindow(std::span<const float> window,
                                                   ForkJoin* runner) {
  std::size_t summary_tuples;
  if (whole_ != nullptr) {
    // The backend condenses the sorted window itself (GK rank-sampling — the
    // "histogram subset" of §3.2's quantile path — or direct KLL inserts)
    // and times the step into its summarize_seconds() mirror.
    summary_tuples = whole_->AddSortedWindow(window, runner);
  } else {
    Timer hist_timer;
    sketch::GkSummary summary =
        sketch::GkSummary::FromSorted(window, sliding_->block_epsilon());
    histogram_wall_seconds_ += hist_timer.ElapsedSeconds();
    summary_tuples = summary.size();
    sliding_->AddBlockSummary(std::move(summary));
  }
  histogram_elements_ += window.size();
  processed_ += window.size();
  return summary_tuples;
}

int QuantileSummaryCore::max_block_level() const {
  return whole_ != nullptr ? whole_->max_block_level() : 0;
}

bool QuantileSummaryCore::MergeSortedBlock(std::vector<float>& run, int level,
                                           double merge_seconds, ForkJoin* runner) {
  const std::size_t elements = run.size();
  if (whole_ == nullptr || !whole_->AddSortedBlock(run, level, merge_seconds, runner)) {
    return false;
  }
  histogram_elements_ += elements;
  processed_ += elements;
  return true;
}

void QuantileSummaryCore::QuarantineWindow(std::size_t elements) {
  // An unrecoverable window: its (restored, unsorted) data never reaches the
  // summary. The answer stays correct over what *was* merged; ErrorBound()
  // widens by the dropped elements so reported guarantees stay honest.
  ++windows_quarantined_;
  elements_dropped_ += elements;
}

void QuantileSummaryCore::ShedElements(std::uint64_t elements) {
  elements_shed_ += elements;
}

std::uint64_t QuantileSummaryCore::Coverage(std::uint64_t window) const {
  if (whole_ != nullptr) return processed_;
  const std::uint64_t effective =
      window == 0 ? sliding_window_ : std::min(window, sliding_window_);
  return std::min(effective, processed_);
}

std::uint64_t QuantileSummaryCore::ErrorBound() const {
  // Whole-history: the backend's honest bound at the current count (GK:
  // epsilon * N; KLL: min of its tracked worst case and the stated bound).
  // Sliding: epsilon * W over the full window width regardless of the
  // queried sub-window (sketch/sliding_window.h). Every quarantined or shed
  // element can shift any rank by one, so lost coverage widens the bound
  // additively rather than silently vanishing.
  const std::uint64_t base =
      whole_ != nullptr
          ? whole_->rank_error_bound()
          : static_cast<std::uint64_t>(
                std::ceil(epsilon_ * static_cast<double>(sliding_window_)));
  return base + elements_dropped_ + elements_shed_;
}

QuantileReport QuantileSummaryCore::Quantile(double phi,
                                             std::uint64_t window) const {
  QuantileReport report;
  report.phi = phi;
  report.epsilon = epsilon_;
  report.stream_length = processed_;
  report.window_coverage = Coverage(window);
  report.rank_error_bound = ErrorBound();
  report.windows_quarantined = windows_quarantined_;
  report.elements_dropped = elements_dropped_;
  report.elements_shed = elements_shed_;
  // An empty summary answers value 0 over coverage 0 (a registered-but-idle
  // service stream is queryable) instead of tripping the sketches' empty-
  // query CHECKs.
  if (processed_ != 0) {
    report.value =
        whole_ != nullptr ? whole_->Query(phi) : sliding_->Query(phi, window);
  }
  return report;
}

Status QuantileSummaryCore::AppendWireSummary(std::vector<std::uint8_t>* out) const {
  if (whole_ == nullptr) {
    return Status::FailedPrecondition(
        "sliding-window quantile summaries are not mergeable (the block "
        "decomposition is position-dependent); shard exports require "
        "whole-history mode");
  }
  return whole_->AppendWireSummary(out);
}

namespace {

namespace wire = sketch::wire;

/// Shared counter block leading both cores' checkpoint payloads.
void AppendCounters(std::uint64_t processed, std::uint64_t quarantined,
                    std::uint64_t dropped, std::uint64_t shed,
                    std::vector<std::uint8_t>* out) {
  wire::Append<std::uint64_t>(out, processed);
  wire::Append<std::uint64_t>(out, quarantined);
  wire::Append<std::uint64_t>(out, dropped);
  wire::Append<std::uint64_t>(out, shed);
}

bool ReadCounters(std::span<const std::uint8_t>* in, std::uint64_t* processed,
                  std::uint64_t* quarantined, std::uint64_t* dropped,
                  std::uint64_t* shed) {
  return wire::Read(in, processed) && wire::Read(in, quarantined) &&
         wire::Read(in, dropped) && wire::Read(in, shed);
}

}  // namespace

Status QuantileSummaryCore::AppendCheckpointState(
    std::vector<std::uint8_t>* out) const {
  if (whole_ == nullptr) {
    return Status::FailedPrecondition(
        "sliding-window quantile summaries are not checkpointable (the block "
        "decomposition is position-dependent); durability requires "
        "whole-history mode");
  }
  AppendCounters(processed_, windows_quarantined_, elements_dropped_,
                 elements_shed_, out);
  return whole_->AppendCheckpointState(out);
}

Status QuantileSummaryCore::RestoreCheckpointState(
    std::span<const std::uint8_t> payload) {
  if (whole_ == nullptr) {
    return Status::FailedPrecondition(
        "sliding-window quantile summaries are not restorable");
  }
  if (processed_ != 0 || elements_dropped_ != 0 || elements_shed_ != 0) {
    return Status::FailedPrecondition(
        "RestoreCheckpointState on a core that already observed data");
  }
  std::uint64_t processed = 0;
  std::uint64_t quarantined = 0;
  std::uint64_t dropped = 0;
  std::uint64_t shed = 0;
  if (!ReadCounters(&payload, &processed, &quarantined, &dropped, &shed)) {
    return Status::InvalidArgument("truncated quantile-core checkpoint counters");
  }
  auto sketch = sketch::QuantileSketch::RestoreCheckpointState(
      kind_, epsilon_, window_size_, expected_length_, payload);
  if (!sketch.ok()) return sketch.status();
  if (sketch.value()->count() != processed) {
    return Status::InvalidArgument(
        "quantile checkpoint sketch count disagrees with the processed counter");
  }
  whole_ = std::move(sketch).value();
  processed_ = processed;
  windows_quarantined_ = quarantined;
  elements_dropped_ = dropped;
  elements_shed_ = shed;
  // The rank-sampling element mirror tracks processed elements exactly; the
  // wall-clock mirrors restart at zero (they feed '#'-style cost lines only).
  histogram_elements_ = processed;
  return Status::Ok();
}

std::size_t QuantileSummaryCore::summary_size() const {
  return whole_ != nullptr ? whole_->summary_size() : sliding_->summary_size();
}

double QuantileSummaryCore::merge_seconds() const {
  return whole_ != nullptr ? whole_->merge_seconds() : 0;
}

double QuantileSummaryCore::compress_seconds() const {
  return whole_ != nullptr ? whole_->compress_seconds() : 0;
}

std::uint64_t QuantileSummaryCore::merged_tuples() const {
  return whole_ != nullptr ? whole_->merged_tuples() : 0;
}

std::uint64_t QuantileSummaryCore::pruned_tuples() const {
  return whole_ != nullptr ? whole_->pruned_tuples() : 0;
}

double QuantileSummaryCore::histogram_wall_seconds() const {
  return whole_ != nullptr ? whole_->summarize_seconds()
                           : histogram_wall_seconds_;
}

void QuantileSummaryCore::MirrorCosts(PipelineCosts* costs) const {
  costs->histogram_wall_seconds = histogram_wall_seconds();
  costs->histogram_elements = histogram_elements_;
  costs->merge_wall_seconds = merge_seconds();
  costs->compress_wall_seconds = compress_seconds();
  costs->merged_entries = merged_tuples();
  costs->compressed_entries = pruned_tuples();
}

FrequencySummaryCore::FrequencySummaryCore(double epsilon,
                                           std::uint64_t window_size,
                                           std::uint64_t sliding_window)
    : epsilon_(epsilon), sliding_window_(sliding_window) {
  if (sliding_window != 0) {
    sliding_.emplace(epsilon, sliding_window);
    STREAMGPU_CHECK_MSG(window_size <= sliding_->block_size(),
                        "window_size must not exceed the sliding block size");
  } else {
    whole_.emplace(epsilon);
    STREAMGPU_CHECK_MSG(window_size <= whole_->window_width(),
                        "window_size must not exceed ceil(1/epsilon)");
  }
}

std::size_t FrequencySummaryCore::MergeSortedWindow(std::span<const float> window) {
  Timer hist_timer;
  const std::vector<sketch::HistogramEntry> histogram =
      sketch::BuildHistogram(window);
  histogram_wall_seconds_ += hist_timer.ElapsedSeconds();
  histogram_elements_ += window.size();

  if (whole_.has_value()) {
    whole_->AddWindowHistogram(histogram, window.size());
  } else {
    sliding_->AddBlockHistogram(histogram, window.size());
  }
  processed_ += window.size();
  return histogram.size();
}

void FrequencySummaryCore::QuarantineWindow(std::size_t elements) {
  ++windows_quarantined_;
  elements_dropped_ += elements;
}

void FrequencySummaryCore::ShedElements(std::uint64_t elements) {
  elements_shed_ += elements;
}

Status FrequencySummaryCore::AppendCheckpointState(
    std::vector<std::uint8_t>* out) const {
  if (!whole_.has_value()) {
    return Status::FailedPrecondition(
        "sliding-window frequency summaries are not checkpointable; "
        "durability requires whole-history mode");
  }
  AppendCounters(processed_, windows_quarantined_, elements_dropped_,
                 elements_shed_, out);
  wire::Append<std::uint64_t>(out, whole_->stream_length());
  wire::Append<std::uint64_t>(out, whole_->bucket_id());
  wire::Append<std::uint64_t>(out, whole_->entries().size());
  for (const sketch::LossyCounting::Entry& e : whole_->entries()) {
    wire::Append<float>(out, e.value);
    wire::Append<std::uint64_t>(out, e.frequency);
    wire::Append<std::uint64_t>(out, e.delta);
  }
  return Status::Ok();
}

Status FrequencySummaryCore::RestoreCheckpointState(
    std::span<const std::uint8_t> payload) {
  if (!whole_.has_value()) {
    return Status::FailedPrecondition(
        "sliding-window frequency summaries are not restorable");
  }
  if (processed_ != 0 || elements_dropped_ != 0 || elements_shed_ != 0) {
    return Status::FailedPrecondition(
        "RestoreCheckpointState on a core that already observed data");
  }
  std::uint64_t processed = 0;
  std::uint64_t quarantined = 0;
  std::uint64_t dropped = 0;
  std::uint64_t shed = 0;
  if (!ReadCounters(&payload, &processed, &quarantined, &dropped, &shed)) {
    return Status::InvalidArgument("truncated frequency-core checkpoint counters");
  }
  std::uint64_t n = 0;
  std::uint64_t bucket_id = 0;
  std::uint64_t entry_count = 0;
  if (!wire::Read(&payload, &n) || !wire::Read(&payload, &bucket_id) ||
      !wire::Read(&payload, &entry_count)) {
    return Status::InvalidArgument("truncated frequency checkpoint state");
  }
  constexpr std::size_t kEntryBytes = sizeof(float) + 2 * sizeof(std::uint64_t);
  if (payload.size() % kEntryBytes != 0 ||
      payload.size() / kEntryBytes != entry_count) {
    return Status::InvalidArgument(
        "frequency checkpoint entry count inconsistent with payload size");
  }
  if (n != processed) {
    return Status::InvalidArgument(
        "frequency checkpoint n disagrees with the processed counter");
  }
  std::vector<sketch::LossyCounting::Entry> entries;
  entries.reserve(entry_count);
  for (std::uint64_t i = 0; i < entry_count; ++i) {
    sketch::LossyCounting::Entry e;
    wire::Read(&payload, &e.value);
    wire::Read(&payload, &e.frequency);
    wire::Read(&payload, &e.delta);
    if (e.value != e.value) {
      return Status::InvalidArgument("frequency checkpoint entry " + std::to_string(i) +
                                     " value is NaN");
    }
    entries.push_back(e);
  }
  sketch::LossyCounting restored(epsilon_);
  if (!sketch::LossyCounting::FromParts(epsilon_, n, bucket_id,
                                        std::move(entries), &restored)) {
    return Status::InvalidArgument(
        "frequency checkpoint state violates the lossy-counting invariants");
  }
  whole_ = std::move(restored);
  processed_ = processed;
  windows_quarantined_ = quarantined;
  elements_dropped_ = dropped;
  elements_shed_ = shed;
  histogram_elements_ = processed;
  return Status::Ok();
}

std::uint64_t FrequencySummaryCore::Coverage(std::uint64_t window) const {
  if (whole_.has_value()) return processed_;
  const std::uint64_t effective =
      window == 0 ? sliding_window_ : std::min(window, sliding_window_);
  return std::min(effective, processed_);
}

std::uint64_t FrequencySummaryCore::ErrorBound() const {
  // Whole-history: at most epsilon * N undercount. Sliding: the block
  // decomposition guarantees epsilon * W over the full window width
  // (sketch/sliding_window.h). Quarantined or shed elements can each hide
  // one occurrence of any item, so lost coverage widens the bound.
  const double n = whole_.has_value() ? static_cast<double>(processed_)
                                      : static_cast<double>(sliding_window_);
  return static_cast<std::uint64_t>(std::ceil(epsilon_ * n)) +
         elements_dropped_ + elements_shed_;
}

FrequencyReport FrequencySummaryCore::HeavyHitters(double support,
                                                   std::uint64_t window) const {
  FrequencyReport report;
  report.support = support;
  report.epsilon = epsilon_;
  report.stream_length = processed_;
  report.window_coverage = Coverage(window);
  report.error_bound = ErrorBound();
  report.windows_quarantined = windows_quarantined_;
  report.elements_dropped = elements_dropped_;
  report.elements_shed = elements_shed_;
  if (processed_ == 0) return report;  // empty summary: no items (see Quantile)
  const auto pairs = whole_.has_value() ? whole_->HeavyHitters(support)
                                        : sliding_->HeavyHitters(support, window);
  report.items.reserve(pairs.size());
  for (const auto& [value, estimate] : pairs) {
    report.items.push_back({value, estimate});
  }
  return report;
}

std::uint64_t FrequencySummaryCore::EstimateCount(float value,
                                                  std::uint64_t window) const {
  if (processed_ == 0) return 0;  // empty summary (see Quantile)
  if (whole_.has_value()) return whole_->EstimateCount(value);
  return sliding_->EstimateCount(value, window);
}

std::size_t FrequencySummaryCore::summary_size() const {
  return whole_.has_value() ? whole_->summary_size() : sliding_->summary_size();
}

const sketch::SummaryOpCosts* FrequencySummaryCore::op_costs() const {
  return whole_.has_value() ? &whole_->op_costs() : nullptr;
}

void FrequencySummaryCore::MirrorCosts(PipelineCosts* costs) const {
  costs->histogram_wall_seconds = histogram_wall_seconds_;
  costs->histogram_elements = histogram_elements_;
  if (const sketch::SummaryOpCosts* ops = op_costs(); ops != nullptr) {
    costs->merge_wall_seconds = ops->merge_seconds;
    costs->compress_wall_seconds = ops->compress_seconds;
    costs->merged_entries = ops->merged_entries;
    costs->compressed_entries = ops->compressed_entries;
  }
}

}  // namespace streamgpu::core
