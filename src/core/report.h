// Query result snapshots for the public API.
//
// HeavyHitters()/TopK() and Quantile() answer with these structs instead of
// bare pairs/floats, so every answer carries its provenance: the guaranteed
// error bound it was computed under, how many elements it covers, and the
// parameters it answers for. The metrics exporter serializes the same structs
// (see docs/OBSERVABILITY.md), so what a dashboard shows is exactly what a
// caller got.

#ifndef STREAMGPU_CORE_REPORT_H_
#define STREAMGPU_CORE_REPORT_H_

#include <cstdint>
#include <vector>

namespace streamgpu::core {

/// One heavy-hitter / top-k answer set.
struct FrequencyReport {
  struct Item {
    /// The item (in the estimator's value universe: binary16-quantized when
    /// the GPU f16 path is configured).
    float value = 0;
    /// Estimated in-window frequency. Undercounts truth by at most
    /// `error_bound`, never overcounts.
    std::uint64_t estimate = 0;

    friend bool operator==(const Item&, const Item&) = default;
  };

  /// Matching items, by descending estimate.
  std::vector<Item> items;

  /// The support threshold the query ran at (0 for TopK()).
  double support = 0;
  /// The epsilon the guarantee is stated under.
  double epsilon = 0;
  /// ceil(epsilon * window_coverage): the uniform undercount bound on every
  /// item's estimate, and the margin below support*coverage down to which
  /// items are included (no false negatives).
  std::uint64_t error_bound = 0;
  /// Elements the answer covers: everything processed in whole-history mode;
  /// the queried window (capped by what has been processed) in sliding mode.
  std::uint64_t window_coverage = 0;
  /// Elements folded into the summary over the stream's lifetime.
  std::uint64_t stream_length = 0;
  /// Windows the resilience layer could not recover (Options::fault with CPU
  /// fallback disabled): their elements are excluded from coverage and
  /// `error_bound` is widened by `elements_dropped` so the guarantee stays
  /// honest. Zero whenever fault injection is off. See docs/ROBUSTNESS.md.
  std::uint64_t windows_quarantined = 0;
  std::uint64_t elements_dropped = 0;
  /// Elements dropped by admission control before they reached a window
  /// (service::StreamService load shedding; always zero for a dedicated
  /// estimator). Like `elements_dropped`, already folded into `error_bound`
  /// so the stated guarantee stays honest. See docs/SERVICE.md.
  std::uint64_t elements_shed = 0;

  friend bool operator==(const FrequencyReport&, const FrequencyReport&) = default;
};

/// One quantile answer.
struct QuantileReport {
  /// The answering element.
  float value = 0;

  /// The phi the query ran at.
  double phi = 0;
  /// The epsilon the guarantee is stated under.
  double epsilon = 0;
  /// `value`'s rank among the covered elements is within this many
  /// positions of phi * window_coverage. The sketch's term is
  /// ceil(epsilon * window_coverage), except that GK+EH past its provisioned
  /// stream length states ceil(e * window_coverage), e its largest bucket
  /// epsilon (above epsilon), and KLL states the smaller of its tracked
  /// worst case and ceil(epsilon * window_coverage). `elements_dropped` and
  /// `elements_shed` are added on top.
  std::uint64_t rank_error_bound = 0;
  /// Elements the answer covers (see FrequencyReport::window_coverage).
  std::uint64_t window_coverage = 0;
  /// Elements folded into the summary over the stream's lifetime.
  std::uint64_t stream_length = 0;
  /// Unrecoverable-window accounting, mirroring
  /// FrequencyReport::windows_quarantined: `rank_error_bound` already
  /// includes the `elements_dropped` widening. See docs/ROBUSTNESS.md.
  std::uint64_t windows_quarantined = 0;
  std::uint64_t elements_dropped = 0;
  /// Load-shed accounting, mirroring FrequencyReport::elements_shed:
  /// `rank_error_bound` already includes the widening. See docs/SERVICE.md.
  std::uint64_t elements_shed = 0;

  friend bool operator==(const QuantileReport&, const QuantileReport&) = default;
};

}  // namespace streamgpu::core

#endif  // STREAMGPU_CORE_REPORT_H_
