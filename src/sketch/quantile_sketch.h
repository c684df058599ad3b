// QuantileSketch: the swappable whole-history quantile backend behind
// core::QuantileSummaryCore, so GK+EH (the paper's §5.2 structure), the
// single-element GK01 baseline, and KLL are selectable via Options::
// quantile_sketch instead of a hard-coded EhQuantileSummary member — the
// same factory/Status conventions as the estimator Create() redesign.
//
// Implementations are single-threaded value objects: the owner serializes
// AddSortedWindow against queries (the estimators via the ordered drain
// thread, the StreamService via its per-shard summary lock). Every
// implementation is deterministic — the same window sequence produces the
// same sketch and the same answers regardless of worker count or sort
// backend (KLL's compaction coin is seeded, docs/SKETCHES.md).
//
// Sliding-window mode keeps its dedicated GK block decomposition
// (sketch/sliding_window.h); Options::Validate() rejects non-GK kinds
// combined with a sliding window.

#ifndef STREAMGPU_SKETCH_QUANTILE_SKETCH_H_
#define STREAMGPU_SKETCH_QUANTILE_SKETCH_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/fork_join.h"
#include "core/status.h"

namespace streamgpu::sketch {

/// Which whole-history quantile backend a stream uses.
enum class QuantileSketchKind {
  kGk,          ///< GK summaries in an exponential histogram (§5.2, default)
  kGkAdaptive,  ///< single-element GK01 (sketch/gk_adaptive.h)
  kKll,         ///< Karnin-Lang-Liberty compactor hierarchy (sketch/kll.h)
};

/// CLI/config name: "gk", "gk-adaptive", "kll".
const char* QuantileSketchKindName(QuantileSketchKind kind);

/// Inverse of QuantileSketchKindName; returns false on an unknown name.
bool ParseQuantileSketchKind(const char* name, QuantileSketchKind* kind);

/// Abstract whole-history quantile backend.
class QuantileSketch {
 public:
  virtual ~QuantileSketch() = default;

  /// Folds one ascending-sorted window (the repo's canonical bit-pattern
  /// order, any backend) into the sketch. Returns the size of the condensed
  /// per-window summary (trace metadata; the window size for backends that
  /// insert elements directly). `runner` may run slices of the summary
  /// combines the window sets off (GK+EH only: EhQuantileSummary::
  /// AddWindow); null runs everything on the caller. The sketch does not
  /// depend on it.
  virtual std::size_t AddSortedWindow(std::span<const float> window, ForkJoin* runner) = 0;

  /// The deepest block AddSortedBlock takes: 2^k windows of the configured
  /// size (0 = none; GK+EH only, docs/ALGORITHMS.md).
  virtual int max_block_level() const { return 0; }

  /// Folds 2^level consecutive windows, already merged into one ascending
  /// run by EhQuantileSummary::MergeBlock (`merge_seconds` long), when that
  /// leaves the sketch exactly as AddSortedWindow on each window would.
  /// Otherwise returns false and changes nothing: the caller then adds the
  /// windows one by one. `runner` is AddSortedWindow's.
  virtual bool AddSortedBlock(std::vector<float>& /*run*/, int /*level*/,
                              double /*merge_seconds*/, ForkJoin* /*runner*/) {
    return false;
  }

  /// The phi-quantile (phi in (0, 1]) over everything added. Callers guard
  /// the empty case (count() == 0) themselves, mirroring the summary core's
  /// coverage-0 contract.
  virtual float Query(double phi) const = 0;

  /// Elements covered so far.
  virtual std::uint64_t count() const = 0;

  /// Tuples/items currently retained (space usage).
  virtual std::size_t summary_size() const = 0;

  /// Honest absolute rank-error bound at the current count, excluding
  /// quarantine/shed widening (the summary core adds those).
  virtual std::uint64_t rank_error_bound() const = 0;

  /// Serializes the sketch's mergeable summary as one wire envelope
  /// (sketch/serialize.h) appended to `out` — the shard export the combiner
  /// and `streamgpu_cli merge` consume. GK-family backends export a
  /// flattened GkSummary; KLL exports itself.
  virtual core::Status AppendWireSummary(std::vector<std::uint8_t>* out) const = 0;

  /// Serializes the sketch's FULL internal state — unlike the mergeable
  /// export, which may condense (GK+EH flattens its bucket cascade) — so a
  /// restored sketch continues bit-identically from the checkpoint: GK+EH
  /// keeps every bucket, GK01 its (v, g, Delta) tuples and n, KLL its levels
  /// plus the compaction-coin position. Payload layouts in
  /// docs/DURABILITY.md; consumed by RestoreCheckpointState.
  virtual core::Status AppendCheckpointState(std::vector<std::uint8_t>* out) const = 0;

  virtual QuantileSketchKind kind() const = 0;

  /// Cost mirrors for the estimators' PipelineCosts accounting; backends
  /// without a matching operation report zero.
  virtual double summarize_seconds() const { return 0; }  ///< per-window condense
  virtual double merge_seconds() const { return 0; }
  virtual double compress_seconds() const { return 0; }
  virtual std::uint64_t merged_tuples() const { return 0; }
  virtual std::uint64_t pruned_tuples() const { return 0; }

  /// Factory. `epsilon` in (0, 1); `window_size` is the resolved processing
  /// window and `expected_stream_length` the a-priori N — both consulted
  /// only by the GK+EH backend (level provisioning). Returns kInvalidArgument
  /// for an out-of-range epsilon or an unknown kind.
  static core::StatusOr<std::unique_ptr<QuantileSketch>> Create(
      QuantileSketchKind kind, double epsilon, std::uint64_t window_size,
      std::uint64_t expected_stream_length);

  /// Inverse of AppendCheckpointState: reconstructs a sketch of `kind` from
  /// one checkpointed state payload (which must span `payload` exactly). The
  /// configuration arguments must match the original Create() call. Returns
  /// kInvalidArgument on truncation, trailing bytes, or a payload that fails
  /// the sketch's structural validation — never aborts on untrusted input.
  static core::StatusOr<std::unique_ptr<QuantileSketch>> RestoreCheckpointState(
      QuantileSketchKind kind, double epsilon, std::uint64_t window_size,
      std::uint64_t expected_stream_length, std::span<const std::uint8_t> payload);
};

}  // namespace streamgpu::sketch

#endif  // STREAMGPU_SKETCH_QUANTILE_SKETCH_H_
