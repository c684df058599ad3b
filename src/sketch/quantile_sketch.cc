#include "sketch/quantile_sketch.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <string>
#include <utility>

#include "common/check.h"
#include "common/float_order.h"
#include "common/timer.h"
#include "sketch/exponential_histogram.h"
#include "sketch/gk_adaptive.h"
#include "sketch/gk_summary.h"
#include "sketch/kll.h"
#include "sketch/serialize.h"
#include "sketch/wire.h"

namespace streamgpu::sketch {

namespace {

std::uint64_t StatedBound(double epsilon, std::uint64_t count) {
  return static_cast<std::uint64_t>(std::ceil(epsilon * static_cast<double>(count)));
}

core::Status TruncatedState(const char* what) {
  return core::Status::InvalidArgument(std::string("truncated ") + what +
                                       " checkpoint state");
}

/// The tag byte in front of each GK+EH checkpoint slot.
enum SlotTag : std::uint8_t { kVacantSlot = 0, kSummarySlot = 1, kRunSlot = 2 };

/// Reads a kRunSlot body from the front of `payload`: a u64 length n >= 1,
/// then n f32 values, none NaN and ascending by GkSummary::FromParts's test
/// on tuple values (no adjacent pair with a > b).
core::Status ReadRun(std::span<const std::uint8_t>* payload, std::vector<float>* run) {
  std::uint64_t n = 0;
  if (!wire::Read(payload, &n)) return TruncatedState("gk");
  // Compared by division, so a corrupted n never overflows n * 4.
  if (n == 0 || n > payload->size() / sizeof(float)) {
    return core::Status::InvalidArgument("gk checkpoint run length " + std::to_string(n) +
                                         " is empty or overruns the payload");
  }
  const std::size_t bytes = static_cast<std::size_t>(n) * sizeof(float);
  run->resize(static_cast<std::size_t>(n));
  std::memcpy(run->data(), payload->data(), bytes);
  *payload = payload->subspan(bytes);
  if (const std::size_t nan = FindNan(*run); nan != run->size()) {
    return core::Status::InvalidArgument("gk checkpoint run value " + std::to_string(nan) +
                                         " is NaN");
  }
  if (std::ranges::adjacent_find(*run, std::ranges::greater{}) != run->end()) {
    return core::Status::InvalidArgument("gk checkpoint run values not ascending");
  }
  return core::Status::Ok();
}

/// The paper's backend (§5.2): per-window GK summaries maintained in an
/// exponential histogram. The mergeable export is the histogram's
/// EhQuantileSummary::Flatten, which is epsilon-approximate for everything
/// covered while the stream stays within the provisioned N.
class GkEhSketch final : public QuantileSketch {
 public:
  GkEhSketch(double epsilon, std::uint64_t window_size,
             std::uint64_t expected_length)
      : epsilon_(epsilon), eh_(epsilon, window_size, expected_length) {}

  std::size_t AddSortedWindow(std::span<const float> window, ForkJoin* runner) override {
    Timer timer;
    EhBucket window_summary = EhBucket::FromSorted(window, epsilon_ / 2.0);
    summarize_seconds_ += timer.ElapsedSeconds();
    const std::size_t tuples = window_summary.size();
    eh_.AddWindow(std::move(window_summary), runner);
    return tuples;
  }

  int max_block_level() const override { return eh_.max_block_level(); }
  bool AddSortedBlock(std::vector<float>& run, int level, double merge_seconds,
                      ForkJoin* runner) override {
    return eh_.AddBlock(run, level, merge_seconds, runner);
  }

  float Query(double phi) const override { return eh_.Query(phi); }
  std::uint64_t count() const override { return eh_.count(); }
  std::size_t summary_size() const override { return eh_.TotalTuples(); }
  // Past the provisioned N the buckets above the planned levels exceed
  // epsilon, and so does the flattened summary the answers equal.
  std::uint64_t rank_error_bound() const override {
    return StatedBound(std::max(epsilon_, eh_.MaxBucketEpsilon()), eh_.count());
  }

  core::Status AppendWireSummary(std::vector<std::uint8_t>* out) const override {
    return SerializeSummary(eh_.Flatten(), out);
  }

  // Full state: the bucket cascade itself. Layout: count u64, slot count
  // u32, then per slot a SlotTag byte and the slot's body: none when vacant;
  // a pruned bucket's nested SGMS GK envelope (kSummarySlot); an exact
  // run's length u64 and ascending f32 values, tuple i being (run[i], i+1,
  // i+1) (kRunSlot). Restore also reads an exact run written as the
  // envelope of its tuples under kSummarySlot, as older snapshots hold it.
  core::Status AppendCheckpointState(std::vector<std::uint8_t>* out) const override {
    wire::Append<std::uint64_t>(out, eh_.count());
    const auto& buckets = eh_.buckets();
    const std::size_t slots = eh_.slots();
    wire::Append<std::uint32_t>(out, static_cast<std::uint32_t>(slots));
    for (std::size_t i = 0; i < slots; ++i) {
      if (i >= buckets.size() || buckets[i].empty()) {
        wire::Append<std::uint8_t>(out, kVacantSlot);
        continue;
      }
      const EhBucket& bucket = buckets[i];
      if (bucket.run.empty()) {
        wire::Append<std::uint8_t>(out, kSummarySlot);
        const core::Status s = SerializeSummary(bucket.summary, out);
        if (!s.ok()) return s;
      } else {
        wire::Append<std::uint8_t>(out, kRunSlot);
        wire::Append<std::uint64_t>(out, bucket.run.size());
        wire::AppendArray<float>(out, bucket.run);
      }
    }
    return core::Status::Ok();
  }

  core::Status RestoreState(std::span<const std::uint8_t> payload,
                            std::uint64_t window_size,
                            std::uint64_t expected_length) {
    std::uint64_t count = 0;
    std::uint32_t slots = 0;
    if (!wire::Read(&payload, &count) || !wire::Read(&payload, &slots)) {
      return TruncatedState("gk");
    }
    // The cascade depth is logarithmic in the window count; reject absurd
    // slot counts before allocating.
    if (slots > 4096) {
      return core::Status::InvalidArgument("gk checkpoint bucket count " +
                                           std::to_string(slots) + " not plausible");
    }
    std::vector<EhBucket> buckets(slots);
    for (EhBucket& bucket : buckets) {
      std::uint8_t tag = 0;
      if (!wire::Read(&payload, &tag)) return TruncatedState("gk");
      if (tag == kSummarySlot) {
        auto summary = DeserializeGkSummary(&payload);
        if (!summary.ok()) return summary.status();
        bucket.summary = std::move(summary).value();
      } else if (tag == kRunSlot) {
        const core::Status s = ReadRun(&payload, &bucket.run);
        if (!s.ok()) return s;
      } else if (tag != kVacantSlot) {
        return core::Status::InvalidArgument("gk checkpoint slot tag " +
                                             std::to_string(tag) + " unknown");
      }
    }
    if (!payload.empty()) {
      return core::Status::InvalidArgument("trailing bytes after gk checkpoint state");
    }
    EhQuantileSummary restored(epsilon_, 1, 1);
    if (!EhQuantileSummary::FromParts(epsilon_, window_size, expected_length,
                                      count, std::move(buckets), &restored)) {
      return core::Status::InvalidArgument(
          "gk checkpoint state violates the exponential-histogram invariants "
          "(bucket counts, depth or per-level error budget)");
    }
    eh_ = std::move(restored);
    return core::Status::Ok();
  }

  QuantileSketchKind kind() const override { return QuantileSketchKind::kGk; }

  double summarize_seconds() const override { return summarize_seconds_; }
  double merge_seconds() const override { return eh_.merge_seconds(); }
  double compress_seconds() const override { return eh_.compress_seconds(); }
  std::uint64_t merged_tuples() const override { return eh_.merged_tuples(); }
  std::uint64_t pruned_tuples() const override { return eh_.pruned_tuples(); }

 private:
  double epsilon_;
  EhQuantileSummary eh_;
  double summarize_seconds_ = 0;
};

/// The single-element GK01 baseline. Windows are fed element-wise; the
/// mergeable export converts the (v, g, Delta) tuples to explicit rank
/// bounds (rmin_i = sum of g up to i, rmax_i = rmin_i + Delta_i).
class GkAdaptiveSketch final : public QuantileSketch {
 public:
  explicit GkAdaptiveSketch(double epsilon) : gk_(epsilon) {}

  std::size_t AddSortedWindow(std::span<const float> window, ForkJoin* /*runner*/) override {
    Timer timer;
    gk_.ObserveBatch(window);
    summarize_seconds_ += timer.ElapsedSeconds();
    return window.size();
  }

  float Query(double phi) const override { return gk_.Quantile(phi); }
  std::uint64_t count() const override { return gk_.stream_length(); }
  std::size_t summary_size() const override { return gk_.summary_size(); }
  std::uint64_t rank_error_bound() const override {
    return StatedBound(gk_.epsilon(), gk_.stream_length());
  }

  core::Status AppendWireSummary(std::vector<std::uint8_t>* out) const override {
    std::vector<GkTuple> tuples;
    tuples.reserve(gk_.summary_size());
    std::uint64_t rmin = 0;
    std::uint64_t rmax_floor = 0;
    for (const GkAdaptiveTuple& t : gk_.tuples()) {
      rmin += t.g;
      // rmax is a valid upper bound, so clamping it monotone (and within
      // count) keeps it valid while satisfying GkSummary's invariants.
      const std::uint64_t rmax =
          std::min(gk_.stream_length(), std::max(rmax_floor, rmin + t.delta));
      rmax_floor = rmax;
      tuples.push_back({t.value, rmin, rmax});
    }
    GkSummary converted;
    STREAMGPU_CHECK_MSG(GkSummary::FromParts(std::move(tuples), gk_.stream_length(),
                                             gk_.epsilon(), &converted),
                        "GK01 tuples violate the summary invariants");
    return SerializeSummary(converted, out);
  }

  // Full state: n plus the raw (v, g, Delta) tuples. The compress period is
  // a pure function of epsilon and the next compress fires on n % period, so
  // nothing else is needed for bit-identical continuation.
  core::Status AppendCheckpointState(std::vector<std::uint8_t>* out) const override {
    wire::Append<std::uint64_t>(out, gk_.stream_length());
    wire::Append<std::uint64_t>(out, static_cast<std::uint64_t>(gk_.tuples().size()));
    for (const GkAdaptiveTuple& t : gk_.tuples()) {
      wire::Append<float>(out, t.value);
      wire::Append<std::uint64_t>(out, t.g);
      wire::Append<std::uint64_t>(out, t.delta);
    }
    return core::Status::Ok();
  }

  core::Status RestoreState(std::span<const std::uint8_t> payload) {
    std::uint64_t n = 0;
    std::uint64_t tuple_count = 0;
    if (!wire::Read(&payload, &n) || !wire::Read(&payload, &tuple_count)) {
      return TruncatedState("gk-adaptive");
    }
    constexpr std::size_t kTupleBytes = sizeof(float) + 2 * sizeof(std::uint64_t);
    if (tuple_count > n || payload.size() % kTupleBytes != 0 ||
        payload.size() / kTupleBytes != tuple_count) {
      return core::Status::InvalidArgument(
          "gk-adaptive checkpoint tuple count inconsistent with payload size");
    }
    std::vector<GkAdaptiveTuple> tuples;
    tuples.reserve(tuple_count);
    for (std::uint64_t i = 0; i < tuple_count; ++i) {
      GkAdaptiveTuple t;
      wire::Read(&payload, &t.value);
      wire::Read(&payload, &t.g);
      wire::Read(&payload, &t.delta);
      if (t.value != t.value) {
        return core::Status::InvalidArgument("gk-adaptive checkpoint tuple " +
                                             std::to_string(i) + " value is NaN");
      }
      tuples.push_back(t);
    }
    GkAdaptive restored(gk_.epsilon());
    if (!GkAdaptive::FromParts(gk_.epsilon(), n, std::move(tuples), &restored)) {
      return core::Status::InvalidArgument(
          "gk-adaptive checkpoint state violates the g + Delta invariant");
    }
    gk_ = std::move(restored);
    return core::Status::Ok();
  }

  QuantileSketchKind kind() const override {
    return QuantileSketchKind::kGkAdaptive;
  }

  double summarize_seconds() const override { return summarize_seconds_; }

 private:
  GkAdaptive gk_;
  double summarize_seconds_ = 0;
};

/// The KLL compactor hierarchy (sketch/kll.h). Natively mergeable: the wire
/// export is the sketch itself.
class KllQuantileSketch final : public QuantileSketch {
 public:
  explicit KllQuantileSketch(double epsilon) : kll_(epsilon) {}

  std::size_t AddSortedWindow(std::span<const float> window, ForkJoin* /*runner*/) override {
    // Keep the summarize/compress mirrors disjoint: compaction time is
    // tracked inside the sketch and subtracted from the insert wall time.
    const double compress_before = kll_.compress_seconds();
    Timer timer;
    kll_.ObserveSorted(window);
    const double elapsed = timer.ElapsedSeconds();
    summarize_seconds_ +=
        std::max(0.0, elapsed - (kll_.compress_seconds() - compress_before));
    return window.size();
  }

  float Query(double phi) const override { return kll_.Quantile(phi); }
  std::uint64_t count() const override { return kll_.count(); }
  std::size_t summary_size() const override { return kll_.summary_size(); }
  std::uint64_t rank_error_bound() const override {
    return kll_.rank_error_bound();
  }

  core::Status AppendWireSummary(std::vector<std::uint8_t>* out) const override {
    return SerializeSummary(kll_, out);
  }

  // The KLL wire envelope already carries the full state — levels, seed, and
  // the compaction counter that positions the deterministic coin sequence —
  // so the checkpoint payload is simply the nested envelope.
  core::Status AppendCheckpointState(std::vector<std::uint8_t>* out) const override {
    return SerializeSummary(kll_, out);
  }

  core::Status RestoreState(std::span<const std::uint8_t> payload, double epsilon) {
    auto restored = DeserializeKllSketch(&payload);
    if (!restored.ok()) return restored.status();
    if (!payload.empty()) {
      return core::Status::InvalidArgument("trailing bytes after kll checkpoint state");
    }
    if (restored.value().epsilon() != epsilon) {
      return core::Status::InvalidArgument(
          "kll checkpoint epsilon does not match the configured epsilon");
    }
    kll_ = std::move(restored).value();
    return core::Status::Ok();
  }

  QuantileSketchKind kind() const override { return QuantileSketchKind::kKll; }

  double summarize_seconds() const override { return summarize_seconds_; }
  double compress_seconds() const override { return kll_.compress_seconds(); }
  std::uint64_t pruned_tuples() const override { return kll_.discarded_items(); }

 private:
  KllSketch kll_;
  double summarize_seconds_ = 0;
};

}  // namespace

const char* QuantileSketchKindName(QuantileSketchKind kind) {
  switch (kind) {
    case QuantileSketchKind::kGk:
      return "gk";
    case QuantileSketchKind::kGkAdaptive:
      return "gk-adaptive";
    case QuantileSketchKind::kKll:
      return "kll";
  }
  return "?";
}

bool ParseQuantileSketchKind(const char* name, QuantileSketchKind* kind) {
  if (std::strcmp(name, "gk") == 0) {
    *kind = QuantileSketchKind::kGk;
  } else if (std::strcmp(name, "gk-adaptive") == 0) {
    *kind = QuantileSketchKind::kGkAdaptive;
  } else if (std::strcmp(name, "kll") == 0) {
    *kind = QuantileSketchKind::kKll;
  } else {
    return false;
  }
  return true;
}

core::StatusOr<std::unique_ptr<QuantileSketch>> QuantileSketch::Create(
    QuantileSketchKind kind, double epsilon, std::uint64_t window_size,
    std::uint64_t expected_stream_length) {
  if (!(epsilon > 0.0 && epsilon < 1.0)) {
    return core::Status::InvalidArgument("epsilon must be in (0, 1), got " +
                                         std::to_string(epsilon));
  }
  switch (kind) {
    case QuantileSketchKind::kGk:
      return std::unique_ptr<QuantileSketch>(
          new GkEhSketch(epsilon, window_size, expected_stream_length));
    case QuantileSketchKind::kGkAdaptive:
      return std::unique_ptr<QuantileSketch>(new GkAdaptiveSketch(epsilon));
    case QuantileSketchKind::kKll:
      return std::unique_ptr<QuantileSketch>(new KllQuantileSketch(epsilon));
  }
  return core::Status::InvalidArgument("unknown quantile sketch kind");
}

core::StatusOr<std::unique_ptr<QuantileSketch>> QuantileSketch::RestoreCheckpointState(
    QuantileSketchKind kind, double epsilon, std::uint64_t window_size,
    std::uint64_t expected_stream_length, std::span<const std::uint8_t> payload) {
  auto sketch = Create(kind, epsilon, window_size, expected_stream_length);
  if (!sketch.ok()) return sketch.status();
  core::Status restored = core::Status::InvalidArgument("unknown quantile sketch kind");
  switch (kind) {
    case QuantileSketchKind::kGk:
      restored = static_cast<GkEhSketch*>(sketch.value().get())
                     ->RestoreState(payload, window_size, expected_stream_length);
      break;
    case QuantileSketchKind::kGkAdaptive:
      restored =
          static_cast<GkAdaptiveSketch*>(sketch.value().get())->RestoreState(payload);
      break;
    case QuantileSketchKind::kKll:
      restored = static_cast<KllQuantileSketch*>(sketch.value().get())
                     ->RestoreState(payload, epsilon);
      break;
  }
  if (!restored.ok()) return restored;
  return std::move(sketch).value();
}

}  // namespace streamgpu::sketch
