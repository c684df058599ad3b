#include "sketch/kll.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/check.h"
#include "common/float_order.h"
#include "common/timer.h"

namespace streamgpu::sketch {

namespace {

inline std::uint64_t SplitMix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

}  // namespace

KllSketch::KllSketch(double epsilon, std::uint64_t seed)
    : epsilon_(epsilon), seed_(seed) {
  STREAMGPU_CHECK_MSG(epsilon > 0.0 && epsilon < 1.0, "epsilon must be in (0, 1)");
  k_ = std::max(kMinCapacity,
                static_cast<std::size_t>(std::ceil(kCapacityConstant / epsilon)));
  levels_.emplace_back();
  levels_.front().reserve(k_);
}

std::size_t KllSketch::Capacity(std::size_t level) const {
  // Integer decay from the top: cap(top) = k, cap(h) = max(8, cap(h+1)*2/3).
  // Pure integer arithmetic keeps the schedule identical on every platform
  // (std::pow is not correctly rounded everywhere).
  std::size_t cap = k_;
  for (std::size_t h = levels_.size(); h-- > level + 1;) {
    cap = cap * 2 / 3;
    if (cap <= kMinCapacity) return kMinCapacity;
  }
  return std::max(kMinCapacity, cap);
}

bool KllSketch::NextCoin(std::size_t level) {
  // One splitmix64 bit per compaction, keyed by (seed, level, position in
  // the coin sequence): deterministic, but uncorrelated enough across
  // compactions that the +-2^h errors cancel like the random coin's.
  const std::uint64_t x =
      SplitMix64(seed_ ^ (static_cast<std::uint64_t>(level + 1) *
                          0x9E3779B97F4A7C15ull) ^
                 compactions_);
  return (x & 1) != 0;
}

void KllSketch::CompactLevel(std::size_t level) {
  // Grow the hierarchy before taking references: emplace_back may reallocate
  // levels_ and would invalidate them.
  if (level + 1 == levels_.size()) levels_.emplace_back();

  std::vector<float>& items = levels_[level];
  // The canonical total order, so the alternation — and hence the sketch
  // bytes — never depend on how a platform's std::sort breaks operator< ties.
  std::sort(items.begin(), items.end(),
            [](float a, float b) { return OrderedKey(a) < OrderedKey(b); });

  // An odd item count keeps one item (the smallest) at this level so the
  // compacted range is even and promotion conserves weight exactly:
  // 2p items of weight 2^h become p items of weight 2^(h+1).
  const std::size_t start = items.size() % 2;
  const bool odd_offset = NextCoin(level);
  ++compactions_;
  worst_case_error_ += std::uint64_t{1} << level;

  std::vector<float>& next = levels_[level + 1];
  const std::size_t promoted = (items.size() - start) / 2;
  next.reserve(next.size() + promoted);
  for (std::size_t i = start + (odd_offset ? 1 : 0); i < items.size(); i += 2) {
    next.push_back(items[i]);
  }
  discarded_items_ += promoted;

  // The retained odd item (the sorted minimum) stays; everything compacted
  // is gone from this level.
  items.resize(start);
}

void KllSketch::Compress() {
  Timer timer;
  // Growing a new top level shrinks every lower level's capacity, so sweep
  // until the whole hierarchy fits its (possibly updated) schedule.
  bool changed = true;
  while (changed) {
    changed = false;
    for (std::size_t h = 0; h < levels_.size(); ++h) {
      if (levels_[h].size() >= Capacity(h) && levels_[h].size() >= 2) {
        CompactLevel(h);
        changed = true;
      }
    }
  }
  compress_seconds_ += timer.ElapsedSeconds();
}

void KllSketch::Observe(float value) {
  levels_.front().push_back(value);
  ++count_;
  if (levels_.front().size() >= Capacity(0)) Compress();
}

void KllSketch::ObserveSorted(std::span<const float> window) {
  for (float v : window) Observe(v);
}

core::Status KllSketch::Merge(const KllSketch& other) {
  if (other.count_ == 0) return core::Status::Ok();
  if (other.epsilon_ != epsilon_) {
    return core::Status::InvalidArgument(
        "cannot merge KLL sketches with different epsilon (" +
        std::to_string(epsilon_) + " vs " + std::to_string(other.epsilon_) +
        "): the capacity schedules differ");
  }
  count_ += other.count_;
  worst_case_error_ += other.worst_case_error_;
  while (levels_.size() < other.levels_.size()) levels_.emplace_back();
  for (std::size_t h = 0; h < other.levels_.size(); ++h) {
    levels_[h].insert(levels_[h].end(), other.levels_[h].begin(),
                      other.levels_[h].end());
  }
  Compress();
  return core::Status::Ok();
}

std::size_t KllSketch::summary_size() const {
  std::size_t total = 0;
  for (const auto& level : levels_) total += level.size();
  return total;
}

std::uint64_t KllSketch::rank_error_bound() const {
  const auto stated =
      static_cast<std::uint64_t>(std::ceil(epsilon_ * static_cast<double>(count_)));
  return std::min(worst_case_error_, stated);
}

float KllSketch::QueryRank(std::uint64_t rank) const {
  if (count_ == 0) return 0;
  rank = std::clamp<std::uint64_t>(rank, 1, count_);

  // Gather every retained item with its level weight, order canonically,
  // and walk the cumulative weight to the requested rank.
  struct Weighted {
    std::uint32_t key;
    float value;
    std::uint64_t weight;
  };
  std::vector<Weighted> items;
  items.reserve(summary_size());
  for (std::size_t h = 0; h < levels_.size(); ++h) {
    const std::uint64_t weight = std::uint64_t{1} << h;
    for (float v : levels_[h]) items.push_back({OrderedKey(v), v, weight});
  }
  STREAMGPU_CHECK_MSG(!items.empty(), "non-zero count with no retained items");
  std::sort(items.begin(), items.end(),
            [](const Weighted& a, const Weighted& b) { return a.key < b.key; });

  std::uint64_t cumulative = 0;
  for (const Weighted& item : items) {
    cumulative += item.weight;
    if (cumulative >= rank) return item.value;
  }
  return items.back().value;
}

float KllSketch::Quantile(double phi) const {
  if (count_ == 0) return 0;
  const auto rank =
      static_cast<std::uint64_t>(std::ceil(phi * static_cast<double>(count_)));
  return QueryRank(rank);
}

bool KllSketch::FromParts(double epsilon, std::uint64_t seed, std::uint64_t count,
                          std::uint64_t worst_case_error, std::uint64_t compactions,
                          std::vector<std::vector<float>> levels, KllSketch* out) {
  if (!(epsilon > 0.0 && epsilon < 1.0)) return false;
  if (levels.empty() || levels.size() >= 64) return false;
  // Weight conservation is exact under the compaction rule, so the weighted
  // item total must reproduce the claimed element count.
  std::uint64_t total_weight = 0;
  for (std::size_t h = 0; h < levels.size(); ++h) {
    const std::uint64_t weight = std::uint64_t{1} << h;
    const std::uint64_t level_weight = weight * levels[h].size();
    if (!levels[h].empty() && level_weight / levels[h].size() != weight) {
      return false;  // weight overflow
    }
    if (total_weight + level_weight < total_weight) return false;
    total_weight += level_weight;
  }
  if (total_weight != count) return false;
  if (count == 0 && (worst_case_error != 0 || compactions != 0)) return false;

  KllSketch parsed(epsilon, seed);
  parsed.count_ = count;
  parsed.worst_case_error_ = worst_case_error;
  parsed.compactions_ = compactions;
  parsed.levels_ = std::move(levels);
  *out = std::move(parsed);
  return true;
}

}  // namespace streamgpu::sketch
