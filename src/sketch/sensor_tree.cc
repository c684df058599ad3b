#include "sketch/sensor_tree.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/check.h"

namespace streamgpu::sketch {

SensorTreeAggregator::SensorTreeAggregator(double epsilon, int height)
    : epsilon_(epsilon), height_(height) {
  STREAMGPU_CHECK(epsilon > 0.0 && epsilon < 1.0);
  STREAMGPU_CHECK(height >= 1);
  // One compress per level may add eps/(2*height): B = ceil(2*height/eps).
  compress_tuples_ = static_cast<std::size_t>(
      std::ceil(2.0 * static_cast<double>(height) / epsilon));
}

double SensorTreeAggregator::LevelBudget(int node_height) const {
  STREAMGPU_CHECK(node_height >= 0 && node_height <= height_);
  return epsilon_ / 2.0 + static_cast<double>(node_height) * epsilon_ /
                              (2.0 * static_cast<double>(height_));
}

GkSummary SensorTreeAggregator::MakeLeafSummary(
    std::span<const float> sorted_observations) const {
  return GkSummary::FromSorted(sorted_observations, epsilon_ / 2.0);
}

GkSummary SensorTreeAggregator::AggregateAtNode(std::vector<GkSummary> children,
                                                int node_height) {
  STREAMGPU_CHECK(node_height >= 1 && node_height <= height_);
  GkSummary merged;
  for (GkSummary& child : children) {
    tuples_transmitted_ += child.size();
    merged = GkSummary::Merge(merged, child);
  }
  GkSummary compressed = std::move(merged).Prune(compress_tuples_);
  STREAMGPU_CHECK_MSG(compressed.epsilon() <= LevelBudget(node_height) + 1e-12,
                      "node summary exceeded its level budget");
  return compressed;
}

GkSummary SensorTreeAggregator::AggregateComplete(
    const std::vector<std::vector<float>>& leaf_data, int fanout) {
  STREAMGPU_CHECK(fanout >= 2);
  STREAMGPU_CHECK(!leaf_data.empty());

  std::vector<GkSummary> level;
  level.reserve(leaf_data.size());
  for (const auto& observations : leaf_data) {
    STREAMGPU_DCHECK(std::is_sorted(observations.begin(), observations.end()));
    level.push_back(MakeLeafSummary(observations));
  }

  int node_height = 1;
  while (level.size() > 1) {
    STREAMGPU_CHECK_MSG(node_height <= height_,
                        "tree deeper than the provisioned height");
    std::vector<GkSummary> next;
    next.reserve((level.size() + fanout - 1) / fanout);
    for (std::size_t base = 0; base < level.size(); base += fanout) {
      const std::size_t end = std::min(level.size(), base + fanout);
      std::vector<GkSummary> group(
          std::make_move_iterator(level.begin() + static_cast<std::ptrdiff_t>(base)),
          std::make_move_iterator(level.begin() + static_cast<std::ptrdiff_t>(end)));
      next.push_back(AggregateAtNode(std::move(group), node_height));
    }
    level = std::move(next);
    ++node_height;
  }
  return std::move(level.front());
}

}  // namespace streamgpu::sketch
