#include "gpudb/gpu_relation.h"

#include <bit>
#include <cmath>
#include <limits>

#include "common/check.h"
#include "common/float_order.h"
#include "sort/pbsn_network.h"

namespace streamgpu::gpudb {

namespace {

// Padding texels beyond the column use +inf; CountLoaded() corrects for
// them via the tracked sentinel value.
constexpr float kPad = std::numeric_limits<float>::infinity();

void TextureDims(std::int64_t padded, int* width, int* height) {
  const int levels = sort::CeilLog2(static_cast<std::uint64_t>(padded));
  *width = 1 << ((levels + 1) / 2);
  *height = 1 << (levels / 2);
}

// The incoming fragment carries the query constant and the depth buffer the
// attribute, so the attribute-side predicate flips: a < c passes when the
// incoming c is GREATER than the stored a.
gpu::DepthFunc ToDepthFunc(Predicate pred) {
  switch (pred) {
    case Predicate::kLess:
      return gpu::DepthFunc::kGreater;
    case Predicate::kLessEqual:
      return gpu::DepthFunc::kGreaterEqual;
    case Predicate::kGreater:
      return gpu::DepthFunc::kLess;
    case Predicate::kGreaterEqual:
      return gpu::DepthFunc::kLessEqual;
    case Predicate::kEqual:
      return gpu::DepthFunc::kEqual;
    case Predicate::kNotEqual:
      return gpu::DepthFunc::kNotEqual;
  }
  return gpu::DepthFunc::kNever;
}

}  // namespace

GpuRelation::GpuRelation(gpu::GpuDevice* device,
                         const hwmodel::GpuHardwareProfile& profile,
                         std::vector<std::span<const float>> columns)
    : device_(device), model_(profile) {
  STREAMGPU_CHECK(device != nullptr);
  STREAMGPU_CHECK_MSG(!columns.empty(), "GpuRelation requires at least one column");
  count_ = columns.front().size();
  STREAMGPU_CHECK_MSG(count_ > 0, "GpuRelation requires non-empty columns");
  for (const auto& column : columns) {
    STREAMGPU_CHECK_MSG(column.size() == count_, "columns must have equal length");
  }
  start_stats_ = device_->stats();

  const auto padded = static_cast<std::int64_t>(
      sort::NextPowerOfTwo(static_cast<std::uint64_t>(count_)));
  TextureDims(padded, &width_, &height_);
  padding_ = static_cast<std::uint64_t>(padded) - count_;

  std::vector<float> staging(static_cast<std::size_t>(padded));
  for (const auto& column : columns) {
    const auto tex = device_->CreateTexture(width_, height_, gpu::Format::kFloat32);
    std::copy(column.begin(), column.end(), staging.begin());
    std::fill(staging.begin() + static_cast<std::ptrdiff_t>(count_), staging.end(),
              kPad);
    device_->UploadChannel(tex, 0, staging);
    textures_.push_back(tex);
  }
  device_->BindDepthBuffer(width_, height_);
  LoadColumn(0);
}

void GpuRelation::LoadColumn(std::size_t attribute) {
  STREAMGPU_CHECK(attribute < textures_.size());
  if (loaded_attribute_ == static_cast<std::ptrdiff_t>(attribute)) return;
  device_->LoadDepthFromTexture(textures_[attribute], 0);
  loaded_attribute_ = static_cast<std::ptrdiff_t>(attribute);
  sentinel_ = kPad;
}

void GpuRelation::LoadLinear(std::span<const float> coeffs) {
  STREAMGPU_CHECK_MSG(coeffs.size() == textures_.size(),
                      "one coefficient per column required");
  // Pass 1: a fragment program evaluates the linear combination into the
  // framebuffer (one MAD and one fetch per column per fragment).
  device_->BindFramebuffer(width_, height_, gpu::Format::kFloat32);
  gpu::GpuDevice& dev = *device_;
  const auto& textures = textures_;
  device_->RunFragmentProgram(
      textures_[0], 0, 0, width_, height_,
      /*instructions_per_fragment=*/2 * static_cast<std::uint64_t>(coeffs.size()),
      /*fetches_per_fragment=*/coeffs.size(),
      [&dev, &textures, coeffs](int x, int y, const gpu::Surface&,
                                float out[gpu::kNumChannels]) {
        float acc = 0;
        for (std::size_t c = 0; c < coeffs.size(); ++c) {
          acc += coeffs[c] * dev.Texture(textures[c]).Get(0, x, y);
        }
        for (int ch = 0; ch < gpu::kNumChannels; ++ch) out[ch] = acc;
      });
  // Pass 2: depth-replace the computed attribute into the depth buffer.
  device_->LoadDepthFromFramebuffer(0);
  loaded_attribute_ = -1;
  // The padding texels hold +inf in every column, so their combination is
  // sum(coeff_i) * inf — +/-inf or NaN for mixed signs; either way the
  // sentinel correction below handles it.
  float sentinel = 0;
  for (float c : coeffs) sentinel += c * kPad;
  sentinel_ = sentinel;
}

std::uint64_t GpuRelation::CountLoaded(Predicate pred, float constant) {
  // Counting passes leave depth writes off, so the loaded attribute survives
  // arbitrarily many queries.
  device_->SetDepthTest(ToDepthFunc(pred), /*write_depth=*/false);
  device_->BeginOcclusionQuery();
  device_->DrawDepthOnlyQuad(0, 0, static_cast<float>(width_),
                             static_cast<float>(height_), constant);
  std::uint64_t passed = device_->EndOcclusionQuery();
  if (gpu::DepthTestPasses(ToDepthFunc(pred), constant, sentinel_)) {
    STREAMGPU_DCHECK(passed >= padding_);
    passed -= padding_;
  }
  return passed;
}

std::uint64_t GpuRelation::Count(Predicate pred, float constant, std::size_t attribute) {
  LoadColumn(attribute);
  return CountLoaded(pred, constant);
}

std::uint64_t GpuRelation::CountRange(float lo, float hi, std::size_t attribute) {
  STREAMGPU_CHECK(lo <= hi);
  const std::uint64_t at_most_hi = Count(Predicate::kLessEqual, hi, attribute);
  const std::uint64_t below_lo = Count(Predicate::kLess, lo, attribute);
  return at_most_hi - below_lo;
}

std::uint64_t GpuRelation::CountLinear(std::span<const float> coeffs, Predicate pred,
                                       float constant) {
  LoadLinear(coeffs);
  return CountLoaded(pred, constant);
}

std::uint64_t GpuRelation::CountConjunction(std::span<const Clause> clauses) {
  STREAMGPU_CHECK(!clauses.empty());
  device_->BindStencilBuffer(width_, height_, 0);

  // Mark passes: after pass i, records satisfying the first i+1 clauses
  // hold stencil value i+1. Padding texels can pass individual clauses, so
  // they are tracked alongside and corrected at the end.
  bool padding_satisfies_all = true;
  for (std::size_t i = 0; i < clauses.size(); ++i) {
    const Clause& clause = clauses[i];
    LoadColumn(clause.attribute);
    device_->SetDepthTest(ToDepthFunc(clause.pred), /*write_depth=*/false);
    device_->SetStencilTest(true, gpu::GpuDevice::StencilFunc::kEqual,
                            static_cast<std::uint8_t>(i),
                            gpu::GpuDevice::StencilOp::kIncrement);
    device_->DrawDepthOnlyQuad(0, 0, static_cast<float>(width_),
                               static_cast<float>(height_), clause.constant);
    padding_satisfies_all =
        padding_satisfies_all &&
        gpu::DepthTestPasses(ToDepthFunc(clause.pred), clause.constant, sentinel_);
  }

  // Final counted pass: stencil == #clauses, depth test ALWAYS.
  device_->SetDepthTest(gpu::DepthFunc::kAlways, /*write_depth=*/false);
  device_->SetStencilTest(true, gpu::GpuDevice::StencilFunc::kEqual,
                          static_cast<std::uint8_t>(clauses.size()),
                          gpu::GpuDevice::StencilOp::kKeep);
  device_->BeginOcclusionQuery();
  device_->DrawDepthOnlyQuad(0, 0, static_cast<float>(width_),
                             static_cast<float>(height_), 0.0f);
  std::uint64_t passed = device_->EndOcclusionQuery();
  device_->SetStencilTest(false);

  if (padding_satisfies_all) {
    STREAMGPU_DCHECK(passed >= padding_);
    passed -= padding_;
  }
  return passed;
}

std::uint64_t GpuRelation::CountDisjunction(const Clause& a, const Clause& b) {
  const std::uint64_t count_a = Count(a.pred, a.constant, a.attribute);
  const std::uint64_t count_b = Count(b.pred, b.constant, b.attribute);
  const Clause both[] = {a, b};
  return count_a + count_b - CountConjunction(both);
}

float GpuRelation::KthLargest(std::uint64_t k, std::size_t attribute) {
  STREAMGPU_CHECK(k >= 1 && k <= count_);
  LoadColumn(attribute);
  // g(v) = COUNT(a > v) is nonincreasing; the k-th largest is the smallest
  // v with g(v) <= k - 1. Binary search over the ordered float keys, one
  // occlusion-counted pass per step ([20]).
  std::uint32_t lo = OrderedKey(-std::numeric_limits<float>::infinity());
  std::uint32_t hi = OrderedKey(std::numeric_limits<float>::infinity());
  while (lo + 1 < hi) {
    const std::uint32_t mid = lo + (hi - lo) / 2;
    if (CountLoaded(Predicate::kGreater, std::bit_cast<float>(OrderedKeyToFloat(mid))) <=
        k - 1) {
      hi = mid;
    } else {
      lo = mid;
    }
  }
  return std::bit_cast<float>(OrderedKeyToFloat(hi));
}

hwmodel::GpuTimeBreakdown GpuRelation::SimulatedCosts() const {
  return model_.Simulate(device_->stats() - start_stats_);
}

}  // namespace streamgpu::gpudb
