#include "gpu/device.h"

#include <xmmintrin.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstring>
#include <thread>

namespace streamgpu::gpu {

namespace {

// True when the pixels [p0, p1) of one axis fetch through `m` the texels
// p - p % block + block - 1 - p % block: each pixel's mirror within its
// aligned block, the identity for blocks of 1. Every pixel does when the
// first one does and the mapping walks down (or up, for the identity) without
// leaving the block.
bool MirrorsAxis(const UnitMapping& m, int p0, int p1, std::uint64_t block) {
  const std::uint64_t offset = static_cast<std::uint64_t>(p0) % block;
  const std::uint64_t mirror = p0 - offset + block - 1 - offset;
  if (m.first < 0 || static_cast<std::uint64_t>(m.first) != mirror) return false;
  if (p1 - p0 == 1) return true;
  if (block == 1) return m.step == 1;
  return m.step == -1 && static_cast<std::uint64_t>(p0) / block ==
                             static_cast<std::uint64_t>(p1 - 1) / block;
}

// ---------------------------------------------------------------------------
// The recorded-stage replay: a stage's mirror compare-exchange steps, run in
// place on the texture's storage.
//
// Steps b, b/2, ..., b/2^(s-1) close over groups of 2^s texels: for s = 3
// and t < b/8 the positions t, b/4-1-t, b/4+t, b/2-1-t, b/2+t, 3b/4-1-t,
// 3b/4+t and b-1-t of a block pair up with each other in all three steps. A
// pass loads such a group into SSE registers, one texel (its four channels)
// per register, runs the steps there and stores it back. In ascending order
// the group's texels are a block of the mirror network again, so step s
// pairs group positions within spans of kGroup >> s.
// ---------------------------------------------------------------------------

// A MIN draw over the lower texel and a MAX draw over the upper one, each
// fetching the other. std::min(dst, src) is _mm_min_ps(src, dst) and
// std::max(dst, src) is _mm_max_ps(src, dst): both return their second
// operand unless the first compares strictly less (greater), so ±0 and NaN
// blend as the draws blend them.
[[gnu::always_inline]] inline void CompareExchange(__m128& lo, __m128& hi) {
  const __m128 min = _mm_min_ps(hi, lo);
  hi = _mm_max_ps(lo, hi);
  lo = min;
}

// The steps of spans kSpan, kSpan/2, ..., 2 over a group held in registers.
template <int kGroup, int kSpan>
[[gnu::always_inline]] inline void MirrorSteps(__m128 (&x)[kGroup]) {
  if constexpr (kSpan >= 2) {
#pragma GCC unroll 16
    for (int base = 0; base < kGroup; base += kSpan) {
#pragma GCC unroll 16
      for (int r = 0; r < kSpan / 2; ++r) {
        CompareExchange(x[base + r], x[base + kSpan - 1 - r]);
      }
    }
    MirrorSteps<kGroup, kSpan / 2>(x);
  }
}

// One pass: the kGroup == 2^s steps block, block/2, ... over every closed
// group, in place in `tex`. With kTwoSource the first step's pre-blend values
// come from `dst`, a surface of the texture's layout, and its fetched values
// from `tex`, as a draw into an unaliased framebuffer reads them.
template <int kGroup, bool kTwoSource>
void MirrorPass(float* tex, const float* dst, std::uint64_t width, std::uint64_t height,
                std::size_t row_floats, std::uint64_t block) {
  // Within a block, group t holds the positions kq + t (k even, ascending
  // with t) and (k + 1)q - 1 - t (k odd, descending), t < q. The positions
  // of up to `run` consecutive groups stay within a row each.
  const std::uint64_t q = block / kGroup;
  const std::uint64_t run = std::min(q, width);
  std::ptrdiff_t first[kGroup];  // floats from the block's first texel
  for (int k = 0; k < kGroup; ++k) {
    const std::uint64_t pos = k % 2 == 0 ? k * q : (k + 1) * q - 1;
    first[k] = static_cast<std::ptrdiff_t>((pos / width) * row_floats +
                                           (pos % width) * kNumChannels);
  }
  // A block lies within a row or spans whole rows. Past the first run of a
  // block's groups (q > W), ascending positions move down a row per run and
  // descending ones up.
  const std::uint64_t block_rows = block > width ? block / width : 1;
  const std::uint64_t row_blocks = block > width ? 1 : width / block;
  for (std::uint64_t y = 0; y < height; y += block_rows) {
    for (std::uint64_t b = 0; b < row_blocks; ++b) {
      float* const base = tex + y * row_floats + b * block * kNumChannels;
      for (std::uint64_t r = 0; r < q / run; ++r) {
        const std::ptrdiff_t rows = static_cast<std::ptrdiff_t>(r * row_floats);
        float* p[kGroup];
#pragma GCC unroll 16
        for (int k = 0; k < kGroup; ++k) {
          p[k] = base + first[k] + (k % 2 == 0 ? rows : -rows);
        }
        for (std::uint64_t t = 0; t < run; ++t) {
          const std::ptrdiff_t step = static_cast<std::ptrdiff_t>(t * kNumChannels);
          // Texel k of the group: ascending positions for even k, descending
          // for odd.
          const auto at = [&](int k) { return p[k] + (k % 2 == 0 ? step : -step); };
          __m128 x[kGroup];
#pragma GCC unroll 16
          for (int k = 0; k < kGroup; ++k) x[k] = _mm_loadu_ps(at(k));
          if constexpr (kTwoSource) {
            // Step one blends into the framebuffer's values: MIN of the lower
            // texel's with the fetched upper one, MAX of the upper's with the
            // fetched lower one.
            __m128 d[kGroup];
#pragma GCC unroll 16
            for (int k = 0; k < kGroup; ++k) d[k] = _mm_loadu_ps(dst + (at(k) - tex));
#pragma GCC unroll 16
            for (int lo = 0; lo < kGroup / 2; ++lo) {
              const int hi = kGroup - 1 - lo;
              const __m128 min = _mm_min_ps(x[hi], d[lo]);
              x[hi] = _mm_max_ps(x[lo], d[hi]);
              x[lo] = min;
            }
            MirrorSteps<kGroup, kGroup / 2>(x);
          } else {
            MirrorSteps<kGroup, kGroup>(x);
          }
#pragma GCC unroll 16
          for (int k = 0; k < kGroup; ++k) _mm_storeu_ps(at(k), x[k]);
        }
      }
    }
  }
}

template <int kGroup>
void MirrorPass(float* tex, const float* dst, std::uint64_t width, std::uint64_t height,
                std::size_t row_floats, std::uint64_t block) {
  if (dst != nullptr) {
    MirrorPass<kGroup, true>(tex, dst, width, height, row_floats, block);
  } else {
    MirrorPass<kGroup, false>(tex, dst, width, height, row_floats, block);
  }
}

// Runs the mirror steps of `steps` (block sizes; StageProgram proved each)
// in place in `tex`. `first_dst`, when non-null, holds the first step's
// pre-blend values in the texture's layout. A pass costs one round trip
// through memory, whatever its steps, so a halving run of steps is split
// into as few passes of at most four steps (16 texels, as many as SSE has
// registers) as it allows, of as even a length as possible.
void RunMirrorNetwork(std::span<const std::uint64_t> steps, const float* first_dst,
                      Surface* tex) {
  const std::uint64_t width = static_cast<std::uint64_t>(tex->width());
  const std::uint64_t height = static_cast<std::uint64_t>(tex->height());
  const std::size_t row_floats = tex->row_stride() * kNumChannels;
  float* data = tex->TexelData();
  const float* dst = first_dst;
  for (std::size_t i = 0; i < steps.size();) {
    std::size_t halving = 1;
    while (i + halving < steps.size() &&
           steps[i + halving] * 2 == steps[i + halving - 1]) {
      ++halving;
    }
    const std::size_t passes = (halving + 3) / 4;
    const std::size_t fused = (halving + passes - 1) / passes;
    switch (fused) {
      case 4:
        MirrorPass<16>(data, dst, width, height, row_floats, steps[i]);
        break;
      case 3:
        MirrorPass<8>(data, dst, width, height, row_floats, steps[i]);
        break;
      case 2:
        MirrorPass<4>(data, dst, width, height, row_floats, steps[i]);
        break;
      default:
        MirrorPass<2>(data, dst, width, height, row_floats, steps[i]);
        break;
    }
    dst = nullptr;
    i += fused;
  }
}

}  // namespace

void StageProgram::Reset(int width, int height, std::size_t draws) {
  STREAMGPU_CHECK(width > 0 && height > 0);
  width_ = width;
  height_ = height;
  declared_ = draws;
  draws_ = 0;
  steps_.clear();
  step_block_ = 0;
  step_area_ = 0;
  last_op_ = BlendOp::kReplace;
  // Power-of-two sides make every block of a power-of-two size lie within a
  // row or span whole rows. At most one draw per texel.
  const std::uint64_t texels = static_cast<std::uint64_t>(width) * height;
  replayable_ = std::has_single_bit(static_cast<unsigned>(width)) &&
                std::has_single_bit(static_cast<unsigned>(height)) && draws > 0 &&
                draws <= texels;
  if (replayable_) {
    steps_.reserve(static_cast<std::size_t>(std::bit_width(texels) - 1));
    covered_.assign(texels, 0);
  } else {
    Abandon();
  }
}

void StageProgram::Abandon() {
  steps_ = {};
  covered_ = {};
  replayable_ = false;
}

bool StageProgram::ProveMirrorDraw(const QuadSetup& s, BlendOp op) {
  if (s.empty() || s.cols.step == 0 || s.rows.step == 0) return false;
  // The first pixel i fetches texel j = mirror_b(i) only if
  // i + j + 1 = b * (2 * (i / b) + 1): b is the largest power of two that
  // divides i + j + 1.
  if (s.rows.first < 0 || s.cols.first < 0) return false;
  const std::uint64_t w = static_cast<std::uint64_t>(width_);
  const std::uint64_t i = static_cast<std::uint64_t>(s.py0) * w + s.px0;
  const std::uint64_t j = static_cast<std::uint64_t>(s.rows.first) * w +
                          static_cast<std::uint64_t>(s.cols.first);
  const std::uint64_t block = std::uint64_t{1} << std::countr_zero(i + j + 1);
  if (block < 2 || block > w * static_cast<std::uint64_t>(height_)) return false;
  if (step_block_ != 0 && block != step_block_) return false;
  // A block within a row mirrors its columns; a block of b / W rows mirrors
  // whole rows and, within the block, the rows.
  const std::uint64_t col_block = std::min(block, w);
  const std::uint64_t row_block = block / col_block;
  if (!MirrorsAxis(s.cols, s.px0, s.px1, col_block) ||
      !MirrorsAxis(s.rows, s.py0, s.py1, row_block)) {
    return false;
  }
  // MIN over the block's lower half, MAX over its upper half, along the axis
  // that splits the block's halves.
  const bool by_rows = row_block > 1;
  const std::uint64_t half = (by_rows ? row_block : col_block) / 2;
  const int p0 = by_rows ? s.py0 : s.px0;
  const int p1 = by_rows ? s.py1 : s.px1;
  const std::uint64_t first = static_cast<std::uint64_t>(p0) / half;
  const std::uint64_t last = static_cast<std::uint64_t>(p1 - 1) / half;
  const BlendOp want = first % 2 == 0 ? BlendOp::kMin : BlendOp::kMax;
  if (first != last || op != want) return false;
  step_block_ = block;
  return true;
}

bool StageProgram::Cover(const QuadSetup& s) {
  for (int y = s.py0; y < s.py1; ++y) {
    std::uint8_t* row = covered_.data() + static_cast<std::size_t>(y) * width_;
    if (std::find(row + s.px0, row + s.px1, 1) != row + s.px1) return false;
    std::fill(row + s.px0, row + s.px1, 1);
  }
  step_area_ += static_cast<std::uint64_t>(s.px1 - s.px0) *
                static_cast<std::uint64_t>(s.py1 - s.py0);
  return true;
}

void StageProgram::Add(const Quad& quad, BlendOp op) {
  if (!replayable_) return;
  const QuadSetup s = Rasterizer::SetUp(quad, width_, height_);
  if (draws_ == declared_ || !ProveMirrorDraw(s, op) || !Cover(s)) {
    Abandon();
    return;
  }
  ++draws_;
  last_op_ = op;
}

void StageProgram::EndStep() {
  if (!replayable_) return;
  if (step_area_ != static_cast<std::uint64_t>(width_) * height_) {
    Abandon();
    return;
  }
  steps_.push_back(step_block_);
  step_block_ = 0;
  step_area_ = 0;
  if (draws_ == declared_) {
    covered_ = {};  // recorded
  } else {
    std::fill(covered_.begin(), covered_.end(), 0);
  }
}

DeviceFault GpuDevice::PollFaultSlow(DeviceFaultSite site, std::uint64_t elements) {
  DeviceFault fault;
  if (lost_) return fault;
  fault = fault_hook_->OnDeviceOp(site, elements);
  switch (fault.kind) {
    case DeviceFault::Kind::kStall:
      // A transient hiccup: the op completes after the delay. Wall-clock
      // only; the simulated-2005 accounting is unaffected.
      std::this_thread::sleep_for(std::chrono::microseconds(fault.stall_us));
      fault.kind = DeviceFault::Kind::kNone;
      break;
    case DeviceFault::Kind::kDeviceLost:
      lost_ = true;
      fault.kind = DeviceFault::Kind::kNone;
      break;
    default:
      break;  // corruption kinds: the caller applies them after the op
  }
  return fault;
}

void GpuDevice::ApplyFramebufferCorruption(const DeviceFault& fault) {
  Surface& fb = ReadableFramebuffer();
  const std::uint64_t slots =
      static_cast<std::uint64_t>(fb.num_texels()) * kNumChannels;
  if (slots == 0) return;
  const std::uint64_t slot = fault.target % slots;
  const int channel = static_cast<int>(slot % kNumChannels);
  const std::uint64_t texel = slot / kNumChannels;
  const int x = static_cast<int>(texel % static_cast<std::uint64_t>(fb.width()));
  const int y = static_cast<int>(texel / static_cast<std::uint64_t>(fb.width()));
  float* p = fb.TexelData() + fb.Index(x, y) * kNumChannels + channel;
  *p = CorruptValue(*p, fault.kind, fault.bit);
}

TextureHandle GpuDevice::CreateTexture(int width, int height, Format format) {
  if (!texture_arena_.empty()) {
    std::unique_ptr<Surface> recycled = std::move(texture_arena_.back());
    texture_arena_.pop_back();
    recycled->Reset(width, height, format);
    textures_.push_back(std::move(recycled));
  } else {
    textures_.push_back(std::make_unique<Surface>(width, height, format));
  }
  return static_cast<TextureHandle>(textures_.size()) - 1;
}

void GpuDevice::DestroyAllTextures() {
  if (fb_alias_ >= 0) {
    // The framebuffer's logical content lives (partly) in the aliased
    // texture, which is about to retire. Reclaim it: when nothing was drawn
    // since the swap a plain storage swap suffices (the retiring texture's
    // content is irrelevant), otherwise materialize.
    if (fb_written_.empty()) {
      std::swap(framebuffer_, *textures_[static_cast<std::size_t>(fb_alias_)]);
      fb_alias_ = -1;
    } else {
      MaterializeFramebuffer();
    }
  }
  for (auto& texture : textures_) texture_arena_.push_back(std::move(texture));
  textures_.clear();
}

void GpuDevice::NoteFramebufferWrite(int x0, int y0, int x1, int y1) {
  if (fb_alias_ < 0) return;
  x0 = std::max(x0, 0);
  y0 = std::max(y0, 0);
  x1 = std::min(x1, framebuffer_.width());
  y1 = std::min(y1, framebuffer_.height());
  if (x0 >= x1 || y0 >= y1) return;
  // A rectangle clear of the written rectangles' bounding box overlaps none
  // of them. The sort passes write their quads in screen order, so each draw
  // costs O(1) here instead of a scan over every quad since the swap.
  std::array<int, 4>& bounds = fb_written_bounds_;
  if (!fb_written_.empty() && x0 < bounds[2] && bounds[0] < x1 && y0 < bounds[3] &&
      bounds[1] < y1) {
    for (const auto& r : fb_written_) {
      if (x0 < r[2] && r[0] < x1 && y0 < r[3] && r[1] < y1) {
        // Overlap: the overlapped texels' current values are in the
        // framebuffer, not the aliased texture, so the alias can no longer
        // stand in for pre-blend reads.
        MaterializeFramebuffer();
        return;
      }
    }
  }
  bounds = fb_written_.empty()
               ? std::array<int, 4>{x0, y0, x1, y1}
               : std::array<int, 4>{std::min(bounds[0], x0), std::min(bounds[1], y0),
                                    std::max(bounds[2], x1), std::max(bounds[3], y1)};
  fb_written_.push_back({x0, y0, x1, y1});
  fb_written_area_ +=
      static_cast<std::uint64_t>(x1 - x0) * static_cast<std::uint64_t>(y1 - y0);
}

void GpuDevice::MaterializeFramebuffer() {
  if (fb_alias_ < 0) return;
  const Surface& t = *textures_[static_cast<std::size_t>(fb_alias_)];
  if (fb_written_.empty()) {
    // Same dimensions and format, hence the same strides: copy the padded
    // storage wholesale.
    std::memcpy(framebuffer_.TexelData(), t.TexelData(),
                t.row_stride() * t.height() * kNumChannels * sizeof(float));
  } else {
    // Copy only the texels not yet rewritten since the swap (cold path; the
    // sort loops always tile the framebuffer completely between copies).
    const int w = framebuffer_.width();
    const int h = framebuffer_.height();
    fb_mask_.assign(static_cast<std::size_t>(w) * h, 0);
    for (const auto& r : fb_written_) {
      for (int y = r[1]; y < r[3]; ++y) {
        std::memset(fb_mask_.data() + static_cast<std::size_t>(y) * w + r[0], 1,
                    static_cast<std::size_t>(r[2] - r[0]));
      }
    }
    for (int y = 0; y < h; ++y) {
      const float* src = t.TexelData() + t.Index(0, y) * kNumChannels;
      float* dst = framebuffer_.TexelData() + framebuffer_.Index(0, y) * kNumChannels;
      const std::uint8_t* mask = fb_mask_.data() + static_cast<std::size_t>(y) * w;
      for (int x = 0; x < w; ++x) {
        if (mask[x] == 0) {
          for (int c = 0; c < kNumChannels; ++c) {
            dst[x * kNumChannels + c] = src[x * kNumChannels + c];
          }
        }
      }
    }
  }
  fb_alias_ = -1;
  fb_written_.clear();
  fb_written_area_ = 0;
}

Surface& GpuDevice::ReadableFramebuffer() {
  if (fb_alias_ >= 0 && fb_written_.empty()) {
    return *textures_[static_cast<std::size_t>(fb_alias_)];
  }
  MaterializeFramebuffer();
  return framebuffer_;
}

const Surface& GpuDevice::Texture(TextureHandle tex) const {
  STREAMGPU_CHECK(tex >= 0 && static_cast<std::size_t>(tex) < textures_.size());
  return *textures_[tex];
}

Surface& GpuDevice::MutableTexture(TextureHandle tex) {
  STREAMGPU_CHECK(tex >= 0 && static_cast<std::size_t>(tex) < textures_.size());
  return *textures_[tex];
}

void GpuDevice::UploadChannel(TextureHandle tex, int channel, std::span<const float> data) {
  const DeviceFault fault = PollFault(DeviceFaultSite::kUpload, data.size());
  if (lost_) return;
  // Uploading into the aliased texture would corrupt the framebuffer's
  // logical content; reclaim it first.
  if (tex == fb_alias_) MaterializeFramebuffer();
  Surface& t = MutableTexture(tex);
  STREAMGPU_CHECK(channel >= 0 && channel < kNumChannels);
  STREAMGPU_CHECK_MSG(data.size() == t.num_texels(),
                      "UploadChannel size must match texture dimensions");
  const float* src = data.data();
  const bool half = t.format() == Format::kFloat16;
  for (int y = 0; y < t.height(); ++y) {
    float* dst = t.TexelData() + t.Index(0, y) * kNumChannels + channel;
    if (half) {
      for (int x = 0; x < t.width(); ++x) {
        dst[x * kNumChannels] = QuantizeToHalf(src[x]);
      }
    } else {
      for (int x = 0; x < t.width(); ++x) dst[x * kNumChannels] = src[x];
    }
    src += t.width();
  }
  stats_.bytes_uploaded += t.num_texels() * BytesPerChannel(t.format());
  // Uploads also land in video memory.
  stats_.bytes_vram += t.num_texels() * BytesPerChannel(t.format());

  if (fault.kind != DeviceFault::Kind::kNone && t.num_texels() > 0) {
    // A transfer error: one stored value of the just-written channel.
    const std::uint64_t texel = fault.target % t.num_texels();
    const int fx = static_cast<int>(texel % static_cast<std::uint64_t>(t.width()));
    const int fy = static_cast<int>(texel / static_cast<std::uint64_t>(t.width()));
    float* p = t.TexelData() + t.Index(fx, fy) * kNumChannels + channel;
    *p = CorruptValue(*p, fault.kind, fault.bit);
  }
}

void GpuDevice::ReadbackChannel(int channel, std::span<float> out) {
  STREAMGPU_CHECK(channel >= 0 && channel < kNumChannels);
  STREAMGPU_CHECK_MSG(out.size() == framebuffer_.num_texels(),
                      "ReadbackChannel size must match framebuffer dimensions");
  const DeviceFault fault = PollFault(DeviceFaultSite::kReadback, out.size());
  if (lost_) return;  // dropped: the host buffer keeps its stale contents
  const Surface& fb = ReadableFramebuffer();
  float* dst = out.data();
  for (int y = 0; y < fb.height(); ++y) {
    const float* src = fb.TexelData() + fb.Index(0, y) * kNumChannels + channel;
    for (int x = 0; x < fb.width(); ++x) dst[x] = src[x * kNumChannels];
    dst += fb.width();
  }
  stats_.bytes_readback += framebuffer_.num_texels() * BytesPerChannel(framebuffer_.format());
  stats_.bytes_vram += framebuffer_.num_texels() * BytesPerChannel(framebuffer_.format());

  if (fault.kind != DeviceFault::Kind::kNone && !out.empty()) {
    // A bus error on the way back: device memory stays intact, the host
    // copy takes the hit.
    float& v = out[fault.target % out.size()];
    v = CorruptValue(v, fault.kind, fault.bit);
  }
}

void GpuDevice::BindFramebuffer(int width, int height, Format format) {
  // Rebinding defines the framebuffer's contents afresh; drop any alias.
  fb_alias_ = -1;
  fb_written_.clear();
  fb_written_area_ = 0;
  framebuffer_.Reset(width, height, format);
  stats_.framebuffer_binds += 1;
}

void GpuDevice::DrawQuad(TextureHandle tex, const Quad& quad) {
  DeviceFault fault;
  if (fault_hook_ != nullptr) {
    // Behind the hook check: the texel-count lookup is wasted work on the
    // (default) disabled path.
    fault = PollFault(DeviceFaultSite::kPass, Texture(tex).num_texels());
  }
  if (lost_) return;
  const QuadSetup setup =
      Rasterizer::SetUp(quad, framebuffer_.width(), framebuffer_.height());
  if (fb_alias_ >= 0 && !setup.empty()) {
    NoteFramebufferWrite(setup.px0, setup.py0, setup.px1, setup.py1);
  }
  const Surface* dst_read =
      fb_alias_ >= 0 ? textures_[static_cast<std::size_t>(fb_alias_)].get() : nullptr;
  Rasterizer::DrawQuad(Texture(tex), setup, blend_op_, &framebuffer_, &stats_, dst_read);
  if (fault.kind != DeviceFault::Kind::kNone) ApplyFramebufferCorruption(fault);
}

void GpuDevice::BindDepthBuffer(int width, int height, float clear_value) {
  STREAMGPU_CHECK(width > 0 && height > 0);
  depth_width_ = width;
  depth_height_ = height;
  depth_buffer_.assign(static_cast<std::size_t>(width) * height, clear_value);
  stats_.framebuffer_binds += 1;
}

void GpuDevice::LoadDepthFromTexture(TextureHandle tex, int channel) {
  const Surface& t = Texture(tex);
  STREAMGPU_CHECK(channel >= 0 && channel < kNumChannels);
  STREAMGPU_CHECK_MSG(t.width() == depth_width_ && t.height() == depth_height_,
                      "LoadDepthFromTexture requires matching dimensions");
  const std::size_t n = t.num_texels();
  for (int y = 0; y < t.height(); ++y) {
    const float* src = t.TexelData() + t.Index(0, y) * kNumChannels + channel;
    float* dst = depth_buffer_.data() + static_cast<std::size_t>(y) * t.width();
    for (int x = 0; x < t.width(); ++x) dst[x] = src[x * kNumChannels];
  }
  stats_.draw_calls += 1;
  stats_.fragments_shaded += n;
  stats_.texture_fetches += n;
  stats_.depth_test_fragments += n;
  // One texel fetch plus one depth write per fragment.
  stats_.bytes_vram += n * (BytesPerTexel(t.format()) + sizeof(float));
}

void GpuDevice::LoadDepthFromFramebuffer(int channel) {
  STREAMGPU_CHECK(channel >= 0 && channel < kNumChannels);
  STREAMGPU_CHECK_MSG(
      framebuffer_.width() == depth_width_ && framebuffer_.height() == depth_height_,
      "LoadDepthFromFramebuffer requires matching dimensions");
  const Surface& fb = ReadableFramebuffer();
  const std::size_t n = framebuffer_.num_texels();
  for (int y = 0; y < fb.height(); ++y) {
    const float* src = fb.TexelData() + fb.Index(0, y) * kNumChannels + channel;
    float* dst = depth_buffer_.data() + static_cast<std::size_t>(y) * fb.width();
    for (int x = 0; x < fb.width(); ++x) dst[x] = src[x * kNumChannels];
  }
  stats_.draw_calls += 1;
  stats_.fragments_shaded += n;
  stats_.depth_test_fragments += n;
  stats_.bytes_vram += n * (BytesPerChannel(framebuffer_.format()) + sizeof(float));
}

void GpuDevice::SetDepthTest(DepthFunc func, bool write_depth) {
  depth_func_ = func;
  depth_write_ = write_depth;
}

void GpuDevice::BeginOcclusionQuery() {
  STREAMGPU_CHECK_MSG(!occlusion_active_, "occlusion query already active");
  occlusion_active_ = true;
  occlusion_passed_ = 0;
}

std::uint64_t GpuDevice::EndOcclusionQuery() {
  STREAMGPU_CHECK_MSG(occlusion_active_, "no occlusion query active");
  occlusion_active_ = false;
  stats_.occlusion_queries += 1;
  stats_.bytes_readback += sizeof(std::uint64_t);
  return occlusion_passed_;
}

void GpuDevice::BindStencilBuffer(int width, int height, std::uint8_t clear_value) {
  STREAMGPU_CHECK(width > 0 && height > 0);
  stencil_width_ = width;
  stencil_height_ = height;
  stencil_buffer_.assign(static_cast<std::size_t>(width) * height, clear_value);
}

void GpuDevice::SetStencilTest(bool enabled, StencilFunc func, std::uint8_t reference,
                               StencilOp on_pass) {
  stencil_enabled_ = enabled;
  stencil_func_ = func;
  stencil_ref_ = reference;
  stencil_on_pass_ = on_pass;
}

std::uint8_t GpuDevice::StencilAt(int x, int y) const {
  STREAMGPU_CHECK(x >= 0 && x < stencil_width_ && y >= 0 && y < stencil_height_);
  return stencil_buffer_[static_cast<std::size_t>(y) * stencil_width_ + x];
}

void GpuDevice::DrawDepthOnlyQuad(float x0, float y0, float x1, float y1, float depth) {
  STREAMGPU_CHECK_MSG(depth_width_ > 0, "no depth buffer bound");
  if (stencil_enabled_) {
    STREAMGPU_CHECK_MSG(
        stencil_width_ == depth_width_ && stencil_height_ == depth_height_,
        "stencil and depth buffers must match");
  }
  const int px0 = std::max(0, static_cast<int>(std::ceil(x0 - 0.5f)));
  const int py0 = std::max(0, static_cast<int>(std::ceil(y0 - 0.5f)));
  const int px1 = std::min(depth_width_, static_cast<int>(std::ceil(x1 - 0.5f)));
  const int py1 = std::min(depth_height_, static_cast<int>(std::ceil(y1 - 0.5f)));
  stats_.draw_calls += 1;
  if (px0 >= px1 || py0 >= py1) return;

  std::uint64_t passed = 0;
  for (int y = py0; y < py1; ++y) {
    float* row = depth_buffer_.data() + static_cast<std::size_t>(y) * depth_width_;
    std::uint8_t* srow =
        stencil_enabled_
            ? stencil_buffer_.data() + static_cast<std::size_t>(y) * stencil_width_
            : nullptr;
    for (int x = px0; x < px1; ++x) {
      if (stencil_enabled_ && stencil_func_ == StencilFunc::kEqual &&
          srow[x] != stencil_ref_) {
        continue;  // stencil-fail: fragment discarded before the depth test
      }
      if (DepthTestPasses(depth_func_, depth, row[x])) {
        ++passed;
        if (depth_write_) row[x] = depth;
        if (stencil_enabled_) {
          switch (stencil_on_pass_) {
            case StencilOp::kKeep:
              break;
            case StencilOp::kIncrement:
              if (srow[x] != 0xFF) ++srow[x];
              break;
            case StencilOp::kZero:
              srow[x] = 0;
              break;
          }
        }
      }
    }
  }
  const std::uint64_t fragments =
      static_cast<std::uint64_t>(px1 - px0) * static_cast<std::uint64_t>(py1 - py0);
  stats_.fragments_shaded += fragments;
  stats_.depth_test_fragments += fragments;
  // One depth read per fragment; one write per passing fragment with depth
  // writes enabled; stencil reads/writes ride the same ROP path (1 B each).
  stats_.bytes_vram += fragments * sizeof(float) +
                       (depth_write_ ? passed * sizeof(float) : 0) +
                       (stencil_enabled_ ? fragments + passed : 0);
  if (occlusion_active_) occlusion_passed_ += passed;
}

float GpuDevice::DepthAt(int x, int y) const {
  STREAMGPU_CHECK(x >= 0 && x < depth_width_ && y >= 0 && y < depth_height_);
  return depth_buffer_[static_cast<std::size_t>(y) * depth_width_ + x];
}

void GpuDevice::CopyFramebufferToTexture(TextureHandle tex) {
  if (lost_) return;  // video-memory traffic is down with the device
  Surface& t = MutableTexture(tex);
  STREAMGPU_CHECK_MSG(
      t.width() == framebuffer_.width() && t.height() == framebuffer_.height(),
      "CopyFramebufferToTexture requires matching dimensions");
  // The charged traffic models the physical copy regardless of how it is
  // executed below: read the framebuffer once, write the texture once.
  stats_.bytes_vram += framebuffer_.SizeBytes() + t.SizeBytes();
  stats_.fb_to_texture_copies += 1;

  if (t.format() == framebuffer_.format()) {
    if (fb_alias_ == tex && fb_written_.empty()) {
      // The texture already holds the framebuffer's logical content; the
      // copy is a no-op.
      return;
    }
    if (fb_alias_ >= 0) {
      const bool tiled = fb_written_area_ ==
                         static_cast<std::uint64_t>(framebuffer_.width()) *
                             static_cast<std::uint64_t>(framebuffer_.height());
      if (fb_alias_ != tex || !tiled) {
        // Copying to a different texture, or the draws since the last swap
        // left part of the logical content in the aliased texture: restore
        // the physical framebuffer first.
        MaterializeFramebuffer();
      }
      // When tiled, the framebuffer is fully physical again (every texel was
      // rewritten since the swap) and the alias can simply move on.
    }
    std::swap(framebuffer_, t);
    fb_alias_ = tex;
    fb_written_.clear();
    fb_written_area_ = 0;
    return;
  }

  // Cross-precision copy (quantizing f32 framebuffer into an f16 texture):
  // no aliasing, physical copy from the logical content.
  if (tex == fb_alias_) MaterializeFramebuffer();
  const Surface& fb = ReadableFramebuffer();
  const bool quantize = t.format() == Format::kFloat16 && fb.format() != Format::kFloat16;
  for (int y = 0; y < t.height(); ++y) {
    const float* src = fb.TexelData() + fb.Index(0, y) * kNumChannels;
    float* dst = t.TexelData() + t.Index(0, y) * kNumChannels;
    const std::size_t n = static_cast<std::size_t>(t.width()) * kNumChannels;
    if (quantize) {
      QuantizeToHalfN(src, dst, n);
    } else {
      std::memcpy(dst, src, n * sizeof(float));
    }
  }
}

bool GpuDevice::ReplayStage(TextureHandle tex, const StageProgram& program) {
  if (fault_hook_ != nullptr || lost_ || Rasterizer::path() != RasterPath::kFast ||
      !program.replayable()) {
    return false;
  }
  // Either no alias (the framebuffer is physical: the first stage after the
  // Copy pass) or `tex` holding the framebuffer's content untouched since
  // the last copy (every later stage).
  if (fb_alias_ >= 0 && (fb_alias_ != tex || !fb_written_.empty())) return false;
  Surface& t = MutableTexture(tex);
  if (t.format() != framebuffer_.format()) return false;
  STREAMGPU_CHECK_MSG(t.width() == program.width() && t.height() == program.height() &&
                          framebuffer_.width() == program.width() &&
                          framebuffer_.height() == program.height(),
                      "ReplayStage: the program was recorded for another shape");

  // As DrawQuad: the first step's pre-blend values come from the physical
  // framebuffer when nothing is aliased, otherwise from `tex` itself.
  RunMirrorNetwork(program.steps(), fb_alias_ < 0 ? framebuffer_.TexelData() : nullptr,
                   &t);

  // Charged as the stage's draws and copies charge: the draws of a step
  // cover every texel once, each blending MIN or MAX.
  const std::uint64_t steps = program.steps().size();
  Rasterizer::CountDraws(program.draws(), steps * t.num_texels(), BlendOp::kMin,
                         t.format(), framebuffer_.format(), &stats_);
  stats_.bytes_vram += steps * (framebuffer_.SizeBytes() + t.SizeBytes());
  stats_.fb_to_texture_copies += steps;
  // The state the last copy's storage swap leaves: `tex` holds the
  // framebuffer's content and nothing was drawn since.
  fb_alias_ = tex;
  blend_op_ = program.last_op();
  return true;
}

}  // namespace streamgpu::gpu
