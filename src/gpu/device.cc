#include "gpu/device.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <thread>

namespace streamgpu::gpu {

void StageProgram::Reset(int width, int height, std::size_t draws) {
  STREAMGPU_CHECK(width > 0 && height > 0);
  width_ = width;
  height_ = height;
  declared_ = draws;
  step_begin_ = 0;
  draws_.clear();
  // At most one draw per texel: a program never outgrows the texture's own
  // f32 storage (16 B per texel).
  replayable_ = draws > 0 && draws <= static_cast<std::size_t>(width) * height;
  if (replayable_) {
    draws_.reserve(draws);
  } else {
    draws_ = {};
  }
}

void StageProgram::Abandon() {
  draws_ = {};
  step_begin_ = 0;
  replayable_ = false;
}

void StageProgram::Add(const Quad& quad, BlendOp op) {
  if (!replayable_) return;
  UnitRectDraw draw;
  if (!Rasterizer::Compact(Rasterizer::SetUp(quad, width_, height_), op, width_, height_,
                           &draw)) {
    Abandon();
    return;
  }
  draws_.push_back(draw);
}

void StageProgram::EndStep() {
  if (!replayable_) return;
  // The replay's copy is a storage swap, which equals the physical copy only
  // when the step wrote every texel exactly once: disjoint rectangles whose
  // areas add up to the framebuffer's.
  std::uint64_t area = 0;
  for (std::size_t i = step_begin_; i < draws_.size(); ++i) {
    const UnitRectDraw& a = draws_[i];
    for (std::size_t j = step_begin_; j < i; ++j) {
      const UnitRectDraw& b = draws_[j];
      if (a.px0 < b.px1 && b.px0 < a.px1 && a.py0 < b.py1 && b.py0 < a.py1) {
        Abandon();
        return;
      }
    }
    area += a.fragments();
  }
  if (area != static_cast<std::uint64_t>(width_) * static_cast<std::uint64_t>(height_)) {
    Abandon();
    return;
  }
  step_begin_ = draws_.size();
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
    SwapFramebufferInto(tex);
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

void GpuDevice::SwapFramebufferInto(TextureHandle tex) {
  std::swap(framebuffer_, *textures_[static_cast<std::size_t>(tex)]);
  fb_alias_ = tex;
  fb_written_.clear();
  fb_written_area_ = 0;
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

  // A step ends where its draws have tiled the framebuffer (StageProgram
  // checked that each step does, without overlap).
  const std::uint64_t texels = framebuffer_.num_texels();
  std::uint64_t step_area = 0;
  for (const UnitRectDraw& draw : program.draws()) {
    // As DrawQuad: pre-blend values come from the aliased texture, which is
    // `tex` itself, or from the framebuffer when nothing is aliased.
    Rasterizer::DrawUnitRect(t, draw, &framebuffer_, &stats_, fb_alias_ >= 0 ? &t : nullptr);
    step_area += draw.fragments();
    if (step_area == texels) {
      // Charged as CopyFramebufferToTexture charges.
      stats_.bytes_vram += framebuffer_.SizeBytes() + t.SizeBytes();
      stats_.fb_to_texture_copies += 1;
      SwapFramebufferInto(tex);
      step_area = 0;
    }
  }
  // The blend state the stage's last SetBlend leaves.
  blend_op_ = program.draws().back().op;
  return true;
}

}  // namespace streamgpu::gpu
