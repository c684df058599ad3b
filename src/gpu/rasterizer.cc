#include "gpu/rasterizer.h"

#include <algorithm>
#include <atomic>
#include <cstring>

namespace streamgpu::gpu {

namespace {

std::atomic<RasterPath> g_raster_path = RasterPath::kFast;

// Clamps a texel coordinate to the valid range (GL_CLAMP_TO_EDGE).
inline int ClampTexel(float coord, int extent) {
  int t = static_cast<int>(std::floor(coord));
  if (t < 0) t = 0;
  if (t >= extent) t = extent - 1;
  return t;
}

// Closed-form mapping of one quad axis (see Rasterizer::SetUp): screen extent
// [e0, e1), texel coordinate t0 at e0 and t1 at e1, first covered pixel p0.
// Under the conditions checked here the fast path's interpolation
// t0 + (t1 - t0) * ((p + 0.5 - e0) * (1 / (e1 - e0))) is exact at every
// covered pixel p: p + 0.5 - e0 is a half-integer below the power-of-two
// extent, the reciprocal and the product by it are exact, (t1 - t0) times it
// is +-(p - e0 + 0.5), and the sum is a half-integer between t0 and t1. Its
// floor is t0 + (p - e0) ascending and t0 - (p - e0) - 1 descending.
UnitMapping ClosedFormAxis(float e0, float e1, float t0, float t1, int p0) {
  constexpr float kLimit = 4194304.0f;  // 2^22
  const auto integral = [](float v) {
    return std::abs(v) < kLimit && static_cast<float>(static_cast<int>(v)) == v;
  };
  if (!integral(e0) || !integral(e1) || !integral(t0) || !integral(t1)) return {};
  const int extent = static_cast<int>(e1) - static_cast<int>(e0);
  if ((extent & (extent - 1)) != 0) return {};
  const int delta = static_cast<int>(t1) - static_cast<int>(t0);
  const int offset = p0 - static_cast<int>(e0);
  if (delta == extent) return {static_cast<int>(t0) + offset, 1};
  if (delta == -extent) return {static_cast<int>(t0) - offset - 1, -1};
  return {};
}

// True when `m` is a closed-form unit mapping whose `count` fetches all land
// inside [0, extent), i.e. clamping never engages.
bool UnclampedUnit(const UnitMapping& m, int count, int extent) {
  const int last = m.first + m.step * (count - 1);
  return m.step != 0 && m.first >= 0 && m.first < extent && last >= 0 && last < extent;
}

// True when the rectangle kernel runs `s` from a tex_width x tex_height
// texture: both axes are closed-form unit steps that never clamp. A quad
// that is not separable has no closed-form mapping, so it fails here too.
bool TakesUnitRect(const QuadSetup& s, int tex_width, int tex_height) {
  return UnclampedUnit(s.cols, s.px1 - s.px0, tex_width) &&
         UnclampedUnit(s.rows, s.py1 - s.py0, tex_height);
}

// ---------------------------------------------------------------------------
// Row kernels.
//
// The paper's Routines 4.1–4.4 only ever emit separable quads whose column
// and row mappings step one texel per pixel — the identity (Copy) or a block
// mirror (comparators). Those run here, directly on the interleaved RGBA
// storage: the blend equation is the same for every channel, so an
// ascending row is one contiguous loop over 4*count floats that GCC/Clang
// auto-vectorize into packed MIN/MAX, and a descending row steps one 4-float
// texel group at a time. `kStep` is +1 (ascending) or -1 (descending); `src` points at the
// first float of the first fetched texel of the row.
//
// kQuantize folds the kFloat16 render-target rounding into the kernel. It is
// only needed when the *texture* is not binary16: MIN/MAX/REPLACE select one
// of the two operands, the destination is quantized by construction (every
// write path rounds), so a binary16 source operand makes re-quantization the
// identity and the kernel skips it (see the Surface invariant).
// ---------------------------------------------------------------------------

// `dread` supplies the pre-blend destination values. It equals `dst` except
// when GpuDevice aliases the framebuffer onto the last-copied texture (the
// swap-based CopyFramebufferToTexture), in which case it points at the
// value-identical texel of that texture.
//
// Always inlined into the rectangle kernel's row loop: a call per row would
// cost as much as the row itself on the narrowest comparator quads.
template <BlendOp kOp, bool kQuantize, int kStep>
[[gnu::always_inline]] inline void BlendRowUnit(const float* src, const float* dread,
                                                int count, float* dst) {
  if constexpr (kOp == BlendOp::kReplace && !kQuantize && kStep == 1) {
    std::memcpy(dst, src,
                static_cast<std::size_t>(count) * kNumChannels * sizeof(float));
  } else if constexpr (kStep == 1) {
    const int n = count * kNumChannels;
    for (int j = 0; j < n; ++j) {
      float r = ApplyBlend(kOp, dread[j], src[j]);
      if constexpr (kQuantize) r = QuantizeToHalf(r);
      dst[j] = r;
    }
  } else if constexpr (!kQuantize) {
    // Descending rows (every comparator quad mirrors u) defeat loop
    // auto-vectorization — the texel groups walk backwards while the channels
    // walk forwards — so select the 4-wide MIN/MAX explicitly. The vector
    // ternary is bit-identical to std::min/std::max in ApplyBlend: on a false
    // compare (including NaN in either lane) both return the destination
    // operand, and on equal values (including ±0) both return it too.
    using V4 = float __attribute__((vector_size(4 * sizeof(float))));
    const auto blend_texel = [](const float* st, const float* rd, float* d) {
      V4 sv, rv;
      std::memcpy(&sv, st, sizeof(V4));
      std::memcpy(&rv, rd, sizeof(V4));
      V4 out;
      if constexpr (kOp == BlendOp::kMin) {
        out = sv < rv ? sv : rv;  // std::min(dread, src)
      } else if constexpr (kOp == BlendOp::kMax) {
        out = rv < sv ? sv : rv;  // std::max(dread, src)
      } else {
        out = sv;
      }
      std::memcpy(d, &out, sizeof(V4));
    };
    // Two texels per iteration: about twice as fast as one on the wide
    // comparator quads.
    int i = 0;
    for (; i + 2 <= count; i += 2) {
      const float* st = src + static_cast<std::ptrdiff_t>(kStep) * i * kNumChannels;
      blend_texel(st, dread + i * kNumChannels, dst + i * kNumChannels);
      blend_texel(st + kStep * kNumChannels, dread + (i + 1) * kNumChannels,
                  dst + (i + 1) * kNumChannels);
    }
    if (i < count) {
      blend_texel(src + static_cast<std::ptrdiff_t>(kStep) * i * kNumChannels,
                  dread + i * kNumChannels, dst + i * kNumChannels);
    }
  } else {
    for (int i = 0; i < count; ++i) {
      const float* st = src + static_cast<std::ptrdiff_t>(kStep) * i * kNumChannels;
      for (int c = 0; c < kNumChannels; ++c) {
        float r = ApplyBlend(kOp, dread[i * kNumChannels + c], st[c]);
        if constexpr (kQuantize) r = QuantizeToHalf(r);
        dst[i * kNumChannels + c] = r;
      }
    }
  }
}

// Whole-quad kernel for every quad the paper's routines emit: separable,
// with unit-step columns and unit-step rows. The rows of a row-block
// comparator or Copy quad (Routines 4.1/4.4) map to themselves; those of a
// tall-block comparator (Routine 4.2) mirror the block, so the source row
// walks down while the destination row walks up — `src_stride` is negative
// then. One dispatch covers all rows, amortizing quad setup over the whole
// rectangle; with the interleaved layout each covered row of a narrow
// comparator quad is a handful of contiguous floats, i.e. one cache line per
// surface per row. Strides are in floats; `src` points at the first float of
// the first fetched texel of the first covered row, `dst`/`dread` likewise
// (both use the destination stride).
template <BlendOp kOp, bool kQuantize, int kStep>
void BlendRectUnit(const float* src, std::ptrdiff_t src_stride, const float* dread,
                   float* dst, std::size_t dst_stride, int rows, int count) {
  for (int y = 0; y < rows; ++y) {
    const std::size_t row = static_cast<std::size_t>(y) * dst_stride;
    BlendRowUnit<kOp, kQuantize, kStep>(src + y * src_stride, dread + row, count, dst + row);
  }
}

template <bool kQuantize, int kStep>
void BlendRectUnitDispatch(BlendOp op, const float* src, std::ptrdiff_t src_stride,
                           const float* dread, float* dst, std::size_t dst_stride,
                           int rows, int count) {
  switch (op) {
    case BlendOp::kReplace:
      BlendRectUnit<BlendOp::kReplace, kQuantize, kStep>(src, src_stride, dread, dst,
                                                         dst_stride, rows, count);
      break;
    case BlendOp::kMin:
      BlendRectUnit<BlendOp::kMin, kQuantize, kStep>(src, src_stride, dread, dst,
                                                     dst_stride, rows, count);
      break;
    case BlendOp::kMax:
      BlendRectUnit<BlendOp::kMax, kQuantize, kStep>(src, src_stride, dread, dst,
                                                     dst_stride, rows, count);
      break;
  }
}

// The rectangle kernel for a quad whose columns and rows are closed-form
// unit steps that never clamp. It skips rounding when the source is already
// binary16 (operand selection preserves quantization; see the kernel comment
// above).
void ExecuteUnitRect(const Surface& tex, const QuadSetup& s, BlendOp op,
                     const Surface& dsrc, Surface* target) {
  const bool quantize =
      target->format() == Format::kFloat16 && tex.format() != Format::kFloat16;
  const float* src =
      tex.TexelData() + tex.Index(s.cols.first, s.rows.first) * kNumChannels;
  const std::ptrdiff_t src_stride =
      s.rows.step * static_cast<std::ptrdiff_t>(tex.row_stride() * kNumChannels);
  const float* dread = dsrc.TexelData() + dsrc.Index(s.px0, s.py0) * kNumChannels;
  float* dst = target->TexelData() + target->Index(s.px0, s.py0) * kNumChannels;
  const std::size_t dst_stride = target->row_stride() * kNumChannels;
  const int count = s.px1 - s.px0;
  const int rows = s.py1 - s.py0;
  if (s.cols.step == 1) {
    if (quantize) {
      BlendRectUnitDispatch<true, 1>(op, src, src_stride, dread, dst, dst_stride, rows, count);
    } else {
      BlendRectUnitDispatch<false, 1>(op, src, src_stride, dread, dst, dst_stride, rows, count);
    }
  } else {
    if (quantize) {
      BlendRectUnitDispatch<true, -1>(op, src, src_stride, dread, dst, dst_stride, rows, count);
    } else {
      BlendRectUnitDispatch<false, -1>(op, src, src_stride, dread, dst, dst_stride, rows, count);
    }
  }
}

// Reference semantics: full per-pixel bilinear interpolation.
void ExecuteGeneric(const Surface& tex, const QuadSetup& s, BlendOp op, const Surface& dsrc,
                    Surface* target) {
  const Vertex& v0 = s.quad.vertices[0];
  const Vertex& v1 = s.quad.vertices[1];
  const Vertex& v2 = s.quad.vertices[2];
  const Vertex& v3 = s.quad.vertices[3];
  const int tw = tex.width();
  const int th = tex.height();
  for (int y = s.py0; y < s.py1; ++y) {
    const float sy = (static_cast<float>(y) + 0.5f - v0.y) * s.inv_h;
    for (int x = s.px0; x < s.px1; ++x) {
      const float sx = (static_cast<float>(x) + 0.5f - v0.x) * s.inv_w;
      const float w00 = (1.0f - sx) * (1.0f - sy);
      const float w10 = sx * (1.0f - sy);
      const float w11 = sx * sy;
      const float w01 = (1.0f - sx) * sy;
      const float u = w00 * v0.u + w10 * v1.u + w11 * v2.u + w01 * v3.u;
      const float tv = w00 * v0.v + w10 * v1.v + w11 * v2.v + w01 * v3.v;
      const int txl = ClampTexel(u, tw);
      const int tyl = ClampTexel(tv, th);
      for (int c = 0; c < kNumChannels; ++c) {
        const float src = tex.Get(c, txl, tyl);
        target->Set(c, x, y, ApplyBlend(op, dsrc.Get(c, x, y), src));
      }
    }
  }
}

// Every quad the paper's routines emit maps its columns and its rows as
// closed-form unit steps that never clamp: the row-block comparators and
// Copy with ascending rows, the tall-block comparators with mirrored ones.
// Such a quad runs as one rectangle kernel; any other quad (arbitrary
// corners are legal) runs the reference.
void ExecuteFast(const Surface& tex, const QuadSetup& s, BlendOp op, const Surface& dsrc,
                 Surface* target) {
  if (TakesUnitRect(s, tex.width(), tex.height())) {
    ExecuteUnitRect(tex, s, op, dsrc, target);
  } else {
    ExecuteGeneric(tex, s, op, dsrc, target);
  }
}

}  // namespace

void Rasterizer::SetPath(RasterPath path) {
  g_raster_path.store(path, std::memory_order_relaxed);
}

RasterPath Rasterizer::path() { return g_raster_path.load(std::memory_order_relaxed); }

QuadSetup Rasterizer::SetUp(const Quad& quad, int width, int height) {
  const Vertex& v0 = quad.vertices[0];
  const Vertex& v1 = quad.vertices[1];
  const Vertex& v2 = quad.vertices[2];
  const Vertex& v3 = quad.vertices[3];
  STREAMGPU_CHECK_MSG(v1.x == v2.x && v1.y == v0.y && v3.x == v0.x && v3.y == v2.y,
                      "DrawQuad requires an axis-aligned rectangle");
  STREAMGPU_CHECK(v2.x > v0.x && v2.y > v0.y);
  QuadSetup s;
  s.quad = quad;
  s.width = width;
  s.height = height;
  // Pixels whose centers fall inside [x0, x1) x [y0, y1).
  s.px0 = std::max(0, static_cast<int>(std::ceil(v0.x - 0.5f)));
  s.py0 = std::max(0, static_cast<int>(std::ceil(v0.y - 0.5f)));
  s.px1 = std::min(width, static_cast<int>(std::ceil(v2.x - 0.5f)));
  s.py1 = std::min(height, static_cast<int>(std::ceil(v2.y - 0.5f)));
  s.inv_w = 1.0f / (v2.x - v0.x);
  s.inv_h = 1.0f / (v2.y - v0.y);
  if (v0.u == v3.u && v1.u == v2.u && v0.v == v1.v && v3.v == v2.v) {
    s.cols = ClosedFormAxis(v0.x, v2.x, v0.u, v1.u, s.px0);
    s.rows = ClosedFormAxis(v0.y, v2.y, v0.v, v3.v, s.py0);
  }
  return s;
}

void Rasterizer::DrawQuad(const Surface& tex, const Quad& quad, BlendOp op, Surface* target,
                          GpuStats* stats, const Surface* dst_read) {
  DrawQuad(tex, SetUp(quad, target->width(), target->height()), op, target, stats,
           dst_read);
}

void Rasterizer::DrawQuad(const Surface& tex, const QuadSetup& s, BlendOp op,
                          Surface* target, GpuStats* stats, const Surface* dst_read) {
  STREAMGPU_CHECK_MSG(s.width == target->width() && s.height == target->height(),
                      "the quad was set up for a target of other dimensions");
  if (s.empty()) {
    stats->draw_calls += 1;
    return;
  }
  const Surface& dsrc = dst_read != nullptr ? *dst_read : *target;
  STREAMGPU_CHECK_MSG(dsrc.width() == target->width() && dsrc.height() == target->height() &&
                          dsrc.format() == target->format(),
                      "dst_read must match the target's dimensions and format");

  if (path() == RasterPath::kFast) {
    ExecuteFast(tex, s, op, dsrc, target);
  } else {
    ExecuteGeneric(tex, s, op, dsrc, target);
  }
  const std::uint64_t fragments = static_cast<std::uint64_t>(s.px1 - s.px0) *
                                  static_cast<std::uint64_t>(s.py1 - s.py0);
  CountDraws(1, fragments, op, tex.format(), target->format(), stats);
}

void Rasterizer::CountDraws(std::uint64_t draws, std::uint64_t fragments, BlendOp op,
                            Format tex_format, Format target_format, GpuStats* stats) {
  stats->draw_calls += draws;
  stats->fragments_shaded += fragments;
  stats->texture_fetches += fragments;
  if (op != BlendOp::kReplace) stats->blend_fragments += fragments;
  // VRAM traffic: one texel fetch, one framebuffer write, and — when blending
  // — one framebuffer read per fragment.
  const std::uint64_t per_fragment =
      BytesPerTexel(tex_format) + BytesPerTexel(target_format) +
      (op != BlendOp::kReplace ? BytesPerTexel(target_format) : 0);
  stats->bytes_vram += fragments * per_fragment;
}

}  // namespace streamgpu::gpu
