// Property tests for the rasterizer: the optimized separable path must agree
// with a naive per-pixel bilinear reference on randomized quads, blending
// must be exactly per-channel min/max, and the PBSN comparator quads must
// reproduce the scalar network step for arbitrary geometry parameters.

#include <algorithm>
#include <bit>
#include <cstdint>
#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "gpu/rasterizer.h"
#include "gpu/surface.h"
#include "sort/pbsn_network.h"

namespace streamgpu::gpu {
namespace {

// Naive reference: full bilinear interpolation at every pixel center.
void ReferenceDrawQuad(const Surface& tex, const Quad& quad, BlendOp op,
                       Surface* target) {
  const Vertex& v0 = quad.vertices[0];
  const Vertex& v1 = quad.vertices[1];
  const Vertex& v2 = quad.vertices[2];
  const Vertex& v3 = quad.vertices[3];
  const float x0 = v0.x, y0 = v0.y, x1 = v2.x, y1 = v2.y;
  for (int y = 0; y < target->height(); ++y) {
    for (int x = 0; x < target->width(); ++x) {
      const float cx = static_cast<float>(x) + 0.5f;
      const float cy = static_cast<float>(y) + 0.5f;
      if (cx < x0 || cx >= x1 || cy < y0 || cy >= y1) continue;
      const float sx = (cx - x0) / (x1 - x0);
      const float sy = (cy - y0) / (y1 - y0);
      const float w00 = (1 - sx) * (1 - sy);
      const float w10 = sx * (1 - sy);
      const float w11 = sx * sy;
      const float w01 = (1 - sx) * sy;
      const float u = w00 * v0.u + w10 * v1.u + w11 * v2.u + w01 * v3.u;
      const float v = w00 * v0.v + w10 * v1.v + w11 * v2.v + w01 * v3.v;
      const int tx = std::clamp(static_cast<int>(std::floor(u)), 0, tex.width() - 1);
      const int ty = std::clamp(static_cast<int>(std::floor(v)), 0, tex.height() - 1);
      for (int c = 0; c < kNumChannels; ++c) {
        target->Set(c, x, y,
                    ApplyBlend(op, target->Get(c, x, y), tex.Get(c, tx, ty)));
      }
    }
  }
}

void RandomizeSurface(Surface* s, unsigned seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<float> d(0.0f, 100.0f);
  for (int c = 0; c < kNumChannels; ++c) {
    for (int y = 0; y < s->height(); ++y) {
      for (int x = 0; x < s->width(); ++x) s->Set(c, x, y, d(rng));
    }
  }
}

// Bit comparison, so a -0.0/0.0 or NaN-payload difference counts.
bool SurfacesEqual(const Surface& a, const Surface& b) {
  for (int c = 0; c < kNumChannels; ++c) {
    for (int y = 0; y < a.height(); ++y) {
      for (int x = 0; x < a.width(); ++x) {
        if (std::bit_cast<std::uint32_t>(a.Get(c, x, y)) !=
            std::bit_cast<std::uint32_t>(b.Get(c, x, y))) {
          return false;
        }
      }
    }
  }
  return true;
}

class RasterizerRandomQuads : public ::testing::TestWithParam<unsigned> {};

// One axis of a random separable quad: screen extent [e0, e1) and texel
// coordinates t0 at e0 and t1 at e1.
struct RandomAxis {
  float e0, e1, t0, t1;
};

// Power-of-two extents keep the interpolation weights dyadic, so the fast
// path and the bilinear reference agree bit-exactly. In unit mode
// |t1 - t0| equals the extent, ascending or descending — the mappings the
// fast path classifies in closed form — with origins that may start off
// the target and run past it (clipped pixels) and texel runs that may leave
// the texture (clamped fetches). Otherwise t0 and t1 are arbitrary.
// `half_texel` shifts both texel coordinates by half a texel: still dyadic,
// but not integral, so the closed form must decline it.
RandomAxis DrawAxis(std::mt19937& rng, int extent, bool unit, bool half_texel) {
  std::uniform_int_distribution<int> origins(-4, extent - 1);
  std::uniform_int_distribution<int> coords(-4, extent + 4);
  const int e0 = origins(rng);
  int size = 1;
  while (size < 2 * extent && (rng() & 1) != 0) size *= 2;
  const int t0 = coords(rng);
  const int t1 = unit ? ((rng() & 1) != 0 ? t0 + size : t0 - size) : coords(rng);
  const float shift = half_texel ? 0.5f : 0.0f;
  return {static_cast<float>(e0), static_cast<float>(e0 + size),
          static_cast<float>(t0) + shift, static_cast<float>(t1) + shift};
}

TEST_P(RasterizerRandomQuads, SeparableQuadsMatchReference) {
  // Random axis-aligned quads with separable (u(x), v(y)) mappings — the
  // family every paper routine uses — drawn with random blend ops.
  std::mt19937 rng(GetParam());
  const int w = 16;
  const int h = 8;
  Surface tex(w, h, Format::kFloat32);
  RandomizeSurface(&tex, GetParam() * 7 + 1);

  Surface fast(w, h, Format::kFloat32);
  Surface reference(w, h, Format::kFloat32);
  RandomizeSurface(&fast, GetParam() * 7 + 2);
  for (int c = 0; c < kNumChannels; ++c) {
    for (int y = 0; y < h; ++y) {
      for (int x = 0; x < w; ++x) reference.Set(c, x, y, fast.Get(c, x, y));
    }
  }

  std::uniform_int_distribution<int> ops(0, 2);
  for (int trial = 0; trial < 100; ++trial) {
    const bool unit = (rng() & 1) != 0;
    const RandomAxis xa = DrawAxis(rng, w, unit, rng() % 8 == 0);
    const RandomAxis ya = DrawAxis(rng, h, unit, rng() % 8 == 0);
    const auto op = static_cast<BlendOp>(ops(rng));

    const Quad quad = Quad::Make(xa.e0, ya.e0, xa.e1, ya.e1,  //
                                 xa.t0, ya.t0, xa.t1, ya.t0,  //
                                 xa.t1, ya.t1, xa.t0, ya.t1);

    GpuStats stats;
    Rasterizer::DrawQuad(tex, quad, op, &fast, &stats);
    ReferenceDrawQuad(tex, quad, op, &reference);
    ASSERT_TRUE(SurfacesEqual(fast, reference))
        << "trial " << trial << " quad (" << xa.e0 << "," << ya.e0 << ")-(" << xa.e1
        << "," << ya.e1 << ") u " << xa.t0 << ".." << xa.t1 << " v " << ya.t0 << ".."
        << ya.t1 << " op " << BlendOpName(op);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RasterizerRandomQuads, ::testing::Range(1u, 9u));

TEST(RasterizerPbsnQuadTest, RowBlockQuadsEqualScalarStep) {
  // For every block size B <= W, rendering the paper's min/max row-block
  // quads must equal PbsnStepCpu on the row-major data.
  const int w = 16;
  const int h = 4;
  Surface tex(w, h, Format::kFloat32);
  RandomizeSurface(&tex, 99);

  for (int block = 2; block <= w; block *= 2) {
    // Flatten channel 0 row-major and run the scalar step per row block.
    std::vector<float> expected(static_cast<std::size_t>(w) * h);
    for (int y = 0; y < h; ++y) {
      for (int x = 0; x < w; ++x) expected[static_cast<std::size_t>(y) * w + x] = tex.Get(0, x, y);
    }
    for (int y = 0; y < h; ++y) {
      std::span<float> row(expected.data() + static_cast<std::size_t>(y) * w, w);
      sort::PbsnStepCpu(row, static_cast<std::size_t>(block));
    }

    Surface fb(w, h, Format::kFloat32);
    GpuStats stats;
    Rasterizer::DrawQuad(tex, Quad::Identity(0, 0, w, h), BlendOp::kReplace, &fb,
                         &stats);
    const auto b = static_cast<float>(block);
    for (int j = 0; j < w / block; ++j) {
      const float off = static_cast<float>(j * block);
      Rasterizer::DrawQuad(tex,
                           Quad::Make(off, 0, off + b / 2, h,      //
                                      off + b, 0, off + b / 2, 0,  //
                                      off + b / 2, h, off + b, h),
                           BlendOp::kMin, &fb, &stats);
      Rasterizer::DrawQuad(tex,
                           Quad::Make(off + b / 2, 0, off + b, h,  //
                                      off + b / 2, 0, off, 0,      //
                                      off, h, off + b / 2, h),
                           BlendOp::kMax, &fb, &stats);
    }
    for (int y = 0; y < h; ++y) {
      for (int x = 0; x < w; ++x) {
        ASSERT_EQ(fb.Get(0, x, y), expected[static_cast<std::size_t>(y) * w + x])
            << "block " << block << " pixel (" << x << "," << y << ")";
      }
    }
  }
}

TEST(RasterizerPbsnQuadTest, TallBlockQuadsEqualScalarStep) {
  // For block sizes spanning multiple rows (B > W), the vertical-mirror
  // quads of Routine 4.2 must equal PbsnStepCpu on the row-major data.
  const int w = 8;
  const int h = 8;
  Surface tex(w, h, Format::kFloat32);
  RandomizeSurface(&tex, 101);

  for (int block = 2 * w; block <= w * h; block *= 2) {
    std::vector<float> expected(static_cast<std::size_t>(w) * h);
    for (int y = 0; y < h; ++y) {
      for (int x = 0; x < w; ++x) expected[static_cast<std::size_t>(y) * w + x] = tex.Get(0, x, y);
    }
    sort::PbsnStepCpu(expected, static_cast<std::size_t>(block));

    Surface fb(w, h, Format::kFloat32);
    GpuStats stats;
    Rasterizer::DrawQuad(tex, Quad::Identity(0, 0, w, h), BlendOp::kReplace, &fb,
                         &stats);
    const int bh = block / w;
    for (int i = 0; i < w * h / block; ++i) {
      const auto r = static_cast<float>(i * bh);
      const auto fbh = static_cast<float>(bh);
      Rasterizer::DrawQuad(tex,
                           Quad::Make(0, r, w, r + fbh / 2,  //
                                      w, r + fbh, 0, r + fbh,  //
                                      0, r + fbh / 2, w, r + fbh / 2),
                           BlendOp::kMin, &fb, &stats);
      Rasterizer::DrawQuad(tex,
                           Quad::Make(0, r + fbh / 2, w, r + fbh,      //
                                      w, r + fbh / 2, 0, r + fbh / 2,  //
                                      0, r, w, r),
                           BlendOp::kMax, &fb, &stats);
    }
    for (int y = 0; y < h; ++y) {
      for (int x = 0; x < w; ++x) {
        ASSERT_EQ(fb.Get(0, x, y), expected[static_cast<std::size_t>(y) * w + x])
            << "block " << block << " pixel (" << x << "," << y << ")";
      }
    }
  }
}

}  // namespace
}  // namespace streamgpu::gpu
