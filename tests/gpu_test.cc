// Tests for the GPU simulator substrate: surfaces, the rasterizer's
// fixed-function path (the paper's Routines 4.1 and 4.2), fragment programs,
// and the device's transfer/statistics accounting.

#include <cmath>
#include <limits>
#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "gpu/device.h"
#include "gpu/rasterizer.h"
#include "gpu/surface.h"
#include "gpu/vertex.h"

namespace streamgpu::gpu {
namespace {

std::vector<float> RandomValues(std::size_t n, unsigned seed, float lo = 0.0f,
                                float hi = 1000.0f) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<float> dist(lo, hi);
  std::vector<float> out(n);
  for (float& v : out) v = dist(rng);
  return out;
}

// Fills one channel of a surface from a row-major array.
void FillChannelFrom(Surface* s, int c, const std::vector<float>& data) {
  ASSERT_EQ(data.size(), s->num_texels());
  for (int y = 0; y < s->height(); ++y) {
    for (int x = 0; x < s->width(); ++x) {
      s->Set(c, x, y, data[static_cast<std::size_t>(y) * s->width() + x]);
    }
  }
}

TEST(SurfaceTest, ResetZeroFills) {
  Surface s(4, 3, Format::kFloat32);
  for (int c = 0; c < kNumChannels; ++c) {
    for (int y = 0; y < 3; ++y) {
      for (int x = 0; x < 4; ++x) EXPECT_EQ(s.Get(c, x, y), 0.0f);
    }
  }
  EXPECT_EQ(s.width(), 4);
  EXPECT_EQ(s.height(), 3);
  EXPECT_EQ(s.num_texels(), 12u);
  EXPECT_EQ(s.SizeBytes(), 12u * 16u);
}

TEST(SurfaceTest, Float16SurfaceQuantizesOnWrite) {
  Surface s(2, 2, Format::kFloat16);
  s.Set(0, 0, 0, 2049.0f);  // not representable in binary16
  EXPECT_EQ(s.Get(0, 0, 0), 2048.0f);
  EXPECT_EQ(s.SizeBytes(), 4u * 8u);
}

TEST(SurfaceTest, Float32SurfaceStoresExactly) {
  Surface s(2, 2, Format::kFloat32);
  s.Set(0, 0, 0, 2049.0f);
  EXPECT_EQ(s.Get(0, 0, 0), 2049.0f);
}

TEST(SurfaceTest, ChannelsAreIndependent) {
  Surface s(2, 2, Format::kFloat32);
  for (int c = 0; c < kNumChannels; ++c) s.Set(c, 1, 1, static_cast<float>(c + 10));
  for (int c = 0; c < kNumChannels; ++c) {
    EXPECT_EQ(s.Get(c, 1, 1), static_cast<float>(c + 10));
    EXPECT_EQ(s.Get(c, 0, 0), 0.0f);
  }
}

TEST(SurfaceTest, FillChannel) {
  Surface s(3, 3, Format::kFloat32);
  s.FillChannel(2, 7.5f);
  for (int y = 0; y < 3; ++y) {
    for (int x = 0; x < 3; ++x) {
      EXPECT_EQ(s.Get(2, x, y), 7.5f);
      EXPECT_EQ(s.Get(0, x, y), 0.0f);
    }
  }
}

// --- Routine 4.1: Copy — identity texcoords copy texture to framebuffer. ---

TEST(RasterizerTest, CopyQuadIsIdentity) {
  const int w = 8;
  const int h = 4;
  Surface tex(w, h, Format::kFloat32);
  Surface fb(w, h, Format::kFloat32);
  GpuStats stats;
  const auto data = RandomValues(static_cast<std::size_t>(w) * h, 1);
  for (int c = 0; c < kNumChannels; ++c) FillChannelFrom(&tex, c, data);

  Rasterizer::DrawQuad(tex, Quad::Identity(0, 0, w, h), BlendOp::kReplace, &fb, &stats);

  for (int c = 0; c < kNumChannels; ++c) {
    for (int y = 0; y < h; ++y) {
      for (int x = 0; x < w; ++x) {
        EXPECT_EQ(fb.Get(c, x, y), tex.Get(c, x, y)) << c << "," << x << "," << y;
      }
    }
  }
  EXPECT_EQ(stats.fragments_shaded, static_cast<std::uint64_t>(w) * h);
  EXPECT_EQ(stats.blend_fragments, 0u);  // REPLACE is not a blend
  EXPECT_EQ(stats.draw_calls, 1u);
}

// --- Routine 4.2: ComputeMin — mirrored texcoords + MIN blending compare ---
// --- element i against element (W*H - 1 - i).                            ---

TEST(RasterizerTest, ComputeMinMatchesScalarReference) {
  const int w = 8;
  const int h = 4;  // one block spanning all rows
  Surface tex(w, h, Format::kFloat32);
  Surface fb(w, h, Format::kFloat32);
  GpuStats stats;
  const auto data = RandomValues(static_cast<std::size_t>(w) * h, 2);
  for (int c = 0; c < kNumChannels; ++c) FillChannelFrom(&tex, c, data);

  // Seed the framebuffer with the texture contents (as the algorithm does).
  Rasterizer::DrawQuad(tex, Quad::Identity(0, 0, w, h), BlendOp::kReplace, &fb, &stats);
  // ComputeMin over the lower half: pixel (x, y) vs texel (w-1-x, h-1-y).
  const Quad min_quad = Quad::Make(0, 0, w, h / 2.0f,          //
                                   w, h, 0, h,                  //
                                   0, h / 2.0f, w, h / 2.0f);
  Rasterizer::DrawQuad(tex, min_quad, BlendOp::kMin, &fb, &stats);

  const std::size_t n = static_cast<std::size_t>(w) * h;
  for (int y = 0; y < h / 2; ++y) {
    for (int x = 0; x < w; ++x) {
      const std::size_t i = static_cast<std::size_t>(y) * w + x;
      const float expected = std::min(data[i], data[n - 1 - i]);
      EXPECT_EQ(fb.Get(0, x, y), expected) << x << "," << y;
    }
  }
  // Upper half untouched.
  for (int y = h / 2; y < h; ++y) {
    for (int x = 0; x < w; ++x) {
      EXPECT_EQ(fb.Get(0, x, y), data[static_cast<std::size_t>(y) * w + x]);
    }
  }
}

TEST(RasterizerTest, MaxBlendKeepsMaximumPerChannel) {
  Surface tex(2, 1, Format::kFloat32);
  Surface fb(2, 1, Format::kFloat32);
  GpuStats stats;
  // Different values per channel: blending is a 4-wide vector op (§4.2.2).
  for (int c = 0; c < kNumChannels; ++c) {
    tex.Set(c, 0, 0, static_cast<float>(c));
    tex.Set(c, 1, 0, static_cast<float>(10 - c));
    fb.Set(c, 0, 0, 5.0f);
    fb.Set(c, 1, 0, 5.0f);
  }
  Rasterizer::DrawQuad(tex, Quad::Identity(0, 0, 2, 1), BlendOp::kMax, &fb, &stats);
  for (int c = 0; c < kNumChannels; ++c) {
    EXPECT_EQ(fb.Get(c, 0, 0), std::max(5.0f, static_cast<float>(c)));
    EXPECT_EQ(fb.Get(c, 1, 0), std::max(5.0f, static_cast<float>(10 - c)));
  }
  EXPECT_EQ(stats.blend_fragments, 2u);
  EXPECT_EQ(stats.ScalarComparisons(), 8u);
}

TEST(RasterizerTest, ReversedRowMappingHitsMirroredTexels) {
  // Row-block comparator of Fig. 2 (left): u(x) = 2*off + B - x.
  const int w = 8;
  Surface tex(w, 1, Format::kFloat32);
  Surface fb(w, 1, Format::kFloat32);
  GpuStats stats;
  for (int x = 0; x < w; ++x) tex.Set(0, x, 0, static_cast<float>(x));
  // Block B=8 at offset 0, min half covers x in [0,4): u from 8 down to 4.
  const Quad q = Quad::Make(0, 0, 4, 1,  //
                            8, 0, 4, 0,  //
                            4, 1, 8, 1);
  Rasterizer::DrawQuad(tex, q, BlendOp::kReplace, &fb, &stats);
  for (int x = 0; x < 4; ++x) {
    EXPECT_EQ(fb.Get(0, x, 0), static_cast<float>(7 - x)) << x;
  }
}

TEST(RasterizerTest, NonSeparableMappingUsesBilinearPath) {
  // A diagonal-swap mapping (u depends on y): exercises the general path.
  Surface tex(2, 2, Format::kFloat32);
  Surface fb(2, 2, Format::kFloat32);
  GpuStats stats;
  tex.Set(0, 0, 0, 1.0f);
  tex.Set(0, 1, 0, 2.0f);
  tex.Set(0, 0, 1, 3.0f);
  tex.Set(0, 1, 1, 4.0f);
  // Texcoords transpose the texture: corner (x,y) samples (y,x).
  const Quad q = Quad::Make(0, 0, 2, 2,  //
                            0, 0, 0, 2,  //
                            2, 2, 2, 0);
  Rasterizer::DrawQuad(tex, q, BlendOp::kReplace, &fb, &stats);
  EXPECT_EQ(fb.Get(0, 0, 0), 1.0f);
  EXPECT_EQ(fb.Get(0, 1, 0), 3.0f);  // transposed
  EXPECT_EQ(fb.Get(0, 0, 1), 2.0f);
  EXPECT_EQ(fb.Get(0, 1, 1), 4.0f);
}

TEST(RasterizerTest, QuadClipsToFramebuffer) {
  Surface tex(4, 4, Format::kFloat32);
  Surface fb(2, 2, Format::kFloat32);
  GpuStats stats;
  tex.FillChannel(0, 9.0f);
  Rasterizer::DrawQuad(tex, Quad::Identity(0, 0, 4, 4), BlendOp::kReplace, &fb, &stats);
  EXPECT_EQ(stats.fragments_shaded, 4u);  // clipped to the 2x2 framebuffer
  EXPECT_EQ(fb.Get(0, 1, 1), 9.0f);
}

TEST(RasterizerTest, Float16TargetQuantizesBlendResults) {
  Surface tex(1, 1, Format::kFloat32);
  Surface fb(1, 1, Format::kFloat16);
  GpuStats stats;
  tex.Set(0, 0, 0, 2049.0f);
  Rasterizer::DrawQuad(tex, Quad::Identity(0, 0, 1, 1), BlendOp::kReplace, &fb, &stats);
  EXPECT_EQ(fb.Get(0, 0, 0), 2048.0f);
}

TEST(RasterizerTest, FragmentProgramWritesAndCounts) {
  Surface tex(4, 2, Format::kFloat32);
  Surface fb(4, 2, Format::kFloat32);
  GpuStats stats;
  Rasterizer::RunFragmentProgram(
      tex, 0, 0, 4, 2, /*instructions_per_fragment=*/53, /*fetches_per_fragment=*/2,
      [](int x, int y, const Surface&, float out[kNumChannels]) {
        for (int c = 0; c < kNumChannels; ++c) out[c] = static_cast<float>(x + 10 * y);
      },
      &fb, &stats);
  EXPECT_EQ(fb.Get(0, 3, 1), 13.0f);
  EXPECT_EQ(stats.fragments_shaded, 8u);
  EXPECT_EQ(stats.program_fragments, 8u);
  EXPECT_EQ(stats.program_instructions, 8u * 53u);
  EXPECT_EQ(stats.texture_fetches, 16u);
  EXPECT_EQ(stats.blend_fragments, 0u);
}

// --- GpuDevice: transfers, bus accounting, state. ---

TEST(DeviceTest, UploadReadbackRoundTrip) {
  GpuDevice dev;
  const auto tex = dev.CreateTexture(4, 4, Format::kFloat32);
  const auto data = RandomValues(16, 3);
  dev.UploadChannel(tex, 0, data);
  dev.BindFramebuffer(4, 4, Format::kFloat32);
  dev.SetBlend(BlendOp::kReplace);
  dev.DrawQuad(tex, Quad::Identity(0, 0, 4, 4));
  std::vector<float> out(16);
  dev.ReadbackChannel(0, out);
  EXPECT_EQ(out, data);
}

TEST(DeviceTest, BusByteAccounting) {
  GpuDevice dev;
  const auto tex = dev.CreateTexture(8, 8, Format::kFloat32);
  const std::vector<float> data(64, 1.0f);
  dev.UploadChannel(tex, 0, data);
  EXPECT_EQ(dev.stats().bytes_uploaded, 64u * 4u);
  dev.BindFramebuffer(8, 8, Format::kFloat32);
  std::vector<float> out(64);
  dev.ReadbackChannel(0, out);
  EXPECT_EQ(dev.stats().bytes_readback, 64u * 4u);
  EXPECT_EQ(dev.stats().framebuffer_binds, 1u);
}

TEST(DeviceTest, Float16HalvesBusBytes) {
  GpuDevice dev;
  const auto tex = dev.CreateTexture(8, 8, Format::kFloat16);
  const std::vector<float> data(64, 1.0f);
  dev.UploadChannel(tex, 0, data);
  EXPECT_EQ(dev.stats().bytes_uploaded, 64u * 2u);
}

TEST(DeviceTest, CopyFramebufferToTexture) {
  GpuDevice dev;
  const auto tex = dev.CreateTexture(4, 2, Format::kFloat32);
  const auto data = RandomValues(8, 4);
  dev.UploadChannel(tex, 1, data);
  dev.BindFramebuffer(4, 2, Format::kFloat32);
  dev.SetBlend(BlendOp::kReplace);
  dev.DrawQuad(tex, Quad::Identity(0, 0, 4, 2));

  const auto tex2 = dev.CreateTexture(4, 2, Format::kFloat32);
  dev.CopyFramebufferToTexture(tex2);
  for (int x = 0; x < 4; ++x) {
    EXPECT_EQ(dev.Texture(tex2).Get(1, x, 0), data[x]);
  }
  EXPECT_EQ(dev.stats().fb_to_texture_copies, 1u);
}

TEST(DeviceTest, DrawsAfterASwapMatchAPhysicalCopy) {
  // After CopyFramebufferToTexture the framebuffer's content lives in the
  // texture (a storage swap), and draws read their pre-blend values from
  // there. A draw overlapping an earlier draw since the swap must see that
  // draw's output, so the device has to notice the overlap even when other
  // draws sit between the two; a draw inside their bounding box that
  // overlaps none of them must not disturb the result either.
  const int w = 8;
  const int h = 4;
  GpuDevice dev;
  const auto tex = dev.CreateTexture(w, h, Format::kFloat32);
  Surface texture(w, h, Format::kFloat32);
  for (int c = 0; c < kNumChannels; ++c) {
    const auto data = RandomValues(w * h, 20 + c);
    dev.UploadChannel(tex, c, data);
    FillChannelFrom(&texture, c, data);
  }
  dev.BindFramebuffer(w, h, Format::kFloat32);
  dev.SetBlend(BlendOp::kReplace);
  dev.DrawQuad(tex, Quad::Identity(0, 0, w, h));
  dev.CopyFramebufferToTexture(tex);

  // Reference: the same draws on physically separate surfaces.
  Surface framebuffer = texture;
  GpuStats stats;
  const struct {
    BlendOp op;
    Quad quad;
  } draws[] = {
      {BlendOp::kMin, Quad::Make(0, 0, 2, 4, 8, 0, 6, 0, 6, 4, 8, 4)},  // left edge
      {BlendOp::kMax, Quad::Make(6, 0, 8, 4, 2, 0, 0, 0, 0, 4, 2, 4)},  // right edge
      {BlendOp::kMin, Quad::Make(3, 0, 5, 4, 5, 4, 3, 4, 3, 0, 5, 0)},  // inside the box
      {BlendOp::kMax, Quad::Make(5, 1, 7, 3, 7, 0, 4, 0, 4, 2, 7, 2)},  // overlaps the 2nd
      {BlendOp::kMin, Quad::Make(1, 1, 4, 3, 7, 0, 4, 0, 4, 2, 7, 2)},  // overlaps two
      {BlendOp::kMax, Quad::Identity(0, 0, w, h)},                      // overlaps all
  };
  for (const auto& d : draws) {
    dev.SetBlend(d.op);
    dev.DrawQuad(tex, d.quad);
    Rasterizer::DrawQuad(texture, d.quad, d.op, &framebuffer, &stats);
  }
  // Read only now: reading the framebuffer ends the swap.
  for (int c = 0; c < kNumChannels; ++c) {
    for (int y = 0; y < h; ++y) {
      for (int x = 0; x < w; ++x) {
        ASSERT_EQ(dev.framebuffer().Get(c, x, y), framebuffer.Get(c, x, y))
            << "channel " << c << " pixel (" << x << "," << y << ")";
        ASSERT_EQ(dev.Texture(tex).Get(c, x, y), texture.Get(c, x, y));
      }
    }
  }
  EXPECT_EQ(dev.stats().draw_calls, 7u);
}

TEST(DeviceTest, StatsAccumulateAndReset) {
  GpuDevice dev;
  const auto tex = dev.CreateTexture(2, 2, Format::kFloat32);
  dev.BindFramebuffer(2, 2, Format::kFloat32);
  dev.SetBlend(BlendOp::kMin);
  dev.DrawQuad(tex, Quad::Identity(0, 0, 2, 2));
  dev.DrawQuad(tex, Quad::Identity(0, 0, 2, 2));
  EXPECT_EQ(dev.stats().draw_calls, 2u);
  EXPECT_EQ(dev.stats().blend_fragments, 8u);
  dev.ResetStats();
  EXPECT_EQ(dev.stats().draw_calls, 0u);
  EXPECT_EQ(dev.stats().blend_fragments, 0u);
}

TEST(DeviceTest, StatsDifferenceOperator) {
  GpuStats a;
  a.draw_calls = 10;
  a.fragments_shaded = 100;
  GpuStats b;
  b.draw_calls = 4;
  b.fragments_shaded = 40;
  const GpuStats d = a - b;
  EXPECT_EQ(d.draw_calls, 6u);
  EXPECT_EQ(d.fragments_shaded, 60u);
}

TEST(DeviceTest, BlendWithInfinityPadding) {
  // +inf padding (used to pad sort inputs) must behave under MIN/MAX.
  GpuDevice dev;
  const float inf = std::numeric_limits<float>::infinity();
  const auto tex = dev.CreateTexture(2, 1, Format::kFloat32);
  dev.UploadChannel(tex, 0, std::vector<float>{inf, 3.0f});
  dev.BindFramebuffer(2, 1, Format::kFloat32);
  dev.SetBlend(BlendOp::kReplace);
  dev.DrawQuad(tex, Quad::Identity(0, 0, 2, 1));
  dev.SetBlend(BlendOp::kMin);
  // Swap mapping: pixel 0 sees texel 1 and vice versa.
  dev.DrawQuad(tex, Quad::Make(0, 0, 2, 1, 2, 0, 0, 0, 0, 1, 2, 1));
  std::vector<float> out(2);
  dev.ReadbackChannel(0, out);
  EXPECT_EQ(out[0], 3.0f);   // min(inf, 3)
  EXPECT_EQ(out[1], 3.0f);   // min(3, inf)
}

}  // namespace
}  // namespace streamgpu::gpu
