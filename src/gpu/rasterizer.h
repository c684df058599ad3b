// Quad rasterization with interpolated texture coordinates and framebuffer
// blending — the complete fixed-function path the paper's algorithms use
// (§4.2), plus a programmable-fragment entry point used only by the bitonic
// sort baseline (§4.5, [40]).
//
// Execution paths (docs/ARCHITECTURE.md, "Pass-execution engine"):
//   kFast    — the default. A quad whose column and row mappings are
//              closed-form unit steps that never clamp (Rasterizer::SetUp
//              recognizes them; every quad the paper's Routines 4.1–4.4
//              emit is one) runs as one rectangle of contiguous,
//              auto-vectorized min/max/copy row kernels, its source rows
//              ascending or mirrored. Any other quad runs kGeneric.
//   kGeneric — per-pixel bilinear interpolation for every fragment (the
//              reference semantics). Slow; tests select it through SetPath
//              to compare the two.

#ifndef STREAMGPU_GPU_RASTERIZER_H_
#define STREAMGPU_GPU_RASTERIZER_H_

#include <cmath>
#include <cstdint>

#include "gpu/blend.h"
#include "gpu/stats.h"
#include "gpu/surface.h"
#include "gpu/vertex.h"

namespace streamgpu::gpu {

/// Which DrawQuad execution path runs (see file comment).
enum class RasterPath {
  kFast,     ///< the rectangle kernel where it applies, else kGeneric (default)
  kGeneric,  ///< reference per-pixel bilinear path
};

/// One axis of a separable quad's texel mapping in closed form: the pixel
/// `i` places after the first covered one fetches texel `first + step * i`
/// before clamping to the texture. `step` is +1 or -1, or 0 when the closed
/// form does not apply (Rasterizer::SetUp says when it does).
struct UnitMapping {
  int first = 0;
  int step = 0;
};

/// A quad set up for one draw into a width x height target: the covered
/// pixel rectangle [px0, px1) x [py0, py1) (pixel centers at +0.5, clipped
/// to the target) and the interpolation state every execution path reads.
/// Built by Rasterizer::SetUp once per draw; GpuDevice reads the rectangle
/// for its framebuffer aliasing before the same setup is drawn.
struct QuadSetup {
  Quad quad;
  int width = 0;
  int height = 0;
  int px0 = 0, py0 = 0, px1 = 0, py1 = 0;
  float inv_w = 0.0f;  // 1 / screen width of the quad
  float inv_h = 0.0f;  // 1 / screen height of the quad
  /// Closed-form column (u) and row (v) mappings of a separable quad, one
  /// whose u depends only on x and v only on y (every paper routine's
  /// quads); step 0 on both axes of any other quad.
  UnitMapping cols;
  UnitMapping rows;

  bool empty() const { return px0 >= px1 || py0 >= py1; }
};

/// Executes render passes against a target surface.
class Rasterizer {
 public:
  /// Sets `quad` up for drawing into a width x height target. CHECK-fails
  /// unless the quad is an axis-aligned rectangle of positive extent. An
  /// axis of a separable quad gets its mapping in closed form when its
  /// screen corners and texel coordinates are integers below 2^22 in
  /// magnitude, its screen extent is a power of two and the texel
  /// coordinates change by exactly that extent, up or down: every step of
  /// the interpolation is then exact, so the first covered pixel's texel and
  /// the +-1 step follow directly.
  static QuadSetup SetUp(const Quad& quad, int width, int height);

  /// Rasterizes an axis-aligned quad. For every covered pixel (centers at
  /// +0.5), the texture coordinate is interpolated bilinearly from the quad's
  /// vertices, the nearest texel of `tex` is fetched, and the fragment is
  /// combined into `target` with blend equation `op`. Work counters are
  /// accumulated into `stats`. All execution paths produce bit-identical
  /// output and identical counters for the quad families the paper's
  /// routines emit.
  ///
  /// `dst_read`, when non-null, supplies the pre-blend destination values
  /// instead of `target` (same dimensions and format required). GpuDevice
  /// uses this to alias the framebuffer onto the last-copied texture, which
  /// turns framebuffer-to-texture copies into storage swaps; passing a
  /// surface whose covered region is value-identical to `target` leaves the
  /// output unchanged.
  static void DrawQuad(const Surface& tex, const Quad& quad, BlendOp op, Surface* target,
                       GpuStats* stats, const Surface* dst_read = nullptr);

  /// DrawQuad for a quad already set up against `target`'s dimensions.
  static void DrawQuad(const Surface& tex, const QuadSetup& setup, BlendOp op,
                       Surface* target, GpuStats* stats, const Surface* dst_read = nullptr);

  /// Counts `draws` draws of `fragments` fragments in all, each blended with
  /// `op` from a `tex_format` texture into a `target_format` target, as
  /// DrawQuad counts each covering draw.
  static void CountDraws(std::uint64_t draws, std::uint64_t fragments, BlendOp op,
                         Format tex_format, Format target_format, GpuStats* stats);

  /// Selects the DrawQuad execution path (kFast at startup). Tests switch it
  /// before spawning sort workers. Thread-safe to read concurrently.
  static void SetPath(RasterPath path);
  static RasterPath path();

  /// Runs a user fragment program over the pixel rectangle
  /// [x0, x1) x [y0, y1) of `target`. The program receives the pixel
  /// coordinates and the bound texture and returns the output color; no
  /// blending is applied (programs write their result directly, as in [40]).
  /// `instructions_per_fragment` is charged to the program-instruction
  /// counter; `fetches_per_fragment` to the texture-fetch counter.
  ///
  /// The callable has signature:
  ///   void program(int x, int y, const Surface& tex, float out[kNumChannels])
  template <typename Program>
  static void RunFragmentProgram(const Surface& tex, int x0, int y0, int x1, int y1,
                                 std::uint64_t instructions_per_fragment,
                                 std::uint64_t fetches_per_fragment, Program&& program,
                                 Surface* target, GpuStats* stats);
};

template <typename Program>
void Rasterizer::RunFragmentProgram(const Surface& tex, int x0, int y0, int x1, int y1,
                                    std::uint64_t instructions_per_fragment,
                                    std::uint64_t fetches_per_fragment, Program&& program,
                                    Surface* target, GpuStats* stats) {
  STREAMGPU_CHECK(x0 >= 0 && y0 >= 0 && x1 <= target->width() && y1 <= target->height());
  float out[kNumChannels];
  for (int y = y0; y < y1; ++y) {
    for (int x = x0; x < x1; ++x) {
      program(x, y, tex, out);
      for (int c = 0; c < kNumChannels; ++c) target->Set(c, x, y, out[c]);
    }
  }
  const std::uint64_t fragments =
      static_cast<std::uint64_t>(x1 - x0) * static_cast<std::uint64_t>(y1 - y0);
  stats->draw_calls += 1;
  stats->fragments_shaded += fragments;
  stats->texture_fetches += fragments * fetches_per_fragment;
  stats->program_fragments += fragments;
  stats->program_instructions += fragments * instructions_per_fragment;
  stats->bytes_vram += fragments * (fetches_per_fragment * BytesPerTexel(tex.format()) +
                                    BytesPerTexel(target->format()));
}

}  // namespace streamgpu::gpu

#endif  // STREAMGPU_GPU_RASTERIZER_H_
