// Framebuffer blend equations.
//
// The paper's sorting networks use exactly the fixed-function blending path:
// "We use the blending operation to compare the pixel color against the
// fragment color" (§4.3), with the blend function set to MIN or MAX
// (OpenGL's GL_MIN / GL_MAX blend equations). REPLACE models blending
// disabled (plain writes, used by Routine 4.1 `Copy`).

#ifndef STREAMGPU_GPU_BLEND_H_
#define STREAMGPU_GPU_BLEND_H_

#include <algorithm>
#include <cstdint>

namespace streamgpu::gpu {

/// Blend equation applied per channel between the incoming fragment color
/// (source) and the color already in the framebuffer (destination).
enum class BlendOp : std::uint8_t {
  kReplace,  ///< dst = src (blending disabled)
  kMin,      ///< dst = min(dst, src) — GL_MIN
  kMax,      ///< dst = max(dst, src) — GL_MAX
};

/// Applies `op` to one channel value pair.
inline float ApplyBlend(BlendOp op, float dst, float src) {
  switch (op) {
    case BlendOp::kReplace:
      return src;
    case BlendOp::kMin:
      return std::min(dst, src);
    case BlendOp::kMax:
      return std::max(dst, src);
  }
  return src;  // unreachable
}

/// Human-readable name, for logging and test failure messages.
inline const char* BlendOpName(BlendOp op) {
  switch (op) {
    case BlendOp::kReplace:
      return "REPLACE";
    case BlendOp::kMin:
      return "MIN";
    case BlendOp::kMax:
      return "MAX";
  }
  return "?";
}

}  // namespace streamgpu::gpu

#endif  // STREAMGPU_GPU_BLEND_H_
