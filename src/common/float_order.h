// The one total order on float bit patterns that the sort backends, the KLL
// compactor, the wire format and gpudb share, and the NaN scan that keeps a
// value without a rank out of every summary.
//
// The summaries read ranks off sorted windows, and the GPU path sorts by
// MIN/MAX blending, so a NaN has no place in any of them: the estimators and
// the service refuse it at admission and the decoders refuse it in a
// snapshot or an export (docs/ALGORITHMS.md, "NaN").

#ifndef STREAMGPU_COMMON_FLOAT_ORDER_H_
#define STREAMGPU_COMMON_FLOAT_ORDER_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>

namespace streamgpu {

/// Maps a float's bit pattern to an unsigned key with the same total order:
/// negative floats have their bits inverted, non-negative floats get the sign
/// bit set. Strictly monotone over bit patterns, so sorting the keys sorts
/// the floats with -0.0 < +0.0 and NaNs (sign-cleared payload order) at the
/// top — a deterministic total order where operator< is only partial.
inline std::uint32_t FloatToOrderedKey(std::uint32_t bits) {
  return bits & 0x80000000u ? ~bits : bits | 0x80000000u;
}

/// Inverse of FloatToOrderedKey.
inline std::uint32_t OrderedKeyToFloat(std::uint32_t key) {
  return key & 0x80000000u ? key & 0x7FFFFFFFu : ~key;
}

/// FloatToOrderedKey of `value`'s bit pattern.
inline std::uint32_t OrderedKey(float value) {
  return FloatToOrderedKey(std::bit_cast<std::uint32_t>(value));
}

/// The index of the first NaN in `values`, or values.size() when it holds
/// none. The scan ORs `v != v` into an int, which vectorizes; only a span
/// that holds a NaN is searched a second time.
inline std::size_t FindNan(std::span<const float> values) {
  int nan = 0;
  for (const float v : values) nan |= v != v;
  if (nan == 0) return values.size();
  std::size_t i = 0;
  while (values[i] == values[i]) ++i;
  return i;
}

}  // namespace streamgpu

#endif  // STREAMGPU_COMMON_FLOAT_ORDER_H_
