// Software IEEE 754 binary16 ("half") conversion.
//
// The paper renders into 16-bit floating-point offscreen buffers ("optimized
// them using double buffered 16-bit offscreen buffers", §4.5) and streams
// 16-bit floating-point data (§5). The simulator reproduces that precision by
// quantizing texture/framebuffer contents through this type, and reproduces
// the bandwidth by accounting 2 bytes per stored channel.

#ifndef STREAMGPU_GPU_HALF_H_
#define STREAMGPU_GPU_HALF_H_

#include <cstddef>
#include <cstdint>
#include <cstring>

namespace streamgpu::gpu {

/// Converts a single-precision float to IEEE 754 binary16 bits, using
/// round-to-nearest-even, with correct handling of NaN, infinities,
/// subnormals, and overflow (overflow rounds to infinity).
inline std::uint16_t FloatToHalfBits(float value) {
  std::uint32_t f;
  std::memcpy(&f, &value, sizeof(f));

  const std::uint32_t sign = (f >> 16) & 0x8000u;
  const std::uint32_t abs = f & 0x7FFFFFFFu;

  if (abs >= 0x7F800000u) {
    // Inf or NaN. Preserve NaN-ness (quiet bit set); keep payload nonzero.
    if (abs > 0x7F800000u) return static_cast<std::uint16_t>(sign | 0x7E00u);
    return static_cast<std::uint16_t>(sign | 0x7C00u);
  }
  if (abs >= 0x477FF000u) {
    // Rounds to or past half infinity (65520 and above).
    return static_cast<std::uint16_t>(sign | 0x7C00u);
  }
  if (abs < 0x38800000u) {
    // Subnormal half (or zero). Shift the implicit bit into place.
    if (abs < 0x33000000u) {
      // Smaller than half of the smallest subnormal: rounds to zero.
      return static_cast<std::uint16_t>(sign);
    }
    // The 24-bit significand shifted down so the result counts units of
    // 2^-24 (the subnormal half quantum): shift = 126 - exponent, in 14..24
    // for the inputs reaching this path.
    const std::uint32_t mant = (abs & 0x007FFFFFu) | 0x00800000u;
    const int shift = 126 - static_cast<int>(abs >> 23);
    std::uint32_t sub = mant >> shift;
    // Round to nearest even on the bits shifted out.
    const std::uint32_t rem = mant & ((1u << shift) - 1);
    const std::uint32_t halfway = 1u << (shift - 1);
    if (rem > halfway || (rem == halfway && (sub & 1u))) ++sub;
    return static_cast<std::uint16_t>(sign | sub);
  }

  // Normalized half.
  std::uint32_t bits = sign | ((abs + 0xC8000000u) >> 13);
  const std::uint32_t rem = abs & 0x1FFFu;
  if (rem > 0x1000u || (rem == 0x1000u && (bits & 1u))) ++bits;
  return static_cast<std::uint16_t>(bits);
}

/// Converts IEEE 754 binary16 bits to a single-precision float (exact).
inline float HalfBitsToFloat(std::uint16_t h) {
  const std::uint32_t sign = static_cast<std::uint32_t>(h & 0x8000u) << 16;
  const std::uint32_t exp = (h >> 10) & 0x1Fu;
  const std::uint32_t mant = h & 0x3FFu;

  std::uint32_t f;
  if (exp == 0) {
    if (mant == 0) {
      f = sign;  // signed zero
    } else {
      // Subnormal: normalize.
      std::uint32_t m = mant;
      int e = -1;
      do {
        m <<= 1;
        ++e;
      } while ((m & 0x400u) == 0);
      f = sign | ((127 - 15 - e) << 23) | ((m & 0x3FFu) << 13);
    }
  } else if (exp == 0x1Fu) {
    f = sign | 0x7F800000u | (mant << 13);  // inf or NaN
  } else {
    f = sign | ((exp + 127 - 15) << 23) | (mant << 13);
  }
  float out;
  std::memcpy(&out, &f, sizeof(out));
  return out;
}

/// Rounds a float through binary16 precision: the value a 16-bit floating
/// point render target would actually hold. Bit-identical to
/// HalfBitsToFloat(FloatToHalfBits(value)), its reference, on every input
/// (half_test compares them over every binary16 value, every midpoint
/// between neighbours, and every 97th float bit pattern), but computed
/// without branches, so the ingest and upload loops that call it per element
/// stay straight-line code the compiler can vectorize:
///   - from 2^-14 up (normal halves), the float significand is rounded to 10
///     bits, nearest even, at bit 13; a carry out of the significand bumps
///     the exponent, as it should;
///   - below 2^-14 (subnormal halves, spaced 2^-24), (|x| + 0.5f) - 0.5f
///     rounds to a multiple of 2^-24, the spacing of floats in [0.5, 1),
///     nearest even, and the subtraction is exact;
///   - a rounded magnitude past 65504 (the input 65520 and up, or inf)
///     selects inf, a NaN selects the quiet NaN with no payload, and the
///     sign is put back last, so -0.0 and negative NaNs keep it.
inline float QuantizeToHalf(float value) {
  std::uint32_t f;
  std::memcpy(&f, &value, sizeof(f));
  const std::uint32_t sign = f & 0x80000000u;
  const std::uint32_t abs = f ^ sign;

  const std::uint32_t normal = (abs + 0x0FFFu + ((abs >> 13) & 1u)) & ~0x1FFFu;
  float magnitude;
  std::memcpy(&magnitude, &abs, sizeof(magnitude));
  const float subnormal_value = (magnitude + 0.5f) - 0.5f;
  std::uint32_t subnormal;
  std::memcpy(&subnormal, &subnormal_value, sizeof(subnormal));

  std::uint32_t bits = abs < 0x38800000u ? subnormal : normal;
  bits = normal > 0x477FE000u ? 0x7F800000u : bits;
  bits = abs > 0x7F800000u ? 0x7FC00000u : bits;
  bits |= sign;
  float out;
  std::memcpy(&out, &bits, sizeof(out));
  return out;
}

/// Bulk round-trip: quantizes `n` values from `src` into `dst` (which may
/// alias). Used by the upload and copy paths of the simulated device.
inline void QuantizeToHalfN(const float* src, float* dst, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) dst[i] = QuantizeToHalf(src[i]);
}

/// Largest finite binary16 value (65504).
inline constexpr float kHalfMax = 65504.0f;

}  // namespace streamgpu::gpu

#endif  // STREAMGPU_GPU_HALF_H_
