// Tests for the software binary16 conversion (gpu/half.h).

#include "gpu/half.h"

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <random>
#include <vector>

#include <gtest/gtest.h>

namespace streamgpu::gpu {
namespace {

TEST(HalfTest, ZeroRoundTrips) {
  EXPECT_EQ(FloatToHalfBits(0.0f), 0x0000u);
  EXPECT_EQ(FloatToHalfBits(-0.0f), 0x8000u);
  EXPECT_EQ(HalfBitsToFloat(0x0000u), 0.0f);
  EXPECT_TRUE(std::signbit(HalfBitsToFloat(0x8000u)));
}

TEST(HalfTest, OneRoundTrips) {
  EXPECT_EQ(FloatToHalfBits(1.0f), 0x3C00u);
  EXPECT_EQ(HalfBitsToFloat(0x3C00u), 1.0f);
}

TEST(HalfTest, KnownConstants) {
  EXPECT_EQ(FloatToHalfBits(2.0f), 0x4000u);
  EXPECT_EQ(FloatToHalfBits(-2.0f), 0xC000u);
  EXPECT_EQ(FloatToHalfBits(65504.0f), 0x7BFFu);  // largest finite half
  EXPECT_EQ(HalfBitsToFloat(0x7BFFu), 65504.0f);
  EXPECT_EQ(FloatToHalfBits(0.5f), 0x3800u);
  // Smallest positive normal half: 2^-14.
  EXPECT_EQ(HalfBitsToFloat(0x0400u), std::ldexp(1.0f, -14));
  // Smallest positive subnormal half: 2^-24.
  EXPECT_EQ(HalfBitsToFloat(0x0001u), std::ldexp(1.0f, -24));
}

TEST(HalfTest, InfinityAndNan) {
  const float inf = std::numeric_limits<float>::infinity();
  EXPECT_EQ(FloatToHalfBits(inf), 0x7C00u);
  EXPECT_EQ(FloatToHalfBits(-inf), 0xFC00u);
  EXPECT_TRUE(std::isinf(HalfBitsToFloat(0x7C00u)));
  EXPECT_TRUE(std::isinf(HalfBitsToFloat(0xFC00u)));
  EXPECT_LT(HalfBitsToFloat(0xFC00u), 0.0f);

  const float nan = std::numeric_limits<float>::quiet_NaN();
  const std::uint16_t nan_bits = FloatToHalfBits(nan);
  EXPECT_TRUE(std::isnan(HalfBitsToFloat(nan_bits)));
}

TEST(HalfTest, OverflowRoundsToInfinity) {
  EXPECT_EQ(FloatToHalfBits(65520.0f), 0x7C00u);  // first value past 65504+
  EXPECT_EQ(FloatToHalfBits(1e10f), 0x7C00u);
  EXPECT_EQ(FloatToHalfBits(-1e10f), 0xFC00u);
}

TEST(HalfTest, TinyValuesRoundToZero) {
  EXPECT_EQ(FloatToHalfBits(std::ldexp(1.0f, -26)), 0x0000u);
  EXPECT_EQ(FloatToHalfBits(-std::ldexp(1.0f, -26)), 0x8000u);
}

TEST(HalfTest, IntegersUpTo2048AreExact) {
  for (int i = 0; i <= 2048; ++i) {
    const auto f = static_cast<float>(i);
    EXPECT_EQ(QuantizeToHalf(f), f) << "integer " << i;
    EXPECT_EQ(QuantizeToHalf(-f), -f) << "integer -" << i;
  }
}

TEST(HalfTest, EveryHalfBitPatternRoundTrips) {
  // half -> float -> half must be the identity for all 65536 patterns
  // (modulo NaN payload normalization).
  for (std::uint32_t bits = 0; bits < 0x10000u; ++bits) {
    const auto h = static_cast<std::uint16_t>(bits);
    const float f = HalfBitsToFloat(h);
    if (std::isnan(f)) {
      EXPECT_TRUE(std::isnan(HalfBitsToFloat(FloatToHalfBits(f))));
      continue;
    }
    EXPECT_EQ(FloatToHalfBits(f), h) << "bits 0x" << std::hex << bits;
  }
}

TEST(HalfTest, QuantizationIsMonotonic) {
  std::mt19937 rng(11);
  std::uniform_real_distribution<float> dist(-60000.0f, 60000.0f);
  for (int trial = 0; trial < 10000; ++trial) {
    float a = dist(rng);
    float b = dist(rng);
    if (a > b) std::swap(a, b);
    EXPECT_LE(QuantizeToHalf(a), QuantizeToHalf(b)) << a << " vs " << b;
  }
}

TEST(HalfTest, RelativeErrorWithinHalfPrecision) {
  std::mt19937 rng(12);
  std::uniform_real_distribution<float> dist(1.0f, 60000.0f);
  for (int trial = 0; trial < 10000; ++trial) {
    const float v = dist(rng);
    const float q = QuantizeToHalf(v);
    EXPECT_LE(std::abs(q - v) / v, 1.0f / 2048.0f) << v;  // 2^-11
  }
}

TEST(HalfTest, RoundToNearestEven) {
  // 2049 is exactly between representable 2048 and 2050 -> rounds to 2048.
  EXPECT_EQ(QuantizeToHalf(2049.0f), 2048.0f);
  // 2051 is exactly between 2050 and 2052 -> rounds to 2052.
  EXPECT_EQ(QuantizeToHalf(2051.0f), 2052.0f);
}

// Bitwise equality, so -0.0 vs 0.0 and NaN-ness are observable.
std::uint32_t Bits(float v) {
  std::uint32_t b;
  std::memcpy(&b, &v, sizeof(b));
  return b;
}

TEST(HalfTest, BulkQuantizeMatchesScalarOnSpecialValues) {
  // The bulk path (QuantizeToHalfN) backs the device's uploads and
  // cross-precision copies; it must agree with the scalar conversion
  // bit-for-bit on every special class: NaN, +/-inf, values overflowing to
  // infinity, float subnormals (round to zero), half-subnormal magnitudes,
  // and signed zeros.
  const float inf = std::numeric_limits<float>::infinity();
  const std::vector<float> src = {
      std::numeric_limits<float>::quiet_NaN(),
      inf,
      -inf,
      1e10f,                            // overflows to +inf
      -65520.0f,                        // rounds past -65504 to -inf
      std::numeric_limits<float>::denorm_min(),  // float denormal -> 0
      -std::numeric_limits<float>::denorm_min(),
      std::ldexp(1.0f, -24),            // smallest half subnormal (exact)
      std::ldexp(1.0f, -14),            // smallest normal half
      std::ldexp(1.0f, -20) * 3.0f,     // mid-range half subnormal
      0.0f,
      -0.0f,
      1.0f / 3.0f,
  };

  std::vector<float> bulk(src.size());
  QuantizeToHalfN(src.data(), bulk.data(), src.size());
  for (std::size_t i = 0; i < src.size(); ++i) {
    EXPECT_EQ(Bits(bulk[i]), Bits(QuantizeToHalf(src[i]))) << "i=" << i;
  }

  // NaN stays NaN, infinities and signed zeros keep their signs.
  EXPECT_TRUE(std::isnan(bulk[0]));
  EXPECT_EQ(bulk[1], inf);
  EXPECT_EQ(bulk[2], -inf);
  EXPECT_EQ(bulk[3], inf);
  EXPECT_EQ(bulk[4], -inf);
  EXPECT_EQ(Bits(bulk[5]), Bits(0.0f));
  EXPECT_EQ(Bits(bulk[6]), Bits(-0.0f));
  EXPECT_EQ(bulk[7], std::ldexp(1.0f, -24));
  EXPECT_EQ(Bits(bulk[11]), Bits(-0.0f));

  // Aliased (in-place) bulk quantization, the copy-path usage.
  std::vector<float> in_place = src;
  QuantizeToHalfN(in_place.data(), in_place.data(), in_place.size());
  for (std::size_t i = 0; i < src.size(); ++i) {
    EXPECT_EQ(Bits(in_place[i]), Bits(bulk[i])) << "i=" << i;
  }

  // Idempotence: re-quantizing an already-quantized buffer is the identity
  // (the invariant the engine relies on to skip re-quantization for
  // binary16 source operands).
  std::vector<float> twice = bulk;
  QuantizeToHalfN(twice.data(), twice.data(), twice.size());
  for (std::size_t i = 0; i < bulk.size(); ++i) {
    EXPECT_EQ(Bits(twice[i]), Bits(bulk[i])) << "i=" << i;
  }
}

// QuantizeToHalf rounds without branches; the float -> half -> float round
// trip through FloatToHalfBits/HalfBitsToFloat is its reference. Compares
// one value bit for bit, counting mismatches and reporting the first few.
void CheckQuantize(float v, int* mismatches) {
  const std::uint32_t got = Bits(QuantizeToHalf(v));
  const std::uint32_t want = Bits(HalfBitsToFloat(FloatToHalfBits(v)));
  if (got != want && ++*mismatches <= 10) {
    ADD_FAILURE() << std::hex << "input 0x" << Bits(v) << ": got 0x" << got
                  << ", reference 0x" << want;
  }
}

void ExpectQuantizeMatchesReference(const std::vector<float>& values) {
  int mismatches = 0;
  for (const float v : values) CheckQuantize(v, &mismatches);
  EXPECT_EQ(mismatches, 0);
}

TEST(HalfQuantizeTest, EveryHalfValueMatchesReference) {
  std::vector<float> values;
  for (std::uint32_t h = 0; h < 0x10000u; ++h) {
    values.push_back(HalfBitsToFloat(static_cast<std::uint16_t>(h)));
  }
  // Every NaN class too, not only the ones a half can hold.
  for (const std::uint32_t bits : {0x7F800001u, 0x7FBFFFFFu, 0x7FC00000u, 0x7FC01234u,
                                   0x7FFFFFFFu, 0xFF800001u, 0xFFC00000u, 0xFFFFFFFFu}) {
    values.push_back(std::bit_cast<float>(bits));
  }
  ExpectQuantizeMatchesReference(values);
}

TEST(HalfQuantizeTest, MidpointsAndTheirNeighboursMatchReference) {
  // Every tie between two consecutive halves (subnormal and normal, either
  // sign, including 65504 against the next binade's 65536, the overflow
  // edge at 65520), and the floats on each side of it.
  std::vector<float> values;
  for (std::uint32_t h = 0; h < 0x7C00u; ++h) {
    const float lo = HalfBitsToFloat(static_cast<std::uint16_t>(h));
    const float hi = h == 0x7BFFu ? 65536.0f : HalfBitsToFloat(static_cast<std::uint16_t>(h + 1));
    const float mid = lo + (hi - lo) / 2;  // exact: 12 significant bits
    for (const float v : {mid, std::nextafter(mid, 0.0f), std::nextafter(mid, hi * 2)}) {
      values.push_back(v);
      values.push_back(-v);
    }
  }
  ExpectQuantizeMatchesReference(values);
}

TEST(HalfQuantizeTest, RangeEdgesMatchReference) {
  const float tiny = std::ldexp(1.0f, -14);  // smallest normal half
  const std::vector<float> edges = {
      65504.0f,
      std::nextafter(65504.0f, 0.0f),
      std::nextafter(65504.0f, 1e9f),
      std::nextafter(65520.0f, 0.0f),
      65520.0f,
      std::nextafter(65520.0f, 1e9f),
      65536.0f,
      std::numeric_limits<float>::max(),
      tiny,
      std::nextafter(tiny, 0.0f),
      std::nextafter(tiny, 1.0f),
      tiny - std::ldexp(1.0f, -25),  // between the largest subnormal and tiny
      std::ldexp(1.0f, -24),
      std::ldexp(1.0f, -25),  // half the smallest subnormal: ties to zero
      std::nextafter(std::ldexp(1.0f, -25), 1.0f),
      std::numeric_limits<float>::min(),
      std::numeric_limits<float>::denorm_min(),
  };
  std::vector<float> values;
  for (const float v : edges) {
    values.push_back(v);
    values.push_back(-v);
  }
  ExpectQuantizeMatchesReference(values);
  EXPECT_EQ(QuantizeToHalf(65519.0f), 65504.0f);
  EXPECT_EQ(QuantizeToHalf(65520.0f), std::numeric_limits<float>::infinity());
  EXPECT_EQ(QuantizeToHalf(std::nextafter(tiny, 0.0f)), tiny);
}

TEST(HalfQuantizeTest, EveryNinetySeventhFloatMatchesReference) {
  // 44.3 M bit patterns spread over the whole float range; 97 is odd, so
  // every low bit pattern (the rounding bits) occurs in every binade.
  int mismatches = 0;
  for (std::uint64_t b = 0; b <= 0xFFFFFFFFu; b += 97) {
    CheckQuantize(std::bit_cast<float>(static_cast<std::uint32_t>(b)), &mismatches);
  }
  EXPECT_EQ(mismatches, 0);
}

}  // namespace
}  // namespace streamgpu::gpu
