#include "sketch/serialize.h"

#include <algorithm>
#include <array>
#include <cstring>
#include <string>
#include <utility>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#include <immintrin.h>
#endif

#include "common/float_order.h"
#include "sketch/wire.h"

namespace streamgpu::sketch {

namespace {

using core::Status;
using core::StatusOr;
using wire::Append;
using wire::Read;

/// IEEE 802.3 CRC-32 polynomial, reflected.
constexpr std::uint32_t kCrcPolynomial = 0xEDB88320u;

/// Slicing-by-16 tables: entry [k][b] is the CRC register after byte b is
/// followed by k zero bytes, so one step folds 16 input bytes with 16
/// independent lookups instead of a 16-long chain of dependent ones.
struct Crc32Tables {
  std::array<std::array<std::uint32_t, 256>, 16> entries{};
  constexpr Crc32Tables() {
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t crc = i;
      for (int bit = 0; bit < 8; ++bit) {
        crc = (crc >> 1) ^ ((crc & 1) ? kCrcPolynomial : 0);
      }
      entries[0][i] = crc;
    }
    for (std::size_t k = 1; k < 16; ++k) {
      for (std::size_t i = 0; i < 256; ++i) {
        const std::uint32_t prev = entries[k - 1][i];
        entries[k][i] = (prev >> 8) ^ entries[0][prev & 0xFF];
      }
    }
  }
};

constexpr Crc32Tables kCrcTables;

/// Runs the CRC register `crc` (pre-conditioned, not yet inverted back)
/// over n bytes at p with the slicing-by-16 tables.
std::uint32_t TableUpdate(std::uint32_t crc, const std::uint8_t* p, std::size_t n) {
  const auto& t = kCrcTables.entries;
  for (; n >= 16; n -= 16, p += 16) {
    crc ^= static_cast<std::uint32_t>(p[0]) | static_cast<std::uint32_t>(p[1]) << 8 |
           static_cast<std::uint32_t>(p[2]) << 16 |
           static_cast<std::uint32_t>(p[3]) << 24;
    crc = t[15][crc & 0xFF] ^ t[14][(crc >> 8) & 0xFF] ^ t[13][(crc >> 16) & 0xFF] ^
          t[12][crc >> 24] ^ t[11][p[4]] ^ t[10][p[5]] ^ t[9][p[6]] ^ t[8][p[7]] ^
          t[7][p[8]] ^ t[6][p[9]] ^ t[5][p[10]] ^ t[4][p[11]] ^ t[3][p[12]] ^
          t[2][p[13]] ^ t[1][p[14]] ^ t[0][p[15]];
  }
  for (; n > 0; --n, ++p) crc = (crc >> 8) ^ t[0][(crc ^ *p) & 0xFF];
  return crc;
}

std::uint32_t TableCrc32(std::span<const std::uint8_t> bytes, std::uint32_t prefix_crc) {
  return ~TableUpdate(~prefix_crc, bytes.data(), bytes.size());
}

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define STREAMGPU_CRC32_FOLD 1

#define STREAMGPU_CLMUL_TARGET __attribute__((target("pclmul,sse4.1")))

/// Shortest input the fold takes: its first step loads four 16-byte lanes.
constexpr std::size_t kFoldMinBytes = 64;

inline __m128i Load16(const std::uint8_t* at) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(at));
}

/// Carries lane x forward by the distance the constant pair k encodes (the
/// low half of x times k's low half, the high half times k's high half) and
/// adds `next`, the lane's data at that distance.
STREAMGPU_CLMUL_TARGET inline __m128i Fold(__m128i x, __m128i k, __m128i next) {
  return _mm_xor_si128(
      _mm_xor_si128(_mm_clmulepi64_si128(x, k, 0x00), _mm_clmulepi64_si128(x, k, 0x11)),
      next);
}

/// CRC-32 folded with the carry-less multiplier (PCLMULQDQ), after Gopal et
/// al., "Fast CRC Computation for Generic Polynomials Using PCLMULQDQ
/// Instruction" (Intel, 2009). Four 128-bit lanes fold 64 bytes per step,
/// are folded into one lane, which then takes 16 bytes per step; a Barrett
/// reduction brings it to the 32-bit register, and the table loop finishes
/// the under-16-byte tail. The constants are the paper's for the IEEE
/// polynomial P, each bit-reflected and shifted left by one: k1, k2 =
/// x^(4*128+32), x^(4*128-32) mod P fold by 512 bits; k3, k4 = x^(128+32),
/// x^(128-32) mod P by 128; k5 = x^64 mod P takes 64 bits to 32; P' = P and
/// mu = x^64 div P drive the Barrett reduction.
STREAMGPU_CLMUL_TARGET std::uint32_t FoldCrc32(std::span<const std::uint8_t> bytes,
                                               std::uint32_t prefix_crc) {
  const std::uint8_t* p = bytes.data();
  std::size_t n = bytes.size();
  if (n < kFoldMinBytes) return TableCrc32(bytes, prefix_crc);
  const __m128i k1k2 = _mm_set_epi64x(0x1c6e41596, 0x154442bd4);
  const __m128i k3k4 = _mm_set_epi64x(0x0ccaa009e, 0x1751997d0);
  const __m128i k5 = _mm_set_epi64x(0, 0x163cd6124);
  const __m128i poly_mu = _mm_set_epi64x(0x1f7011641, 0x1db710641);
  const __m128i low32 = _mm_setr_epi32(~0, 0, ~0, 0);

  __m128i x0 = _mm_xor_si128(Load16(p), _mm_cvtsi32_si128(static_cast<int>(~prefix_crc)));
  __m128i x1 = Load16(p + 16);
  __m128i x2 = Load16(p + 32);
  __m128i x3 = Load16(p + 48);
  for (p += 64, n -= 64; n >= 64; p += 64, n -= 64) {
    x0 = Fold(x0, k1k2, Load16(p));
    x1 = Fold(x1, k1k2, Load16(p + 16));
    x2 = Fold(x2, k1k2, Load16(p + 32));
    x3 = Fold(x3, k1k2, Load16(p + 48));
  }
  x0 = Fold(x0, k3k4, x1);
  x0 = Fold(x0, k3k4, x2);
  x0 = Fold(x0, k3k4, x3);
  for (; n >= 16; p += 16, n -= 16) x0 = Fold(x0, k3k4, Load16(p));

  // 128 -> 64 bits, then 64 -> 32 bits with k5.
  x0 = _mm_xor_si128(_mm_srli_si128(x0, 8), _mm_clmulepi64_si128(x0, k3k4, 0x10));
  x0 = _mm_xor_si128(_mm_srli_si128(x0, 4),
                     _mm_clmulepi64_si128(_mm_and_si128(x0, low32), k5, 0x00));
  // Barrett reduction: q = low32(low32(x0) * mu), and the register is bits
  // 32..63 of x0 xor q * P'.
  __m128i q = _mm_clmulepi64_si128(_mm_and_si128(x0, low32), poly_mu, 0x10);
  q = _mm_clmulepi64_si128(_mm_and_si128(q, low32), poly_mu, 0x00);
  const auto crc = static_cast<std::uint32_t>(_mm_extract_epi32(_mm_xor_si128(x0, q), 1));
  return ~TableUpdate(crc, p, n);
}

/// Whether this CPU has the instructions FoldCrc32 uses; decided once.
bool HasCarrylessMultiply() {
  static const bool has = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("pclmul") && __builtin_cpu_supports("sse4.1");
  }();
  return has;
}
#endif  // x86-64 with GCC or Clang

/// Frames the payload appended after the header reserved at `header`
/// (BeginFrame) as an envelope of `type`.
void EndEnvelope(SketchType type, std::size_t header, std::vector<std::uint8_t>* out) {
  EndFrame(kWireMagic, kWireVersion, static_cast<std::uint16_t>(type), header, out);
}

struct Envelope {
  SketchType type;
  std::span<const std::uint8_t> payload;
  std::size_t consumed;  ///< total envelope bytes, header included
};

bool IsKnownType(std::uint16_t tag) {
  return tag >= static_cast<std::uint16_t>(SketchType::kGkSummary) &&
         tag <= static_cast<std::uint16_t>(SketchType::kMisraGries);
}

/// Parses and validates one envelope header (magic, version, tag, length,
/// checksum) without interpreting the payload. Does not advance `bytes`.
StatusOr<Envelope> ParseEnvelope(std::span<const std::uint8_t> bytes) {
  std::span<const std::uint8_t> cursor = bytes;
  std::uint32_t magic = 0;
  std::uint16_t version = 0;
  std::uint16_t tag = 0;
  std::uint64_t payload_len = 0;
  std::uint32_t checksum = 0;
  if (!Read(&cursor, &magic) || !Read(&cursor, &version) || !Read(&cursor, &tag) ||
      !Read(&cursor, &payload_len) || !Read(&cursor, &checksum)) {
    return Status::InvalidArgument("truncated summary envelope: " +
                                   std::to_string(bytes.size()) +
                                   " bytes is smaller than the 20-byte header");
  }
  if (magic != kWireMagic) {
    return Status::InvalidArgument("bad summary envelope magic");
  }
  if (version > kWireVersion) {
    return Status::InvalidArgument(
        "summary envelope version " + std::to_string(version) +
        " is newer than this reader (version " + std::to_string(kWireVersion) +
        "); upgrade the reader");
  }
  if (version == 0) {
    return Status::InvalidArgument("summary envelope version 0 is invalid");
  }
  if (!IsKnownType(tag)) {
    return Status::InvalidArgument("unknown sketch-type tag " + std::to_string(tag));
  }
  // A corrupted length field must not drive allocation or out-of-bounds
  // reads: the payload has to fit in the remaining buffer.
  if (payload_len > cursor.size()) {
    return Status::InvalidArgument(
        "summary envelope payload length " + std::to_string(payload_len) +
        " exceeds the " + std::to_string(cursor.size()) + " remaining bytes");
  }
  const std::span<const std::uint8_t> payload =
      cursor.first(static_cast<std::size_t>(payload_len));
  if (Crc32(payload) != checksum) {
    return Status::InvalidArgument("summary envelope checksum mismatch: corrupted payload");
  }
  return Envelope{static_cast<SketchType>(tag), payload,
                  kFrameHeaderSize + static_cast<std::size_t>(payload_len)};
}

// ---------------------------------------------------------------------------
// Per-type payloads.

/// GK payload: count u64 | epsilon f64 | tuple count u64 | per tuple
/// value f32, rmin u64, rmax u64 (kGkTupleBytes, unpadded). The tuple list
/// is written in one pass into one resize.
constexpr std::size_t kGkTupleBytes = sizeof(float) + 2 * sizeof(std::uint64_t);

void AppendGkPayload(const GkSummary& summary, std::vector<std::uint8_t>* out) {
  Append(out, summary.count());
  Append(out, summary.epsilon());
  Append(out, static_cast<std::uint64_t>(summary.size()));
  const std::size_t offset = out->size();
  out->resize(offset + summary.size() * kGkTupleBytes);
  std::uint8_t* at = out->data() + offset;
  for (const GkTuple& t : summary.tuples()) {
    std::memcpy(at, &t.value, sizeof(float));
    std::memcpy(at + sizeof(float), &t.rmin, sizeof(std::uint64_t));
    std::memcpy(at + sizeof(float) + sizeof(std::uint64_t), &t.rmax,
                sizeof(std::uint64_t));
    at += kGkTupleBytes;
  }
}

StatusOr<GkSummary> ParseGkPayload(std::span<const std::uint8_t> payload) {
  std::uint64_t count = 0;
  double epsilon = 0;
  std::uint64_t tuple_count = 0;
  if (!Read(&payload, &count) || !Read(&payload, &epsilon) ||
      !Read(&payload, &tuple_count)) {
    return Status::InvalidArgument("GK payload truncated before the tuple list");
  }
  if (tuple_count > payload.size() / kGkTupleBytes) {
    return Status::InvalidArgument("GK payload tuple count " +
                                   std::to_string(tuple_count) +
                                   " does not fit the payload");
  }
  std::vector<GkTuple> tuples(static_cast<std::size_t>(tuple_count));
  for (std::size_t i = 0; i < tuples.size(); ++i) {
    GkTuple& t = tuples[i];
    if (!Read(&payload, &t.value) || !Read(&payload, &t.rmin) || !Read(&payload, &t.rmax)) {
      return Status::InvalidArgument("GK payload truncated inside the tuple list");
    }
    if (t.value != t.value) {
      return Status::InvalidArgument("GK payload tuple " + std::to_string(i) +
                                     " value is NaN");
    }
  }
  GkSummary parsed;
  if (!GkSummary::FromParts(std::move(tuples), count, epsilon, &parsed)) {
    return Status::InvalidArgument(
        "GK payload violates the summary invariants (values ascending, "
        "rmin <= rmax, rank bounds within [1, count])");
  }
  return parsed;
}

void AppendKllPayload(const KllSketch& sketch, std::vector<std::uint8_t>* out) {
  Append(out, sketch.epsilon());
  Append(out, sketch.seed());
  Append(out, sketch.count());
  Append(out, sketch.worst_case_rank_error());
  Append(out, sketch.compactions());
  Append(out, static_cast<std::uint32_t>(sketch.num_levels()));
  for (const std::vector<float>& level : sketch.levels()) {
    Append(out, static_cast<std::uint64_t>(level.size()));
    wire::AppendArray<float>(out, level);
  }
}

StatusOr<KllSketch> ParseKllPayload(std::span<const std::uint8_t> payload) {
  double epsilon = 0;
  std::uint64_t seed = 0;
  std::uint64_t count = 0;
  std::uint64_t worst_case = 0;
  std::uint64_t compactions = 0;
  std::uint32_t num_levels = 0;
  if (!Read(&payload, &epsilon) || !Read(&payload, &seed) || !Read(&payload, &count) ||
      !Read(&payload, &worst_case) || !Read(&payload, &compactions) ||
      !Read(&payload, &num_levels)) {
    return Status::InvalidArgument("KLL payload truncated before the levels");
  }
  if (num_levels == 0 || num_levels >= 64) {
    return Status::InvalidArgument("KLL payload level count " +
                                   std::to_string(num_levels) + " is invalid");
  }
  std::vector<std::vector<float>> levels(num_levels);
  for (std::vector<float>& level : levels) {
    std::uint64_t items = 0;
    if (!Read(&payload, &items)) {
      return Status::InvalidArgument("KLL payload truncated at a level header");
    }
    if (items > payload.size() / sizeof(float)) {
      return Status::InvalidArgument("KLL payload level item count " +
                                     std::to_string(items) +
                                     " does not fit the payload");
    }
    level.resize(static_cast<std::size_t>(items));
    for (float& v : level) {
      if (!Read(&payload, &v)) {
        return Status::InvalidArgument("KLL payload truncated inside a level");
      }
    }
    if (const std::size_t nan = FindNan(level); nan != level.size()) {
      return Status::InvalidArgument("KLL payload level " +
                                     std::to_string(&level - levels.data()) + " item " +
                                     std::to_string(nan) + " is NaN");
    }
  }
  KllSketch parsed(0.5);  // overwritten by FromParts on success
  if (!KllSketch::FromParts(epsilon, seed, count, worst_case, compactions,
                            std::move(levels), &parsed)) {
    return Status::InvalidArgument(
        "KLL payload violates the sketch invariants (weighted item total "
        "must equal the element count)");
  }
  return parsed;
}

void AppendCountMinPayload(const CountMinSketch& sketch,
                           std::vector<std::uint8_t>* out) {
  Append(out, sketch.epsilon());
  Append(out, sketch.delta());
  Append(out, sketch.total_weight());
  Append(out, static_cast<std::uint64_t>(sketch.width()));
  Append(out, static_cast<std::uint64_t>(sketch.depth()));
  wire::AppendArray<std::int64_t>(out, sketch.counters());
}

StatusOr<CountMinSketch> ParseCountMinPayload(std::span<const std::uint8_t> payload) {
  double epsilon = 0;
  double delta = 0;
  std::int64_t total = 0;
  std::uint64_t width = 0;
  std::uint64_t depth = 0;
  if (!Read(&payload, &epsilon) || !Read(&payload, &delta) || !Read(&payload, &total) ||
      !Read(&payload, &width) || !Read(&payload, &depth)) {
    return Status::InvalidArgument("Count-Min payload truncated before the counters");
  }
  if (width == 0 || depth == 0 ||
      width > payload.size() / sizeof(std::int64_t) / std::max<std::uint64_t>(depth, 1)) {
    return Status::InvalidArgument("Count-Min payload dimensions do not fit the payload");
  }
  std::vector<std::int64_t> counters(static_cast<std::size_t>(width * depth));
  for (std::int64_t& counter : counters) {
    if (!Read(&payload, &counter)) {
      return Status::InvalidArgument("Count-Min payload truncated inside the counters");
    }
  }
  CountMinSketch parsed(0.5, 0.5);  // overwritten by FromParts on success
  if (!CountMinSketch::FromParts(epsilon, delta, total,
                                 static_cast<std::size_t>(width),
                                 static_cast<std::size_t>(depth),
                                 std::move(counters), &parsed)) {
    return Status::InvalidArgument(
        "Count-Min payload violates the sketch invariants (dimensions must "
        "match the epsilon/delta-derived geometry)");
  }
  return parsed;
}

void AppendMisraGriesPayload(const MisraGries& sketch,
                             std::vector<std::uint8_t>* out) {
  Append(out, sketch.epsilon());
  Append(out, sketch.stream_length());
  // Canonical entry order (the repo's float total order): equal summaries
  // serialize to identical bytes regardless of hash-map iteration order.
  std::vector<std::pair<float, std::uint64_t>> entries(sketch.counters().begin(),
                                                       sketch.counters().end());
  std::sort(entries.begin(), entries.end(),
            [](const auto& a, const auto& b) {
              return OrderedKey(a.first) < OrderedKey(b.first);
            });
  Append(out, static_cast<std::uint64_t>(entries.size()));
  for (const auto& [value, count] : entries) {
    Append(out, value);
    Append(out, count);
  }
}

StatusOr<MisraGries> ParseMisraGriesPayload(std::span<const std::uint8_t> payload) {
  double epsilon = 0;
  std::uint64_t n = 0;
  std::uint64_t entry_count = 0;
  if (!Read(&payload, &epsilon) || !Read(&payload, &n) || !Read(&payload, &entry_count)) {
    return Status::InvalidArgument("Misra-Gries payload truncated before the entries");
  }
  constexpr std::size_t kEntryBytes = sizeof(float) + sizeof(std::uint64_t);
  if (entry_count > payload.size() / kEntryBytes) {
    return Status::InvalidArgument("Misra-Gries payload entry count " +
                                   std::to_string(entry_count) +
                                   " does not fit the payload");
  }
  std::vector<std::pair<float, std::uint64_t>> entries(
      static_cast<std::size_t>(entry_count));
  for (std::size_t i = 0; i < entries.size(); ++i) {
    auto& [value, count] = entries[i];
    if (!Read(&payload, &value) || !Read(&payload, &count)) {
      return Status::InvalidArgument("Misra-Gries payload truncated inside the entries");
    }
    if (value != value) {
      return Status::InvalidArgument("Misra-Gries payload entry " + std::to_string(i) +
                                     " value is NaN");
    }
  }
  MisraGries parsed(0.5);  // overwritten by FromParts on success
  if (!MisraGries::FromParts(epsilon, n, std::move(entries), &parsed)) {
    return Status::InvalidArgument(
        "Misra-Gries payload violates the sketch invariants (distinct values, "
        "positive counts within the stream length, bounded counter set)");
  }
  return parsed;
}

/// Shared front half of the typed Deserialize* functions: parse one envelope,
/// check the tag, hand the payload to `parse`, and advance the span only on
/// success.
template <typename T, typename ParseFn>
StatusOr<T> DeserializeTyped(std::span<const std::uint8_t>* bytes, SketchType want,
                             ParseFn parse) {
  StatusOr<Envelope> envelope = ParseEnvelope(*bytes);
  if (!envelope.ok()) return envelope.status();
  if (envelope->type != want) {
    return Status::InvalidArgument(std::string("summary envelope holds a ") +
                                   SketchTypeName(envelope->type) +
                                   " sketch, expected " + SketchTypeName(want));
  }
  StatusOr<T> parsed = parse(envelope->payload);
  if (!parsed.ok()) return parsed.status();
  *bytes = bytes->subspan(envelope->consumed);
  return parsed;
}

}  // namespace

std::uint32_t Crc32(std::span<const std::uint8_t> bytes, std::uint32_t prefix_crc) {
#ifdef STREAMGPU_CRC32_FOLD
  if (HasCarrylessMultiply()) return FoldCrc32(bytes, prefix_crc);
#endif
  return TableCrc32(bytes, prefix_crc);
}

namespace internal {

Crc32Kernels Crc32KernelsForTest() {
#ifdef STREAMGPU_CRC32_FOLD
  return {TableCrc32, HasCarrylessMultiply() ? FoldCrc32 : nullptr};
#else
  return {TableCrc32, nullptr};
#endif
}

}  // namespace internal

const char* SketchTypeName(SketchType type) {
  switch (type) {
    case SketchType::kGkSummary:
      return "gk";
    case SketchType::kKll:
      return "kll";
    case SketchType::kCountMin:
      return "count-min";
    case SketchType::kMisraGries:
      return "misra-gries";
  }
  return "?";
}

std::size_t BeginFrame(std::vector<std::uint8_t>* out) {
  const std::size_t header = out->size();
  out->resize(header + kFrameHeaderSize);
  return header;
}

void EndFrame(std::uint32_t magic, std::uint16_t version, std::uint16_t tag,
              std::size_t header, std::vector<std::uint8_t>* out) {
  std::uint8_t* at = out->data() + header;
  const std::uint64_t payload_len = out->size() - header - kFrameHeaderSize;
  const std::uint32_t crc = Crc32({at + kFrameHeaderSize, payload_len});
  std::memcpy(at, &magic, sizeof(magic));
  std::memcpy(at + 4, &version, sizeof(version));
  std::memcpy(at + 6, &tag, sizeof(tag));
  std::memcpy(at + 8, &payload_len, sizeof(payload_len));
  std::memcpy(at + 16, &crc, sizeof(crc));
}

core::Status SerializeSummary(const GkSummary& summary, std::vector<std::uint8_t>* out) {
  const std::size_t header = BeginFrame(out);
  AppendGkPayload(summary, out);
  EndEnvelope(SketchType::kGkSummary, header, out);
  return Status::Ok();
}

core::Status SerializeSummary(const KllSketch& sketch, std::vector<std::uint8_t>* out) {
  const std::size_t header = BeginFrame(out);
  AppendKllPayload(sketch, out);
  EndEnvelope(SketchType::kKll, header, out);
  return Status::Ok();
}

core::Status SerializeSummary(const CountMinSketch& sketch,
                              std::vector<std::uint8_t>* out) {
  const std::size_t header = BeginFrame(out);
  AppendCountMinPayload(sketch, out);
  EndEnvelope(SketchType::kCountMin, header, out);
  return Status::Ok();
}

core::Status SerializeSummary(const MisraGries& sketch, std::vector<std::uint8_t>* out) {
  const std::size_t header = BeginFrame(out);
  AppendMisraGriesPayload(sketch, out);
  EndEnvelope(SketchType::kMisraGries, header, out);
  return Status::Ok();
}

core::StatusOr<SketchType> PeekSketchType(std::span<const std::uint8_t> bytes) {
  StatusOr<Envelope> envelope = ParseEnvelope(bytes);
  if (!envelope.ok()) return envelope.status();
  return envelope->type;
}

core::StatusOr<GkSummary> DeserializeGkSummary(std::span<const std::uint8_t>* bytes) {
  return DeserializeTyped<GkSummary>(bytes, SketchType::kGkSummary, ParseGkPayload);
}

core::StatusOr<KllSketch> DeserializeKllSketch(std::span<const std::uint8_t>* bytes) {
  return DeserializeTyped<KllSketch>(bytes, SketchType::kKll, ParseKllPayload);
}

core::StatusOr<CountMinSketch> DeserializeCountMin(std::span<const std::uint8_t>* bytes) {
  return DeserializeTyped<CountMinSketch>(bytes, SketchType::kCountMin,
                                          ParseCountMinPayload);
}

core::StatusOr<MisraGries> DeserializeMisraGries(std::span<const std::uint8_t>* bytes) {
  return DeserializeTyped<MisraGries>(bytes, SketchType::kMisraGries,
                                      ParseMisraGriesPayload);
}

}  // namespace streamgpu::sketch
