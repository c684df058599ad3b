// Versioned, type-tagged wire format for the mergeable summaries, so shards
// can checkpoint summaries, ship them between processes (the sensor-network
// setting literally transmits them, [21]), and merge them into one global
// answer (sketch/combiner.h, `streamgpu_cli merge`).
//
// Envelope (little-endian, fixed-width fields):
//
//   offset  size  field
//   0       4     magic 0x53474D53 ("SGMS")
//   4       2     format version (currently 1)
//   6       2     sketch-type tag (SketchType)
//   8       8     payload length in bytes
//   16      4     CRC-32 (IEEE, reflected) of the payload bytes
//   20      -     payload (per-type layout, docs/SKETCHES.md)
//
// Every Deserialize* returns Status on malformed input — truncation, a bad
// magic or tag, a version from the future, a corrupted checksum, a length
// field the buffer cannot hold, or a payload violating the sketch's
// structural invariants — and never aborts. Envelopes are self-delimiting:
// the span cursor advances past exactly one envelope, so summaries can be
// framed back-to-back in one buffer.

#ifndef STREAMGPU_SKETCH_SERIALIZE_H_
#define STREAMGPU_SKETCH_SERIALIZE_H_

#include <cstdint>
#include <span>
#include <vector>

#include "core/status.h"
#include "sketch/count_min.h"
#include "sketch/gk_summary.h"
#include "sketch/kll.h"
#include "sketch/misra_gries.h"

namespace streamgpu::sketch {

/// Envelope magic ("SGMS": StreamGpu Mergeable Summary).
inline constexpr std::uint32_t kWireMagic = 0x53474D53;

/// Current wire-format version. Readers reject anything newer.
inline constexpr std::uint16_t kWireVersion = 1;

/// Sketch-type tag carried in the envelope.
enum class SketchType : std::uint16_t {
  kGkSummary = 1,
  kKll = 2,
  kCountMin = 3,
  kMisraGries = 4,
};

/// Tag name for diagnostics ("gk", "kll", "count-min", "misra-gries").
const char* SketchTypeName(SketchType type);

/// Appends one enveloped summary to `out`, encoding the payload in place.
core::Status SerializeSummary(const GkSummary& summary, std::vector<std::uint8_t>* out);
core::Status SerializeSummary(const KllSketch& sketch, std::vector<std::uint8_t>* out);
core::Status SerializeSummary(const CountMinSketch& sketch, std::vector<std::uint8_t>* out);
core::Status SerializeSummary(const MisraGries& sketch, std::vector<std::uint8_t>* out);

/// Reads the envelope header at the front of `bytes` (without consuming it)
/// and returns the sketch-type tag — how the combiner and `streamgpu_cli
/// merge` dispatch on shard files. Validates magic, version, length, and
/// checksum.
core::StatusOr<SketchType> PeekSketchType(std::span<const std::uint8_t> bytes);

/// Parses one enveloped summary from the front of `bytes`, advancing the
/// span past the consumed envelope on success. On error the span is left
/// untouched. The typed functions additionally fail with kInvalidArgument
/// when the envelope holds a different sketch type.
core::StatusOr<GkSummary> DeserializeGkSummary(std::span<const std::uint8_t>* bytes);
core::StatusOr<KllSketch> DeserializeKllSketch(std::span<const std::uint8_t>* bytes);
core::StatusOr<CountMinSketch> DeserializeCountMin(std::span<const std::uint8_t>* bytes);
core::StatusOr<MisraGries> DeserializeMisraGries(std::span<const std::uint8_t>* bytes);

/// Size of the header the envelope and the durable record
/// (durable/record_log.h) share: magic u32, version u16, tag u16, payload
/// length u64, CRC-32 u32.
inline constexpr std::size_t kFrameHeaderSize = 20;

/// In-place framing of one envelope or durable record. BeginFrame reserves
/// the header at the end of `out` and returns its offset; the caller then
/// appends the payload; EndFrame fills the header in for the bytes after it.
std::size_t BeginFrame(std::vector<std::uint8_t>* out);
void EndFrame(std::uint32_t magic, std::uint16_t version, std::uint16_t tag,
              std::size_t header, std::vector<std::uint8_t>* out);

/// CRC-32 (IEEE 802.3, reflected) over `bytes` — the envelope checksum.
/// `prefix_crc` continues a CRC: Crc32(b, Crc32(a)) == Crc32(a‖b).
/// On x86-64 CPUs with PCLMULQDQ it folds 16 bytes per carry-less
/// multiply; elsewhere it runs a portable slicing-by-16 table loop. Both
/// give the same value.
std::uint32_t Crc32(std::span<const std::uint8_t> bytes, std::uint32_t prefix_crc = 0);

namespace internal {

/// The two kernels Crc32 chooses between, for tests only: the table loop,
/// and the carry-less-multiply fold, null where the compiler or the CPU
/// lacks it. Each has Crc32's contract.
struct Crc32Kernels {
  std::uint32_t (*table)(std::span<const std::uint8_t>, std::uint32_t);
  std::uint32_t (*fold)(std::span<const std::uint8_t>, std::uint32_t);
};
Crc32Kernels Crc32KernelsForTest();

}  // namespace internal

}  // namespace streamgpu::sketch

#endif  // STREAMGPU_SKETCH_SERIALIZE_H_
