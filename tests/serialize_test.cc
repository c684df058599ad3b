// Tests for the versioned summary wire format (sketch/serialize.h): per-type
// envelope round trips (including empty summaries), back-to-back framing,
// type dispatch via PeekSketchType, committed golden wire files
// (forward-compat detection), a malformed-input corpus — every rejection
// returns Status, never aborts — and CRC-32, both its table and its
// carry-less-multiply kernel, checked against a bitwise reference.
//
// Regenerate the golden wire files with:
//   STREAMGPU_REGEN_GOLDEN=1 ./serialize_test --gtest_filter='*GoldenWire*'

#include "sketch/serialize.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace streamgpu::sketch {
namespace {

GkSummary MakeGk(std::size_t n, double eps, unsigned seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<float> d(0.0f, 1e4f);
  std::vector<float> v(n);
  for (float& x : v) x = d(rng);
  std::sort(v.begin(), v.end());
  return GkSummary::FromSorted(v, eps);
}

KllSketch MakeKll(std::size_t n, double eps, unsigned seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<float> d(-1e3f, 1e3f);
  KllSketch sketch(eps);
  for (std::size_t i = 0; i < n; ++i) sketch.Observe(d(rng));
  return sketch;
}

CountMinSketch MakeCountMin(std::size_t n, unsigned seed) {
  std::mt19937 rng(seed);
  std::uniform_int_distribution<int> d(0, 99);
  CountMinSketch sketch(0.01, 0.01);
  for (std::size_t i = 0; i < n; ++i) {
    sketch.Update(static_cast<float>(d(rng)));
  }
  return sketch;
}

MisraGries MakeMisraGries(std::size_t n, unsigned seed) {
  std::mt19937 rng(seed);
  std::uniform_int_distribution<int> d(0, 49);
  MisraGries sketch(0.05);
  for (std::size_t i = 0; i < n; ++i) {
    sketch.Observe(static_cast<float>(d(rng)));
  }
  return sketch;
}

TEST(SerializeTest, GkRoundTripPreservesEverything) {
  const GkSummary original = MakeGk(5000, 0.01, 1);
  std::vector<std::uint8_t> buffer;
  ASSERT_TRUE(SerializeSummary(original, &buffer).ok());

  const auto peeked = PeekSketchType(buffer);
  ASSERT_TRUE(peeked.ok());
  EXPECT_EQ(*peeked, SketchType::kGkSummary);

  std::span<const std::uint8_t> cursor = buffer;
  const auto parsed = DeserializeGkSummary(&cursor);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_TRUE(cursor.empty());
  EXPECT_EQ(parsed->count(), original.count());
  EXPECT_EQ(parsed->epsilon(), original.epsilon());
  EXPECT_EQ(parsed->tuples(), original.tuples());
  for (double phi : {0.1, 0.5, 0.9}) {
    EXPECT_EQ(parsed->Query(phi), original.Query(phi));
  }
}

TEST(SerializeTest, KllRoundTripIsBitIdentical) {
  const KllSketch original = MakeKll(100000, 0.01, 2);
  ASSERT_GT(original.compactions(), 0u);
  std::vector<std::uint8_t> buffer;
  ASSERT_TRUE(SerializeSummary(original, &buffer).ok());

  std::span<const std::uint8_t> cursor = buffer;
  const auto parsed = DeserializeKllSketch(&cursor);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_TRUE(cursor.empty());
  EXPECT_EQ(parsed->count(), original.count());
  EXPECT_EQ(parsed->epsilon(), original.epsilon());
  EXPECT_EQ(parsed->seed(), original.seed());
  EXPECT_EQ(parsed->worst_case_rank_error(), original.worst_case_rank_error());
  EXPECT_EQ(parsed->compactions(), original.compactions());
  EXPECT_EQ(parsed->levels(), original.levels());
  for (double phi : {0.01, 0.25, 0.5, 0.75, 0.99}) {
    EXPECT_EQ(parsed->Quantile(phi), original.Quantile(phi));
  }

  // Determinism downstream of the round trip: serializing the parsed sketch
  // reproduces the exact bytes.
  std::vector<std::uint8_t> again;
  ASSERT_TRUE(SerializeSummary(*parsed, &again).ok());
  EXPECT_EQ(again, buffer);
}

TEST(SerializeTest, CountMinRoundTripPreservesCounters) {
  const CountMinSketch original = MakeCountMin(20000, 3);
  std::vector<std::uint8_t> buffer;
  ASSERT_TRUE(SerializeSummary(original, &buffer).ok());

  std::span<const std::uint8_t> cursor = buffer;
  const auto parsed = DeserializeCountMin(&cursor);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_TRUE(cursor.empty());
  EXPECT_EQ(parsed->total_weight(), original.total_weight());
  EXPECT_EQ(parsed->width(), original.width());
  EXPECT_EQ(parsed->depth(), original.depth());
  EXPECT_EQ(parsed->counters(), original.counters());
  for (float v : {0.0f, 17.0f, 99.0f}) {
    EXPECT_EQ(parsed->EstimateCount(v), original.EstimateCount(v));
  }
}

TEST(SerializeTest, MisraGriesRoundTripPreservesEntries) {
  const MisraGries original = MakeMisraGries(20000, 4);
  std::vector<std::uint8_t> buffer;
  ASSERT_TRUE(SerializeSummary(original, &buffer).ok());

  std::span<const std::uint8_t> cursor = buffer;
  const auto parsed = DeserializeMisraGries(&cursor);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_TRUE(cursor.empty());
  EXPECT_EQ(parsed->stream_length(), original.stream_length());
  EXPECT_EQ(parsed->HeavyHitters(0.03), original.HeavyHitters(0.03));

  // The entry list serializes in canonical value order, so equal summaries
  // produce identical bytes regardless of hash-map iteration order.
  std::vector<std::uint8_t> again;
  ASSERT_TRUE(SerializeSummary(*parsed, &again).ok());
  EXPECT_EQ(again, buffer);
}

TEST(SerializeTest, EmptySummariesRoundTrip) {
  std::vector<std::uint8_t> buffer;
  ASSERT_TRUE(SerializeSummary(GkSummary(), &buffer).ok());
  ASSERT_TRUE(SerializeSummary(KllSketch(0.01), &buffer).ok());
  ASSERT_TRUE(SerializeSummary(CountMinSketch(0.1, 0.1), &buffer).ok());
  ASSERT_TRUE(SerializeSummary(MisraGries(0.1), &buffer).ok());

  std::span<const std::uint8_t> cursor = buffer;
  const auto gk = DeserializeGkSummary(&cursor);
  ASSERT_TRUE(gk.ok()) << gk.status().ToString();
  EXPECT_EQ(gk->count(), 0u);
  const auto kll = DeserializeKllSketch(&cursor);
  ASSERT_TRUE(kll.ok()) << kll.status().ToString();
  EXPECT_EQ(kll->count(), 0u);
  const auto cm = DeserializeCountMin(&cursor);
  ASSERT_TRUE(cm.ok()) << cm.status().ToString();
  EXPECT_EQ(cm->total_weight(), 0);
  const auto mg = DeserializeMisraGries(&cursor);
  ASSERT_TRUE(mg.ok()) << mg.status().ToString();
  EXPECT_EQ(mg->stream_length(), 0u);
  EXPECT_TRUE(cursor.empty());
}

TEST(SerializeTest, SequentialFramingAcrossTypes) {
  const GkSummary a = MakeGk(100, 0.05, 5);
  const KllSketch b = MakeKll(5000, 0.02, 6);
  const MisraGries c = MakeMisraGries(1000, 7);
  std::vector<std::uint8_t> buffer;
  ASSERT_TRUE(SerializeSummary(a, &buffer).ok());
  ASSERT_TRUE(SerializeSummary(b, &buffer).ok());
  ASSERT_TRUE(SerializeSummary(c, &buffer).ok());

  std::span<const std::uint8_t> cursor = buffer;
  ASSERT_TRUE(DeserializeGkSummary(&cursor).ok());
  EXPECT_EQ(*PeekSketchType(cursor), SketchType::kKll);
  ASSERT_TRUE(DeserializeKllSketch(&cursor).ok());
  EXPECT_EQ(*PeekSketchType(cursor), SketchType::kMisraGries);
  ASSERT_TRUE(DeserializeMisraGries(&cursor).ok());
  EXPECT_TRUE(cursor.empty());
}

TEST(SerializeTest, TypeMismatchFailsAndLeavesSpanUntouched) {
  std::vector<std::uint8_t> buffer;
  ASSERT_TRUE(SerializeSummary(MakeKll(1000, 0.05, 8), &buffer).ok());

  std::span<const std::uint8_t> cursor = buffer;
  const auto as_gk = DeserializeGkSummary(&cursor);
  EXPECT_FALSE(as_gk.ok());
  EXPECT_EQ(cursor.size(), buffer.size()) << "span must not advance on error";
  // The right reader still succeeds afterwards.
  EXPECT_TRUE(DeserializeKllSketch(&cursor).ok());
}

TEST(SerializeTest, MalformedCorpusReturnsStatus) {
  std::vector<std::uint8_t> buffer;
  ASSERT_TRUE(SerializeSummary(MakeGk(50, 0.1, 9), &buffer).ok());

  // Bad magic: a flipped byte, and the pre-envelope "GKS1" GK framing
  // (magic u32, then the GK payload), which is not an envelope.
  {
    auto flipped = buffer;
    flipped[0] ^= 0xFF;
    std::vector<std::uint8_t> gks1 = {0x31, 0x53, 0x4B, 0x47};
    gks1.insert(gks1.end(), buffer.begin() + 20, buffer.end());
    for (const auto& corrupted : {flipped, gks1}) {
      std::span<const std::uint8_t> cursor = corrupted;
      const auto parsed = DeserializeGkSummary(&cursor);
      EXPECT_FALSE(parsed.ok());
      EXPECT_NE(parsed.status().message().find("magic"), std::string::npos);
      EXPECT_EQ(cursor.size(), corrupted.size());
      EXPECT_FALSE(PeekSketchType(corrupted).ok());
    }
  }
  // Version from the future.
  {
    auto corrupted = buffer;
    corrupted[4] = 0xFF;
    corrupted[5] = 0xFF;
    std::span<const std::uint8_t> cursor = corrupted;
    const auto parsed = DeserializeGkSummary(&cursor);
    EXPECT_FALSE(parsed.ok());
    EXPECT_NE(parsed.status().message().find("newer"), std::string::npos);
  }
  // Version 0.
  {
    auto corrupted = buffer;
    corrupted[4] = 0;
    corrupted[5] = 0;
    std::span<const std::uint8_t> cursor = corrupted;
    EXPECT_FALSE(DeserializeGkSummary(&cursor).ok());
  }
  // Unknown sketch-type tag.
  {
    auto corrupted = buffer;
    corrupted[6] = 0x7F;
    corrupted[7] = 0x7F;
    std::span<const std::uint8_t> cursor = corrupted;
    EXPECT_FALSE(DeserializeGkSummary(&cursor).ok());
  }
  // Huge length field: must fail before any allocation or payload read.
  {
    auto corrupted = buffer;
    for (std::size_t i = 8; i < 16; ++i) corrupted[i] = 0xFF;
    std::span<const std::uint8_t> cursor = corrupted;
    EXPECT_FALSE(DeserializeGkSummary(&cursor).ok());
  }
  // Corrupted checksum.
  {
    auto corrupted = buffer;
    corrupted[16] ^= 0x01;
    std::span<const std::uint8_t> cursor = corrupted;
    const auto parsed = DeserializeGkSummary(&cursor);
    EXPECT_FALSE(parsed.ok());
    EXPECT_NE(parsed.status().message().find("checksum"), std::string::npos);
  }
  // Corrupted payload (checksum catches it).
  {
    auto corrupted = buffer;
    corrupted[corrupted.size() - 1] ^= 0xFF;
    std::span<const std::uint8_t> cursor = corrupted;
    EXPECT_FALSE(DeserializeGkSummary(&cursor).ok());
  }
  // Every truncation point fails cleanly and leaves the span untouched.
  for (std::size_t cut = 0; cut < buffer.size(); cut += 3) {
    std::span<const std::uint8_t> cursor(buffer.data(), cut);
    EXPECT_FALSE(DeserializeGkSummary(&cursor).ok()) << "cut=" << cut;
    EXPECT_EQ(cursor.size(), cut);
  }
}

/// `envelope` with the f32 at payload offset `offset` overwritten by a NaN
/// and the checksum refreshed, so the payload decoder does the rejecting.
std::vector<std::uint8_t> WithNanAt(std::vector<std::uint8_t> envelope, std::size_t offset) {
  constexpr std::size_t kHeader = 20;  // magic, version, tag, length, CRC at 16
  const float nan = std::numeric_limits<float>::quiet_NaN();
  EXPECT_LE(kHeader + offset + sizeof(float), envelope.size());
  std::memcpy(envelope.data() + kHeader + offset, &nan, sizeof(float));
  const std::uint32_t crc = Crc32(std::span<const std::uint8_t>(envelope).subspan(kHeader));
  std::memcpy(envelope.data() + 16, &crc, sizeof(crc));
  return envelope;
}

TEST(SerializeTest, NanValuesAreRejected) {
  // Admission refuses NaN, so no export holds one: each decoder that carries
  // values refuses a NaN in a CRC-valid envelope and names it, and the
  // unmutated envelope still decodes.
  std::vector<std::uint8_t> gk;
  ASSERT_TRUE(SerializeSummary(MakeGk(50, 0.1, 9), &gk).ok());
  // count u64, epsilon f64, tuple count u64, then the tuples.
  {
    const std::vector<std::uint8_t> mutant = WithNanAt(gk, 3 * sizeof(std::uint64_t));
    std::span<const std::uint8_t> cursor = mutant;
    const auto parsed = DeserializeGkSummary(&cursor);
    EXPECT_EQ(parsed.status().code(), core::Status::Code::kInvalidArgument);
    EXPECT_NE(parsed.status().message().find("tuple 0 value is NaN"), std::string::npos)
        << parsed.status().message();
    std::span<const std::uint8_t> pristine = gk;
    EXPECT_TRUE(DeserializeGkSummary(&pristine).ok());
  }

  // KLL: epsilon f64, seed, count, worst case and compactions u64, level
  // count u32, then per level an item count u64 and its f32 items. The NaN
  // goes into the first item of the first non-empty level.
  std::vector<std::uint8_t> kll;
  ASSERT_TRUE(SerializeSummary(MakeKll(5000, 0.02, 10), &kll).ok());
  {
    std::size_t offset = 5 * sizeof(std::uint64_t);
    std::uint32_t levels = 0;
    std::memcpy(&levels, kll.data() + 20 + offset, sizeof(levels));
    offset += sizeof(levels);
    std::size_t level = 0;
    for (; level < levels; ++level) {
      std::uint64_t items = 0;
      std::memcpy(&items, kll.data() + 20 + offset, sizeof(items));
      offset += sizeof(items);
      if (items > 0) break;
    }
    ASSERT_LT(level, levels);
    const std::vector<std::uint8_t> mutant = WithNanAt(kll, offset);
    std::span<const std::uint8_t> cursor = mutant;
    const auto parsed = DeserializeKllSketch(&cursor);
    EXPECT_EQ(parsed.status().code(), core::Status::Code::kInvalidArgument);
    EXPECT_NE(parsed.status().message().find("level " + std::to_string(level) +
                                             " item 0 is NaN"),
              std::string::npos)
        << parsed.status().message();
    std::span<const std::uint8_t> pristine = kll;
    EXPECT_TRUE(DeserializeKllSketch(&pristine).ok());
  }

  // Misra-Gries: epsilon f64, n u64, entry count u64, then entries of f32
  // value and u64 count.
  std::vector<std::uint8_t> mg;
  ASSERT_TRUE(SerializeSummary(MakeMisraGries(2000, 11), &mg).ok());
  {
    const std::vector<std::uint8_t> mutant = WithNanAt(mg, 3 * sizeof(std::uint64_t));
    std::span<const std::uint8_t> cursor = mutant;
    const auto parsed = DeserializeMisraGries(&cursor);
    EXPECT_EQ(parsed.status().code(), core::Status::Code::kInvalidArgument);
    EXPECT_NE(parsed.status().message().find("entry 0 value is NaN"), std::string::npos)
        << parsed.status().message();
    std::span<const std::uint8_t> pristine = mg;
    EXPECT_TRUE(DeserializeMisraGries(&pristine).ok());
  }
}

TEST(SerializeTest, MalformedKllPayloadRejected) {
  std::vector<std::uint8_t> buffer;
  ASSERT_TRUE(SerializeSummary(MakeKll(50000, 0.02, 10), &buffer).ok());
  // Blow up the count field (payload offset 16 = envelope offset 36): the
  // weight-conservation invariant no longer holds. The checksum must be
  // refreshed so the structural validation (not the CRC) does the rejecting.
  auto corrupted = buffer;
  for (std::size_t i = 36; i < 44; ++i) corrupted[i] ^= 0x55;
  std::uint32_t crc = Crc32(std::span<const std::uint8_t>(corrupted).subspan(20));
  std::memcpy(corrupted.data() + 16, &crc, sizeof(crc));
  std::span<const std::uint8_t> cursor = corrupted;
  const auto parsed = DeserializeKllSketch(&cursor);
  EXPECT_FALSE(parsed.ok());
  EXPECT_NE(parsed.status().message().find("invariant"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Golden wire files: bytes written by the current writer are committed to
// the repo; if a format change breaks reading them, released checkpoints
// would break too — bump kWireVersion and extend the shim instead.

std::string GoldenPath(const char* name) {
  return std::string(STREAMGPU_TEST_GOLDEN_DIR) + "/" + name;
}

std::vector<std::uint8_t> ReadGolden(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return {};
  std::vector<std::uint8_t> bytes;
  std::uint8_t chunk[4096];
  std::size_t n = 0;
  while ((n = std::fread(chunk, 1, sizeof(chunk), f)) > 0) {
    bytes.insert(bytes.end(), chunk, chunk + n);
  }
  std::fclose(f);
  return bytes;
}

void WriteGolden(const std::string& path, std::span<const std::uint8_t> bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr) << path;
  ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
  std::fclose(f);
}

TEST(SerializeTest, GoldenWireFilesStayReadable) {
  // The generators are seeded, so the expected in-memory summaries are
  // reproducible here; the committed bytes pin the serialized form.
  std::vector<std::uint8_t> gk_bytes;
  ASSERT_TRUE(SerializeSummary(MakeGk(1000, 0.02, 42), &gk_bytes).ok());
  std::vector<std::uint8_t> kll_bytes;
  ASSERT_TRUE(SerializeSummary(MakeKll(20000, 0.02, 42), &kll_bytes).ok());
  std::vector<std::uint8_t> mg_bytes;
  ASSERT_TRUE(SerializeSummary(MakeMisraGries(5000, 42), &mg_bytes).ok());
  std::vector<std::uint8_t> cm_bytes;
  ASSERT_TRUE(SerializeSummary(MakeCountMin(5000, 42), &cm_bytes).ok());

  const struct {
    const char* name;
    const std::vector<std::uint8_t>* bytes;
  } cases[] = {{"wire_gk.golden", &gk_bytes},
               {"wire_kll.golden", &kll_bytes},
               {"wire_misra_gries.golden", &mg_bytes},
               {"wire_count_min.golden", &cm_bytes}};

  if (std::getenv("STREAMGPU_REGEN_GOLDEN") != nullptr) {
    for (const auto& c : cases) WriteGolden(GoldenPath(c.name), *c.bytes);
    GTEST_SKIP() << "golden wire files regenerated";
  }

  for (const auto& c : cases) {
    const std::vector<std::uint8_t> committed = ReadGolden(GoldenPath(c.name));
    ASSERT_FALSE(committed.empty())
        << c.name << " missing; regenerate with STREAMGPU_REGEN_GOLDEN=1";
    EXPECT_EQ(committed, *c.bytes)
        << c.name << ": the writer no longer produces the committed bytes — "
        << "this breaks released checkpoints; bump kWireVersion and shim";
    // And the committed bytes must stay readable.
    EXPECT_TRUE(PeekSketchType(committed).ok()) << c.name;
  }
}

// ---------------------------------------------------------------------------
// CRC-32: known answers, both kernels against a bitwise reference, and
// continuing a CRC with a prefix.

/// CRC-32 (IEEE, reflected) one bit at a time, continuing `prefix_crc`: the
/// definition both kernels must reproduce.
std::uint32_t ReferenceCrc32(std::span<const std::uint8_t> bytes,
                             std::uint32_t prefix_crc = 0) {
  std::uint32_t crc = ~prefix_crc;
  for (const std::uint8_t byte : bytes) {
    crc ^= byte;
    for (int bit = 0; bit < 8; ++bit) crc = (crc >> 1) ^ ((crc & 1) ? 0xEDB88320u : 0);
  }
  return ~crc;
}

std::vector<std::uint8_t> RandomBytes(std::size_t n, unsigned seed) {
  std::mt19937 rng(seed);
  std::vector<std::uint8_t> bytes(n);
  for (std::uint8_t& b : bytes) b = static_cast<std::uint8_t>(rng());
  return bytes;
}

TEST(Crc32Test, KnownAnswers) {
  const std::string check = "123456789";
  EXPECT_EQ(Crc32({reinterpret_cast<const std::uint8_t*>(check.data()), check.size()}),
            0xCBF43926u);
  EXPECT_EQ(Crc32({}), 0u);
}

TEST(Crc32Test, MatchesBitwiseReferenceAtEveryLengthAndOffset) {
  const std::vector<std::uint8_t> bytes = RandomBytes(1100 + 15, 17);
  std::size_t mismatches = 0;
  for (std::size_t offset = 0; offset < 16; ++offset) {
    for (std::size_t len = 0; len <= 1100; ++len) {
      const std::span<const std::uint8_t> s(bytes.data() + offset, len);
      if (Crc32(s) != ReferenceCrc32(s) && ++mismatches <= 5) {
        ADD_FAILURE() << "offset " << offset << " length " << len;
      }
    }
  }
  EXPECT_EQ(mismatches, 0u);
}

TEST(Crc32Test, PrefixContinuesTheCrcOfTheConcatenation) {
  const std::vector<std::uint8_t> bytes = RandomBytes(5000, 19);
  std::mt19937 rng(23);
  for (int trial = 0; trial < 300; ++trial) {
    const std::size_t total = rng() % (bytes.size() + 1);
    // Every fourth trial puts the split at an end: an empty a or b.
    std::size_t split = rng() % (total + 1);
    if (trial % 4 == 1) split = 0;
    if (trial % 4 == 2) split = total;
    const std::span<const std::uint8_t> whole(bytes.data(), total);
    const std::span<const std::uint8_t> a = whole.first(split);
    const std::span<const std::uint8_t> b = whole.subspan(split);
    EXPECT_EQ(Crc32(b, Crc32(a)), ReferenceCrc32(whole))
        << "split " << split << " of " << total;
  }
}

using Crc32Kernel = std::uint32_t (*)(std::span<const std::uint8_t>, std::uint32_t);

/// Holds `kernel` to the bitwise reference at every length 0-1,100 and
/// offset 0-15 (every alignment, the fold's 64-byte entry, every tail
/// length), from prefix 0 and from a nonzero prefix.
void ExpectKernelMatchesAtEveryLengthAndOffset(Crc32Kernel kernel) {
  const std::vector<std::uint8_t> bytes = RandomBytes(1100 + 15, 29);
  std::size_t mismatches = 0;
  for (const std::uint32_t prefix : {0u, 0x12345678u}) {
    for (std::size_t offset = 0; offset < 16; ++offset) {
      for (std::size_t len = 0; len <= 1100; ++len) {
        const std::span<const std::uint8_t> s(bytes.data() + offset, len);
        if (kernel(s, prefix) != ReferenceCrc32(s, prefix) && ++mismatches <= 5) {
          ADD_FAILURE() << "prefix " << prefix << " offset " << offset << " length "
                        << len;
        }
      }
    }
  }
  EXPECT_EQ(mismatches, 0u);
}

/// Holds `kernel` to the bitwise reference on 1 MiB and 4 MiB + 13 B of
/// random bytes, each read at an odd offset.
void ExpectKernelMatchesOnLargeBuffers(Crc32Kernel kernel) {
  for (const std::size_t n : {std::size_t{1} << 20, (std::size_t{4} << 20) + 13}) {
    const std::vector<std::uint8_t> bytes = RandomBytes(n + 1, 31);
    const std::span<const std::uint8_t> s = std::span(bytes).subspan(1);
    EXPECT_EQ(kernel(s, 0), ReferenceCrc32(s)) << n << " bytes";
    EXPECT_EQ(kernel(s, 0xDEADBEEF), ReferenceCrc32(s, 0xDEADBEEF)) << n << " bytes";
  }
}

TEST(Crc32Test, TableKernelMatchesTheReferenceAtEveryLengthAndOffset) {
  ExpectKernelMatchesAtEveryLengthAndOffset(internal::Crc32KernelsForTest().table);
}

TEST(Crc32Test, TableKernelMatchesTheReferenceOnLargeBuffers) {
  ExpectKernelMatchesOnLargeBuffers(internal::Crc32KernelsForTest().table);
}

TEST(Crc32Test, FoldKernelMatchesTheReferenceAtEveryLengthAndOffset) {
  const Crc32Kernel fold = internal::Crc32KernelsForTest().fold;
  if (fold == nullptr) GTEST_SKIP() << "no carry-less multiply (PCLMULQDQ) here";
  ExpectKernelMatchesAtEveryLengthAndOffset(fold);
}

TEST(Crc32Test, FoldKernelMatchesTheReferenceOnLargeBuffers) {
  const Crc32Kernel fold = internal::Crc32KernelsForTest().fold;
  if (fold == nullptr) GTEST_SKIP() << "no carry-less multiply (PCLMULQDQ) here";
  ExpectKernelMatchesOnLargeBuffers(fold);
}

TEST(FromPartsTest, GkValidatesStructure) {
  GkSummary out;
  // Valid.
  EXPECT_TRUE(GkSummary::FromParts({{1.0f, 1, 1}, {2.0f, 2, 3}}, 3, 0.1, &out));
  EXPECT_EQ(out.count(), 3u);
  // Descending values.
  EXPECT_FALSE(GkSummary::FromParts({{2.0f, 1, 1}, {1.0f, 2, 2}}, 2, 0.1, &out));
  // rmin > rmax.
  EXPECT_FALSE(GkSummary::FromParts({{1.0f, 3, 2}}, 3, 0.1, &out));
  // rmax beyond count.
  EXPECT_FALSE(GkSummary::FromParts({{1.0f, 1, 9}}, 3, 0.1, &out));
  // Nonempty tuples with zero count / empty with nonzero count.
  EXPECT_FALSE(GkSummary::FromParts({{1.0f, 1, 1}}, 0, 0.1, &out));
  EXPECT_FALSE(GkSummary::FromParts({}, 5, 0.1, &out));
  // Bad epsilon.
  EXPECT_FALSE(GkSummary::FromParts({{1.0f, 1, 1}}, 1, 1.5, &out));
}

TEST(FromPartsTest, KllValidatesWeightConservation) {
  KllSketch out(0.5);
  // Valid: 2 items at level 0 + 1 item at level 1 = 2 + 2 = 4 elements.
  EXPECT_TRUE(KllSketch::FromParts(0.1, 7, 4, 1, 1,
                                   {{1.0f, 2.0f}, {1.5f}}, &out));
  EXPECT_EQ(out.count(), 4u);
  EXPECT_EQ(out.seed(), 7u);
  // Weight mismatch.
  EXPECT_FALSE(KllSketch::FromParts(0.1, 7, 5, 1, 1,
                                    {{1.0f, 2.0f}, {1.5f}}, &out));
  // Empty sketch must carry no compaction history.
  EXPECT_TRUE(KllSketch::FromParts(0.1, 7, 0, 0, 0, {{}}, &out));
  EXPECT_FALSE(KllSketch::FromParts(0.1, 7, 0, 1, 0, {{}}, &out));
  // Bad epsilon / no levels.
  EXPECT_FALSE(KllSketch::FromParts(1.5, 7, 0, 0, 0, {{}}, &out));
  EXPECT_FALSE(KllSketch::FromParts(0.1, 7, 0, 0, 0, {}, &out));
}

TEST(FromPartsTest, CountMinValidatesGeometry) {
  CountMinSketch out(0.5, 0.5);
  const CountMinSketch reference(0.1, 0.1);
  std::vector<std::int64_t> counters(reference.width() * reference.depth(), 0);
  EXPECT_TRUE(CountMinSketch::FromParts(0.1, 0.1, 0, reference.width(),
                                        reference.depth(), counters, &out));
  // Geometry mismatch with the epsilon/delta-derived dimensions.
  EXPECT_FALSE(CountMinSketch::FromParts(0.1, 0.1, 0, reference.width() + 1,
                                         reference.depth(), counters, &out));
  // Bad parameters validated before construction (no abort).
  EXPECT_FALSE(CountMinSketch::FromParts(1.5, 0.1, 0, reference.width(),
                                         reference.depth(), counters, &out));
}

TEST(FromPartsTest, MisraGriesValidatesEntries) {
  MisraGries out(0.5);
  EXPECT_TRUE(MisraGries::FromParts(0.25, 10, {{1.0f, 4}, {2.0f, 3}}, &out));
  EXPECT_EQ(out.EstimateCount(1.0f), 4u);
  // Counts must be positive, within n, and values distinct.
  EXPECT_FALSE(MisraGries::FromParts(0.25, 10, {{1.0f, 0}}, &out));
  EXPECT_FALSE(MisraGries::FromParts(0.25, 3, {{1.0f, 4}}, &out));
  EXPECT_FALSE(MisraGries::FromParts(0.25, 10, {{1.0f, 2}, {1.0f, 2}}, &out));
  // More entries than the 1/epsilon counter budget.
  EXPECT_FALSE(MisraGries::FromParts(0.5, 10,
                                     {{1.0f, 1}, {2.0f, 1}, {3.0f, 1}}, &out));
  // Bad epsilon validated before construction (no abort).
  EXPECT_FALSE(MisraGries::FromParts(1.5, 10, {}, &out));
}

}  // namespace
}  // namespace streamgpu::sketch
