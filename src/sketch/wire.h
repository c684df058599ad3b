// Little-endian fixed-width byte codec shared by the wire formats: the
// mergeable-summary envelope (sketch/serialize.cc), the sketch checkpoint
// payloads (sketch/quantile_sketch.cc), and the durable record log
// (durable/record_log.cc). Matches the layout serialize.cc has always
// written: memcpy of the native little-endian representation.

#ifndef STREAMGPU_SKETCH_WIRE_H_
#define STREAMGPU_SKETCH_WIRE_H_

#include <cstdint>
#include <cstring>
#include <span>
#include <type_traits>
#include <vector>

namespace streamgpu::sketch::wire {

/// Appends the little-endian bytes of `value` to `out`.
template <typename T>
void Append(std::vector<std::uint8_t>* out, T value) {
  static_assert(std::is_trivially_copyable_v<T>);
  const auto old_size = out->size();
  out->resize(old_size + sizeof(T));
  std::memcpy(out->data() + old_size, &value, sizeof(T));
}

/// Appends the little-endian bytes of every element of `values` in one
/// resize: the bytes of one Append per element.
template <typename T>
void AppendArray(std::vector<std::uint8_t>* out, std::span<const T> values) {
  static_assert(std::is_trivially_copyable_v<T>);
  const auto old_size = out->size();
  out->resize(old_size + values.size_bytes());
  if (!values.empty()) {
    std::memcpy(out->data() + old_size, values.data(), values.size_bytes());
  }
}

/// Reads one T from the front of `in`, advancing it. Returns false on
/// truncation, leaving `in` and `value` untouched.
template <typename T>
bool Read(std::span<const std::uint8_t>* in, T* value) {
  static_assert(std::is_trivially_copyable_v<T>);
  if (in->size() < sizeof(T)) return false;
  std::memcpy(value, in->data(), sizeof(T));
  *in = in->subspan(sizeof(T));
  return true;
}

}  // namespace streamgpu::sketch::wire

#endif  // STREAMGPU_SKETCH_WIRE_H_
