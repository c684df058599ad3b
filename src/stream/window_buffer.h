// Window buffering for per-element stream ingestion.
//
// The window-based algorithms of §3.2 consume the stream in fixed-size
// windows; the GPU path additionally buffers four windows at a time so they
// can ride the four color channels of one texture (§4.1), and the dedicated
// host-backend estimators buffer up to 32 so a sort worker can pre-merge
// them (core/summary_estimator.h). WindowBatcher implements that staging
// discipline.

#ifndef STREAMGPU_STREAM_WINDOW_BUFFER_H_
#define STREAMGPU_STREAM_WINDOW_BUFFER_H_

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "common/check.h"

namespace streamgpu::stream {

/// Accumulates stream elements into fixed-size windows and releases them in
/// batches of `batch_windows` windows: 4 on the GPU PBSN path, 1 for a
/// service stream. A dedicated host-backend estimator sets each batch's
/// length itself (set_batch_windows), up to 32, so batches stay aligned on
/// its window count and end at its checkpoint cadence.
class WindowBatcher {
 public:
  /// `lazy_reserve` defers the batch-capacity reservation to the first
  /// element: a registered-but-idle stream (service::StreamService keeps up
  /// to 100k of them) then costs an empty vector instead of a full batch
  /// buffer. The default reserves eagerly, preserving the estimators'
  /// allocation profile.
  WindowBatcher(std::uint64_t window_size, int batch_windows,
                bool lazy_reserve = false)
      : window_size_(window_size),
        capacity_(window_size * static_cast<std::uint64_t>(batch_windows)) {
    STREAMGPU_CHECK(window_size >= 1);
    STREAMGPU_CHECK(batch_windows >= 1);
    if (!lazy_reserve) buffer_.reserve(capacity_);
  }

  /// Adds one element. Returns true when a full batch is ready (the caller
  /// should then consume it: TakeBuffer() or contents()).
  bool Push(float value) {
    buffer_.push_back(value);
    return buffer_.size() == capacity_;
  }

  /// Bulk-ingest fast path: extends the buffer by up to `max_elements`
  /// (bounded by the space left in the current batch) and returns the
  /// writable span of the newly claimed slots — the caller copies (or
  /// quantizes) stream elements straight into batch storage instead of
  /// pushing one at a time. Check full() afterwards; steady state performs
  /// no allocation (capacity is reserved up front, or on the first claim
  /// when lazily constructed).
  std::span<float> Claim(std::size_t max_elements) {
    if (buffer_.capacity() < capacity_) buffer_.reserve(capacity_);
    const std::size_t take = std::min(max_elements, capacity_ - buffer_.size());
    const std::size_t old_size = buffer_.size();
    buffer_.resize(old_size + take);
    return {buffer_.data() + old_size, take};
  }

  /// True when the current batch is complete (the caller should consume
  /// it: TakeBuffer() or contents()).
  bool full() const { return buffer_.size() == capacity_; }

  /// Discards the buffered elements after they have been consumed.
  void Clear() { buffer_.clear(); }

  /// Moves the buffered elements out (leaving the batcher empty), for
  /// handing a whole batch to a WindowExecutor without copying.
  /// `replacement` becomes the new staging storage — pass a recycled buffer
  /// (e.g. a chunk from WindowExecutor::AcquireBatch()) and the steady-state
  /// ingest loop never allocates; the default grows a fresh buffer.
  std::vector<float> TakeBuffer(std::vector<float>&& replacement = {}) {
    std::vector<float> out = std::move(buffer_);
    Restage(std::move(replacement));
    return out;
  }

  /// TakeBuffer() for the buffered whole windows only: a partial window
  /// stays staged, copied into `replacement`.
  std::vector<float> TakeWholeWindows(std::vector<float>&& replacement = {}) {
    std::vector<float> out = std::move(buffer_);
    const std::size_t whole = out.size() - out.size() % window_size_;
    Restage(std::move(replacement));
    buffer_.assign(out.begin() + static_cast<std::ptrdiff_t>(whole), out.end());
    out.resize(whole);
    return out;
  }

  /// Sets the length of the batch under way, and of later ones until set
  /// again, to `windows`; it must hold what is staged.
  void set_batch_windows(std::uint64_t windows) {
    capacity_ = window_size_ * windows;
    STREAMGPU_CHECK(windows >= 1 && buffer_.size() <= capacity_);
  }

  /// Frees the staging storage of an empty batcher whose stream has ended.
  void ReleaseStorage() {
    STREAMGPU_CHECK(buffer_.empty());
    buffer_ = std::vector<float>();
  }

  bool empty() const { return buffer_.empty(); }

  /// Read-only view of the buffered elements, for callers that copy them
  /// into other storage (service shard chunks) instead of taking the buffer.
  std::span<const float> contents() const { return buffer_; }

  std::uint64_t window_size() const { return window_size_; }
  std::size_t buffered() const { return buffer_.size(); }

 private:
  void Restage(std::vector<float>&& replacement) {
    buffer_ = std::move(replacement);
    buffer_.clear();
    buffer_.reserve(capacity_);
  }

  std::uint64_t window_size_;
  std::size_t capacity_;  ///< elements in the batch under way
  std::vector<float> buffer_;
};

}  // namespace streamgpu::stream

#endif  // STREAMGPU_STREAM_WINDOW_BUFFER_H_
