// In-memory span recorder for the traced run of e2e_bench.
//
// Spans are timed from outside the program, around calls into each layer's
// public functions. Each span carries an id and its parent's id; spans stay
// in memory until the run ends and are then written as Chrome trace-event
// JSON in the shape obs::TraceRecorder writes ("ph":"X" complete events,
// "thread_name" metadata), so chrome://tracing and ui.perfetto.dev open it.
//
// A span's self time is its duration minus the durations of its direct
// children (children never overlap on one track: every traced call is
// synchronous on the calling thread).

#ifndef STREAMGPU_E2EBENCH_SPANS_H_
#define STREAMGPU_E2EBENCH_SPANS_H_

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace e2e {

class Spans {
 public:
  struct Span {
    const char* name;
    const char* layer;  ///< "cat" in the trace: the module the call enters
    int track = 1;
    std::uint64_t id = 0;
    std::uint64_t parent = 0;  ///< 0 = root
    double start_us = 0;
    double dur_us = 0;
  };

  Spans() : epoch_(Clock::now()) {}

  double NowMicros() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - epoch_).count();
  }

  /// Opens a span on `track` whose parent is the innermost open span of
  /// that track. Returns its id.
  std::uint64_t Begin(const char* name, const char* layer, int track = 1) {
    Span span{name, layer, track, spans_.size() + 1, 0, NowMicros(), 0};
    std::vector<std::uint64_t>& stack = open_[track];
    if (!stack.empty()) span.parent = stack.back();
    stack.push_back(span.id);
    spans_.push_back(span);
    return span.id;
  }

  /// Closes span `id`, the innermost open span of its track.
  void End(std::uint64_t id) {
    Span& span = spans_[id - 1];
    span.dur_us = NowMicros() - span.start_us;
    open_[span.track].pop_back();
  }

  const std::vector<Span>& spans() const { return spans_; }

  /// Duration minus direct children's durations, per span (index id - 1).
  std::vector<double> SelfMicros() const {
    std::vector<double> self(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i) self[i] = spans_[i].dur_us;
    for (const Span& span : spans_) {
      if (span.parent != 0) self[span.parent - 1] -= span.dur_us;
    }
    return self;
  }

  /// Total duration of the spans named `name`, in seconds.
  double TotalSeconds(const char* name) const {
    double total = 0;
    for (const Span& span : spans_) {
      if (std::string(span.name) == name) total += span.dur_us;
    }
    return total * 1e-6;
  }

  bool WriteChromeJson(const std::string& path,
                       const std::vector<std::string>& track_names) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fputs("{\n\"displayTimeUnit\": \"ms\",\n\"traceEvents\": [\n", f);
    std::fputs("{\"ph\": \"M\", \"pid\": 1, \"name\": \"process_name\", "
               "\"args\": {\"name\": \"e2e_bench\"}}",
               f);
    for (std::size_t t = 0; t < track_names.size(); ++t) {
      std::fprintf(f,
                   ",\n{\"ph\": \"M\", \"pid\": 1, \"tid\": %zu, \"name\": "
                   "\"thread_name\", \"args\": {\"name\": \"%s\"}}",
                   t + 1, track_names[t].c_str());
    }
    for (const Span& span : spans_) {
      std::fprintf(f,
                   ",\n{\"ph\": \"X\", \"pid\": 1, \"tid\": %d, \"name\": \"%s\", "
                   "\"cat\": \"%s\", \"ts\": %.3f, \"dur\": %.3f, \"args\": "
                   "{\"id\": %llu, \"parent\": %llu}}",
                   span.track, span.name, span.layer, span.start_us, span.dur_us,
                   static_cast<unsigned long long>(span.id),
                   static_cast<unsigned long long>(span.parent));
    }
    std::fputs("\n]\n}\n", f);
    return std::fclose(f) == 0;
  }

 private:
  using Clock = std::chrono::steady_clock;

  Clock::time_point epoch_;
  std::vector<Span> spans_;
  std::map<int, std::vector<std::uint64_t>> open_;  ///< open span ids per track
};

/// RAII span around one call; a no-op when `spans` is null (untraced runs).
class Scope {
 public:
  Scope(Spans* spans, const char* name, const char* layer, int track = 1)
      : spans_(spans), id_(spans != nullptr ? spans->Begin(name, layer, track) : 0) {}
  ~Scope() {
    if (spans_ != nullptr) spans_->End(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Spans* spans_;
  std::uint64_t id_;
};

}  // namespace e2e

#endif  // STREAMGPU_E2EBENCH_SPANS_H_
