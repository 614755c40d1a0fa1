// In-memory span recorder for traced runs. Spans are recorded by the
// benchmark around its calls into each layer's public functions — nothing
// inside the program is instrumented — and written out once, at the end,
// as Chrome trace-event JSON (loadable in Perfetto; tools/check_trace.py
// validates the shape). Spans of one close, pipeline run or lookup share an
// `id`; `parent` links a span to the span that caused it.
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct SpanRecord {
  std::string name;
  std::uint64_t id = 0;  // close sequence, run number or request id
  int parent = -1;       // index into the recorder, -1 for a root
  int tid = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;

  double ms() const { return static_cast<double>(end_ns - start_ns) / 1e6; }
};

class SpanRecorder {
 public:
  // Opens a span and returns its index (thread-safe).
  int open(std::string name, std::uint64_t id, int parent);
  void close(int index);
  // A span whose interval is already known (e.g. measured elsewhere).
  int add(std::string name, std::uint64_t id, int parent, std::int64_t start_ns,
          std::int64_t end_ns, int tid = 0);

  std::vector<SpanRecord> spans() const;
  std::size_t size() const;
  // Duration of span `index`, in milliseconds.
  double ms(int index) const;

  // Duration of span `index` minus the part of its interval its direct
  // children cover (overlapping children counted once).
  static double self_ms(const std::vector<SpanRecord>& spans, int index);

  // Chrome trace-event JSON: complete ("X") events sorted by start.
  std::string chrome_json() const;

 private:
  mutable std::mutex mutex_;
  std::vector<SpanRecord> spans_;  // guarded by mutex_
};

// RAII span: opens on construction, closes on destruction or finish().
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, std::string name, std::uint64_t id, int parent)
      : recorder_(recorder),
        index_(recorder ? recorder->open(std::move(name), id, parent) : -1) {}
  ~ScopedSpan() { finish(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int index() const { return index_; }
  void finish() {
    if (recorder_ != nullptr && index_ >= 0) recorder_->close(index_);
    recorder_ = nullptr;
  }

 private:
  SpanRecorder* recorder_;
  int index_;
};

}  // namespace perfbench
