// In-memory span recorder for the --trace runs.
//
// A span is one call into a layer, timed from the benchmark's side of the
// call: name, start, end, the span that caused it and the request it
// belongs to. Spans go to per-thread buffers (no sharing on the hot path),
// stay in memory while the run measures, and are written out as JSON lines
// when the run ends. A layer's self time is its span's duration minus the
// part of that interval its child spans cover.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}

struct Span {
  const char* name = "";  // a string literal: spans outlive no name
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  // 0 = root
  std::uint64_t request = 0;
};

class Tracer {
 public:
  static Tracer& instance();

  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  // A fresh id, unique across threads (thread index in the high bits).
  std::uint64_t next_id();
  // Appends a finished span to the calling thread's buffer.
  void record(const Span& span);
  // Records a span whose bounds the caller measured; returns its id, or 0
  // when tracing is off.
  std::uint64_t record(const char* name, std::uint64_t start_ns,
                       std::uint64_t end_ns, std::uint64_t parent,
                       std::uint64_t request);

  // Every span recorded so far (call while no thread is recording).
  std::vector<Span> spans() const;
  // Spans not kept because the run had already kept kMaxSpans.
  std::uint64_t dropped() const {
    return dropped_.load(std::memory_order_relaxed);
  }
  // One JSON object per line; returns false when the file cannot be
  // written.
  bool write_jsonl(const std::string& path) const;

 private:
  // Bounds a traced run's memory to about 50 MB of spans.
  static constexpr std::uint64_t kMaxSpans = 1000000;

  struct Buffer {
    std::uint64_t thread = 0;
    std::uint64_t next = 0;
    std::vector<Span> spans;
  };
  Buffer& local();

  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Buffer>> buffers_;  // guarded by mu_
  std::atomic<bool> enabled_{false};
  std::atomic<std::uint64_t> kept_{0};
  std::atomic<std::uint64_t> dropped_{0};
};

// RAII span for synchronous code: nests under the innermost ScopedSpan of
// the same thread.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name, std::uint64_t request = 0);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  // 0 when tracing is off.
  std::uint64_t id() const { return span_.id; }

 private:
  Span span_;
  bool active_ = false;
};

// Per-name aggregate of a span set: count, total and self time, and each
// span's duration for percentiles.
struct LayerTime {
  std::uint64_t count = 0;
  double total_ns = 0.0;
  double self_ns = 0.0;
  std::vector<double> total_each_ns;

  double mean_self_ns() const {
    return count == 0 ? 0.0 : self_ns / static_cast<double>(count);
  }
};

std::map<std::string, LayerTime> layer_times(const std::vector<Span>& spans);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
