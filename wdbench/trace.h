// Span recorder for the traced benchmark run.
//
// Spans are recorded only by the benchmark's own code, around its calls into
// the layers (kvs client calls, hook fires, checker bodies and context reads,
// fault injection, verdicts, fusion and recovery). Each span has a name, a
// start and end, the span that caused it, and a trace id shared by every span
// of one request or one fault cycle. Spans go into per-thread buffers (no
// lock on the hot path) and are collected once every stage has stopped its
// threads; the self-time report and the CSV dump are computed from them.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/common/clock.h"

namespace wdbench {

struct Span {
  const char* name = nullptr;  // string literal
  uint64_t id = 0;
  uint64_t parent = 0;  // 0 == root
  uint64_t trace = 0;   // shared by one request / fault cycle
  wdg::TimeNs start = 0;
  wdg::TimeNs end = 0;
};

class Tracer {
 public:
  static Tracer& Instance();

  void Enable(bool on) { enabled_.store(on, std::memory_order_release); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  uint64_t NewId() { return next_id_.fetch_add(1, std::memory_order_relaxed); }
  // Records one finished span. No-op while disabled.
  void Record(const char* name, uint64_t id, uint64_t parent, uint64_t trace, wdg::TimeNs start,
              wdg::TimeNs end);

  // Every recorded span. Call only after all recording threads have stopped.
  std::vector<Span> Collect() const;
  int64_t dropped() const { return dropped_.load(std::memory_order_relaxed); }

 private:
  struct Buffer {
    std::vector<Span> spans;
  };
  Buffer& LocalBuffer();

  std::atomic<bool> enabled_{false};
  std::atomic<uint64_t> next_id_{1};
  std::atomic<int64_t> dropped_{0};
  mutable std::mutex mu_;  // guards buffers_ (registration and Collect)
  std::vector<std::unique_ptr<Buffer>> buffers_;
};

// RAII span on the current thread. Children on the same thread pass id() as
// their parent; children recorded on other threads use Tracer::Record.
class ScopedSpan {
 public:
  ScopedSpan(const char* name, uint64_t trace, uint64_t parent = 0);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  uint64_t id() const { return id_; }

 private:
  const char* name_;
  uint64_t id_ = 0;
  uint64_t parent_;
  uint64_t trace_;
  wdg::TimeNs start_ = 0;
};

// Per span name: count, total time, and self time (duration minus the part
// of it that child spans cover).
struct LayerTime {
  std::string name;
  int64_t spans = 0;
  double total_ms = 0;
  double self_ms = 0;
};
std::vector<LayerTime> SelfTimes(const std::vector<Span>& spans);

// Writes "name,id,parent,trace,start_ns,end_ns" rows (at most `max_rows`).
bool WriteSpansCsv(const std::vector<Span>& spans, const std::string& path, size_t max_rows);

}  // namespace wdbench
