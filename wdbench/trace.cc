#include "wdbench/trace.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <unordered_map>
#include <utility>

namespace wdbench {

namespace {
// Upper bound on spans kept per thread; beyond it spans are counted as
// dropped so a long traced run cannot exhaust memory.
constexpr size_t kMaxSpansPerThread = 1 << 20;
}  // namespace

Tracer& Tracer::Instance() {
  static Tracer tracer;
  return tracer;
}

Tracer::Buffer& Tracer::LocalBuffer() {
  thread_local Buffer* local = nullptr;
  if (local == nullptr) {
    auto buffer = std::make_unique<Buffer>();
    buffer->spans.reserve(4096);
    local = buffer.get();
    std::lock_guard<std::mutex> lock(mu_);
    buffers_.push_back(std::move(buffer));
  }
  return *local;
}

void Tracer::Record(const char* name, uint64_t id, uint64_t parent, uint64_t trace,
                    wdg::TimeNs start, wdg::TimeNs end) {
  if (!enabled()) {
    return;
  }
  Buffer& buffer = LocalBuffer();
  if (buffer.spans.size() >= kMaxSpansPerThread) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  buffer.spans.push_back(Span{name, id, parent, trace, start, end});
}

std::vector<Span> Tracer::Collect() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Span> all;
  for (const auto& buffer : buffers_) {
    all.insert(all.end(), buffer->spans.begin(), buffer->spans.end());
  }
  return all;
}

ScopedSpan::ScopedSpan(const char* name, uint64_t trace, uint64_t parent)
    : name_(name), parent_(parent), trace_(trace) {
  Tracer& tracer = Tracer::Instance();
  if (tracer.enabled()) {
    id_ = tracer.NewId();
    start_ = wdg::RealClock::Instance().NowNs();
  }
}

ScopedSpan::~ScopedSpan() {
  if (id_ != 0) {
    Tracer::Instance().Record(name_, id_, parent_, trace_, start_,
                              wdg::RealClock::Instance().NowNs());
  }
}

std::vector<LayerTime> SelfTimes(const std::vector<Span>& spans) {
  std::unordered_map<uint64_t, std::vector<std::pair<wdg::TimeNs, wdg::TimeNs>>> children;
  for (const Span& span : spans) {
    if (span.parent != 0) {
      children[span.parent].emplace_back(span.start, span.end);
    }
  }
  std::map<std::string, LayerTime> by_name;
  for (const Span& span : spans) {
    LayerTime& layer = by_name[span.name];
    layer.name = span.name;
    const wdg::DurationNs duration = std::max<wdg::DurationNs>(0, span.end - span.start);
    // Union of the child intervals, clipped to this span.
    wdg::DurationNs covered = 0;
    auto it = children.find(span.id);
    if (it != children.end()) {
      auto& intervals = it->second;
      std::sort(intervals.begin(), intervals.end());
      wdg::TimeNs cursor = span.start;
      for (const auto& [child_start, child_end] : intervals) {
        const wdg::TimeNs lo = std::max(child_start, cursor);
        const wdg::TimeNs hi = std::min(child_end, span.end);
        if (hi > lo) {
          covered += hi - lo;
          cursor = hi;
        }
      }
    }
    ++layer.spans;
    layer.total_ms += static_cast<double>(duration) / 1e6;
    layer.self_ms += static_cast<double>(duration - std::min(covered, duration)) / 1e6;
  }
  std::vector<LayerTime> out;
  for (auto& [name, layer] : by_name) {
    out.push_back(layer);
  }
  return out;
}

bool WriteSpansCsv(const std::vector<Span>& spans, const std::string& path, size_t max_rows) {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) {
    return false;
  }
  std::fprintf(file, "name,id,parent,trace,start_ns,end_ns\n");
  const size_t rows = std::min(max_rows, spans.size());
  for (size_t i = 0; i < rows; ++i) {
    const Span& s = spans[i];
    std::fprintf(file, "%s,%llu,%llu,%llu,%lld,%lld\n", s.name,
                 static_cast<unsigned long long>(s.id), static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.trace), static_cast<long long>(s.start),
                 static_cast<long long>(s.end));
  }
  return std::fclose(file) == 0;
}

}  // namespace wdbench
