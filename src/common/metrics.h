// Process-local metrics: counters, gauges, latency histograms.
//
// The monitored systems (kvs, minizk) export their health indicators here;
// signal-type watchdog checkers and the ResourceSignalDetector baseline read
// them — exactly the "system health indicators" of Table 2's middle row.
//
// All three primitives are lock-free and allocate nothing beyond the object,
// so recording on a hot path (a request, a check completion) never blocks on
// another recorder or a reader.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/common/clock.h"

namespace wdg {

class Counter {
 public:
  void Increment(int64_t delta = 1) { value_.fetch_add(delta, std::memory_order_relaxed); }
  int64_t Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

class Gauge {
 public:
  void Set(double value) { value_.store(value, std::memory_order_release); }
  void Add(double delta) { value_.fetch_add(delta, std::memory_order_acq_rel); }
  double Value() const { return value_.load(std::memory_order_acquire); }

 private:
  std::atomic<double> value_{0};
};

// Log-linear (HDR-style) histogram. Each power of two in [1, 2^40) is split
// into kSubBuckets equal buckets, so a bucket is at most 12.5 % of its lower
// edge wide; values below 1 land in the lowest bucket, values from 2^40 up in
// the top one. count, sum, min and max are exact, and so is Merge.
class Histogram {
 public:
  static constexpr int kSubBucketBits = 3;
  static constexpr int kSubBuckets = 1 << kSubBucketBits;  // per power of two
  static constexpr int kOctaves = 40;                      // [1, 2^40)
  static constexpr int kBuckets = kOctaves * kSubBuckets + 2;

  void Record(double value);
  // Adds every sample of `other`; the result equals recording the union.
  void Merge(const Histogram& other);

  int64_t count() const;
  double Sum() const;
  double Mean() const;
  double Min() const;  // 0 if empty
  double Max() const;  // 0 if empty
  // Nearest-rank percentile, q in [0,100]; 0 if empty. Returns the upper edge
  // of the bucket holding that sample, clamped to [Min(), Max()], so it never
  // reads below the true sample (deadline budgets and gates err high).
  double Percentile(double q) const;

 private:
  std::array<uint64_t, kBuckets> Counts() const;

  // The count is the sum of the buckets: one fewer atomic add per Record.
  std::array<std::atomic<uint64_t>, kBuckets> buckets_{};
  std::atomic<double> sum_{0};
  std::atomic<double> min_{std::numeric_limits<double>::infinity()};
  std::atomic<double> max_{-std::numeric_limits<double>::infinity()};
};

// Named registry. Instances are created on first use and live as long as the
// registry; returned pointers are stable.
class MetricsRegistry {
 public:
  Counter* GetCounter(const std::string& name);
  Gauge* GetGauge(const std::string& name);
  Histogram* GetHistogram(const std::string& name);

  // Non-creating lookup: nullptr when the gauge was never published. Lets
  // monitors distinguish "metric reads 0" from "nobody is exporting this
  // metric" without materialising a permanently-zero gauge.
  Gauge* FindGauge(const std::string& name) const;

  // Counter and gauge values by name (histograms export count/mean/p99).
  std::map<std::string, double> Snapshot() const;

  std::vector<std::string> CounterNames() const;
  std::vector<std::string> GaugeNames() const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

// RAII latency recorder.
class ScopedLatency {
 public:
  ScopedLatency(Histogram* hist, Clock& clock)
      : hist_(hist), clock_(clock), start_(clock.NowNs()) {}
  ~ScopedLatency() {
    if (hist_ != nullptr) {
      hist_->Record(static_cast<double>(clock_.NowNs() - start_));
    }
  }

 private:
  Histogram* hist_;
  Clock& clock_;
  TimeNs start_;
};

}  // namespace wdg
