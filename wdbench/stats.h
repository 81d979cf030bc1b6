// Small measurement helpers shared by the benchmark stages: exact
// percentiles over collected samples, CPU clocks, and the metric report the
// driver program turns into JSON.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "src/common/clock.h"
#include "src/common/rng.h"

namespace wdbench {

// Exact percentile (nearest-rank on the sorted copy); 0 for no samples.
double Percentile(std::vector<double> samples, double q);
inline double Median(std::vector<double> samples) { return Percentile(std::move(samples), 50); }
double Mean(const std::vector<double>& samples);

// CPU time consumed by the whole process (all threads), in ns.
int64_t ProcessCpuNs();

// Host-wide CPU ticks from /proc/stat: all of them, and those stolen by the
// hypervisor. Zeros where /proc/stat is unavailable.
struct HostTicks {
  int64_t total = 0;
  int64_t steal = 0;
};
HostTicks ReadHostTicks();

// Thread-safe sample collector. Keeps every sample up to `capacity`, then a
// uniform reservoir, so a percentile over millions of events stays bounded in
// memory without favouring the start of the run.
class SampleSink {
 public:
  explicit SampleSink(size_t capacity, uint64_t seed = 1) : capacity_(capacity), rng_(seed) {}
  void Add(double value);
  std::vector<double> Take() const;

 private:
  mutable std::mutex mu_;
  size_t capacity_;
  wdg::Rng rng_;
  int64_t seen_ = 0;
  std::vector<double> samples_;
};

// Set-up cost of one stage over its repeated set-ups: the median wall time,
// and the median process CPU time (all threads), which the hypervisor's steal
// time does not inflate.
class SetupTimes {
 public:
  void Begin();
  void End();
  double wall_ns() const { return Median(wall_ns_); }
  double cpu_ns() const { return Median(cpu_ns_); }

 private:
  wdg::TimeNs wall0_ = 0;
  int64_t cpu0_ = 0;
  std::vector<double> wall_ns_;
  std::vector<double> cpu_ns_;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

// Everything one benchmark run measured. `failed` counts operations that
// failed (see main.cc for what an operation is on each stage); `correct` goes
// false when an output was wrong, not merely late or refused.
struct Report {
  std::vector<Metric> metrics;
  std::vector<std::string> notes;  // human-readable lines printed before the JSON
  int64_t attempted = 0;
  int64_t failed = 0;
  bool correct = true;

  void Add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void Note(std::string line) { notes.push_back(std::move(line)); }
};

inline double ToMs(wdg::DurationNs ns) { return static_cast<double>(ns) / 1e6; }
inline double ToUs(wdg::DurationNs ns) { return static_cast<double>(ns) / 1e3; }
inline double ToS(wdg::DurationNs ns) { return static_cast<double>(ns) / 1e9; }

}  // namespace wdbench
