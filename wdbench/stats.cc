#include "wdbench/stats.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ctime>

namespace wdbench {

double Percentile(std::vector<double> samples, double q) {
  if (samples.empty()) {
    return 0;
  }
  std::sort(samples.begin(), samples.end());
  const double rank = std::ceil(q / 100.0 * static_cast<double>(samples.size()));
  const size_t index = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  return samples[std::min(index, samples.size() - 1)];
}

double Mean(const std::vector<double>& samples) {
  if (samples.empty()) {
    return 0;
  }
  double sum = 0;
  for (double v : samples) {
    sum += v;
  }
  return sum / static_cast<double>(samples.size());
}

int64_t ProcessCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

HostTicks ReadHostTicks() {
  HostTicks ticks;
  std::FILE* file = std::fopen("/proc/stat", "r");
  if (file == nullptr) {
    return ticks;
  }
  // "cpu  user nice system idle iowait irq softirq steal ..."
  long long fields[8] = {};
  if (std::fscanf(file, "cpu %lld %lld %lld %lld %lld %lld %lld %lld", &fields[0], &fields[1],
                  &fields[2], &fields[3], &fields[4], &fields[5], &fields[6], &fields[7]) == 8) {
    for (long long field : fields) {
      ticks.total += field;
    }
    ticks.steal = fields[7];
  }
  std::fclose(file);
  return ticks;
}

void SetupTimes::Begin() {
  wall0_ = wdg::RealClock::Instance().NowNs();
  cpu0_ = ProcessCpuNs();
}

void SetupTimes::End() {
  wall_ns_.push_back(static_cast<double>(wdg::RealClock::Instance().NowNs() - wall0_));
  cpu_ns_.push_back(static_cast<double>(ProcessCpuNs() - cpu0_));
}

void SampleSink::Add(double value) {
  std::lock_guard<std::mutex> lock(mu_);
  ++seen_;
  if (samples_.size() < capacity_) {
    samples_.push_back(value);
    return;
  }
  const int64_t slot = rng_.Uniform(0, seen_ - 1);
  if (slot < static_cast<int64_t>(capacity_)) {
    samples_[static_cast<size_t>(slot)] = value;
  }
}

std::vector<double> SampleSink::Take() const {
  std::lock_guard<std::mutex> lock(mu_);
  return samples_;
}

}  // namespace wdbench
