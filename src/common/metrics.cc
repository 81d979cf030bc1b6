#include "src/common/metrics.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>

namespace wdg {

namespace {

constexpr std::memory_order kRelaxed = std::memory_order_relaxed;
constexpr double kTopBucketFloor = static_cast<double>(uint64_t{1} << Histogram::kOctaves);

// Bucket 0 holds values below 1 (and NaN), bucket kBuckets-1 values from
// 2^kOctaves up. In between, a double's exponent and its top kSubBucketBits
// mantissa bits are the octave and the sub-bucket: for v in [1, 2^kOctaves),
// bits >> (52 - kSubBucketBits) = (1023 + octave) * kSubBuckets + sub.
int BucketOf(double value) {
  if (!(value >= 1.0)) {
    return 0;
  }
  if (value >= kTopBucketFloor) {
    return Histogram::kBuckets - 1;
  }
  const uint64_t bits = std::bit_cast<uint64_t>(value);
  const uint64_t key = bits >> (52 - Histogram::kSubBucketBits);
  return 1 + static_cast<int>(key - (uint64_t{1023} << Histogram::kSubBucketBits));
}

double UpperEdge(int bucket) {
  if (bucket == 0) {
    return 1.0;
  }
  if (bucket == Histogram::kBuckets - 1) {
    return std::numeric_limits<double>::infinity();
  }
  const int octave = (bucket - 1) >> Histogram::kSubBucketBits;
  const int sub = (bucket - 1) & (Histogram::kSubBuckets - 1);
  return std::ldexp(Histogram::kSubBuckets + sub + 1, octave - Histogram::kSubBucketBits);
}

void StoreMin(std::atomic<double>& slot, double value) {
  double cur = slot.load(kRelaxed);
  while (value < cur && !slot.compare_exchange_weak(cur, value, kRelaxed)) {
  }
}

void StoreMax(std::atomic<double>& slot, double value) {
  double cur = slot.load(kRelaxed);
  while (value > cur && !slot.compare_exchange_weak(cur, value, kRelaxed)) {
  }
}

}  // namespace

void Histogram::Record(double value) {
  StoreMin(min_, value);
  StoreMax(max_, value);
  sum_.fetch_add(value, kRelaxed);
  // Release: a reader that counts this sample also sees its sum, min and max.
  buckets_[static_cast<size_t>(BucketOf(value))].fetch_add(1, std::memory_order_release);
}

void Histogram::Merge(const Histogram& other) {
  // Counts first (acquire): the sums and extremes read after them are current.
  std::array<uint64_t, kBuckets> counts = other.Counts();
  sum_.fetch_add(other.sum_.load(kRelaxed), kRelaxed);
  StoreMin(min_, other.min_.load(kRelaxed));
  StoreMax(max_, other.max_.load(kRelaxed));
  for (size_t i = 0; i < counts.size(); ++i) {
    if (counts[i] != 0) {
      buckets_[i].fetch_add(counts[i], std::memory_order_release);
    }
  }
}

std::array<uint64_t, Histogram::kBuckets> Histogram::Counts() const {
  std::array<uint64_t, kBuckets> counts;
  for (size_t i = 0; i < counts.size(); ++i) {
    counts[i] = buckets_[i].load(std::memory_order_acquire);
  }
  return counts;
}

int64_t Histogram::count() const {
  uint64_t total = 0;
  for (const uint64_t c : Counts()) {
    total += c;
  }
  return static_cast<int64_t>(total);
}

double Histogram::Sum() const { return sum_.load(kRelaxed); }

double Histogram::Mean() const {
  const int64_t n = count();
  return n == 0 ? 0 : Sum() / static_cast<double>(n);
}

double Histogram::Min() const {
  const double lo = min_.load(kRelaxed);
  return lo == std::numeric_limits<double>::infinity() ? 0 : lo;
}

double Histogram::Max() const {
  const double hi = max_.load(kRelaxed);
  return hi == -std::numeric_limits<double>::infinity() ? 0 : hi;
}

double Histogram::Percentile(double q) const {
  // Walk one copy of the counts so a concurrent Record cannot move the total
  // under the rank.
  const std::array<uint64_t, kBuckets> counts = Counts();
  uint64_t total = 0;
  for (const uint64_t c : counts) {
    total += c;
  }
  if (total == 0) {
    return 0;
  }
  const uint64_t rank = static_cast<uint64_t>(
      std::clamp(std::ceil(q / 100.0 * static_cast<double>(total)), 1.0,
                 static_cast<double>(total)));
  size_t bucket = 0;
  for (uint64_t seen = counts[0]; seen < rank; seen += counts[++bucket]) {
  }
  return std::min(std::max(UpperEdge(static_cast<int>(bucket)), min_.load(kRelaxed)),
                  max_.load(kRelaxed));
}

Counter* MetricsRegistry::GetCounter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = counters_[name];
  if (!slot) {
    slot = std::make_unique<Counter>();
  }
  return slot.get();
}

Gauge* MetricsRegistry::GetGauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = gauges_[name];
  if (!slot) {
    slot = std::make_unique<Gauge>();
  }
  return slot.get();
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = histograms_[name];
  if (!slot) {
    slot = std::make_unique<Histogram>();
  }
  return slot.get();
}

Gauge* MetricsRegistry::FindGauge(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = gauges_.find(name);
  return it == gauges_.end() ? nullptr : it->second.get();
}

std::map<std::string, double> MetricsRegistry::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::map<std::string, double> out;
  for (const auto& [name, counter] : counters_) {
    out[name] = static_cast<double>(counter->Value());
  }
  for (const auto& [name, gauge] : gauges_) {
    out[name] = gauge->Value();
  }
  for (const auto& [name, hist] : histograms_) {
    out[name + ".count"] = static_cast<double>(hist->count());
    out[name + ".mean"] = hist->Mean();
    out[name + ".p99"] = hist->Percentile(99);
  }
  return out;
}

std::vector<std::string> MetricsRegistry::CounterNames() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> names;
  names.reserve(counters_.size());
  for (const auto& [name, _] : counters_) {
    names.push_back(name);
  }
  return names;
}

std::vector<std::string> MetricsRegistry::GaugeNames() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> names;
  names.reserve(gauges_.size());
  for (const auto& [name, _] : gauges_) {
    names.push_back(name);
  }
  return names;
}

}  // namespace wdg
