// Unit tests for src/common: status, result, strings, checksum, config,
// metrics, rng, clock, threading.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <thread>
#include <vector>

#include "src/common/checksum.h"
#include "src/common/clock.h"
#include "src/common/config.h"
#include "src/common/logging.h"
#include "src/common/metrics.h"
#include "src/common/result.h"
#include "src/common/rng.h"
#include "src/common/status.h"
#include "src/common/strings.h"
#include "src/common/threading.h"

namespace wdg {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = TimeoutError("flush stalled");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kTimeout);
  EXPECT_EQ(s.ToString(), "TIMEOUT: flush stalled");
}

TEST(StatusTest, EveryCodeHasAName) {
  for (int c = 0; c <= static_cast<int>(StatusCode::kUnimplemented); ++c) {
    EXPECT_STRNE(StatusCodeName(static_cast<StatusCode>(c)), "UNKNOWN");
  }
}

TEST(StatusTest, FactoryHelpersSetExpectedCodes) {
  EXPECT_EQ(NotFoundError("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(CorruptionError("x").code(), StatusCode::kCorruption);
  EXPECT_EQ(IoError("x").code(), StatusCode::kIoError);
  EXPECT_EQ(ResourceExhaustedError("x").code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(FailedPreconditionError("x").code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(UnavailableError("x").code(), StatusCode::kUnavailable);
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_EQ(r.value_or(7), 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r = NotFoundError("nope");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(r.value_or(7), 7);
}

Result<int> Doubled(Result<int> input) {
  WDG_ASSIGN_OR_RETURN(const int v, input);
  return v * 2;
}

TEST(ResultTest, AssignOrReturnPropagates) {
  EXPECT_EQ(*Doubled(21), 42);
  EXPECT_EQ(Doubled(InternalError("boom")).status().code(), StatusCode::kInternal);
}

TEST(StringsTest, StrFormat) {
  EXPECT_EQ(StrFormat("%s=%d", "x", 7), "x=7");
  EXPECT_EQ(StrFormat("%s", ""), "");
}

TEST(StringsTest, StrSplit) {
  const auto parts = StrSplit("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(parts[3], "c");
}

TEST(StringsTest, Trim) {
  EXPECT_EQ(StrTrim("  x \n"), "x");
  EXPECT_EQ(StrTrim(""), "");
  EXPECT_EQ(StrTrim("   "), "");
}

TEST(StringsTest, SitePatternMatching) {
  EXPECT_TRUE(SitePatternMatches("*", "anything.at.all"));
  EXPECT_TRUE(SitePatternMatches("disk.*", "disk.write"));
  EXPECT_FALSE(SitePatternMatches("disk.*", "net.send"));
  EXPECT_TRUE(SitePatternMatches("disk.write", "disk.write"));
  EXPECT_FALSE(SitePatternMatches("disk.write", "disk.writeX"));
}

TEST(ChecksumTest, KnownVector) {
  // CRC32("123456789") == 0xCBF43926 (classic check value).
  EXPECT_EQ(Crc32("123456789"), 0xCBF43926u);
}

TEST(ChecksumTest, ExtendMatchesWhole) {
  const uint32_t whole = Crc32("hello world");
  const uint32_t split = Crc32Extend(Crc32("hello "), "world");
  EXPECT_EQ(whole, split);
}

TEST(ChecksumTest, DetectsSingleBitFlip) {
  std::string data = "the quick brown fox";
  const uint32_t before = Crc32(data);
  data[3] ^= 0x01;
  EXPECT_NE(before, Crc32(data));
}

TEST(ConfigTest, TypedAccessorsAndDefaults) {
  ConfigStore config;
  config.ParseInline("threads=4, ratio=0.5, verbose=true, name=kvs");
  EXPECT_EQ(config.GetInt("threads"), 4);
  EXPECT_DOUBLE_EQ(config.GetDouble("ratio"), 0.5);
  EXPECT_TRUE(config.GetBool("verbose"));
  EXPECT_EQ(config.GetString("name"), "kvs");
  EXPECT_EQ(config.GetInt("missing", 9), 9);
  EXPECT_FALSE(config.Has("missing"));
}

TEST(ConfigTest, BareKeyIsTrue) {
  ConfigStore config;
  config.ParseInline("fast");
  EXPECT_TRUE(config.GetBool("fast"));
}

TEST(MetricsTest, CounterAndGauge) {
  MetricsRegistry registry;
  registry.GetCounter("ops")->Increment(3);
  registry.GetCounter("ops")->Increment();
  registry.GetGauge("depth")->Set(17.5);
  EXPECT_EQ(registry.GetCounter("ops")->Value(), 4);
  EXPECT_DOUBLE_EQ(registry.GetGauge("depth")->Value(), 17.5);
  const auto snapshot = registry.Snapshot();
  EXPECT_DOUBLE_EQ(snapshot.at("ops"), 4.0);
}

TEST(MetricsTest, HistogramStats) {
  Histogram hist;
  for (int i = 1; i <= 100; ++i) {
    hist.Record(i);
  }
  EXPECT_EQ(hist.count(), 100);
  EXPECT_DOUBLE_EQ(hist.Min(), 1);
  EXPECT_DOUBLE_EQ(hist.Max(), 100);
  EXPECT_DOUBLE_EQ(hist.Mean(), 50.5);
  EXPECT_NEAR(hist.Percentile(50), 50, 2);
  EXPECT_NEAR(hist.Percentile(99), 99, 2);
}

TEST(MetricsTest, HistogramCountSumMinMaxExactUnderConcurrentRecord) {
  Histogram hist;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 50000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&hist, t] {
      for (int i = 1; i <= kPerThread; ++i) {
        hist.Record(static_cast<double>(t * kPerThread + i));
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  constexpr double n = kThreads * kPerThread;
  EXPECT_EQ(hist.count(), static_cast<int64_t>(n));
  EXPECT_DOUBLE_EQ(hist.Sum(), n * (n + 1) / 2);  // integers: exact in a double
  EXPECT_DOUBLE_EQ(hist.Min(), 1);
  EXPECT_DOUBLE_EQ(hist.Max(), n);
}

// Nearest-rank reference: the ceil(q/100 * n)-th smallest sample.
double ReferencePercentile(std::vector<double> samples, double q) {
  std::sort(samples.begin(), samples.end());
  const auto rank = static_cast<size_t>(std::ceil(q / 100.0 * static_cast<double>(samples.size())));
  return samples[std::clamp<size_t>(rank, 1, samples.size()) - 1];
}

TEST(MetricsTest, HistogramPercentileIsWithinOneBucketAboveTheReference) {
  for (const uint64_t seed : {1u, 2u, 3u}) {
    Rng rng(seed);
    Histogram hist;
    std::vector<double> samples;
    for (int i = 0; i < 5000; ++i) {
      const double ns = std::pow(10.0, rng.NextDouble() * 10.0);  // 1 ns .. 10 s
      samples.push_back(ns);
      hist.Record(ns);
    }
    for (const double q : {0.0, 1.0, 25.0, 50.0, 90.0, 99.0, 99.9, 100.0}) {
      const double reference = ReferencePercentile(samples, q);
      // Upper edge of the sample's bucket: never low, at most one 12.5 %
      // bucket high.
      EXPECT_GE(hist.Percentile(q), reference) << "seed " << seed << " q " << q;
      EXPECT_LE(hist.Percentile(q), reference * 1.125) << "seed " << seed << " q " << q;
    }
  }
}

TEST(MetricsTest, HistogramMergeEqualsRecordingTheUnion) {
  Histogram empty;
  EXPECT_EQ(empty.count(), 0);
  EXPECT_EQ(empty.Sum(), 0);
  EXPECT_EQ(empty.Mean(), 0);
  EXPECT_EQ(empty.Min(), 0);
  EXPECT_EQ(empty.Max(), 0);
  EXPECT_EQ(empty.Percentile(50), 0);

  Rng rng(7);
  Histogram a;
  Histogram b;
  Histogram both;
  for (int i = 0; i < 3000; ++i) {
    const double value = static_cast<double>(rng.Uniform(0, 1'000'000));
    (i % 3 == 0 ? a : b).Record(value);
    both.Record(value);
  }
  a.Merge(b);
  a.Merge(empty);
  EXPECT_EQ(a.count(), both.count());
  EXPECT_EQ(a.Sum(), both.Sum());
  EXPECT_EQ(a.Min(), both.Min());
  EXPECT_EQ(a.Max(), both.Max());
  for (const double q : {1.0, 50.0, 99.0, 100.0}) {
    EXPECT_EQ(a.Percentile(q), both.Percentile(q)) << q;
  }
  empty.Merge(both);
  EXPECT_EQ(empty.count(), both.count());
  EXPECT_EQ(empty.Percentile(99), both.Percentile(99));
}

TEST(MetricsTest, HistogramOutOfRangeValuesLandInTheEndBuckets) {
  // Below 1: one shared lowest bucket, whose edge (1) clamps to the max.
  Histogram low;
  for (const double value : {-5.0, 0.0, 0.25, 0.75}) {
    low.Record(value);
  }
  EXPECT_DOUBLE_EQ(low.Percentile(25), 0.75);
  EXPECT_DOUBLE_EQ(low.Percentile(100), 0.75);
  EXPECT_DOUBLE_EQ(low.Min(), -5.0);

  // From 2^40 up: one shared top bucket, whose edge clamps to the max.
  const double top = std::ldexp(1.0, Histogram::kOctaves);
  Histogram high;
  high.Record(2.0);
  high.Record(top);
  high.Record(top * 1000);
  EXPECT_DOUBLE_EQ(high.Percentile(50), top * 1000);
  EXPECT_DOUBLE_EQ(high.Percentile(100), top * 1000);
  EXPECT_LE(high.Percentile(1), 2.25);
}

TEST(MetricsTest, GaugeAddIsExactUnderConcurrentAdds) {
  Gauge gauge;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 100000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&gauge] {
      for (int i = 0; i < kPerThread; ++i) {
        gauge.Add(0.5);
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  EXPECT_DOUBLE_EQ(gauge.Value(), kThreads * kPerThread * 0.5);
  gauge.Set(-3.25);
  EXPECT_DOUBLE_EQ(gauge.Value(), -3.25);
}

TEST(MetricsTest, StablePointers) {
  MetricsRegistry registry;
  Counter* a = registry.GetCounter("x");
  for (int i = 0; i < 100; ++i) {
    registry.GetCounter(StrFormat("c%d", i));
  }
  EXPECT_EQ(a, registry.GetCounter("x"));
}

TEST(RngTest, DeterministicAcrossInstances) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextU64(), b.NextU64());
  }
}

TEST(RngTest, UniformInRange) {
  Rng rng(7);
  std::set<int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const int64_t v = rng.Uniform(3, 9);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 9);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);  // all values hit
}

TEST(RngTest, BernoulliRoughlyCalibrated) {
  Rng rng(11);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) {
    hits += rng.Bernoulli(0.3) ? 1 : 0;
  }
  EXPECT_NEAR(hits, 3000, 200);
}

TEST(SimClockTest, AdvanceWakesSleepers) {
  SimClock clock;
  std::atomic<bool> woke{false};
  std::thread sleeper([&] {
    clock.SleepFor(Ms(100));
    woke = true;
  });
  while (clock.sleeper_count() == 0) {
    std::this_thread::yield();
  }
  EXPECT_FALSE(woke.load());
  clock.Advance(Ms(50));
  EXPECT_FALSE(woke.load());
  clock.Advance(Ms(60));
  sleeper.join();
  EXPECT_TRUE(woke.load());
  EXPECT_EQ(clock.NowNs(), Ms(110));
}

TEST(SimClockTest, ShutdownReleasesSleepers) {
  SimClock clock;
  std::thread sleeper([&] { clock.SleepFor(Sec(100)); });
  while (clock.sleeper_count() == 0) {
    std::this_thread::yield();
  }
  clock.Shutdown();
  sleeper.join();  // must not hang
}

TEST(RealClockTest, MonotoneAndSleeps) {
  RealClock& clock = RealClock::Instance();
  const TimeNs a = clock.NowNs();
  clock.SleepFor(Ms(5));
  const TimeNs b = clock.NowNs();
  EXPECT_GE(b - a, Ms(4));
}

TEST(ClockTest, WaitUntilPredicate) {
  SimClock clock;
  std::atomic<int> calls{0};
  std::thread advancer([&] {
    while (clock.NowNs() < Ms(50)) {
      clock.Advance(Ms(10));
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  const bool ok = clock.WaitUntil(Ms(100), [&] { return ++calls > 3; }, Ms(5));
  advancer.join();
  EXPECT_TRUE(ok);
}

TEST(BoundedQueueTest, FifoOrder) {
  BoundedQueue<int> queue(8);
  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(queue.Push(i, Ms(10)));
  }
  for (int i = 0; i < 5; ++i) {
    const auto v = queue.Pop(Ms(10));
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, i);
  }
}

TEST(BoundedQueueTest, PushTimesOutWhenFull) {
  BoundedQueue<int> queue(1);
  EXPECT_TRUE(queue.Push(1, Ms(5)));
  EXPECT_FALSE(queue.Push(2, Ms(5)));
}

TEST(BoundedQueueTest, PopTimesOutWhenEmpty) {
  BoundedQueue<int> queue(1);
  EXPECT_FALSE(queue.Pop(Ms(5)).has_value());
}

TEST(BoundedQueueTest, ShutdownUnblocksWaiters) {
  BoundedQueue<int> queue(1);
  std::thread popper([&] { EXPECT_FALSE(queue.Pop(Sec(60)).has_value()); });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  queue.Shutdown();
  popper.join();
  EXPECT_FALSE(queue.Push(1, Ms(5)));
}

TEST(BoundedQueueTest, ConcurrentProducersConsumers) {
  BoundedQueue<int> queue(16);
  std::atomic<int> sum{0};
  std::vector<std::thread> threads;
  for (int p = 0; p < 4; ++p) {
    threads.emplace_back([&, p] {
      for (int i = 0; i < 100; ++i) {
        ASSERT_TRUE(queue.Push(p * 100 + i, Sec(5)));
      }
    });
  }
  for (int c = 0; c < 4; ++c) {
    threads.emplace_back([&] {
      for (int i = 0; i < 100; ++i) {
        const auto v = queue.Pop(Sec(5));
        ASSERT_TRUE(v.has_value());
        sum += *v;
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  int expected = 0;
  for (int p = 0; p < 4; ++p) {
    for (int i = 0; i < 100; ++i) {
      expected += p * 100 + i;
    }
  }
  EXPECT_EQ(sum.load(), expected);
}

TEST(StopFlagTest, WaitForReactsToRequest) {
  StopFlag flag;
  EXPECT_FALSE(flag.WaitFor(Ms(5)));
  std::thread requester([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    flag.Request();
  });
  EXPECT_TRUE(flag.WaitFor(Sec(5)));
  requester.join();
  EXPECT_TRUE(flag.Requested());
}

TEST(LoggingTest, CaptureSinkSeesMessages) {
  CaptureSink sink;
  Logger::Instance().AddSink(&sink);
  Logger::Instance().set_min_level(LogLevel::kInfo);
  WDG_LOG(kInfo) << "hello " << 42;
  WDG_LOG(kDebug) << "should be filtered";
  Logger::Instance().set_min_level(LogLevel::kWarn);
  Logger::Instance().RemoveSink(&sink);
  EXPECT_TRUE(sink.Contains("hello 42"));
  EXPECT_FALSE(sink.Contains("filtered"));
}

TEST(LogicalTimeTest, ConversionMatchesConvention) {
  // 700 real ms == 7 logical (paper) seconds.
  EXPECT_DOUBLE_EQ(ToLogicalSeconds(Ms(700)), 7.0);
}

}  // namespace
}  // namespace wdg
