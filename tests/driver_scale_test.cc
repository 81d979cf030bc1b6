// Scale and shutdown behavior of the scheduler/executor split: hundreds of
// checkers must share a small worker pool with bounded queue delay and no
// thread-per-execution explosion; an injected hang must abandon exactly one
// worker (and respawn its replacement); Stop() must join cleanly even while
// the submission queue is saturated. Also the property suite for the
// histogram-informed deadline-budget inference. Runs under the TSan CI leg.
#include <gtest/gtest.h>

#include <execinfo.h>
#include <unistd.h>

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <map>
#include <new>

#include <string>
#include <vector>

#include "src/common/clock.h"
#include "src/common/metrics.h"
#include "src/common/rng.h"
#include "src/common/strings.h"
#include "src/fault/fault_injector.h"
#include "src/watchdog/builder.h"
#include "src/watchdog/builtin_checkers.h"
#include "src/watchdog/context.h"
#include "src/watchdog/driver.h"

// --- allocation-count guard plumbing --------------------------------------
// Replacing the global allocators is binary-wide; the counter only gates the
// steady-state window in SteadyStateDispatchIsAllocationFree. Counting (not
// forbidding) keeps every other test unaffected. While armed, the first few
// allocations dump raw stacks to stderr so a guard failure names its leak
// instead of just counting it (backtrace_symbols_fd writes straight to the
// fd — no malloc inside the hook).
static std::atomic<int64_t> g_heap_allocs{0};
static std::atomic<int> g_alloc_trace_budget{0};

void* operator new(std::size_t size) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (g_alloc_trace_budget.load(std::memory_order_relaxed) > 0) {
    static thread_local bool in_trace = false;
    if (!in_trace &&
        g_alloc_trace_budget.fetch_sub(1, std::memory_order_relaxed) > 0) {
      in_trace = true;
      void* frames[24];
      const int depth = backtrace(frames, 24);
      backtrace_symbols_fd(frames, depth, 2);
      (void)!write(2, "---- alloc in guarded window ----\n", 34);
      in_trace = false;
    }
  }
  if (void* ptr = std::malloc(size == 0 ? 1 : size)) {
    return ptr;
  }
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* ptr) noexcept { std::free(ptr); }
void operator delete[](void* ptr) noexcept { std::free(ptr); }
void operator delete(void* ptr, std::size_t) noexcept { std::free(ptr); }
void operator delete[](void* ptr, std::size_t) noexcept { std::free(ptr); }

namespace wdg {
namespace {

// Polls until `name` has at least `runs` completed runs; false on timeout.
bool WaitForStat(WatchdogDriver& driver, Clock& clock, const std::string& name,
                 int64_t runs, DurationNs timeout = Sec(10)) {
  const TimeNs deadline = clock.NowNs() + timeout;
  while (clock.NowNs() < deadline) {
    if (driver.StatsFor(name).runs >= runs) {
      return true;
    }
    clock.SleepFor(Ms(10));
  }
  return false;
}

CheckerOptions ScaleChecker(DurationNs initial_delay = 0) {
  CheckerOptions options;
  options.interval = Ms(50);
  options.timeout = Ms(400);
  options.initial_delay = initial_delay;
  return options;
}

TEST(DriverScaleTest, HundredsOfCheckersShareASmallPool) {
  RealClock& clock = RealClock::Instance();
  WatchdogDriver::Options options;
  options.executor.workers = 4;
  options.executor.queue_capacity = 512;
  WatchdogDriver driver(clock, options);

  constexpr int kCheckers = 220;
  std::atomic<int64_t> total_runs{0};
  for (int i = 0; i < kCheckers; ++i) {
    // Staggered starts spread the fleet across the interval instead of
    // slamming the queue with 220 simultaneous submissions every period.
    driver.AddChecker(std::make_unique<ProbeChecker>(
        StrFormat("p%03d", i), "scale",
        [&total_runs] {
          total_runs.fetch_add(1, std::memory_order_relaxed);
          return Status::Ok();
        },
        ScaleChecker(/*initial_delay=*/Ms(i % 50))));
  }
  ASSERT_TRUE(driver.Start().ok());
  clock.SleepFor(Ms(600));
  const DriverMetricsSnapshot metrics = driver.DriverMetrics();
  EXPECT_TRUE(driver.Stop().ok());

  // Every checker got scheduled, repeatedly.
  EXPECT_GE(total_runs.load(), kCheckers * 2);
  for (const std::string& name : driver.CheckerNames()) {
    EXPECT_GE(driver.StatsFor(name).runs, 1) << name;
  }
  // The whole fleet ran on the fixed pool: no thread-per-execution growth.
  EXPECT_EQ(metrics.pool_workers, 4);
  EXPECT_EQ(metrics.threads_spawned, 4);
  EXPECT_EQ(metrics.workers_abandoned, 0);
  // Queue delay stays bounded (generous ceiling: this also runs under TSan).
  EXPECT_LT(metrics.queue_delay_p99_ns, static_cast<double>(Ms(300)));
  EXPECT_TRUE(driver.Failures().empty());
}

TEST(DriverScaleTest, InjectedHangAbandonsExactlyOneWorkerAndRespawns) {
  RealClock& clock = RealClock::Instance();
  FaultInjector injector(clock);
  FaultSpec hang;
  hang.id = "stuck";
  hang.site_pattern = "scale.op";
  hang.kind = FaultKind::kHang;
  injector.Inject(hang);

  WatchdogDriver::Options options;
  options.executor.workers = 3;
  options.release_on_stop = [&injector] { injector.ClearAll(); };
  WatchdogDriver driver(clock, options);

  CheckerOptions hung_options;
  hung_options.interval = Ms(20);
  hung_options.timeout = Ms(80);
  driver.AddChecker(std::make_unique<MimicChecker>(
      "hung", "scale", nullptr,
      [&injector](const CheckContext&, MimicChecker&) {
        (void)injector.Act("scale.op");
        return CheckResult::Pass();
      },
      hung_options));
  std::atomic<int64_t> healthy_runs{0};
  driver.AddChecker(std::make_unique<ProbeChecker>(
      "healthy", "scale",
      [&healthy_runs] {
        healthy_runs.fetch_add(1, std::memory_order_relaxed);
        return Status::Ok();
      },
      ScaleChecker()));
  ASSERT_TRUE(driver.Start().ok());

  ASSERT_TRUE(driver.WaitForFailure(Sec(5), [](const FailureSignature& sig) {
    return sig.type == FailureType::kLivenessTimeout && sig.checker_name == "hung";
  }));
  clock.SleepFor(Ms(100));  // let the respawned worker settle in
  const DriverMetricsSnapshot metrics = driver.DriverMetrics();
  const int64_t runs_at_detect = healthy_runs.load();
  clock.SleepFor(Ms(150));

  // Exactly one worker was parked; one replacement thread restored capacity.
  EXPECT_EQ(metrics.workers_abandoned, 1);
  EXPECT_EQ(metrics.threads_spawned, 3 + 1);
  EXPECT_EQ(metrics.timeouts, 1);
  // The pool kept serving the healthy checker while one worker hangs.
  EXPECT_GT(healthy_runs.load(), runs_at_detect);
  EXPECT_TRUE(driver.Stop().ok());  // release_on_stop unblocks the hang; joins must not wedge
  EXPECT_EQ(injector.parked_thread_count(), 0);
}

TEST(DriverScaleTest, StopUnderSaturatedQueueJoinsCleanly) {
  RealClock& clock = RealClock::Instance();
  WatchdogDriver::Options options;
  options.executor.workers = 2;
  options.executor.queue_capacity = 4;  // far smaller than the fleet
  WatchdogDriver driver(clock, options);

  constexpr int kCheckers = 64;
  for (int i = 0; i < kCheckers; ++i) {
    driver.AddChecker(std::make_unique<ProbeChecker>(
        StrFormat("sat%02d", i), "scale",
        [&clock] {
          clock.SleepFor(Ms(2));  // keep workers busy so the queue stays full
          return Status::Ok();
        },
        ScaleChecker()));
  }
  ASSERT_TRUE(driver.Start().ok());
  clock.SleepFor(Ms(120));
  const DriverMetricsSnapshot metrics = driver.DriverMetrics();
  EXPECT_TRUE(driver.Stop().ok());  // must discard queued work and join without deadlock
  EXPECT_FALSE(driver.running());

  // The tiny queue actually pushed back — and backpressure never grew threads.
  EXPECT_GT(metrics.queue_rejections, 0);
  EXPECT_EQ(metrics.threads_spawned, 2);
  // Stats stay coherent: a run either completed with an outcome or was
  // un-counted when the queue was discarded at Stop.
  for (const std::string& name : driver.CheckerNames()) {
    const CheckerStats stats = driver.StatsFor(name);
    EXPECT_EQ(stats.runs, stats.passes + stats.fails + stats.context_not_ready +
                              stats.timeouts + stats.crashes)
        << name;
  }
}

// --- fleet-scale scheduling: shards, batches, subscription epochs ---------

TEST(DriverShardingTest, ShardedFleetHonorsAffinityAndBoundsWorkers) {
  RealClock& clock = RealClock::Instance();
  WatchdogDriver::Options options;
  options.shards = 4;
  options.executor.workers = 2;
  options.executor.queue_capacity = 1024;
  options.dispatch_batch = 8;
  WatchdogDriver driver(clock, options);

  constexpr int kCheckers = 400;
  constexpr int kPinned = 100;  // explicit affinity; the rest hash
  std::atomic<int64_t> total_runs{0};
  for (int i = 0; i < kCheckers; ++i) {
    CheckerOptions copts = ScaleChecker(/*initial_delay=*/Ms(i % 50));
    if (i < kPinned) {
      copts.shard_affinity = i % 4;
    }
    driver.AddChecker(std::make_unique<ProbeChecker>(
        StrFormat("sh%03d", i), "scale",
        [&total_runs] {
          total_runs.fetch_add(1, std::memory_order_relaxed);
          return Status::Ok();
        },
        copts));
  }
  ASSERT_TRUE(driver.Start().ok());
  clock.SleepFor(Ms(600));
  const DriverMetricsSnapshot metrics = driver.DriverMetrics();
  EXPECT_TRUE(driver.Stop().ok());

  EXPECT_GE(total_runs.load(), kCheckers * 2);
  // Explicit affinity is honored exactly; hashed checkers land on some shard.
  for (int i = 0; i < kPinned; ++i) {
    EXPECT_EQ(driver.ShardOf(StrFormat("sh%03d", i)), i % 4) << i;
  }
  for (int i = kPinned; i < kCheckers; ++i) {
    const int shard = driver.ShardOf(StrFormat("sh%03d", i));
    ASSERT_GE(shard, 0);
    ASSERT_LT(shard, 4);
  }
  // Worker count is bounded by shards x pool size; every shard pulled weight.
  EXPECT_EQ(metrics.shards, 4);
  EXPECT_LE(metrics.pool_workers, 4 * 2);
  ASSERT_EQ(metrics.shard_views.size(), 4u);
  for (const DriverMetricsSnapshot::ShardView& view : metrics.shard_views) {
    EXPECT_GT(view.dispatched, 0);
  }
  // Batched dispatch amortizes the queue: never more pool tasks than checks.
  EXPECT_GT(metrics.batches_dispatched, 0);
  EXPECT_LE(metrics.batches_dispatched, metrics.executions_dispatched);
  EXPECT_LT(metrics.queue_delay_p99_ns, static_cast<double>(Ms(300)));
  EXPECT_TRUE(driver.Failures().empty());
}

// The churn satellite: deschedule and re-add a 10k-checker fleet mid-run.
// Lazy deletion must hold both invariants: no stale wheel generation ever
// fires a descheduled checker, and superseded entries are reclaimed at pop
// time instead of accumulating (no wheel-slot leaks).
//
// The invariants are fleet-size independent, and sanitizer slowdown on the
// scheduler hot path would blow the ctest budget at the full 10k, so
// sanitized builds churn a smaller fleet.
#ifndef __has_feature
#define __has_feature(x) 0
#endif
#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__) || \
    __has_feature(thread_sanitizer) || __has_feature(address_sanitizer)
constexpr int kChurnFleet = 2000;
#else
constexpr int kChurnFleet = 10000;
#endif

TEST(DriverShardingTest, TenThousandCheckerChurnNoStaleFiresNoWheelLeaks) {
  RealClock& clock = RealClock::Instance();
  WatchdogDriver::Options options;
  options.shards = 8;
  options.executor.workers = 2;
  options.executor.queue_capacity = 4096;
  options.dispatch_batch = 16;
  options.per_checker_metrics = false;  // 10k histograms would swamp the test
  WatchdogDriver driver(clock, options);

  std::atomic<int64_t> total_runs{0};
  std::vector<std::string> names;
  names.reserve(kChurnFleet);
  for (int i = 0; i < kChurnFleet; ++i) {
    CheckerOptions copts;
    copts.interval = Ms(100);
    copts.timeout = Sec(5);
    copts.initial_delay = Ms(i % 100);
    names.push_back(StrFormat("churn%05d", i));
    driver.AddChecker(std::make_unique<ProbeChecker>(
        names.back(), "scale",
        [&total_runs] {
          total_runs.fetch_add(1, std::memory_order_relaxed);
          return Status::Ok();
        },
        copts));
  }
  ASSERT_TRUE(driver.Start().ok());
  const TimeNs warm_deadline = clock.NowNs() + Sec(60);
  while (driver.DriverMetrics().executions_completed < kChurnFleet &&
         clock.NowNs() < warm_deadline) {
    clock.SleepFor(Ms(20));
  }
  ASSERT_GE(driver.DriverMetrics().executions_completed, kChurnFleet);

  // Deschedule the whole fleet mid-run. Each live wheel entry goes stale and
  // must be dropped by its generation check when it pops.
  for (const std::string& name : names) {
    ASSERT_TRUE(driver.TrySetCheckerEnabled(name, false).ok());
  }
  clock.SleepFor(Ms(400));  // > interval + max stagger: every entry has popped
  const int64_t frozen = total_runs.load();
  const DriverMetricsSnapshot descheduled = driver.DriverMetrics();
  clock.SleepFor(Ms(300));
  // No stale generation fired: the descheduled fleet is completely silent...
  EXPECT_EQ(total_runs.load(), frozen);
  // ...and the wheel reclaimed all 10k entries instead of leaking them.
  EXPECT_EQ(descheduled.wheel_entries, 0u);

  // Re-add everyone; the fleet must come back at full strength.
  for (const std::string& name : names) {
    ASSERT_TRUE(driver.TrySetCheckerEnabled(name, true).ok());
  }
  const int64_t completed_before = driver.DriverMetrics().executions_completed;
  const TimeNs resumed_deadline = clock.NowNs() + Sec(60);
  while (driver.DriverMetrics().executions_completed < completed_before + kChurnFleet &&
         clock.NowNs() < resumed_deadline) {
    clock.SleepFor(Ms(20));
  }
  const DriverMetricsSnapshot resumed = driver.DriverMetrics();
  EXPECT_GE(resumed.executions_completed, completed_before + kChurnFleet);
  // At most one live entry per checker: re-adding did not duplicate schedules.
  EXPECT_LE(resumed.wheel_entries, static_cast<size_t>(kChurnFleet));
  EXPECT_TRUE(driver.Stop().ok());
  EXPECT_TRUE(driver.Failures().empty());
}

TEST(DriverShardingTest, SubscriptionEpochsSkipDormantCheckers) {
  RealClock& clock = RealClock::Instance();
  static const auto kProgress = ContextKey<int64_t>::Of("scale.sub.progress");
  CheckContext ctx("scale_sub_ctx");
  ctx.Set(kProgress, 0);
  ctx.MarkReady(1);

  WatchdogDriver::Options options;
  options.executor.workers = 2;
  WatchdogDriver driver(clock, options);

  std::atomic<int64_t> body_runs{0};
  ASSERT_TRUE(CheckerBuilder("dormant")
                  .Component("scale.sub")
                  .Interval(Ms(20))
                  .Deadline(Ms(400))
                  .WithContext(&ctx)
                  .SubscribeKey(kProgress)
                  .Mimic([&body_runs](const CheckContext&, MimicChecker&) {
                    body_runs.fetch_add(1, std::memory_order_relaxed);
                    return CheckResult::Pass();
                  })
                  .RegisterWith(driver)
                  .ok());
  ASSERT_TRUE(driver.Start().ok());

  // Dormant component: the subscribed key never advances, so after the
  // baseline run every scheduled interval is skipped before dispatch.
  clock.SleepFor(Ms(300));
  const int64_t dormant_runs = body_runs.load();
  EXPECT_LE(dormant_runs, 2);
  const DriverMetricsSnapshot dormant = driver.DriverMetrics();
  EXPECT_GE(dormant.skipped_unchanged, 5);
  EXPECT_GE(driver.StatsFor("dormant").skipped_unchanged, 5);

  // The component publishes progress: the next due tick runs the body again.
  ctx.Set(kProgress, 1);
  ctx.MarkReady(2);  // Set only stages; the publish is what bumps the epoch
  const TimeNs resume_deadline = clock.NowNs() + Sec(5);
  while (body_runs.load() <= dormant_runs && clock.NowNs() < resume_deadline) {
    clock.SleepFor(Ms(5));
  }
  EXPECT_GT(body_runs.load(), dormant_runs);
  EXPECT_TRUE(driver.Stop().ok());
  EXPECT_TRUE(driver.Failures().empty());
}

TEST(DriverShardingTest, BatchHangAbandonsOnceAndRedispatchesSiblings) {
  RealClock& clock = RealClock::Instance();
  FaultInjector injector(clock);
  FaultSpec hang;
  hang.id = "stuck";
  hang.site_pattern = "batch.op";
  hang.kind = FaultKind::kHang;
  injector.Inject(hang);

  WatchdogDriver::Options options;
  options.dispatch_batch = 8;
  options.executor.workers = 2;
  options.release_on_stop = [&injector] { injector.ClearAll(); };
  WatchdogDriver driver(clock, options);

  CheckerOptions hung_options;
  hung_options.interval = Ms(20);
  hung_options.timeout = Ms(80);
  hung_options.shard_affinity = 0;
  driver.AddChecker(std::make_unique<MimicChecker>(
      "hung", "batch", nullptr,
      [&injector](const CheckContext&, MimicChecker&) {
        (void)injector.Act("batch.op");
        return CheckResult::Pass();
      },
      hung_options));
  constexpr int kSiblings = 7;
  std::atomic<int64_t> sibling_runs{0};
  for (int i = 0; i < kSiblings; ++i) {
    CheckerOptions copts;
    copts.interval = Ms(20);
    copts.timeout = Ms(400);
    copts.shard_affinity = 0;  // co-located so they share the hung batch
    driver.AddChecker(std::make_unique<ProbeChecker>(
        StrFormat("sib%d", i), "batch",
        [&sibling_runs] {
          sibling_runs.fetch_add(1, std::memory_order_relaxed);
          return Status::Ok();
        },
        copts));
  }
  ASSERT_TRUE(driver.Start().ok());

  ASSERT_TRUE(driver.WaitForFailure(Sec(5), [](const FailureSignature& sig) {
    return sig.type == FailureType::kLivenessTimeout && sig.checker_name == "hung";
  }));
  // Siblings cancelled out of the abandoned batch re-dispatch on the
  // replacement worker: they keep accruing runs while the hang drains.
  const int64_t runs_at_detect = sibling_runs.load();
  clock.SleepFor(Ms(200));
  EXPECT_GT(sibling_runs.load(), runs_at_detect);
  const DriverMetricsSnapshot metrics = driver.DriverMetrics();
  EXPECT_EQ(metrics.workers_abandoned, 1);
  EXPECT_EQ(metrics.timeouts, 1);
  EXPECT_TRUE(driver.Stop().ok());
  EXPECT_EQ(injector.parked_thread_count(), 0);
  // Exactly-once accounting survives batching: every counted run resolved to
  // exactly one outcome; cancelled siblings were un-counted, never dropped.
  for (const std::string& name : driver.CheckerNames()) {
    const CheckerStats stats = driver.StatsFor(name);
    EXPECT_EQ(stats.runs, stats.passes + stats.fails + stats.context_not_ready +
                              stats.timeouts + stats.crashes)
        << name;
  }
}

// A probe/signal body can subscribe to context keys too (the context is
// subscription-only there): a dormant signal checker is skipped before
// dispatch exactly like a dormant mimic.
TEST(DriverShardingTest, SubscriptionEpochsSkipDormantSignalCheckers) {
  RealClock& clock = RealClock::Instance();
  static const auto kDepth = ContextKey<int64_t>::Of("scale.sub.sig_depth");
  CheckContext ctx("scale_sub_sig_ctx");
  ctx.Set(kDepth, 0);
  ctx.MarkReady(1);

  WatchdogDriver::Options options;
  options.executor.workers = 2;
  WatchdogDriver driver(clock, options);

  std::atomic<int64_t> samples{0};
  ASSERT_TRUE(CheckerBuilder("dormant-signal")
                  .Component("scale.sub")
                  .Interval(Ms(20))
                  .Deadline(Ms(400))
                  .WithContext(&ctx)
                  .SubscribeKey(kDepth)
                  .Signal(
                      "queue_depth",
                      [&samples] {
                        samples.fetch_add(1, std::memory_order_relaxed);
                        return 0.0;
                      },
                      [](double value) { return value < 100.0; })
                  .RegisterWith(driver)
                  .ok());
  ASSERT_TRUE(driver.Start().ok());

  // Dormant component: the subscribed key never advances, so after the
  // baseline sample every scheduled interval is skipped before dispatch.
  clock.SleepFor(Ms(300));
  const int64_t dormant_samples = samples.load();
  EXPECT_LE(dormant_samples, 2);
  EXPECT_GE(driver.DriverMetrics().skipped_unchanged, 5);
  EXPECT_GE(driver.StatsFor("dormant-signal").skipped_unchanged, 5);

  // The component publishes progress: the signal samples again.
  ctx.Set(kDepth, 1);
  ctx.MarkReady(2);
  const TimeNs resume_deadline = clock.NowNs() + Sec(5);
  while (samples.load() <= dormant_samples && clock.NowNs() < resume_deadline) {
    clock.SleepFor(Ms(5));
  }
  EXPECT_GT(samples.load(), dormant_samples);
  EXPECT_TRUE(driver.Stop().ok());
  EXPECT_TRUE(driver.Failures().empty());
}

// Work-stealing preserves hang isolation: a batch stolen by an idle sibling
// shard that then hangs is abandoned exactly once — on the STEALING shard's
// pool, where it actually ran — and its cancelled siblings re-dispatch.
TEST(DriverShardingTest, StolenBatchHangAbandonsOnceOnTheStealingShard) {
  RealClock& clock = RealClock::Instance();
  FaultInjector injector(clock);
  FaultSpec hang;
  hang.id = "stuck";
  hang.site_pattern = "steal.op";
  hang.kind = FaultKind::kHang;
  injector.Inject(hang);

  WatchdogDriver::Options options;
  options.shards = 2;
  options.executor.workers = 1;
  options.dispatch_batch = 4;
  options.max_sleep = Ms(20);  // the idle thief polls for steals frequently
  options.work_stealing = true;
  // Releasing the plug here (not only at the end of the test body) keeps an
  // early ASSERT exit from wedging Stop() on the never-returning plug.
  std::atomic<bool> plug_started{false};
  std::atomic<bool> plug_release{false};
  options.release_on_stop = [&injector, &plug_release] {
    injector.ClearAll();
    plug_release.store(true, std::memory_order_release);
  };
  WatchdogDriver driver(clock, options);

  // The plug occupies shard 0's only worker for the whole test, so the hung
  // batch (due later) can only ever execute via a shard-1 steal.
  CheckerOptions plug_options;
  plug_options.interval = Sec(10);
  plug_options.timeout = Sec(30);
  plug_options.shard_affinity = 0;
  driver.AddChecker(std::make_unique<ProbeChecker>(
      "plug", "steal",
      [&plug_started, &plug_release] {
        plug_started.store(true, std::memory_order_release);
        while (!plug_release.load(std::memory_order_acquire)) {
          RealClock::Instance().SleepFor(Ms(1));
        }
        return Status::Ok();
      },
      plug_options));
  // Shard 1's worker idles at Start(), and on a one-core box its scheduler
  // can win the race and steal the PLUG's batch before shard 0's own worker
  // is even scheduled — inverting the whole setup. This occupier keeps shard
  // 1 busy (no idle worker => no stealing) exactly until the plug is running
  // on its home shard, then gets out of the way.
  CheckerOptions occupier_options;
  occupier_options.interval = Sec(10);
  occupier_options.timeout = Sec(30);
  occupier_options.shard_affinity = 1;
  driver.AddChecker(std::make_unique<ProbeChecker>(
      "occupier", "steal",
      [&plug_started, &plug_release] {
        while (!plug_started.load(std::memory_order_acquire) &&
               !plug_release.load(std::memory_order_acquire)) {
          RealClock::Instance().SleepFor(Ms(1));
        }
        return Status::Ok();
      },
      occupier_options));

  CheckerOptions hung_options;
  hung_options.interval = Ms(20);
  hung_options.timeout = Ms(80);
  hung_options.initial_delay = Ms(100);  // after the plug owns the worker
  hung_options.shard_affinity = 0;
  driver.AddChecker(std::make_unique<MimicChecker>(
      "hung", "steal", nullptr,
      [&injector](const CheckContext&, MimicChecker&) {
        (void)injector.Act("steal.op");
        return CheckResult::Pass();
      },
      hung_options));
  constexpr int kSiblings = 3;
  std::atomic<int64_t> sibling_runs{0};
  for (int i = 0; i < kSiblings; ++i) {
    CheckerOptions copts;
    copts.interval = Ms(20);
    copts.timeout = Ms(400);
    copts.initial_delay = Ms(100);  // same due tick as "hung": one batch
    copts.shard_affinity = 0;
    driver.AddChecker(std::make_unique<ProbeChecker>(
        StrFormat("sib%d", i), "steal",
        [&sibling_runs] {
          sibling_runs.fetch_add(1, std::memory_order_relaxed);
          return Status::Ok();
        },
        copts));
  }
  ASSERT_TRUE(driver.Start().ok());

  // The plug must be running on its home pool (shard 0) before anything else
  // is due — verify rather than assume, so the scenario can't silently
  // invert. Poll: the occupier drains off shard 1 within a few ms of the
  // plug starting.
  const TimeNs plug_deadline = clock.NowNs() + Sec(5);
  bool plug_home = false;
  while (clock.NowNs() < plug_deadline) {
    if (plug_started.load(std::memory_order_acquire)) {
      const DriverMetricsSnapshot at_plug = driver.DriverMetrics();
      if (at_plug.shard_views[0].busy == 1 && at_plug.shard_views[1].busy == 0) {
        plug_home = true;
        break;
      }
    }
    clock.SleepFor(Ms(2));
  }
  ASSERT_TRUE(plug_home);

  ASSERT_TRUE(driver.WaitForFailure(Sec(5), [](const FailureSignature& sig) {
    return sig.type == FailureType::kLivenessTimeout && sig.checker_name == "hung";
  }));
  const int64_t runs_at_detect = sibling_runs.load();
  clock.SleepFor(Ms(300));
  const DriverMetricsSnapshot metrics = driver.DriverMetrics();

  // The hung batch could only execute via a steal — and its abandon landed on
  // the stealing shard's pool, exactly once. The home shard's worker (still
  // plugged) was never parked.
  EXPECT_GE(metrics.batches_stolen, 1);
  EXPECT_GE(metrics.shard_views[1].batches_stolen, 1);
  EXPECT_EQ(metrics.shard_views[1].workers_abandoned, 1);
  EXPECT_EQ(metrics.shard_views[0].workers_abandoned, 0);
  EXPECT_EQ(metrics.workers_abandoned, 1);
  EXPECT_EQ(metrics.timeouts, 1);
  // Cancelled siblings re-dispatched (stolen again by shard 1's replacement
  // worker) and kept accruing runs while the hang drains.
  EXPECT_GT(sibling_runs.load(), runs_at_detect);

  plug_release.store(true, std::memory_order_release);
  EXPECT_TRUE(driver.Stop().ok());
  EXPECT_EQ(injector.parked_thread_count(), 0);
  // Exactly-once accounting survives the steal: every counted run resolved to
  // exactly one outcome; cancelled siblings were un-counted, never dropped.
  for (const std::string& name : driver.CheckerNames()) {
    const CheckerStats stats = driver.StatsFor(name);
    EXPECT_EQ(stats.runs, stats.passes + stats.fails + stats.context_not_ready +
                              stats.timeouts + stats.crashes)
        << name;
  }
}

// The tentpole invariant, enforced: once the slab freelist, worker-pool ring
// and claim table, wheel buckets, and scheduler scratch are warm, a dispatch
// round performs ZERO heap allocations — executions are recycled slab slots,
// batch tickets are pre-encoded, and the sampled queue-delay histogram is a
// fixed array of buckets.
TEST(DriverScaleTest, SteadyStateDispatchIsAllocationFree) {
  RealClock& clock = RealClock::Instance();
  WatchdogDriver::Options options;
  options.executor.workers = 2;
  options.executor.queue_capacity = 1024;
  options.dispatch_batch = 8;
  options.per_checker_metrics = false;
  WatchdogDriver driver(clock, options);

  constexpr int kCheckers = 16;
  std::atomic<int64_t> total_runs{0};
  for (int i = 0; i < kCheckers; ++i) {
    CheckerOptions copts;
    copts.interval = Ms(5);
    copts.timeout = Sec(5);
    // Deliberately phase-aligned (no stagger): every tick dispatches the
    // whole fleet at once, so warmup's high-water marks (due scratch, slabs
    // in flight) already ARE the worst case. A one-core scheduler stall can
    // then never produce a catch-up burst bigger than a normal round — each
    // checker holds at most one wheel entry — which is what makes the
    // zero-allocation window deterministic instead of stall-flaky.
    copts.initial_delay = 0;
    driver.AddChecker(std::make_unique<ProbeChecker>(
        StrFormat("alloc%02d", i), "scale",
        [&total_runs] {
          total_runs.fetch_add(1, std::memory_order_relaxed);
          return Status::Ok();
        },
        copts));
  }
  ASSERT_TRUE(driver.Start().ok());
  // Warmup: fills the slab freelist, ring, claim table, wheel buckets, and
  // scratch vectors to their steady capacities.
  clock.SleepFor(Ms(500));
  const int64_t runs_before = total_runs.load();
  g_alloc_trace_budget.store(6, std::memory_order_relaxed);
  const int64_t allocs_before = g_heap_allocs.load(std::memory_order_relaxed);
  clock.SleepFor(Ms(400));  // steady state; no driver accessors touched
  const int64_t allocs_after = g_heap_allocs.load(std::memory_order_relaxed);
  g_alloc_trace_budget.store(0, std::memory_order_relaxed);
  const int64_t runs_after = total_runs.load();
  EXPECT_EQ(allocs_after - allocs_before, 0)
      << (allocs_after - allocs_before) << " heap allocations across "
      << (runs_after - runs_before) << " checks";
  EXPECT_GT(runs_after, runs_before + 100);  // the window really dispatched
  EXPECT_TRUE(driver.Stop().ok());
  EXPECT_TRUE(driver.Failures().empty());
}

// --- deadline-budget inference properties ---------------------------------
// InferDeadlineBudget is the pure rule behind per-checker hang deadlines:
// clamp(p99 x multiplier, floor, ceiling), falling back to the checker's
// static timeout when disabled or under-sampled. These pin the properties the
// driver relies on rather than specific numbers.

DeadlineBudgetOptions BudgetOptions() {
  DeadlineBudgetOptions options;
  options.enabled = true;
  options.tail_multiplier = 4.0;
  options.floor = Ms(20);
  options.ceiling = Sec(2);
  options.min_samples = 8;
  return options;
}

TEST(DeadlineBudgetTest, EmptyHistogramFallsBackToTheDefault) {
  Histogram hist;
  EXPECT_EQ(InferDeadlineBudget(hist, BudgetOptions(), Ms(400)), Ms(400));
}

TEST(DeadlineBudgetTest, UndersampledOrDisabledFallsBackToTheDefault) {
  DeadlineBudgetOptions options = BudgetOptions();
  Histogram hist;
  for (int i = 0; i < options.min_samples - 1; ++i) {
    hist.Record(static_cast<double>(Ms(50)));
  }
  EXPECT_EQ(InferDeadlineBudget(hist, options, Ms(400)), Ms(400));

  hist.Record(static_cast<double>(Ms(50)));  // now at min_samples
  EXPECT_NE(InferDeadlineBudget(hist, options, Ms(400)), Ms(400));
  options.enabled = false;
  EXPECT_EQ(InferDeadlineBudget(hist, options, Ms(400)), Ms(400));
}

TEST(DeadlineBudgetTest, BudgetsAreMonotoneInTheHistogramTail) {
  const DeadlineBudgetOptions options = BudgetOptions();
  Rng rng(0xb0d9e7);
  for (int trial = 0; trial < 50; ++trial) {
    Histogram base;
    Histogram stretched;
    const double stretch = 1.0 + rng.NextDouble() * 9.0;  // tail x1..x10
    const int samples = static_cast<int>(rng.Uniform(options.min_samples, 512));
    for (int i = 0; i < samples; ++i) {
      const double latency = static_cast<double>(rng.Uniform(Ms(1), Ms(200)));
      base.Record(latency);
      stretched.Record(latency * stretch);
    }
    const DurationNs lo = InferDeadlineBudget(base, options, Ms(400));
    const DurationNs hi = InferDeadlineBudget(stretched, options, Ms(400));
    EXPECT_GE(hi, lo) << "stretch " << stretch << " trial " << trial;
  }
}

TEST(DeadlineBudgetTest, BudgetsClampToFloorAndCeiling) {
  const DeadlineBudgetOptions options = BudgetOptions();
  Histogram tiny;   // microsecond checker: p99 x k is far below the floor
  Histogram huge;   // pathological tail: p99 x k is far above the ceiling
  for (int i = 0; i < 64; ++i) {
    tiny.Record(1000.0);                             // 1 us
    huge.Record(static_cast<double>(Sec(30)));
  }
  EXPECT_EQ(InferDeadlineBudget(tiny, options, Sec(10)), options.floor);
  EXPECT_EQ(InferDeadlineBudget(huge, options, Ms(1)), options.ceiling);
  // And between the clamps the rule is exactly p99 x multiplier.
  Histogram mid;
  for (int i = 0; i < 64; ++i) {
    mid.Record(static_cast<double>(Ms(50)));
  }
  EXPECT_EQ(InferDeadlineBudget(mid, options, Sec(10)),
            static_cast<DurationNs>(Ms(50) * options.tail_multiplier));
}

// Integration: a warmed budget replaces a huge static timeout, so a hang in a
// normally-fast checker is declared in milliseconds, not after the global
// deadline. Abandon/suspend/drain semantics are the same as the fixed path.
TEST(DeadlineBudgetTest, WarmedBudgetDetectsHangsFasterThanStaticTimeout) {
  RealClock& clock = RealClock::Instance();
  FaultInjector injector(clock);

  WatchdogDriver::Options options;
  options.executor.workers = 2;
  options.deadline_budget.enabled = true;
  options.deadline_budget.floor = Ms(40);
  options.deadline_budget.min_samples = 8;
  options.release_on_stop = [&injector] { injector.ClearAll(); };
  WatchdogDriver driver(clock, options);

  CheckerOptions fast;
  fast.interval = Ms(10);
  fast.timeout = Sec(30);  // absurd static deadline the budget must replace
  driver.AddChecker(std::make_unique<MimicChecker>(
      "fast", "budget", nullptr,
      [&injector](const CheckContext&, MimicChecker&) {
        (void)injector.Act("budget.op");
        return CheckResult::Pass();
      },
      fast));
  ASSERT_TRUE(driver.Start().ok());

  // Warm the latency histogram past min_samples and a refresh boundary.
  ASSERT_TRUE(WaitForStat(driver, clock, "fast", 24));
  const DriverMetricsSnapshot warmed = driver.DriverMetrics();
  ASSERT_LT(warmed.checker_deadline_ns.at("fast"), static_cast<double>(Sec(1)));

  FaultSpec hang;
  hang.id = "stuck";
  hang.site_pattern = "budget.op";
  hang.kind = FaultKind::kHang;
  injector.Inject(hang);
  // Detection must arrive on the budget's timescale; 5 s of grace is ~100x
  // the inferred deadline yet a fraction of the 30 s static timeout.
  EXPECT_TRUE(driver.WaitForFailure(Sec(5), [](const FailureSignature& sig) {
    return sig.type == FailureType::kLivenessTimeout && sig.checker_name == "fast";
  }));
  const DriverMetricsSnapshot metrics = driver.DriverMetrics();
  EXPECT_EQ(metrics.workers_abandoned, 1);
  EXPECT_EQ(metrics.timeouts, 1);
  EXPECT_TRUE(driver.Stop().ok());
  EXPECT_EQ(injector.parked_thread_count(), 0);
}

// Per-checker latency histograms exist only where a deadline budget reads
// them: none under default options, and under an enabled budget one for each
// adaptive checker but none for a checker that opted out of adaptation.
TEST(DeadlineBudgetTest, LatencyHistogramsExistOnlyForBudgetedAdaptiveCheckers) {
  RealClock& clock = RealClock::Instance();
  for (const bool budget : {false, true}) {
    WatchdogDriver::Options options;
    options.executor.workers = 2;
    options.deadline_budget.enabled = budget;
    WatchdogDriver driver(clock, options);
    CheckerOptions adaptive;
    adaptive.interval = Ms(5);
    CheckerOptions fixed = adaptive;
    fixed.adaptive_deadline = false;
    const auto pass = [](const CheckContext&, MimicChecker&) { return CheckResult::Pass(); };
    driver.AddChecker(std::make_unique<MimicChecker>("adaptive", "op", nullptr, pass, adaptive));
    driver.AddChecker(std::make_unique<MimicChecker>("fixed", "op", nullptr, pass, fixed));
    ASSERT_TRUE(driver.Start().ok());
    ASSERT_TRUE(WaitForStat(driver, clock, "adaptive", 4));
    ASSERT_TRUE(WaitForStat(driver, clock, "fixed", 4));
    const std::map<std::string, double> snapshot = driver.metrics().Snapshot();
    std::vector<std::string> per_checker;
    for (const auto& [name, value] : snapshot) {
      if (name.rfind("wdg.driver.checker.", 0) == 0) {
        per_checker.push_back(name);
      }
    }
    if (budget) {
      const std::string count = "wdg.driver.checker.adaptive.latency_ns.count";
      ASSERT_EQ(snapshot.count(count), 1u);
      EXPECT_GE(snapshot.at(count), 1.0);
      for (const std::string& name : per_checker) {
        EXPECT_EQ(name.rfind("wdg.driver.checker.adaptive.", 0), 0u) << name;
      }
    } else {
      EXPECT_EQ(per_checker, std::vector<std::string>{});
    }
    // Mean latency stays available without a histogram.
    const CheckerStats stats = driver.StatsFor("fixed");
    EXPECT_GT(stats.total_latency / stats.runs, 0);
    EXPECT_TRUE(driver.Stop().ok());
  }
}

}  // namespace
}  // namespace wdg
