// Driver scaling: pooled executor vs. the old thread-per-check execution.
//
// The pre-split driver spawned a fresh thread for every checker execution —
// at N checkers on a T-ms interval that is N*1000/T thread creations per
// second inside the monitored process. This bench replays that strategy (as a
// faithful local replica; the production driver no longer implements it) next
// to the pooled scheduler/executor at {1, 8, 64, 256} checkers and reports
// checks/sec, p99 queue delay (due -> body running), and threads created.
// Emits BENCH_driver_scale.json to seed the perf trajectory.
//
// The sharded rows run the fleet-scale configuration (8 scheduler shards,
// per-shard timer wheels, batched dispatch) at {1k, 10k, 100k, 1M} checkers,
// plus a mostly-dormant subscription fleet where checks are skipped because no
// subscribed context key advanced. The 1M row uses the wide-batch shape
// (dispatch_batch 64, ring 8192) and offers ~555k checks/sec through the
// recycled-slab dispatch path. --smoke-10k runs only the 10k sharded config
// and exits nonzero unless p99 queue delay and worker count stay in budget —
// CI's fast fleet-scale gate; --smoke-1m is the downscaled 1M-shape gate
// (200k checkers at the same offered rate).
//
//   ./bench_driver_scale [--quick] [--smoke-10k] [--smoke-1m] [--only-1m]
//
// --only-1m runs just the full 1M sharded row (no JSON) — the iteration loop
// for tuning the million-checker shape without paying for the other configs.
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "src/common/clock.h"
#include "src/common/metrics.h"
#include "src/common/strings.h"
#include "src/common/threading.h"
#include "src/eval/table.h"
#include "src/fault/fault_injector.h"
#include "src/watchdog/builder.h"
#include "src/watchdog/builtin_checkers.h"
#include "src/watchdog/context.h"
#include "src/watchdog/driver.h"

namespace {

constexpr wdg::DurationNs kInterval = wdg::Ms(50);
constexpr int kStormHangs = 8;  // hang-storm width in the storm rows

struct ModeResult {
  std::string mode;
  int checkers = 0;
  double checks_per_sec = 0;
  double p99_queue_delay_us = 0;
  int64_t threads_spawned = 0;

  // Sharded-mode extras (meaningful only for mode "sharded"/"sharded-idle").
  int shards = 0;
  int workers_per_shard = 0;
  int pool_workers = 0;
  int64_t batches_dispatched = 0;
  int64_t skipped_unchanged = 0;
  int64_t interval_ms = 0;
};

// The fleet-scale driver shape: 8 scheduler shards x 2 fixed workers, 16
// executions per pool task. per_checker_metrics off, as a 100k fleet must run.
wdg::WatchdogDriver::Options ShardedOptions() {
  wdg::WatchdogDriver::Options options;
  options.shards = 8;
  options.executor.workers = 2;
  options.executor.queue_capacity = 4096;
  options.dispatch_batch = 16;
  options.per_checker_metrics = false;
  return options;
}

// The million-checker shape: same shard/worker count (the box has one core to
// give), but wide dispatch batches and a deep ring so a 500k+/sec offered rate
// moves through the pools in large allocation-free strides.
wdg::WatchdogDriver::Options ShardedMillionOptions() {
  wdg::WatchdogDriver::Options options = ShardedOptions();
  options.executor.queue_capacity = 8192;
  options.dispatch_batch = 64;
  return options;
}

// Check interval for a sharded fleet: scaled with size so the aggregate rate
// (checkers / interval) stays in a band the pools can absorb without the
// bench measuring pure saturation. The 1M row deliberately offers ~555k/sec
// (1M / 1.8s) so a sustained >=500k checks/sec is a capacity statement, not
// an offered-rate echo.
wdg::DurationNs ShardedInterval(int checkers) {
  if (checkers <= 1000) {
    return wdg::Ms(50);
  }
  if (checkers <= 10000) {
    return wdg::Ms(200);
  }
  return checkers <= 100000 ? wdg::Sec(1) : wdg::Ms(1800);
}

ModeResult RunShardedWith(const wdg::WatchdogDriver::Options& options,
                          int checkers, wdg::DurationNs interval,
                          wdg::DurationNs duration) {
  wdg::RealClock& clock = wdg::RealClock::Instance();
  wdg::WatchdogDriver driver(clock, options);
  for (int i = 0; i < checkers; ++i) {
    wdg::CheckerOptions checker;
    checker.interval = interval;
    checker.timeout = wdg::Ms(400);
    // Uniform stagger across one full interval: the wheel sees a steady
    // trickle instead of 100k simultaneous deadlines at Start()+interval.
    checker.initial_delay = (interval / checkers) * i;
    driver.AddChecker(std::make_unique<wdg::ProbeChecker>(
        wdg::StrFormat("s%06d", i), "bench", [] { return wdg::Status::Ok(); },
        checker));
  }
  // The clock starts after Start() returns: thread spawn plus the initial
  // wheel schedule for a 1M fleet is setup, not serving, and its cost varies
  // with heap state (hundreds of ms when a prior config fragmented the
  // arenas) — folding it into the window understates steady-state capacity.
  (void)driver.Start();
  const wdg::TimeNs start = clock.NowNs();
  // duration + one interval: even a quick run lets every checker complete at
  // least one full scheduling cycle.
  clock.SleepFor(duration + interval);
  const wdg::DriverMetricsSnapshot metrics = driver.DriverMetrics();
  const double elapsed_s = static_cast<double>(clock.NowNs() - start) /
                           static_cast<double>(wdg::kNsPerSec);
  (void)driver.Stop();
  ModeResult result;
  result.mode = "sharded";
  result.checkers = checkers;
  result.checks_per_sec =
      static_cast<double>(metrics.executions_completed) / elapsed_s;
  result.p99_queue_delay_us = metrics.queue_delay_p99_ns / 1000.0;
  result.threads_spawned = metrics.threads_spawned;
  result.shards = metrics.shards;
  result.workers_per_shard = options.executor.workers;
  result.pool_workers = metrics.pool_workers;
  result.batches_dispatched = metrics.batches_dispatched;
  result.skipped_unchanged = metrics.skipped_unchanged;
  result.interval_ms = interval / wdg::kNsPerMs;
  return result;
}

ModeResult RunSharded(int checkers, wdg::DurationNs duration) {
  return RunShardedWith(
      checkers > 100000 ? ShardedMillionOptions() : ShardedOptions(), checkers,
      ShardedInterval(checkers), duration);
}

// A mostly-dormant fleet: every checker subscribes to one context key that
// never advances after the initial publish, so each runs its body once (the
// subscription baseline) and is thereafter skipped at dispatch time. The
// interesting number is skipped_unchanged >> checks completed.
ModeResult RunShardedIdle(int checkers, wdg::DurationNs duration) {
  wdg::RealClock& clock = wdg::RealClock::Instance();
  wdg::WatchdogDriver driver(clock, ShardedOptions());
  const wdg::DurationNs interval = wdg::Ms(20);
  wdg::CheckContext context("bench.idle");
  const auto progress = wdg::ContextKey<int64_t>::Of("bench.idle.progress");
  context.Set(progress, 0);
  context.MarkReady(1);  // publish: epochs only advance on MarkReady
  for (int i = 0; i < checkers; ++i) {
    wdg::Status status =
        wdg::CheckerBuilder(wdg::StrFormat("i%06d", i))
            .Component("bench")
            .Interval(interval)
            .Deadline(wdg::Ms(400))
            .InitialDelay((interval / checkers) * i)
            .WithContext(&context)
            .SubscribeKey(progress)
            .Mimic([](const wdg::CheckContext&, wdg::MimicChecker&) {
              return wdg::CheckResult::Pass();
            })
            .RegisterWith(driver);
    if (!status.ok()) {
      std::fprintf(stderr, "sharded-idle registration failed: %s\n",
                   status.ToString().c_str());
      break;
    }
  }
  (void)driver.Start();
  const wdg::TimeNs start = clock.NowNs();  // serving window only, as above
  clock.SleepFor(duration + interval);
  const wdg::DriverMetricsSnapshot metrics = driver.DriverMetrics();
  const double elapsed_s = static_cast<double>(clock.NowNs() - start) /
                           static_cast<double>(wdg::kNsPerSec);
  (void)driver.Stop();
  ModeResult result;
  result.mode = "sharded-idle";
  result.checkers = checkers;
  result.checks_per_sec =
      static_cast<double>(metrics.executions_completed) / elapsed_s;
  result.p99_queue_delay_us = metrics.queue_delay_p99_ns / 1000.0;
  result.threads_spawned = metrics.threads_spawned;
  result.shards = metrics.shards;
  result.workers_per_shard = ShardedOptions().executor.workers;
  result.pool_workers = metrics.pool_workers;
  result.batches_dispatched = metrics.batches_dispatched;
  result.skipped_unchanged = metrics.skipped_unchanged;
  result.interval_ms = interval / wdg::kNsPerMs;
  return result;
}

// The old driver, distilled: a 2ms polling tick over every slot, one new
// thread per due execution.
ModeResult RunThreadPerCheck(int checkers, wdg::DurationNs duration) {
  wdg::RealClock& clock = wdg::RealClock::Instance();
  wdg::Histogram delay;
  std::atomic<int64_t> completed{0};
  std::vector<wdg::TimeNs> next_run(checkers);
  const wdg::TimeNs start = clock.NowNs();
  for (int i = 0; i < checkers; ++i) {
    next_run[i] = start + wdg::Ms(i % 50);  // same stagger as the pooled run
  }
  std::vector<std::unique_ptr<wdg::JoiningThread>> threads;
  int64_t spawned = 0;
  while (clock.NowNs() - start < duration) {
    const wdg::TimeNs now = clock.NowNs();
    for (int i = 0; i < checkers; ++i) {
      if (now < next_run[i]) {
        continue;
      }
      next_run[i] = now + kInterval;
      ++spawned;
      const wdg::TimeNs due = now;
      threads.push_back(std::make_unique<wdg::JoiningThread>(
          [&clock, &delay, &completed, due] {
            delay.Record(static_cast<double>(clock.NowNs() - due));
            completed.fetch_add(1, std::memory_order_relaxed);
          }));
      if (threads.size() >= 1024) {
        threads.clear();  // join the finished backlog so memory stays bounded
      }
    }
    clock.SleepFor(wdg::Ms(2));  // the old fixed tick
  }
  threads.clear();
  const double elapsed_s = static_cast<double>(clock.NowNs() - start) /
                           static_cast<double>(wdg::kNsPerSec);
  ModeResult result;
  result.mode = "thread-per-check";
  result.checkers = checkers;
  result.checks_per_sec = static_cast<double>(completed.load()) / elapsed_s;
  result.p99_queue_delay_us = delay.Percentile(99) / 1000.0;
  result.threads_spawned = spawned;
  return result;
}

ModeResult RunPooled(int checkers, wdg::DurationNs duration) {
  wdg::RealClock& clock = wdg::RealClock::Instance();
  wdg::WatchdogDriver::Options options;
  options.executor.workers = 4;
  options.executor.queue_capacity = 512;
  wdg::WatchdogDriver driver(clock, options);
  for (int i = 0; i < checkers; ++i) {
    wdg::CheckerOptions checker;
    checker.interval = kInterval;
    checker.timeout = wdg::Ms(400);
    checker.initial_delay = wdg::Ms(i % 50);
    driver.AddChecker(std::make_unique<wdg::ProbeChecker>(
        wdg::StrFormat("p%03d", i), "bench", [] { return wdg::Status::Ok(); },
        checker));
  }
  const wdg::TimeNs start = clock.NowNs();
  (void)driver.Start();
  clock.SleepFor(duration);
  const wdg::DriverMetricsSnapshot metrics = driver.DriverMetrics();
  const double elapsed_s = static_cast<double>(clock.NowNs() - start) /
                           static_cast<double>(wdg::kNsPerSec);
  (void)driver.Stop();
  ModeResult result;
  result.mode = "pooled";
  result.checkers = checkers;
  result.checks_per_sec =
      static_cast<double>(metrics.executions_completed) / elapsed_s;
  result.p99_queue_delay_us = metrics.queue_delay_p99_ns / 1000.0;
  result.threads_spawned = metrics.threads_spawned;
  return result;
}

// The storm run ("pooled-storm"): same probe fleet and fixed pool as
// RunPooled, but kStormHangs checkers wedge on injected faults mid-run — each
// eats a worker until the driver abandons it at its deadline and respawns a
// replacement, so the pool loses a worker exactly when the queue is backing
// up.
ModeResult RunStorm(int checkers, wdg::DurationNs duration) {
  wdg::RealClock& clock = wdg::RealClock::Instance();
  wdg::FaultInjector injector(clock, /*seed=*/0x5eedbe9c);
  wdg::WatchdogDriver::Options options;
  options.executor.queue_capacity = 512;
  options.executor.workers = 4;  // same fixed pool as RunPooled
  wdg::WatchdogDriver driver(clock, options);

  const int hangs = checkers >= kStormHangs ? kStormHangs : 0;
  for (int i = 0; i < checkers - hangs; ++i) {
    wdg::CheckerOptions checker;
    checker.interval = kInterval;
    checker.timeout = wdg::Ms(400);
    checker.initial_delay = wdg::Ms(i % 50);
    driver.AddChecker(std::make_unique<wdg::ProbeChecker>(
        wdg::StrFormat("p%03d", i), "bench", [] { return wdg::Status::Ok(); },
        checker));
  }
  for (int i = 0; i < hangs; ++i) {
    wdg::CheckerOptions checker;
    checker.interval = kInterval;
    checker.timeout = wdg::Ms(60);  // static deadline so abandonment is quick
    checker.adaptive_deadline = false;
    checker.initial_delay = wdg::Ms(i % 50);
    const std::string site = wdg::StrFormat("bench.hang.%d", i);
    driver.AddChecker(std::make_unique<wdg::MimicChecker>(
        wdg::StrFormat("h%03d", i), "bench", nullptr,
        [&injector, site](const wdg::CheckContext&, wdg::MimicChecker&) {
          (void)injector.Act(site);
          return wdg::CheckResult::Pass();
        },
        checker));
  }

  const wdg::TimeNs start = clock.NowNs();
  (void)driver.Start();
  // Let the fleet warm up, then storm: every hang site wedges at once.
  clock.SleepFor(duration / 4);
  for (int i = 0; i < hangs; ++i) {
    wdg::FaultSpec spec;
    spec.id = wdg::StrFormat("storm.%d", i);
    spec.site_pattern = wdg::StrFormat("bench.hang.%d", i);
    spec.kind = wdg::FaultKind::kHang;
    injector.Inject(spec);
  }
  clock.SleepFor(duration / 2);
  injector.ClearAll();  // release the wedged threads; drains complete
  clock.SleepFor(duration / 4);

  const wdg::DriverMetricsSnapshot metrics = driver.DriverMetrics();
  const double elapsed_s = static_cast<double>(clock.NowNs() - start) /
                           static_cast<double>(wdg::kNsPerSec);

  (void)driver.Stop();

  ModeResult result;
  result.mode = "pooled-storm";
  result.checkers = checkers;
  result.checks_per_sec =
      static_cast<double>(metrics.executions_completed) / elapsed_s;
  result.p99_queue_delay_us = metrics.queue_delay_p99_ns / 1000.0;
  result.threads_spawned = metrics.threads_spawned;
  return result;
}

void WriteJson(const std::vector<ModeResult>& results, wdg::DurationNs duration) {
  FILE* out = std::fopen("BENCH_driver_scale.json", "w");
  if (out == nullptr) {
    std::fprintf(stderr, "could not open BENCH_driver_scale.json for writing\n");
    return;
  }
  std::fprintf(out, "{\n  \"bench\": \"driver_scale\",\n");
  std::fprintf(out, "  \"interval_ms\": %lld,\n",
               static_cast<long long>(kInterval / wdg::kNsPerMs));
  std::fprintf(out, "  \"duration_ms\": %lld,\n",
               static_cast<long long>(duration / wdg::kNsPerMs));
  std::fprintf(out, "  \"configs\": [\n");
  for (size_t i = 0; i < results.size(); ++i) {
    const ModeResult& r = results[i];
    std::fprintf(out,
                 "    {\"checkers\": %d, \"mode\": \"%s\", "
                 "\"checks_per_sec\": %.1f, \"p99_queue_delay_us\": %.1f, "
                 "\"threads_spawned\": %lld",
                 r.checkers, r.mode.c_str(), r.checks_per_sec,
                 r.p99_queue_delay_us, static_cast<long long>(r.threads_spawned));
    if (r.shards > 0) {
      std::fprintf(out,
                   ", \"shards\": %d, \"workers_per_shard\": %d, "
                   "\"pool_workers\": %d, \"batches_dispatched\": %lld, "
                   "\"skipped_unchanged\": %lld, \"interval_ms\": %lld",
                   r.shards, r.workers_per_shard, r.pool_workers,
                   static_cast<long long>(r.batches_dispatched),
                   static_cast<long long>(r.skipped_unchanged),
                   static_cast<long long>(r.interval_ms));
    }
    std::fprintf(out, "}%s\n", i + 1 < results.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
  std::printf("\nwrote BENCH_driver_scale.json\n");
}

// CI's fleet-scale gate: run only the 10k sharded config, self-check, and
// exit nonzero on a budget miss so the pipeline fails without parsing JSON.
int RunSmoke10k() {
  std::printf("=== driver scaling: 10k sharded smoke ===\n");
  const ModeResult r = RunSharded(10000, wdg::Ms(600));
  const int worker_cap = r.shards * r.workers_per_shard;
  bool ok = true;
  std::printf("checks/sec %.0f, p99 queue delay %.0f us, pool workers %d "
              "(cap %d), batches %lld\n",
              r.checks_per_sec, r.p99_queue_delay_us, r.pool_workers,
              worker_cap, static_cast<long long>(r.batches_dispatched));
  if (r.p99_queue_delay_us > 500.0) {
    std::fprintf(stderr, "SMOKE FAIL: p99 queue delay %.0f us > 500 us\n",
                 r.p99_queue_delay_us);
    ok = false;
  }
  if (r.pool_workers > worker_cap) {
    std::fprintf(stderr, "SMOKE FAIL: pool workers %d > shards x pool size %d\n",
                 r.pool_workers, worker_cap);
    ok = false;
  }
  if (r.checks_per_sec <= 0) {
    std::fprintf(stderr, "SMOKE FAIL: no checks completed\n");
    ok = false;
  }
  std::printf("10k sharded smoke: %s\n", ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}

// Downscaled replica of the 1M row for CI: the million-checker options and
// the same ~500k/sec offered rate, but a 200k fleet and a sub-second window
// so the gate stays fast. Registration alone for a true 1M fleet takes longer
// than CI wants; capacity per core is what the row actually proves, and that
// is preserved by holding offered-rate and driver shape constant.
int RunSmoke1M() {
  std::printf("=== driver scaling: 1M-shape sharded smoke (200k @ 400ms) ===\n");
  const ModeResult r = RunShardedWith(ShardedMillionOptions(), 200000,
                                      wdg::Ms(400), wdg::Ms(800));
  const int worker_cap = r.shards * r.workers_per_shard;
  bool ok = true;
  std::printf("checks/sec %.0f, p99 queue delay %.0f us, pool workers %d "
              "(cap %d), batches %lld\n",
              r.checks_per_sec, r.p99_queue_delay_us, r.pool_workers,
              worker_cap, static_cast<long long>(r.batches_dispatched));
  if (r.checks_per_sec < 250000.0) {
    std::fprintf(stderr,
                 "SMOKE FAIL: %.0f checks/sec < 250k at the 1M driver shape\n",
                 r.checks_per_sec);
    ok = false;
  }
  if (r.p99_queue_delay_us > 50000.0) {
    std::fprintf(stderr, "SMOKE FAIL: p99 queue delay %.0f us > 50 ms\n",
                 r.p99_queue_delay_us);
    ok = false;
  }
  if (r.pool_workers > worker_cap) {
    std::fprintf(stderr, "SMOKE FAIL: pool workers %d > shards x pool size %d\n",
                 r.pool_workers, worker_cap);
    ok = false;
  }
  std::printf("1M-shape sharded smoke: %s\n", ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  bool smoke_10k = false;
  bool smoke_1m = false;
  bool only_1m = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[i], "--smoke-10k") == 0) {
      smoke_10k = true;
    } else if (std::strcmp(argv[i], "--smoke-1m") == 0) {
      smoke_1m = true;
    } else if (std::strcmp(argv[i], "--only-1m") == 0) {
      only_1m = true;
    }
  }
  if (smoke_10k) {
    return RunSmoke10k();  // no JSON: the smoke never perturbs trend baselines
  }
  if (smoke_1m) {
    return RunSmoke1M();
  }
  if (only_1m) {
    const ModeResult r = RunSharded(1000000, wdg::Sec(1));
    std::printf("sharded @ %d checkers: %.0f checks/s, p99 %.0f us, "
                "%d workers (cap %d), %lld batches\n",
                r.checkers, r.checks_per_sec, r.p99_queue_delay_us,
                r.pool_workers, r.shards * r.workers_per_shard,
                static_cast<long long>(r.batches_dispatched));
    return 0;
  }
  const wdg::DurationNs duration = quick ? wdg::Ms(300) : wdg::Sec(1);
  const std::vector<int> fleet_sizes = {1, 8, 64, 256};
  const std::vector<int> sharded_fleets =
      quick ? std::vector<int>{1000, 10000}
            : std::vector<int>{1000, 10000, 100000, 1000000};

  std::printf("=== driver scaling: pooled executor vs thread-per-check ===\n");
  std::printf("interval %lld ms, %s run (%lld ms per config)\n\n",
              static_cast<long long>(kInterval / wdg::kNsPerMs),
              quick ? "quick" : "full",
              static_cast<long long>(duration / wdg::kNsPerMs));

  std::vector<ModeResult> results;
  for (const int checkers : fleet_sizes) {
    results.push_back(RunThreadPerCheck(checkers, duration));
    results.push_back(RunPooled(checkers, duration));
    if (checkers >= 64) {
      // A hang storm only backs the queue up where there is enough load.
      results.push_back(RunStorm(checkers, duration));
    }
  }
  for (const int checkers : sharded_fleets) {
    results.push_back(RunSharded(checkers, duration));
  }
  results.push_back(RunShardedIdle(quick ? 1000 : 10000, duration));

  wdg::TablePrinter table({{"checkers", 9},
                           {"mode", 17},
                           {"checks/sec", 11},
                           {"p99 q-delay (us)", 17},
                           {"threads spawned", 16},
                           {"batches/skipped", 16}});
  table.PrintHeader();
  for (const ModeResult& r : results) {
    table.PrintRow(
        {wdg::StrFormat("%d", r.checkers), r.mode,
         wdg::StrFormat("%.0f", r.checks_per_sec),
         wdg::StrFormat("%.0f", r.p99_queue_delay_us),
         wdg::StrFormat("%lld", static_cast<long long>(r.threads_spawned)),
         r.shards > 0
             ? wdg::StrFormat("%lld/%lld",
                              static_cast<long long>(r.batches_dispatched),
                              static_cast<long long>(r.skipped_unchanged))
             : "-"});
  }
  table.PrintRule();
  std::printf("\nthe pooled executor holds thread creation flat (pool size) while "
              "thread-per-check grows linearly with fleet size * rate; the "
              "pooled-storm rows additionally absorb a hang storm of %d "
              "checkers on the same fixed pool\n", kStormHangs);
  for (const ModeResult& r : results) {
    if (r.mode == "sharded") {
      std::printf("sharded @ %d checkers: %.0f checks/s, p99 %.0f us, "
                  "%d workers (cap %d = shards x pool)%s\n",
                  r.checkers, r.checks_per_sec, r.p99_queue_delay_us,
                  r.pool_workers, r.shards * r.workers_per_shard,
                  r.pool_workers <= r.shards * r.workers_per_shard
                      ? "" : " (OVER worker cap)");
    } else if (r.mode == "sharded-idle") {
      std::printf("sharded-idle @ %d checkers: %lld runs skipped with "
                  "subscribed keys unchanged, %.0f checks/s actually ran\n",
                  r.checkers, static_cast<long long>(r.skipped_unchanged),
                  r.checks_per_sec);
    }
  }
  WriteJson(results, duration);
  return 0;
}
