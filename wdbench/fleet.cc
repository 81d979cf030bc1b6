#include "wdbench/fleet.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/common/strings.h"
#include "src/common/threading.h"
#include "src/watchdog/builder.h"
#include "src/watchdog/context.h"
#include "src/watchdog/driver.h"
#include "wdbench/trace.h"

namespace wdbench {

namespace {

using wdg::DurationNs;
using wdg::TimeNs;

wdg::RealClock& Clock() { return wdg::RealClock::Instance(); }

// The fleet: kCheckers mimics every kInterval over kContexts contexts.
constexpr int kCheckers = 10000;
constexpr int kContexts = 64;
constexpr DurationNs kInterval = wdg::Ms(10);
// Publisher cadence: every tick it fires each active context's hook once.
constexpr DurationNs kPublishTick = wdg::Us(500);
// In the traced run one body in kTraceEvery records spans and timings.
constexpr int64_t kTraceEvery = 16;
// Capacity and CPU per check are medians over slices of the timed window.
constexpr DurationNs kSlice = wdg::Ms(250);

// Body-side run counters, one cache line per executor thread. They are read
// while the fleet runs instead of DriverMetrics()/StatsFor(), which take the
// scheduler's shard mutex and, under saturation, stall both the reader and
// the scheduler.
struct alignas(64) RunCounters {
  std::atomic<int64_t> runs{0};
  std::atomic<int64_t> quiet_runs{0};
  std::atomic<int64_t> fails{0};
};
constexpr size_t kCounterSlots = 64;

struct FleetTotals {
  int64_t runs = 0;
  int64_t quiet_runs = 0;
  int64_t fails = 0;
};

// State shared by every fleet checker body and the publisher.
struct FleetShared {
  FleetShared() : last_start(static_cast<size_t>(kCheckers)) {}

  RunCounters& Local() {
    static std::atomic<size_t> next_slot{0};
    thread_local const size_t slot = next_slot.fetch_add(1) % kCounterSlots;
    return counters[slot];
  }
  FleetTotals Totals() const {
    FleetTotals totals;
    for (const RunCounters& c : counters) {
      totals.runs += c.runs.load(std::memory_order_relaxed);
      totals.quiet_runs += c.quiet_runs.load(std::memory_order_relaxed);
      totals.fails += c.fails.load(std::memory_order_relaxed);
    }
    return totals;
  }

  const wdg::ContextKey<int64_t> seq = wdg::ContextKey<int64_t>::Of("wdbench.fleet.seq");
  const wdg::ContextKey<std::string> tag = wdg::ContextKey<std::string>::Of("wdbench.fleet.tag");
  std::array<RunCounters, kCounterSlots> counters;
  // Per checker, traced run only: start of its previous run in this round.
  std::vector<std::atomic<TimeNs>> last_start;
  const int quiet_from = kContexts / 2;  // contexts >= this go quiet
  SampleSink get_ns{1 << 16, 11};
  SampleSink jitter_ns{1 << 16, 12};
  SampleSink site_ns{1 << 16, 13};
  SampleSink fire_ns{1 << 16, 14};
};

wdg::CheckResult Verify(const std::optional<int64_t>& seq, const std::optional<std::string>& tag) {
  if (seq.has_value() && *seq >= 0 && tag.has_value() && !tag->empty()) {
    return wdg::CheckResult::Pass();
  }
  wdg::FailureSignature signature;
  signature.type = wdg::FailureType::kOperationError;
  signature.code = wdg::StatusCode::kCorruption;
  signature.message = "fleet context lost a published key";
  return wdg::CheckResult::Fail(std::move(signature));
}

wdg::CheckResult FleetBody(FleetShared& shared, size_t index, bool quiet,
                           const wdg::CheckContext& ctx) {
  RunCounters& counters = shared.Local();
  const int64_t run = counters.runs.fetch_add(1, std::memory_order_relaxed);
  if (quiet) {
    counters.quiet_runs.fetch_add(1, std::memory_order_relaxed);
  }
  Tracer& tracer = Tracer::Instance();
  TimeNs start = 0;
  TimeNs last = 0;
  if (tracer.enabled()) {
    // Every run stamps its start, so a sampled run's gap spans one period.
    start = Clock().NowNs();
    last = shared.last_start[index].exchange(start, std::memory_order_relaxed);
  }
  wdg::CheckResult result;
  if (!tracer.enabled() || run % kTraceEvery != 0) {
    result = Verify(ctx.Get(shared.seq), ctx.Get(shared.tag));
  } else {
    if (last != 0) {
      shared.jitter_ns.Add(static_cast<double>(start - last - kInterval));
    }
    const uint64_t body_id = tracer.NewId();
    const TimeNs get_start = Clock().NowNs();
    const std::optional<int64_t> seq = ctx.Get(shared.seq);
    const std::optional<std::string> tag = ctx.Get(shared.tag);
    const TimeNs get_end = Clock().NowNs();
    shared.get_ns.Add(static_cast<double>(get_end - get_start) / 2);  // two reads
    tracer.Record("context.get", tracer.NewId(), body_id, body_id, get_start, get_end);
    result = Verify(seq, tag);
    tracer.Record("checker.body", body_id, 0, body_id, start, Clock().NowNs());
  }
  if (result.outcome == wdg::CheckOutcome::kFail) {
    counters.fails.fetch_add(1, std::memory_order_relaxed);
  }
  return result;
}

// Fires hook sites into the fleet's contexts: every tick, each of the first
// `active` contexts gets one two-value publish (sequence number + tag).
class Publisher {
 public:
  Publisher(wdg::HookSet& hooks, FleetShared& shared, size_t tag_bytes, uint64_t seed)
      : hooks_(hooks), shared_(shared), active_(kContexts) {
    wdg::Rng rng(seed ^ 0x9ab11cULL);
    for (int c = 0; c < kContexts; ++c) {
      sites_.push_back(wdg::StrFormat("FleetPublish:%d", c));
      std::string tag = wdg::StrFormat("ctx%02d-", c);
      while (tag.size() < tag_bytes) {
        tag.push_back(static_cast<char>('a' + rng.Uniform(0, 25)));
      }
      tags_.push_back(std::move(tag));
    }
  }
  ~Publisher() { Stop(); }

  // One publish into every context (before the driver starts).
  void PublishAll() {
    for (size_t c = 0; c < sites_.size(); ++c) {
      Publish(c);
    }
  }
  void Start() {
    thread_ = wdg::JoiningThread([this] {
      TimeNs next = Clock().NowNs();
      while (!stop_.Requested()) {
        const int active = active_.load(std::memory_order_relaxed);
        for (int c = 0; c < active; ++c) {
          Publish(static_cast<size_t>(c));
        }
        next += kPublishTick;
        const TimeNs now = Clock().NowNs();
        if (next > now) {
          Clock().SleepFor(next - now);
        } else {
          next = now;  // fell behind: do not burst to catch up
        }
      }
    });
  }
  void Stop() {
    stop_.Request();
    thread_.Join();
  }
  void SetActive(int active) { active_.store(active, std::memory_order_relaxed); }
  int64_t fires() const { return fires_.load(std::memory_order_relaxed); }

 private:
  void Publish(size_t c) {
    const int64_t seq = fires_.fetch_add(1, std::memory_order_relaxed);
    auto fill = [&](wdg::CheckContext& ctx) {
      ctx.Set(shared_.seq, seq);
      ctx.Set(shared_.tag, tags_[c]);
      ctx.MarkReady(Clock().NowNs());
    };
    Tracer& tracer = Tracer::Instance();
    if (!tracer.enabled()) {
      hooks_.Site(sites_[c])->Fire(fill);
      return;
    }
    const TimeNs t0 = Clock().NowNs();
    wdg::HookSite* site = hooks_.Site(sites_[c]);
    const TimeNs t1 = Clock().NowNs();
    site->Fire(fill);
    const TimeNs t2 = Clock().NowNs();
    shared_.site_ns.Add(static_cast<double>(t1 - t0));
    shared_.fire_ns.Add(static_cast<double>(t2 - t1));
    if (seq % kTraceEvery == 0) {
      tracer.Record("hook.fire", tracer.NewId(), 0, 0, t0, t2);
    }
  }

  wdg::HookSet& hooks_;
  FleetShared& shared_;
  std::vector<std::string> sites_;
  std::vector<std::string> tags_;
  std::atomic<int> active_;
  std::atomic<int64_t> fires_{0};
  wdg::StopFlag stop_;
  wdg::JoiningThread thread_;
};

}  // namespace

void RunFleetStage(const FleetStageOptions& options, Report& report, SetupTimes& setup) {
  FleetShared shared;
  wdg::HookSet hooks;
  std::vector<wdg::CheckContext*> contexts;
  for (int c = 0; c < kContexts; ++c) {
    const std::string ctx_name = wdg::StrFormat("fleet_ctx_%02d", c);
    hooks.Arm(wdg::StrFormat("FleetPublish:%d", c), ctx_name);
    contexts.push_back(hooks.Context(ctx_name));
  }
  // Every context is ready before the first check.
  Publisher(hooks, shared, options.tag_bytes, options.seed).PublishAll();

  std::vector<std::string> names;
  for (int i = 0; i < kCheckers; ++i) {
    names.push_back(wdg::StrFormat("fleet-%05d", i));
  }

  // Under overload the driver settles into runs of very different
  // throughput (the share of dispatches that hit a full queue differs from
  // start to start), so the fleet is started `rounds` times and each figure
  // is the median over rounds of the round's median over its slices.
  const int rounds = std::max(1, options.rounds);
  const DurationNs window = options.duration / rounds;
  const DurationNs slice = std::min<DurationNs>(kSlice, window / 4);
  std::vector<double> round_rate, round_cpu_us, round_util, round_delay_us,
      round_lag_us, round_rejections;
  std::string round_notes;
  int64_t runs = 0, quiet_runs = 0, failed = 0, fires = 0;
  double wall_s = 0;
  for (int round = 0; round < rounds; ++round) {
    wdg::Rng rng(options.seed ^ (0xf1ee7ULL + static_cast<uint64_t>(round)));
    for (std::atomic<TimeNs>& last : shared.last_start) {
      last.store(0, std::memory_order_relaxed);
    }
    setup.Begin();
    auto driver = std::make_unique<wdg::WatchdogDriver>(Clock());
    wdg::Status status;
    for (int i = 0; i < kCheckers && status.ok(); ++i) {
      const size_t index = static_cast<size_t>(i);
      const int context = i % kContexts;
      const bool quiet = context >= shared.quiet_from;
      status = wdg::CheckerBuilder(names[index])
                   .Component(wdg::StrFormat("fleet.ctx%02d", context))
                   .Interval(kInterval)
                   .InitialDelay(rng.Uniform(0, kInterval - 1))
                   .WithContext(contexts[static_cast<size_t>(context)])
                   .Mimic([&shared, index, quiet](const wdg::CheckContext& ctx,
                                                  wdg::MimicChecker&) {
                     return FleetBody(shared, index, quiet, ctx);
                   })
                   .RegisterWith(*driver);
    }
    if (status.ok()) {
      status = driver->Start();
    }
    setup.End();
    if (!status.ok()) {
      report.correct = false;
      report.Note("fleet: set-up failed: " + status.ToString());
      return;
    }

    // The publisher runs only after set-up, so set-up time is the driver's.
    // Warm-up with every context active, then half of them go quiet.
    Publisher publisher(hooks, shared, options.tag_bytes, options.seed);
    publisher.Start();
    Clock().SleepFor(std::min<DurationNs>(wdg::Ms(500), window / 2));
    publisher.SetActive(shared.quiet_from);
    Clock().SleepFor(kInterval * 2);

    // Timed window, read only through the lock-free body counters and the
    // driver's utilization gauge.
    const wdg::Gauge* utilization_gauge =
        driver->metrics().FindGauge("wdg.driver.pool.utilization");
    const FleetTotals t0 = shared.Totals();
    const int64_t fires0 = publisher.fires();
    const TimeNs start = Clock().NowNs();
    std::vector<double> slice_rate, slice_cpu_us, utilization;
    FleetTotals last = t0;
    int64_t last_cpu = ProcessCpuNs();
    TimeNs last_at = start;
    while (last_at - start < window) {
      Clock().SleepFor(slice);
      const FleetTotals t = shared.Totals();
      const int64_t cpu = ProcessCpuNs();
      const TimeNs now = Clock().NowNs();
      const int64_t done = t.runs - last.runs;
      slice_rate.push_back(static_cast<double>(done) / ToS(now - last_at));
      slice_cpu_us.push_back(done == 0 ? 0 : static_cast<double>(cpu - last_cpu) / 1e3 / done);
      if (utilization_gauge != nullptr) {
        utilization.push_back(utilization_gauge->Value());
      }
      last = t;
      last_cpu = cpu;
      last_at = now;
    }
    fires += publisher.fires() - fires0;
    wall_s += ToS(last_at - start);
    publisher.Stop();
    (void)driver->Stop();
    // Driver-side totals since Start, read once the driver has stopped:
    // DriverMetrics() takes the shard mutex the saturated scheduler holds.
    const wdg::DriverMetricsSnapshot m = driver->DriverMetrics();

    runs += last.runs - t0.runs;
    quiet_runs += last.quiet_runs - t0.quiet_runs;
    failed += (last.fails - t0.fails) + m.timeouts + m.crashes;
    round_rate.push_back(Median(slice_rate));
    round_cpu_us.push_back(Median(slice_cpu_us));
    round_util.push_back(Mean(utilization));
    round_delay_us.push_back(m.queue_delay_p99_ns / 1e3);
    round_lag_us.push_back(m.scheduler_lag_ns / 1e3);
    round_rejections.push_back(static_cast<double>(m.queue_rejections));
    round_notes += wdg::StrFormat(" %.0f", round_rate.back());
  }

  const double offered = static_cast<double>(kCheckers) / ToS(kInterval);
  const double checks_per_s = Median(round_rate);
  report.attempted += runs;
  report.failed += failed;
  if (checks_per_s >= offered * 0.95) {
    // The driver kept up, so checks_per_s echoes the offered rate instead
    // of measuring capacity: the stage's output is invalid.
    report.correct = false;
    report.Note("fleet: completed checks reach the offered rate; capacity not measured");
  }
  report.Note(wdg::StrFormat(
      "fleet: %d checkers every %.0f ms on %d contexts (%d active): offered %.0f checks/s, "
      "completed %.0f checks/s (median of %d rounds; mean %.0f); %lld failed checks; "
      "publisher %.0f fires/s",
      kCheckers, ToMs(kInterval), kContexts, shared.quiet_from, offered,
      checks_per_s, rounds, runs / wall_s, static_cast<long long>(failed), fires / wall_s));
  report.Note("fleet: checks/s per round:" + round_notes);

  report.Add("checks_per_s", checks_per_s, "checks/s");
  report.Add("cpu_us_per_check", Median(round_cpu_us), "us");
  report.Add("fleet.offered_checks_per_s", offered, "checks/s");
  report.Add("fleet.error_rate", runs == 0 ? 0 : static_cast<double>(failed) / runs, "ratio");
  report.Add("driver.checks_completed", static_cast<double>(runs), "count");
  report.Add("driver.queue_delay_p99_us", Median(round_delay_us), "us");
  report.Add("driver.scheduler_lag_us", Median(round_lag_us), "us");
  report.Add("driver.dormant_run_ratio",
             runs == 0 ? 0 : static_cast<double>(quiet_runs) / runs, "ratio");
  report.Add("executor.utilization", Median(round_util), "ratio");
  report.Add("executor.queue_rejections", Median(round_rejections), "count");
  if (Tracer::Instance().enabled()) {
    report.Add("hook.site_lookup_ns_p50", Median(shared.site_ns.Take()), "ns");
    report.Add("hook.fire_ns_p50", Median(shared.fire_ns.Take()), "ns");
    report.Add("context.get_ns_p50", Median(shared.get_ns.Take()), "ns");
    report.Add("fleet.period_jitter_p99_us", Percentile(shared.jitter_ns.Take(), 99) / 1e3, "us");
  }
}

}  // namespace wdbench
