#include "wdbench/kvs_stages.h"

#include <algorithm>
#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/autowd/autowatchdog.h"
#include "src/common/rng.h"
#include "src/common/strings.h"
#include "src/common/threading.h"
#include "src/detectors/fusion.h"
#include "src/detectors/signal_suite.h"
#include "src/eval/scenario.h"
#include "src/fault/fault_injector.h"
#include "src/kvs/client.h"
#include "src/kvs/ctx_keys.h"
#include "src/kvs/ir_model.h"
#include "src/kvs/server.h"
#include "src/sim/sim_disk.h"
#include "src/sim/sim_net.h"
#include "src/supervisor/wdog_client.h"
#include "src/supervisor/wdogd.h"
#include "src/watchdog/builder.h"
#include "src/watchdog/driver.h"
#include "wdbench/trace.h"

namespace wdbench {

namespace {

using wdg::DurationNs;
using wdg::TimeNs;

wdg::RealClock& Clock() { return wdg::RealClock::Instance(); }

// Paper-scale watchdog settings (Figure 1): generated mimics every 20 ms.
constexpr DurationNs kCheckerInterval = wdg::Ms(20);
constexpr DurationNs kCheckerTimeout = wdg::Ms(250);
constexpr DurationNs kClientTimeout = wdg::Ms(500);
constexpr int kClientKeys = 128;
// A fault cycle waits this long for its recovery action. A cycle without a
// verdict or an action within it is missed, and counts at this value in the
// detection and action times.
constexpr DurationNs kCycleCap = wdg::Sec(2);
constexpr char kSuitePrefix[] = "kvs_res_";

// ---------------------------------------------------------------------------
// Closed-loop client: 75 % SET / 25 % GET over a seeded key set it owns.
// Every GET targets a key this client has written and must return the value
// of its last acknowledged SET; a SET that failed makes the key's value
// unknown, so the key leaves the readable set until it is written again.
class ClientLoad {
 public:
  struct Outcome {
    bool ok = true;
    bool mismatch = false;
    DurationNs latency = 0;
  };

  ClientLoad(wdg::SimNet& net, const std::string& client_id, uint64_t seed, size_t value_bytes)
      : client_(net, client_id, "kvs1", kClientTimeout), rng_(seed), value_bytes_(value_bytes) {
    const uint64_t tag = wdg::Rng(seed ^ 0x5eedULL).NextU64() & 0xffffff;
    for (int i = 0; i < kClientKeys; ++i) {
      keys_.push_back(wdg::StrFormat("%s-%06llx-%03d", client_id.c_str(),
                                     static_cast<unsigned long long>(tag), i));
    }
    filler_ = static_cast<char>('a' + rng_.Uniform(0, 25));
  }

  // Corrupts the expectation of the next GET (self-test only).
  void PlantWrongRead() { plant_wrong_read_ = true; }

  Outcome Step() {
    Outcome outcome;
    Tracer& tracer = Tracer::Instance();
    ScopedSpan span("kvs.request", tracer.enabled() ? tracer.NewId() : 0);
    const TimeNs start = Clock().NowNs();
    if (!readable_.empty() && rng_.NextDouble() < 0.25) {
      const size_t key = readable_[static_cast<size_t>(
          rng_.Uniform(0, static_cast<int64_t>(readable_.size()) - 1))];
      std::string expected = expected_[key];
      if (plant_wrong_read_) {
        expected += "#planted";
        plant_wrong_read_ = false;
      }
      const wdg::Result<std::string> read = client_.Get(keys_[key]);
      if (read.ok()) {
        outcome.mismatch = *read != expected;
      } else {
        // An acknowledged key that reads as absent is a wrong answer.
        outcome.mismatch = read.status().code() == wdg::StatusCode::kNotFound;
      }
      outcome.ok = read.ok() && !outcome.mismatch;
    } else {
      const size_t key = static_cast<size_t>(rng_.Uniform(0, kClientKeys - 1));
      std::string value = wdg::StrFormat("%s=%lld:", keys_[key].c_str(),
                                         static_cast<long long>(++seq_));
      value.resize(std::max(value_bytes_, value.size()), filler_);
      const wdg::Status status = client_.Set(keys_[key], value);
      outcome.ok = status.ok();
      if (status.ok()) {
        if (expected_.emplace(key, value).second) {
          readable_.push_back(key);
        } else {
          expected_[key] = std::move(value);
        }
      } else if (expected_.erase(key) > 0) {
        readable_.erase(std::find(readable_.begin(), readable_.end(), key));
      }
    }
    outcome.latency = Clock().NowNs() - start;
    return outcome;
  }

 private:
  kvs::KvsClient client_;
  wdg::Rng rng_;
  size_t value_bytes_;
  char filler_ = 'v';
  int64_t seq_ = 0;
  bool plant_wrong_read_ = false;
  std::vector<std::string> keys_;
  std::unordered_map<size_t, std::string> expected_;  // key index -> last acked value
  std::vector<size_t> readable_;                      // keys with a known value
};

// SET-then-GET roundtrip in the watchdog keyspace (probe checker and §5.1
// validation probe). Overlapping probe runs may read each other's nonce, so
// any well-formed value passes; foreign data is corruption.
wdg::Status ProbeRoundtrip(kvs::KvsClient& client, const std::string& key, int64_t nonce) {
  const std::string value = wdg::StrFormat("v%lld", static_cast<long long>(nonce));
  WDG_RETURN_IF_ERROR(client.Set(key, value));
  WDG_ASSIGN_OR_RETURN(const std::string read, client.Get(key));
  if (read != value && (read.empty() || read[0] != 'v')) {
    return wdg::CorruptionError("probe read back foreign data");
  }
  return wdg::Status::Ok();
}

// ---------------------------------------------------------------------------
// Benchmark-owned verdict listener. A verdict belongs to the current fault
// cycle when it was detected after that cycle's injection. A verdict detected
// during an earlier fault cycle but delivered late (the §5.1 validation probe
// runs before listeners are called) is a late verdict of that cycle. Any
// other verdict was raised while no fault was injected: a false alarm. Every
// verdict is forwarded to the fusion detector, and that call is timed.
class BenchListener : public wdg::FailureListener {
 public:
  struct CycleObs {
    TimeNs first_detect = 0;  // signature detect_time of the first verdict
    TimeNs first_listen = 0;  // when this listener saw it
    TimeNs first_action = 0;  // first recovery action
    wdg::SourceLocation location;
    std::string checker;
    int verdicts = 0;
  };

  explicit BenchListener(wdg::FusionDetector& fusion) : fusion_(fusion) {}

  void OnFailure(const wdg::FailureSignature& signature) override {
    const TimeNs now = Clock().NowNs();
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++verdicts_;
      last_event_ = now;
      if (wdg::StrStartsWith(signature.checker_name, kSuitePrefix)) {
        ++suite_verdicts_;
      }
      if (OwnsLocked(signature)) {
        if (cycle_.verdicts++ == 0) {
          cycle_.first_detect = signature.detect_time;
          cycle_.first_listen = now;
          cycle_.location = signature.location;
          cycle_.checker = signature.checker_name;
        }
      } else if (signature.detect_time < last_fault_end_ ||
                 (faulted_ && signature.detect_time >= cycle_start_)) {
        ++late_verdicts_;  // raised while a fault was injected
      } else {
        ++false_alarms_;
        if (named_++ < 5) {
          false_alarm_names_ += " " + signature.checker_name + "(" +
                                wdg::FailureTypeName(signature.type) + ")";
        }
      }
    }
    const uint64_t trace = trace_.load(std::memory_order_relaxed);
    const uint64_t parent = parent_.load(std::memory_order_relaxed);
    Tracer& tracer = Tracer::Instance();
    const uint64_t verdict_id = tracer.enabled() ? tracer.NewId() : 0;
    const TimeNs fusion_start = Clock().NowNs();
    fusion_.OnFailure(signature);
    const TimeNs fusion_end = Clock().NowNs();
    fusion_ns_.Add(static_cast<double>(fusion_end - fusion_start));
    if (verdict_id != 0) {
      tracer.Record("fusion.on_failure", tracer.NewId(), verdict_id, trace, fusion_start,
                    fusion_end);
      tracer.Record("verdict", verdict_id, parent, trace, now, fusion_end);
    }
  }

  // Called by the recovery action. True when `signature` belongs to the
  // current fault cycle, whose fault the action should then clear.
  bool OnAction(const wdg::FailureSignature& signature, TimeNs now) {
    std::lock_guard<std::mutex> lock(mu_);
    last_event_ = now;
    if (!OwnsLocked(signature)) {
      return false;
    }
    if (cycle_.first_action == 0) {
      cycle_.first_action = now;
    }
    return true;
  }

  // A fault cycle (faulted = true) or a control cycle begins now; returns
  // the start time, which is also the injection time of a fault cycle.
  TimeNs BeginCycle(bool faulted, bool detached, uint64_t trace, uint64_t parent) {
    std::lock_guard<std::mutex> lock(mu_);
    faulted_ = faulted;
    detached_ = detached;
    cycle_ = CycleObs{};
    cycle_start_ = Clock().NowNs();
    trace_.store(trace, std::memory_order_relaxed);
    parent_.store(parent, std::memory_order_relaxed);
    return cycle_start_;
  }
  CycleObs EndCycle() {
    std::lock_guard<std::mutex> lock(mu_);
    if (faulted_) {
      last_fault_end_ = Clock().NowNs();
    }
    faulted_ = false;
    detached_ = false;
    trace_.store(0, std::memory_order_relaxed);
    parent_.store(0, std::memory_order_relaxed);
    return cycle_;
  }
  CycleObs Current() const {
    std::lock_guard<std::mutex> lock(mu_);
    return cycle_;
  }
  TimeNs last_event() const {
    std::lock_guard<std::mutex> lock(mu_);
    return last_event_;
  }
  int64_t verdicts() const {
    std::lock_guard<std::mutex> lock(mu_);
    return verdicts_;
  }
  int64_t false_alarms() const {
    std::lock_guard<std::mutex> lock(mu_);
    return false_alarms_;
  }
  int64_t late_verdicts() const {
    std::lock_guard<std::mutex> lock(mu_);
    return late_verdicts_;
  }
  int64_t suite_verdicts() const {
    std::lock_guard<std::mutex> lock(mu_);
    return suite_verdicts_;
  }
  // Checker names of the first few false alarms, for the run's notes.
  std::string false_alarm_names() const {
    std::lock_guard<std::mutex> lock(mu_);
    return false_alarm_names_;
  }
  void ClearFalseAlarmNames() {
    std::lock_guard<std::mutex> lock(mu_);
    false_alarm_names_.clear();
    named_ = 0;
  }
  const SampleSink& fusion_ns() const { return fusion_ns_; }
  uint64_t trace() const { return trace_.load(std::memory_order_relaxed); }
  uint64_t parent() const { return parent_.load(std::memory_order_relaxed); }

 private:
  bool OwnsLocked(const wdg::FailureSignature& signature) const {
    return faulted_ && !detached_ && signature.detect_time >= cycle_start_;
  }

  wdg::FusionDetector& fusion_;
  mutable std::mutex mu_;
  bool faulted_ = false;
  bool detached_ = false;
  CycleObs cycle_;
  TimeNs cycle_start_ = 0;
  TimeNs last_fault_end_ = 0;
  TimeNs last_event_ = 0;
  int64_t verdicts_ = 0;
  int64_t false_alarms_ = 0;
  int64_t late_verdicts_ = 0;
  int64_t suite_verdicts_ = 0;
  std::string false_alarm_names_;
  int named_ = 0;  // false alarms listed in false_alarm_names_
  std::atomic<uint64_t> trace_{0};
  std::atomic<uint64_t> parent_{0};
  SampleSink fusion_ns_{1 << 14};
};

// Benchmark-owned recovery action for "kvs": clears the current cycle's
// injected fault and records when it ran. Actions for verdicts of earlier
// cycles leave the current fault alone.
class BenchRecovery : public wdg::RecoveryAction {
 public:
  BenchRecovery(wdg::FaultInjector& injector, BenchListener& listener)
      : injector_(injector), listener_(listener) {}

  void Recover(const wdg::FailureSignature& signature) override {
    const TimeNs now = Clock().NowNs();
    if (listener_.OnAction(signature, now)) {
      injector_.Remove(kFaultId);
    }
    Tracer& tracer = Tracer::Instance();
    if (tracer.enabled()) {
      tracer.Record("action", tracer.NewId(), listener_.parent(), listener_.trace(), now,
                    Clock().NowNs());
    }
  }

  static constexpr char kFaultId[] = "f";  // the id KvsScenarioCatalog() uses

 private:
  wdg::FaultInjector& injector_;
  BenchListener& listener_;
};

// ---------------------------------------------------------------------------
// One kvs "process": leader + follower on shared simulated disk/net, and the
// paper-scale watchdog driver around the leader. Members are declared so that
// the driver (last) is destroyed first.
class KvsCluster {
 public:
  KvsCluster(uint64_t seed, bool supervised)
      : injector_(Clock(), seed),
        disk_(Clock(), injector_, DiskOpts()),
        net_(Clock(), injector_, NetOpts(), seed),
        journal_injector_(Clock(), seed + 1),
        journal_disk_(Clock(), journal_injector_, DiskOpts()),
        supervised_(supervised) {}

  ~KvsCluster() { Shutdown(); }

  wdg::Status Start() {
    const uint64_t trace = Tracer::Instance().enabled() ? Tracer::Instance().NewId() : 0;
    ScopedSpan setup("setup", trace);
    {
      ScopedSpan span("kvs.start", trace, setup.id());
      kvs::KvsOptions follower_options;
      follower_options.node_id = "kvs2";
      follower_ = std::make_unique<kvs::KvsNode>(Clock(), disk_, net_, follower_options);
      WDG_RETURN_IF_ERROR(follower_->Start());
      kvs::KvsOptions options;
      options.node_id = "kvs1";
      options.followers = {"kvs2"};
      options.flush_threshold_bytes = 1024;
      options.flush_poll = wdg::Ms(10);
      leader_ = std::make_unique<kvs::KvsNode>(Clock(), disk_, net_, options);
      WDG_RETURN_IF_ERROR(leader_->Start());
    }

    if (supervised_) {
      wdg::WdogdOptions wdogd_options;
      wdogd_options.journal_disk = &journal_disk_;
      wdogd_ = std::make_unique<wdg::Wdogd>(Clock(), wdogd_options);
      WDG_RETURN_IF_ERROR(wdogd_->Start());
      // A healthy run must never be restarted; count the request instead.
      wdg::SimProcess hooks;
      hooks.restart = [this] {
        restarts_requested_.fetch_add(1);
        return wdg::Status::Ok();
      };
      hooks.reboot = [this] { restarts_requested_.fetch_add(1); };
      auto pipe = wdogd_->Connect(std::move(hooks));
      if (!pipe.ok()) {
        return pipe.status();
      }
      wdog_client_ = std::make_unique<wdg::WdogClient>(Clock(), std::move(*pipe));
    }

    validation_client_ = std::make_unique<kvs::KvsClient>(net_, "val-probe", "kvs1", wdg::Ms(150));
    probe_client_ = std::make_unique<kvs::KvsClient>(net_, "wd-probe", "kvs1", wdg::Ms(200));

    wdg::WatchdogDriver::Options driver_options;
    driver_options.executor.workers = 4;
    // Below the fault-cycle spacing, so every cycle's verdict surfaces.
    driver_options.dedup_window = wdg::Ms(20);
    driver_options.validation_probe = [this] {
      return ProbeRoundtrip(*validation_client_, std::string(kvs::kWatchdogKeyPrefix) + "val",
                            validation_nonce_.fetch_add(1));
    };
    driver_options.validation_timeout = wdg::Ms(100);
    driver_options.release_on_stop = [this] { injector_.ClearAll(); };
    driver_ = std::make_unique<wdg::WatchdogDriver>(Clock(), driver_options);

    kvs::RegisterOpExecutors(registry_, *leader_);
    {
      ScopedSpan span("autowd.generate", trace, setup.id());
      const TimeNs start = Clock().NowNs();
      awd::GenerationOptions gen;
      gen.checker.interval = kCheckerInterval;
      gen.checker.timeout = kCheckerTimeout;
      generation_ = awd::Generate(kvs::DescribeIr(leader_->options()), leader_->hooks(),
                                  registry_, *driver_, gen);
      generate_ns_ = Clock().NowNs() - start;
    }

    WDG_RETURN_IF_ERROR(wdg::CheckerBuilder("kvs_api_probe")
                            .Component("kvs")
                            .Interval(wdg::Ms(30))
                            .Deadline(wdg::Ms(550))
                            .Debounce(2)
                            .Probe([this] {
                              return ProbeRoundtrip(
                                  *probe_client_,
                                  std::string(kvs::kWatchdogKeyPrefix) + "probe",
                                  probe_nonce_.fetch_add(1));
                            })
                            .RegisterWith(*driver_));

    leader_->hooks().Arm("ResourceSample:1", "res_ctx");
    leader_->hooks().Arm("ResourceBeat:1", "res_ctx");
    const wdg::SignalSuiteKeys suite_keys{
        kvs::keys::ResOpenHandles(), kvs::keys::ResRssBytes(),    kvs::keys::ResQueueDepth(),
        kvs::keys::ResDiskLatNs(),   kvs::keys::ResLiveThreads(), kvs::keys::ResLastBeatNs()};
    wdg::SignalSuiteOptions suite_options;
    suite_options.name_prefix = kSuitePrefix;
    suite_options.fd_component = "kvs.compaction";
    suite_options.rss_component = "kvs.flusher";
    suite_options.queue_component = "kvs.listener";
    suite_options.disk_component = "kvs.wal";
    suite_options.threads_component = "kvs";
    suite_options.beat_component = "kvs.listener";
    suite_options.threads_min_live = 5;
    suite_options.fd_min_growth = 8;
    WDG_RETURN_IF_ERROR(wdg::RegisterSignalSuite(*driver_, Clock(),
                                                 leader_->hooks().Context("res_ctx"), suite_keys,
                                                 suite_options));

    // Benchmark heartbeat: its start-to-start gaps give the period jitter.
    WDG_RETURN_IF_ERROR(wdg::CheckerBuilder("bench_heartbeat")
                            .Component("bench")
                            .Interval(kCheckerInterval)
                            .Deadline(kCheckerTimeout)
                            .Probe([this] {
                              const TimeNs now = Clock().NowNs();
                              const TimeNs last = last_beat_.exchange(now);
                              if (last != 0) {
                                jitter_ns_.Add(static_cast<double>(now - last - kCheckerInterval));
                              }
                              return wdg::Status::Ok();
                            })
                            .RegisterWith(*driver_));

    fusion_ = std::make_unique<wdg::FusionDetector>();
    listener_ = std::make_unique<BenchListener>(*fusion_);
    driver_->AddListener(listener_.get());
    driver_->SetFusionSampler([fusion = fusion_.get()] {
      wdg::WatchdogDriver::FusionSample sample;
      const TimeNs now = Clock().NowNs();
      sample.score = fusion->ScoreAt(now);
      sample.fires = static_cast<int64_t>(fusion->Fires().size());
      sample.component = fusion->PinpointAt(now);
      return sample;
    });
    recovery_ = std::make_unique<BenchRecovery>(injector_, *listener_);
    driver_->AddRecoveryAction("kvs", recovery_.get());
    if (supervised_) {
      wdg::DriverSupervision supervision;
      supervision.client = wdog_client_.get();
      supervision.name = "kvs";
      WDG_RETURN_IF_ERROR(driver_->SetSupervised(supervision));
    }
    ScopedSpan span("driver.start", trace, setup.id());
    return driver_->Start();
  }

  void Shutdown() {
    injector_.ClearAll();
    if (driver_ && driver_->running()) {
      (void)driver_->Stop();
    }
    if (wdogd_ && wdogd_->running()) {
      (void)wdogd_->Stop();
    }
    if (leader_) {
      leader_->Stop();
    }
    if (follower_) {
      follower_->Stop();
    }
  }

  wdg::FaultInjector& injector() { return injector_; }
  wdg::SimNet& net() { return net_; }
  wdg::SimDisk& disk() { return disk_; }
  kvs::KvsNode& leader() { return *leader_; }
  wdg::WatchdogDriver& driver() { return *driver_; }
  wdg::Wdogd* wdogd() { return wdogd_.get(); }
  BenchListener& listener() { return *listener_; }
  wdg::FusionDetector& fusion() { return *fusion_; }
  const awd::GenerationReport& generation() const { return generation_; }
  DurationNs generate_ns() const { return generate_ns_; }
  const SampleSink& jitter_ns() const { return jitter_ns_; }
  int64_t restarts_requested() const { return restarts_requested_.load(); }

 private:
  static wdg::DiskOptions DiskOpts() {
    wdg::DiskOptions options;
    options.base_latency = wdg::Us(5);
    options.per_kb_latency = 0;
    return options;
  }
  static wdg::NetOptions NetOpts() {
    wdg::NetOptions options;
    options.base_latency = wdg::Us(20);
    return options;
  }

  wdg::FaultInjector injector_;
  wdg::SimDisk disk_;
  wdg::SimNet net_;
  wdg::FaultInjector journal_injector_;  // wdogd's storage is its own fault domain
  wdg::SimDisk journal_disk_;
  const bool supervised_;

  std::unique_ptr<kvs::KvsNode> follower_;
  std::unique_ptr<kvs::KvsNode> leader_;
  std::unique_ptr<wdg::Wdogd> wdogd_;
  std::unique_ptr<wdg::WdogClient> wdog_client_;
  std::unique_ptr<kvs::KvsClient> validation_client_;
  std::unique_ptr<kvs::KvsClient> probe_client_;
  std::atomic<int64_t> validation_nonce_{0};
  std::atomic<int64_t> probe_nonce_{0};
  std::atomic<int64_t> restarts_requested_{0};
  std::atomic<TimeNs> last_beat_{0};
  SampleSink jitter_ns_{1 << 14};
  awd::OpExecutorRegistry registry_;
  awd::GenerationReport generation_;
  DurationNs generate_ns_ = 0;
  std::unique_ptr<wdg::FusionDetector> fusion_;
  std::unique_ptr<BenchListener> listener_;
  std::unique_ptr<BenchRecovery> recovery_;
  std::unique_ptr<wdg::WatchdogDriver> driver_;
};

int64_t Counter(kvs::KvsNode& node, const char* name) {
  return node.metrics().GetCounter(name)->Value();
}

// Counters read at the edges of the timed window.
struct KvsCounters {
  int64_t flushes = 0;
  int64_t compactions = 0;
  int64_t internal_errors = 0;
  int64_t net_msgs = 0;
  int64_t disk_bytes = 0;
  int64_t hook_fires = 0;
  int64_t gen_runs = 0;
  int64_t gen_not_ready = 0;
  int64_t gen_latency_ns = 0;
  int64_t timeouts = 0;
  int64_t crashes = 0;
  int64_t kicks = 0;
  int64_t kicks_withheld = 0;
  int64_t warns = 0;
  int64_t fusion_fires = 0;
  int64_t cpu_ns = 0;
  TimeNs wall = 0;

  // Adds (after - before) of every counter.
  void AddDelta(const KvsCounters& before, const KvsCounters& after) {
    flushes += after.flushes - before.flushes;
    compactions += after.compactions - before.compactions;
    internal_errors += after.internal_errors - before.internal_errors;
    net_msgs += after.net_msgs - before.net_msgs;
    disk_bytes += after.disk_bytes - before.disk_bytes;
    hook_fires += after.hook_fires - before.hook_fires;
    gen_runs += after.gen_runs - before.gen_runs;
    gen_not_ready += after.gen_not_ready - before.gen_not_ready;
    gen_latency_ns += after.gen_latency_ns - before.gen_latency_ns;
    timeouts += after.timeouts - before.timeouts;
    crashes += after.crashes - before.crashes;
    kicks += after.kicks - before.kicks;
    kicks_withheld += after.kicks_withheld - before.kicks_withheld;
    warns += after.warns - before.warns;
    fusion_fires += after.fusion_fires - before.fusion_fires;
    cpu_ns += after.cpu_ns - before.cpu_ns;
    wall += after.wall - before.wall;
  }

  static KvsCounters Read(KvsCluster& cluster) {
    KvsCounters c;
    kvs::KvsNode& leader = cluster.leader();
    c.flushes = Counter(leader, "kvs.flusher.flushes");
    c.compactions = Counter(leader, "kvs.compaction.compactions");
    c.internal_errors = Counter(leader, "kvs.flusher.errors") +
                        Counter(leader, "kvs.compaction.errors") +
                        Counter(leader, "kvs.partition.validate_failures") +
                        Counter(leader, "kvs.requests.errors");
    c.net_msgs = cluster.net().metrics().GetCounter("net.messages_sent")->Value();
    c.disk_bytes = cluster.disk().metrics().GetCounter("disk.bytes_written")->Value();
    for (const std::string& site : leader.hooks().SiteNames()) {
      c.hook_fires += leader.hooks().Site(site)->fired_count();
    }
    for (const std::string& name : cluster.generation().checker_names) {
      const wdg::CheckerStats stats = cluster.driver().StatsFor(name);
      c.gen_runs += stats.runs;
      c.gen_not_ready += stats.context_not_ready;
      c.gen_latency_ns += stats.total_latency;
    }
    const wdg::DriverMetricsSnapshot driver = cluster.driver().DriverMetrics();
    c.timeouts = driver.timeouts;
    c.crashes = driver.crashes;
    c.kicks = driver.supervisor_kicks;
    c.kicks_withheld = driver.supervisor_kicks_withheld;
    c.fusion_fires = driver.fusion_fires;
    c.warns = cluster.wdogd() != nullptr ? cluster.wdogd()->warn_count() : 0;
    c.cpu_ns = ProcessCpuNs();
    c.wall = Clock().NowNs();
    return c;
  }
};

double PerK(int64_t count, int64_t requests) {
  return requests == 0 ? 0 : 1000.0 * static_cast<double>(count) / static_cast<double>(requests);
}
double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

// Runs the client until flush and compaction have cycled a few times, so the
// timed window starts in steady state.
void WarmUp(KvsCluster& cluster, ClientLoad& client) {
  const TimeNs start = Clock().NowNs();
  kvs::KvsNode& leader = cluster.leader();
  const int64_t flushes0 = Counter(leader, "kvs.flusher.flushes");
  const int64_t compactions0 = Counter(leader, "kvs.compaction.compactions");
  while (Clock().NowNs() - start < wdg::Sec(5)) {
    client.Step();
    const bool steady = Counter(leader, "kvs.flusher.flushes") - flushes0 >= 20 &&
                        Counter(leader, "kvs.compaction.compactions") - compactions0 >= 3;
    if (steady && Clock().NowNs() - start >= wdg::Ms(500)) {
      break;
    }
  }
}

}  // namespace

// ---------------------------------------------------------------------------
void RunServeStage(const KvsStageOptions& options, Report& report, SetupTimes& setup) {
  // The request-latency tail differs between otherwise identical cluster
  // starts (whether flush and compaction stalls line up with requests), so
  // the stage starts `rounds` fresh clusters; set-up time, throughput,
  // latency and CPU are medians over rounds, counters are summed.
  const int rounds = std::max(1, options.rounds);
  const DurationNs window = options.duration / rounds;
  std::vector<double> round_rps, round_p50, round_p99, round_cpu, generate_ms;
  std::vector<double> latency_us;  // all rounds, for the printed distribution
  KvsCounters delta;
  int64_t requests = 0, errors = 0, mismatches = 0, verdicts = 0, suite = 0, restarts = 0;
  double wall_s = 0;
  size_t checkers = 0;
  int hooks_armed = 0;
  std::string alarm_names;
  for (int round = 0; round < rounds; ++round) {
    const uint64_t seed = options.seed + 0x100000000ULL * static_cast<uint64_t>(round);
    setup.Begin();
    auto cluster = std::make_unique<KvsCluster>(seed, /*supervised=*/true);
    const wdg::Status status = cluster->Start();
    setup.End();
    if (!status.ok()) {
      report.correct = false;
      report.Note("serve: set-up failed: " + status.ToString());
      return;
    }
    generate_ms.push_back(ToMs(cluster->generate_ns()));
    checkers = cluster->generation().checker_names.size();
    hooks_armed = cluster->generation().hooks_armed;

    ClientLoad client(cluster->net(), "bench", seed, options.value_bytes);
    WarmUp(*cluster, client);
    cluster->listener().ClearFalseAlarmNames();
    const int64_t verdicts0 = cluster->listener().verdicts();
    const int64_t suite0 = cluster->listener().suite_verdicts();
    const int64_t restarts0 = cluster->restarts_requested();
    const KvsCounters before = KvsCounters::Read(*cluster);
    std::vector<double> round_latency;
    round_latency.reserve(1 << 14);
    while (Clock().NowNs() - before.wall < window) {
      if (options.plant == Plant::kWrongRead && round == 0 && round_latency.size() == 100) {
        client.PlantWrongRead();
      }
      const ClientLoad::Outcome outcome = client.Step();
      if (outcome.mismatch) {
        ++mismatches;
      } else if (!outcome.ok) {
        ++errors;
      }
      round_latency.push_back(ToUs(outcome.latency));
    }
    const KvsCounters after = KvsCounters::Read(*cluster);
    delta.AddDelta(before, after);
    verdicts += cluster->listener().verdicts() - verdicts0;
    suite += cluster->listener().suite_verdicts() - suite0;
    restarts += cluster->restarts_requested() - restarts0;
    alarm_names += cluster->listener().false_alarm_names();
    cluster->Shutdown();

    const double round_s = ToS(after.wall - before.wall);
    requests += static_cast<int64_t>(round_latency.size());
    wall_s += round_s;
    round_rps.push_back(Ratio(static_cast<double>(round_latency.size()), round_s));
    round_p50.push_back(Percentile(round_latency, 50));
    round_p99.push_back(Percentile(round_latency, 99));
    round_cpu.push_back(Ratio(static_cast<double>(after.cpu_ns - before.cpu_ns),
                              static_cast<double>(after.wall - before.wall)));
    latency_us.insert(latency_us.end(), round_latency.begin(), round_latency.end());
  }
  const int64_t false_alarms = verdicts + delta.fusion_fires + delta.warns + restarts;
  const int64_t failed = errors + mismatches;
  report.attempted += requests;
  report.failed += failed;
  if (mismatches > 0) {
    report.correct = false;
  }
  report.Note(wdg::StrFormat(
      "serve: %lld requests in %d rounds of %.2f s (1 closed-loop client, %zu B values), "
      "%lld errors, %lld wrong reads; false alarms: %lld verdicts, %lld fusion fires, "
      "%lld wdogd warns, %lld restart requests",
      static_cast<long long>(requests), rounds, wall_s / rounds, options.value_bytes,
      static_cast<long long>(errors), static_cast<long long>(mismatches),
      static_cast<long long>(verdicts), static_cast<long long>(delta.fusion_fires),
      static_cast<long long>(delta.warns), static_cast<long long>(restarts)));
  if (!alarm_names.empty()) {
    report.Note("serve: false alarms:" + alarm_names);
  }
  std::string per_round = "serve: p99 us per round:";
  for (double p99 : round_p99) {
    per_round += wdg::StrFormat(" %.0f", p99);
  }
  report.Note(per_round);
  report.Note(wdg::StrFormat(
      "serve: latency over %zu samples: p50 %.0f p90 %.0f p99 %.0f p99.9 %.0f max %.0f us",
      latency_us.size(), Percentile(latency_us, 50), Percentile(latency_us, 90),
      Percentile(latency_us, 99), Percentile(latency_us, 99.9), Percentile(latency_us, 100)));

  report.Add("kvs_rps", Median(round_rps), "req/s");
  report.Add("kvs_p50_us", Median(round_p50), "us");
  report.Add("kvs_p99_us", Median(round_p99), "us");
  report.Add("cpu_cores", Median(round_cpu), "cores");
  report.Add("serve.false_alarms", static_cast<double>(false_alarms), "count");
  report.Add("serve.error_rate", Ratio(static_cast<double>(failed), static_cast<double>(requests)),
             "ratio");

  report.Add("kvs.flushes_per_kreq", PerK(delta.flushes, requests), "1/kreq");
  report.Add("kvs.compactions_per_kreq", PerK(delta.compactions, requests), "1/kreq");
  report.Add("kvs.internal_errors", static_cast<double>(delta.internal_errors), "count");
  report.Add("kvs.read_mismatches", static_cast<double>(mismatches), "count");
  const double reqs = static_cast<double>(requests);
  report.Add("sim.net_msgs_per_req", Ratio(static_cast<double>(delta.net_msgs), reqs),
             "msgs/req");
  report.Add("sim.disk_bytes_per_req", Ratio(static_cast<double>(delta.disk_bytes), reqs),
             "B/req");
  report.Add("hook.fires_per_req", Ratio(static_cast<double>(delta.hook_fires), reqs),
             "fires/req");
  const double gen_runs = static_cast<double>(delta.gen_runs);
  report.Add("context.not_ready_ratio",
             Ratio(static_cast<double>(delta.gen_not_ready), gen_runs), "ratio");
  const double busy_ns = static_cast<double>(delta.gen_latency_ns);
  report.Add("checker.body_us_mean", Ratio(busy_ns, gen_runs) / 1e3, "us");
  report.Add("checker.busy_ms_per_s", Ratio(busy_ns / 1e6, wall_s), "ms/s");
  report.Add("checker.timeouts", static_cast<double>(delta.timeouts), "count");
  report.Add("checker.crashes", static_cast<double>(delta.crashes), "count");
  report.Add("signal_suite.verdicts", static_cast<double>(suite), "count");
  report.Add("autowd.generate_ms", Median(generate_ms), "ms");
  report.Add("autowd.checkers", static_cast<double>(checkers), "count");
  report.Add("autowd.hooks_armed", static_cast<double>(hooks_armed), "count");
  report.Add("supervisor.kicks_per_s", Ratio(static_cast<double>(delta.kicks), wall_s), "1/s");
  report.Add("supervisor.kicks_withheld", static_cast<double>(delta.kicks_withheld), "count");
  report.Add("supervisor.warns", static_cast<double>(delta.warns), "count");
}

// ---------------------------------------------------------------------------
namespace {

enum class CycleKind { kHang, kError, kControl };

const wdg::Scenario& FindScenario(const std::vector<wdg::Scenario>& catalog,
                                  const std::string& name) {
  for (const wdg::Scenario& scenario : catalog) {
    if (scenario.name == name) {
      return scenario;
    }
  }
  static const wdg::Scenario kMissing;
  return kMissing;
}

// Background load for the fault stage: the serve client on its own thread.
// Failures while a fault is injected are expected; wrong values never are.
class BackgroundClient {
 public:
  BackgroundClient(wdg::SimNet& net, uint64_t seed, size_t value_bytes)
      : load_(net, "bench", seed, value_bytes) {}
  ~BackgroundClient() { Stop(); }

  void Start() {
    thread_ = wdg::JoiningThread([this] {
      while (!stop_.Requested()) {
        if (load_.Step().mismatch) {
          mismatches_.fetch_add(1);
        }
        requests_.fetch_add(1);
      }
    });
  }
  void Stop() {
    stop_.Request();
    thread_.Join();
  }
  ClientLoad& load() { return load_; }
  int64_t mismatches() const { return mismatches_.load(); }
  int64_t requests() const { return requests_.load(); }

 private:
  ClientLoad load_;
  std::atomic<int64_t> mismatches_{0};
  std::atomic<int64_t> requests_{0};
  wdg::StopFlag stop_;
  wdg::JoiningThread thread_;
};

}  // namespace

void RunFaultStage(const KvsStageOptions& options, Report& report, SetupTimes& setup) {
  // Set up `setups` times and keep the last cluster; the others only time
  // the set-up.
  std::unique_ptr<KvsCluster> cluster;
  for (int i = 0; i < std::max(1, options.setups); ++i) {
    cluster.reset();
    setup.Begin();
    cluster = std::make_unique<KvsCluster>(options.seed, /*supervised=*/false);
    const wdg::Status status = cluster->Start();
    setup.End();
    if (!status.ok()) {
      report.correct = false;
      report.Note("fault: set-up failed: " + status.ToString());
      return;
    }
  }
  const std::vector<wdg::Scenario> catalog = wdg::KvsScenarioCatalog();
  const wdg::Scenario& hang = FindScenario(catalog, "wal-append-hang");
  const wdg::Scenario& error = FindScenario(catalog, "flush-write-error");
  if (hang.name.empty() || error.name.empty() || hang.fault.id != BenchRecovery::kFaultId ||
      error.fault.id != BenchRecovery::kFaultId) {
    report.correct = false;
    report.Note("fault: scenario catalog lacks wal-append-hang / flush-write-error");
    return;
  }

  BackgroundClient background(cluster->net(), options.seed, options.value_bytes);
  WarmUp(*cluster, background.load());
  background.Start();

  kvs::KvsClient writer(cluster->net(), "bench-recovered", "kvs1", wdg::Ms(200));
  wdg::Rng rng(options.seed ^ 0xfa017ULL);
  BenchListener& listener = cluster->listener();
  wdg::WatchdogDriver& driver = cluster->driver();
  Tracer& tracer = Tracer::Instance();

  // Seeded rotation: each block of 32 cycles holds 1 hang, 1 control and 30
  // error cycles in shuffled order. Error detection waits a uniform phase of
  // the 20 ms checker interval, so it needs the most samples; hang detection
  // is bound by the checker deadline and repeats within a few cycles.
  constexpr int64_t kBlock = 32;
  std::vector<CycleKind> block(kBlock, CycleKind::kError);
  block[0] = CycleKind::kHang;
  block[1] = CycleKind::kControl;

  std::vector<double> detect_hang_ms, detect_error_ms, act_hang_ms, act_error_ms, verdict_to_act_ms;
  int64_t cycles = 0, fault_cycles = 0, missed = 0, pinpointed = 0, detected = 0;
  int64_t control_alarms = 0;
  int64_t hang_cycles = 0, hang_detected = 0, error_cycles = 0, error_detected = 0;
  std::map<std::string, int> first_hang, first_error;  // first verdict's checker
  const bool plant_missed = options.plant == Plant::kMissedDetection;
  const int64_t false_alarms0 = listener.false_alarms();
  const int64_t late0 = listener.late_verdicts();
  const wdg::DriverMetricsSnapshot metrics0 = driver.DriverMetrics();
  const int64_t deduped0 = driver.deduped_count();
  const int64_t suppressed0 = driver.suppressed_count();
  const int64_t fusion_fires0 = static_cast<int64_t>(cluster->fusion().Fires().size());
  const int64_t verdicts0 = listener.verdicts();
  const TimeNs start = Clock().NowNs();

  while (Clock().NowNs() - start < options.duration) {
    if (cycles % kBlock == 0) {
      for (size_t i = block.size() - 1; i > 0; --i) {
        std::swap(block[i], block[static_cast<size_t>(rng.Uniform(0, static_cast<int64_t>(i)))]);
      }
    }
    const CycleKind kind = plant_missed && cycles == 0
                               ? CycleKind::kHang
                               : block[static_cast<size_t>(cycles % kBlock)];
    ++cycles;
    const uint64_t trace = tracer.enabled() ? tracer.NewId() : 0;
    const uint64_t cycle_id = tracer.enabled() ? tracer.NewId() : 0;
    const TimeNs cycle_start = Clock().NowNs();
    Clock().SleepFor(rng.Uniform(0, kCheckerInterval));

    if (kind == CycleKind::kControl) {
      const int64_t alarms_before = listener.false_alarms();
      listener.BeginCycle(/*faulted=*/false, false, trace, cycle_id);
      Clock().SleepFor(wdg::Ms(40));
      listener.EndCycle();
      control_alarms += listener.false_alarms() - alarms_before;
      tracer.Record("cycle", cycle_id, 0, trace, cycle_start, Clock().NowNs());
      continue;
    }

    const bool is_hang = kind == CycleKind::kHang;
    const wdg::Scenario& scenario = is_hang ? hang : error;
    const bool detached = plant_missed && is_hang;
    ++fault_cycles;
    ++(is_hang ? hang_cycles : error_cycles);
    const TimeNs t_inject = listener.BeginCycle(/*faulted=*/true, detached, trace, cycle_id);
    cluster->injector().Inject(scenario.fault);
    tracer.Record("fault.inject", tracer.enabled() ? tracer.NewId() : 0, cycle_id, trace,
                  t_inject, Clock().NowNs());

    // Wait for the recovery action (it clears the fault), capped.
    const TimeNs cap = t_inject + kCycleCap;
    BenchListener::CycleObs obs = listener.Current();
    while (obs.first_action == 0 && Clock().NowNs() < cap) {
      Clock().SleepFor(wdg::Us(200));
      obs = listener.Current();
    }
    cluster->injector().Remove(BenchRecovery::kFaultId);
    // Recovered: a write succeeds and no verdict arrives for a quiet window.
    const TimeNs recover_cap = Clock().NowNs() + wdg::Sec(2);
    while (!writer.Set("bench-recovered", "ok").ok() && Clock().NowNs() < recover_cap) {
      Clock().SleepFor(wdg::Ms(1));
    }
    while (Clock().NowNs() - listener.last_event() < wdg::Ms(25) &&
           Clock().NowNs() < recover_cap) {
      Clock().SleepFor(wdg::Ms(1));
    }
    obs = listener.EndCycle();
    tracer.Record("cycle", cycle_id, 0, trace, cycle_start, Clock().NowNs());

    // A missed verdict or action counts at the cap, so a detector that gets
    // slower than the cap, or stops detecting, makes the medians worse.
    const double detect_ms =
        obs.verdicts > 0 ? ToMs(obs.first_detect - t_inject) : ToMs(kCycleCap);
    const double act_ms =
        obs.first_action != 0 ? ToMs(obs.first_action - t_inject) : ToMs(kCycleCap);
    (is_hang ? detect_hang_ms : detect_error_ms).push_back(detect_ms);
    (is_hang ? act_hang_ms : act_error_ms).push_back(act_ms);
    if (obs.verdicts == 0 || obs.first_action == 0) {
      ++missed;
      ++(is_hang ? first_hang : first_error)["(missed)"];
      continue;
    }
    ++detected;
    ++(is_hang ? hang_detected : error_detected);
    verdict_to_act_ms.push_back(ToMs(obs.first_action - obs.first_listen));
    ++(is_hang ? first_hang : first_error)[obs.checker];
    if (wdg::ScoreLocalization(scenario, obs.location) >= wdg::LocalizationLevel::kComponent) {
      ++pinpointed;
    }
  }
  const double wall_s = ToS(Clock().NowNs() - start);
  background.Stop();

  const wdg::DriverMetricsSnapshot metrics1 = driver.DriverMetrics();
  const int64_t false_alarms = listener.false_alarms() - false_alarms0;
  if (background.mismatches() > 0) {
    report.correct = false;
  }
  // A fault kind the watchdog never detected is a wrong output, not a slow one.
  if ((hang_cycles > 0 && hang_detected == 0) || (error_cycles > 0 && error_detected == 0)) {
    report.correct = false;
  }
  // Operations are fault cycles; a control cycle's alarms are false alarms.
  report.attempted += fault_cycles;
  report.failed += missed;
  report.Note(wdg::StrFormat(
      "fault: %lld cycles in %.2f s (%lld/%lld hang, %lld/%lld error detected; %lld missed; "
      "%lld control cycles with %lld alarms; %lld other false alarms; %lld late verdicts); "
      "background client %lld requests, %lld wrong reads",
      static_cast<long long>(cycles), wall_s, static_cast<long long>(hang_detected),
      static_cast<long long>(hang_cycles), static_cast<long long>(error_detected),
      static_cast<long long>(error_cycles), static_cast<long long>(missed),
      static_cast<long long>(cycles - fault_cycles), static_cast<long long>(control_alarms),
      static_cast<long long>(false_alarms - control_alarms),
      static_cast<long long>(listener.late_verdicts() - late0),
      static_cast<long long>(background.requests()),
      static_cast<long long>(background.mismatches())));
  if (false_alarms > 0) {
    report.Note("fault: false alarms:" + listener.false_alarm_names());
  }
  for (const auto& [label, tally] : {std::pair{"hang", &first_hang},
                                     std::pair{"error", &first_error}}) {
    std::string line = wdg::StrFormat("fault: first verdict on %s cycles:", label);
    for (const auto& [checker, count] : *tally) {
      line += wdg::StrFormat(" %s=%d", checker.c_str(), count);
    }
    report.Note(line);
  }

  report.Add("detect_hang_ms_p50", Median(detect_hang_ms), "ms");
  report.Add("detect_error_ms_p50", Median(detect_error_ms), "ms");
  report.Add("act_hang_ms_p50", Median(act_hang_ms), "ms");
  report.Add("act_error_ms_p50", Median(act_error_ms), "ms");
  report.Add("fault.false_alarms", static_cast<double>(false_alarms), "count");
  report.Add("fault.error_rate",
             Ratio(static_cast<double>(missed), static_cast<double>(fault_cycles)), "ratio");

  report.Add("failure.verdicts", static_cast<double>(listener.verdicts() - verdicts0), "count");
  report.Add("failure.deduped", static_cast<double>(driver.deduped_count() - deduped0), "count");
  report.Add("failure.suppressed", static_cast<double>(driver.suppressed_count() - suppressed0),
             "count");
  report.Add("failure.verdict_to_action_ms_p50", Median(verdict_to_act_ms), "ms");
  report.Add("failure.pinpoint_rate",
             Ratio(static_cast<double>(pinpointed), static_cast<double>(detected)), "ratio");
  report.Add("fusion.on_failure_us_p50", Median(listener.fusion_ns().Take()) / 1e3, "us");
  report.Add("fusion.fires",
             static_cast<double>(static_cast<int64_t>(cluster->fusion().Fires().size()) -
                                 fusion_fires0),
             "count");
  report.Add("executor.workers_abandoned",
             static_cast<double>(metrics1.workers_abandoned - metrics0.workers_abandoned),
             "count");
  report.Add("executor.threads_spawned",
             static_cast<double>(metrics1.threads_spawned - metrics0.threads_spawned), "count");
  report.Add("driver.period_jitter_p99_us", Percentile(cluster->jitter_ns().Take(), 99) / 1e3,
             "us");
  report.Add("fault.driver.queue_delay_p99_us", metrics1.queue_delay_p99_ns / 1e3, "us");
  cluster->Shutdown();
}

}  // namespace wdbench
