// WatchdogDriver: manages checker scheduling and execution (paper §3.1).
//
// The driver is split into two layers (docs/DRIVER.md):
//
//   scheduler — one thread *per shard* that keeps the shard's checkers in a
//     hierarchical timer wheel (O(1) schedule, lazy cancellation by
//     generation counters) and sleeps until the earliest deadline (a launch
//     becoming due, or an in-flight execution reaching its hang deadline)
//     instead of rescanning all slots on a fixed tick. Dispatches and
//     completions wake it early. Checkers are assigned to shards by name
//     hash or explicit CheckerOptions::shard_affinity, so 10⁵ checkers split
//     into independent scheduling domains with no shared hot lock.
//   executor  — per shard, a pool of long-lived workers
//     (src/watchdog/executor.h) fed by a bounded queue; a full queue is
//     backpressure, not thread growth. Due cheap checks are dispatched in
//     *batches*: one pool task claims and runs several executions serially.
//
// It is the isolation boundary of §3.2:
//   - a checker that *throws* becomes a CHECKER_CRASH signature, never an
//     exception in the main program;
//   - a checker that *hangs* past its deadline becomes a LIVENESS_TIMEOUT
//     signature pinpointing the op it was executing (fate sharing turns the
//     hang itself into the detection); its worker is abandoned — parked off
//     the pool and replaced so capacity never shrinks — and the checker is
//     suspended until the stuck execution drains. Unstarted batch siblings
//     are cancelled and re-dispatched on a healthy worker. The driver never
//     blocks;
//   - repeated identical signatures are deduplicated within a window so a
//     persistent fault doesn't "bark" once per interval;
//   - optionally (§5.1), a mimic-detected fault is escalated to a probe
//     checker to confirm client-visible impact before alarming.
//
// Subscription epochs make a *comprehensive* fleet cheap: a checker that
// declared its context keys (Checker::SubscribeKeys) is skipped before
// dispatch when none of them advanced since its last run — dormant
// components cost a fingerprint compare per interval, not an execution
// (wdg.driver.skipped_unchanged counts them).
//
// The driver also watches itself: per-checker latency histograms, the
// enqueue→dispatch queue-delay histogram, scheduler lag, and pool utilization
// are exported through a MetricsRegistry and summarized by DriverMetrics()
// (aggregated across shards, with per-shard views), so a signal checker can
// monitor the watchdog's own health.
#pragma once

#include <atomic>
#include <condition_variable>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/common/clock.h"
#include "src/common/metrics.h"
#include "src/common/threading.h"
#include "src/watchdog/checker.h"
#include "src/watchdog/executor.h"
#include "src/watchdog/failure.h"
#include "src/watchdog/timer_wheel.h"

namespace wdg {

class FailureListener {
 public:
  virtual ~FailureListener() = default;
  virtual void OnFailure(const FailureSignature& signature) = 0;
};

// Cheap-recovery hook (§5.2): invoked with the precise localization so the
// action can replace a corrupted object / restart one component instead of
// rebooting the process.
class RecoveryAction {
 public:
  virtual ~RecoveryAction() = default;
  virtual void Recover(const FailureSignature& signature) = 0;
};

class CallbackRecovery : public RecoveryAction {
 public:
  explicit CallbackRecovery(std::function<void(const FailureSignature&)> fn)
      : fn_(std::move(fn)) {}
  void Recover(const FailureSignature& signature) override { fn_(signature); }

 private:
  std::function<void(const FailureSignature&)> fn_;
};

struct CheckerStats {
  int64_t runs = 0;
  int64_t passes = 0;
  int64_t fails = 0;
  int64_t context_not_ready = 0;
  int64_t timeouts = 0;
  int64_t crashes = 0;
  // Scheduled runs skipped before dispatch because no subscribed context key
  // advanced (not counted in `runs`).
  int64_t skipped_unchanged = 0;
  DurationNs total_latency = 0;      // dispatch → completion
  DurationNs total_queue_delay = 0;  // enqueue → dispatch
};

// Per-checker hang-deadline inference (docs/DRIVER.md). When enabled, the
// driver derives each checker's deadline from its own latency histogram —
// clamp(p99 × tail_multiplier, floor, ceiling) — instead of using one global
// timeout, so a 50 µs mimic is declared hung in milliseconds while a slow
// end-to-end probe keeps its headroom. A checker whose histogram has fewer
// than min_samples observations (or that set adaptive_deadline = false) keeps
// its static CheckerOptions::timeout. Abandon/suspend/drain semantics are
// unchanged: only the deadline *value* adapts.
struct DeadlineBudgetOptions {
  bool enabled = false;
  double tail_multiplier = 4.0;
  DurationNs floor = Ms(20);
  DurationNs ceiling = Sec(2);
  int64_t min_samples = 8;
};

// Pure inference rule, exposed for property testing: clamp(p99 × multiplier,
// floor, ceiling); `fallback` (the checker's static timeout) when disabled or
// under-sampled. Monotone in the histogram tail between the clamps.
DurationNs InferDeadlineBudget(const Histogram& hist,
                               const DeadlineBudgetOptions& options,
                               DurationNs fallback);

// Snapshot of the driver's self-observability metrics. Signal checkers can
// sample these to watch the watchdog itself (e.g. alarm on queue delay).
// With a sharded driver the scalar fields aggregate across shards (sums;
// utilization is the aggregate ratio) and `shard_views` carries the
// per-shard breakdown.
struct DriverMetricsSnapshot {
  int pool_workers = 0;  // currently active workers, summed across shards
  int busy_workers = 0;
  size_t queue_depth = 0;
  size_t queue_capacity = 0;
  double pool_utilization = 0;  // busy / workers, in [0, 1]

  int64_t executions_dispatched = 0;
  int64_t executions_completed = 0;
  int64_t timeouts = 0;            // liveness deadline misses
  int64_t crashes = 0;             // checker exceptions caught
  int64_t workers_abandoned = 0;   // hung workers parked off the pool
  int64_t threads_spawned = 0;     // pool threads ever created (incl. respawns)
  int64_t queue_rejections = 0;    // backpressure: submit hit a full queue

  // Fleet-scale scheduling.
  int shards = 1;
  int64_t skipped_unchanged = 0;   // runs skipped: subscribed keys unchanged
  int64_t batches_dispatched = 0;  // pool tasks submitted (≥1 execution each)
  size_t wheel_entries = 0;        // scheduled wheel entries across shards

  double queue_delay_mean_ns = 0;
  double queue_delay_p99_ns = 0;
  double scheduler_lag_ns = 0;  // last observed oversleep past a planned wake

  // Supervised mode (zero / false when unsupervised).
  bool supervised = false;
  int64_t supervisor_kicks = 0;           // kicks actually sent to wdogd
  int64_t supervisor_kicks_withheld = 0;  // due kicks withheld: liveness unproven

  // Fused gray-failure view (SetFusionSampler; all-zero when detached). The
  // driver doesn't compute this itself — a FusionDetector listening on the
  // verdict stream does — but it belongs in DriverMetrics() so dashboards
  // see score + verdict next to the raw execution counters.
  bool fusion_attached = false;
  double fusion_score = 0;          // current gray-failure score
  int64_t fusion_fires = 0;         // hysteresis-latched fire events so far
  std::string fusion_component;     // current pinpoint ("" = none)

  // Work-stealing between shard pools (0 with a single shard or stealing off).
  int64_t batches_stolen = 0;

  // Per-shard breakdown (one entry per shard, index == shard id).
  struct ShardView {
    int workers = 0;
    int busy = 0;
    size_t queue_depth = 0;
    int64_t dispatched = 0;
    int64_t completed = 0;
    size_t wheel_entries = 0;
    int64_t skipped_unchanged = 0;
    int64_t batches_stolen = 0;     // batches this shard's pool stole from siblings
    int64_t workers_abandoned = 0;  // hung workers parked off this shard's pool
  };
  std::vector<ShardView> shard_views;

  // Effective per-checker hang deadlines (ns). Before any histogram-derived
  // budget takes over this is the checker's static-analysis deadline prior
  // when one was generated, else its static timeout. Empty when the driver
  // runs with per_checker_metrics = false (100k-checker fleets).
  std::map<std::string, double> checker_deadline_ns;
  // Checkers whose effective deadline currently comes from a static-analysis
  // prior (deadline_prior set, histogram budget not yet active).
  int64_t deadline_priors_active = 0;

  // Flattened view for dashboards / table code that wants name→value.
  std::map<std::string, double> ToMap() const;
};

class WdogClient;

// Supervised mode (docs/SUPERVISOR.md): the driver becomes a client of the
// out-of-process wdogd supervisor. Start() performs the subscribe handshake;
// shard 0's scheduler thread then kicks every kick_interval — but only while
// the driver is *provably live*: the pass itself proves shard 0's wheel is
// advancing, and the kick is withheld unless EVERY shard's executor either
// completed work since the last kick or is fully idle. A wedged pool on any
// shard (work dispatched, nothing completing) or a dead shard-0 scheduler
// goes silent and gets escalated — closing the §3.3 "fault silently disables
// the watchdog" loop one level up.
struct DriverSupervision {
  WdogClient* client = nullptr;  // borrowed; null == unsupervised
  std::string name = "wdg-driver";
  DurationNs kick_interval = Ms(25);
  // Kick deadline requested from the supervisor (it clamps into its policy
  // bounds). Must comfortably exceed kick_interval plus max_sleep.
  DurationNs kick_deadline = Ms(150);
  DurationNs handshake_timeout = Ms(500);
  // Send a clean unsubscribe at Stop() so a voluntary shutdown never walks
  // the escalation ladder.
  bool unsubscribe_on_stop = true;
};

// Driver configuration.
struct WatchdogDriverOptions {
  // Upper bound on one scheduler sleep. The scheduler normally wakes exactly
  // at the next deadline (or earlier, on dispatch/completion events); this
  // only caps how long a lost wake could go unnoticed.
  DurationNs max_sleep = Ms(250);
  DurationNs dedup_window = Sec(2);
  // Executor pool sizing: fixed worker count and submission-queue capacity.
  // With shards > 1 every shard gets its own pool with this configuration,
  // so total workers = shards × workers.
  CheckerExecutorOptions executor;
  // Histogram-informed per-checker hang deadlines (off by default: every
  // checker keeps its static CheckerOptions::timeout).
  DeadlineBudgetOptions deadline_budget;
  // Metrics registry to export driver observability into; the driver owns a
  // private registry when null.
  MetricsRegistry* metrics = nullptr;
  // §5.1 escalation: when a *mimic* checker fails, run this end-to-end
  // probe; if it succeeds the alarm is tagged no-client-impact (and, with
  // suppress_unconfirmed, withheld from listeners).
  std::function<Status()> validation_probe;
  DurationNs validation_timeout = Ms(300);
  bool suppress_unconfirmed = false;
  // Invoked at Stop() before joining stuck executions — campaigns pass
  // [&] { injector.ClearAll(); } so abandoned checkers always drain.
  std::function<void()> release_on_stop;

  // --- fleet-scale scheduling (docs/DRIVER.md) ---------------------------
  // Independent scheduler shards, each with its own timer wheel, mutex,
  // scheduler thread, and executor pool. 1 (default) preserves the classic
  // single-scheduler behavior exactly; 10⁴–10⁵ checker fleets want 4–16.
  // Clamped to [1, 64].
  int shards = 1;
  // Timer-wheel granularity: due times round *up* to this, so it bounds both
  // added scheduling latency and the per-pass tick work. Must divide well
  // into typical intervals; 1 ms suits Ms(10)..Sec(n) checker intervals.
  DurationNs wheel_tick = Ms(1);
  // Executions handed to one pool task at a time. 1 (default) dispatches
  // exactly like the classic driver; cheap mimic fleets amortize the queue
  // round-trip with 8–16. Hang isolation is preserved at any batch size:
  // abandoning a hung execution cancels the batch's unstarted siblings for
  // immediate re-dispatch.
  int dispatch_batch = 1;
  // Per-checker deadline map (checker_deadline_ns) in DriverMetrics(). On by
  // default; 10⁵-checker fleets turn it off (the shared queue-delay and
  // aggregate counters remain). Per-checker latency histograms do not depend
  // on it: they exist only for adaptive checkers under an enabled
  // deadline_budget, their one reader; mean latency is in StatsFor().
  bool per_checker_metrics = true;
  // Work-stealing between shard executor pools (shards > 1 only): a shard
  // whose pool queue is empty and has idle workers steals whole queued
  // batches from the most-backlogged sibling's queue, re-routing the batch's
  // abandon path so hang isolation stays exactly-once on whichever pool runs
  // it (docs/DRIVER.md, "Work-stealing between shards").
  bool work_stealing = true;
};

class WatchdogDriver {
 public:
  using Options = WatchdogDriverOptions;

  explicit WatchdogDriver(Clock& clock, Options options = {});
  ~WatchdogDriver();

  WatchdogDriver(const WatchdogDriver&) = delete;
  WatchdogDriver& operator=(const WatchdogDriver&) = delete;

  // Registration is allowed before Start() only. Returns a borrow of the
  // checker for test convenience. Asserts on misuse; prefer TryAddChecker
  // (or CheckerBuilder::RegisterWith) for a typed error instead.
  Checker* AddChecker(std::unique_ptr<Checker> checker);
  // Typed-error registration: kFailedPrecondition if the driver is already
  // running, kAlreadyExists on a duplicate checker name, kInvalidArgument
  // on a null checker.
  Status TryAddChecker(std::unique_ptr<Checker> checker);
  // Installs (or replaces) the §5.1 escalation probe after construction —
  // CheckerBuilder::EscalationProbe routes here. kFailedPrecondition once
  // the driver is running.
  Status SetValidationProbe(std::function<Status()> probe, DurationNs timeout);
  void AddListener(FailureListener* listener);
  // Attaches a fusion verdict source (typically a lambda over a
  // FusionDetector that is also registered via AddListener): DriverMetrics()
  // calls it to fill the fusion_* snapshot fields. Pass nullptr to detach.
  // May be called at any time; the sampler must be thread-safe.
  struct FusionSample {
    double score = 0;
    int64_t fires = 0;
    std::string component;
  };
  void SetFusionSampler(std::function<FusionSample()> sampler);
  // `component_prefix` matches signature.location.component by prefix.
  void AddRecoveryAction(const std::string& component_prefix, RecoveryAction* action);

  // Installs supervised mode (CheckerBuilder::Supervised routes here); a
  // null client returns the driver to unsupervised mode.
  // kFailedPrecondition once the driver is running.
  Status SetSupervised(DriverSupervision supervision);

  // kFailedPrecondition on double-start. In supervised mode a failed
  // subscribe handshake also fails Start() — an unwatched driver must not
  // pretend otherwise — and leaves the driver stopped.
  Status Start();
  // kFailedPrecondition when the driver is not running (stop-before-start,
  // double-stop). A driver cannot be restarted after a successful Stop().
  Status Stop();
  bool running() const { return running_.load(std::memory_order_acquire); }

  // --- results ----------------------------------------------------------
  // All signatures recorded (including suppressed ones, flagged accordingly).
  std::vector<FailureSignature> Failures() const;
  std::optional<FailureSignature> FirstFailure() const;
  // Blocks until a failure matching `pred` is recorded (default: any).
  bool WaitForFailure(DurationNs timeout,
                      std::function<bool(const FailureSignature&)> pred = nullptr) const;

  // Temporarily stops scheduling a checker (e.g. while a recovery action
  // repairs its component) and resumes it later. kNotFound for an unknown
  // checker name.
  Status TrySetCheckerEnabled(const std::string& checker_name, bool enabled);
  bool IsCheckerEnabled(const std::string& checker_name) const;

  CheckerStats StatsFor(const std::string& checker_name) const;
  int checker_count() const;
  int64_t deduped_count() const { return deduped_.load(); }
  int64_t suppressed_count() const { return suppressed_.load(); }
  std::vector<std::string> CheckerNames() const;
  // The shard a checker was assigned to (affinity % shards, or name hash);
  // -1 for an unknown name. Exposed for tests and placement debugging.
  int ShardOf(const std::string& checker_name) const;

  // --- driver observability --------------------------------------------
  DriverMetricsSnapshot DriverMetrics() const;
  // The registry the driver exports into (per-checker latency histograms,
  // queue-delay histogram, scheduler-lag gauge, pool gauges). Signal
  // checkers can sample it like any monitored component's registry.
  MetricsRegistry& metrics() { return *metrics_; }

 private:
  // By-value, cache-line-conscious: a million-checker fleet keeps slots_ as
  // one contiguous array, and the fields the scheduler touches every pass
  // (next_run / sched_gen / enabled / running / sub_fingerprint) sit in the
  // first line of each slot. Executions are borrowed from the shard
  // executor's slab freelist — raw pointers, released back exactly once via
  // ReleaseExecution when the scheduler drops them.
  struct Slot {
    TimeNs next_run = 0;
    Execution* running = nullptr;  // in-deadline execution (slab-owned)
    // Subscription-epoch baseline: the key-epoch fingerprint observed at the
    // last launch decision. A matching fingerprint at the next due time means
    // no subscribed key advanced → skip the run.
    uint64_t sub_fingerprint = 0;
    uint32_t sched_gen = 0;  // matches the newest live wheel entry for the slot
    uint16_t shard = 0;      // fixed at registration
    bool enabled = true;
    bool sub_armed = false;
    // Histogram-derived hang deadline; 0 until the budget inference has enough
    // samples, meaning "use the checker's static timeout".
    DurationNs deadline_budget = 0;
    // wdg.driver.checker.<name>.latency_ns; budgeted adaptive checkers only.
    Histogram* latency_hist = nullptr;
    std::unique_ptr<Checker> checker;
    std::vector<Execution*> drain;  // abandoned, still executing (slab-owned)
    CheckerStats stats;
  };

  struct PendingFailure {
    FailureSignature signature;
    CheckerType checker_type;
  };

  // One independent scheduling domain. `mu` guards the shard's wheel,
  // inflight list, and every member slot's mutable state; nothing here is
  // ever touched under another shard's mutex.
  struct Shard {
    mutable std::mutex mu;
    std::unique_ptr<TimerWheel> wheel;  // created at Start (origin = now)
    std::vector<size_t> members;        // slot indices; frozen at Start
    std::vector<size_t> inflight;       // members with running executions/drains
    std::unique_ptr<CheckerExecutor> executor;
    Event wake;  // dispatches, completions, and state changes wake the shard
    JoiningThread scheduler;
    TimeNs planned_wake = 0;  // scheduler-thread state
    std::atomic<int64_t> skipped_unchanged{0};
    std::vector<uint64_t> due;          // scheduler-thread scratch
    std::vector<size_t> launch_scratch; // scheduler-thread scratch
    // Work-stealing (scheduler-thread state): edge-triggered backlog
    // advertisement — when this shard's queue crosses the steal threshold it
    // wakes every sibling once; re-armed when the queue drains.
    bool backlog_advertised = false;
    // Shard-local failure lane: failures detected on this shard are recorded
    // (and deduped — a checker lives on exactly one shard, so per-lane dedup
    // is exact) under a lane mutex that no other shard's dispatch path ever
    // touches. Readers merge lanes sorted by detect_time.
    struct FailureLane {
      mutable std::mutex mu;
      std::vector<FailureSignature> failures;
      std::map<std::string, TimeNs> dedup_last;
    };
    FailureLane lane;
  };

  void ShardLoop(size_t shard_index);
  // Pushes a wheel entry for `slot` at `when` (shard.mu held). The previous
  // entry, if any, is superseded lazily via the generation counter.
  void ScheduleLocked(Shard& shard, Slot& slot, size_t slot_index, TimeNs when);
  // Submits due slots to the shard's pool in dispatch_batch-sized batches
  // (shard.mu held). On backpressure the whole batch is retried at
  // now + backoff.
  void LaunchBatchLocked(Shard& shard, const std::vector<size_t>& launches, TimeNs now);
  // Consumes completions / deadline misses for one in-flight slot (shard.mu
  // held); appends failures for processing outside the lock.
  void ReapLocked(Shard& shard, Slot& slot, size_t slot_index, TimeNs now,
                  std::vector<PendingFailure>& pending);
  // After abandoning a hung execution's batch: cancel its not-yet-started
  // siblings (kPending→kCancelled) and reschedule them shortly (shard.mu held).
  void CancelBatchSiblingsLocked(Shard& shard, const ExecutionBatch* batch, TimeNs now);
  // Collects results that finished right before Stop, without declaring new
  // timeouts (shard.mu held).
  void FinalReapShardLocked(Shard& shard, TimeNs now);
  // True when the slot subscribes to context keys and none advanced since the
  // last launch decision; updates the baseline fingerprint otherwise
  // (shard.mu held).
  bool ShouldSkipUnchangedLocked(Slot& slot);
  // Work-stealing pass, run once per scheduler iteration with no locks held:
  // when this shard's pool has an empty queue and idle workers, steal queued
  // batches from the most-backlogged sibling pool. Pool-internal locking only
  // (thief lock, then try-lock victim) — never under any shard.mu.
  void MaybeStealWork(size_t thief_index);
  // Dedup → validate → record (into `home`'s shard-local lane) → notify.
  // Takes the lane mutex / listeners_mu_ only for short sections, so
  // listeners may call back into driver accessors safely.
  void HandleFailure(FailureSignature sig, CheckerType type, TimeNs now,
                     Shard& home);
  // Bounded run of the validation probe; hang counts as confirmed impact.
  // Called WITHOUT locks held.
  bool RunValidationProbe();
  void EmitLivenessSignature(Slot& slot, DurationNs deadline,
                             std::vector<PendingFailure>& pending);
  // The hang deadline currently in force for a slot: its inferred budget, or
  // the checker's static timeout while the budget is cold / opted out.
  DurationNs SlotDeadlineLocked(const Slot& slot) const;
  // Supervised-mode heartbeat, run once per shard-0 pass (no locks held):
  // kicks wdogd when due and the all-shards liveness proof holds.
  void MaybeKickSupervisor(TimeNs now);
  // Refreshes the slot's inferred budget from its latency histogram (shard.mu
  // held; called every few completions so the Percentile scan stays off the
  // per-run hot path).
  void RefreshBudgetLocked(Slot& slot);
  // Shard assignment for a checker about to be registered.
  int ShardFor(const Checker& checker) const;
  // Slot index for a name, under reg_mu_; nullopt when unknown.
  std::optional<size_t> FindSlotLocked(const std::string& checker_name) const;

  Clock& clock_;
  Options options_;
  std::atomic<bool> running_{false};
  StopFlag stop_;

  std::unique_ptr<MetricsRegistry> owned_metrics_;
  MetricsRegistry* metrics_ = nullptr;
  Gauge* scheduler_lag_gauge_ = nullptr;
  Gauge* pool_utilization_gauge_ = nullptr;

  // Registration plane: slots_ grows only before Start() (accessors take
  // reg_mu_ against concurrent registration and HOLD it across any shard.mu
  // section they enter — the vector is by-value, so a concurrent push_back
  // would invalidate Slot references; scheduler threads read the frozen
  // vector without it). Slot *state* is guarded by the owning shard's mutex.
  // Lock order: reg_mu_ → shard.mu; never the reverse.
  mutable std::mutex reg_mu_;
  std::vector<Slot> slots_;
  // Keys view into each slot's checker->name() — the Checker object is heap-
  // stable even as slots_ reallocates, so the views never dangle.
  std::unordered_map<std::string_view, size_t> index_by_name_;

  std::vector<std::unique_ptr<Shard>> shards_;

  // Listener plane: registration of listeners / recovery actions / probe
  // bookkeeping. Failure *records* live in per-shard lanes (Shard::lane) so
  // the dispatch path never takes a global failure mutex.
  mutable std::mutex listeners_mu_;
  std::vector<FailureListener*> listeners_;
  std::vector<std::pair<std::string, RecoveryAction*>> recovery_actions_;
  std::function<FusionSample()> fusion_sampler_;  // listeners_mu_

  // Probe validation bookkeeping (threads are rare and short-lived).
  struct ProbeRun {
    std::mutex mu;
    std::condition_variable cv;  // signalled once done is set
    bool done = false;
    bool failed = false;
    JoiningThread thread;
  };
  std::vector<std::unique_ptr<ProbeRun>> probe_drain_;  // listeners_mu_

  // Supervised mode (shard-0 scheduler-thread state except the counters).
  DriverSupervision supervision_;
  bool stopped_ = false;  // a stopped driver cannot be restarted
  TimeNs last_supervisor_kick_ = 0;
  std::vector<int64_t> completed_at_last_kick_;  // per shard
  std::atomic<int64_t> supervisor_kicks_{0};
  std::atomic<int64_t> supervisor_kicks_withheld_{0};

  std::atomic<int64_t> deduped_{0};
  std::atomic<int64_t> suppressed_{0};
  std::atomic<int64_t> timeouts_total_{0};
  std::atomic<int64_t> crashes_total_{0};
};

}  // namespace wdg
