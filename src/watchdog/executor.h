// CheckerExecutor: the execution half of the watchdog driver (paper §3.1/§3.2).
//
// The driver used to spawn a fresh thread per checker execution per interval;
// at hundreds of checkers that is hundreds of thread creations per second
// inside the monitored process — exactly the unbounded overhead the paper
// warns a watchdog must not impose. The executor replaces that with a fixed
// pool of long-lived workers fed by a bounded queue:
//
//   - SubmitBatch() is non-blocking; a full queue is *backpressure* and the
//     scheduler simply retries at its next wake, so a slow pool throttles
//     checking instead of ballooning threads;
//   - a batch of due executions is one pool task: the worker claims and runs
//     them serially, so a fleet of cheap mimic checks pays one queue
//     round-trip per batch instead of one per check (docs/DRIVER.md,
//     "Batched dispatch");
//   - batches live in recycled slabs (`DispatchBatch`) drawn from a per-
//     executor freelist, and the pool queue is a fixed ring, so a steady-state
//     dispatch round performs zero heap allocations (docs/DRIVER.md,
//     "Allocation-free dispatch"); the freelist is owned by the shard's
//     scheduler thread — no lock;
//   - an idle shard's executor can *steal* whole queued batches from a
//     backlogged sibling (TryStealFrom): the batch is re-ticketed onto the
//     thief's pool under both pool locks and its control block re-routed, so
//     abandon semantics stay exactly-once wherever the batch ends up running;
//   - a worker stuck past its checker's deadline is abandoned via
//     WorkerPool::AbandonIfRunning — the thread leaves the pool (parked on a
//     drain list until Stop) and a replacement is spawned, preserving §3.2:
//     the hang is the detection, and the driver never blocks on it. The
//     scheduler claims the hang through the execution's state machine
//     (kRunning→kAbandoned, exactly once) and cancels the batch's not-yet-
//     started siblings (kPending→kCancelled) so they re-dispatch promptly on
//     a healthy worker instead of waiting out the hang;
//   - a checker that throws is caught on the worker and surfaces as a
//     CHECKER_CRASH signature, never an exception in the main program;
//   - queue delay (enqueue→dispatch) is sampled into a shared histogram so
//     the watchdog can observe its own scheduling health (DriverMetrics()).
//
// The pool keeps the size it was started with; an abandonment respawn
// restores it.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/common/clock.h"
#include "src/common/metrics.h"
#include "src/common/threading.h"
#include "src/watchdog/checker.h"

namespace wdg {

class CheckerExecutor;
struct DispatchBatch;

// Lifecycle of one execution inside its batch. The worker CASes
// kPending→kRunning to claim and kRunning→kDone to close out; the scheduler
// CASes kRunning→kAbandoned to claim a hang (exactly once — whoever wins the
// CAS owns the transition) and kPending→kCancelled to pull an unstarted
// sibling out of an abandoned batch for re-dispatch.
enum class ExecState : uint8_t {
  kPending = 0,
  kRunning,
  kDone,
  kCancelled,
  kAbandoned,
};

// Shared control block of one dispatched batch: the pool ticket of the batch
// task, the pool that will run it (the home executor's — or, after a steal,
// the thief's), and the abandon latch the worker polls between executions.
// `ticket` and `runner` are rewritten together under both pool locks when a
// batch is stolen; the scheduler reads them only for executions it has
// observed kRunning, which orders those reads after the steal.
struct ExecutionBatch {
  std::atomic<uint64_t> ticket{0};
  std::atomic<CheckerExecutor*> runner{nullptr};
  std::atomic<bool> abandoned{false};
};

// One in-flight checker execution. It lives inside a recycled DispatchBatch
// slab: the scheduler references it through the checker's slot, the worker
// through the batch task — the slab is recycled only after both sides are
// provably finished (scheduler refs drained AND worker released). The worker
// fills the result fields and flips `done` last (release); the scheduler
// reads them only after observing done == true (acquire). No mutex.
struct Execution {
  Checker* checker = nullptr;
  TimeNs enqueue_time = 0;
  // 0 until a worker picks the execution up; the deadline for hang
  // abandonment counts from this point (execution time, not queue time).
  std::atomic<TimeNs> dispatch_time{0};
  std::atomic<uint8_t> state{static_cast<uint8_t>(ExecState::kPending)};
  std::atomic<bool> done{false};

  bool crashed = false;
  CheckResult result;
  std::string crash_what;
  TimeNs complete_time = 0;  // worker-side timestamp, exact run latency

  DispatchBatch* slab = nullptr;    // owning slab (set once at slab creation)
  ExecutionBatch* batch = nullptr;  // == &slab->control (set once)
};

// A recyclable dispatch slab: the batch control block plus embedded storage
// for up to `capacity` executions. Owned by one executor's freelist and only
// ever touched by that shard's scheduler thread (acquire/release/recycle) and
// by the single worker running its task (RunBatch). Never freed before the
// executor is destroyed, so scheduler-held Execution pointers stay valid
// through Stop().
struct DispatchBatch {
  ExecutionBatch control;
  std::unique_ptr<Execution[]> storage;
  size_t capacity = 0;
  size_t count = 0;     // live prefix of storage for this dispatch round
  int sched_refs = 0;   // scheduler-only: outstanding Execution* references
  // Set (release) by the worker as its last touch of the slab — or never, if
  // the batch was discarded unrun at Stop or its worker is still hung.
  std::atomic<bool> worker_released{true};
};

struct CheckerExecutorOptions {
  int workers = 4;  // fixed pool size
  size_t queue_capacity = 256;
};

class CheckerExecutor {
 public:
  using Options = CheckerExecutorOptions;

  // All shards' executors share the one queue-delay histogram in `metrics`,
  // so the p99 DriverMetrics() reports stays a process-global number.
  CheckerExecutor(Clock& clock, MetricsRegistry& metrics, Options options);
  ~CheckerExecutor();

  CheckerExecutor(const CheckerExecutor&) = delete;
  CheckerExecutor& operator=(const CheckerExecutor&) = delete;

  void Start();
  // Discards queued work and joins every worker ever spawned, including
  // abandoned ones. The caller must first unblock injected hangs
  // (WatchdogDriver runs release_on_stop before this). Slabs are NOT freed
  // here — scheduler-held Execution pointers stay valid until destruction.
  void Stop();

  // Invoked (without locks held) on each dispatch and once per finished batch
  // so the scheduler can re-arm its deadline wait. Set before Start().
  void SetWakeScheduler(std::function<void()> wake);

  // --- slab lifecycle (shard scheduler thread only; no locks) -------------
  // Returns a slab with at least `capacity` execution slots, recycled from
  // the freelist when one is available (allocates only while the in-flight
  // high-water mark is still growing). Also sweeps the retiring list.
  DispatchBatch* AcquireBatch(size_t capacity);
  // Drops one scheduler reference to `exec`'s slab; when the last reference
  // drops the slab moves to the retiring list and is recycled once its worker
  // has released it.
  void ReleaseExecution(Execution& exec);
  // Returns a slab that was never submitted (backpressure path) straight to
  // the freelist.
  void RecycleUnsubmitted(DispatchBatch* slab);

  // Submits `slab` (its first `count` executions) as one pool task; the
  // worker claims and runs them serially in order. The scheduler must have
  // set checker/state/done on each live execution and sched_refs on the slab
  // before calling. Non-blocking: false when the queue is full (backpressure
  // — counted once per execution) or the executor is stopped; the scheduler
  // recycles the slab and retries at its next wake. Allocation-free.
  bool SubmitBatch(DispatchBatch* slab);

  // Parks the worker running `batch` off whichever pool it runs on (the
  // home pool, or the thief's after a steal; a replacement is spawned there)
  // and latches the batch abandoned so the worker, if it ever unblocks, skips
  // the remaining executions. Called by the scheduler after it won the hung
  // execution's kRunning→kAbandoned CAS, so it runs at most once per batch.
  // False when the batch task already finished.
  bool AbandonBatch(ExecutionBatch& batch);

  // Work-stealing: moves up to `max_batches` queued-but-unclaimed batch tasks
  // from the back of `victim`'s pool queue onto this executor's pool,
  // re-ticketing each and re-routing its control block under both pool locks.
  // Only steals while this pool's queue is empty; the victim's lock is
  // try-acquired (contention skips the steal). The stolen task still runs the
  // *home* executor's RunBatch — completions, counters and scheduler wakes
  // all route back to the shard that owns the checkers; only the executing
  // pool changes. Returns batches stolen (counted in batches_stolen()).
  size_t TryStealFrom(CheckerExecutor& victim, size_t max_batches);

  int worker_count() const { return pool_.active_workers(); }
  int busy_count() const { return pool_.BusyCount(); }
  size_t queue_depth() const { return pool_.QueueDepth(); }
  // Lock-free approximations for per-pass cross-shard scans (steal-candidate
  // selection, fleet utilization); see WorkerPool::QueueDepthHint.
  int worker_count_hint() const { return pool_.ActiveWorkersHint(); }
  int busy_count_hint() const { return pool_.BusyCountHint(); }
  size_t queue_depth_hint() const { return pool_.QueueDepthHint(); }
  size_t queue_capacity() const { return pool_.queue_capacity(); }
  int64_t threads_spawned() const { return pool_.threads_spawned(); }
  int64_t workers_abandoned() const { return pool_.abandoned_count(); }
  int64_t dispatched_count() const { return dispatched_.load(std::memory_order_relaxed); }
  int64_t completed_count() const { return completed_.load(std::memory_order_relaxed); }
  int64_t rejected_count() const { return rejected_.load(std::memory_order_relaxed); }
  int64_t batches_submitted() const { return batches_.load(std::memory_order_relaxed); }
  int64_t batches_stolen() const { return batches_stolen_.load(std::memory_order_relaxed); }

 private:
  // Worker body for one batch task: claim → run → close out, serially.
  // Runs on whichever pool holds the task, but always on the *home*
  // executor's state (`this` is captured at submit).
  void RunBatch(DispatchBatch* slab);
  // Runs one claimed execution and publishes its result (done = true last).
  void RunOne(Execution& exec);

  Clock& clock_;
  WorkerPool pool_;
  std::function<void()> wake_scheduler_;
  Histogram* queue_delay_hist_;  // wdg.driver.queue_delay_ns (shared across shards)

  // Slab freelist — scheduler-thread-only (plus Stop/dtor after the scheduler
  // has been joined). Slabs are owned by all_slabs_ and freed only at
  // destruction.
  std::vector<std::unique_ptr<DispatchBatch>> all_slabs_;
  std::vector<DispatchBatch*> free_slabs_;
  std::vector<DispatchBatch*> retiring_;  // sched_refs == 0, worker not yet released

  std::atomic<int64_t> dispatched_{0};
  std::atomic<int64_t> completed_{0};
  std::atomic<int64_t> rejected_{0};
  std::atomic<int64_t> batches_{0};
  std::atomic<int64_t> batches_stolen_{0};
  std::atomic<uint64_t> sample_counter_{0};  // 1-in-16 queue-delay sampling
};

}  // namespace wdg
