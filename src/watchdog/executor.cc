#include "src/watchdog/executor.h"

#include <exception>
#include <utility>

namespace wdg {

namespace {

bool CasState(Execution& exec, ExecState from, ExecState to) {
  uint8_t expected = static_cast<uint8_t>(from);
  return exec.state.compare_exchange_strong(expected, static_cast<uint8_t>(to),
                                            std::memory_order_acq_rel,
                                            std::memory_order_acquire);
}

}  // namespace

CheckerExecutor::CheckerExecutor(Clock& clock, MetricsRegistry& metrics, Options options)
    : clock_(clock),
      pool_(WorkerPool::Options{options.workers, options.queue_capacity}),
      queue_delay_hist_(metrics.GetHistogram("wdg.driver.queue_delay_ns")) {
  free_slabs_.reserve(64);
  retiring_.reserve(64);
}

CheckerExecutor::~CheckerExecutor() {
  Stop();
  // Workers (including abandoned ones) are joined; slabs can finally go.
  all_slabs_.clear();
}

void CheckerExecutor::Start() { pool_.Start(); }

void CheckerExecutor::Stop() { pool_.Stop(); }

void CheckerExecutor::SetWakeScheduler(std::function<void()> wake) {
  wake_scheduler_ = std::move(wake);
}

DispatchBatch* CheckerExecutor::AcquireBatch(size_t capacity) {
  // Sweep slabs whose scheduler refs drained earlier but whose worker had not
  // yet released the storage. Swap-remove keeps the sweep O(retiring).
  for (size_t i = 0; i < retiring_.size();) {
    if (retiring_[i]->worker_released.load(std::memory_order_acquire)) {
      free_slabs_.push_back(retiring_[i]);
      retiring_[i] = retiring_.back();
      retiring_.pop_back();
    } else {
      ++i;
    }
  }
  DispatchBatch* slab = nullptr;
  if (!free_slabs_.empty()) {
    slab = free_slabs_.back();
    free_slabs_.pop_back();
  } else {
    auto owned = std::make_unique<DispatchBatch>();
    slab = owned.get();
    all_slabs_.push_back(std::move(owned));
  }
  if (slab->capacity < capacity) {
    slab->storage = std::make_unique<Execution[]>(capacity);
    slab->capacity = capacity;
    for (size_t i = 0; i < capacity; ++i) {
      slab->storage[i].slab = slab;
      slab->storage[i].batch = &slab->control;
    }
  }
  slab->count = 0;
  slab->sched_refs = 0;
  return slab;
}

void CheckerExecutor::ReleaseExecution(Execution& exec) {
  DispatchBatch* slab = exec.slab;
  if (--slab->sched_refs == 0) {
    retiring_.push_back(slab);
  }
}

void CheckerExecutor::RecycleUnsubmitted(DispatchBatch* slab) {
  free_slabs_.push_back(slab);
}

bool CheckerExecutor::SubmitBatch(DispatchBatch* slab) {
  const size_t n = slab->count;
  if (n == 0) {
    RecycleUnsubmitted(slab);
    return true;
  }
  const TimeNs enqueued = clock_.NowNs();
  for (size_t i = 0; i < n; ++i) {
    slab->storage[i].enqueue_time = enqueued;
  }
  slab->control.abandoned.store(false, std::memory_order_relaxed);
  slab->control.runner.store(this, std::memory_order_relaxed);
  slab->worker_released.store(false, std::memory_order_relaxed);
  // Ticket is reserved (and published into the control block) before the task
  // becomes runnable, so AbandonBatch can never read an unset ticket. The
  // queue mutex inside TrySubmitTicketed publishes all the plain stores above
  // to whichever worker pops the task. The 2-pointer capture fits
  // std::function's inline buffer — no allocation.
  const uint64_t ticket = pool_.ReserveTicket();
  slab->control.ticket.store(ticket, std::memory_order_relaxed);
  if (!pool_.TrySubmitTicketed(ticket, [this, slab] { RunBatch(slab); },
                               &slab->control)) {
    // Queue full: every execution in the batch is a rejected (late) check.
    slab->worker_released.store(true, std::memory_order_relaxed);
    rejected_.fetch_add(static_cast<int64_t>(n), std::memory_order_relaxed);
    return false;
  }
  batches_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

bool CheckerExecutor::AbandonBatch(ExecutionBatch& batch) {
  batch.abandoned.store(true, std::memory_order_release);
  // After a steal, ticket/runner point at the thief's pool. The scheduler only
  // abandons batches it has observed kRunning, which orders these loads after
  // the steal's rewrite (steal happens strictly before any worker claims).
  CheckerExecutor* runner = batch.runner.load(std::memory_order_acquire);
  if (runner == nullptr) {
    runner = this;
  }
  return runner->pool_.AbandonIfRunning(batch.ticket.load(std::memory_order_acquire));
}

size_t CheckerExecutor::TryStealFrom(CheckerExecutor& victim, size_t max_batches) {
  if (&victim == this) {
    return 0;
  }
  const size_t stolen = pool_.StealFrom(
      victim.pool_, max_batches, [this](void* tag, uint64_t new_ticket) {
        auto* control = static_cast<ExecutionBatch*>(tag);
        control->ticket.store(new_ticket, std::memory_order_relaxed);
        control->runner.store(this, std::memory_order_relaxed);
      });
  if (stolen > 0) {
    batches_stolen_.fetch_add(static_cast<int64_t>(stolen),
                              std::memory_order_relaxed);
  }
  return stolen;
}

void CheckerExecutor::RunBatch(DispatchBatch* slab) {
  for (size_t i = 0; i < slab->count; ++i) {
    Execution& exec = slab->storage[i];
    if (slab->control.abandoned.load(std::memory_order_acquire)) {
      // The scheduler abandoned this batch while a previous execution hung;
      // the remaining siblings were cancelled for re-dispatch. This thread is
      // already parked off the pool — just stop doing work.
      break;
    }
    if (!CasState(exec, ExecState::kPending, ExecState::kRunning)) {
      continue;  // cancelled by the scheduler (or defensively: never ours)
    }
    RunOne(exec);
    const bool completed_cleanly = CasState(exec, ExecState::kRunning, ExecState::kDone);
    completed_.fetch_add(1, std::memory_order_relaxed);
    if (!completed_cleanly) {
      // The scheduler claimed this execution as hung (we finished barely past
      // the deadline) and abandoned the batch ticket: the pool has respawned
      // past this thread, so it must not run the remaining executions.
      break;
    }
  }
  // Last touch of the slab: after this (release) the scheduler may recycle it
  // once its own references drain. One wake per finished batch covers all the
  // completions above — the per-dispatch wake in RunOne already armed each
  // deadline.
  slab->worker_released.store(true, std::memory_order_release);
  if (wake_scheduler_) {
    wake_scheduler_();
  }
}

void CheckerExecutor::RunOne(Execution& exec) {
  const TimeNs dispatched_at = clock_.NowNs();
  exec.dispatch_time.store(dispatched_at, std::memory_order_release);
  dispatched_.fetch_add(1, std::memory_order_relaxed);
  // Sampling 1-in-16 keeps the shared histogram's atomic adds, contended by
  // every worker of every shard, off most dispatches; a uniform sample keeps
  // the percentiles.
  if ((sample_counter_.fetch_add(1, std::memory_order_relaxed) & 0xF) == 0) {
    queue_delay_hist_->Record(static_cast<double>(dispatched_at - exec.enqueue_time));
  }
  if (wake_scheduler_) {
    wake_scheduler_();  // the scheduler can now arm this execution's deadline
  }

  CheckResult result;
  bool crashed = false;
  std::string what;
  try {
    result = exec.checker->Check();
  } catch (const std::exception& e) {
    crashed = true;
    what = e.what();
  } catch (...) {
    crashed = true;
    what = "non-standard exception";
  }

  exec.result = std::move(result);
  exec.crashed = crashed;
  exec.crash_what = std::move(what);
  exec.complete_time = clock_.NowNs();
  exec.done.store(true, std::memory_order_release);
}

}  // namespace wdg
