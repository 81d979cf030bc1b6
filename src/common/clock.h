// Virtual time. Every module takes a Clock& so unit tests run deterministically
// on SimClock while integration tests and benches run on RealClock with
// millisecond-scale intervals (1 paper-second == 100 real milliseconds; see
// DESIGN.md "Substitutions").
#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>

namespace wdg {

// Monotonic nanoseconds.
using TimeNs = int64_t;
using DurationNs = int64_t;

constexpr DurationNs kNsPerUs = 1000;
constexpr DurationNs kNsPerMs = 1000 * 1000;
constexpr DurationNs kNsPerSec = 1000 * 1000 * 1000;

constexpr DurationNs Us(int64_t n) { return n * kNsPerUs; }
constexpr DurationNs Ms(int64_t n) { return n * kNsPerMs; }
constexpr DurationNs Sec(int64_t n) { return n * kNsPerSec; }

// The virtual-time convention for reporting paper-scale numbers: experiments
// run 10x faster than the paper's wall clock.
constexpr double kLogicalSecondsPerRealMs = 1.0 / 100.0;
inline double ToLogicalSeconds(DurationNs real) {
  return static_cast<double>(real) / static_cast<double>(kNsPerMs) * kLogicalSecondsPerRealMs;
}

class Clock {
 public:
  virtual ~Clock() = default;

  // Monotonic now.
  virtual TimeNs NowNs() = 0;

  // Block the calling thread for `ns` of this clock's time. Returns early if
  // the clock is shut down (SimClock) — callers must re-check their own stop
  // conditions after sleeping regardless.
  virtual void SleepFor(DurationNs ns) = 0;

  // Busy-friendly wait: re-evaluates `pred` until it returns true or
  // `deadline` passes. Returns the final pred value.
  bool WaitUntil(TimeNs deadline, const std::function<bool()>& pred, DurationNs poll = Ms(1));
};

// RealClock::SleepFor yield-spins waits shorter than this instead of sleeping.
// The kernel stretches every timed sleep by the thread's timer slack (50 us by
// default), which swamps the simulator's microsecond latency model: a 5 us
// SimDisk op slept ~55-60 us. About twice the default slack, so every wait
// the slack could dominate is precise, while millisecond polls keep sleeping
// and cost no CPU.
constexpr DurationNs kPreciseWaitBelow = Us(100);

// Wall-clock-backed monotonic clock (CLOCK_MONOTONIC).
class RealClock : public Clock {
 public:
  static RealClock& Instance();

  TimeNs NowNs() override;
  // Never returns before `ns` has passed; waits below kPreciseWaitBelow also
  // return within a few microseconds of it.
  void SleepFor(DurationNs ns) override;
};

// Manually-advanced clock for deterministic tests. Sleepers block until
// Advance() moves now past their deadline (or Shutdown releases everyone).
class SimClock : public Clock {
 public:
  explicit SimClock(TimeNs start = 0) : now_(start) {}
  ~SimClock() override;

  TimeNs NowNs() override;
  void SleepFor(DurationNs ns) override;

  // Moves time forward and wakes sleepers whose deadlines passed.
  void Advance(DurationNs ns);
  // Releases all sleepers immediately; subsequent SleepFor calls return at once.
  void Shutdown();
  // Number of threads currently blocked in SleepFor (test synchronization aid).
  int sleeper_count() const;

 private:
  mutable std::mutex mu_;
  std::condition_variable cv_;
  TimeNs now_;
  bool shutdown_ = false;
  int sleepers_ = 0;
};

}  // namespace wdg
