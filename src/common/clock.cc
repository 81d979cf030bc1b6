#include "src/common/clock.h"

#include <chrono>
#include <thread>

namespace wdg {

bool Clock::WaitUntil(TimeNs deadline, const std::function<bool()>& pred, DurationNs poll) {
  while (true) {
    if (pred()) {
      return true;
    }
    if (NowNs() >= deadline) {
      return pred();
    }
    SleepFor(poll);
  }
}

RealClock& RealClock::Instance() {
  static RealClock* clock = new RealClock();
  return *clock;
}

TimeNs RealClock::NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void RealClock::SleepFor(DurationNs ns) {
  if (ns <= 0) {
    return;
  }
  if (ns >= kPreciseWaitBelow) {
    std::this_thread::sleep_for(std::chrono::nanoseconds(ns));
    return;
  }
  const TimeNs deadline = NowNs() + ns;
  while (NowNs() < deadline) {
    std::this_thread::yield();
  }
}

SimClock::~SimClock() { Shutdown(); }

TimeNs SimClock::NowNs() {
  std::lock_guard<std::mutex> lock(mu_);
  return now_;
}

void SimClock::SleepFor(DurationNs ns) {
  std::unique_lock<std::mutex> lock(mu_);
  const TimeNs deadline = now_ + ns;
  ++sleepers_;
  cv_.wait(lock, [&] { return shutdown_ || now_ >= deadline; });
  --sleepers_;
}

void SimClock::Advance(DurationNs ns) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    now_ += ns;
  }
  cv_.notify_all();
}

void SimClock::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  cv_.notify_all();
}

int SimClock::sleeper_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return sleepers_;
}

}  // namespace wdg
