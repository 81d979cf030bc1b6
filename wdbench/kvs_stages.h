// The two kvs stages of a benchmark run.
//
// serve: the Figure 1 kvs leader+follower with the paper-scale watchdog
//   (AutoWatchdog mimic checkers at 20 ms, the kvs API probe checker, the
//   resource signal suite, fusion, and a wdogd supervisor over the pipe
//   transport), driven by one closed-loop client whose every GET is checked
//   against the client's own last acknowledged SET.
// fault: the same cluster and watchdog without wdogd, with that client as
//   background load, cycling seeded wal-append-hang / flush-write-error /
//   control cycles and timing fault → verdict → recovery action.
#pragma once

#include <cstddef>
#include <cstdint>

#include "src/common/clock.h"
#include "wdbench/stats.h"

namespace wdbench {

// Deliberate defects for the self-test: each must surface as a failure.
enum class Plant {
  kNone,
  kWrongRead,        // the client expects a different value for one GET
  // The verdict listener is detached on every hang cycle, and the fault
  // stage opens with a hang cycle, so even a short run misses one.
  kMissedDetection,
};

struct KvsStageOptions {
  uint64_t seed = 1;
  wdg::DurationNs duration = wdg::Sec(5);  // timed window
  size_t value_bytes = 64;
  int setups = 3;  // fault stage: set-up repetitions; the median is reported
  int rounds = 5;  // serve stage: fresh clusters; medians over rounds
  Plant plant = Plant::kNone;
};

// Both append end-to-end and per-layer metrics to `report` and record every
// set-up in `setup`.
void RunServeStage(const KvsStageOptions& options, Report& report, SetupTimes& setup);
void RunFaultStage(const KvsStageOptions& options, Report& report, SetupTimes& setup);

}  // namespace wdbench
