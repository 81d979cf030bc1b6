// The fleet stage of a benchmark run: the watchdog driver alone, with its
// default options, under more offered checks than it can complete.
//
// 10 000 mimic checkers at a 10 ms interval (10^6 checks/s offered) read two
// typed keys from 64 contexts. A publisher thread fires hooks into the
// contexts: all 64 during warm-up, then only half of them, so the other half
// go quiet like the mostly dormant mimics of a real fleet. The stage reports
// the checks the driver completes per second (capacity, not the offered
// rate) and the process CPU spent per completed check.
#pragma once

#include <cstddef>
#include <cstdint>

#include "src/common/clock.h"
#include "wdbench/stats.h"

namespace wdbench {

struct FleetStageOptions {
  uint64_t seed = 1;
  wdg::DurationNs duration = wdg::Sec(3);  // timed window
  size_t tag_bytes = 16;  // length of the string key each hook publishes
  // Fresh driver starts; set-up time and every figure are medians over them.
  int rounds = 5;
};

void RunFleetStage(const FleetStageOptions& options, Report& report, SetupTimes& setup);

}  // namespace wdbench
