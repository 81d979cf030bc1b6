// wdbench: one benchmark run. Usually started through run.py, which builds
// it, stamps the host fingerprint and prints the result line.
//
//   wdbench --workload paper_scale --seed 1 --seconds 30 --trace 0 --out r.json
//
// Every run executes three stages in order, each on freshly built state:
//   serve  — kvs cluster + paper-scale watchdog + wdogd, one closed-loop client;
//   fleet  — the watchdog driver alone, 10k mimic checkers, offered > capacity;
//   fault  — kvs cluster + watchdog, seeded hang / error / control cycles.
// The workload chooses the input sizes (see Workload below); the seed chooses
// the client's keys and operation sequence, the checkers' start offsets, the
// fault rotation and the inject offsets.
//
// --trace 1 runs the stages twice, on half of --seconds each: untraced
// first, for every figure the program itself produces, then traced, for the
// spans around the benchmark's calls into the layers, the timed per-layer
// metrics and the tracing overhead (traced minus untraced figures). No
// figure of the program carries the tracer's cost. --short shrinks every
// stage for the self-test; --plant wrong_read|missed_detection plants a
// defect that must be counted as a failure.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "src/common/strings.h"
#include "wdbench/fleet.h"
#include "wdbench/kvs_stages.h"
#include "wdbench/stats.h"
#include "wdbench/trace.h"

namespace {

using wdbench::Metric;
using wdbench::Report;

// The end-to-end metrics every run prints.
constexpr const char* kEndToEnd[] = {
    "setup_s",          "cpu_cores",          "kvs_rps",
    "kvs_p50_us",       "kvs_p99_us",         "checks_per_s",
    "cpu_us_per_check", "detect_hang_ms_p50", "detect_error_ms_p50",
    "act_hang_ms_p50",  "act_error_ms_p50",   "false_alarms",
    "error_rate"};

struct Workload {
  const char* name;
  size_t value_bytes;  // kvs client values
  size_t tag_bytes;    // fleet hook string; > 48 B leaves the inline context cell
};

// paper_scale: the paper's running example, 64 B values and short context
//   strings that fit the context's inline cells.
// large_values: 1 KiB values (about one memtable flush per SET, so WAL,
//   flusher, compaction and disk move more bytes per request) and 64 B
//   context strings, which take the context's overflow write/read path.
constexpr Workload kWorkloads[] = {
    {"paper_scale", 64, 16},
    {"large_values", 1024, 64},
};

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 30;
  bool trace = false;
  bool short_mode = false;
  std::string plant = "none";
  std::string out;
  std::string spans;
};

bool ParseArgs(int argc, char** argv, Args& args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--short") {
      args.short_mode = true;
      continue;
    }
    if (i + 1 >= argc) {
      std::fprintf(stderr, "missing value for %s\n", flag.c_str());
      return false;
    }
    const char* value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      args.trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--plant") {
      args.plant = value;
    } else if (flag == "--out") {
      args.out = value;
    } else if (flag == "--spans") {
      args.spans = value;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return false;
    }
  }
  return args.seconds > 0 && !args.out.empty() &&
         (args.plant == "none" || args.plant == "wrong_read" ||
          args.plant == "missed_detection");
}

const Metric* Find(const Report& report, const std::string& name) {
  for (const Metric& m : report.metrics) {
    if (m.name == name) {
      return &m;
    }
  }
  return nullptr;
}

// Runs the serve, fleet and fault stages in order, measuring `seconds` in
// all, and adds the metrics that span the stages.
Report RunStages(const Args& args, const Workload& workload, double seconds) {
  wdbench::KvsStageOptions kvs_options;
  kvs_options.seed = args.seed;
  kvs_options.value_bytes = workload.value_bytes;
  kvs_options.setups = args.short_mode ? 1 : 3;
  kvs_options.rounds = args.short_mode ? 1 : 5;
  kvs_options.plant = args.plant == "wrong_read"         ? wdbench::Plant::kWrongRead
                      : args.plant == "missed_detection" ? wdbench::Plant::kMissedDetection
                                                         : wdbench::Plant::kNone;
  wdbench::FleetStageOptions fleet_options;
  fleet_options.seed = args.seed;
  fleet_options.tag_bytes = workload.tag_bytes;
  fleet_options.rounds = args.short_mode ? 1 : 5;

  Report report;
  const wdbench::HostTicks ticks0 = wdbench::ReadHostTicks();
  wdbench::SetupTimes serve_setup, fleet_setup, fault_setup;
  kvs_options.duration = static_cast<wdg::DurationNs>(seconds * 0.15 * 1e9);
  wdbench::RunServeStage(kvs_options, report, serve_setup);
  fleet_options.duration = static_cast<wdg::DurationNs>(seconds * 0.15 * 1e9);
  wdbench::RunFleetStage(fleet_options, report, fleet_setup);
  kvs_options.duration = static_cast<wdg::DurationNs>(seconds * 0.70 * 1e9);
  // The fault stage keeps the paper's 64 B client values in every workload:
  // with 1 KiB values the resource suite's RSS-growth checker raises false
  // alarms several times a second (counted in the serve stage), and those
  // would race the injected fault for the "first verdict" of a cycle.
  kvs_options.value_bytes = kWorkloads[0].value_bytes;
  wdbench::RunFaultStage(kvs_options, report, fault_setup);

  const wdbench::HostTicks ticks1 = wdbench::ReadHostTicks();
  const int64_t all_ticks = ticks1.total - ticks0.total;
  const double steal_share =
      all_ticks > 0 ? static_cast<double>(ticks1.steal - ticks0.steal) / all_ticks : 0;
  report.Note(wdg::StrFormat("host: %.1f%% of CPU time stolen by the hypervisor during the run",
                             100 * steal_share));
  report.Add("host.steal_share", steal_share, "ratio");
  // setup_s is CPU time: on a host whose hypervisor steals a varying share
  // of the CPU, wall-clock set-up of the same code moved by up to 2x between
  // runs, while the CPU it takes does not depend on the steal.
  report.Add("setup_s",
             (serve_setup.cpu_ns() + fleet_setup.cpu_ns() + fault_setup.cpu_ns()) / 1e9, "s");
  report.Add("setup.wall_s",
             (serve_setup.wall_ns() + fleet_setup.wall_ns() + fault_setup.wall_ns()) / 1e9, "s");
  report.Add("setup.serve_ms", serve_setup.wall_ns() / 1e6, "ms");
  report.Add("setup.fleet_ms", fleet_setup.wall_ns() / 1e6, "ms");
  report.Add("setup.fault_ms", fault_setup.wall_ns() / 1e6, "ms");
  double false_alarms = 0;
  double error_rate = 0;
  for (const Metric& m : report.metrics) {
    if (m.name == "serve.false_alarms" || m.name == "fault.false_alarms") {
      false_alarms += m.value;
    }
    // The stages' operations differ in number by orders of magnitude (about
    // 10^6 fleet checks against a few hundred fault cycles), so the run's
    // error rate is the worst stage's, not the pooled share.
    if (m.name == "serve.error_rate" || m.name == "fleet.error_rate" ||
        m.name == "fault.error_rate") {
      error_rate = std::max(error_rate, m.value);
    }
  }
  report.Add("false_alarms", false_alarms, "count");
  report.Add("error_rate", error_rate, "ratio");
  return report;
}

// Folds the traced pass into the untraced pass's report: its notes, the
// tracing overhead of every end-to-end metric, and the metrics only a traced
// pass measures. Every other figure stays the untraced pass's.
void AddTracedPass(Report& report, const Report& traced) {
  for (const std::string& note : traced.notes) {
    report.Note("traced pass: " + note);
  }
  report.Note("tracing overhead (untraced pass -> traced pass):");
  for (const char* name : kEndToEnd) {
    const Metric* plain = Find(report, name);
    const Metric* with = Find(traced, name);
    if (plain == nullptr || with == nullptr) {
      continue;
    }
    const std::string change =
        plain->value == 0 ? "n/a"
                          : wdg::StrFormat("%+.1f%%", 100 * (with->value - plain->value) /
                                                          plain->value);
    report.Note(wdg::StrFormat("  %-22s %14.4f -> %14.4f %-9s %s", name, plain->value,
                               with->value, plain->unit.c_str(), change.c_str()));
  }
  for (const Metric& m : traced.metrics) {
    if (Find(report, m.name) == nullptr) {
      report.Add(m.name, m.value, m.unit);
    }
  }
  report.attempted += traced.attempted;
  report.failed += traced.failed;
  report.correct = report.correct && traced.correct;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += wdg::StrFormat("\\u%04x", c);
    } else {
      out.push_back(c);
    }
  }
  return out;
}

bool WriteJson(const std::string& path, const Report& report,
               const std::vector<wdbench::LayerTime>& layers, int64_t spans, int64_t dropped) {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) {
    return false;
  }
  std::fprintf(file, "{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld,\n",
               report.correct ? "true" : "false", static_cast<long long>(report.attempted),
               static_cast<long long>(report.failed));
  std::fprintf(file, " \"metrics\": {");
  for (size_t i = 0; i < report.metrics.size(); ++i) {
    const wdbench::Metric& m = report.metrics[i];
    std::fprintf(file, "%s\n  \"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ",",
                 m.name.c_str(), m.value, m.unit.c_str());
  }
  std::fprintf(file, "},\n \"notes\": [");
  for (size_t i = 0; i < report.notes.size(); ++i) {
    std::fprintf(file, "%s\"%s\"", i == 0 ? "" : ", ", JsonEscape(report.notes[i]).c_str());
  }
  std::fprintf(file, "],\n \"spans\": %lld, \"spans_dropped\": %lld,\n \"layers\": [",
               static_cast<long long>(spans), static_cast<long long>(dropped));
  for (size_t i = 0; i < layers.size(); ++i) {
    std::fprintf(file, "%s\n  {\"name\": \"%s\", \"spans\": %lld, \"total_ms\": %.6f, "
                 "\"self_ms\": %.6f}",
                 i == 0 ? "" : ",", layers[i].name.c_str(),
                 static_cast<long long>(layers[i].spans), layers[i].total_ms,
                 layers[i].self_ms);
  }
  std::fprintf(file, "]}\n");
  return std::fclose(file) == 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: wdbench --workload NAME --seed N --seconds S --trace 0|1 --out FILE "
                 "[--spans FILE] [--short] [--plant none|wrong_read|missed_detection]\n");
    return 2;
  }
  const Workload* workload = nullptr;
  for (const Workload& w : kWorkloads) {
    if (args.workload == w.name) {
      workload = &w;
    }
  }
  if (workload == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  const double seconds = args.short_mode ? std::min(args.seconds, 3.0) : args.seconds;
  Report report = RunStages(args, *workload, args.trace ? seconds / 2 : seconds);
  if (args.trace) {
    wdbench::Tracer::Instance().Enable(true);
    const Report traced = RunStages(args, *workload, seconds / 2);
    wdbench::Tracer::Instance().Enable(false);
    AddTracedPass(report, traced);
  }

  std::vector<wdbench::LayerTime> layers;
  int64_t span_count = 0;
  if (args.trace) {
    const std::vector<wdbench::Span> spans = wdbench::Tracer::Instance().Collect();
    span_count = static_cast<int64_t>(spans.size());
    layers = wdbench::SelfTimes(spans);
    if (!args.spans.empty() && !wdbench::WriteSpansCsv(spans, args.spans, 200000)) {
      std::fprintf(stderr, "cannot write %s\n", args.spans.c_str());
    }
  }

  std::printf("build: %s\n", WDBENCH_BUILD_TYPE);
  for (const std::string& note : report.notes) {
    std::printf("%s\n", note.c_str());
  }
  if (args.trace) {
    std::printf("layer self time (%lld spans, %lld dropped):\n", static_cast<long long>(span_count),
                static_cast<long long>(wdbench::Tracer::Instance().dropped()));
    std::printf("  %-20s %10s %12s %12s\n", "span", "count", "total ms", "self ms");
    for (const wdbench::LayerTime& layer : layers) {
      std::printf("  %-20s %10lld %12.3f %12.3f\n", layer.name.c_str(),
                  static_cast<long long>(layer.spans), layer.total_ms, layer.self_ms);
    }
  }
  if (!WriteJson(args.out, report, layers, span_count, wdbench::Tracer::Instance().dropped())) {
    std::fprintf(stderr, "cannot write %s\n", args.out.c_str());
    return 1;
  }
  return 0;
}
