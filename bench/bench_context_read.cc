// Read-path scaling for the lock-free context store.
//
// The §3.1 efficiency argument needs checker-side reads to stay cheap while
// the monitored process keeps firing hooks. This bench runs {1, 2, 4, 8}
// reader threads against ONE context while a writer thread republishes a
// two-key batch at ~1 ms cadence (a realistic hook rate; a saturating writer
// would measure the scheduler, not the read path). Readers alternate between
// typed point reads (Get) and full consistent snapshots, and report the
// per-op latency of each. Emits BENCH_context_read.json to feed the perf
// trajectory.
//
// Methodology note: latencies are recorded as BATCH MEANS (one sample per
// kGetBatch/kSnapBatch ops) and summarized by p50-of-batches. On a machine
// with fewer cores than threads a single preempted op costs a timeslice;
// batching keeps one descheduling from poisoning the central estimate while
// still surfacing sustained contention.
//
//   ./bench_context_read [--quick]
#include <atomic>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/common/clock.h"
#include "src/common/metrics.h"
#include "src/common/strings.h"
#include "src/eval/table.h"
#include "src/watchdog/context.h"

namespace {

constexpr int kGetBatch = 128;   // point reads per latency sample
constexpr int kSnapBatch = 32;   // snapshots per latency sample
constexpr wdg::DurationNs kWriterPause = wdg::Ms(1);

struct ConfigResult {
  int readers = 0;
  double get_p50_ns = 0;
  double get_mean_ns = 0;
  double snapshot_p50_ns = 0;
  double snapshot_mean_ns = 0;
};

ConfigResult RunConfig(int readers, wdg::DurationNs duration) {
  wdg::RealClock& clock = wdg::RealClock::Instance();
  // Fresh context per config. Keys are process-global and intern
  // idempotently.
  wdg::CheckContext ctx("bench_read_ctx");
  static const auto kFile = wdg::ContextKey<std::string>::Of("br.file");
  static const auto kEntries = wdg::ContextKey<int64_t>::Of("br.entries");
  ctx.Set(kFile, "/sst/000042.sst");
  ctx.Set(kEntries, 0);
  ctx.MarkReady(1);

  std::atomic<bool> stop{false};
  // The concurrent hook writer: a two-key batch at a cadence that keeps
  // publish windows opening all run long.
  std::thread writer([&] {
    int64_t seq = 1;
    while (!stop.load(std::memory_order_relaxed)) {
      ctx.Set(kFile, "/sst/000042.sst");
      ctx.Set(kEntries, ++seq);
      ctx.MarkReady(seq);
      clock.SleepFor(kWriterPause);
    }
  });

  // Shared histograms: Record() fires once per batch (not per op), so
  // recording never shows up in the measured loops.
  wdg::Histogram gets;
  wdg::Histogram snaps;
  std::atomic<int64_t> sink{0};
  std::vector<std::thread> threads;
  for (int r = 0; r < readers; ++r) {
    threads.emplace_back([&] {
      int64_t local = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        const wdg::TimeNs t0 = clock.NowNs();
        for (int i = 0; i < kGetBatch; ++i) {
          local += ctx.Get(kEntries).value_or(0);
        }
        const wdg::TimeNs t1 = clock.NowNs();
        gets.Record(static_cast<double>(t1 - t0) / kGetBatch);
        for (int i = 0; i < kSnapBatch; ++i) {
          local += static_cast<int64_t>(ctx.SnapshotConsistent().values.size());
        }
        const wdg::TimeNs t2 = clock.NowNs();
        snaps.Record(static_cast<double>(t2 - t1) / kSnapBatch);
      }
      sink.fetch_add(local, std::memory_order_relaxed);  // defeat DCE
    });
  }

  clock.SleepFor(duration);
  stop = true;
  for (auto& t : threads) {
    t.join();
  }
  writer.join();
  ConfigResult result;
  result.readers = readers;
  result.get_p50_ns = gets.Percentile(50);
  result.get_mean_ns = gets.Mean();
  result.snapshot_p50_ns = snaps.Percentile(50);
  result.snapshot_mean_ns = snaps.Mean();
  return result;
}

void WriteJson(const std::vector<ConfigResult>& results, wdg::DurationNs duration) {
  FILE* out = std::fopen("BENCH_context_read.json", "w");
  if (out == nullptr) {
    std::fprintf(stderr, "could not open BENCH_context_read.json for writing\n");
    return;
  }
  std::fprintf(out, "{\n  \"bench\": \"context_read\",\n");
  std::fprintf(out, "  \"duration_ms\": %lld,\n",
               static_cast<long long>(duration / wdg::kNsPerMs));
  std::fprintf(out, "  \"writer_pause_ms\": %lld,\n",
               static_cast<long long>(kWriterPause / wdg::kNsPerMs));
  std::fprintf(out, "  \"configs\": [\n");
  for (size_t i = 0; i < results.size(); ++i) {
    const ConfigResult& r = results[i];
    std::fprintf(out,
                 "    {\"readers\": %d, \"get_p50_ns\": %.1f, "
                 "\"get_mean_ns\": %.1f, \"snapshot_p50_ns\": %.1f, "
                 "\"snapshot_mean_ns\": %.1f}%s\n",
                 r.readers, r.get_p50_ns, r.get_mean_ns, r.snapshot_p50_ns,
                 r.snapshot_mean_ns, i + 1 < results.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
  std::printf("\nwrote BENCH_context_read.json\n");
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    }
  }
  const wdg::DurationNs duration = quick ? wdg::Ms(300) : wdg::Sec(1);
  const std::vector<int> reader_counts = {1, 2, 4, 8};

  std::printf("=== context read path: {1,2,4,8} readers vs one hook writer ===\n");
  std::printf("%s run (%lld ms per config), writer republishes every %lld ms\n\n",
              quick ? "quick" : "full",
              static_cast<long long>(duration / wdg::kNsPerMs),
              static_cast<long long>(kWriterPause / wdg::kNsPerMs));

  std::vector<ConfigResult> results;
  for (const int readers : reader_counts) {
    results.push_back(RunConfig(readers, duration));
  }

  wdg::TablePrinter table({{"readers", 8},
                           {"get p50 (ns)", 13},
                           {"get mean (ns)", 14},
                           {"snap p50 (ns)", 14},
                           {"snap mean (ns)", 15}});
  table.PrintHeader();
  for (const ConfigResult& r : results) {
    table.PrintRow({wdg::StrFormat("%d", r.readers),
                    wdg::StrFormat("%.0f", r.get_p50_ns),
                    wdg::StrFormat("%.0f", r.get_mean_ns),
                    wdg::StrFormat("%.0f", r.snapshot_p50_ns),
                    wdg::StrFormat("%.0f", r.snapshot_mean_ns)});
  }
  table.PrintRule();
  std::printf("\nflat p50 from 1 to 8 readers = optimistic readers never "
              "serialize behind one another\n");
  WriteJson(results, duration);
  return 0;
}
