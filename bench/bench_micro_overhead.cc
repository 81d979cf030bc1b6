// Micro-costs backing Figure 1's "no significant cost" claim, measured with
// google-benchmark: hook firing (armed/unarmed), context synchronization,
// metrics recording, fault-site gating, the simulator's delivery precision,
// and the AutoWatchdog generation pipeline itself.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <vector>

#include "src/autowd/autowatchdog.h"
#include "src/common/checksum.h"
#include "src/common/metrics.h"
#include "src/common/strings.h"
#include "src/fault/fault_injector.h"
#include "src/kvs/ir_model.h"
#include "src/kvs/memtable.h"
#include "src/kvs/wal.h"
#include "src/sim/sim_net.h"
#include "src/watchdog/context.h"

namespace {

// The inert hook: the cost every instrumented site pays when no checker is
// armed — the number that must be ~zero for pervasive instrumentation.
void BM_HookFire_Unarmed(benchmark::State& state) {
  wdg::HookSite site("kvs.flusher.write");
  int64_t sink = 0;
  for (auto _ : state) {
    site.Fire([&](wdg::CheckContext&) { ++sink; });
    benchmark::DoNotOptimize(sink);
  }
}
BENCHMARK(BM_HookFire_Unarmed);

// The armed hook, Context API v2: typed keys interned once, the two writes
// stage into the thread-local batch, MarkReady publishes them inside one
// claim of the context's sequence word. This is the production hook-site
// code path.
void BM_HookFire_Armed(benchmark::State& state) {
  static const auto kFile = wdg::ContextKey<std::string>::Of("bench.file");
  static const auto kEntries = wdg::ContextKey<int64_t>::Of("bench.entries");
  wdg::HookSite site("kvs.flusher.write");
  wdg::CheckContext ctx("flush_ctx");
  site.Arm(&ctx);
  int64_t i = 0;
  for (auto _ : state) {
    site.Fire([&](wdg::CheckContext& c) {
      c.Set(kFile, "/sst/000042.sst");
      c.Set(kEntries, ++i);
      c.MarkReady(i);
    });
  }
}
BENCHMARK(BM_HookFire_Armed);

// Concurrent hook sites on DIFFERENT keys of one context: every publish
// claims the context's one sequence word, so four saturating writers
// serialize on it.
void BM_HookFire_Armed_Contended(benchmark::State& state) {
  static wdg::CheckContext ctx("contended_ctx");
  static const auto kKeys = [] {
    std::vector<wdg::ContextKey<int64_t>> keys;
    for (int t = 0; t < 8; ++t) {
      keys.push_back(wdg::ContextKey<int64_t>::Of(wdg::StrFormat("bench.t%d", t)));
    }
    return keys;
  }();
  const auto& key = kKeys[state.thread_index() % kKeys.size()];
  int64_t i = 0;
  for (auto _ : state) {
    ctx.Set(key, ++i);
    ctx.MarkReady(i);
  }
}
BENCHMARK(BM_HookFire_Armed_Contended)->Threads(4);

// The dominant hook shape in the system models: ONE value then MarkReady
// (one claim-CAS, the stores, one release store).
void BM_HookFire_Armed_SingleValue(benchmark::State& state) {
  static const auto kSeq = wdg::ContextKey<int64_t>::Of("bench.single.seq");
  wdg::HookSite site("kvs.listener.accept");
  wdg::CheckContext ctx("accept_ctx");
  site.Arm(&ctx);
  int64_t i = 0;
  for (auto _ : state) {
    site.Fire([&](wdg::CheckContext& c) {
      c.Set(kSeq, ++i);
      c.MarkReady(i);
    });
  }
}
BENCHMARK(BM_HookFire_Armed_SingleValue);

void BM_ContextSnapshot(benchmark::State& state) {
  wdg::CheckContext ctx("c");
  for (int i = 0; i < 8; ++i) {
    ctx.Set(wdg::ContextKey<std::string>::Of(wdg::StrFormat("key%d", i)), "some value");
  }
  ctx.MarkReady(1);
  for (auto _ : state) {
    auto snapshot = ctx.Snapshot();
    benchmark::DoNotOptimize(snapshot);
  }
}
BENCHMARK(BM_ContextSnapshot);

// The checker-side cold path: a full consistent snapshot (epoch + every key
// the context holds), an optimistic copy validated by the sequence word.
void BM_ContextSnapshotConsistent(benchmark::State& state) {
  wdg::CheckContext ctx("c");
  for (int i = 0; i < 8; ++i) {
    ctx.Set(wdg::ContextKey<std::string>::Of(wdg::StrFormat("snapc.key%d", i)), "some value");
  }
  ctx.MarkReady(1);
  for (auto _ : state) {
    auto snapshot = ctx.SnapshotConsistent();
    benchmark::DoNotOptimize(snapshot);
  }
}
BENCHMARK(BM_ContextSnapshotConsistent);

// Typed point-read on the checker side: slot index -> seqlock-validated
// atomic-word copy, no locks on the stable path.
void BM_ContextGet_TypedKey(benchmark::State& state) {
  static const auto kEntries = wdg::ContextKey<int64_t>::Of("bench.get.entries");
  wdg::CheckContext ctx("c");
  ctx.Set(kEntries, 42);
  ctx.MarkReady(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ctx.Get(kEntries));
  }
}
BENCHMARK(BM_ContextGet_TypedKey);

// Name-keyed read (generated-checker cold start before keys are cached):
// lock-free registry probe + the same seqlock cell read.
void BM_ContextGet_ByName(benchmark::State& state) {
  static const auto kByName = wdg::ContextKey<int64_t>::Of("bench.byname.entries");
  wdg::CheckContext ctx("c");
  ctx.Set(kByName, 42);
  ctx.MarkReady(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ctx.Get<int64_t>("bench.byname.entries"));
  }
}
BENCHMARK(BM_ContextGet_ByName);

// Reader/writer mix on one context: 3 reader threads point-read a key that
// a 4th thread keeps republishing as single-value batches.
void BM_ContextGet_ContendedWithWriter(benchmark::State& state) {
  static wdg::CheckContext ctx("rw_ctx");
  static const auto kHot = wdg::ContextKey<int64_t>::Of("bench.rw.hot");
  if (state.thread_index() == 0) {
    int64_t i = 0;
    for (auto _ : state) {
      ctx.Set(kHot, ++i);
      ctx.MarkReady(i);
    }
  } else {
    for (auto _ : state) {
      benchmark::DoNotOptimize(ctx.Get(kHot));
    }
  }
}
BENCHMARK(BM_ContextGet_ContendedWithWriter)->Threads(4);

// Metrics primitives as the hot paths use them: one shared instance, written
// from 1 and from 4 threads. Histogram::Record runs on every 16th dispatch in
// the executor; Gauge::Set per listener pass and request in kvs.
void BM_HistogramRecord(benchmark::State& state) {
  static wdg::Histogram hist;
  const int64_t base = 1000 * (state.thread_index() + 1);
  int64_t i = 0;
  for (auto _ : state) {
    // Latencies spread over ~50 buckets, so min/max settle as in real use.
    hist.Record(static_cast<double>(base + (++i & 1023) * 97));
  }
  benchmark::DoNotOptimize(hist.count());
}
BENCHMARK(BM_HistogramRecord)->Threads(1)->Threads(4);

void BM_GaugeSet(benchmark::State& state) {
  static wdg::Gauge gauge;
  double value = state.thread_index();
  for (auto _ : state) {
    gauge.Set(value);
    value += 1.0;
    benchmark::DoNotOptimize(&gauge);
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_GaugeSet)->Threads(1)->Threads(4);

// Fault-site gate on the hot path with no faults active.
void BM_FaultSite_NoFault(benchmark::State& state) {
  wdg::FaultInjector injector(wdg::RealClock::Instance());
  for (auto _ : state) {
    benchmark::DoNotOptimize(injector.OnSite("disk.write"));
  }
}
BENCHMARK(BM_FaultSite_NoFault);

void BM_Crc32_4K(benchmark::State& state) {
  const std::string block(4096, 'x');
  for (auto _ : state) {
    benchmark::DoNotOptimize(wdg::Crc32(block));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * 4096);
}
BENCHMARK(BM_Crc32_4K);

void BM_MemtableSet(benchmark::State& state) {
  kvs::Memtable table;
  int64_t i = 0;
  for (auto _ : state) {
    table.Set(wdg::StrFormat("key%04lld", static_cast<long long>(i++ % 1024)),
              "value-payload-64-bytes-xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx");
  }
}
BENCHMARK(BM_MemtableSet);

void BM_WalFrameRecord(benchmark::State& state) {
  const std::string record(128, 'r');
  for (auto _ : state) {
    benchmark::DoNotOptimize(kvs::Wal::FrameRecord(record));
  }
}
BENCHMARK(BM_WalFrameRecord);

// How late a 20 us SimNet message (Figure 1's hop) surfaces past its
// modelled latency, as the median over the run. The kvs request path pays
// this on every hop, so it must stay far below the latency it models.
void BM_SimNet_OneWayOvershoot_20us(benchmark::State& state) {
  wdg::RealClock& clock = wdg::RealClock::Instance();
  wdg::FaultInjector injector(clock);
  wdg::NetOptions options;
  options.base_latency = wdg::Us(20);
  options.per_kb_latency = 0;
  wdg::SimNet net(clock, injector, options);
  wdg::Endpoint* sender = net.CreateEndpoint("a");
  wdg::Endpoint* receiver = net.CreateEndpoint("b");
  std::vector<double> overshoot_us;
  for (auto _ : state) {
    const wdg::TimeNs sent = clock.NowNs();
    (void)sender->Send("b", "ping", "x");
    benchmark::DoNotOptimize(receiver->Recv(wdg::Ms(100)));
    overshoot_us.push_back(static_cast<double>(clock.NowNs() - sent - options.base_latency) /
                           static_cast<double>(wdg::kNsPerUs));
  }
  const auto mid = overshoot_us.begin() + static_cast<std::ptrdiff_t>(overshoot_us.size() / 2);
  std::nth_element(overshoot_us.begin(), mid, overshoot_us.end());
  state.counters["overshoot_us_p50"] = *mid;
}
BENCHMARK(BM_SimNet_OneWayOvershoot_20us)->UseRealTime();

// The whole AutoWatchdog analysis pipeline (reduce + infer + plan) on the
// full kvs module — the offline generation cost.
void BM_AutoWatchdog_AnalyzeKvs(benchmark::State& state) {
  kvs::KvsOptions options;
  options.node_id = "kvs1";
  options.followers = {"kvs2", "kvs3"};
  const awd::Module module = kvs::DescribeIr(options);
  for (auto _ : state) {
    benchmark::DoNotOptimize(awd::Analyze(module));
  }
}
BENCHMARK(BM_AutoWatchdog_AnalyzeKvs);

}  // namespace

BENCHMARK_MAIN();
