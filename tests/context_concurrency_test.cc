// Concurrency torture for the Context API v2 hot path, designed to run under
// TSan (-DWDG_SANITIZE=thread; tools/ci.sh runs it in the TSan leg).
//
// N producer threads, each firing its own hook site against ONE shared
// context, each staging an M-key batch. The §3.1 invariant under test:
// checkers only ever observe fully-populated state — a Snapshot() must never
// see a torn batch (some keys from one flush, some from another), and the
// epoch must be monotone.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/common/clock.h"
#include "src/common/strings.h"
#include "src/watchdog/context.h"

namespace wdg {
namespace {

constexpr int kProducers = 8;   // N threads...
constexpr int kKeysPerBatch = 6;  // ...each staging M keys per hook fire

TEST(ContextConcurrencyTest, SnapshotNeverObservesTornBatch) {
  HookSet hooks;
  CheckContext* ctx = hooks.Context("shared_ctx");

  // Per-producer key groups, interned before the hot loops. Producer p is
  // the only writer of its group, and writes the same sequence number to
  // every key in one batch — any snapshot mixing two of p's batches is torn.
  std::vector<std::vector<ContextKey<int64_t>>> keys(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    for (int k = 0; k < kKeysPerBatch; ++k) {
      keys[p].push_back(ContextKey<int64_t>::Of(StrFormat("cc.p%d.k%d", p, k)));
    }
    hooks.Arm(StrFormat("site%d", p), "shared_ctx");
  }

  std::atomic<bool> stop{false};
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      HookSite* site = hooks.Site(StrFormat("site%d", p));
      int64_t seq = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        site->Fire([&](CheckContext& c) {
          for (const auto& key : keys[p]) {
            c.Set(key, seq);
          }
          c.MarkReady(seq);
        });
        ++seq;
      }
    });
  }

  std::vector<std::thread> readers;
  std::atomic<int64_t> snapshots{0};
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&] {
      uint64_t last_epoch = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        const auto snapshot = ctx->SnapshotConsistent();
        // Epoch monotonicity across consecutive reads from one thread.
        ASSERT_GE(snapshot.epoch, last_epoch);
        last_epoch = snapshot.epoch;
        // Torn-batch check: within a snapshot, every key of a producer's
        // group carries the same sequence number.
        for (int p = 0; p < kProducers; ++p) {
          int found = 0;
          std::optional<int64_t> expected;
          for (int k = 0; k < kKeysPerBatch; ++k) {
            const auto it = snapshot.values.find(StrFormat("cc.p%d.k%d", p, k));
            if (it == snapshot.values.end()) {
              continue;
            }
            ++found;
            ASSERT_TRUE(std::holds_alternative<int64_t>(it->second));
            const int64_t seq = std::get<int64_t>(it->second);
            if (!expected.has_value()) {
              expected = seq;
            } else {
              ASSERT_EQ(seq, *expected) << "torn batch from producer " << p;
            }
          }
          // A batch lands whole or not at all: never a strict subset.
          ASSERT_TRUE(found == 0 || found == kKeysPerBatch)
              << "partial batch from producer " << p << ": " << found;
        }
        snapshots.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  // Typed point reads race the publishes too.
  std::thread point_reader([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      for (int p = 0; p < kProducers; ++p) {
        (void)ctx->Get(keys[p][0]);
      }
    }
  });

  RealClock::Instance().SleepFor(Ms(300));
  stop = true;
  for (auto& t : producers) {
    t.join();
  }
  for (auto& t : readers) {
    t.join();
  }
  point_reader.join();

  EXPECT_GT(snapshots.load(), 50);
  EXPECT_TRUE(ctx->ready());
  // Final state: every group fully populated and internally consistent.
  const auto final_snapshot = ctx->SnapshotConsistent();
  EXPECT_GT(final_snapshot.epoch, 0u);
  for (int p = 0; p < kProducers; ++p) {
    for (int k = 1; k < kKeysPerBatch; ++k) {
      EXPECT_EQ(std::get<int64_t>(
                    final_snapshot.values.at(StrFormat("cc.p%d.k%d", p, k))),
                std::get<int64_t>(
                    final_snapshot.values.at(StrFormat("cc.p%d.k0", p))));
    }
  }
}

// Regression: a snapshot must not see part of a batch's *first* publish
// into a fresh context. Storage once grew in lazily allocated 32-slot
// chunks, and a reader that sized its scan before a publish allocated the
// second chunk kept that size across retries, so it saw only the keys in
// the first chunk. The batch keys below sit at registry slots 30..35 mod 32,
// straddling such a boundary, and each round publishes into a fresh context
// that the readers are already snapshotting.
TEST(ContextConcurrencyTest, FirstPublishAcrossChunkBoundaryIsWhole) {
  static int invocation = 0;  // fresh key names under --gtest_repeat
  const int run = invocation++;
  KeyRegistry& registry = KeyRegistry::Instance();
  for (int filler = 0; registry.size() % 32 != 30; ++filler) {
    (void)ContextKey<int64_t>::Of(StrFormat("straddle.r%d.fill%d", run, filler));
  }
  std::vector<ContextKey<int64_t>> keys;
  std::vector<std::string> names;
  for (int k = 0; k < kKeysPerBatch; ++k) {
    names.push_back(StrFormat("straddle.r%d.k%d", run, k));
    keys.push_back(ContextKey<int64_t>::Of(names.back()));
  }
  ASSERT_EQ(keys.front().slot() % 32, 30u);

  constexpr int kRounds = 1000;
  constexpr int kReaders = 3;
  // Contexts outlive the readers: a reader may still hold last round's.
  std::vector<std::unique_ptr<CheckContext>> contexts;
  std::atomic<CheckContext*> current{nullptr};
  std::atomic<bool> stop{false};
  std::atomic<int64_t> snapshots{0};
  std::atomic<int64_t> partial{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        CheckContext* ctx = current.load(std::memory_order_acquire);
        if (ctx == nullptr) {
          continue;
        }
        const auto snapshot = ctx->SnapshotConsistent();
        int found = 0;
        for (const std::string& name : names) {
          found += snapshot.values.contains(name) ? 1 : 0;
        }
        if (found != 0 && found != kKeysPerBatch) {
          partial.fetch_add(1, std::memory_order_relaxed);
        }
        snapshots.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  auto await_snapshots = [&](int64_t count) {
    const int64_t target = snapshots.load() + count;
    while (snapshots.load() < target) {
      std::this_thread::yield();
    }
  };
  for (int round = 0; round < kRounds; ++round) {
    contexts.push_back(std::make_unique<CheckContext>("straddle"));
    current.store(contexts.back().get(), std::memory_order_release);
    await_snapshots(2 * kReaders);  // readers are spinning on the fresh one
    for (const auto& key : keys) {
      contexts.back()->Set(key, round);
    }
    contexts.back()->MarkReady(round);
    await_snapshots(2 * kReaders);
  }
  stop = true;
  for (auto& t : readers) {
    t.join();
  }
  EXPECT_EQ(partial.load(), 0) << "snapshots holding part of a first publish";
}

// Seqlock torture with every writer shape at once: multi-key batches,
// single-value publishes, and a 2-key batch whose string value is longer
// than a cell word run (64+ bytes). Each writer embeds the same sequence
// number in every value of a batch — the long-string writer embeds it in
// both the string and a sibling int — so any torn or mixed-epoch observation
// is detectable. Run under the TSan CI leg: all optimistic reads are
// atomic-word loads by construction.
TEST(ContextConcurrencyTest, SeqlockTortureMixedWriterShapes) {
  CheckContext ctx("torture");

  static const auto kBatchA = ContextKey<int64_t>::Of("tt.batch.a");
  static const auto kBatchB = ContextKey<int64_t>::Of("tt.batch.b");
  static const auto kBatchC = ContextKey<int64_t>::Of("tt.batch.c");
  static const auto kFast = ContextKey<int64_t>::Of("tt.fast");
  static const auto kBigStr = ContextKey<std::string>::Of("tt.big.str");
  static const auto kBigSeq = ContextKey<int64_t>::Of("tt.big.seq");

  std::atomic<bool> stop{false};

  // Writer 1: 3-key batches.
  std::thread batch_writer([&] {
    int64_t seq = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      ctx.Set(kBatchA, seq);
      ctx.Set(kBatchB, seq);
      ctx.Set(kBatchC, seq);
      ctx.MarkReady(seq);
      ++seq;
    }
  });

  // Writer 2: single-value batches.
  std::thread fast_writer([&] {
    int64_t seq = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      ctx.Set(kFast, seq);
      ctx.MarkReady(seq);
      ++seq;
    }
  });

  // Writer 3: 2-key batch with a 64+ byte string whose trailing digits
  // encode the same seq as the sibling int.
  std::thread overflow_writer([&] {
    const std::string pad(64, 'p');
    int64_t seq = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      ctx.Set(kBigStr, pad + StrFormat("%lld", static_cast<long long>(seq)));
      ctx.Set(kBigSeq, seq);
      ctx.MarkReady(seq);
      ++seq;
    }
  });

  std::atomic<int64_t> snapshots{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&] {
      int64_t last_fast = -1;
      while (!stop.load(std::memory_order_relaxed)) {
        const auto snapshot = ctx.SnapshotConsistent();
        const auto a = snapshot.values.find("tt.batch.a");
        if (a != snapshot.values.end()) {
          ASSERT_EQ(std::get<int64_t>(snapshot.values.at("tt.batch.b")),
                    std::get<int64_t>(a->second));
          ASSERT_EQ(std::get<int64_t>(snapshot.values.at("tt.batch.c")),
                    std::get<int64_t>(a->second));
        }
        const auto big = snapshot.values.find("tt.big.str");
        if (big != snapshot.values.end()) {
          const std::string& text = std::get<std::string>(big->second);
          ASSERT_EQ(text.substr(64),
                    StrFormat("%lld", static_cast<long long>(std::get<int64_t>(
                                          snapshot.values.at("tt.big.seq")))));
        }
        // Point reads: the decoded value is never torn and, from one thread,
        // never goes backwards (a single writer increments it).
        const auto fast = ctx.Get(kFast);
        if (fast.has_value()) {
          ASSERT_GE(*fast, last_fast);
          last_fast = *fast;
        }
        snapshots.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  RealClock::Instance().SleepFor(Ms(300));
  stop = true;
  batch_writer.join();
  fast_writer.join();
  overflow_writer.join();
  for (auto& t : readers) {
    t.join();
  }

  EXPECT_GT(snapshots.load(), 50);
  EXPECT_GT(ctx.Get(kFast).value_or(0), 0);
}

// Liveness under saturating writers: four threads republish a two-key batch
// back to back, so nearly every optimistic snapshot attempt collides with a
// write window. After its bounded attempts a reader claims the sequence word
// like a writer, so every snapshot still completes, and none is torn.
TEST(ContextConcurrencyTest, SnapshotFallsBackUnderPersistentFlushChurn) {
  CheckContext ctx("fallback");
  static const auto kA = ContextKey<int64_t>::Of("fb.a");
  static const auto kB = ContextKey<int64_t>::Of("fb.b");
  ctx.Set(kA, 1);
  ctx.Set(kB, 1);
  ctx.MarkReady(1);

  std::atomic<bool> stop{false};
  std::atomic<int64_t> publishes{0};
  std::vector<std::thread> writers;
  for (int w = 0; w < 4; ++w) {
    writers.emplace_back([&] {
      int64_t seq = 2;
      while (!stop.load(std::memory_order_relaxed)) {
        ctx.Set(kA, seq);
        ctx.Set(kB, seq);
        ctx.MarkReady(seq);
        ++seq;
        publishes.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  // Snapshots are taken only while every writer is running: the loop ends
  // at the deadline, before `stop` is set.
  int64_t completed = 0;
  const int64_t publishes_before = publishes.load();
  const TimeNs deadline = RealClock::Instance().NowNs() + Ms(300);
  while (RealClock::Instance().NowNs() < deadline) {
    const auto snapshot = ctx.SnapshotConsistent();
    ASSERT_EQ(std::get<int64_t>(snapshot.values.at("fb.a")),
              std::get<int64_t>(snapshot.values.at("fb.b")));
    ++completed;
  }
  const int64_t publishes_during = publishes.load() - publishes_before;
  stop = true;
  for (auto& t : writers) {
    t.join();
  }
  // Snapshots kept completing, and the writers kept publishing meanwhile.
  EXPECT_GT(completed, 20);
  EXPECT_GT(publishes_during, 0);
}

TEST(ContextConcurrencyTest, EpochCountsFlushesExactly) {
  CheckContext ctx("c");
  constexpr int kThreads = 4;
  constexpr int kRounds = 500;
  static const auto kSeq = ContextKey<int64_t>::Of("cc.epoch.seq");
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kRounds; ++i) {
        ctx.Set(kSeq, i);
        ctx.MarkReady(i);
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  EXPECT_EQ(ctx.epoch(), static_cast<uint64_t>(kThreads) * kRounds);
}

}  // namespace
}  // namespace wdg
