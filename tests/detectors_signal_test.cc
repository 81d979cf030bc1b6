// Property tests for the signal-checker suite and the fusion detector.
//
// The suite's detection logic is deliberately exposed as pure state machines
// (LeakSlopeState / ThresholdState / JitterState) so these tests can drive
// them with seeded synthetic series — leak ramps, plateaus, sawtooth churn,
// steady-state noise — and prove the fire/no-fire boundaries without a driver
// in the loop. The second half covers the checker plumbing (NotReady rather
// than silently-healthy on missing data), suite registration on a live
// driver, and the fusion score's corroboration/hysteresis/domination
// properties, including a multi-threaded OnFailure run for the TSan leg.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "src/common/rng.h"
#include "src/common/strings.h"
#include "src/detectors/fusion.h"
#include "src/detectors/signal_suite.h"
#include "src/kvs/memtable.h"
#include "src/watchdog/context.h"
#include "src/watchdog/driver.h"

namespace wdg {
namespace {

// --- LeakSlopeState ---------------------------------------------------------

TEST(LeakSlopeStateTest, MonotoneRampFiresAtMinGrowth) {
  LeakSlopeState state(5);
  EXPECT_FALSE(state.Observe(10));  // baseline
  for (int64_t v = 11; v <= 14; ++v) {
    EXPECT_FALSE(state.Observe(v)) << "growth " << v - 10 << " below min";
  }
  EXPECT_TRUE(state.Observe(15));  // +5: exactly min_growth fires
  // The run persists, so the state keeps firing — driver dedup shapes the
  // repeats into periodic re-alarms.
  EXPECT_TRUE(state.Observe(16));
  EXPECT_TRUE(state.Observe(16));
}

TEST(LeakSlopeStateTest, PlateauNeverFires) {
  LeakSlopeState state(5);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_FALSE(state.Observe(42));
  }
}

TEST(LeakSlopeStateTest, AnyDropRebaselines) {
  LeakSlopeState state(5);
  EXPECT_FALSE(state.Observe(10));
  EXPECT_FALSE(state.Observe(14));  // +4
  EXPECT_FALSE(state.Observe(12));  // reclaim: baseline resets to 12
  EXPECT_FALSE(state.Observe(16));  // +4 from the NEW baseline
  EXPECT_EQ(state.baseline(), 12);
  EXPECT_TRUE(state.Observe(17));  // +5 from 12
}

TEST(LeakSlopeStateTest, SawtoothChurnNeverFires) {
  // Grow-collect cycles whose amplitude stays below min_growth: the shape of
  // normal compaction (tables accumulate, a merge reclaims them). Seeded so
  // ramp heights and trough depths vary across 500 cycles.
  Rng rng(7);
  LeakSlopeState state(8);
  int64_t value = 20;
  for (int cycle = 0; cycle < 500; ++cycle) {
    const int64_t ramp = rng.Uniform(1, 7);  // < min_growth of 8
    for (int64_t i = 0; i < ramp; ++i) {
      ++value;
      ASSERT_FALSE(state.Observe(value)) << "cycle " << cycle;
    }
    value -= rng.Uniform(1, ramp);  // partial or full reclaim
    ASSERT_FALSE(state.Observe(value)) << "cycle " << cycle;
  }
}

TEST(LeakSlopeStateTest, VariableStepRampStillFires) {
  // A real delete-path leak is monotone (nothing ever reclaims); uneven step
  // sizes must not confuse the run accounting.
  Rng rng(11);
  LeakSlopeState state(8);
  int64_t value = 10;
  bool fired = false;
  for (int step = 0; step < 4000 && !fired; ++step) {
    value += rng.Uniform(1, 3);  // leak
    fired = state.Observe(value);
  }
  EXPECT_TRUE(fired);
}

// --- kvs rss feed: the memtable's low-water mark -----------------------------

// The kvs node samples its memtable every 50 ms for kvs.res.rss_bytes. At
// serving rates the flusher reclaims several times between two samples, so
// the raw size, sampled, is a random-phase sawtooth that reads as growth.
// The node publishes Memtable::TakeLowWater() instead; these tests drive a
// real Memtable through that shape and its two failure shapes.
class RssLowWaterTest : public ::testing::Test {
 protected:
  // Writes fresh keys until the memtable holds at least `target` bytes.
  void FillTo(int64_t target) {
    while (memtable_.ApproximateBytes() < target) {
      memtable_.Set(StrFormat("key%08d", next_key_++), std::string(64, 'v'));
    }
  }
  // One sample interval of a working flusher: 2-6 flushes of a sawtooth 4x
  // rss_min_growth high (a few writes land during each table write), then
  // the sample falls at a random phase of the next tooth.
  void HealthyInterval(Rng& rng) {
    for (int64_t flushes = rng.Uniform(2, 6); flushes > 0; --flushes) {
      FillTo(4 * min_growth_);
      (void)memtable_.BeginFlush();
      FillTo(memtable_.ApproximateBytes() + rng.Uniform(0, 3) * 64);
      memtable_.EndFlush();
    }
    FillTo(rng.Uniform(0, 4 * min_growth_));
  }

  const int64_t min_growth_ = SignalSuiteOptions{}.rss_min_growth;
  kvs::Memtable memtable_;
  int next_key_ = 0;
};

TEST_F(RssLowWaterTest, UndersampledFlushSawtoothNeverFires) {
  Rng rng(17);
  LeakSlopeState published(min_growth_);
  LeakSlopeState raw(min_growth_);
  bool raw_fired = false;
  for (int sample = 0; sample < 500; ++sample) {
    HealthyInterval(rng);
    raw_fired = raw.Observe(memtable_.ApproximateBytes()) || raw_fired;
    ASSERT_FALSE(published.Observe(memtable_.TakeLowWater())) << "sample " << sample;
  }
  // The same samples of the raw size false-alarm: the test has teeth.
  EXPECT_TRUE(raw_fired);
}

TEST_F(RssLowWaterTest, WedgedFlusherRampStillFires) {
  Rng rng(23);
  LeakSlopeState published(min_growth_);
  for (int sample = 0; sample < 100; ++sample) {
    HealthyInterval(rng);
    ASSERT_FALSE(published.Observe(memtable_.TakeLowWater())) << "healthy sample " << sample;
  }
  // The flusher stops reclaiming: every attempt fails and AbortFlush puts
  // the entries back, while writes keep arriving.
  bool fired = false;
  int samples = 0;
  while (!fired && samples < 20) {
    for (int attempt = 0; attempt < 5; ++attempt) {
      FillTo(memtable_.ApproximateBytes() + min_growth_ / 4);
      (void)memtable_.BeginFlush();
      memtable_.AbortFlush();
    }
    fired = published.Observe(memtable_.TakeLowWater());
    ++samples;
  }
  EXPECT_TRUE(fired) << "no alarm after " << samples << " samples of a wedged flusher";
}

TEST_F(RssLowWaterTest, FrozenMemtableNeverFires) {
  // A hung WAL append holds the flush lock: writes and flushes stop
  // together, at any point of a sample interval, with up to 4x
  // rss_min_growth written since the last flush. Nothing grows after that,
  // so nothing fires.
  Rng rng(29);
  for (int trial = 0; trial < 200; ++trial) {
    LeakSlopeState published(min_growth_);
    for (int sample = 0; sample < 10; ++sample) {
      HealthyInterval(rng);
      ASSERT_FALSE(published.Observe(memtable_.TakeLowWater())) << "trial " << trial;
    }
    for (int64_t flushes = rng.Uniform(0, 3); flushes > 0; --flushes) {
      FillTo(4 * min_growth_);
      (void)memtable_.BeginFlush();
      memtable_.EndFlush();
    }
    FillTo(memtable_.ApproximateBytes() + rng.Uniform(0, 4 * min_growth_));
    for (int sample = 0; sample < 10; ++sample) {
      ASSERT_FALSE(published.Observe(memtable_.TakeLowWater()))
          << "trial " << trial << ", frozen sample " << sample;
    }
  }
}

// --- ThresholdState ---------------------------------------------------------

TEST(ThresholdStateTest, FiresAfterConsecutiveViolations) {
  ThresholdState state(8, 3, /*fire_above=*/true);
  EXPECT_FALSE(state.Observe(12));
  EXPECT_FALSE(state.Observe(12));
  EXPECT_TRUE(state.Observe(12));  // third in a row
}

TEST(ThresholdStateTest, HealthySampleResetsTheStreak) {
  ThresholdState state(8, 3, /*fire_above=*/true);
  EXPECT_FALSE(state.Observe(12));
  EXPECT_FALSE(state.Observe(12));
  EXPECT_FALSE(state.Observe(3));   // back under the limit
  EXPECT_FALSE(state.Observe(12));  // streak restarts
  EXPECT_FALSE(state.Observe(12));
  EXPECT_TRUE(state.Observe(12));
}

TEST(ThresholdStateTest, PersistentViolationRefiresPerStreak) {
  ThresholdState state(8, 3, /*fire_above=*/true);
  int fires = 0;
  for (int i = 0; i < 12; ++i) {
    fires += state.Observe(100) ? 1 : 0;
  }
  EXPECT_EQ(fires, 4);  // every 3rd sample, not continuously
}

TEST(ThresholdStateTest, BelowModeCatchesThreadDeath) {
  // live-loop count dropping under the minimum (fire_above=false).
  ThresholdState state(5, 2, /*fire_above=*/false);
  EXPECT_FALSE(state.Observe(5));  // at the limit is healthy
  EXPECT_FALSE(state.Observe(4));
  EXPECT_TRUE(state.Observe(4));
}

TEST(ThresholdStateTest, SeededNoiseUnderLimitNeverFires) {
  Rng rng(23);
  ThresholdState state(8, 3, /*fire_above=*/true);
  for (int i = 0; i < 5000; ++i) {
    ASSERT_FALSE(state.Observe(rng.Uniform(0, 8)));  // never ABOVE 8
  }
}

// --- JitterState ------------------------------------------------------------

TEST(JitterStateTest, AdvancingBeatNeverFires) {
  JitterState state(JitterConfig{Ms(300), Ms(50)});
  TimeNs now = Sec(1);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(state.Observe(now, /*beat=*/i));
    now += Ms(100);
  }
}

TEST(JitterStateTest, StaleBeatFiresOnlyAfterConfirmWindow) {
  JitterState state(JitterConfig{Ms(300), Ms(50)});
  EXPECT_FALSE(state.Observe(Sec(1), 7));
  // Unchanged but within max_gap: normal.
  EXPECT_FALSE(state.Observe(Sec(1) + Ms(200), 7));
  // Past max_gap: the FIRST stale observation only opens the confirm window.
  // This is the one-core catch-up guard — two back-to-back checker runs
  // observing one momentarily stale beat must not fire.
  EXPECT_FALSE(state.Observe(Sec(1) + Ms(400), 7));
  EXPECT_FALSE(state.Observe(Sec(1) + Ms(440), 7));  // 40ms into confirm
  EXPECT_TRUE(state.Observe(Sec(1) + Ms(460), 7));   // 60ms >= confirm
}

TEST(JitterStateTest, BeatResumeResetsEverything) {
  JitterState state(JitterConfig{Ms(300), Ms(50)});
  EXPECT_FALSE(state.Observe(Sec(1), 7));
  EXPECT_FALSE(state.Observe(Sec(1) + Ms(400), 7));  // stale, confirm opens
  EXPECT_FALSE(state.Observe(Sec(1) + Ms(450), 8));  // beat moved: full reset
  EXPECT_FALSE(state.Observe(Sec(1) + Ms(700), 8));  // within max_gap again
  EXPECT_FALSE(state.Observe(Sec(1) + Ms(800), 8));  // stale again, new window
  EXPECT_TRUE(state.Observe(Sec(1) + Ms(860), 8));
}

// --- checker plumbing -------------------------------------------------------

ContextKey<int64_t> TestKey(const char* name) {
  return ContextKey<int64_t>::Of(name);
}

TEST(KeyedSignalCheckerTest, MissingDataIsNotReadyNeverHealthy) {
  RealClock& clock = RealClock::Instance();
  const auto key = TestKey("sst.plumbing.k1");
  // Null context: NotReady.
  LeakSlopeChecker unbound("sst_unbound", "comp", clock, nullptr, key, "fds", 5,
                           FailureType::kSafetyViolation,
                           StatusCode::kResourceExhausted, {});
  EXPECT_EQ(unbound.Check().outcome, CheckOutcome::kContextNotReady);
  // Live context that never reached MarkReady: NotReady.
  CheckContext ctx("sst_plumbing_ctx");
  LeakSlopeChecker bound("sst_bound", "comp", clock, &ctx, key, "fds", 5,
                         FailureType::kSafetyViolation,
                         StatusCode::kResourceExhausted, {});
  EXPECT_EQ(bound.Check().outcome, CheckOutcome::kContextNotReady);
  // READY context where THIS key was never published: still NotReady — a
  // signal nobody feeds must not look green (the ResourceSignalDetector
  // wiring-status rule, applied to the suite).
  ctx.Set(TestKey("sst.plumbing.other"), int64_t{1});
  ctx.MarkReady(1);
  EXPECT_EQ(bound.Check().outcome, CheckOutcome::kContextNotReady);
  // And once published, samples flow.
  ctx.Set(key, int64_t{10});
  ctx.MarkReady(2);
  EXPECT_EQ(bound.Check().outcome, CheckOutcome::kPass);
}

TEST(KeyedSignalCheckerTest, LeakFailureCarriesComponentPinpoint) {
  RealClock& clock = RealClock::Instance();
  const auto key = TestKey("sst.plumbing.k2");
  CheckContext ctx("sst_pinpoint_ctx");
  LeakSlopeChecker checker("sst_fd_leak", "kvs.compaction", clock, &ctx, key,
                           "open handles", 3, FailureType::kSafetyViolation,
                           StatusCode::kResourceExhausted, {});
  int64_t seq = 0;
  for (int64_t v : {10, 11, 12}) {
    ctx.Set(key, v);
    ctx.MarkReady(++seq);
    EXPECT_EQ(checker.Check().outcome, CheckOutcome::kPass);
  }
  ctx.Set(key, int64_t{13});
  ctx.MarkReady(++seq);
  const CheckResult result = checker.Check();
  ASSERT_EQ(result.outcome, CheckOutcome::kFail);
  EXPECT_EQ(result.signature.type, FailureType::kSafetyViolation);
  EXPECT_EQ(result.signature.code, StatusCode::kResourceExhausted);
  EXPECT_EQ(result.signature.location.component, "kvs.compaction");
  EXPECT_EQ(result.signature.location.Level(), LocalizationLevel::kComponent);
}

// --- suite on a live driver -------------------------------------------------

class CollectingListener : public FailureListener {
 public:
  void OnFailure(const FailureSignature& signature) override {
    std::lock_guard<std::mutex> lock(mu_);
    signatures_.push_back(signature);
  }
  std::vector<FailureSignature> Signatures() const {
    std::lock_guard<std::mutex> lock(mu_);
    return signatures_;
  }

 private:
  mutable std::mutex mu_;
  std::vector<FailureSignature> signatures_;
};

TEST(SignalSuiteDriverTest, SteadyStateQuietThenStalledBeatFires) {
  RealClock& clock = RealClock::Instance();
  CheckContext ctx("sst_driver_ctx");
  const SignalSuiteKeys keys{TestKey("sst.drv.fds"),   TestKey("sst.drv.rss"),
                             TestKey("sst.drv.queue"), TestKey("sst.drv.disk"),
                             TestKey("sst.drv.live"),  TestKey("sst.drv.beat")};
  SignalSuiteOptions options;
  options.interval = Ms(15);
  options.name_prefix = "sst_drv_";
  options.beat_component = "sst.listener";
  // Generous gap so a one-core scheduler stall during the steady phase can't
  // fake a stalled beat; the publisher ticks at 30ms against a 400ms gap.
  options.jitter = JitterConfig{Ms(400), Ms(50)};

  WatchdogDriver driver(clock);
  CollectingListener listener;
  driver.AddListener(&listener);
  ASSERT_TRUE(RegisterSignalSuite(driver, clock, &ctx, keys, options).ok());

  std::atomic<bool> keep_beating{true};
  std::thread publisher([&] {
    int64_t seq = 0;
    while (keep_beating.load()) {
      ctx.Set(keys.open_handles, int64_t{3});
      ctx.Set(keys.rss_bytes, int64_t{4096});
      ctx.Set(keys.queue_depth, int64_t{0});
      ctx.Set(keys.disk_lat_ns, Us(50));
      ctx.Set(keys.live_threads, int64_t{5});
      ctx.Set(keys.last_beat_ns, clock.NowNs());
      ctx.MarkReady(++seq);
      clock.SleepFor(Ms(30));
    }
  });
  ASSERT_TRUE(driver.Start().ok());
  clock.SleepFor(Ms(400));
  EXPECT_TRUE(listener.Signatures().empty()) << "steady state false fire: "
      << listener.Signatures().front().ToString();

  // Kill the publisher: every key goes quiet. The five subscribed checkers
  // are epoch-skipped (a dormant key is not a failure), but the UNsubscribed
  // jitter checker keeps running and calls the stalled beat.
  keep_beating.store(false);
  publisher.join();
  clock.SleepFor(Ms(700));
  ASSERT_TRUE(driver.Stop().ok());

  const std::vector<FailureSignature> alarms = listener.Signatures();
  ASSERT_FALSE(alarms.empty());
  for (const FailureSignature& sig : alarms) {
    EXPECT_EQ(sig.checker_name, "sst_drv_kick_jitter") << sig.ToString();
    EXPECT_EQ(sig.location.component, "sst.listener");
    EXPECT_EQ(sig.type, FailureType::kLivenessTimeout);
    EXPECT_EQ(sig.checker_kind, "signal");
  }
}

// --- fusion -----------------------------------------------------------------

FailureSignature Alarm(const std::string& checker, const std::string& kind,
                       const std::string& component, TimeNs at) {
  FailureSignature sig;
  sig.checker_name = checker;
  sig.checker_kind = kind;
  sig.location.component = component;
  sig.detect_time = at;
  return sig;
}

TEST(FusionDetectorTest, FamilyOfMapsKinds) {
  EXPECT_EQ(FusionDetector::FamilyOf("probe"), kFamilyProbe);
  EXPECT_EQ(FusionDetector::FamilyOf("signal"), kFamilySignal);
  EXPECT_EQ(FusionDetector::FamilyOf("mimic"), kFamilyMimic);
  EXPECT_EQ(FusionDetector::FamilyOf("heartbeat"), 0u);  // unknown: no weight
}

TEST(FusionDetectorTest, SingleMimicAlarmFiresWithPinpoint) {
  FusionDetector fusion;  // mimic weight 0.9 >= fire threshold 0.7
  fusion.OnFailure(Alarm("wal_mimic", "mimic", "kvs.wal", Sec(1)));
  ASSERT_EQ(fusion.Fires().size(), 1u);
  EXPECT_EQ(fusion.Fires()[0].component, "kvs.wal");
  EXPECT_EQ(fusion.FirstFireTime(), Sec(1));
}

TEST(FusionDetectorTest, SingleSignalAlarmStaysBelowThreshold) {
  FusionDetector fusion;  // signal weight 0.45 < 0.7
  fusion.OnFailure(Alarm("queue_sig", "signal", "kvs.listener", Sec(1)));
  EXPECT_TRUE(fusion.Fires().empty());
  EXPECT_NEAR(fusion.ScoreAt(Sec(1)), 0.45, 1e-9);
}

TEST(FusionDetectorTest, CorroborationBeatsOneLoudChecker) {
  // Two DIFFERENT signal checkers corroborate: 0.45 + 0.45 = 0.9 fires.
  FusionDetector two;
  two.OnFailure(Alarm("sig_a", "signal", "kvs.listener", Sec(1)));
  two.OnFailure(Alarm("sig_b", "signal", "kvs.listener", Sec(1)));
  EXPECT_EQ(two.Fires().size(), 1u);
  // The SAME checker repeating only earns the persistence boost:
  // 0.45 * (1 + 0.35) = 0.6075 — one loud checker can't fake corroboration.
  FusionDetector loud;
  loud.OnFailure(Alarm("sig_a", "signal", "kvs.listener", Sec(1)));
  loud.OnFailure(Alarm("sig_a", "signal", "kvs.listener", Sec(1)));
  EXPECT_TRUE(loud.Fires().empty());
  EXPECT_NEAR(loud.ScoreAt(Sec(1)), 0.45 * 1.35, 1e-9);
}

TEST(FusionDetectorTest, PersistenceLiftsALoneSignalEventually) {
  // The fd-exhaustion story: one signal checker re-alarming through dedup.
  // 0.45 * (1 + 0.35*(n-1)) crosses 0.7 at n = 3 (0.7875) — before decay
  // between 100ms-spaced re-alarms pulls it back under.
  FusionDetector fusion;
  fusion.OnFailure(Alarm("fd_leak", "signal", "kvs.compaction", Sec(1)));
  EXPECT_TRUE(fusion.Fires().empty());
  fusion.OnFailure(Alarm("fd_leak", "signal", "kvs.compaction", Sec(1) + Ms(100)));
  EXPECT_TRUE(fusion.Fires().empty());
  fusion.OnFailure(Alarm("fd_leak", "signal", "kvs.compaction", Sec(1) + Ms(200)));
  ASSERT_EQ(fusion.Fires().size(), 1u);
  EXPECT_EQ(fusion.Fires()[0].component, "kvs.compaction");
}

TEST(FusionDetectorTest, DecayForgetsStaleEvidence) {
  FusionDetector fusion;
  fusion.OnFailure(Alarm("m", "mimic", "kvs.wal", Sec(1)));
  EXPECT_NEAR(fusion.ScoreAt(Sec(1)), 0.9, 1e-9);
  // One half-life later the evidence is worth half.
  EXPECT_NEAR(fusion.ScoreAt(Sec(1) + Ms(350)), 0.45, 1e-9);
  EXPECT_LT(fusion.ScoreAt(Sec(3)), 0.02);
}

TEST(FusionDetectorTest, HysteresisLatchesUntilScoreClears) {
  FusionDetector fusion;
  fusion.OnFailure(Alarm("m", "mimic", "kvs.wal", Sec(1)));
  ASSERT_EQ(fusion.Fires().size(), 1u);
  // More alarms while the score is still hot: latched, no second fire.
  fusion.OnFailure(Alarm("m", "mimic", "kvs.wal", Sec(1) + Ms(100)));
  fusion.OnFailure(Alarm("m2", "mimic", "kvs.wal", Sec(1) + Ms(200)));
  EXPECT_EQ(fusion.Fires().size(), 1u);
  // A long quiet stretch decays the score below clear_threshold (0.35), so
  // the next alarm re-arms AND re-fires: a new incident, a new fire.
  fusion.OnFailure(Alarm("m", "mimic", "kvs.wal", Sec(10)));
  EXPECT_EQ(fusion.Fires().size(), 2u);
}

TEST(FusionDetectorTest, PinpointTracksTheHottestComponent) {
  FusionDetector fusion;
  fusion.OnFailure(Alarm("sig", "signal", "kvs.listener", Sec(1)));
  EXPECT_EQ(fusion.PinpointAt(Sec(1)), "kvs.listener");
  fusion.OnFailure(Alarm("m", "mimic", "kvs.wal", Sec(1) + Ms(10)));
  EXPECT_EQ(fusion.PinpointAt(Sec(1) + Ms(10)), "kvs.wal");
}

TEST(FusionDetectorTest, MaskFiltersFamiliesBeforeCounting) {
  FusionPolicy probe_only;
  probe_only.family_mask = kFamilyProbe;
  FusionDetector fusion(probe_only);
  fusion.OnFailure(Alarm("m", "mimic", "kvs.wal", Sec(1)));
  fusion.OnFailure(Alarm("s", "signal", "kvs.wal", Sec(1)));
  EXPECT_EQ(fusion.alarms_seen(), 0);
  EXPECT_EQ(fusion.ScoreAt(Sec(1)), 0.0);
  fusion.OnFailure(Alarm("p", "probe", "kvs", Sec(1)));
  EXPECT_EQ(fusion.alarms_seen(), 1);
}

TEST(FusionDetectorTest, FusedFirstFireDominatesEveryMask) {
  // The fault-matrix honesty property in miniature: replay one mixed alarm
  // stream (seeded order/timing) into fused + three masked detectors and
  // check fused fires no later than any family that fires at all.
  Rng rng(31);
  FusionDetector fused;
  FusionPolicy p_probe, p_signal, p_mimic;
  p_probe.family_mask = kFamilyProbe;
  p_signal.family_mask = kFamilySignal;
  p_mimic.family_mask = kFamilyMimic;
  FusionDetector probe_only(p_probe), signal_only(p_signal), mimic_only(p_mimic);
  FusionDetector* all[] = {&fused, &probe_only, &signal_only, &mimic_only};

  const char* kinds[] = {"probe", "signal", "mimic"};
  TimeNs now = Sec(1);
  for (int i = 0; i < 60; ++i) {
    now += Ms(rng.Uniform(5, 120));
    const char* kind = kinds[rng.Uniform(0, 2)];
    const FailureSignature sig =
        Alarm(StrFormat("%s_%lld", kind, static_cast<long long>(rng.Uniform(0, 2))),
              kind, "kvs.wal", now);
    for (FusionDetector* detector : all) {
      detector->OnFailure(sig);
    }
  }
  ASSERT_TRUE(fused.FirstFireTime().has_value());
  for (FusionDetector* masked : {&probe_only, &signal_only, &mimic_only}) {
    if (masked->FirstFireTime().has_value()) {
      EXPECT_LE(*fused.FirstFireTime(), *masked->FirstFireTime());
    }
  }
}

TEST(FusionDetectorTest, ConcurrentAlarmsFromSchedulerThreads) {
  // OnFailure is called from driver scheduler/executor threads; hammer it
  // from four writers with a reader sampling the score — the TSan leg runs
  // this binary to certify the locking.
  FusionDetector fusion;
  constexpr int kThreads = 4;
  constexpr int kAlarmsEach = 1000;
  std::atomic<bool> stop_reader{false};
  std::thread reader([&] {
    while (!stop_reader.load()) {
      (void)fusion.ScoreAt(Sec(2));
      (void)fusion.PinpointAt(Sec(2));
      (void)fusion.Fires();
    }
  });
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&fusion, t] {
      for (int i = 0; i < kAlarmsEach; ++i) {
        fusion.OnFailure(Alarm(StrFormat("c%d", t), "mimic",
                               StrFormat("comp%d", i % 3), Sec(1) + Ms(i)));
      }
    });
  }
  for (std::thread& w : writers) {
    w.join();
  }
  stop_reader.store(true);
  reader.join();
  EXPECT_EQ(fusion.alarms_seen(), kThreads * kAlarmsEach);
  EXPECT_GE(fusion.Fires().size(), 1u);
}

}  // namespace
}  // namespace wdg
