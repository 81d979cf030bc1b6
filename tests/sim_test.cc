// Unit tests for the simulated disk and network.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

#include "src/common/checksum.h"
#include "src/common/rng.h"
#include "src/common/threading.h"
#include "src/sim/sim_disk.h"
#include "src/sim/sim_net.h"

namespace wdg {
namespace {

DurationNs Median(std::vector<DurationNs> values) {
  const auto mid = values.begin() + static_cast<std::ptrdiff_t>(values.size() / 2);
  std::nth_element(values.begin(), mid, values.end());
  return *mid;
}

class SimDiskTest : public ::testing::Test {
 protected:
  SimDiskTest() : injector_(clock_), disk_(clock_, injector_, FastDisk()) {}

  static DiskOptions FastDisk() {
    DiskOptions options;
    options.base_latency = 0;
    options.per_kb_latency = 0;
    return options;
  }

  RealClock& clock_ = RealClock::Instance();
  FaultInjector injector_;
  SimDisk disk_;
};

TEST_F(SimDiskTest, CreateWriteReadRoundtrip) {
  ASSERT_TRUE(disk_.Create("/wal/log.0").ok());
  ASSERT_TRUE(disk_.Write("/wal/log.0", 0, "hello").ok());
  const auto data = disk_.ReadAll("/wal/log.0");
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(*data, "hello");
}

TEST_F(SimDiskTest, WriteAtOffsetExtends) {
  ASSERT_TRUE(disk_.Create("/f").ok());
  ASSERT_TRUE(disk_.Write("/f", 3, "abc").ok());
  const auto data = disk_.ReadAll("/f");
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(data->size(), 6u);
  EXPECT_EQ(data->substr(3), "abc");
}

TEST_F(SimDiskTest, AppendAccumulates) {
  ASSERT_TRUE(disk_.Create("/f").ok());
  ASSERT_TRUE(disk_.Append("/f", "ab").ok());
  ASSERT_TRUE(disk_.Append("/f", "cd").ok());
  EXPECT_EQ(*disk_.ReadAll("/f"), "abcd");
  EXPECT_EQ(*disk_.Size("/f"), 4);
}

TEST_F(SimDiskTest, MissingFileErrors) {
  EXPECT_EQ(disk_.ReadAll("/nope").status().code(), StatusCode::kNotFound);
  EXPECT_EQ(disk_.Delete("/nope").code(), StatusCode::kNotFound);
  EXPECT_EQ(disk_.Fsync("/nope").code(), StatusCode::kNotFound);
  EXPECT_FALSE(disk_.Exists("/nope"));
}

TEST_F(SimDiskTest, DoubleCreateFails) {
  ASSERT_TRUE(disk_.Create("/f").ok());
  EXPECT_EQ(disk_.Create("/f").code(), StatusCode::kAlreadyExists);
}

TEST_F(SimDiskTest, RenameMovesContent) {
  ASSERT_TRUE(disk_.Create("/a").ok());
  ASSERT_TRUE(disk_.Append("/a", "data").ok());
  ASSERT_TRUE(disk_.Rename("/a", "/b").ok());
  EXPECT_FALSE(disk_.Exists("/a"));
  EXPECT_EQ(*disk_.ReadAll("/b"), "data");
}

TEST_F(SimDiskTest, ListByPrefix) {
  ASSERT_TRUE(disk_.Create("/sst/1").ok());
  ASSERT_TRUE(disk_.Create("/sst/2").ok());
  ASSERT_TRUE(disk_.Create("/wal/1").ok());
  const auto files = disk_.List("/sst/");
  ASSERT_EQ(files.size(), 2u);
  EXPECT_EQ(files[0], "/sst/1");
}

TEST_F(SimDiskTest, DeleteReclaimsSpace) {
  ASSERT_TRUE(disk_.Create("/f").ok());
  ASSERT_TRUE(disk_.Append("/f", std::string(1000, 'x')).ok());
  EXPECT_EQ(disk_.used_bytes(), 1000);
  ASSERT_TRUE(disk_.Delete("/f").ok());
  EXPECT_EQ(disk_.used_bytes(), 0);
}

TEST_F(SimDiskTest, CapacityEnforced) {
  DiskOptions tiny = FastDisk();
  tiny.capacity_bytes = 100;
  SimDisk disk(clock_, injector_, tiny);
  ASSERT_TRUE(disk.Create("/f").ok());
  EXPECT_TRUE(disk.Append("/f", std::string(100, 'x')).ok());
  EXPECT_EQ(disk.Append("/f", "y").code(), StatusCode::kResourceExhausted);
}

TEST_F(SimDiskTest, BadRangeCorruptsReads) {
  ASSERT_TRUE(disk_.Create("/part").ok());
  const std::string payload = "all good data here";
  ASSERT_TRUE(disk_.Append("/part", payload).ok());
  const uint32_t good_crc = Crc32(payload);
  disk_.MarkBadRange("/part", 4, 4);
  const auto data = disk_.ReadAll("/part");
  ASSERT_TRUE(data.ok());
  EXPECT_NE(Crc32(*data), good_crc);
  // Outside the bad range the bytes are intact.
  EXPECT_EQ(data->substr(0, 4), payload.substr(0, 4));
  disk_.ClearBadRanges();
  EXPECT_EQ(Crc32(*disk_.ReadAll("/part")), good_crc);
}

TEST_F(SimDiskTest, InjectedWriteErrorSurfaces) {
  FaultSpec spec;
  spec.id = "werr";
  spec.site_pattern = "disk.write";
  spec.kind = FaultKind::kError;
  injector_.Inject(spec);
  ASSERT_TRUE(disk_.Create("/f").ok());
  EXPECT_EQ(disk_.Write("/f", 0, "x").code(), StatusCode::kIoError);
  injector_.ClearAll();
  EXPECT_TRUE(disk_.Write("/f", 0, "x").ok());
}

TEST_F(SimDiskTest, SilentDropLosesWriteButReportsSuccess) {
  FaultSpec spec;
  spec.id = "lost";
  spec.site_pattern = "disk.append";
  spec.kind = FaultKind::kSilentDrop;
  injector_.Inject(spec);
  ASSERT_TRUE(disk_.Create("/f").ok());
  EXPECT_TRUE(disk_.Append("/f", "vanished").ok());  // success reported...
  injector_.ClearAll();
  EXPECT_EQ(disk_.ReadAll("/f")->size(), 0u);  // ...but nothing stored
}

TEST_F(SimDiskTest, SlowFactorMultipliesLatency) {
  DiskOptions slow;
  slow.base_latency = Ms(1);
  slow.per_kb_latency = 0;
  SimDisk disk(clock_, injector_, slow);
  ASSERT_TRUE(disk.Create("/f").ok());
  disk.SetSlowFactor(20.0);  // fail-slow: 20x
  const TimeNs start = clock_.NowNs();
  ASSERT_TRUE(disk.Append("/f", "x").ok());
  EXPECT_GE(clock_.NowNs() - start, Ms(15));
}

TEST_F(SimDiskTest, OpsNeverReturnBeforeTheirModelledCost) {
  // Microsecond costs, where a sleep would be stretched by the timer slack:
  // the precise wait must still never cut an op short.
  DiskOptions options;
  options.base_latency = Us(5);
  options.per_kb_latency = Us(2);
  SimDisk disk(clock_, injector_, options);
  ASSERT_TRUE(disk.Create("/f").ok());
  Rng rng(13);
  std::vector<DurationNs> overshoot;
  for (int i = 0; i < 300; ++i) {
    const double slow = i % 3 == 0 ? 1.0 : 1.0 + static_cast<double>(rng.Uniform(1, 30)) / 10.0;
    disk.SetSlowFactor(slow);
    const std::string data(static_cast<size_t>(rng.Uniform(0, 4096)), 'd');
    const DurationNs cost = static_cast<DurationNs>(
        (static_cast<double>(options.base_latency) +
         static_cast<double>(options.per_kb_latency) * static_cast<double>(data.size()) / 1024.0) *
        slow);
    const TimeNs start = clock_.NowNs();
    ASSERT_TRUE(disk.Append("/f", data).ok());
    const DurationNs took = clock_.NowNs() - start;
    ASSERT_GE(took, cost) << "append " << i << " of " << data.size() << " B at slow x" << slow;
    overshoot.push_back(took - cost);
  }
  // Loose sanity bound only: it must hold on a loaded, shared host.
  EXPECT_LT(Median(overshoot), Ms(2));
}

TEST_F(SimDiskTest, ScratchNamespaceIsolatedAndPurgeable) {
  const std::string scratch = SimDisk::ScratchPath("flush_checker", "probe.dat");
  EXPECT_TRUE(SimDisk::IsScratchPath(scratch));
  EXPECT_FALSE(SimDisk::IsScratchPath("/wal/log.0"));
  ASSERT_TRUE(disk_.Create(scratch).ok());
  ASSERT_TRUE(disk_.Append(scratch, "checker data").ok());
  ASSERT_TRUE(disk_.Create("/real").ok());
  disk_.PurgeScratch("flush_checker");
  EXPECT_FALSE(disk_.Exists(scratch));
  EXPECT_TRUE(disk_.Exists("/real"));
}

class SimNetTest : public ::testing::Test {
 protected:
  SimNetTest() : injector_(clock_), net_(clock_, injector_, FastNet()) {}

  static NetOptions FastNet() {
    NetOptions options;
    options.base_latency = Us(10);
    options.per_kb_latency = 0;
    return options;
  }

  RealClock& clock_ = RealClock::Instance();
  FaultInjector injector_;
  SimNet net_;
};

TEST_F(SimNetTest, SendRecvRoundtrip) {
  Endpoint* a = net_.CreateEndpoint("a");
  Endpoint* b = net_.CreateEndpoint("b");
  ASSERT_TRUE(a->Send("b", "ping", "payload").ok());
  const auto msg = b->Recv(Ms(200));
  ASSERT_TRUE(msg.has_value());
  EXPECT_EQ(msg->src, "a");
  EXPECT_EQ(msg->type, "ping");
  EXPECT_EQ(msg->payload, "payload");
}

TEST_F(SimNetTest, RecvTimesOutOnSilence) {
  Endpoint* a = net_.CreateEndpoint("a");
  EXPECT_FALSE(a->Recv(Ms(20)).has_value());
}

TEST_F(SimNetTest, SendToUnknownNodeFails) {
  Endpoint* a = net_.CreateEndpoint("a");
  EXPECT_EQ(a->Send("ghost", "t", "p").code(), StatusCode::kUnavailable);
}

TEST_F(SimNetTest, CallGetsReply) {
  Endpoint* client = net_.CreateEndpoint("client");
  Endpoint* server = net_.CreateEndpoint("server");
  std::thread server_thread([&] {
    const auto req = server->Recv(Sec(5));
    ASSERT_TRUE(req.has_value());
    ASSERT_TRUE(server->Reply(*req, "pong:" + req->payload).ok());
  });
  const auto reply = client->Call("server", "echo", "hi", Sec(5));
  server_thread.join();
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(*reply, "pong:hi");
}

TEST_F(SimNetTest, CallTimesOutWithoutServer) {
  Endpoint* client = net_.CreateEndpoint("client");
  net_.CreateEndpoint("mute");
  const auto reply = client->Call("mute", "echo", "hi", Ms(30));
  EXPECT_EQ(reply.status().code(), StatusCode::kTimeout);
}

TEST_F(SimNetTest, PartitionDropsSilently) {
  Endpoint* a = net_.CreateEndpoint("a");
  Endpoint* b = net_.CreateEndpoint("b");
  net_.Partition("a", "b");
  EXPECT_TRUE(net_.IsPartitioned("b", "a"));
  EXPECT_TRUE(a->Send("b", "t", "p").ok());  // vanishes like a dropped packet
  EXPECT_FALSE(b->Recv(Ms(20)).has_value());
  net_.Heal("a", "b");
  EXPECT_TRUE(a->Send("b", "t", "p2").ok());
  const auto msg = b->Recv(Ms(200));
  ASSERT_TRUE(msg.has_value());
  EXPECT_EQ(msg->payload, "p2");
}

TEST_F(SimNetTest, DropProbabilityLosesSomeMessages) {
  Endpoint* a = net_.CreateEndpoint("a");
  Endpoint* b = net_.CreateEndpoint("b");
  net_.set_drop_probability(0.5);
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(a->Send("b", "t", "x").ok());
  }
  net_.set_drop_probability(0.0);
  int received = 0;
  while (b->Recv(Ms(10)).has_value()) {
    ++received;
  }
  EXPECT_GT(received, 40);
  EXPECT_LT(received, 160);
}

TEST_F(SimNetTest, InjectedSendHangBlocksSender) {
  Endpoint* a = net_.CreateEndpoint("a");
  net_.CreateEndpoint("b");
  FaultSpec spec;
  spec.id = "linkhang";
  spec.site_pattern = "net.send.b";
  spec.kind = FaultKind::kHang;
  injector_.Inject(spec);
  std::atomic<bool> sent{false};
  std::thread sender([&] {
    (void)a->Send("b", "t", "p");  // blocks — the ZK-2201 shape
    sent = true;
  });
  while (injector_.parked_thread_count() == 0) {
    std::this_thread::yield();
  }
  EXPECT_FALSE(sent.load());
  injector_.ClearAll();
  sender.join();
}

TEST_F(SimNetTest, CorruptionMangledInFlight) {
  Endpoint* a = net_.CreateEndpoint("a");
  Endpoint* b = net_.CreateEndpoint("b");
  FaultSpec spec;
  spec.id = "bitrot";
  spec.site_pattern = "net.send.b";
  spec.kind = FaultKind::kCorruption;
  injector_.Inject(spec);
  ASSERT_TRUE(a->Send("b", "t", "important payload").ok());
  const auto msg = b->Recv(Ms(200));
  ASSERT_TRUE(msg.has_value());
  EXPECT_NE(msg->payload, "important payload");
}

TEST_F(SimNetTest, EndpointIdempotentCreation) {
  EXPECT_EQ(net_.CreateEndpoint("x"), net_.CreateEndpoint("x"));
  EXPECT_EQ(net_.GetEndpoint("x"), net_.CreateEndpoint("x"));
  EXPECT_EQ(net_.GetEndpoint("absent"), nullptr);
}

TEST_F(SimNetTest, LatencyDelaysDelivery) {
  NetOptions slow;
  slow.base_latency = Ms(30);
  SimNet net(clock_, injector_, slow);
  Endpoint* a = net.CreateEndpoint("a");
  Endpoint* b = net.CreateEndpoint("b");
  ASSERT_TRUE(a->Send("b", "t", "p").ok());
  EXPECT_FALSE(b->Recv(Ms(5)).has_value());  // not yet deliverable
  EXPECT_TRUE(b->Recv(Ms(200)).has_value());
}

TEST(RealClockTest, SleepForNeverReturnsEarly) {
  // Both sides of kPreciseWaitBelow: the yield-spin and the plain sleep.
  RealClock& clock = RealClock::Instance();
  Rng rng(5);
  for (int i = 0; i < 200; ++i) {
    const DurationNs wait = rng.Uniform(1, 2 * kPreciseWaitBelow);
    const TimeNs start = clock.NowNs();
    clock.SleepFor(wait);
    ASSERT_GE(clock.NowNs() - start, wait) << "wait " << wait << " ns";
  }
}

// The modelled one-way latency of a message of `bytes` (SimNet::Route).
DurationNs ModelledLatency(const NetOptions& options, size_t bytes) {
  return options.base_latency +
         options.per_kb_latency * static_cast<DurationNs>(bytes / 1024 + 1);
}

TEST(SimNetLatencyTest, NoMessageSurfacesBeforeItsModelledLatency) {
  // Figure 1's network (20 us hops) with seeded payload sizes across the
  // per-KB steps. Recv covers one hop; Call covers the request and the reply.
  RealClock& clock = RealClock::Instance();
  FaultInjector injector(clock);
  NetOptions options;
  options.base_latency = Us(20);
  options.per_kb_latency = Us(5);
  SimNet net(clock, injector, options);
  Endpoint* client = net.CreateEndpoint("client");
  Endpoint* server = net.CreateEndpoint("server");
  Endpoint* echo = net.CreateEndpoint("echo");
  std::atomic<bool> serving{true};
  JoiningThread echo_loop([&] {
    while (serving.load()) {
      const auto request = echo->Recv(Ms(5));
      if (request.has_value()) {
        ASSERT_TRUE(echo->Reply(*request, request->payload).ok());
      }
    }
  });
  // Declared after the thread, so it stops the loop before the join on
  // every exit path, a failed assertion included.
  struct StopOnExit {
    std::atomic<bool>& flag;
    ~StopOnExit() { flag.store(false); }
  } stop_echo{serving};

  Rng rng(2024);
  std::vector<DurationNs> overshoot;
  for (int i = 0; i < 600; ++i) {
    const std::string payload(static_cast<size_t>(rng.Uniform(0, 3 * 1024)), 'p');
    if (i % 2 == 0) {
      const DurationNs latency = ModelledLatency(options, payload.size());
      const TimeNs sent = clock.NowNs();
      ASSERT_TRUE(client->Send("server", "oneway", payload).ok());
      const auto msg = server->Recv(Sec(1));
      const DurationNs took = clock.NowNs() - sent;
      ASSERT_TRUE(msg.has_value()) << "send " << i;
      ASSERT_GE(took, latency) << "send " << i << ": " << payload.size() << " B";
      overshoot.push_back(took - latency);
    } else {
      // The echo replies with the same payload, so both hops cost the same.
      const DurationNs latency = 2 * ModelledLatency(options, payload.size());
      const TimeNs sent = clock.NowNs();
      const auto reply = client->Call("echo", "rpc", payload, Sec(1));
      const DurationNs took = clock.NowNs() - sent;
      ASSERT_TRUE(reply.ok()) << "call " << i << ": " << reply.status();
      ASSERT_GE(took, latency) << "call " << i << ": " << payload.size() << " B";
    }
  }
  // Loose sanity bound only: it must hold on a loaded, shared host.
  EXPECT_LT(Median(overshoot), Ms(2));
}

}  // namespace
}  // namespace wdg
