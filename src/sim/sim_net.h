// SimNet: an in-process message network with latency, drops and partitions.
// Stands in for the production networks whose misbehaviour triggers gray
// failures like ZOOKEEPER-2201 (a remote sync blocking forever).
//
// Fault sites: "net.send.<dst>" and "net.recv.<node>" — so a campaign can
// hang exactly the leader→follower link ("net.send.follower1") while every
// other flow, including heartbeats, keeps working.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "src/common/clock.h"
#include "src/common/metrics.h"
#include "src/common/result.h"
#include "src/fault/fault_injector.h"

namespace wdg {

using NodeId = std::string;

struct Message {
  NodeId src;
  NodeId dst;
  std::string type;     // application-level tag, e.g. "kvs.set", "zk.heartbeat"
  std::string payload;
  uint64_t corr_id = 0;  // request/reply correlation
  bool is_reply = false;
};

struct NetOptions {
  DurationNs base_latency = Us(100);
  DurationNs per_kb_latency = Us(5);
  double drop_probability = 0.0;
};

class SimNet;

// One node's attachment point. Obtained from SimNet::CreateEndpoint; owned by
// the SimNet (stable pointer).
class Endpoint {
 public:
  Endpoint(SimNet& net, NodeId id) : net_(net), id_(std::move(id)) {}

  const NodeId& id() const { return id_; }

  // Fire-and-forget send. Errors surface injected faults or partitions;
  // probabilistic drops are silent (like UDP).
  Status Send(const NodeId& dst, std::string type, std::string payload, uint64_t corr_id = 0,
              bool is_reply = false);

  // Blocks until a non-reply message is deliverable or the timeout expires.
  std::optional<Message> Recv(DurationNs timeout);

  // RPC: send a request and wait for the matching reply.
  Result<std::string> Call(const NodeId& dst, std::string type, std::string payload,
                           DurationNs timeout);

  // Replies to a received request.
  Status Reply(const Message& request, std::string payload);

  size_t PendingCount() const;

 private:
  friend class SimNet;

  void Deliver(Message msg, TimeNs deliver_at);
  std::optional<Message> PopMatching(const std::function<bool(const Message&)>& pred,
                                     DurationNs timeout);

  SimNet& net_;
  NodeId id_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  // deliver_at -> message; Recv only surfaces messages whose time has come.
  std::multimap<TimeNs, Message> inbox_;
};

class SimNet {
 public:
  SimNet(Clock& clock, FaultInjector& injector, NetOptions options = {}, uint64_t seed = 7);

  // Idempotent: returns the existing endpoint if the node is already attached.
  Endpoint* CreateEndpoint(const NodeId& id);
  Endpoint* GetEndpoint(const NodeId& id);

  // Bidirectional partition between two nodes: sends in either direction are
  // dropped (with a logged counter) until healed.
  void Partition(const NodeId& a, const NodeId& b);
  void Heal(const NodeId& a, const NodeId& b);
  void HealAll();
  bool IsPartitioned(const NodeId& a, const NodeId& b) const;

  void set_drop_probability(double p);

  Clock& clock() { return clock_; }
  FaultInjector& injector() { return injector_; }
  MetricsRegistry& metrics() { return metrics_; }
  uint64_t NextCorrId() { return corr_counter_.fetch_add(1) + 1; }

 private:
  friend class Endpoint;

  // Send path implementation shared by Endpoint::Send.
  Status Route(Message msg);

  Clock& clock_;
  FaultInjector& injector_;
  NetOptions options_;
  mutable std::mutex mu_;
  std::map<NodeId, std::unique_ptr<Endpoint>> endpoints_;
  std::set<std::pair<NodeId, NodeId>> partitions_;  // normalized (min,max) pairs
  double drop_probability_;
  Rng rng_;
  std::atomic<uint64_t> corr_counter_{0};
  MetricsRegistry metrics_;
  // Resolved once: Route runs per message.
  Counter* const sent_ = metrics_.GetCounter("net.messages_sent");
  Counter* const dropped_ = metrics_.GetCounter("net.messages_dropped");
  Counter* const partitioned_ = metrics_.GetCounter("net.messages_partitioned");
};

}  // namespace wdg
