// KvsNode: the full kvs process of Figure 1 — request listener, executor,
// WAL, memtable+indexer, disk flusher, compaction manager, replication
// engine, partition manager — plus the heartbeat thread that keeps beating
// through partial failures (which is precisely why heartbeat detectors miss
// them).
#pragma once

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "src/common/clock.h"
#include "src/common/metrics.h"
#include "src/common/threading.h"
#include "src/kvs/compaction.h"
#include "src/kvs/flusher.h"
#include "src/kvs/index.h"
#include "src/kvs/memtable.h"
#include "src/kvs/partition.h"
#include "src/kvs/replication.h"
#include "src/kvs/types.h"
#include "src/kvs/wal.h"
#include "src/sim/sim_disk.h"
#include "src/sim/sim_net.h"
#include "src/watchdog/context.h"

namespace kvs {

struct KvsOptions {
  wdg::NodeId node_id = "kvs1";
  // In-memory mode: no WAL, no flushes — the paper's example of a config
  // under which a disk-flusher checker must stay dormant (context not ready).
  bool in_memory = false;
  std::string data_dir = "/kvs";
  int64_t flush_threshold_bytes = 2048;
  wdg::DurationNs flush_poll = wdg::Ms(20);
  size_t compaction_max_tables = 4;
  wdg::DurationNs compaction_poll = wdg::Ms(40);
  std::vector<wdg::NodeId> followers;  // non-empty == this node is a leader
  wdg::DurationNs replication_ack_timeout = wdg::Ms(200);
  wdg::NodeId heartbeat_target;  // empty == heartbeats off
  wdg::DurationNs heartbeat_interval = wdg::Ms(25);
  wdg::DurationNs maintenance_poll = wdg::Ms(50);
};

class KvsNode {
 public:
  KvsNode(wdg::Clock& clock, wdg::SimDisk& disk, wdg::SimNet& net, KvsOptions options = {});
  ~KvsNode();

  KvsNode(const KvsNode&) = delete;
  KvsNode& operator=(const KvsNode&) = delete;

  // Recovers from the WAL (if any) and starts all component threads.
  wdg::Status Start();
  void Stop();

  // Applies a request exactly as the listener does (minus the network).
  // `from_replication` suppresses WAL + re-replication on followers.
  Response Apply(const Request& request, bool from_replication = false);

  // --- component access (checkers, op executors, tests) ------------------
  Memtable& memtable() { return memtable_; }
  Index& index() { return index_; }
  PartitionManager& partitions() { return partitions_; }
  Flusher& flusher() { return *flusher_; }
  CompactionManager& compaction() { return *compaction_; }
  ReplicationEngine& replication() { return *replication_; }
  Wal& wal() { return *wal_; }
  wdg::HookSet& hooks() { return hooks_; }
  wdg::MetricsRegistry& metrics() { return metrics_; }
  wdg::SimDisk& disk() { return disk_; }
  wdg::SimNet& net() { return net_; }
  wdg::Clock& clock() { return clock_; }
  const KvsOptions& options() const { return options_; }

  std::string wal_path() const;
  std::string table_dir() const;
  bool running() const { return running_.load(); }

 private:
  void ListenerLoop();
  void HeartbeatLoop();
  void MaintenanceLoop();
  void ApplyReplicatedBatch(const std::string& payload);

  wdg::Clock& clock_;
  wdg::SimDisk& disk_;
  wdg::SimNet& net_;
  KvsOptions options_;

  Memtable memtable_;
  Index index_;
  PartitionManager partitions_;
  std::unique_ptr<Wal> wal_;
  std::unique_ptr<Flusher> flusher_;
  std::unique_ptr<CompactionManager> compaction_;
  std::unique_ptr<ReplicationEngine> replication_;
  wdg::HookSet hooks_;
  wdg::MetricsRegistry metrics_;
  // Resolved once: the listener and Apply touch these per loop pass/request.
  wdg::Gauge* const listener_tick_ = metrics_.GetGauge("kvs.listener.last_tick_ns");
  wdg::Gauge* const listener_queue_depth_ = metrics_.GetGauge("kvs.listener.queue_depth");
  wdg::Gauge* const memtable_bytes_ = metrics_.GetGauge("kvs.memtable.bytes");
  wdg::Counter* const requests_received_ = metrics_.GetCounter("kvs.requests.received");
  wdg::Counter* const requests_gets_ = metrics_.GetCounter("kvs.requests.gets");
  wdg::Counter* const requests_writes_ = metrics_.GetCounter("kvs.requests.writes");
  wdg::Counter* const requests_errors_ = metrics_.GetCounter("kvs.requests.errors");
  wdg::Counter* const handler_retries_ = metrics_.GetCounter("kvs.error_handler.retries");
  wdg::Counter* const handler_recovered_ = metrics_.GetCounter("kvs.error_handler.recovered");
  wdg::Counter* const heartbeats_received_ = metrics_.GetCounter("kvs.heartbeats.received");
  wdg::Counter* const replication_applied_ = metrics_.GetCounter("kvs.replication.applied");

  wdg::Endpoint* endpoint_ = nullptr;
  std::atomic<bool> running_{false};
  wdg::StopFlag stop_;
  wdg::JoiningThread listener_thread_;
  wdg::JoiningThread heartbeat_thread_;
  wdg::JoiningThread maintenance_thread_;
  std::atomic<size_t> maintenance_cursor_{0};
};

}  // namespace kvs
