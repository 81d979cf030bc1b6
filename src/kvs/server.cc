#include "src/kvs/server.h"

#include "src/kvs/ctx_keys.h"

#include "src/common/logging.h"
#include "src/common/strings.h"

namespace kvs {

namespace {
constexpr char kBatchSep = '\x1d';
}

KvsNode::KvsNode(wdg::Clock& clock, wdg::SimDisk& disk, wdg::SimNet& net, KvsOptions options)
    : clock_(clock), disk_(disk), net_(net), options_(std::move(options)),
      index_(disk_, memtable_), partitions_(disk_) {
  wal_ = std::make_unique<Wal>(disk_, wal_path());

  FlusherOptions flusher_options;
  flusher_options.flush_threshold_bytes = options_.flush_threshold_bytes;
  flusher_options.poll_interval = options_.flush_poll;
  flusher_options.table_dir = table_dir();
  flusher_ = std::make_unique<Flusher>(clock_, disk_, memtable_, index_, partitions_, hooks_,
                                       metrics_, flusher_options);
  flusher_->set_on_flushed([this] {
    const wdg::Status status = wal_->Truncate();
    if (!status.ok()) {
      WDG_LOG(kWarn) << "wal truncate failed: " << status;
    }
  });

  CompactionOptions compaction_options;
  compaction_options.max_tables = options_.compaction_max_tables;
  compaction_options.poll_interval = options_.compaction_poll;
  compaction_options.table_dir = table_dir();
  compaction_ = std::make_unique<CompactionManager>(clock_, disk_, index_, partitions_, hooks_,
                                                    metrics_, compaction_options);

  ReplicationOptions replication_options;
  replication_options.followers = options_.followers;
  replication_options.ack_timeout = options_.replication_ack_timeout;
  replication_ = std::make_unique<ReplicationEngine>(clock_, net_, options_.node_id, hooks_,
                                                     metrics_, replication_options);
}

KvsNode::~KvsNode() { Stop(); }

std::string KvsNode::wal_path() const {
  return options_.data_dir + "/" + options_.node_id + "/wal.log";
}

std::string KvsNode::table_dir() const {
  return options_.data_dir + "/" + options_.node_id + "/sst";
}

wdg::Status KvsNode::Start() {
  if (running_.exchange(true)) {
    return wdg::Status::Ok();
  }
  endpoint_ = net_.CreateEndpoint(options_.node_id);

  if (!options_.in_memory) {
    WDG_RETURN_IF_ERROR(wal_->Open());
    // Crash recovery: replay intact WAL records into the memtable.
    WDG_ASSIGN_OR_RETURN(const auto recovery, wal_->Recover());
    for (const std::string& record : recovery.records) {
      const auto request = Request::Decode(record);
      if (request.ok()) {
        Apply(*request, /*from_replication=*/true);
      }
    }
    if (recovery.corrupt_tail_bytes > 0) {
      WDG_LOG(kWarn) << "wal recovery dropped " << recovery.corrupt_tail_bytes
                     << " corrupt tail bytes";
    }
    flusher_->Start();
    compaction_->Start();
  }
  replication_->Start();

  listener_thread_ = wdg::JoiningThread([this] { ListenerLoop(); });
  maintenance_thread_ = wdg::JoiningThread([this] { MaintenanceLoop(); });
  if (!options_.heartbeat_target.empty()) {
    heartbeat_thread_ = wdg::JoiningThread([this] { HeartbeatLoop(); });
  }
  return wdg::Status::Ok();
}

void KvsNode::Stop() {
  if (!running_.exchange(false)) {
    return;
  }
  stop_.Request();
  listener_thread_.Join();
  heartbeat_thread_.Join();
  maintenance_thread_.Join();
  if (flusher_) {
    flusher_->Stop();
  }
  if (compaction_) {
    compaction_->Stop();
  }
  if (replication_) {
    replication_->Stop();
  }
}

void KvsNode::ListenerLoop() {
  while (!stop_.Requested()) {
    hooks_.Site("RequestLoop:2")->Fire([&](wdg::CheckContext& ctx) {
      ctx.Set(keys::Node(), options_.node_id);
      ctx.MarkReady(clock_.NowNs());
    });
    listener_tick_->Set(static_cast<double>(clock_.NowNs()));
    // Kick-interval beat for the signal suite: a single-value publish per
    // iteration, so a wedged listener — blocked in
    // Apply behind a hung WAL append or a held flush lock — stops the beat
    // and the jitter checker sees the gap.
    hooks_.Site("ResourceBeat:1")->Fire([&](wdg::CheckContext& ctx) {
      const wdg::TimeNs beat = clock_.NowNs();
      ctx.Set(keys::ResLastBeatNs(), static_cast<int64_t>(beat));
      ctx.MarkReady(beat);
    });
    auto msg = endpoint_->Recv(wdg::Ms(5));
    if (!msg.has_value()) {
      continue;
    }
    listener_queue_depth_->Set(static_cast<double>(endpoint_->PendingCount()));
    if (msg->type == kMsgRequest) {
      requests_received_->Increment();
      const auto request = Request::Decode(msg->payload);
      Response response = request.ok() ? Apply(*request)
                                       : Response::Err(request.status());
      (void)endpoint_->Reply(*msg, response.Encode());
    } else if (msg->type == kMsgReplicate) {
      ApplyReplicatedBatch(msg->payload);
      (void)endpoint_->Reply(*msg, "ack");
    } else if (msg->type == kMsgWdgProbe) {
      // The watchdog's cross-node liveness channel.
      (void)endpoint_->Reply(*msg, "ok");
    } else if (msg->type == kMsgHeartbeat) {
      heartbeats_received_->Increment();
    }
  }
}

Response KvsNode::Apply(const Request& request, bool from_replication) {
  if (request.op == OpType::kGet) {
    hooks_.Site("ApplyRequest:2")->Fire([&](wdg::CheckContext& ctx) {
      ctx.Set(keys::Key(), request.key);
      ctx.MarkReady(clock_.NowNs());
    });
    const auto value = index_.Get(request.key);
    if (!value.ok()) {
      requests_errors_->Increment();
      return Response::Err(value.status());
    }
    if (!value->has_value()) {
      return Response::Err(wdg::NotFoundError(request.key));
    }
    requests_gets_->Increment();
    return Response::Ok(**value);
  }

  // Write path: WAL first (durability), then memtable, then replication.
  // Serialized against flushes: the flusher truncates the WAL after moving
  // the memtable to disk, so appends must not interleave with that window.
  std::unique_lock<std::timed_mutex> write_guard(memtable_.flush_lock());
  if (!options_.in_memory && !from_replication) {
    const std::string record = request.Encode();
    hooks_.Site("WalAppend:1")->Fire([&](wdg::CheckContext& ctx) {
      ctx.Set(keys::WalPath(), wal_path());
      ctx.Set(keys::RecordBytes(), static_cast<int64_t>(record.size()));
      ctx.MarkReady(clock_.NowNs());
    });
    wdg::Status status = wal_->Append(record);
    if (!status.ok() && (status.code() == wdg::StatusCode::kIoError ||
                         status.code() == wdg::StatusCode::kUnavailable)) {
      // In-place error handler (Table 1, row 2): a known transient error at a
      // specific program point gets one retry so execution can continue.
      handler_retries_->Increment();
      status = wal_->Append(record);
      if (status.ok()) {
        handler_recovered_->Increment();
      }
    }
    if (!status.ok()) {
      requests_errors_->Increment();
      return Response::Err(status);
    }
  }
  switch (request.op) {
    case OpType::kSet:
      memtable_.Set(request.key, request.value);
      break;
    case OpType::kAppend:
      memtable_.Append(request.key, request.value);
      break;
    case OpType::kDel:
      memtable_.Del(request.key);
      break;
    case OpType::kGet:
      break;  // handled above
  }
  requests_writes_->Increment();
  memtable_bytes_->Set(static_cast<double>(memtable_.ApproximateBytes()));
  if (!from_replication) {
    replication_->Enqueue(request);
  }
  return Response::Ok();
}

void KvsNode::ApplyReplicatedBatch(const std::string& payload) {
  for (const std::string& record : wdg::StrSplit(payload, kBatchSep)) {
    if (record.empty()) {
      continue;
    }
    const auto request = Request::Decode(record);
    if (request.ok()) {
      Apply(*request, /*from_replication=*/true);
      replication_applied_->Increment();
    }
  }
}

void KvsNode::HeartbeatLoop() {
  // Separate endpoint: heartbeats must not contend with request handling —
  // which is exactly why they keep flowing through partial failures.
  wdg::Endpoint* hb = net_.CreateEndpoint(options_.node_id + ".hb");
  while (!stop_.WaitFor(options_.heartbeat_interval)) {
    const wdg::Status status =
        hb->Send(options_.heartbeat_target, kMsgHeartbeat, options_.node_id);
    if (status.ok()) {
      metrics_.GetCounter("kvs.heartbeats.sent")->Increment();
    }
  }
}

void KvsNode::MaintenanceLoop() {
  while (!stop_.WaitFor(options_.maintenance_poll)) {
    metrics_.GetGauge("kvs.maintenance.last_tick_ns")
        ->Set(static_cast<double>(clock_.NowNs()));
    metrics_.GetGauge("kvs.index.tables")
        ->Set(static_cast<double>(index_.Tables().size()));
    memtable_bytes_->Set(static_cast<double>(memtable_.ApproximateBytes()));

    // Resource sample for the signal suite. Everything — including the disk
    // List/Read the sample needs — happens inside Fire(), so an unarmed site
    // costs one relaxed load and no disk traffic.
    hooks_.Site("ResourceSample:1")->Fire([&](wdg::CheckContext& ctx) {
      // Open handles ≈ files under this node's table dir: compaction leaks
      // (failed deletes) show up as a monotone climb here.
      const int64_t open_handles =
          static_cast<int64_t>(disk_.List(table_dir()).size());
      // Disk health probe: time one small read through the fault gates.
      int64_t disk_lat_ns = -1;
      const wdg::TimeNs t0 = clock_.NowNs();
      if (disk_.ReadAll(wal_path()).ok()) {
        disk_lat_ns = clock_.NowNs() - t0;
      }
      // Live component loops: a tick gauge older than the stale bound means
      // that loop is wedged (or dead), even if the rest of the node hums.
      static constexpr wdg::DurationNs kTickStaleAfter = wdg::Ms(300);
      static constexpr const char* kTickGauges[] = {
          "kvs.listener.last_tick_ns", "kvs.flusher.last_tick_ns",
          "kvs.compaction.last_tick_ns", "kvs.replication.last_tick_ns",
          "kvs.maintenance.last_tick_ns"};
      const wdg::TimeNs now = clock_.NowNs();
      int64_t live = 0;
      for (const char* gauge_name : kTickGauges) {
        wdg::Gauge* gauge = metrics_.FindGauge(gauge_name);
        if (gauge != nullptr &&
            now - static_cast<wdg::TimeNs>(gauge->Value()) < kTickStaleAfter) {
          ++live;
        }
      }
      ctx.Set(keys::ResOpenHandles(), open_handles);
      // The memtable's low-water mark, not its current size: flushes reclaim
      // between samples, and a sampled sawtooth reads as growth.
      ctx.Set(keys::ResRssBytes(), memtable_.TakeLowWater());
      ctx.Set(keys::ResQueueDepth(),
              static_cast<int64_t>(endpoint_->PendingCount()));
      if (disk_lat_ns >= 0) {
        ctx.Set(keys::ResDiskLatNs(), disk_lat_ns);
      }
      ctx.Set(keys::ResLiveThreads(), live);
      ctx.MarkReady(clock_.NowNs());
    });

    const wdg::Status sorted = partitions_.CheckRangesSorted();
    if (!sorted.ok()) {
      metrics_.GetCounter("kvs.partition.order_violations")->Increment();
    }
    // Rotate one partition validation per tick (the real program's own
    // periodic fsck, which the mimic checker shares fate with).
    const auto partitions = partitions_.Partitions();
    if (!partitions.empty()) {
      const size_t i = maintenance_cursor_.fetch_add(1) % partitions.size();
      hooks_.Site("PartitionMaintenance:2")->Fire([&](wdg::CheckContext& ctx) {
        ctx.Set(keys::Table(), partitions[i].path);
        ctx.MarkReady(clock_.NowNs());
      });
      const wdg::Status valid = partitions_.Validate(partitions[i]);
      if (!valid.ok()) {
        metrics_.GetCounter("kvs.partition.validate_failures")->Increment();
        WDG_LOG(kWarn) << "partition validation failed: " << valid;
      }
    }
  }
}

}  // namespace kvs
