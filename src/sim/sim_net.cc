#include "src/sim/sim_net.h"

#include <algorithm>

#include "src/common/strings.h"

namespace wdg {

Status Endpoint::Send(const NodeId& dst, std::string type, std::string payload, uint64_t corr_id,
                      bool is_reply) {
  Message msg;
  msg.src = id_;
  msg.dst = dst;
  msg.type = std::move(type);
  msg.payload = std::move(payload);
  msg.corr_id = corr_id;
  msg.is_reply = is_reply;
  return net_.Route(std::move(msg));
}

std::optional<Message> Endpoint::Recv(DurationNs timeout) {
  // Surface injected receive-side faults (e.g. a hung poll loop).
  const Status gate = net_.injector().Act(StrFormat("net.recv.%s", id_.c_str()));
  if (!gate.ok()) {
    return std::nullopt;
  }
  return PopMatching([](const Message& m) { return !m.is_reply; }, timeout);
}

Result<std::string> Endpoint::Call(const NodeId& dst, std::string type, std::string payload,
                                   DurationNs timeout) {
  const uint64_t corr = net_.NextCorrId();
  WDG_RETURN_IF_ERROR(Send(dst, std::move(type), std::move(payload), corr, /*is_reply=*/false));
  std::optional<Message> reply =
      PopMatching([corr](const Message& m) { return m.is_reply && m.corr_id == corr; }, timeout);
  if (!reply.has_value()) {
    return TimeoutError(StrFormat("call to %s timed out", dst.c_str()));
  }
  return std::move(reply->payload);
}

Status Endpoint::Reply(const Message& request, std::string payload) {
  return Send(request.src, request.type + ".reply", std::move(payload), request.corr_id,
              /*is_reply=*/true);
}

size_t Endpoint::PendingCount() const {
  std::lock_guard<std::mutex> lock(mu_);
  return inbox_.size();
}

void Endpoint::Deliver(Message msg, TimeNs deliver_at) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    inbox_.emplace(deliver_at, std::move(msg));
  }
  cv_.notify_all();
}

std::optional<Message> Endpoint::PopMatching(const std::function<bool(const Message&)>& pred,
                                             DurationNs timeout) {
  Clock& clock = net_.clock();
  const TimeNs deadline = clock.NowNs() + timeout;
  std::unique_lock<std::mutex> lock(mu_);
  while (true) {
    const TimeNs now = clock.NowNs();
    // Scan deliverable messages for a match; `next` stops at the first
    // message still in flight (the inbox is ordered by deliver_at).
    auto next = inbox_.begin();
    for (; next != inbox_.end() && next->first <= now; ++next) {
      if (pred(next->second)) {
        Message msg = std::move(next->second);
        inbox_.erase(next);
        return msg;
      }
    }
    if (now >= deadline) {
      return std::nullopt;
    }
    if (next != inbox_.end() && next->first < deadline &&
        next->first - now < kPreciseWaitBelow) {
      // Due within the timer slack, where a cv wait would oversleep the
      // modelled latency several times over: wait precisely, off the lock so
      // senders can still deliver.
      const DurationNs remaining = next->first - now;
      lock.unlock();
      clock.SleepFor(remaining);
      lock.lock();
      continue;
    }
    // Wake at the earlier of: next message becoming deliverable, our deadline,
    // or a new delivery (cv notification). A short cap keeps SimClock users live.
    TimeNs wake = deadline;
    if (next != inbox_.end()) {
      wake = std::min(wake, next->first);
    }
    cv_.wait_for(lock, std::chrono::nanoseconds(std::min<DurationNs>(wake - now, Ms(5))));
  }
}

SimNet::SimNet(Clock& clock, FaultInjector& injector, NetOptions options, uint64_t seed)
    : clock_(clock), injector_(injector), options_(options),
      drop_probability_(options.drop_probability), rng_(seed) {}

Endpoint* SimNet::CreateEndpoint(const NodeId& id) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = endpoints_[id];
  if (!slot) {
    slot = std::make_unique<Endpoint>(*this, id);
  }
  return slot.get();
}

Endpoint* SimNet::GetEndpoint(const NodeId& id) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = endpoints_.find(id);
  return it == endpoints_.end() ? nullptr : it->second.get();
}

void SimNet::Partition(const NodeId& a, const NodeId& b) {
  std::lock_guard<std::mutex> lock(mu_);
  partitions_.insert(std::minmax(a, b));
}

void SimNet::Heal(const NodeId& a, const NodeId& b) {
  std::lock_guard<std::mutex> lock(mu_);
  partitions_.erase(std::minmax(a, b));
}

void SimNet::HealAll() {
  std::lock_guard<std::mutex> lock(mu_);
  partitions_.clear();
}

bool SimNet::IsPartitioned(const NodeId& a, const NodeId& b) const {
  std::lock_guard<std::mutex> lock(mu_);
  return partitions_.count(std::minmax(a, b)) > 0;
}

void SimNet::set_drop_probability(double p) {
  std::lock_guard<std::mutex> lock(mu_);
  drop_probability_ = p;
}

Status SimNet::Route(Message msg) {
  sent_->Increment();

  // Injected faults on the send path. Corruption mangles the payload in
  // flight; hang blocks the *sender* — exactly the ZK-2201 shape.
  bool dropped = false;
  WDG_RETURN_IF_ERROR(
      injector_.Act(StrFormat("net.send.%s", msg.dst.c_str()), &msg.payload, &dropped));
  if (dropped) {
    dropped_->Increment();
    return Status::Ok();
  }

  Endpoint* dst = nullptr;
  DurationNs latency = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (partitions_.count(std::minmax(msg.src, msg.dst)) > 0) {
      partitioned_->Increment();
      return Status::Ok();  // packets into a partition vanish silently
    }
    if (drop_probability_ > 0 && rng_.Bernoulli(drop_probability_)) {
      dropped_->Increment();
      return Status::Ok();
    }
    const auto it = endpoints_.find(msg.dst);
    if (it == endpoints_.end()) {
      return UnavailableError(StrFormat("no such node %s", msg.dst.c_str()));
    }
    dst = it->second.get();
    latency = options_.base_latency +
              options_.per_kb_latency *
                  static_cast<DurationNs>(msg.payload.size() / 1024 + 1);
  }
  dst->Deliver(std::move(msg), clock_.NowNs() + latency);
  return Status::Ok();
}

}  // namespace wdg
