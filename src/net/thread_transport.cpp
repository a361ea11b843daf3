#include "net/thread_transport.hpp"

#include <algorithm>
#include <utility>

#include "util/check.hpp"

namespace pqra::net {

namespace {
using Clock = std::chrono::steady_clock;

Clock::time_point delay_to_ready(double seconds) {
  return Clock::now() +
         std::chrono::duration_cast<Clock::duration>(
             std::chrono::duration<double>(seconds));
}
}  // namespace

ThreadTransport::ThreadTransport(NodeId max_nodes, std::uint64_t fault_seed)
    : faults_(max_nodes), fault_rng_(fault_seed) {
  mailboxes_.reserve(max_nodes);
  for (NodeId i = 0; i < max_nodes; ++i) {
    mailboxes_.push_back(std::make_unique<Mailbox>());
  }
}

void ThreadTransport::enqueue(NodeId to, Timed entry) {
  Mailbox& box = *mailboxes_[to];
  {
    std::lock_guard lock(box.mutex);
    if (entry.ready == Clock::time_point{} || box.queue.empty() ||
        box.queue.back().ready <= entry.ready) {
      box.queue.push_back(std::move(entry));
    } else {
      // Delayed copy overtaken by nothing: keep the queue sorted by ready
      // time so recv() only ever has to look at the front.
      auto pos = std::upper_bound(
          box.queue.begin(), box.queue.end(), entry,
          [](const Timed& a, const Timed& b) { return a.ready < b.ready; });
      box.queue.insert(pos, std::move(entry));
    }
  }
  box.cv.notify_one();
}

void ThreadTransport::send(NodeId from, NodeId to, Message msg) {
  PQRA_REQUIRE(from < mailboxes_.size() && to < mailboxes_.size(),
               "node id out of range");
  FaultDecision fault;
  {
    std::lock_guard lock(stats_mutex_);
    if (closed_) {
      ++stats_.dropped;
      if (metrics_.has_value()) metrics_->on_drop();
      return;
    }
    fault = faults_.on_send(from, to, fault_rng_);
    if (fault.drop) {
      ++stats_.dropped;
      if (metrics_.has_value()) metrics_->on_drop();
      return;
    }
    ++stats_.total;
    ++stats_.by_type[static_cast<std::size_t>(msg.type)];
    if (metrics_.has_value()) metrics_->on_send(msg);
  }
  Clock::time_point ready = fault.extra_delay > 0.0
                                ? delay_to_ready(fault.extra_delay)
                                : Clock::time_point{};
  if (fault.duplicate) enqueue(to, Timed{Envelope{from, msg}, ready});
  enqueue(to, Timed{Envelope{from, std::move(msg)}, ready});
}

std::optional<Envelope> ThreadTransport::recv(NodeId node) {
  return recv_until(node, Clock::time_point::max());
}

std::optional<Envelope> ThreadTransport::recv_until(
    NodeId node, Clock::time_point deadline) {
  PQRA_REQUIRE(node < mailboxes_.size(), "node id out of range");
  Mailbox& box = *mailboxes_[node];
  std::unique_lock lock(box.mutex);
  for (;;) {
    if (closed()) {
      // Drain what is queued, ignoring injected delays, then report closed.
      if (box.queue.empty()) return std::nullopt;
      Envelope env = std::move(box.queue.front().env);
      box.queue.pop_front();
      return env;
    }
    Clock::time_point now = Clock::now();
    if (!box.queue.empty() && box.queue.front().ready <= now) {
      Envelope env = std::move(box.queue.front().env);
      box.queue.pop_front();
      return env;
    }
    if (now >= deadline) return std::nullopt;
    Clock::time_point until = deadline;
    if (!box.queue.empty()) until = std::min(until, box.queue.front().ready);
    if (until == Clock::time_point::max()) {
      box.cv.wait(lock);
    } else {
      box.cv.wait_until(lock, until);
    }
  }
}

std::optional<Envelope> ThreadTransport::try_recv(NodeId node) {
  PQRA_REQUIRE(node < mailboxes_.size(), "node id out of range");
  Mailbox& box = *mailboxes_[node];
  std::lock_guard lock(box.mutex);
  if (box.queue.empty()) return std::nullopt;
  if (!closed() && box.queue.front().ready > Clock::now()) return std::nullopt;
  Envelope env = std::move(box.queue.front().env);
  box.queue.pop_front();
  return env;
}

void ThreadTransport::close() {
  {
    std::lock_guard lock(stats_mutex_);
    closed_ = true;
  }
  for (auto& box : mailboxes_) {
    std::lock_guard lock(box->mutex);
    box->cv.notify_all();
  }
}

bool ThreadTransport::closed() const {
  std::lock_guard lock(stats_mutex_);
  return closed_;
}

MessageStats ThreadTransport::stats() const {
  std::lock_guard lock(stats_mutex_);
  return stats_;
}

void ThreadTransport::bind_metrics(obs::Registry& registry) {
  PQRA_REQUIRE(registry.mode() == obs::Concurrency::kThreadSafe,
               "ThreadTransport needs a thread-safe registry");
  std::lock_guard lock(stats_mutex_);
  metrics_.emplace(registry);
  faults_.bind_metrics(registry);
}

}  // namespace pqra::net
