#include "net/sim_transport.hpp"

#include <algorithm>
#include <new>
#include <utility>

#include "util/check.hpp"

namespace pqra::net {

/// One batched fan-out, resident in a single EventArena block: the shared
/// prototype message plus up to kMaxEntries (time, seq, span, target)
/// deliveries sorted by (time, seq).  Only the entry at `next` is in the
/// event queue; firing it delivers the message (and any equal-time
/// successors — their seqs are consecutive with no outside event between
/// them, so inline delivery preserves the global (time, seq) order) and
/// schedules the following entry.  Fan-outs wider than kMaxEntries split
/// into independent blocks, which is still correct: every entry fires at
/// its own reserved (time, seq).
struct SimTransport::FanoutBlock {
  using Entry = FanoutDelivery;

  NodeId from = 0;
  std::uint16_t count = 0;
  std::uint16_t next = 0;
  Message proto;

  static constexpr std::size_t kHeaderBytes =
      sizeof(NodeId) + 2 * sizeof(std::uint16_t) + sizeof(Message);
  static constexpr std::size_t kMaxEntries =
      (sim::EventArena::kBlockBytes - kHeaderBytes) / sizeof(Entry);

  Entry entries[kMaxEntries];

  static_assert(sim::EventArena::kBlockBytes >=
                    kHeaderBytes + 4 * sizeof(Entry),
                "a block should hold a typical quorum fan-out (k <= 4)");

  /// Destroys \p block and returns its storage to \p arena.
  static void retire(FanoutBlock* block, sim::EventArena& arena) {
    block->~FanoutBlock();
    arena.deallocate(block, sizeof(FanoutBlock));
  }
};

/// The queued event of a fan-out block, and the block's owner while it
/// waits: firing hands the block to fire_fanout(), and a carrier destroyed
/// unfired (a run that stopped with deliveries still queued) retires it.
/// That discard path touches only the block and the arena, because the
/// transport may be gone by then: run_alg1 and the benchmark's store system
/// destroy the SimTransport before the Simulator, whose arena outlives its
/// queue.
class SimTransport::FanoutCarrier {
 public:
  FanoutCarrier(SimTransport* transport, FanoutBlock* block)
      : transport_(transport),
        block_(block),
        arena_(&transport->simulator_.arena()) {}

  FanoutCarrier(FanoutCarrier&& other) noexcept
      : transport_(other.transport_),
        block_(std::exchange(other.block_, nullptr)),
        arena_(other.arena_) {}
  FanoutCarrier(const FanoutCarrier&) = delete;
  FanoutCarrier& operator=(const FanoutCarrier&) = delete;
  FanoutCarrier& operator=(FanoutCarrier&&) = delete;

  ~FanoutCarrier() {
    if (block_ != nullptr) FanoutBlock::retire(block_, *arena_);
  }

  void operator()() { transport_->fire_fanout(std::exchange(block_, nullptr)); }

 private:
  SimTransport* transport_;
  FanoutBlock* block_;
  sim::EventArena* arena_;
};

SimTransport::SimTransport(sim::Simulator& simulator,
                           sim::DelayModel& delay_model, const util::Rng& rng,
                           NodeId max_nodes)
    : simulator_(simulator),
      delay_model_(delay_model),
      rng_(rng.fork(0x7261705f74726e73ULL)),
      receivers_(max_nodes, nullptr),
      faults_(max_nodes) {}

void SimTransport::register_receiver(NodeId node, Receiver* receiver) {
  PQRA_REQUIRE(node < receivers_.size(), "node id out of range");
  PQRA_REQUIRE(receiver != nullptr, "receiver must not be null");
  PQRA_REQUIRE(receivers_[node] == nullptr, "node already registered");
  receivers_[node] = receiver;
}

void SimTransport::record_flight(obs::FlightEventKind kind, NodeId from,
                                 NodeId to, const Message& msg) {
  obs::FlightRecord rec;
  rec.time = simulator_.now();
  rec.event = kind;
  rec.msg_type = static_cast<std::uint8_t>(msg.type);
  rec.from = from;
  rec.to = to;
  rec.reg = msg.reg;
  rec.op = msg.op;
  rec.ts = msg.ts;
  rec.trace = msg.trace;
  rec.span = msg.span;
  flight_recorder_->record(rec);
}

void SimTransport::deliver_after(sim::Time delay, NodeId from, NodeId to,
                                 Message msg) {
  auto deliver = [this, from, to, m = std::move(msg)]() mutable {
    // Re-check the destination: it may have crashed in flight.
    if (faults_.is_crashed(to)) {
      ++stats_.dropped;
      if (metrics_.has_value()) metrics_->on_drop();
      if (flight_recorder_ != nullptr) {
        record_flight(obs::FlightEventKind::kDrop, from, to, m);
      }
      return;
    }
    if (flight_recorder_ != nullptr) {
      record_flight(obs::FlightEventKind::kDeliver, from, to, m);
    }
    receivers_[to]->on_message(from, std::move(m));
  };
  // Every point-to-point message and server reply takes this path; an arena
  // block per delivery would cost a free-list round trip each.
  static_assert(sim::EventFn::fits_inline<decltype(deliver)>(),
                "the delivery closure must fit EventFn's inline storage");
  simulator_.schedule_in(delay, sim::EventTag::kMsgDeliver,
                         std::move(deliver));
}

void SimTransport::send(NodeId from, NodeId to, Message msg) {
  PQRA_REQUIRE(from < receivers_.size() && to < receivers_.size(),
               "node id out of range");
  PQRA_REQUIRE(receivers_[to] != nullptr, "destination not registered");
  ++stats_.total;
  ++stats_.by_type[static_cast<std::size_t>(msg.type)];
  if (metrics_.has_value()) metrics_->on_send(msg);
  if (flight_recorder_ != nullptr) {
    record_flight(obs::FlightEventKind::kSend, from, to, msg);
  }
  FaultDecision fault = faults_.on_send(from, to, rng_);
  if (fault.drop) {
    ++stats_.dropped;
    if (metrics_.has_value()) metrics_->on_drop();
    if (flight_recorder_ != nullptr) {
      record_flight(obs::FlightEventKind::kDrop, from, to, msg);
    }
    return;
  }
  sim::Time delay =
      delay_model_.sample(rng_) * fault.delay_factor + fault.extra_delay;
  if (fault.duplicate) {
    // The copy gets its own independently sampled delay, so the two copies
    // may arrive in either order.
    sim::Time copy_delay =
        delay_model_.sample(rng_) * fault.delay_factor + fault.extra_delay;
    deliver_after(copy_delay, from, to, msg);
  }
  deliver_after(delay, from, to, std::move(msg));
}

void SimTransport::send_fanout(NodeId from, const FanoutEntry* targets,
                               std::size_t count, Message proto) {
  PQRA_REQUIRE(from < receivers_.size(), "node id out of range");
  // Phase 1 — per-target accounting and RNG draws, in array order: the draw
  // sequence (fault decision, delay, duplicate delay) is exactly what
  // `count` send() calls would consume, so batching never shifts the RNG
  // stream.  Dropped sends schedule nothing, duplicated sends schedule the
  // copy before the original — both matching send().
  const sim::Time now = simulator_.now();
  fanout_scratch_.clear();
  for (std::size_t i = 0; i < count; ++i) {
    const NodeId to = targets[i].to;
    PQRA_REQUIRE(to < receivers_.size(), "node id out of range");
    PQRA_REQUIRE(receivers_[to] != nullptr, "destination not registered");
    ++stats_.total;
    ++stats_.by_type[static_cast<std::size_t>(proto.type)];
    if (metrics_.has_value()) metrics_->on_send(proto);
    if (flight_recorder_ != nullptr) {
      proto.span = targets[i].span;
      record_flight(obs::FlightEventKind::kSend, from, to, proto);
    }
    FaultDecision fault = faults_.on_send(from, to, rng_);
    if (fault.drop) {
      ++stats_.dropped;
      if (metrics_.has_value()) metrics_->on_drop();
      if (flight_recorder_ != nullptr) {
        proto.span = targets[i].span;
        record_flight(obs::FlightEventKind::kDrop, from, to, proto);
      }
      continue;
    }
    sim::Time delay =
        delay_model_.sample(rng_) * fault.delay_factor + fault.extra_delay;
    if (fault.duplicate) {
      sim::Time copy_delay =
          delay_model_.sample(rng_) * fault.delay_factor + fault.extra_delay;
      fanout_scratch_.push_back(
          FanoutDelivery{now + copy_delay, 0, targets[i].span, to});
    }
    fanout_scratch_.push_back(
        FanoutDelivery{now + delay, 0, targets[i].span, to});
  }
  if (fanout_scratch_.empty()) return;

  // Phase 2 — reserve one seq per delivery in creation order (the order the
  // unbatched form would have pushed them), then sort by (time, seq) so each
  // block walks its entries in firing order.
  const std::uint64_t base =
      simulator_.reserve_seqs(fanout_scratch_.size());
  for (std::size_t i = 0; i < fanout_scratch_.size(); ++i) {
    fanout_scratch_[i].seq = base + i;
  }
  std::sort(fanout_scratch_.begin(), fanout_scratch_.end(),
            [](const FanoutDelivery& a, const FanoutDelivery& b) {
              if (a.at != b.at) return a.at < b.at;
              return a.seq < b.seq;
            });

  // Phase 3 — pack into arena blocks; only each block's earliest entry
  // enters the event queue.
  static_assert(sizeof(FanoutBlock) <= sim::EventArena::kBlockBytes,
                "a fan-out block must fit one arena block");
  sim::EventArena& arena = simulator_.arena();
  std::size_t idx = 0;
  while (idx < fanout_scratch_.size()) {
    const std::size_t n =
        std::min(FanoutBlock::kMaxEntries, fanout_scratch_.size() - idx);
    void* p = arena.allocate(sizeof(FanoutBlock));
    auto* block = ::new (p) FanoutBlock;
    block->from = from;
    block->count = static_cast<std::uint16_t>(n);
    const bool last_block = idx + n == fanout_scratch_.size();
    block->proto = last_block ? std::move(proto) : proto;
    for (std::size_t j = 0; j < n; ++j) {
      block->entries[j] = fanout_scratch_[idx + j];
    }
    simulator_.schedule_batch(block->entries[0].at, block->entries[0].seq,
                              sim::EventTag::kMsgDeliver,
                              FanoutCarrier(this, block));
    idx += n;
  }
}

void SimTransport::fire_fanout(FanoutBlock* block) {
  const sim::Time now = simulator_.now();
  for (;;) {
    const FanoutDelivery& e = block->entries[block->next];
    ++block->next;
    const bool last = block->next == block->count;
    block->proto.span = e.span;
    // Same fire-time semantics as the unbatched delivery closure: re-check
    // the destination (it may have crashed in flight), then record and
    // deliver.
    if (faults_.is_crashed(e.to)) {
      ++stats_.dropped;
      if (metrics_.has_value()) metrics_->on_drop();
      if (flight_recorder_ != nullptr) {
        record_flight(obs::FlightEventKind::kDrop, block->from, e.to,
                      block->proto);
      }
    } else {
      if (flight_recorder_ != nullptr) {
        record_flight(obs::FlightEventKind::kDeliver, block->from, e.to,
                      block->proto);
      }
      const NodeId from = block->from;
      Receiver* receiver = receivers_[e.to];
      if (last) {
        // The receiver may send again and recycle this arena block, so the
        // block is retired before on_message runs.
        Message msg = std::move(block->proto);
        FanoutBlock::retire(block, simulator_.arena());
        receiver->on_message(from, std::move(msg));
        return;
      }
      receiver->on_message(from, block->proto);
    }
    if (last) {
      FanoutBlock::retire(block, simulator_.arena());
      return;
    }
    const FanoutDelivery& nx = block->entries[block->next];
    if (nx.at == now) {
      // Equal-time run: the next entry's seq has no outside event between
      // it and the one just delivered (batch seqs are consecutive at equal
      // times), so it fires inside this event — one queue op total.
      simulator_.note_subevent(nx.at, nx.seq, sim::EventTag::kMsgDeliver);
      continue;
    }
    simulator_.schedule_batch(nx.at, nx.seq, sim::EventTag::kMsgDeliver,
                              FanoutCarrier(this, block));
    return;
  }
}

MessageStats SimTransport::stats() const { return stats_; }

void SimTransport::bind_metrics(obs::Registry& registry) {
  metrics_.emplace(registry);
}

}  // namespace pqra::net
