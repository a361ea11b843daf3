#pragma once

/// \file sim_transport.hpp
/// Reliable asynchronous network over the discrete-event simulator.
///
/// Matches the paper's model: every message sent (between live nodes) is
/// eventually received, delays come from a pluggable DelayModel, and there is
/// no duplication or reordering guarantee beyond what the delays induce.
/// Fault injection (crashes, partitions, slow nodes, message loss — see
/// net/faults.hpp) is available for the availability experiments; the
/// paper's own runs use none.

#include <optional>
#include <vector>

#include "net/faults.hpp"
#include "net/transport.hpp"
#include "obs/flight_recorder.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"

namespace pqra::net {

class SimTransport final : public Transport {
 public:
  /// \p max_nodes bounds the NodeId space (receivers are stored in a flat
  /// vector for O(1) dispatch).  The transport forks its own RNG stream from
  /// \p rng for delay sampling.
  SimTransport(sim::Simulator& simulator, sim::DelayModel& delay_model,
               const util::Rng& rng, NodeId max_nodes);

  void send(NodeId from, NodeId to, Message msg) override;

  /// Batched quorum fan-out: all per-target RNG draws happen up front (in
  /// array order, identical to \p count send() calls), the deliveries are
  /// packed into EventArena blocks sorted by (time, seq), and only the
  /// earliest entry per block occupies the event queue at any moment —
  /// equal-time entries deliver inside one fire.  The executed (time, seq)
  /// schedule is byte-identical to the unbatched form.
  void send_fanout(NodeId from, const FanoutEntry* targets, std::size_t count,
                   Message proto) override;

  void register_receiver(NodeId node, Receiver* receiver) override;
  MessageStats stats() const override;

  /// Full fault state of this network (crash/partition/slow/message faults).
  /// Fault draws share the transport's RNG stream, but only happen for fault
  /// types that are enabled, so fault-free runs replay unchanged.
  FaultInjector& faults() { return faults_; }
  const FaultInjector& faults() const { return faults_; }

  // Convenience wrappers kept for existing call sites.
  void crash(NodeId node) { faults_.crash(node); }
  void recover(NodeId node) { faults_.recover(node); }
  bool is_crashed(NodeId node) const { return faults_.is_crashed(node); }

  /// Independently drops each message with probability \p p (default 0).
  void set_drop_probability(double p);

  /// Routes message/drop/byte counts into \p registry (obs/names.hpp names)
  /// in addition to the legacy MessageStats snapshot.  Counting does not
  /// schedule events, so binding cannot perturb DES determinism.
  void bind_metrics(obs::Registry& registry);

  /// Records every send/deliver/drop into \p recorder (not owned; may be
  /// null to unbind).  Recording is O(1) and allocation-free, and never
  /// schedules events, so binding cannot perturb DES determinism.
  void bind_flight_recorder(obs::FlightRecorder* recorder) {
    flight_recorder_ = recorder;
  }

 private:
  struct FanoutBlock;   // arena-resident batch (sim_transport.cpp)
  class FanoutCarrier;  // queued event owning one block (sim_transport.cpp)

  /// One scheduled delivery of a fan-out before it is packed into blocks.
  struct FanoutDelivery {
    sim::Time at;
    std::uint64_t seq;
    std::uint64_t span;
    NodeId to;
  };

  void deliver_after(sim::Time delay, NodeId from, NodeId to, Message msg);

  /// Delivers the current entry of \p block (and any equal-time successors),
  /// then schedules the next entry or retires the block.
  void fire_fanout(FanoutBlock* block);

  void record_flight(obs::FlightEventKind kind, NodeId from, NodeId to,
                     const Message& msg);

  sim::Simulator& simulator_;
  sim::DelayModel& delay_model_;
  util::Rng rng_;
  std::vector<Receiver*> receivers_;
  FaultInjector faults_;
  MessageStats stats_;
  std::optional<TransportMetrics> metrics_;
  obs::FlightRecorder* flight_recorder_ = nullptr;
  std::vector<FanoutDelivery> fanout_scratch_;  // send_fanout staging
};

}  // namespace pqra::net
