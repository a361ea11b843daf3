#pragma once

/// \file server_process.hpp
/// Server wrapper around a Replica: receives protocol requests from the
/// transport and answers immediately (service time is folded into the link
/// delays, as in the paper's model).  Both runtimes run it: the DES binds it
/// to a SimTransport, and the threaded runtime's ThreadedServer hands it
/// each envelope from its mailbox.
///
/// Optionally runs anti-entropy gossip (an extension; the paper's servers
/// never talk to each other): every `interval` time units the server pushes
/// its whole store to one uniformly random peer, which merges it
/// timestamp-wise.  Gossip changes the staleness economics for tiny quorums
/// — measured in bench/register_modes.

#include <optional>

#include "core/replica.hpp"
#include "net/transport.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"

namespace pqra::core {

/// Anti-entropy configuration; disabled by default.
struct GossipOptions {
  /// 0 disables gossip.  Otherwise one push per interval (plus jitter drawn
  /// in [0, interval) for the first tick so servers do not fire in phase).
  sim::Time interval = 0.0;
  /// The replica group occupies NodeIds [0, group_size).
  std::size_t group_size = 0;
};

class ServerProcess final : public net::Receiver {
 public:
  /// \p metrics: optional unified metrics registry (non-owning).
  ServerProcess(net::Transport& transport, NodeId self,
                obs::Registry* metrics = nullptr);

  /// Gossiping server; \p simulator drives the periodic pushes.
  ServerProcess(net::Transport& transport, NodeId self,
                sim::Simulator& simulator, const GossipOptions& gossip,
                const util::Rng& rng, obs::Registry* metrics = nullptr);

  void on_message(NodeId from, net::Message msg) override;

  /// Emits a zero-duration kServerHandle span, parented to the request's
  /// RPC span, for every traced request this server answers.  \p simulator
  /// supplies timestamps (the plain constructor does not know one); the
  /// sink must be the same one the clients write to, or parent links
  /// cannot resolve.  Request trace/span headers are echoed on replies
  /// whether or not a sink is bound.
  void bind_spans(obs::SpanSink* spans, sim::Simulator& simulator) {
    spans_ = spans;
    span_sim_ = &simulator;
  }

  Replica& replica() { return replica_; }
  const Replica& replica() const { return replica_; }
  NodeId id() const { return self_; }
  std::uint64_t gossip_merges() const { return gossip_merges_; }

 private:
  /// Registry-backed replica-server instruments (obs/names.hpp server
  /// names), aggregated over all servers bound to the same registry.
  struct ServerMetrics {
    explicit ServerMetrics(obs::Registry& registry);

    obs::Counter* requests;     ///< protocol requests served (read+write)
    obs::Counter* ts_advances;  ///< writes that advanced a register timestamp
    obs::Counter* gossip_merges;
    obs::Counter* keys_created;  ///< first store entry per key (write/gossip)
  };

  void schedule_gossip(sim::Time delay);
  void gossip_tick();
  void record_handle_span(const net::Message& request, Timestamp reply_ts);

  net::Transport& transport_;
  NodeId self_;
  Replica replica_;
  sim::Simulator* simulator_ = nullptr;
  GossipOptions gossip_;
  util::Rng rng_;
  std::uint64_t gossip_merges_ = 0;
  std::optional<ServerMetrics> metrics_;
  obs::SpanSink* spans_ = nullptr;
  sim::Simulator* span_sim_ = nullptr;
};

}  // namespace pqra::core
