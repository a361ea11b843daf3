#pragma once

/// \file quorum_register_client.hpp
/// Client side of the (monotone) probabilistic quorum register protocol
/// over the discrete-event simulator.
///
/// Protocol (§4, simplified single-writer / failure-free form of
/// Malkhi–Reiter's algorithm):
///   read(X):  pick a read quorum, send ReadReq to each member, wait for all
///             k acks, return the value with the largest timestamp.
///   write(X): bump the register's (writer-local) timestamp, pick a write
///             quorum, send WriteReq(ts, v) to each member, wait for all
///             k acks.
///
/// Monotone variant (§6.2): the client remembers the largest-timestamped
/// value any read of X has returned; when a read's quorum only yields older
/// timestamps, the remembered value is returned instead.
///
/// The two variants §4 cut away (§8) are single rules on the same paths:
///   multi-writer: write_tagged() is the atomic write-back's two-phase
///             shape — query a read quorum for the largest tag, then install
///             pack_tag(max(seen, own) + 1, self) at a write quorum;
///   Byzantine masking: with ClientOptions::fault_bound = b > 0 a read
///             returns the largest (ts, value) vouched for by b+1 distinct
///             responders instead of the running maximum.
///
/// The quorum system is pluggable, so instantiating this client with a
/// strict system (majority / grid / FPP) yields the regular-register
/// baseline used throughout §6.4.
///
/// Operations are asynchronous (continuation callbacks) because the client
/// is driven by simulator events.  Several operations on *different*
/// registers may be outstanding at once — Alg. 1 reads all m registers in
/// parallel — but per register the application must not pipeline operations
/// (condition (3) of §3's register interface).
///
/// Recovery (docs/FAULTS.md): ClientOptions::retry is a full RetryPolicy —
/// per-attempt timeout, exponential backoff with deterministic jitter, an
/// absolute operation deadline, and optional graceful degradation.  Each
/// retry samples a *fresh* quorum while acks keep accumulating under the
/// same operation id, which keeps the probabilistic register live when
/// servers crash (availability experiments); strict systems may block
/// forever in that regime, which is exactly the availability gap §4
/// describes.

#include <cstdint>
#include <functional>
#include <optional>
#include <unordered_map>
#include <vector>

#include "core/keyspace/flat_table.hpp"
#include "core/keyspace/hash_ring.hpp"
#include "core/quorum_access.hpp"
#include "core/register_types.hpp"
#include "core/spec/history.hpp"
#include "net/transport.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "quorum/quorum_system.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace pqra::core {

/// Multi-writer tag: totally ordered, unique per (counter, writer).
struct Tag {
  std::uint64_t counter = 0;
  std::uint32_t writer = 0;

  friend bool operator==(const Tag&, const Tag&) = default;
  friend auto operator<=>(const Tag&, const Tag&) = default;
};

/// Packs a tag into a wire timestamp (counter in the high bits) so replica
/// max-timestamp semantics implement lexicographic tag comparison.
/// Counters are limited to 48 bits and writer ids to 16 — plenty for any
/// simulated run (both checked).
Timestamp pack_tag(const Tag& tag);
Tag unpack_tag(Timestamp ts);

struct ReadResult {
  Timestamp ts = 0;
  Value value;
  bool from_monotone_cache = false;
  /// How the read completed; value/ts are meaningless for kTimedOut.
  OpStatus status = OpStatus::kOk;
  /// Distinct servers that answered the operation's final phase.
  std::size_t acks = 0;
  /// Degraded reads only: probability the partial access set missed the
  /// latest write's quorum, C(n - k_w, acks) / C(n, acks).
  double staleness_bound = 0.0;
  /// b-masking reads (ClientOptions::fault_bound > 0): false when no pair
  /// had b+1 vouchers, in which case ts/value are the initial (0, empty).
  /// Always true with fault_bound == 0.
  bool vouched = true;
};

struct WriteResult {
  Timestamp ts = 0;
  OpStatus status = OpStatus::kOk;
  std::size_t acks = 0;
  /// Degraded writes only: probability a later read quorum misses the
  /// partial set of servers that acked, C(n - acks, k_r) / C(n, k_r).
  double staleness_bound = 0.0;

  /// Implicit on purpose: legacy write callbacks take the bare timestamp.
  operator Timestamp() const { return ts; }  // NOLINT(google-explicit-*)
};

struct ClientOptions {
  /// Enables the §6.2 monotone cache.
  bool monotone = false;
  /// Recovery policy: retry.rpc_timeout re-sends to a freshly sampled quorum
  /// with backoff/jitter; retry.deadline bounds the whole operation (failing
  /// it or, with retry.degraded_ok, completing it on a partial access set).
  RetryPolicy retry;
  /// Read repair: after a read, asynchronously pushes the freshest
  /// (ts, value) seen to the responders that answered with older data.
  /// Fire-and-forget: does not delay the read.  Speeds up propagation.
  bool read_repair = false;
  /// Atomic mode (§8's "stronger registers" direction): before returning, a
  /// read writes the value it is about to return to a full write quorum.
  /// With a strict quorum system this yields a single-writer *atomic*
  /// register (no new/old inversion between readers); costs one extra
  /// round trip per read.
  bool write_back = false;
  /// Unified metrics pipeline (non-owning, may be nullptr): operation
  /// counters, sim-time latency histograms and the stale-read-depth
  /// histogram are reported under the obs/names.hpp client names,
  /// aggregated over every client sharing the registry.
  obs::Registry* metrics = nullptr;
  /// Causal span sink (non-owning, may be nullptr): sampled operations emit
  /// a span tree — client op → per-replica RPC attempt → retry wait — with
  /// the quorum membership and ε-intersection outcome annotated on the
  /// root.  Ids propagate in message headers so replicas can parent their
  /// handling spans; see obs/span.hpp and docs/OBSERVABILITY.md.
  obs::SpanSink* spans = nullptr;
  /// Sharded-store mode (docs/SHARDING.md, non-owning, may be nullptr):
  /// when set, the quorum system must be sized to one replica group
  /// (quorums.num_servers() == group size), and every access resolves its
  /// key's group through the ring — a drawn ServerId s becomes the group's
  /// s-th member instead of node s.  All ε-intersection and
  /// staleness math is unchanged: it already runs over n = group size.
  /// Snapshot reads (whole-store, single group) are not supported per key.
  const keyspace::HashRing* ring = nullptr;
  /// Byzantine masking (Malkhi–Reiter–Wright): up to b = fault_bound
  /// servers may lie, so a read returns the largest (ts, value) that b+1
  /// distinct responders vouch for (ReadResult::vouched).  0 keeps the
  /// plain running maximum.  Snapshot reads do not support masking.
  std::size_t fault_bound = 0;
};

/// Per-client operation tallies.  This is the per-process attribution view
/// (what each Alg. 1 process did); the cross-layer pipeline is the
/// obs::Registry passed through ClientOptions::metrics, which aggregates the
/// same events over all clients.  Kept as a plain struct so reading it costs
/// nothing and per-process deltas stay trivial.
struct ClientCounters {
  std::uint64_t reads_completed = 0;
  std::uint64_t writes_completed = 0;
  std::uint64_t monotone_cache_hits = 0;
  std::uint64_t retries = 0;
  std::uint64_t repairs_sent = 0;     ///< stale replicas repaired after reads
  std::uint64_t write_backs = 0;      ///< atomic-mode write-back phases
  std::uint64_t degraded_reads = 0;   ///< reads completed on a partial set
  std::uint64_t degraded_writes = 0;  ///< writes completed on a partial set
  std::uint64_t op_failures = 0;      ///< operations that timed out outright
};

class QuorumRegisterClient final : public net::Receiver {
 public:
  // Per-op completion callbacks: one type-erasure per client operation,
  // amortized over the k-message quorum fan-out; the schedule->fire loop
  // itself carries sim::EventFn, never these.
  // pqra-lint: allow(hotpath-function) — per-op completion callback
  using ReadCallback = std::function<void(ReadResult)>;
  /// WriteResult converts to Timestamp, so `[](Timestamp ts)` lambdas work.
  // pqra-lint: allow(hotpath-function) — per-op completion callback
  using WriteCallback = std::function<void(WriteResult)>;

  /// Servers occupy NodeIds [0, n) in the order of the quorum system's
  /// ServerIds.
  /// \p history: optional recorder for spec checking (may be nullptr).
  QuorumRegisterClient(sim::Simulator& simulator, net::Transport& transport,
                       NodeId self, const quorum::QuorumSystem& quorums,
                       const util::Rng& rng, ClientOptions options = {},
                       spec::HistoryRecorder* history = nullptr);

  /// Starts a read of \p reg; \p cb fires when the quorum has answered.
  void read(RegisterId reg, ReadCallback cb);

  // pqra-lint: allow(hotpath-function) — per-op completion callback
  using SnapshotCallback = std::function<void(std::vector<ReadResult>)>;

  /// Snapshot read: fetches ALL of \p regs through a single quorum access
  /// (k whole-store messages instead of |regs| * k per-register exchanges —
  /// §6.4's read cost per round drops from 2pmk to 2pk).  Results arrive in
  /// the order of \p regs.  The trade-off is correlated staleness: one
  /// unlucky quorum is stale for every component at once.  Monotone caching
  /// applies per register; read repair and write-back do not apply to
  /// snapshots.
  void read_snapshot(std::vector<RegisterId> regs, SnapshotCallback cb);

  /// Starts a write of \p reg; \p cb fires when the quorum has acked.
  /// This client must be the register's only writer (registers with
  /// several writers use write_tagged).
  void write(RegisterId reg, Value value, WriteCallback cb);

  /// Multi-writer write (§8): queries a read quorum for the largest tag,
  /// then installs \p value under pack_tag(max(seen, own) + 1, id()) at a
  /// write quorum; WriteResult::ts is that packed tag.  Over probabilistic
  /// quorums the query may miss recent tags, so two writers can share a
  /// counter — the writer id keeps tags unique, what is lost is write
  /// order.  A write still querying at the deadline fails outright.  Not
  /// recordable in a HistoryRecorder (the spec checkers are single-writer).
  void write_tagged(RegisterId reg, Value value, WriteCallback cb);

  void on_message(NodeId from, net::Message msg) override;

  const ClientCounters& counters() const { return counters_; }

  /// Simulated-time latency distributions (invocation to response).
  const util::OnlineStats& read_latency() const { return read_latency_; }
  const util::OnlineStats& write_latency() const { return write_latency_; }

  NodeId id() const { return self_; }

  /// Distinct registers this client has issued an operation on.
  std::size_t keys_touched() const { return keys_.size(); }

 private:
  /// What the op's current quorum access does: a read or its atomic-mode
  /// write-back, a multi-writer write's tag query or an install.
  enum class Phase : std::uint8_t { kRead, kWriteBack, kTagQuery, kWrite };

  struct PendingOp {
    Phase phase = Phase::kRead;
    bool is_snapshot = false;           ///< whole-store read
    bool from_cache = false;            ///< result came from the §6.2 cache
    RegisterId reg = 0;
    /// Responders, dedup and the best answer of the current phase.
    QuorumAccess access;
    /// Timestamp each read responder reported (parallel to
    /// access.responders; kept only when read repair or span tracing is on).
    std::vector<Timestamp> responder_ts;
    /// Span state (obs/span.hpp).  root_span == 0 ⇔ this op is untraced
    /// (no sink, or not sampled); all other span work is gated on it.
    obs::SpanId root_span = 0;
    /// Open/closed RPC-attempt spans, parallel vectors: rpc_spans[i] is the
    /// span for the request sent to rpc_servers[i].  Closed on the first
    /// ack from that server; leftovers close as kUnanswered when the op
    /// settles or changes phase.
    std::vector<NodeId> rpc_servers;
    std::vector<obs::SpanId> rpc_spans;
    /// Responders that reported the quorum's best timestamp (the
    /// ε-intersection outcome), fixed in complete_read.
    std::vector<NodeId> fresh;
    /// Snapshot state: requested registers, per-register best, callback and
    /// history handles (one recorded read per register).
    std::vector<RegisterId> snap_regs;
    std::unordered_map<RegisterId, TimestampedValue> snap_best;
    SnapshotCallback snap_cb;
    std::vector<spec::HistoryRecorder::OpHandle> snap_hists;
    ReadCallback read_cb;
    WriteCallback write_cb;
    Timestamp write_ts = 0;             ///< for writes and retries
    Value write_value;
    std::uint32_t attempt = 0;
    sim::Time started = 0.0;
    /// Absolute completion budget (started + retry.deadline), when armed.
    bool has_deadline = false;
    sim::Time deadline_at = 0.0;
    /// Settled by the deadline handler; kOk on the normal path.
    OpStatus status = OpStatus::kOk;
    double staleness_bound = 0.0;
    /// Staleness depth t of the completed read: how many writes the quorum's
    /// freshest answer lagged behind the newest timestamp this client had
    /// evidence of (0 = fresh).  Fixed in complete_read.
    Timestamp stale_depth = 0;
    spec::HistoryRecorder::OpHandle hist = 0;
    bool has_hist = false;

    bool is_read() const {
      return phase == Phase::kRead || phase == Phase::kWriteBack;
    }
    bool sends_reads() const {
      return phase == Phase::kRead || phase == Phase::kTagQuery;
    }

    /// Returns the op to its default-constructed state while keeping the
    /// capacity of every container — the whole point of recycling settled
    /// ops through pending_pool_ instead of freeing them.
    void reset() {
      phase = Phase::kRead;
      is_snapshot = false;
      from_cache = false;
      reg = 0;
      access.reset();
      responder_ts.clear();
      root_span = 0;
      rpc_servers.clear();
      rpc_spans.clear();
      fresh.clear();
      snap_regs.clear();
      snap_best.clear();
      snap_cb = nullptr;
      snap_hists.clear();
      read_cb = nullptr;
      write_cb = nullptr;
      write_ts = 0;
      write_value = Value();
      attempt = 0;
      started = 0.0;
      has_deadline = false;
      deadline_at = 0.0;
      status = OpStatus::kOk;
      staleness_bound = 0.0;
      stale_depth = 0;
      hist = 0;
      has_hist = false;
    }
  };

  /// Shared-registry instrument pointers (null when metrics are off).
  struct Instruments {
    obs::Counter* reads = nullptr;
    obs::Counter* writes = nullptr;
    obs::Counter* cache_hits = nullptr;
    obs::Counter* retries = nullptr;
    obs::Counter* repairs = nullptr;
    obs::Counter* write_backs = nullptr;
    obs::Counter* degraded_reads = nullptr;
    obs::Counter* degraded_writes = nullptr;
    obs::Counter* op_failures = nullptr;
    obs::Histogram* read_latency = nullptr;
    obs::Histogram* write_latency = nullptr;
    obs::Histogram* stale_depth = nullptr;
  };

  /// Opens the root kClientOp span when a sink is bound and (self, op) is
  /// sampled; no-op otherwise.
  void begin_op_span(OpId op, PendingOp& pending, bool is_write,
                     RegisterId reg);
  /// Closes the first still-open RPC span to \p from with the acked ts.
  void close_rpc_span(PendingOp& pending, NodeId from, Timestamp ts);
  /// Closes every still-open RPC span as kUnanswered (op settled or moved
  /// to its write-back phase).
  void close_open_rpc_spans(PendingOp& pending);
  /// Annotates and closes the root span (quorum, fresh set, ts, staleness).
  void close_op_span(PendingOp& pending, obs::SpanStatus status, Timestamp ts,
                     bool from_cache);

  /// Registers a fresh PendingOp under \p op, reusing a recycled map node
  /// (and its grown container capacities) when one is parked in
  /// pending_pool_ — the steady-state issue path then allocates nothing.
  /// Sets the op's phase, register, quorum size and start time.
  PendingOp& emplace_pending(OpId op, Phase phase, RegisterId reg);

  /// Opens the op's span, arms its deadline and sends its first phase.
  void start_op(OpId op, PendingOp& pending);

  /// Removes the settled op and parks its node for reuse.  References into
  /// the PendingOp stay valid exactly as long as they did with a plain
  /// erase: until the next operation is issued.
  void erase_pending(OpId op);

  void send_to_quorum(OpId op, PendingOp& pending);
  void arm_retry(OpId op, std::uint32_t attempt);
  void arm_deadline(OpId op);
  void finish_deadline(OpId op, PendingOp& pending);
  void fail_op(OpId op, PendingOp& pending);
  void complete_read(OpId op, PendingOp& pending);
  void complete_write(OpId op, PendingOp& pending);
  void send_read_repair(const PendingOp& pending, Timestamp ts,
                        const Value& value);
  /// Moves the op to its second phase (kWriteBack or kWrite) on a fresh
  /// write quorum.
  void start_second_phase(OpId op, PendingOp& pending, Phase phase);
  void deliver_read(OpId op, PendingOp& pending);
  void complete_snapshot(OpId op, PendingOp& pending);

  sim::Simulator& simulator_;
  net::Transport& transport_;
  NodeId self_;
  const quorum::QuorumSystem& quorums_;
  util::Rng rng_;
  /// Dedicated stream for retry jitter: backoff draws never perturb the
  /// quorum-sampling stream, so fault-free replays stay byte-identical.
  util::Rng retry_rng_;
  ClientOptions options_;
  spec::HistoryRecorder* history_;

  OpId next_op_ = 1;
  /// Scratch for per-access quorum draws (send_to_quorum): pick() fills it
  /// in place, reusing capacity across every operation and retry.
  std::vector<quorum::ServerId> quorum_scratch_;
  /// Scratch for the key's replica group in ring mode (same reuse contract),
  /// resolved through the ring on every access: one (client, key) pair
  /// rarely repeats, so a memo of groups would mostly miss.
  std::vector<NodeId> group_scratch_;
  /// Scratch for the fan-out target list handed to Transport::send_fanout.
  std::vector<net::FanoutEntry> fanout_scratch_;
  std::unordered_map<OpId, PendingOp> pending_;
  /// Settled-op map nodes awaiting reuse (see emplace_pending).
  std::vector<std::unordered_map<OpId, PendingOp>::node_type> pending_pool_;
  /// One record per register, created when an operation on it is issued
  /// and probed once more when it completes.  A FlatTable, not an
  /// unordered_map: it is never iterated, and its probe sequence is
  /// allocation-free after the amortized growth.
  keyspace::FlatTable<KeyState> keys_;
  ClientCounters counters_;
  Instruments instruments_;
  util::OnlineStats read_latency_;
  util::OnlineStats write_latency_;
};

}  // namespace pqra::core
