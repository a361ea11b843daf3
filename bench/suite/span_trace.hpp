#pragma once

/// \file span_trace.hpp
/// Outside-in span tracing for the benchmark suite (bench/suite/README.md).
///
/// The program under test is not instrumented: each decorator here wraps
/// one public virtual interface of a layer and records a span around every
/// call through it.  Spans nest strictly (the DES is single-threaded and
/// every decorated call returns before its caller continues), so a span's
/// parent is whichever span was open when it started, and a layer's self
/// time is its spans' durations minus the parts their children cover.
///
/// The decorators sit on the DES hot path (pqra_lint reaches them from
/// Simulator::run through name-level virtual dispatch), so nothing on their
/// per-call path allocates: SpanBuffer is sized once per run and a full
/// buffer counts overflow instead of growing.  Decorating never changes the
/// schedule — each call is forwarded unchanged — and pqra_bench asserts it
/// by comparing the traced schedule digest with the untraced one.

#include <array>
#include <chrono>
#include <cstdint>
#include <ostream>
#include <utility>
#include <vector>

#include "core/replica.hpp"
#include "iter/aco.hpp"
#include "net/transport.hpp"
#include "quorum/quorum_system.hpp"
#include "storage/backend.hpp"
#include "storage/durable_store.hpp"

namespace pqra::bench {

/// The span vocabulary: one entry per decorated boundary plus the three
/// phases of a replication.  Names are the per-layer metric stems.
enum class Layer : std::uint8_t {
  kSetup,
  kSimulate,
  kCheck,
  kClientIssue,
  kClientRecv,
  kServerRecv,
  kSend,
  kPick,
  kStorageApply,
  kStorageBackend,
  kStorageRecover,
  kAppsApply,
};
inline constexpr std::size_t kNumLayers = 12;

inline const char* layer_name(Layer layer) {
  static constexpr std::array<const char*, kNumLayers> kNames = {
      "phase.setup",       "phase.simulate",   "phase.check",
      "core.client.issue", "core.client.recv", "core.server.recv",
      "net.send",          "quorum.pick",      "storage.apply",
      "storage.backend",   "storage.recover",  "apps.apply"};
  return kNames[static_cast<std::size_t>(layer)];
}

/// One closed (or, at overflow, abandoned) span.  `parent` is the index of
/// the enclosing span plus one (0 = top level).  The request id is the
/// client node and Message::op of the operation the span served, (0, 0)
/// when the call carried no message.
struct Span {
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint32_t parent = 0;
  std::uint32_t req_node = 0;
  std::uint64_t req_op = 0;
  Layer layer = Layer::kSetup;
};

/// Per-layer aggregate over any number of runs.
struct LayerTotals {
  std::array<double, kNumLayers> self_s{};
  std::array<double, kNumLayers> total_s{};
  std::array<std::uint64_t, kNumLayers> calls{};
};

class SpanBuffer {
 public:
  /// Run set-up: sizes the buffer for \p capacity spans (allocating only
  /// when the capacity changes) and empties it.
  void prepare(std::size_t capacity) {
    if (spans_.size() != capacity) spans_.assign(capacity, Span{});
    used_ = 0;
    current_ = 0;
    overflow_ = 0;
    origin_ = std::chrono::steady_clock::now();
  }

  /// Opens a span under the currently open one; returns its handle (index
  /// plus one), or 0 when the buffer is full.
  std::uint32_t open(Layer layer, net::NodeId req_node = 0,
                     net::OpId req_op = 0) {
    if (used_ == spans_.size()) {
      ++overflow_;
      return 0;
    }
    Span& s = spans_[used_];
    s.layer = layer;
    s.parent = current_;
    s.req_node = req_node;
    s.req_op = req_op;
    // An issue span learns its request id from the first message it sends.
    if (req_op != 0 && current_ != 0) {
      Span& parent = spans_[current_ - 1];
      if (parent.layer == Layer::kClientIssue && parent.req_op == 0) {
        parent.req_node = req_node;
        parent.req_op = req_op;
      }
    }
    current_ = static_cast<std::uint32_t>(++used_);
    s.start_ns = now_ns();
    return current_;
  }

  void close(std::uint32_t handle) {
    if (handle == 0) return;
    Span& s = spans_[handle - 1];
    s.end_ns = now_ns();
    current_ = s.parent;
  }

  std::size_t used() const { return used_; }
  std::uint64_t overflow() const { return overflow_; }
  const Span* begin() const { return spans_.data(); }
  const Span* end() const { return spans_.data() + used_; }

  /// Adds this run's spans to \p totals: every span's duration counts as
  /// its own layer's total and self time and is taken off its parent's
  /// self time.
  void add_to_totals(LayerTotals& totals) const {
    for (std::size_t i = 0; i < used_; ++i) {
      const Span& s = spans_[i];
      const double dur = static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
      const auto layer = static_cast<std::size_t>(s.layer);
      totals.self_s[layer] += dur;
      totals.total_s[layer] += dur;
      ++totals.calls[layer];
      if (s.parent != 0) {
        totals.self_s[static_cast<std::size_t>(spans_[s.parent - 1].layer)] -=
            dur;
      }
    }
  }

 private:
  std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - origin_)
        .count();
  }

  std::vector<Span> spans_;
  std::size_t used_ = 0;
  std::uint32_t current_ = 0;
  std::uint64_t overflow_ = 0;
  std::chrono::steady_clock::time_point origin_{};
};

/// Writes \p spans as JSONL, one object per span, ids 1-based in start
/// order (parent 0 = top level).
inline void write_spans_jsonl(const std::vector<Span>& spans,
                              std::ostream& out) {
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    out << "{\"id\":" << i + 1 << ",\"parent\":" << s.parent
        << ",\"name\":\"" << layer_name(s.layer)
        << "\",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
        << ",\"req_node\":" << s.req_node << ",\"req_op\":" << s.req_op
        << "}\n";
  }
}

/// RAII span; a null buffer makes it free.
class ScopedSpan {
 public:
  ScopedSpan(SpanBuffer* buffer, Layer layer, net::NodeId req_node = 0,
             net::OpId req_op = 0)
      : buffer_(buffer),
        handle_(buffer != nullptr ? buffer->open(layer, req_node, req_op)
                                  : 0) {}
  ~ScopedSpan() {
    if (buffer_ != nullptr) buffer_->close(handle_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanBuffer* buffer_;
  std::uint32_t handle_;
};

/// Receiver decorator: one span per delivered message, attributed to the
/// client or server layer by the receiving node.
class TracingReceiver final : public net::Receiver {
 public:
  void bind(net::Receiver* inner, SpanBuffer* spans, net::NodeId self,
            bool is_client) {
    inner_ = inner;
    spans_ = spans;
    self_ = self;
    is_client_ = is_client;
  }

  void on_message(net::NodeId from, net::Message msg) override {
    ScopedSpan span(spans_,
                    is_client_ ? Layer::kClientRecv : Layer::kServerRecv,
                    is_client_ ? self_ : from, msg.op);
    inner_->on_message(from, std::move(msg));
  }

 private:
  net::Receiver* inner_ = nullptr;
  SpanBuffer* spans_ = nullptr;
  net::NodeId self_ = 0;
  bool is_client_ = false;
};

/// Transport decorator: spans every send and fan-out, and interposes a
/// TracingReceiver in front of every registered receiver.  Nodes at or
/// above \p first_client are clients.
class TracingTransport final : public net::Transport {
 public:
  TracingTransport(net::Transport& inner, SpanBuffer& spans,
                   net::NodeId max_nodes, net::NodeId first_client)
      : inner_(inner),
        spans_(spans),
        first_client_(first_client),
        receivers_(max_nodes) {}

  void send(net::NodeId from, net::NodeId to, net::Message msg) override {
    ++send_calls_;
    ScopedSpan span(&spans_, Layer::kSend, client_of(from, to), msg.op);
    inner_.send(from, to, std::move(msg));
  }

  void send_fanout(net::NodeId from, const net::FanoutEntry* targets,
                   std::size_t count, net::Message proto) override {
    ++send_calls_;
    ScopedSpan span(&spans_, Layer::kSend,
                    count > 0 ? client_of(from, targets[0].to) : from,
                    proto.op);
    inner_.send_fanout(from, targets, count, std::move(proto));
  }

  void register_receiver(net::NodeId node, net::Receiver* receiver) override {
    receivers_.at(node).bind(receiver, &spans_, node, node >= first_client_);
    inner_.register_receiver(node, &receivers_[node]);
  }

  net::MessageStats stats() const override { return inner_.stats(); }

  std::uint64_t send_calls() const { return send_calls_; }

 private:
  net::NodeId client_of(net::NodeId from, net::NodeId to) const {
    return from >= first_client_ ? from : to;
  }

  net::Transport& inner_;
  SpanBuffer& spans_;
  net::NodeId first_client_;
  std::vector<TracingReceiver> receivers_;  // sized once: addresses stay put
  std::uint64_t send_calls_ = 0;
};

/// Quorum-system decorator: spans every pick.
class TracingQuorums final : public quorum::QuorumSystem {
 public:
  TracingQuorums(const quorum::QuorumSystem& inner, SpanBuffer& spans)
      : inner_(inner), spans_(spans) {}

  std::size_t num_servers() const override { return inner_.num_servers(); }
  std::size_t quorum_size(quorum::AccessKind kind) const override {
    return inner_.quorum_size(kind);
  }
  void pick(quorum::AccessKind kind, util::Rng& rng,
            std::vector<quorum::ServerId>& out) const override {
    ++picks_;
    ScopedSpan span(&spans_, Layer::kPick);
    inner_.pick(kind, rng, out);
  }
  bool is_strict() const override { return inner_.is_strict(); }
  bool enumerable() const override { return inner_.enumerable(); }
  std::size_t num_quorums(quorum::AccessKind kind) const override {
    return inner_.num_quorums(kind);
  }
  void quorum(quorum::AccessKind kind, std::size_t idx,
              std::vector<quorum::ServerId>& out) const override {
    inner_.quorum(kind, idx, out);
  }
  std::size_t min_kill(quorum::AccessKind kind) const override {
    return inner_.min_kill(kind);
  }
  std::string name() const override { return inner_.name(); }

  std::uint64_t picks() const { return picks_; }

 private:
  const quorum::QuorumSystem& inner_;
  SpanBuffer& spans_;
  mutable std::uint64_t picks_ = 0;
};

/// AcoOperator decorator: spans every apply (F_i evaluation).
class TracingOperator final : public iter::AcoOperator {
 public:
  TracingOperator(const iter::AcoOperator& inner, SpanBuffer& spans)
      : inner_(inner), spans_(spans) {}

  std::size_t num_components() const override {
    return inner_.num_components();
  }
  iter::Value initial(std::size_t i) const override {
    return inner_.initial(i);
  }
  iter::Value apply(std::size_t i,
                    const std::vector<iter::Value>& x) const override {
    ++applies_;
    ScopedSpan span(&spans_, Layer::kAppsApply);
    return inner_.apply(i, x);
  }
  bool component_equal(std::size_t i, const iter::Value& a,
                       const iter::Value& b) const override {
    return inner_.component_equal(i, a, b);
  }
  const iter::Value& fixed_point(std::size_t i) const override {
    return inner_.fixed_point(i);
  }
  bool is_fixed(std::size_t i, const iter::Value& v) const override {
    return inner_.is_fixed(i, v);
  }
  bool locally_converged(std::size_t i, const iter::Value& own,
                         const std::vector<iter::Value>& view) const override {
    return inner_.locally_converged(i, own, view);
  }
  std::optional<std::size_t> max_pseudocycles() const override {
    return inner_.max_pseudocycles();
  }
  bool box_contains(std::size_t k, std::size_t i,
                    const iter::Value& v) const override {
    return inner_.box_contains(k, i, v);
  }
  bool has_box_oracle() const override { return inner_.has_box_oracle(); }
  std::string name() const override { return inner_.name(); }

  std::uint64_t applies() const { return applies_; }

 private:
  const iter::AcoOperator& inner_;
  SpanBuffer& spans_;
  mutable std::uint64_t applies_ = 0;
};

/// StoreListener decorator (between a Replica and its DurableStore): spans
/// every applied mutation the store logs.
class TracingStoreListener final : public core::Replica::StoreListener {
 public:
  TracingStoreListener(storage::DurableStore& inner, SpanBuffer& spans)
      : inner_(inner), spans_(spans) {}

  void on_apply(core::RegisterId reg, core::Timestamp ts,
                const core::Value& value) override {
    ScopedSpan span(&spans_, Layer::kStorageApply);
    inner_.on_apply(reg, ts, value);
  }

 private:
  storage::DurableStore& inner_;
  SpanBuffer& spans_;
};

/// StorageBackend decorator (between a DurableStore and its disk): spans
/// every backend call and tallies snapshot bytes installed.
class TracingBackend final : public storage::StorageBackend {
 public:
  TracingBackend(storage::StorageBackend& inner, SpanBuffer& spans)
      : inner_(inner), spans_(spans) {}

  void wal_append(const util::Bytes& record) override {
    ScopedSpan span(&spans_, Layer::kStorageBackend);
    inner_.wal_append(record);
  }
  void wal_sync() override {
    ScopedSpan span(&spans_, Layer::kStorageBackend);
    inner_.wal_sync();
  }
  util::Bytes wal_contents() const override {
    ScopedSpan span(&spans_, Layer::kStorageBackend);
    return inner_.wal_contents();
  }
  void wal_truncate() override {
    ScopedSpan span(&spans_, Layer::kStorageBackend);
    inner_.wal_truncate();
  }
  void wal_truncate_to(std::size_t bytes) override {
    ScopedSpan span(&spans_, Layer::kStorageBackend);
    inner_.wal_truncate_to(bytes);
  }
  void install_snapshot(const util::Bytes& encoded) override {
    snapshot_bytes_ += encoded.size();
    ScopedSpan span(&spans_, Layer::kStorageBackend);
    inner_.install_snapshot(encoded);
  }
  util::Bytes snapshot_contents() const override {
    ScopedSpan span(&spans_, Layer::kStorageBackend);
    return inner_.snapshot_contents();
  }

  std::uint64_t snapshot_bytes() const { return snapshot_bytes_; }

 private:
  storage::StorageBackend& inner_;
  SpanBuffer& spans_;
  std::uint64_t snapshot_bytes_ = 0;
};

}  // namespace pqra::bench
