#pragma once

/// \file span.hpp
/// Causal span tracing for register protocols.
///
/// Where the operation history (core/spec/history.hpp) keeps one record per
/// read/write for the spec checkers, spans record the causal tree
/// underneath it: the client operation, each per-replica RPC attempt, each
/// retry/backoff wait, and the replica-side handling — linked by parent ids
/// and grouped by a trace id so a single stale read can be traced to the
/// exact k-of-n probe that missed the latest write (the paper's
/// ε-intersection, per operation instead of in aggregate).  The protocol
/// detail of an operation — cache provenance, quorum accesses, staleness
/// depth, the responding quorum — lives on its client_op root span only.
///
/// Ids travel across the network in net::Message's `trace`/`span` header
/// fields (both transports copy them opaquely; this file deliberately knows
/// nothing about net/).  A span id is a dense 1-based index into the sink,
/// so parent links are validated by construction: a parent id always refers
/// to an earlier span.  0 means "none" everywhere.
///
/// Sampling is deterministic: whether an operation is traced is a pure
/// function of (seed, proc, op), so the span set for a given run seed is
/// byte-identical at any `--jobs`, exactly like the metrics registry.
///
/// The sink is hot-path-safe under the project's lint rules (no
/// std::function, no locks, no clocks, vector-append only) and is driven
/// from the single-threaded DES event loop.
///
/// Serializations: JSONL (round-trippable, read back through obs/jsonl.hpp
/// with line-numbered parse errors) and Chrome trace-event JSON (stable
/// sorted emit order; client_op roots draw as one "read rN"/"write rN"
/// slice per operation, one lane per process).  See docs/OBSERVABILITY.md.

#include <cstdint>
#include <iosfwd>
#include <vector>

namespace pqra::obs {

class Registry;

/// 1-based dense id; 0 = none.
using SpanId = std::uint64_t;

enum class SpanKind : std::uint8_t {
  kClientOp = 0,    ///< whole client read/write, root of its trace
  kRpcAttempt = 1,  ///< one request to one replica within one attempt
  kRetryWait = 2,   ///< core::RetryPolicy backoff between attempts
  kServerHandle = 3 ///< replica-side handling of one request
};
inline constexpr std::size_t kNumSpanKinds = 4;

enum class SpanStatus : std::uint8_t {
  kOpen = 0,       ///< not yet closed
  kOk = 1,         ///< completed normally
  kDegraded = 2,   ///< accepted below quorum at the deadline (docs/FAULTS.md)
  kTimedOut = 3,   ///< operation deadline expired with no usable result
  kUnanswered = 4  ///< RPC whose reply never arrived before the op closed
};

struct SpanRecord {
  SpanId id = 0;
  SpanId parent = 0;  ///< 0 for roots
  SpanId trace = 0;   ///< root span's id, shared by the whole tree
  SpanKind kind = SpanKind::kClientOp;
  SpanStatus status = SpanStatus::kOpen;
  std::uint32_t proc = 0;  ///< NodeId that emitted the span
  std::uint32_t reg = 0;
  std::uint64_t op = 0;  ///< client-assigned OpId
  double start = 0.0;
  double end = 0.0;
  bool open = true;
  /// kClientOp: true for writes (reads, snapshot reads otherwise).
  bool is_write = false;
  /// Quorum access number within the operation, from 1.
  std::uint32_t attempt = 0;
  /// kRpcAttempt / kServerHandle: the replica NodeId.
  std::uint32_t server = 0;
  /// Timestamp evidence: kClientOp = ts returned/written; kRpcAttempt /
  /// kServerHandle = ts the replica reported.
  std::uint64_t ts = 0;
  bool from_cache = false;     ///< §6.2 monotone cache hit
  std::uint64_t stale_depth = 0;
  /// kClientOp: replicas whose acks completed the op (the sampled quorum).
  std::vector<std::uint32_t> quorum;
  /// kClientOp: subset of `quorum` that held the freshest timestamp seen —
  /// the per-operation ε-intersection outcome (empty ⇒ the probe missed
  /// every holder of the latest write this client had evidence of).
  std::vector<std::uint32_t> fresh;

  bool operator==(const SpanRecord&) const = default;
};

const char* span_kind_name(SpanKind kind);
const char* span_status_name(SpanStatus status);

/// Append-only span collector.  Single-threaded by design (the DES drives
/// it from one event loop); the threaded runtime only propagates ids.
class SpanSink {
 public:
  struct Options {
    /// Mixed into the sampling hash so different seeds trace different ops.
    std::uint64_t seed = 0;
    /// Trace every Nth (hashed) operation; 1 = every op, 0 = none.
    std::uint64_t sample_period = 1;
  };

  SpanSink() = default;
  explicit SpanSink(Options options) : options_(options) {}

  /// Deterministic root-sampling decision for (proc, op).  Children are
  /// only ever created under a sampled root, so one decision covers the
  /// whole trace.
  bool sampled(std::uint32_t proc, std::uint64_t op) const;

  /// Opens a span and returns its id.  \p parent must be 0 (root) or an
  /// existing id; the trace id is inherited from the parent (roots start a
  /// new trace).  Annotate the returned record via at().
  SpanId begin(SpanKind kind, SpanId parent, std::uint32_t proc, double now);

  /// Mutable access for annotation while the span is open (reg/op/ts/
  /// quorum/...).  PQRA_CHECKs the id.
  SpanRecord& at(SpanId id);

  /// Closes a span.  Throws (PQRA_CHECK) on double-close or end < start —
  /// the property tests/integration/span_fault_property_test.cpp leans on.
  void finish(SpanId id, SpanStatus status, double now);

  const std::vector<SpanRecord>& spans() const { return spans_; }
  std::size_t size() const { return spans_.size(); }
  std::size_t open_spans() const { return open_; }

  /// Structural audit: every parent exists and precedes its child, closed
  /// spans have end >= start and a non-kOpen status, and (when
  /// \p require_closed) nothing is still open.  Throws on violation.
  void check(bool require_closed) const;

  /// Folds deterministic span counters into \p registry
  /// (names::kSpanStarted / kSpanCompleted / kSpanOpen / kSpanByKind).
  void publish(Registry& registry) const;

 private:
  Options options_;
  std::vector<SpanRecord> spans_;  ///< spans_[id - 1]
  std::size_t open_ = 0;
};

/// One compact JSON object per span, in id order.
void write_spans_jsonl(const std::vector<SpanRecord>& spans,
                       std::ostream& out);

/// Parses write_spans_jsonl output (field order-insensitive; unknown keys
/// rejected).  Throws std::logic_error naming the 1-based line number on
/// malformed or truncated input.  Blank lines are skipped.
std::vector<SpanRecord> parse_spans_jsonl(std::istream& in);

/// Chrome trace-event format: complete ("X") events over simulated time,
/// one lane (tid) per process, span kind + causal ids in args.  Spans are
/// emitted in a stable sorted order (start, id) regardless of sink order.
/// Requires us_per_time_unit > 0 (PQRA_CHECK).
void write_spans_chrome(const std::vector<SpanRecord>& spans,
                        std::ostream& out, double us_per_time_unit = 1000.0);

}  // namespace pqra::obs
