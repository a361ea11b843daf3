#pragma once

/// \file history.hpp
/// Execution-history recording for the register-specification checkers.
///
/// The random-register conditions [R1], [R2] and [R4] of §3/§6.1 are
/// trace properties; recording every operation's invocation/response times
/// and the timestamp it wrote/returned lets tests check them on real
/// executions.  Because each register has a single writer issuing strictly
/// increasing timestamps, "read R reads from write W" reduces to "R returned
/// W's timestamp", which sidesteps the value-ambiguity the paper's footnote 1
/// discusses.
///
/// The recorder is the one per-operation record of a run: the checkers read
/// it, and experiment_cli report=DIR writes it as history.jsonl
/// (write_history_jsonl), initial values and still-pending operations
/// included, so a re-read file checks exactly as the run did.

#include <cstdint>
#include <iosfwd>
#include <vector>

#include "core/register_types.hpp"
#include "sim/simulator.hpp"

namespace pqra::core::spec {

enum class OpKind : std::uint8_t { kRead = 0, kWrite = 1 };

struct OpRecord {
  OpKind kind = OpKind::kRead;
  NodeId proc = 0;
  RegisterId reg = 0;
  sim::Time invoke = 0.0;
  sim::Time response = 0.0;
  bool responded = false;
  /// For writes: the timestamp written (fixed at invocation).
  /// For reads: the timestamp returned (fixed at response).
  Timestamp ts = 0;

  bool operator==(const OpRecord&) const = default;
};

/// Collects OpRecords.  Not thread-safe; the threaded runtime records through
/// its own lock (see ConcurrentHistoryRecorder).
class HistoryRecorder {
 public:
  using OpHandle = std::size_t;

  /// Declares the preloaded initial value of \p reg: modeled as a write with
  /// timestamp 0 completing at time 0 by the pseudo-process \p writer.
  void record_initial(RegisterId reg, NodeId writer = 0);

  /// Pre-sizes the record vector (e.g. one record per preloaded key plus
  /// the expected op count) so bulk recording skips reallocation.
  void reserve(std::size_t records) { ops_.reserve(records); }

  OpHandle begin_read(NodeId proc, RegisterId reg, sim::Time now);
  void end_read(OpHandle h, sim::Time now, Timestamp ts_returned);

  OpHandle begin_write(NodeId proc, RegisterId reg, sim::Time now,
                       Timestamp ts);
  void end_write(OpHandle h, sim::Time now);

  const std::vector<OpRecord>& ops() const { return ops_; }
  std::size_t size() const { return ops_.size(); }

 private:
  std::vector<OpRecord> ops_;
};

/// One JSON object per record, in recorder order, e.g.
///   {"op":"read","proc":35,"reg":2,"invoke":4,"response":6.5,
///    "responded":true,"ts":3}
/// In multi-key runs `reg` is the key (docs/SHARDING.md).
void write_history_jsonl(const std::vector<OpRecord>& ops, std::ostream& out);

/// Parses write_history_jsonl output (field order-insensitive, missing
/// fields default, unknown keys rejected).  Throws std::logic_error naming
/// the 1-based line on malformed input (obs/jsonl.hpp).
std::vector<OpRecord> parse_history_jsonl(std::istream& in);

}  // namespace pqra::core::spec
