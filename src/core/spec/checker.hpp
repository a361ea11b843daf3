#pragma once

/// \file checker.hpp
/// Trace checkers for the register specification.
///
/// check_r1/check_r2/check_r4 verify the deterministic conditions of the
/// random-register definition (§3) and its monotone refinement (§6.1) on a
/// recorded history.  check_regular verifies Lamport regularity, which the
/// strict-quorum baseline must satisfy.  The probabilistic conditions [R3]
/// and [R5] cannot be checked on a single finite trace; see
/// probabilistic_checks.hpp for their statistical validators.
///
/// [R1], [R2], [R4] and single-writer also run over a span of record
/// pointers with reusable scratch (the RecordSpan overloads): each sorts
/// one vector of pointers where a per-register map would be built, so a
/// caller that checks many ranges (check_batch_by_key, one key at a time)
/// allocates nothing for a range that passes once the scratch has grown.
/// The vector overloads are those run over the whole history.

#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/spec/history.hpp"

namespace pqra::core::spec {

struct CheckResult {
  bool ok = true;
  std::vector<std::string> violations;

  void fail(std::string message);
};

/// [R1]: every operation in a complete execution has a matching response.
CheckResult check_r1(const std::vector<OpRecord>& ops);

/// [R2]: every read reads from some write: the timestamp a read returned was
/// actually written (or is the initial value), by a write that began before
/// the read ended.
CheckResult check_r2(const std::vector<OpRecord>& ops);

/// [R4]: per process and register, reads-from never goes backwards: the
/// returned timestamps of each process's reads of each register are
/// non-decreasing in response order.
CheckResult check_r4(const std::vector<OpRecord>& ops);

/// Single-writer sanity: per register, writes come from one process with
/// strictly increasing timestamps.  (A precondition of the other checks.)
CheckResult check_single_writer(const std::vector<OpRecord>& ops);

/// Lamport regularity (what a strict quorum system provides): every read
/// returns the timestamp of the latest write that completed before the read
/// was invoked, or of some write concurrent with the read.
CheckResult check_regular(const std::vector<OpRecord>& ops);

/// Single-writer atomicity (Lamport): regularity plus no new/old inversion —
/// if read R1 completes before read R2 is invoked (any two processes), R2
/// must not return an older timestamp than R1.  This is what the client's
/// write-back mode provides over a strict quorum system (§8's "stronger
/// registers" direction).
CheckResult check_atomic(const std::vector<OpRecord>& ops);

/// Records in record order: pointers into one history, ascending, so that
/// pointer order breaks every tie exactly as record order would.
using RecordSpan = std::span<const OpRecord* const>;

/// Pointers to every record of \p ops, in record order.
std::vector<const OpRecord*> record_pointers(const std::vector<OpRecord>& ops);

/// Working memory of the RecordSpan checks, reused across calls.
struct CheckScratch {
  std::vector<const OpRecord*> sorted;
  /// Single-writer's flagged writes: (write, 0 for a second writer or 1 for
  /// a non-increasing timestamp).
  std::vector<std::pair<const OpRecord*, int>> flagged;
};

/// The checks above over \p ops; violations are appended to \p out in the
/// order the vector overloads report them.
void check_r1(RecordSpan ops, CheckResult& out);
void check_r2(RecordSpan ops, CheckScratch& scratch, CheckResult& out);
void check_r4(RecordSpan ops, CheckScratch& scratch, CheckResult& out);
void check_single_writer(RecordSpan ops, CheckScratch& scratch,
                         CheckResult& out);

/// Runs R1+R2+single-writer (+R4 when \p monotone) and merges the results.
CheckResult check_random_register(const std::vector<OpRecord>& ops,
                                  bool monotone);

}  // namespace pqra::core::spec
