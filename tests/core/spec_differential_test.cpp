/// \file spec_differential_test.cpp
/// Differential test of the flat spec checks (core/spec/checker.cpp) against
/// the map-based implementations they replaced, copied here as the
/// reference: every [R1]/[R2]/[R4]/single-writer verdict, every violation
/// text and its order, and every field of check_batch and
/// check_batch_by_key must be identical on seeded random histories.
///
/// The histories are built to hit the cases the sort orders decide: 1–8
/// keys (dense ids, or ids sparse enough for check_batch_by_key's sorting
/// fallback), 1–6 processes, owners and second writers whose counters
/// collide, non-increasing timestamps, unresponded operations, equal
/// response times, reads of never-written timestamps and of writes that
/// begin after the read ends, all in shuffled record order.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/spec/batch.hpp"
#include "core/spec/checker.hpp"
#include "util/rng.hpp"

namespace pqra::core::spec {
namespace {

// ---- reference: the map-based checks -------------------------------------

std::string ref_describe_op(const OpRecord& op) {
  std::ostringstream os;
  os << (op.kind == OpKind::kRead ? "read" : "write") << "(proc=" << op.proc
     << ", reg=" << op.reg << ", ts=" << op.ts << ", t=[" << op.invoke << ", "
     << (op.responded ? op.response : -1.0) << "])";
  return os.str();
}

CheckResult ref_check_r1(const std::vector<OpRecord>& ops) {
  CheckResult result;
  for (const OpRecord& op : ops) {
    if (!op.responded) {
      result.fail("[R1] unresponded operation: " + ref_describe_op(op));
    }
  }
  return result;
}

CheckResult ref_check_r2(const std::vector<OpRecord>& ops) {
  CheckResult result;
  std::map<std::pair<RegisterId, Timestamp>, std::vector<const OpRecord*>>
      writes;
  for (const OpRecord& op : ops) {
    if (op.kind == OpKind::kWrite) writes[{op.reg, op.ts}].push_back(&op);
  }
  for (const OpRecord& op : ops) {
    if (op.kind != OpKind::kRead || !op.responded) continue;
    auto it = writes.find({op.reg, op.ts});
    if (it == writes.end()) {
      result.fail("[R2] read returned a never-written timestamp: " +
                  ref_describe_op(op));
      continue;
    }
    const OpRecord* best = it->second.front();
    for (const OpRecord* w : it->second) {
      if (w->invoke < best->invoke) best = w;
    }
    if (best->invoke > op.response) {
      result.fail("[R2] read returned a write that began after the read "
                  "ended: " +
                  ref_describe_op(op) + " vs " + ref_describe_op(*best));
    }
  }
  return result;
}

CheckResult ref_check_r4(const std::vector<OpRecord>& ops) {
  CheckResult result;
  std::map<std::pair<NodeId, RegisterId>, std::vector<const OpRecord*>> reads;
  for (const OpRecord& op : ops) {
    if (op.kind == OpKind::kRead && op.responded) {
      reads[{op.proc, op.reg}].push_back(&op);
    }
  }
  for (auto& [key, list] : reads) {
    std::stable_sort(list.begin(), list.end(),
                     [](const OpRecord* a, const OpRecord* b) {
                       return a->response < b->response;
                     });
    Timestamp last = 0;
    for (const OpRecord* op : list) {
      if (op->ts < last) {
        result.fail("[R4] read went backwards: " + ref_describe_op(*op));
      }
      last = std::max(last, op->ts);
    }
  }
  return result;
}

CheckResult ref_check_single_writer(const std::vector<OpRecord>& ops) {
  CheckResult result;
  struct WriterState {
    bool seen = false;
    NodeId proc = 0;
    Timestamp max_ts = 0;
  };
  std::map<RegisterId, WriterState> writers;
  for (const OpRecord& op : ops) {
    if (op.kind != OpKind::kWrite || op.ts == 0) continue;
    WriterState& w = writers[op.reg];
    if (w.seen && w.proc != op.proc) {
      result.fail("[SW] second writer for register: " + ref_describe_op(op));
    }
    if (w.seen && op.ts <= w.max_ts) {
      result.fail("[SW] non-increasing write timestamp: " +
                  ref_describe_op(op));
    }
    w.seen = true;
    w.proc = op.proc;
    w.max_ts = std::max(w.max_ts, op.ts);
  }
  return result;
}

/// check_batch as it ran the map-based checks (regular and atomic are
/// unchanged library code).
BatchResult ref_check_batch(const std::vector<OpRecord>& ops,
                            const BatchOptions& options) {
  BatchResult result;
  if (options.r1) result.outcomes.push_back({Rule::kR1, ref_check_r1(ops)});
  if (options.r2) result.outcomes.push_back({Rule::kR2, ref_check_r2(ops)});
  if (options.r4) result.outcomes.push_back({Rule::kR4, ref_check_r4(ops)});
  if (options.single_writer) {
    result.outcomes.push_back(
        {Rule::kSingleWriter, ref_check_single_writer(ops)});
  }
  if (options.regular) {
    result.outcomes.push_back({Rule::kRegular, check_regular(ops)});
  }
  if (options.atomic) {
    result.outcomes.push_back({Rule::kAtomic, check_atomic(ops)});
  }
  return result;
}

/// check_batch_by_key as it was: copy each key's records, in record order,
/// and batch-check the copy, keys ascending.
KeyedBatchResult ref_check_batch_by_key(const std::vector<OpRecord>& ops,
                                        const BatchOptions& options) {
  std::map<RegisterId, std::vector<OpRecord>> by_key;
  for (const OpRecord& op : ops) by_key[op.reg].push_back(op);
  KeyedBatchResult result;
  for (const auto& [key, key_ops] : by_key) {
    ++result.keys_checked;
    const BatchResult batch = ref_check_batch(key_ops, options);
    result.num_violations += batch.num_violations();
    const RuleOutcome* failure = batch.first_failure();
    if (!result.first.has_value() && failure != nullptr) {
      result.first = KeyedFirstFailure{failure->rule, key,
                                       failure->result.violations[0]};
    }
  }
  return result;
}

// ---- the random histories --------------------------------------------------

std::vector<OpRecord> random_history(std::uint64_t seed) {
  util::Rng rng(seed);
  const auto num_keys = static_cast<std::size_t>(1 + rng.below(8));
  const auto num_procs = static_cast<NodeId>(1 + rng.below(6));
  const bool sparse = rng.bernoulli(0.25);
  std::vector<OpRecord> ops;
  for (std::size_t k = 0; k < num_keys; ++k) {
    const auto reg = static_cast<RegisterId>(sparse ? 7 + k * 50000 : k);
    if (rng.bernoulli(0.8)) {  // the preloaded initial
      ops.push_back(OpRecord{OpKind::kWrite, 0, reg, 0.0, 0.0, true, 0});
    }
    // Owner writes with a counter that sometimes stalls or steps back; a
    // second writer's counter collides with the owner's.
    const auto owner = static_cast<NodeId>(1 + rng.below(num_procs));
    const auto second = static_cast<NodeId>(1 + rng.below(num_procs));
    std::vector<Timestamp> written = {0};
    Timestamp counter = 0;
    const auto num_writes = rng.below(6);
    for (std::uint64_t w = 0; w < num_writes; ++w) {
      const double roll = rng.uniform01();
      NodeId proc = owner;
      Timestamp ts = ++counter;
      if (roll < 0.15) {
        proc = second;
        ts = 1 + rng.below(counter);
      } else if (roll < 0.25) {
        ts = rng.below(counter + 1);  // non-increasing, maybe 0
        --counter;
      }
      const auto invoke = static_cast<double>(rng.below(12));
      const bool responded = !rng.bernoulli(0.1);
      const double response =
          responded ? invoke + static_cast<double>(rng.below(4)) : 0.0;
      ops.push_back(
          OpRecord{OpKind::kWrite, proc, reg, invoke, response, responded, ts});
      written.push_back(ts);
    }
    const auto num_reads = rng.below(10);
    for (std::uint64_t r = 0; r < num_reads; ++r) {
      const double roll = rng.uniform01();
      Timestamp ts = written[rng.below(written.size())];
      if (roll < 0.1) {
        ts = counter + 1 + rng.below(3);  // never written
      } else if (roll < 0.15) {
        ts = 0;
      }
      const auto proc = static_cast<NodeId>(1 + rng.below(num_procs));
      // Few distinct times, so equal responses are common.
      const auto invoke = static_cast<double>(rng.below(12));
      const bool responded = !rng.bernoulli(0.1);
      const double response =
          responded ? invoke + static_cast<double>(rng.below(3)) : 0.0;
      ops.push_back(
          OpRecord{OpKind::kRead, proc, reg, invoke, response, responded, ts});
    }
  }
  for (std::size_t i = ops.size(); i > 1; --i) {
    std::swap(ops[i - 1], ops[static_cast<std::size_t>(rng.below(i))]);
  }
  return ops;
}

void expect_same(const CheckResult& got, const CheckResult& want,
                 const std::string& what) {
  EXPECT_EQ(got.ok, want.ok) << what;
  EXPECT_EQ(got.violations, want.violations) << what;
}

TEST(SpecDifferentialTest, FlatChecksMatchTheMapBasedReference) {
  constexpr std::uint64_t kHistories = 1500;
  BatchOptions rw_rules;
  rw_rules.r4 = true;
  BatchOptions every_rule = rw_rules;
  every_rule.regular = every_rule.atomic = true;

  // How often each violation showed up: a generator that stopped producing
  // one would leave that path of the flat checks untested.
  std::map<std::string, std::size_t> seen;
  std::size_t clean = 0;
  for (std::uint64_t seed = 1; seed <= kHistories; ++seed) {
    const std::vector<OpRecord> ops = random_history(seed);
    const std::string at = "seed " + std::to_string(seed);
    expect_same(check_r1(ops), ref_check_r1(ops), at + " R1");
    expect_same(check_r2(ops), ref_check_r2(ops), at + " R2");
    expect_same(check_r4(ops), ref_check_r4(ops), at + " R4");
    expect_same(check_single_writer(ops), ref_check_single_writer(ops),
                at + " SW");

    for (const BatchOptions& options : {rw_rules, every_rule}) {
      const BatchResult got = check_batch(ops, options);
      const BatchResult want = ref_check_batch(ops, options);
      ASSERT_EQ(got.outcomes.size(), want.outcomes.size()) << at;
      for (std::size_t i = 0; i < got.outcomes.size(); ++i) {
        EXPECT_EQ(got.outcomes[i].rule, want.outcomes[i].rule) << at;
        expect_same(got.outcomes[i].result, want.outcomes[i].result,
                    at + " batch " + rule_id(want.outcomes[i].rule));
      }
      EXPECT_EQ(got.num_violations(), want.num_violations()) << at;
      EXPECT_EQ(got.summary(), want.summary()) << at;

      const KeyedBatchResult keyed = check_batch_by_key(ops, options);
      const KeyedBatchResult ref = ref_check_batch_by_key(ops, options);
      EXPECT_EQ(keyed.keys_checked, ref.keys_checked) << at;
      EXPECT_EQ(keyed.num_violations, ref.num_violations) << at;
      ASSERT_EQ(keyed.first.has_value(), ref.first.has_value()) << at;
      if (ref.first.has_value()) {
        EXPECT_EQ(keyed.first->rule, ref.first->rule) << at;
        EXPECT_EQ(keyed.first->key, ref.first->key) << at;
        EXPECT_EQ(keyed.first->violation, ref.first->violation) << at;
      }
      EXPECT_EQ(keyed.summary(), ref.summary()) << at;
    }

    const BatchResult batch = ref_check_batch(ops, rw_rules);
    if (batch.ok()) ++clean;
    for (const RuleOutcome& outcome : batch.outcomes) {
      for (const std::string& v : outcome.result.violations) {
        ++seen[v.substr(0, v.find(':'))];
      }
    }
  }

  EXPECT_GT(clean, 20u);
  for (const char* kind :
       {"[R1] unresponded operation", "[R2] read returned a never-written "
        "timestamp", "[R2] read returned a write that began after the read "
        "ended", "[R4] read went backwards", "[SW] second writer for register",
        "[SW] non-increasing write timestamp"}) {
    EXPECT_GT(seen[kind], 50u) << kind;
  }
}

}  // namespace
}  // namespace pqra::core::spec
