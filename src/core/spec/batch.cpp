#include "core/spec/batch.hpp"

#include <algorithm>
#include <vector>

namespace pqra::core::spec {

namespace {

/// Runs each rule \p options selects over \p records, in Rule order, into
/// \p out, and hands every outcome to \p on_outcome.  The regular and
/// atomic checks, which keep their maps, read \p copy: the same records by
/// value.
template <typename OnOutcome>
void run_rules(const BatchOptions& options, RecordSpan records,
               const std::vector<OpRecord>& copy, CheckScratch& scratch,
               CheckResult& out, OnOutcome&& on_outcome) {
  const auto run_one = [&](bool selected, Rule rule, auto&& check_fn) {
    if (!selected) return;
    out.ok = true;
    out.violations.clear();  // keeps the capacity
    check_fn();
    on_outcome(rule, out);
  };
  run_one(options.r1, Rule::kR1, [&] { check_r1(records, out); });
  run_one(options.r2, Rule::kR2, [&] { check_r2(records, scratch, out); });
  run_one(options.r4, Rule::kR4, [&] { check_r4(records, scratch, out); });
  run_one(options.single_writer, Rule::kSingleWriter,
          [&] { check_single_writer(records, scratch, out); });
  run_one(options.regular, Rule::kRegular, [&] { out = check_regular(copy); });
  run_one(options.atomic, Rule::kAtomic, [&] { out = check_atomic(copy); });
}

}  // namespace

const char* rule_id(Rule rule) {
  switch (rule) {
    case Rule::kR1:
      return "R1";
    case Rule::kR2:
      return "R2";
    case Rule::kR4:
      return "R4";
    case Rule::kSingleWriter:
      return "single-writer";
    case Rule::kRegular:
      return "regular";
    case Rule::kAtomic:
      return "atomic";
  }
  return "?";
}

std::optional<Rule> parse_rule(std::string_view id) {
  for (Rule rule : {Rule::kR1, Rule::kR2, Rule::kR4, Rule::kSingleWriter,
                    Rule::kRegular, Rule::kAtomic}) {
    if (id == rule_id(rule)) return rule;
  }
  return std::nullopt;
}

bool BatchResult::ok() const {
  for (const RuleOutcome& outcome : outcomes) {
    if (!outcome.result.ok) return false;
  }
  return true;
}

const RuleOutcome* BatchResult::first_failure() const {
  for (const RuleOutcome& outcome : outcomes) {
    if (!outcome.result.ok) return &outcome;
  }
  return nullptr;
}

std::string BatchResult::summary() const {
  const RuleOutcome* failure = first_failure();
  if (failure == nullptr) return "ok";
  std::string out = rule_id(failure->rule);
  out += ": ";
  out += failure->result.violations.empty() ? "(no detail)"
                                            : failure->result.violations[0];
  const std::size_t extra = num_violations() - 1;
  if (extra > 0) out += " (+" + std::to_string(extra) + " more)";
  return out;
}

std::size_t BatchResult::num_violations() const {
  std::size_t n = 0;
  for (const RuleOutcome& outcome : outcomes) {
    n += outcome.result.violations.size();
  }
  return n;
}

BatchResult check_batch(const std::vector<OpRecord>& ops,
                        const BatchOptions& options) {
  CheckScratch scratch;
  CheckResult out;
  BatchResult result;
  run_rules(options, record_pointers(ops), ops, scratch, out,
            [&](Rule rule, const CheckResult& r) {
              result.outcomes.push_back({rule, r});
            });
  return result;
}

std::string KeyedBatchResult::summary() const {
  if (!first.has_value()) {
    return "ok over " + std::to_string(keys_checked) + " keys";
  }
  std::string out = rule_id(first->rule);
  out += " key=" + std::to_string(first->key) + ": " + first->violation;
  if (num_violations > 1) {
    out += " (+" + std::to_string(num_violations - 1) + " more)";
  }
  return out;
}

KeyedBatchResult check_batch_by_key(const std::vector<OpRecord>& ops,
                                    const BatchOptions& options) {
  // Group by key without a node-per-key map (a 10⁵-key store history made
  // the old map-of-vectors the single hottest symbol in the bench profile),
  // and without comparison-sorting the records either (the stable_sort of a
  // flat copy it was first replaced with still cost ~10 ms per bench run).
  // Key ids are small dense integers, so a counting sort over *pointers*
  // groups the history in two O(n) passes; walking the placement in record
  // order keeps each key's ops in recording order — exactly what the
  // per-key checkers would have seen with a per-key recorder — and
  // ascending key order keeps first-failure attribution deterministic.
  RegisterId max_reg = 0;
  for (const OpRecord& op : ops) max_reg = std::max(max_reg, op.reg);

  // Histories with key ids far sparser than the record count (possible in
  // hand-written tests — real keyspaces are dense) fall back to a stable
  // pointer sort rather than allocating a counting array per absent key.
  const bool dense =
      static_cast<std::size_t>(max_reg) <= 4 * ops.size() + 1024;

  std::vector<const OpRecord*> sorted(ops.size());
  if (dense) {
    std::vector<std::size_t> start(static_cast<std::size_t>(max_reg) + 2, 0);
    for (const OpRecord& op : ops) ++start[op.reg + 1];
    for (std::size_t k = 1; k < start.size(); ++k) start[k] += start[k - 1];
    for (const OpRecord& op : ops) sorted[start[op.reg]++] = &op;
  } else {
    sorted = record_pointers(ops);
    std::stable_sort(sorted.begin(), sorted.end(),
                     [](const OpRecord* a, const OpRecord* b) {
                       return a->reg < b->reg;
                     });
  }

  // One scratch and one rule result serve every key, so a key that passes
  // allocates nothing; a key's records are copied out only for the regular
  // and atomic checks, which take them by value.
  KeyedBatchResult result;
  CheckScratch scratch;
  CheckResult outcome;
  std::vector<OpRecord> key_ops;
  for (std::size_t i = 0; i < sorted.size();) {
    const RegisterId reg = sorted[i]->reg;
    std::size_t j = i;
    while (j < sorted.size() && sorted[j]->reg == reg) ++j;
    ++result.keys_checked;
    // A key whose entire history is one completed write (typically the
    // preloaded initial of a never-touched key) passes every rule
    // vacuously: no reads to order, a single writer, nothing to intersect.
    // Large mostly-cold keyspaces make this the common case.
    if (j - i == 1 && sorted[i]->kind == OpKind::kWrite &&
        sorted[i]->responded) {
      i = j;
      continue;
    }
    const RecordSpan records(sorted.data() + i, j - i);
    key_ops.clear();
    if (options.regular || options.atomic) {
      for (const OpRecord* op : records) key_ops.push_back(*op);
    }
    run_rules(options, records, key_ops, scratch, outcome,
              [&](Rule rule, const CheckResult& r) {
                result.num_violations += r.violations.size();
                if (r.ok || result.first.has_value()) return;
                result.first = KeyedFirstFailure{
                    rule, reg,
                    r.violations.empty() ? "(no detail)" : r.violations[0]};
              });
    i = j;
  }
  return result;
}

}  // namespace pqra::core::spec
