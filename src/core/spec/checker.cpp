#include "core/spec/checker.hpp"

#include <algorithm>
#include <map>
#include <sstream>
#include <tuple>
#include <utility>

namespace pqra::core::spec {

namespace {

std::string describe_op(const OpRecord& op) {
  std::ostringstream os;
  os << (op.kind == OpKind::kRead ? "read" : "write") << "(proc=" << op.proc
     << ", reg=" << op.reg << ", ts=" << op.ts << ", t=[" << op.invoke << ", "
     << (op.responded ? op.response : -1.0) << "])";
  return os.str();
}

/// A RecordSpan check run over a whole history.
template <void (*Check)(RecordSpan, CheckScratch&, CheckResult&)>
CheckResult over_history(const std::vector<OpRecord>& ops) {
  CheckResult result;
  CheckScratch scratch;
  Check(record_pointers(ops), scratch, result);
  return result;
}

}  // namespace

void CheckResult::fail(std::string message) {
  ok = false;
  violations.push_back(std::move(message));
}

std::vector<const OpRecord*> record_pointers(const std::vector<OpRecord>& ops) {
  std::vector<const OpRecord*> out;
  out.reserve(ops.size());
  for (const OpRecord& op : ops) out.push_back(&op);
  return out;
}

void check_r1(RecordSpan ops, CheckResult& out) {
  for (const OpRecord* op : ops) {
    if (!op->responded) {
      out.fail("[R1] unresponded operation: " + describe_op(*op));
    }
  }
}

void check_r2(RecordSpan ops, CheckScratch& scratch, CheckResult& out) {
  // Writes by (reg, ts), record order within a pair, so a read's candidate
  // sources are one equal range.  A pair may have several: contended keys
  // (writers-per-key > 1) have independent per-writer timestamp counters.
  std::vector<const OpRecord*>& writes = scratch.sorted;
  writes.clear();
  for (const OpRecord* op : ops) {
    if (op->kind == OpKind::kWrite) writes.push_back(op);
  }
  std::sort(writes.begin(), writes.end(),
            [](const OpRecord* a, const OpRecord* b) {
              return std::tie(a->reg, a->ts, a) < std::tie(b->reg, b->ts, b);
            });
  for (const OpRecord* op : ops) {
    if (op->kind != OpKind::kRead || !op->responded) continue;
    const auto [first, last] = std::equal_range(
        writes.begin(), writes.end(), op,
        [](const OpRecord* a, const OpRecord* b) {
          return std::tie(a->reg, a->ts) < std::tie(b->reg, b->ts);
        });
    if (first == last) {
      out.fail("[R2] read returned a never-written timestamp: " +
               describe_op(*op));
      continue;
    }
    // The read is justified if at least one matching write could have been
    // its source; with duplicate (reg, ts) keys any candidate will do, so
    // only fail when every one began after the read ended (the violation
    // cites the earliest-invoking candidate — the closest miss).
    const OpRecord* best = *std::min_element(
        first, last, [](const OpRecord* a, const OpRecord* b) {
          return a->invoke < b->invoke;
        });
    if (best->invoke > op->response) {
      out.fail("[R2] read returned a write that began after the read "
               "ended: " +
               describe_op(*op) + " vs " + describe_op(*best));
    }
  }
}

void check_r4(RecordSpan ops, CheckScratch& scratch, CheckResult& out) {
  // Responded reads by (proc, reg), then by response time, record order
  // breaking ties between simultaneous responses (which matches delivery
  // order in the DES).
  std::vector<const OpRecord*>& reads = scratch.sorted;
  reads.clear();
  for (const OpRecord* op : ops) {
    if (op->kind == OpKind::kRead && op->responded) reads.push_back(op);
  }
  std::sort(reads.begin(), reads.end(),
            [](const OpRecord* a, const OpRecord* b) {
              return std::tie(a->proc, a->reg, a->response, a) <
                     std::tie(b->proc, b->reg, b->response, b);
            });
  Timestamp last = 0;
  for (std::size_t i = 0; i < reads.size(); ++i) {
    const OpRecord& op = *reads[i];
    if (i > 0 && std::tie(op.proc, op.reg) !=
                     std::tie(reads[i - 1]->proc, reads[i - 1]->reg)) {
      last = 0;
    }
    if (op.ts < last) out.fail("[R4] read went backwards: " + describe_op(op));
    last = std::max(last, op.ts);
  }
}

void check_single_writer(RecordSpan ops, CheckScratch& scratch,
                         CheckResult& out) {
  // Writes (initials skipped) by register in record order: a write is
  // judged against its register's previous writes.  Violations are
  // reported in record order.
  std::vector<const OpRecord*>& writes = scratch.sorted;
  writes.clear();
  for (const OpRecord* op : ops) {
    if (op->kind == OpKind::kWrite && op->ts != 0) writes.push_back(op);
  }
  std::sort(writes.begin(), writes.end(),
            [](const OpRecord* a, const OpRecord* b) {
              return std::tie(a->reg, a) < std::tie(b->reg, b);
            });
  scratch.flagged.clear();
  Timestamp max_ts = 0;
  for (std::size_t i = 0; i < writes.size(); ++i) {
    const OpRecord* w = writes[i];
    const bool first = i == 0 || writes[i - 1]->reg != w->reg;
    if (!first && writes[i - 1]->proc != w->proc) {
      scratch.flagged.emplace_back(w, 0);
    }
    if (!first && w->ts <= max_ts) scratch.flagged.emplace_back(w, 1);
    max_ts = first ? w->ts : std::max(max_ts, w->ts);
  }
  std::sort(scratch.flagged.begin(), scratch.flagged.end());
  for (const auto& [w, rule] : scratch.flagged) {
    out.fail((rule == 0 ? "[SW] second writer for register: "
                        : "[SW] non-increasing write timestamp: ") +
             describe_op(*w));
  }
}

CheckResult check_r1(const std::vector<OpRecord>& ops) {
  CheckResult result;
  check_r1(record_pointers(ops), result);
  return result;
}

CheckResult check_r2(const std::vector<OpRecord>& ops) {
  return over_history<check_r2>(ops);
}

CheckResult check_r4(const std::vector<OpRecord>& ops) {
  return over_history<check_r4>(ops);
}

CheckResult check_single_writer(const std::vector<OpRecord>& ops) {
  return over_history<check_single_writer>(ops);
}

CheckResult check_regular(const std::vector<OpRecord>& ops) {
  CheckResult result;
  // Per register: a read may return the latest write completed before its
  // invocation or any write concurrent with it; i.e. ts must lie in
  // [latest completed before invoke, latest invoked before response].
  std::map<RegisterId, std::vector<const OpRecord*>> writes;
  for (const OpRecord& op : ops) {
    if (op.kind == OpKind::kWrite) writes[op.reg].push_back(&op);
  }
  for (const OpRecord& op : ops) {
    if (op.kind != OpKind::kRead || !op.responded) continue;
    Timestamp lo = 0;
    Timestamp hi = 0;
    for (const OpRecord* w : writes[op.reg]) {
      if (w->responded && w->response <= op.invoke) lo = std::max(lo, w->ts);
      if (w->invoke <= op.response) hi = std::max(hi, w->ts);
    }
    if (op.ts < lo || op.ts > hi) {
      std::ostringstream os;
      os << "[REG] read outside the regular window [" << lo << ", " << hi
         << "]: " << describe_op(op);
      result.fail(os.str());
    }
  }
  return result;
}

CheckResult check_atomic(const std::vector<OpRecord>& ops) {
  CheckResult result = check_regular(ops);
  // New/old inversion: order completed reads per register by response time
  // and require non-decreasing timestamps whenever they do not overlap.
  std::map<RegisterId, std::vector<const OpRecord*>> reads;
  for (const OpRecord& op : ops) {
    if (op.kind == OpKind::kRead && op.responded) reads[op.reg].push_back(&op);
  }
  for (auto& [reg, list] : reads) {
    std::stable_sort(list.begin(), list.end(),
                     [](const OpRecord* a, const OpRecord* b) {
                       return a->response < b->response;
                     });
    // For each read, compare against the max timestamp of reads that
    // completed strictly before it was invoked.
    for (std::size_t i = 0; i < list.size(); ++i) {
      for (std::size_t j = 0; j < i; ++j) {
        if (list[j]->response < list[i]->invoke &&
            list[i]->ts < list[j]->ts) {
          result.fail("[ATOMIC] new/old inversion: " + describe_op(*list[i]) +
                      " after " + describe_op(*list[j]));
        }
      }
    }
  }
  return result;
}

CheckResult check_random_register(const std::vector<OpRecord>& ops,
                                  bool monotone) {
  const std::vector<const OpRecord*> records = record_pointers(ops);
  CheckScratch scratch;
  CheckResult merged;
  check_r1(records, merged);
  check_r2(records, scratch, merged);
  check_single_writer(records, scratch, merged);
  if (monotone) check_r4(records, scratch, merged);
  return merged;
}

}  // namespace pqra::core::spec
