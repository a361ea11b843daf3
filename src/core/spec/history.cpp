#include "core/spec/history.hpp"

#include <ostream>
#include <string>

#include "obs/export.hpp"
#include "obs/jsonl.hpp"
#include "util/check.hpp"

namespace pqra::core::spec {

void HistoryRecorder::record_initial(RegisterId reg, NodeId writer) {
  OpRecord rec;
  rec.kind = OpKind::kWrite;
  rec.proc = writer;
  rec.reg = reg;
  rec.invoke = 0.0;
  rec.response = 0.0;
  rec.responded = true;
  rec.ts = 0;
  ops_.push_back(rec);
}

HistoryRecorder::OpHandle HistoryRecorder::begin_read(NodeId proc,
                                                      RegisterId reg,
                                                      sim::Time now) {
  OpRecord rec;
  rec.kind = OpKind::kRead;
  rec.proc = proc;
  rec.reg = reg;
  rec.invoke = now;
  ops_.push_back(rec);
  return ops_.size() - 1;
}

void HistoryRecorder::end_read(OpHandle h, sim::Time now,
                               Timestamp ts_returned) {
  PQRA_REQUIRE(h < ops_.size(), "bad op handle");
  OpRecord& rec = ops_[h];
  PQRA_REQUIRE(rec.kind == OpKind::kRead && !rec.responded,
               "end_read on a non-pending read");
  rec.response = now;
  rec.responded = true;
  rec.ts = ts_returned;
}

HistoryRecorder::OpHandle HistoryRecorder::begin_write(NodeId proc,
                                                       RegisterId reg,
                                                       sim::Time now,
                                                       Timestamp ts) {
  OpRecord rec;
  rec.kind = OpKind::kWrite;
  rec.proc = proc;
  rec.reg = reg;
  rec.invoke = now;
  rec.ts = ts;
  ops_.push_back(rec);
  return ops_.size() - 1;
}

void HistoryRecorder::end_write(OpHandle h, sim::Time now) {
  PQRA_REQUIRE(h < ops_.size(), "bad op handle");
  OpRecord& rec = ops_[h];
  PQRA_REQUIRE(rec.kind == OpKind::kWrite && !rec.responded,
               "end_write on a non-pending write");
  rec.response = now;
  rec.responded = true;
}

void write_history_jsonl(const std::vector<OpRecord>& ops, std::ostream& out) {
  for (const OpRecord& rec : ops) {
    out << "{\"op\":\"" << (rec.kind == OpKind::kRead ? "read" : "write")
        << "\",\"proc\":" << rec.proc << ",\"reg\":" << rec.reg
        << ",\"invoke\":" << obs::format_double(rec.invoke)
        << ",\"response\":" << obs::format_double(rec.response)
        << ",\"responded\":" << (rec.responded ? "true" : "false")
        << ",\"ts\":" << rec.ts << "}\n";
  }
}

std::vector<OpRecord> parse_history_jsonl(std::istream& in) {
  std::vector<OpRecord> ops;
  obs::JsonlReader r(in, "parse_history_jsonl");
  std::string key;
  while (r.next_line()) {
    OpRecord rec;
    while (r.next_key(key)) {
      if (key == "op") {
        const std::string v = r.read_string();
        if (v != "read" && v != "write") r.fail("unknown op kind '" + v + "'");
        rec.kind = v == "read" ? OpKind::kRead : OpKind::kWrite;
      } else if (key == "proc") {
        rec.proc = r.read_uint<NodeId>();
      } else if (key == "reg") {
        rec.reg = r.read_uint<RegisterId>();
      } else if (key == "invoke") {
        rec.invoke = r.read_double();
      } else if (key == "response") {
        rec.response = r.read_double();
      } else if (key == "responded") {
        rec.responded = r.read_bool();
      } else if (key == "ts") {
        rec.ts = r.read_uint<Timestamp>();
      } else {
        r.fail("unknown key '" + key + "'");
      }
    }
    ops.push_back(rec);
  }
  return ops;
}

}  // namespace pqra::core::spec
