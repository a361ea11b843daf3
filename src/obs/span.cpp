#include "obs/span.hpp"

#include <algorithm>
#include <ostream>
#include <string>

#include "obs/export.hpp"
#include "obs/jsonl.hpp"
#include "obs/metrics.hpp"
#include "obs/names.hpp"
#include "util/check.hpp"

namespace pqra::obs {

const char* span_kind_name(SpanKind kind) {
  switch (kind) {
    case SpanKind::kClientOp:
      return "client_op";
    case SpanKind::kRpcAttempt:
      return "rpc_attempt";
    case SpanKind::kRetryWait:
      return "retry_wait";
    case SpanKind::kServerHandle:
      return "server_handle";
  }
  PQRA_CHECK(false, "span: unknown kind");
  return "";
}

const char* span_status_name(SpanStatus status) {
  switch (status) {
    case SpanStatus::kOpen:
      return "open";
    case SpanStatus::kOk:
      return "ok";
    case SpanStatus::kDegraded:
      return "degraded";
    case SpanStatus::kTimedOut:
      return "timeout";
    case SpanStatus::kUnanswered:
      return "unanswered";
  }
  PQRA_CHECK(false, "span: unknown status");
  return "";
}

namespace {

/// SplitMix64 finalizer: the sampling decision must be a pure function of
/// (seed, proc, op) so traced runs replay byte-identically at any --jobs.
std::uint64_t mix64(std::uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x;
}

}  // namespace

bool SpanSink::sampled(std::uint32_t proc, std::uint64_t op) const {
  if (options_.sample_period == 0) return false;
  if (options_.sample_period == 1) return true;
  std::uint64_t h = mix64(options_.seed ^
                          (op + 1) * 0x9e3779b97f4a7c15ULL ^
                          (static_cast<std::uint64_t>(proc) + 1) *
                              0xc2b2ae3d27d4eb4fULL);
  return h % options_.sample_period == 0;
}

SpanId SpanSink::begin(SpanKind kind, SpanId parent, std::uint32_t proc,
                       double now) {
  PQRA_CHECK(parent <= spans_.size(), "span: parent id out of range");
  SpanId id = spans_.size() + 1;
  SpanRecord rec;
  rec.id = id;
  rec.parent = parent;
  rec.trace = parent == 0 ? id : spans_[parent - 1].trace;
  rec.kind = kind;
  rec.proc = proc;
  rec.start = now;
  rec.end = now;
  spans_.push_back(std::move(rec));
  ++open_;
  return id;
}

SpanRecord& SpanSink::at(SpanId id) {
  PQRA_CHECK(id >= 1 && id <= spans_.size(), "span: id out of range");
  return spans_[id - 1];
}

void SpanSink::finish(SpanId id, SpanStatus status, double now) {
  SpanRecord& rec = at(id);
  PQRA_CHECK(rec.open,
             "span: double close of span " + std::to_string(id));
  PQRA_CHECK(status != SpanStatus::kOpen, "span: cannot close as kOpen");
  PQRA_CHECK(now >= rec.start,
             "span: end before start on span " + std::to_string(id));
  rec.open = false;
  rec.status = status;
  rec.end = now;
  --open_;
}

void SpanSink::check(bool require_closed) const {
  std::size_t open_seen = 0;
  for (const SpanRecord& rec : spans_) {
    const std::string where = " on span " + std::to_string(rec.id);
    PQRA_CHECK(rec.id >= 1 && rec.id <= spans_.size(),
               "span check: id out of range" + where);
    if (rec.parent != 0) {
      PQRA_CHECK(rec.parent < rec.id,
                 "span check: parent does not precede child" + where);
      const SpanRecord& par = spans_[rec.parent - 1];
      PQRA_CHECK(rec.trace == par.trace,
                 "span check: trace id differs from parent's" + where);
    } else {
      PQRA_CHECK(rec.trace == rec.id,
                 "span check: root trace id != span id" + where);
    }
    if (rec.open) {
      ++open_seen;
      PQRA_CHECK(rec.status == SpanStatus::kOpen,
                 "span check: open span with closed status" + where);
      PQRA_CHECK(!require_closed, "span check: span left open" + where);
    } else {
      PQRA_CHECK(rec.status != SpanStatus::kOpen,
                 "span check: closed span with kOpen status" + where);
      PQRA_CHECK(rec.end >= rec.start,
                 "span check: end before start" + where);
    }
  }
  PQRA_CHECK(open_seen == open_, "span check: open-span count drifted");
}

void SpanSink::publish(Registry& registry) const {
  namespace n = names;
  registry.counter(n::kSpanStarted, "Spans opened by the tracing subsystem")
      .inc(spans_.size());
  registry.counter(n::kSpanCompleted, "Spans closed with a final status")
      .inc(spans_.size() - open_);
  registry
      .gauge(n::kSpanOpen, "Spans still open at publication (ops in flight)",
             GaugeMerge::kSum)
      .add(static_cast<double>(open_));
  std::uint64_t by_kind[kNumSpanKinds] = {};
  for (const SpanRecord& rec : spans_) {
    ++by_kind[static_cast<std::size_t>(rec.kind)];
  }
  for (std::size_t k = 0; k < kNumSpanKinds; ++k) {
    registry
        .counter(n::kSpanByKind[k],
                 "Spans of one kind (see obs/span.hpp SpanKind)")
        .inc(by_kind[k]);
  }
}

void write_spans_jsonl(const std::vector<SpanRecord>& spans,
                       std::ostream& out) {
  for (const SpanRecord& rec : spans) {
    out << "{\"id\":" << rec.id << ",\"parent\":" << rec.parent
        << ",\"trace\":" << rec.trace << ",\"kind\":\""
        << span_kind_name(rec.kind) << "\",\"status\":\""
        << span_status_name(rec.status) << "\",\"proc\":" << rec.proc
        << ",\"reg\":" << rec.reg << ",\"op\":" << rec.op
        << ",\"start\":" << format_double(rec.start)
        << ",\"end\":" << format_double(rec.end)
        << ",\"open\":" << (rec.open ? "true" : "false")
        << ",\"write\":" << (rec.is_write ? "true" : "false")
        << ",\"attempt\":" << rec.attempt << ",\"server\":" << rec.server
        << ",\"ts\":" << rec.ts
        << ",\"cache\":" << (rec.from_cache ? "true" : "false")
        << ",\"stale\":" << rec.stale_depth << ",\"quorum\":[";
    for (std::size_t i = 0; i < rec.quorum.size(); ++i) {
      if (i != 0) out << ',';
      out << rec.quorum[i];
    }
    out << "],\"fresh\":[";
    for (std::size_t i = 0; i < rec.fresh.size(); ++i) {
      if (i != 0) out << ',';
      out << rec.fresh[i];
    }
    out << "]}\n";
  }
}

std::vector<SpanRecord> parse_spans_jsonl(std::istream& in) {
  std::vector<SpanRecord> spans;
  JsonlReader r(in, "parse_spans_jsonl");
  std::string key;
  while (r.next_line()) {
    SpanRecord rec;
    while (r.next_key(key)) {
      if (key == "id") {
        rec.id = r.read_uint<SpanId>();
      } else if (key == "parent") {
        rec.parent = r.read_uint<SpanId>();
      } else if (key == "trace") {
        rec.trace = r.read_uint<SpanId>();
      } else if (key == "kind") {
        const std::string v = r.read_string();
        std::size_t k = 0;
        while (k < kNumSpanKinds &&
               v != span_kind_name(static_cast<SpanKind>(k))) {
          ++k;
        }
        if (k == kNumSpanKinds) r.fail("unknown kind '" + v + "'");
        rec.kind = static_cast<SpanKind>(k);
      } else if (key == "status") {
        const std::string v = r.read_string();
        std::uint8_t s = 0;
        while (s <= 4 && v != span_status_name(static_cast<SpanStatus>(s))) {
          ++s;
        }
        if (s > 4) r.fail("unknown status '" + v + "'");
        rec.status = static_cast<SpanStatus>(s);
      } else if (key == "proc") {
        rec.proc = r.read_uint<std::uint32_t>();
      } else if (key == "reg") {
        rec.reg = r.read_uint<std::uint32_t>();
      } else if (key == "op") {
        rec.op = r.read_uint<std::uint64_t>();
      } else if (key == "start") {
        rec.start = r.read_double();
      } else if (key == "end") {
        rec.end = r.read_double();
      } else if (key == "open") {
        rec.open = r.read_bool();
      } else if (key == "write") {
        rec.is_write = r.read_bool();
      } else if (key == "attempt") {
        rec.attempt = r.read_uint<std::uint32_t>();
      } else if (key == "server") {
        rec.server = r.read_uint<std::uint32_t>();
      } else if (key == "ts") {
        rec.ts = r.read_uint<std::uint64_t>();
      } else if (key == "cache") {
        rec.from_cache = r.read_bool();
      } else if (key == "stale") {
        rec.stale_depth = r.read_uint<std::uint64_t>();
      } else if (key == "quorum") {
        rec.quorum = r.read_uint32_array();
      } else if (key == "fresh") {
        rec.fresh = r.read_uint32_array();
      } else {
        r.fail("unknown key '" + key + "'");
      }
    }
    spans.push_back(std::move(rec));
  }
  return spans;
}

void write_spans_chrome(const std::vector<SpanRecord>& spans,
                        std::ostream& out, double us_per_time_unit) {
  PQRA_CHECK(us_per_time_unit > 0.0,
             "write_spans_chrome: us_per_time_unit must be > 0");
  // Stable emit order regardless of sink order: (start, id).  Ids are
  // unique, so the order is total and the bytes reproducible.
  std::vector<std::size_t> order(spans.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (spans[a].start != spans[b].start) {
      return spans[a].start < spans[b].start;
    }
    return spans[a].id < spans[b].id;
  });
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  for (std::size_t i : order) {
    const SpanRecord& rec = spans[i];
    if (!first) out << ',';
    first = false;
    double dur = (rec.end - rec.start) * us_per_time_unit;
    if (dur <= 0.0) dur = 1.0;  // zero-width slices vanish in the viewer
    out << "\n{\"name\":\"";
    if (rec.kind == SpanKind::kClientOp) {
      out << (rec.is_write ? "write" : "read") << " r" << rec.reg;
    } else {
      out << span_kind_name(rec.kind);
      if (rec.kind == SpanKind::kRpcAttempt ||
          rec.kind == SpanKind::kServerHandle) {
        out << " s" << rec.server;
      }
    }
    out << "\",\"cat\":\"" << span_kind_name(rec.kind)
        << "\",\"ph\":\"X\",\"pid\":0,\"tid\":" << rec.proc
        << ",\"ts\":" << format_double(rec.start * us_per_time_unit)
        << ",\"dur\":" << format_double(dur) << ",\"args\":{\"id\":" << rec.id
        << ",\"parent\":" << rec.parent << ",\"trace\":" << rec.trace
        << ",\"status\":\"" << span_status_name(rec.status)
        << "\",\"attempt\":" << rec.attempt << ",\"ts\":" << rec.ts
        << ",\"stale\":" << rec.stale_depth << ",\"quorum\":\"";
    for (std::size_t q = 0; q < rec.quorum.size(); ++q) {
      if (q != 0) out << ' ';
      out << rec.quorum[q];
    }
    out << "\",\"fresh\":\"";
    for (std::size_t q = 0; q < rec.fresh.size(); ++q) {
      if (q != 0) out << ' ';
      out << rec.fresh[q];
    }
    out << "\"}}";
  }
  // Name the lanes, lowest process id first (stable across sink order).
  std::vector<std::uint32_t> procs;
  for (const SpanRecord& rec : spans) {
    bool seen = false;
    for (std::uint32_t p : procs) {
      if (p == rec.proc) seen = true;
    }
    if (!seen) procs.push_back(rec.proc);
  }
  std::sort(procs.begin(), procs.end());
  for (std::uint32_t p : procs) {
    if (!first) out << ',';
    first = false;
    out << "\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":" << p
        << ",\"args\":{\"name\":\"proc " << p << "\"}}";
  }
  out << "\n]}\n";
}

}  // namespace pqra::obs
