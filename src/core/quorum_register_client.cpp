#include "core/quorum_register_client.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "core/replica.hpp"
#include "obs/names.hpp"
#include "util/check.hpp"
#include "util/math.hpp"

namespace pqra::core {

namespace {
constexpr std::uint64_t kCounterBits = 48;
constexpr std::uint64_t kWriterMask = (1ULL << 16) - 1;
}  // namespace

Timestamp pack_tag(const Tag& tag) {
  PQRA_REQUIRE(tag.counter < (1ULL << kCounterBits), "counter overflow");
  PQRA_REQUIRE(tag.writer <= kWriterMask, "writer id must fit in 16 bits");
  return (tag.counter << 16) | tag.writer;
}

Tag unpack_tag(Timestamp ts) {
  return Tag{ts >> 16, static_cast<std::uint32_t>(ts & kWriterMask)};
}

QuorumRegisterClient::QuorumRegisterClient(
    sim::Simulator& simulator, net::Transport& transport, NodeId self,
    const quorum::QuorumSystem& quorums, const util::Rng& rng,
    ClientOptions options, spec::HistoryRecorder* history)
    : simulator_(simulator),
      transport_(transport),
      self_(self),
      quorums_(quorums),
      rng_(rng.fork(0x636c69656e740000ULL ^ self)),
      retry_rng_(rng.fork(0x7265747279000000ULL ^ self)),
      options_(options),
      history_(history) {
  if (options_.ring != nullptr) {
    PQRA_REQUIRE(options_.ring->num_nodes() >= quorums_.num_servers(),
                 "ring must have at least one replica group's worth of "
                 "members (quorums are sized to the group, not the cluster)");
  }
  transport_.register_receiver(self_, this);
  if (options_.metrics != nullptr) {
    obs::Registry& reg = *options_.metrics;
    namespace n = obs::names;
    instruments_.reads = &reg.counter(n::kClientReads, "Reads completed");
    instruments_.writes = &reg.counter(n::kClientWrites, "Writes completed");
    instruments_.cache_hits = &reg.counter(
        n::kClientCacheHits, "Reads served from the monotone cache (§6.2)");
    instruments_.retries =
        &reg.counter(n::kClientRetries, "Operations retried on a fresh quorum");
    instruments_.repairs = &reg.counter(
        n::kClientRepairs, "Stale replicas repaired after reads");
    instruments_.write_backs = &reg.counter(
        n::kClientWriteBacks, "Atomic-mode write-back phases");
    instruments_.degraded_reads = &reg.counter(
        n::kClientDegradedReads,
        "Reads completed on a partial access set at the deadline");
    instruments_.degraded_writes = &reg.counter(
        n::kClientDegradedWrites,
        "Writes completed on a partial access set at the deadline");
    instruments_.op_failures = &reg.counter(
        n::kClientOpFailures, "Operations that timed out outright");
    instruments_.read_latency = &reg.histogram(
        n::kClientReadLatency, "Read latency, invocation to response");
    instruments_.write_latency = &reg.histogram(
        n::kClientWriteLatency, "Write latency, invocation to response");
    instruments_.stale_depth = &reg.histogram(
        n::kClientStaleDepth,
        "Writes the read quorum's best answer lagged behind the newest "
        "timestamp known to the client");
  }
}

void QuorumRegisterClient::begin_op_span(OpId op, PendingOp& pending,
                                         bool is_write, RegisterId reg) {
  if (options_.spans == nullptr || !options_.spans->sampled(self_, op)) return;
  pending.root_span = options_.spans->begin(obs::SpanKind::kClientOp,
                                            /*parent=*/0, self_,
                                            pending.started);
  obs::SpanRecord& rec = options_.spans->at(pending.root_span);
  rec.reg = reg;
  rec.op = op;
  rec.is_write = is_write;
}

void QuorumRegisterClient::close_rpc_span(PendingOp& pending, NodeId from,
                                          Timestamp ts) {
  for (std::size_t i = 0; i < pending.rpc_servers.size(); ++i) {
    if (pending.rpc_servers[i] != from) continue;
    obs::SpanRecord& rec = options_.spans->at(pending.rpc_spans[i]);
    if (!rec.open) continue;  // acked in an earlier attempt
    rec.ts = ts;
    options_.spans->finish(pending.rpc_spans[i], obs::SpanStatus::kOk,
                           simulator_.now());
    return;
  }
}

void QuorumRegisterClient::close_open_rpc_spans(PendingOp& pending) {
  for (obs::SpanId id : pending.rpc_spans) {
    if (!options_.spans->at(id).open) continue;
    options_.spans->finish(id, obs::SpanStatus::kUnanswered, simulator_.now());
  }
}

void QuorumRegisterClient::close_op_span(PendingOp& pending,
                                         obs::SpanStatus status, Timestamp ts,
                                         bool from_cache) {
  if (pending.root_span == 0) return;
  close_open_rpc_spans(pending);
  obs::SpanRecord& rec = options_.spans->at(pending.root_span);
  rec.ts = ts;
  rec.from_cache = from_cache;
  rec.attempt = pending.attempt + 1;
  rec.stale_depth = pending.stale_depth;
  rec.quorum.assign(pending.access.responders.begin(),
                    pending.access.responders.end());
  rec.fresh.assign(pending.fresh.begin(), pending.fresh.end());
  options_.spans->finish(pending.root_span, status, simulator_.now());
  pending.root_span = 0;
}

namespace {

obs::SpanStatus span_status_of(OpStatus status) {
  switch (status) {
    case OpStatus::kOk:
      return obs::SpanStatus::kOk;
    case OpStatus::kDegraded:
      return obs::SpanStatus::kDegraded;
    case OpStatus::kTimedOut:
      return obs::SpanStatus::kTimedOut;
    case OpStatus::kShutdown:
      // Threaded-runtime-only status; the DES client never produces it, but
      // a torn-down op maps naturally onto an expired one.
      return obs::SpanStatus::kTimedOut;
  }
  PQRA_CHECK(false, "unknown OpStatus");
  return obs::SpanStatus::kOk;
}

}  // namespace

QuorumRegisterClient::PendingOp& QuorumRegisterClient::emplace_pending(
    OpId op, Phase phase, RegisterId reg) {
  PendingOp* pending = nullptr;
  if (!pending_pool_.empty()) {
    auto node = std::move(pending_pool_.back());
    pending_pool_.pop_back();
    node.key() = op;
    node.mapped().reset();
    auto result = pending_.insert(std::move(node));
    PQRA_CHECK(result.inserted, "op id collision");
    pending = &result.position->second;
  } else {
    auto [it, inserted] = pending_.try_emplace(op);
    PQRA_CHECK(inserted, "op id collision");
    pending = &it->second;
  }
  pending->phase = phase;
  pending->reg = reg;
  pending->access.fault_bound = options_.fault_bound;
  const auto kind = phase == Phase::kWrite ? quorum::AccessKind::kWrite
                                           : quorum::AccessKind::kRead;
  pending->access.begin_phase(quorums_.quorum_size(kind));
  pending->started = simulator_.now();
  return *pending;
}

void QuorumRegisterClient::erase_pending(OpId op) {
  auto node = pending_.extract(op);
  if (!node.empty()) pending_pool_.push_back(std::move(node));
}

void QuorumRegisterClient::start_op(OpId op, PendingOp& pending) {
  begin_op_span(op, pending, /*is_write=*/!pending.is_read(), pending.reg);
  if (options_.retry.deadline.has_value()) {
    pending.has_deadline = true;
    pending.deadline_at = pending.started + *options_.retry.deadline;
  }
  send_to_quorum(op, pending);
  if (pending.has_deadline) arm_deadline(op);
}

void QuorumRegisterClient::read(RegisterId reg, ReadCallback cb) {
  PQRA_REQUIRE(static_cast<bool>(cb), "read needs a callback");
  OpId op = next_op_++;
  keys_.entry(reg);  // the register's record, probed again on completion
  PendingOp& pending = emplace_pending(op, Phase::kRead, reg);
  pending.read_cb = std::move(cb);
  if (history_ != nullptr) {
    pending.hist = history_->begin_read(self_, reg, simulator_.now());
    pending.has_hist = true;
  }
  start_op(op, pending);
}

void QuorumRegisterClient::read_snapshot(std::vector<RegisterId> regs,
                                         SnapshotCallback cb) {
  PQRA_REQUIRE(static_cast<bool>(cb), "snapshot read needs a callback");
  PQRA_REQUIRE(!regs.empty(), "snapshot read needs at least one register");
  PQRA_REQUIRE(!options_.write_back,
               "snapshot reads do not support atomic write-back");
  PQRA_REQUIRE(options_.ring == nullptr,
               "snapshot reads are whole-store accesses of one replica set; "
               "the sharded store reads per key (docs/SHARDING.md)");
  PQRA_REQUIRE(options_.fault_bound == 0,
               "snapshot reads do not support Byzantine masking");
  OpId op = next_op_++;
  PendingOp& pending = emplace_pending(op, Phase::kRead, net::kAllRegisters);
  pending.is_snapshot = true;
  pending.snap_cb = std::move(cb);
  for (RegisterId reg : regs) keys_.entry(reg);
  if (history_ != nullptr) {
    pending.snap_hists.reserve(regs.size());
    for (RegisterId reg : regs) {
      pending.snap_hists.push_back(
          history_->begin_read(self_, reg, simulator_.now()));
    }
    pending.has_hist = true;
  }
  pending.snap_regs = std::move(regs);
  start_op(op, pending);
}

void QuorumRegisterClient::write(RegisterId reg, Value value,
                                 WriteCallback cb) {
  PQRA_REQUIRE(static_cast<bool>(cb), "write needs a callback");
  OpId op = next_op_++;
  Timestamp ts = ++keys_.entry(reg).write_ts;
  PendingOp& pending = emplace_pending(op, Phase::kWrite, reg);
  pending.write_cb = std::move(cb);
  pending.write_ts = ts;
  pending.write_value = std::move(value);
  if (history_ != nullptr) {
    pending.hist = history_->begin_write(self_, reg, simulator_.now(), ts);
    pending.has_hist = true;
  }
  start_op(op, pending);
}

void QuorumRegisterClient::write_tagged(RegisterId reg, Value value,
                                        WriteCallback cb) {
  PQRA_REQUIRE(static_cast<bool>(cb), "write needs a callback");
  PQRA_REQUIRE(history_ == nullptr,
               "tagged writes are not recordable: the spec checkers assume "
               "one writer per register");
  PQRA_REQUIRE(self_ <= kWriterMask,
               "the client's NodeId is its writer id and must fit in 16 bits");
  OpId op = next_op_++;
  keys_.entry(reg);
  PendingOp& pending = emplace_pending(op, Phase::kTagQuery, reg);
  pending.write_cb = std::move(cb);
  pending.write_value = std::move(value);
  start_op(op, pending);
}

void QuorumRegisterClient::send_to_quorum(OpId op, PendingOp& pending) {
  const bool sends_reads = pending.sends_reads();
  auto kind =
      sends_reads ? quorum::AccessKind::kRead : quorum::AccessKind::kWrite;
  // Per-access quorum draw into reusable scratch: pick() samples in place,
  // so the steady-state access path allocates nothing here.
  quorums_.pick(kind, rng_, quorum_scratch_);
  if (options_.ring != nullptr) {
    // Sharded mode: ServerIds index the key's replica group, resolved on
    // every access, so a retry after a ring membership edit reaches the
    // key's new group.
    options_.ring->replica_group(pending.reg, quorums_.num_servers(),
                                 group_scratch_);
  }
  fanout_scratch_.clear();
  for (quorum::ServerId s : quorum_scratch_) {
    NodeId server = options_.ring != nullptr ? group_scratch_[s] : s;
    net::FanoutEntry entry{server, 0};
    if (pending.root_span != 0) {
      obs::SpanId rpc = options_.spans->begin(
          obs::SpanKind::kRpcAttempt, pending.root_span, self_,
          simulator_.now());
      obs::SpanRecord& rec = options_.spans->at(rpc);
      rec.reg = pending.reg;
      rec.op = op;
      rec.server = server;
      rec.attempt = pending.attempt + 1;
      pending.rpc_servers.push_back(server);
      pending.rpc_spans.push_back(rpc);
      entry.span = rpc;
    }
    fanout_scratch_.push_back(entry);
  }
  // One prototype per access instead of one message per server: the
  // transport stamps the per-target span ids and (SimTransport) schedules
  // the whole fan-out as a single batch.
  net::Message msg;
  if (sends_reads) {
    msg = net::Message::read_req(pending.reg, op);
  } else if (pending.phase == Phase::kWriteBack) {
    msg = net::Message::write_req(pending.reg, op, pending.access.best_ts,
                                  pending.access.best_value);
  } else {
    msg = net::Message::write_req(pending.reg, op, pending.write_ts,
                                  pending.write_value);
  }
  if (pending.root_span != 0) {
    msg.trace = options_.spans->at(pending.root_span).trace;
  }
  transport_.send_fanout(self_, fanout_scratch_.data(),
                         fanout_scratch_.size(), std::move(msg));
  if (options_.retry.rpc_timeout.has_value()) {
    arm_retry(op, pending.attempt);
  }
}

void QuorumRegisterClient::arm_retry(OpId op, std::uint32_t attempt) {
  sim::Time wait = options_.retry.backoff(attempt, retry_rng_);
  simulator_.schedule_in(wait, sim::EventTag::kRetryTimer, [this, op,
                                                           attempt, wait] {
    auto it = pending_.find(op);
    if (it == pending_.end() || it->second.attempt != attempt) {
      return;  // completed, or already retried by an older timer
    }
    PendingOp& pending = it->second;
    if (pending.has_deadline && simulator_.now() >= pending.deadline_at) {
      return;  // the deadline event settles this op
    }
    ++pending.attempt;
    ++counters_.retries;
    if (instruments_.retries != nullptr) instruments_.retries->inc();
    if (pending.root_span != 0) {
      // Recorded only when the timer actually fires and escalates, so a
      // completed op never leaves a dangling wait span.  The wait covers
      // [fire - backoff, fire].
      obs::SpanId waited = options_.spans->begin(
          obs::SpanKind::kRetryWait, pending.root_span, self_,
          simulator_.now() - wait);
      obs::SpanRecord& rec = options_.spans->at(waited);
      rec.reg = pending.reg;
      rec.op = op;
      rec.attempt = pending.attempt + 1;  // the attempt this wait leads to
      options_.spans->finish(waited, obs::SpanStatus::kOk, simulator_.now());
    }
    send_to_quorum(op, pending);
  });
}

void QuorumRegisterClient::arm_deadline(OpId op) {
  simulator_.schedule_in(*options_.retry.deadline, sim::EventTag::kDeadline,
                         [this, op] {
                           auto it = pending_.find(op);
                           if (it == pending_.end()) return;  // done in time
                           finish_deadline(op, it->second);
                         });
}

void QuorumRegisterClient::finish_deadline(OpId op, PendingOp& pending) {
  // A tagged write still querying has installed nothing: there is no
  // partial result to degrade to.
  if (pending.phase == Phase::kTagQuery ||
      pending.access.settle(options_.retry) == OpStatus::kTimedOut) {
    fail_op(op, pending);
    return;
  }
  pending.status = OpStatus::kDegraded;
  const auto n = static_cast<std::uint64_t>(quorums_.num_servers());
  const std::size_t acks = pending.access.responders.size();
  if (pending.phase == Phase::kWriteBack) {
    // The read itself resolved; only the write-back phase is short.  Deliver
    // the value — atomicity degrades, regularity does not.
    deliver_read(op, pending);
  } else if (pending.phase == Phase::kRead) {
    pending.staleness_bound = util::asymmetric_nonoverlap_probability(
        n, quorums_.quorum_size(quorum::AccessKind::kWrite), acks);
    if (pending.is_snapshot) {
      complete_snapshot(op, pending);
    } else {
      complete_read(op, pending);
    }
  } else {
    pending.staleness_bound = util::asymmetric_nonoverlap_probability(
        n, acks, quorums_.quorum_size(quorum::AccessKind::kRead));
    complete_write(op, pending);
  }
}

void QuorumRegisterClient::fail_op(OpId op, PendingOp& pending) {
  // The history record stays unresponded (the spec checkers skip open ops):
  // a failed operation never took effect at the register interface.  The
  // span *is* closed (kTimedOut): causal tracing exists precisely to show
  // where the deadline budget went.
  close_op_span(pending, obs::SpanStatus::kTimedOut, /*ts=*/0,
                /*from_cache=*/false);
  ++counters_.op_failures;
  if (instruments_.op_failures != nullptr) instruments_.op_failures->inc();
  if (pending.is_snapshot) {
    SnapshotCallback cb = std::move(pending.snap_cb);
    std::vector<ReadResult> results(pending.snap_regs.size());
    for (ReadResult& r : results) r.status = OpStatus::kTimedOut;
    erase_pending(op);
    cb(std::move(results));
  } else if (pending.is_read()) {
    ReadCallback cb = std::move(pending.read_cb);
    erase_pending(op);
    ReadResult result;
    result.status = OpStatus::kTimedOut;
    cb(std::move(result));
  } else {
    WriteCallback cb = std::move(pending.write_cb);
    WriteResult result;
    result.ts = pending.write_ts;
    result.status = OpStatus::kTimedOut;
    result.acks = pending.access.responders.size();
    erase_pending(op);
    cb(result);
  }
}

void QuorumRegisterClient::on_message(NodeId from, net::Message msg) {
  auto it = pending_.find(msg.op);
  if (it == pending_.end()) {
    return;  // ack for an operation that already completed (late or retried)
  }
  PendingOp& pending = it->second;
  PQRA_CHECK(msg.reg == pending.reg, "ack for the wrong register");
  const bool expects_read_acks = pending.sends_reads();
  if (expects_read_acks != (msg.type == net::MsgType::kReadAck)) {
    // Stale ack from the first phase of an op that has moved on to its
    // second (possible with retries); ignore.
    return;
  }
  // Deduplicate per server: with retries a server may answer twice.
  if (!pending.access.add_responder(from)) return;
  if (pending.root_span != 0) close_rpc_span(pending, from, msg.ts);

  if (expects_read_acks) {
    if (pending.is_snapshot) {
      for (Replica::StoreEntry& entry : Replica::decode_store(msg.value)) {
        TimestampedValue& best = pending.snap_best[entry.reg];
        if (entry.ts >= best.ts) {
          best.ts = entry.ts;
          best.value = std::move(entry.value);
        }
      }
    } else {
      // The per-responder timestamps feed read repair and the span root's
      // fresh-set (ε-intersection) annotation.
      if (options_.read_repair || pending.root_span != 0) {
        pending.responder_ts.push_back(msg.ts);
      }
      pending.access.add_answer(msg.ts, std::move(msg.value));
    }
  }
  if (!pending.access.complete()) return;

  switch (pending.phase) {
    case Phase::kRead:
      if (pending.is_snapshot) {
        complete_snapshot(msg.op, pending);
      } else {
        complete_read(msg.op, pending);
      }
      return;
    case Phase::kWriteBack:
      deliver_read(msg.op, pending);
      return;
    case Phase::kTagQuery: {
      // Install strictly above every tag seen AND every tag this writer
      // issued: the query can miss its own past writes on probabilistic
      // quorums.
      pending.access.select_answer();
      Timestamp& own = keys_.entry(pending.reg).write_ts;
      const std::uint64_t seen = unpack_tag(pending.access.best_ts).counter;
      const std::uint64_t counter = std::max(seen, unpack_tag(own).counter);
      own = pending.write_ts = pack_tag(Tag{counter + 1, self_});
      start_second_phase(msg.op, pending, Phase::kWrite);
      return;
    }
    case Phase::kWrite:
      complete_write(msg.op, pending);
      return;
  }
}

void QuorumRegisterClient::complete_snapshot(OpId op, PendingOp& pending) {
  std::vector<ReadResult> results;
  results.reserve(pending.snap_regs.size());
  for (std::size_t i = 0; i < pending.snap_regs.size(); ++i) {
    RegisterId reg = pending.snap_regs[i];
    TimestampedValue& best = pending.snap_best[reg];
    ReadResult result;
    result.ts = best.ts;
    result.value = std::move(best.value);
    result.status = pending.status;
    result.acks = pending.access.responders.size();
    result.staleness_bound = pending.staleness_bound;
    KeyState& key = keys_.entry(reg);
    Timestamp& seen = key.max_seen_ts;
    pending.stale_depth = seen > result.ts ? seen - result.ts : 0;
    if (options_.monotone &&
        QuorumAccess::serve_monotone(key.cached, result.ts, result.value)) {
      result.from_monotone_cache = true;
      ++counters_.monotone_cache_hits;
      if (instruments_.cache_hits != nullptr) instruments_.cache_hits->inc();
    }
    if (seen < result.ts) seen = result.ts;
    if (instruments_.stale_depth != nullptr) {
      instruments_.stale_depth->observe(
          static_cast<double>(pending.stale_depth));
    }
    if (pending.has_hist) {
      history_->end_read(pending.snap_hists[i], simulator_.now(), result.ts);
    }
    results.push_back(std::move(result));
  }
  read_latency_.add(simulator_.now() - pending.started);
  if (instruments_.read_latency != nullptr) {
    instruments_.read_latency->observe(simulator_.now() - pending.started);
  }
  if (instruments_.reads != nullptr) {
    instruments_.reads->inc(pending.snap_regs.size());
  }
  counters_.reads_completed += pending.snap_regs.size();
  if (pending.status == OpStatus::kDegraded) {
    counters_.degraded_reads += pending.snap_regs.size();
    if (instruments_.degraded_reads != nullptr) {
      instruments_.degraded_reads->inc(pending.snap_regs.size());
    }
  }
  close_op_span(pending, span_status_of(pending.status),
                /*ts=*/0, /*from_cache=*/false);
  SnapshotCallback cb = std::move(pending.snap_cb);
  erase_pending(op);
  cb(std::move(results));
}

void QuorumRegisterClient::complete_read(OpId op, PendingOp& pending) {
  QuorumAccess& access = pending.access;
  access.select_answer();
  KeyState& key = keys_.entry(pending.reg);
  // Staleness depth t is judged against the quorum's answer, before the
  // monotone cache papers over it — the cache is the cure, not the
  // measurement.
  pending.stale_depth =
      key.max_seen_ts > access.best_ts ? key.max_seen_ts - access.best_ts : 0;
  if (pending.root_span != 0) {
    // ε-intersection outcome: which responders held the quorum's freshest
    // timestamp — judged against the raw quorum answer for the same reason
    // as stale_depth above.
    for (std::size_t i = 0; i < pending.responder_ts.size(); ++i) {
      if (pending.responder_ts[i] == access.best_ts) {
        pending.fresh.push_back(access.responders[i]);
      }
    }
  }
  // The quorum may only have produced older values than this client already
  // returned; [R4] then requires re-returning the cached one (§6.2).
  if (options_.monotone &&
      QuorumAccess::serve_monotone(key.cached, access.best_ts,
                                   access.best_value)) {
    pending.from_cache = true;
    ++counters_.monotone_cache_hits;
    if (instruments_.cache_hits != nullptr) instruments_.cache_hits->inc();
  }
  key.max_seen_ts = std::max(key.max_seen_ts, access.best_ts);

  if (options_.read_repair) {
    send_read_repair(pending, access.best_ts, access.best_value);
  }

  if (options_.write_back && pending.status == OpStatus::kOk) {
    // Degraded reads skip the write-back phase: the deadline has already
    // expired, and the atomicity upgrade is forfeit anyway.
    start_second_phase(op, pending, Phase::kWriteBack);
    return;
  }
  deliver_read(op, pending);
}

void QuorumRegisterClient::send_read_repair(const PendingOp& pending,
                                            Timestamp ts, const Value& value) {
  if (ts == 0) return;  // nothing newer than the initial value to push
  // Fire-and-forget: acks arrive under an op id that is never pending.
  OpId repair_op = next_op_++;
  fanout_scratch_.clear();
  for (std::size_t i = 0; i < pending.responder_ts.size(); ++i) {
    if (pending.responder_ts[i] >= ts) continue;
    fanout_scratch_.push_back(
        net::FanoutEntry{pending.access.responders[i], 0});
    ++counters_.repairs_sent;
    if (instruments_.repairs != nullptr) instruments_.repairs->inc();
  }
  if (fanout_scratch_.empty()) return;
  transport_.send_fanout(self_, fanout_scratch_.data(),
                         fanout_scratch_.size(),
                         net::Message::write_req(pending.reg, repair_op, ts,
                                                 value));
}

void QuorumRegisterClient::start_second_phase(OpId op, PendingOp& pending,
                                              Phase phase) {
  if (phase == Phase::kWriteBack) {
    ++counters_.write_backs;
    if (instruments_.write_backs != nullptr) instruments_.write_backs->inc();
  }
  // First-phase RPC spans end here: a late ack of that phase is ignored by
  // on_message once the phase flips, so it must not be able to close
  // anything.
  if (pending.root_span != 0) close_open_rpc_spans(pending);
  pending.phase = phase;
  pending.access.begin_phase(quorums_.quorum_size(quorum::AccessKind::kWrite));
  ++pending.attempt;  // invalidate first-phase retry timers
  send_to_quorum(op, pending);
}

void QuorumRegisterClient::deliver_read(OpId op, PendingOp& pending) {
  ReadResult result;
  result.ts = pending.access.best_ts;
  result.value = std::move(pending.access.best_value);
  result.from_monotone_cache = pending.from_cache;
  result.status = pending.status;
  result.acks = pending.access.responders.size();
  result.staleness_bound = pending.staleness_bound;
  result.vouched = pending.access.vouched;
  if (pending.status == OpStatus::kDegraded) {
    ++counters_.degraded_reads;
    if (instruments_.degraded_reads != nullptr) {
      instruments_.degraded_reads->inc();
    }
  }
  if (pending.has_hist) {
    history_->end_read(pending.hist, simulator_.now(), result.ts);
  }
  read_latency_.add(simulator_.now() - pending.started);
  if (instruments_.read_latency != nullptr) {
    instruments_.read_latency->observe(simulator_.now() - pending.started);
  }
  if (instruments_.stale_depth != nullptr) {
    instruments_.stale_depth->observe(static_cast<double>(pending.stale_depth));
  }
  if (instruments_.reads != nullptr) instruments_.reads->inc();
  ++counters_.reads_completed;
  close_op_span(pending, span_status_of(pending.status), result.ts,
                result.from_monotone_cache);
  ReadCallback cb = std::move(pending.read_cb);
  erase_pending(op);
  cb(std::move(result));
}

void QuorumRegisterClient::complete_write(OpId op, PendingOp& pending) {
  if (pending.has_hist) {
    history_->end_write(pending.hist, simulator_.now());
  }
  write_latency_.add(simulator_.now() - pending.started);
  if (instruments_.write_latency != nullptr) {
    instruments_.write_latency->observe(simulator_.now() - pending.started);
  }
  if (instruments_.writes != nullptr) instruments_.writes->inc();
  ++counters_.writes_completed;
  if (pending.status == OpStatus::kDegraded) {
    ++counters_.degraded_writes;
    if (instruments_.degraded_writes != nullptr) {
      instruments_.degraded_writes->inc();
    }
  }
  Timestamp ts = pending.write_ts;
  Timestamp& seen = keys_.entry(pending.reg).max_seen_ts;
  seen = std::max(seen, ts);
  close_op_span(pending, span_status_of(pending.status), ts, false);
  WriteResult result;
  result.ts = ts;
  result.status = pending.status;
  result.acks = pending.access.responders.size();
  result.staleness_bound = pending.staleness_bound;
  WriteCallback cb = std::move(pending.write_cb);
  erase_pending(op);
  cb(result);
}

}  // namespace pqra::core
