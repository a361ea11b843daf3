#include "core/blocking_register.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "obs/names.hpp"
#include "util/check.hpp"
#include "util/math.hpp"

namespace pqra::core {

namespace {

double wall_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::chrono::steady_clock::duration seconds_duration(double s) {
  return std::chrono::duration_cast<std::chrono::steady_clock::duration>(
      std::chrono::duration<double>(s));
}

}  // namespace

BlockingRegisterClient::BlockingRegisterClient(
    net::ThreadTransport& transport, NodeId self,
    const quorum::QuorumSystem& quorums, const util::Rng& rng,
    bool monotone, obs::Registry* metrics, RetryPolicy retry)
    : transport_(transport),
      self_(self),
      quorums_(quorums),
      rng_(rng.fork(0x626c6f636b000000ULL ^ self)),
      retry_rng_(rng.fork(0x7265747279000000ULL ^ self)),
      monotone_(monotone),
      retry_(retry) {
  if (metrics != nullptr) {
    PQRA_REQUIRE(metrics->mode() == obs::Concurrency::kThreadSafe,
                 "BlockingRegisterClient needs a thread-safe registry");
    namespace n = obs::names;
    instruments_.reads = &metrics->counter(n::kClientReads, "Reads completed");
    instruments_.writes =
        &metrics->counter(n::kClientWrites, "Writes completed");
    instruments_.cache_hits = &metrics->counter(
        n::kClientCacheHits, "Reads served from the monotone cache (§6.2)");
    instruments_.retries = &metrics->counter(
        n::kClientRetries, "Operations retried on a fresh quorum");
    instruments_.degraded_reads = &metrics->counter(
        n::kClientDegradedReads,
        "Reads completed on a partial access set at the deadline");
    instruments_.degraded_writes = &metrics->counter(
        n::kClientDegradedWrites,
        "Writes completed on a partial access set at the deadline");
    instruments_.op_failures = &metrics->counter(
        n::kClientOpFailures, "Operations that timed out outright");
    instruments_.read_latency = &metrics->histogram(
        n::kClientReadLatency, "Read latency, invocation to response");
    instruments_.write_latency = &metrics->histogram(
        n::kClientWriteLatency, "Write latency, invocation to response");
  }
}

BlockingRegisterClient::Await BlockingRegisterClient::await_acks(
    OpId op, net::MsgType expected, QuorumAccess& access,
    const std::optional<Clock::time_point>& until) {
  while (!access.complete()) {
    std::optional<net::Envelope> env =
        until.has_value() ? transport_.recv_until(self_, *until)
                          : transport_.recv(self_);
    if (!env.has_value()) {
      return transport_.closed() ? Await::kShutdown : Await::kTimeout;
    }
    if (env->msg.op != op || env->msg.type != expected) {
      continue;  // stale ack from an earlier (completed) operation
    }
    if (!access.add_responder(env->from)) continue;
    if (expected == net::MsgType::kReadAck) {
      access.add_answer(env->msg.ts, std::move(env->msg.value));
    }
  }
  return Await::kDone;
}

OpStatus BlockingRegisterClient::run_op(RegisterId reg, bool is_read, OpId op,
                                        Timestamp write_ts,
                                        const Value& write_value,
                                        QuorumAccess& access) {
  const auto kind =
      is_read ? quorum::AccessKind::kRead : quorum::AccessKind::kWrite;
  const net::MsgType expected =
      is_read ? net::MsgType::kReadAck : net::MsgType::kWriteAck;
  access.begin_phase(quorums_.quorum_size(kind));

  std::optional<Clock::time_point> deadline_at;
  if (retry_.deadline.has_value()) {
    deadline_at = Clock::now() + seconds_duration(*retry_.deadline);
  }

  std::uint32_t attempt = 0;
  for (;;) {
    // Each attempt contacts a freshly sampled quorum; acks accumulate across
    // attempts under the same op id.
    std::vector<quorum::ServerId> quorum = quorums_.sample(kind, rng_);
    for (quorum::ServerId s : quorum) {
      if (is_read) {
        transport_.send(self_, s, net::Message::read_req(reg, op));
      } else {
        transport_.send(self_, s,
                        net::Message::write_req(reg, op, write_ts,
                                                write_value));
      }
    }

    std::optional<Clock::time_point> until = deadline_at;
    if (retry_.rpc_timeout.has_value()) {
      double wait = retry_.backoff(attempt, retry_rng_);
      Clock::time_point attempt_until = Clock::now() + seconds_duration(wait);
      until = until.has_value() ? std::min(*until, attempt_until)
                                : attempt_until;
    }

    Await out = await_acks(op, expected, access, until);
    if (out == Await::kDone) return OpStatus::kOk;
    if (out == Await::kShutdown) return OpStatus::kShutdown;
    const bool deadline_hit =
        deadline_at.has_value() && Clock::now() >= *deadline_at;
    if (deadline_hit || !retry_.rpc_timeout.has_value()) {
      // Out of budget (or no retries configured at all): settle.
      return access.settle(retry_);
    }
    ++attempt;
    ++retries_;
    if (instruments_.retries != nullptr) instruments_.retries->inc();
  }
}

std::optional<BlockingReadResult> BlockingRegisterClient::read(RegisterId reg) {
  OpId op = next_op_++;
  const double started = wall_seconds();
  QuorumAccess access;
  const OpStatus status =
      run_op(reg, /*is_read=*/true, op, 0, Value{}, access);
  last_status_ = status;
  if (status == OpStatus::kShutdown) return std::nullopt;
  if (status == OpStatus::kTimedOut) {
    ++op_failures_;
    if (instruments_.op_failures != nullptr) instruments_.op_failures->inc();
    return std::nullopt;
  }

  BlockingReadResult result;
  result.status = status;
  result.acks = access.responders.size();
  if (status == OpStatus::kDegraded) {
    result.staleness_bound = util::asymmetric_nonoverlap_probability(
        quorums_.num_servers(),
        quorums_.quorum_size(quorum::AccessKind::kWrite), result.acks);
    if (instruments_.degraded_reads != nullptr) {
      instruments_.degraded_reads->inc();
    }
  }
  if (monotone_ &&
      QuorumAccess::serve_monotone(keys_.entry(reg).cached, access.best_ts,
                                   access.best_value)) {
    result.from_monotone_cache = true;
    ++monotone_cache_hits_;
    if (instruments_.cache_hits != nullptr) instruments_.cache_hits->inc();
  }
  result.ts = access.best_ts;
  result.value = std::move(access.best_value);
  const double elapsed = wall_seconds() - started;
  read_latency_.add(elapsed);
  if (instruments_.reads != nullptr) instruments_.reads->inc();
  if (instruments_.read_latency != nullptr) {
    instruments_.read_latency->observe(elapsed);
  }
  return result;
}

std::optional<Timestamp> BlockingRegisterClient::write(RegisterId reg,
                                                       Value value) {
  OpId op = next_op_++;
  const double started = wall_seconds();
  Timestamp ts = ++keys_.entry(reg).write_ts;
  QuorumAccess access;
  const OpStatus status =
      run_op(reg, /*is_read=*/false, op, ts, value, access);
  last_status_ = status;
  if (status == OpStatus::kShutdown) return std::nullopt;
  if (status == OpStatus::kTimedOut) {
    ++op_failures_;
    if (instruments_.op_failures != nullptr) instruments_.op_failures->inc();
    return std::nullopt;
  }
  if (status == OpStatus::kDegraded &&
      instruments_.degraded_writes != nullptr) {
    instruments_.degraded_writes->inc();
  }
  const double elapsed = wall_seconds() - started;
  write_latency_.add(elapsed);
  if (instruments_.writes != nullptr) instruments_.writes->inc();
  if (instruments_.write_latency != nullptr) {
    instruments_.write_latency->observe(elapsed);
  }
  return ts;
}

}  // namespace pqra::core
