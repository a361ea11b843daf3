#include "core/blocking_register.hpp"

#include <utility>

#include "util/check.hpp"

namespace pqra::core {

namespace {

ClientOptions blocking_options(bool monotone, obs::Registry* metrics,
                               const RetryPolicy& retry) {
  PQRA_REQUIRE(metrics == nullptr ||
                   metrics->mode() == obs::Concurrency::kThreadSafe,
               "BlockingRegisterClient needs a thread-safe registry");
  ClientOptions options;
  options.monotone = monotone;
  options.metrics = metrics;
  options.retry = retry;
  return options;
}

}  // namespace

BlockingRegisterClient::BlockingRegisterClient(
    net::ThreadTransport& transport, NodeId self,
    const quorum::QuorumSystem& quorums, const util::Rng& rng, bool monotone,
    obs::Registry* metrics, RetryPolicy retry)
    : transport_(transport),
      epoch_(Clock::now()),
      client_(timers_, transport, self, quorums, rng,
              blocking_options(monotone, metrics, retry)) {}

sim::Time BlockingRegisterClient::elapsed() const {
  return std::chrono::duration<double>(Clock::now() - epoch_).count();
}

std::uint64_t BlockingRegisterClient::begin_op() {
  ++current_;
  outcome_.reset();
  timers_.run_until(elapsed());
  return current_;
}

bool BlockingRegisterClient::finish_op() {
  while (!outcome_.has_value()) {
    // Sleep on the mailbox until an ack arrives or the next timer is due.
    const std::optional<sim::Time> next = timers_.next_event_time();
    std::optional<net::Envelope> env;
    if (next.has_value()) {
      const std::chrono::duration<double> due(*next);
      env = transport_.recv_until(
          id(), epoch_ + std::chrono::ceil<Clock::duration>(due));
    } else {
      env = transport_.recv(id());
    }
    if (!env.has_value() && transport_.closed()) {
      last_status_ = OpStatus::kShutdown;
      return false;
    }
    timers_.run_until(elapsed());
    if (env.has_value()) client_.on_message(env->from, std::move(env->msg));
  }
  last_status_ = *outcome_;
  return last_status_ != OpStatus::kTimedOut;
}

std::optional<ReadResult> BlockingRegisterClient::read(RegisterId reg) {
  const std::uint64_t op = begin_op();
  client_.read(reg, [this, op](ReadResult result) {
    if (op != current_) return;
    outcome_ = result.status;
    read_ = std::move(result);
  });
  if (!finish_op()) return std::nullopt;
  return std::move(read_);
}

std::optional<Timestamp> BlockingRegisterClient::write(RegisterId reg,
                                                       Value value) {
  const std::uint64_t op = begin_op();
  client_.write(reg, std::move(value), [this, op](WriteResult result) {
    if (op != current_) return;
    outcome_ = result.status;
    written_ = result.ts;
  });
  if (!finish_op()) return std::nullopt;
  return written_;
}

}  // namespace pqra::core
