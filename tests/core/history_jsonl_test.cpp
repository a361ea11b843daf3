#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "apps/apsp.hpp"
#include "apps/graph.hpp"
#include "core/spec/batch.hpp"
#include "core/spec/history.hpp"
#include "iter/alg1_des.hpp"
#include "net/fault_plan.hpp"
#include "obs/metrics.hpp"
#include "obs/names.hpp"
#include "obs/span.hpp"
#include "quorum/probabilistic.hpp"
#include "util/rng.hpp"

/// The operation history is the one per-operation record of a run: the spec
/// checkers read it and experiment_cli report=DIR writes it as JSONL.  These
/// tests pin the JSONL format, the shared line reader's number handling, and
/// that a written history re-reads into the verdict the run got.

namespace pqra {
namespace {

using core::spec::OpKind;
using core::spec::OpRecord;

constexpr std::uint64_t kTwoTo53Plus1 = 9007199254740993ULL;

OpRecord sample_read() {
  OpRecord rec;
  rec.kind = OpKind::kRead;
  rec.proc = 35;
  rec.reg = 2;
  rec.invoke = 4.0;
  rec.response = 6.5;
  rec.responded = true;
  rec.ts = 3;
  return rec;
}

OpRecord sample_write() {
  OpRecord rec;
  rec.kind = OpKind::kWrite;
  rec.proc = 40;
  rec.reg = 0;
  rec.invoke = 6.5;
  rec.response = 8.0;
  rec.responded = true;
  rec.ts = 4;
  return rec;
}

/// A write still in flight when the run ended: no response yet.  Its
/// timestamp, 2^53 + 1, has no exact double.
OpRecord pending_write() {
  OpRecord rec = sample_write();
  rec.invoke = 9.25;
  rec.response = 0.0;
  rec.responded = false;
  rec.ts = kTwoTo53Plus1;
  return rec;
}

std::string to_jsonl(const std::vector<OpRecord>& ops) {
  std::ostringstream out;
  core::spec::write_history_jsonl(ops, out);
  return out.str();
}

std::vector<OpRecord> from_jsonl(const std::string& text) {
  std::istringstream in(text);
  return core::spec::parse_history_jsonl(in);
}

/// Expects \p text to be rejected with an error naming line \p line.
void expect_rejected(const std::string& text, const std::string& line) {
  try {
    from_jsonl(text);
    ADD_FAILURE() << "accepted: " << text;
  } catch (const std::logic_error& e) {
    EXPECT_NE(std::string(e.what()).find("line " + line), std::string::npos)
        << e.what();
  }
}

TEST(OpTraceJsonlTest, RoundTripsExactly) {
  const std::vector<OpRecord> ops{sample_read(), sample_write(),
                                  pending_write()};
  EXPECT_EQ(from_jsonl(to_jsonl(ops)), ops);
}

TEST(OpTraceJsonlTest, ParserIsFieldOrderInsensitive) {
  const std::vector<OpRecord> ops = from_jsonl(
      R"({"reg":2,"op":"read","ts":3,"proc":35,"response":6.5,"invoke":4,)"
      R"("responded":true})");
  ASSERT_EQ(ops.size(), 1u);
  EXPECT_EQ(ops[0], sample_read());
}

TEST(OpTraceJsonlTest, SkipsBlankLines) {
  EXPECT_EQ(from_jsonl("\n" + to_jsonl({sample_read()}) + "\n  \n").size(),
            1u);
}

TEST(OpTraceJsonlTest, RejectsMalformedInput) {
  expect_rejected(
      R"({"op":"read","proc":0,"reg":0,"invoke":0,"response":0,)"
      R"("responded":true,"ts":0,"bogus":1})",
      "1");
  expect_rejected("reads=12", "1");
  expect_rejected(R"({"op":"scan","proc":0})", "1");
  expect_rejected(R"({"responded":maybe})", "1");
  expect_rejected(R"({"ts":3} tail)", "1");
  expect_rejected(R"({"ts":3,})", "1");
}

TEST(OpTraceJsonlTest, ErrorsCarryLineNumbers) {
  // Blank lines do not add records but DO advance the line number the
  // error reports — it must match what an editor shows.
  std::istringstream in(to_jsonl({sample_read(), sample_write()}) +
                        "\n{\"bogus\":1}\n");
  try {
    core::spec::parse_history_jsonl(in);
    FAIL() << "expected a parse error";
  } catch (const std::logic_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("parse_history_jsonl: line 4"), std::string::npos)
        << what;
    EXPECT_NE(what.find("unknown key"), std::string::npos) << what;
  }
}

TEST(OpTraceJsonlTest, RejectsOutOfRangeNumbers) {
  std::istringstream overflow(R"({"invoke":1e999})");
  try {
    core::spec::parse_history_jsonl(overflow);
    FAIL() << "expected a range error";
  } catch (const std::logic_error& e) {
    EXPECT_NE(std::string(e.what()).find("number out of range"),
              std::string::npos)
        << e.what();
  }
  // Integer fields are read as integers: a sign, a fraction, an exponent
  // or a value wider than the field is an error, never a silent cast.
  const std::string valid = to_jsonl({sample_read()});
  for (const char* bad :
       {R"({"ts":1.5})", R"({"ts":1e3})", R"({"ts":-1})", R"({"ts":+1})",
        R"({"ts":18446744073709551616})", R"({"proc":-1})",
        R"({"proc":4294967296})", R"({"reg":4294967296})"}) {
    expect_rejected(valid + bad, "2");
  }
  EXPECT_EQ(from_jsonl(R"({"proc":4294967295,"ts":18446744073709551615})")[0]
                .ts,
            UINT64_MAX);
}

TEST(OpTraceSinkTest, RecordInitialMatchesHistoryConvention) {
  core::spec::HistoryRecorder history;
  history.record_initial(3);
  ASSERT_EQ(history.size(), 1u);
  const OpRecord& rec = history.ops()[0];
  EXPECT_EQ(rec.kind, OpKind::kWrite);
  EXPECT_EQ(rec.proc, 0u);
  EXPECT_EQ(rec.reg, 3u);
  EXPECT_EQ(rec.ts, 0u);
  EXPECT_TRUE(rec.responded);
  EXPECT_DOUBLE_EQ(rec.invoke, 0.0);
  EXPECT_DOUBLE_EQ(rec.response, 0.0);
}

/// JSONL -> records -> JSONL is byte-identical, pending records included.
TEST(TraceBridgeTest, ConvertsBothDirections) {
  const std::string text =
      "{\"op\":\"write\",\"proc\":0,\"reg\":1,\"invoke\":0,\"response\":0,"
      "\"responded\":true,\"ts\":0}\n"
      "{\"op\":\"read\",\"proc\":35,\"reg\":1,\"invoke\":4,\"response\":6.5,"
      "\"responded\":true,\"ts\":3}\n"
      "{\"op\":\"write\",\"proc\":40,\"reg\":1,\"invoke\":2.25,\"response\":0,"
      "\"responded\":false,\"ts\":3}\n";
  const std::vector<OpRecord> ops = from_jsonl(text);
  ASSERT_EQ(ops.size(), 3u);
  EXPECT_EQ(ops[1].kind, OpKind::kRead);
  EXPECT_DOUBLE_EQ(ops[1].response, 6.5);
  EXPECT_FALSE(ops[2].responded);
  EXPECT_EQ(to_jsonl(ops), text);
}

/// Parse-or-reject over every prefix truncation and every single-byte
/// substitution of a valid 3-line file, in both JSONL formats the tree
/// reads: each attempt either parses or throws std::logic_error naming a
/// line — never another exception, a crash or a silent wrap.
TEST(JsonlSweepTest, TruncationsAndSubstitutionsParseOrReject) {
  obs::SpanSink sink;
  obs::SpanId root = sink.begin(obs::SpanKind::kClientOp, 0, 9, 1.0);
  sink.at(root).op = kTwoTo53Plus1;
  sink.at(root).quorum = {0, 3};
  obs::SpanId rpc = sink.begin(obs::SpanKind::kRpcAttempt, root, 9, 1.5);
  sink.finish(rpc, obs::SpanStatus::kUnanswered, 2.0);
  sink.begin(obs::SpanKind::kRetryWait, root, 9, 2.0);
  std::ostringstream spans;
  obs::write_spans_jsonl(sink.spans(), spans);

  struct Format {
    std::string text;
    void (*parse)(const std::string&);
  };
  const Format formats[] = {
      {to_jsonl({sample_read(), sample_write(), pending_write()}),
       [](const std::string& t) { from_jsonl(t); }},
      {spans.str(),
       [](const std::string& t) {
         std::istringstream in(t);
         obs::parse_spans_jsonl(in);
       }},
  };
  const std::string alphabet = "{}[]\":,-+.eE09a\\ \nx\xff";
  for (const Format& format : formats) {
    ASSERT_EQ(std::count(format.text.begin(), format.text.end(), '\n'), 3);
    std::vector<std::string> inputs;
    for (std::size_t len = 0; len <= format.text.size(); ++len) {
      inputs.push_back(format.text.substr(0, len));
    }
    for (std::size_t pos = 0; pos < format.text.size(); ++pos) {
      for (char c : alphabet) {
        if (format.text[pos] == c) continue;
        std::string mutated = format.text;
        mutated[pos] = c;
        inputs.push_back(std::move(mutated));
      }
    }
    std::size_t rejected = 0;
    for (const std::string& input : inputs) {
      try {
        format.parse(input);
      } catch (const std::logic_error& e) {
        ++rejected;
        ASSERT_NE(std::string(e.what()).find(": line "), std::string::npos)
            << e.what() << "\n" << input;
      } catch (...) {
        FAIL() << "non-logic_error exception on:\n" << input;
      }
    }
    EXPECT_GT(rejected, inputs.size() / 2);
  }
}

/// Runs Alg. 1 with the history recorded, and returns it as re-read from
/// its JSONL export.
std::vector<OpRecord> run_and_reread(const iter::AcoOperator& op,
                                     iter::Alg1Options options,
                                     iter::Alg1Result* result = nullptr) {
  options.record_history = true;
  iter::Alg1Result r = iter::run_alg1(op, options);
  EXPECT_TRUE(r.converged);
  if (r.history == nullptr) {
    ADD_FAILURE() << "record_history set but no history returned";
    return {};
  }
  const std::string text = to_jsonl(r.history->ops());
  std::vector<OpRecord> ops = from_jsonl(text);
  EXPECT_EQ(ops, r.history->ops());
  if (result != nullptr) *result = std::move(r);
  return ops;
}

/// The rules experiment_cli checks before writing a history: R2,
/// single-writer and R4 (monotone clients).  R1 does not apply, since runs
/// stop at convergence with operations still pending.
core::spec::BatchResult cli_rules(const std::vector<OpRecord>& ops) {
  core::spec::BatchOptions rules;
  rules.r1 = false;
  rules.r4 = true;
  return core::spec::check_batch(ops, rules);
}

/// End-to-end: a DES run's exported history re-reads into a history the
/// register-spec checkers accept, fault-free and under churn, and the
/// instruments in every layer are nonzero.
TEST(Alg1ObservabilityTest, TraceReplaysThroughSpecCheckers) {
  apps::Graph g = apps::make_chain(6);
  apps::ApspOperator op(g);
  quorum::ProbabilisticQuorums quorums(8, 3);

  obs::Registry registry(obs::Concurrency::kSingleThread);
  iter::Alg1Options options;
  options.quorums = &quorums;
  options.seed = 7;
  options.metrics = &registry;
  const std::vector<OpRecord> ops = run_and_reread(op, options);
  const core::spec::BatchResult check = cli_rules(ops);
  EXPECT_TRUE(check.ok()) << check.summary();

  namespace names = obs::names;
  EXPECT_GT(registry.counter(names::kClientReads).value(), 0u);
  EXPECT_GT(registry.counter(names::kClientWrites).value(), 0u);
  EXPECT_GT(registry.counter(names::kServerRequests).value(), 0u);
  EXPECT_GT(registry.counter(names::kTransportMessages).value(), 0u);
  EXPECT_GT(registry.counter(names::kSimEvents).value(), 0u);
  EXPECT_GT(registry.gauge(names::kSimHeapHighWater).value(), 0.0);
  EXPECT_GT(registry.histogram(names::kClientReadLatency).count(), 0u);

  // The history and the registry agree on completed operations (minus the
  // m initial-value pseudo-writes the history carries for [R2]).
  std::size_t reads = 0, writes = 0;
  for (const OpRecord& rec : ops) {
    if (rec.responded) (rec.kind == OpKind::kRead ? reads : writes) += 1;
  }
  EXPECT_EQ(reads, registry.counter(names::kClientReads).value());
  EXPECT_EQ(writes, registry.counter(names::kClientWrites).value() +
                        op.num_components());

  // Under churn, reads can return a write that is still in flight when the
  // run converges.  The history keeps that write's record; a
  // completion-only export would not, and would fail [R2].  The run is
  // experiment_cli app=apsp size=12 churn=0.5 seed=3's run 0.
  apps::ApspOperator op12(apps::make_chain(12));
  quorum::ProbabilisticQuorums quorums12(12, 4);
  util::Rng churn_rng(3);
  net::FaultPlan plan = net::FaultPlan::random_churn(
      12, /*horizon=*/2000.0, /*mean_uptime=*/80.0, /*mean_downtime=*/80.0,
      churn_rng);
  core::RetryPolicy retry;
  retry.rpc_timeout = 10.0;
  retry.backoff_factor = 2.0;
  retry.max_backoff = 40.0;
  retry.jitter = 0.1;
  iter::Alg1Options churned;
  churned.quorums = &quorums12;
  churned.seed = 3;
  churned.round_cap = 20000;
  churned.fault_plan = &plan;
  churned.retry = retry;
  churned.max_sim_time = 50000.0;
  const std::vector<OpRecord> faulted = run_and_reread(op12, churned);
  const core::spec::BatchResult faulted_check = cli_rules(faulted);
  EXPECT_TRUE(faulted_check.ok()) << faulted_check.summary();
  std::vector<OpRecord> completed;
  for (const OpRecord& rec : faulted) {
    if (rec.responded) completed.push_back(rec);
  }
  EXPECT_FALSE(core::spec::check_r2(completed).ok)
      << "the churned run left no read of an in-flight write; pick a "
         "schedule that does";
}

/// Instrumentation must not change what the DES does: the same seed gives
/// the identical execution with and without a registry attached.
TEST(Alg1ObservabilityTest, MetricsDoNotPerturbDeterminism) {
  apps::Graph g = apps::make_chain(5);
  apps::ApspOperator op(g);
  quorum::ProbabilisticQuorums quorums(8, 3);

  iter::Alg1Options plain;
  plain.quorums = &quorums;
  plain.seed = 11;
  plain.synchronous = false;  // exponential delays: orderings are fragile
  iter::Alg1Result bare = iter::run_alg1(op, plain);

  obs::Registry registry(obs::Concurrency::kSingleThread);
  iter::Alg1Options instrumented = plain;
  instrumented.metrics = &registry;
  iter::Alg1Result with_metrics;
  const std::vector<OpRecord> first =
      run_and_reread(op, instrumented, &with_metrics);

  EXPECT_EQ(bare.converged, with_metrics.converged);
  EXPECT_EQ(bare.rounds, with_metrics.rounds);
  EXPECT_EQ(bare.iterations, with_metrics.iterations);
  EXPECT_DOUBLE_EQ(bare.sim_time, with_metrics.sim_time);
  EXPECT_EQ(bare.messages.total, with_metrics.messages.total);
  EXPECT_EQ(bare.fingerprint, with_metrics.fingerprint);

  // And the history itself is reproducible record-for-record.
  obs::Registry registry2(obs::Concurrency::kSingleThread);
  iter::Alg1Options again = instrumented;
  again.metrics = &registry2;
  EXPECT_EQ(run_and_reread(op, again), first);
}

}  // namespace
}  // namespace pqra
