#include "obs/span.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "apps/apsp.hpp"
#include "apps/graph.hpp"
#include "iter/alg1_des.hpp"
#include "obs/metrics.hpp"
#include "obs/names.hpp"
#include "quorum/probabilistic.hpp"

namespace pqra {
namespace {

/// A small closed tree: one client op with two RPC attempts and a retry
/// wait, fully annotated the way the register client does it.
obs::SpanSink make_closed_tree() {
  obs::SpanSink sink;
  obs::SpanId root = sink.begin(obs::SpanKind::kClientOp, 0, /*proc=*/9, 1.0);
  sink.at(root).reg = 2;
  sink.at(root).op = 5;
  obs::SpanId rpc0 =
      sink.begin(obs::SpanKind::kRpcAttempt, root, /*proc=*/9, 1.0);
  sink.at(rpc0).server = 0;
  obs::SpanId rpc1 =
      sink.begin(obs::SpanKind::kRpcAttempt, root, /*proc=*/9, 1.0);
  sink.at(rpc1).server = 3;
  sink.finish(rpc0, obs::SpanStatus::kOk, 2.0);
  obs::SpanId wait =
      sink.begin(obs::SpanKind::kRetryWait, root, /*proc=*/9, 2.5);
  sink.finish(wait, obs::SpanStatus::kOk, 4.0);
  sink.finish(rpc1, obs::SpanStatus::kUnanswered, 4.5);
  sink.at(root).ts = 7;
  sink.at(root).quorum = {0, 3};
  sink.at(root).fresh = {0};
  sink.finish(root, obs::SpanStatus::kOk, 4.5);
  return sink;
}

TEST(SpanSinkTest, BuildsCausalTreeWithInheritedTraceIds) {
  obs::SpanSink sink = make_closed_tree();
  ASSERT_EQ(sink.size(), 4u);
  EXPECT_EQ(sink.open_spans(), 0u);
  const std::vector<obs::SpanRecord>& spans = sink.spans();
  // Root starts a trace named after itself; children inherit it.
  EXPECT_EQ(spans[0].parent, 0u);
  EXPECT_EQ(spans[0].trace, spans[0].id);
  for (std::size_t i = 1; i < spans.size(); ++i) {
    EXPECT_EQ(spans[i].parent, spans[0].id);
    EXPECT_EQ(spans[i].trace, spans[0].trace);
    EXPECT_LT(spans[i].parent, spans[i].id);  // parents precede children
  }
  EXPECT_NO_THROW(sink.check(/*require_closed=*/true));
}

TEST(SpanSinkTest, DoubleCloseThrows) {
  obs::SpanSink sink;
  obs::SpanId id = sink.begin(obs::SpanKind::kClientOp, 0, 0, 1.0);
  sink.finish(id, obs::SpanStatus::kOk, 2.0);
  EXPECT_THROW(sink.finish(id, obs::SpanStatus::kOk, 3.0), std::logic_error);
}

TEST(SpanSinkTest, EndBeforeStartThrows) {
  obs::SpanSink sink;
  obs::SpanId id = sink.begin(obs::SpanKind::kClientOp, 0, 0, 5.0);
  EXPECT_THROW(sink.finish(id, obs::SpanStatus::kOk, 4.0), std::logic_error);
}

TEST(SpanSinkTest, ClosingAsOpenThrows) {
  obs::SpanSink sink;
  obs::SpanId id = sink.begin(obs::SpanKind::kClientOp, 0, 0, 1.0);
  EXPECT_THROW(sink.finish(id, obs::SpanStatus::kOpen, 2.0),
               std::logic_error);
}

TEST(SpanSinkTest, ParentMustExist) {
  obs::SpanSink sink;
  EXPECT_THROW(sink.begin(obs::SpanKind::kRpcAttempt, /*parent=*/7, 0, 1.0),
               std::logic_error);
  EXPECT_THROW(sink.at(1), std::logic_error);
}

TEST(SpanSinkTest, CheckRequireClosedFlagsOpenSpans) {
  obs::SpanSink sink;
  sink.begin(obs::SpanKind::kClientOp, 0, 0, 1.0);
  EXPECT_EQ(sink.open_spans(), 1u);
  EXPECT_NO_THROW(sink.check(/*require_closed=*/false));
  EXPECT_THROW(sink.check(/*require_closed=*/true), std::logic_error);
}

TEST(SpanSinkTest, SamplingIsDeterministicInSeedProcOp) {
  obs::SpanSink::Options opts;
  opts.seed = 42;
  opts.sample_period = 4;
  obs::SpanSink a(opts), b(opts);
  std::size_t hits = 0;
  for (std::uint32_t proc = 0; proc < 8; ++proc) {
    for (std::uint64_t op = 0; op < 128; ++op) {
      EXPECT_EQ(a.sampled(proc, op), b.sampled(proc, op));
      hits += a.sampled(proc, op);
    }
  }
  // ~1/4 of 1024 decisions; loose bounds, the point is "neither all nor
  // none" while staying a pure function of the inputs.
  EXPECT_GT(hits, 1024u / 8);
  EXPECT_LT(hits, 1024u / 2);

  // Edge periods: 1 samples everything, 0 samples nothing.
  obs::SpanSink all(obs::SpanSink::Options{42, 1});
  obs::SpanSink none(obs::SpanSink::Options{42, 0});
  EXPECT_TRUE(all.sampled(3, 17));
  EXPECT_FALSE(none.sampled(3, 17));

  // A different seed picks a different subset (with overwhelming
  // probability over 1024 decisions).
  obs::SpanSink other(obs::SpanSink::Options{43, 4});
  bool differs = false;
  for (std::uint64_t op = 0; op < 1024 && !differs; ++op) {
    differs = a.sampled(0, op) != other.sampled(0, op);
  }
  EXPECT_TRUE(differs);
}

TEST(SpanSinkTest, PublishFoldsCountersIntoRegistry) {
  obs::SpanSink sink = make_closed_tree();
  sink.begin(obs::SpanKind::kClientOp, 0, 1, 9.0);  // one left open
  obs::Registry registry(obs::Concurrency::kSingleThread);
  sink.publish(registry);
  namespace n = obs::names;
  EXPECT_EQ(registry.counter(n::kSpanStarted).value(), 5u);
  EXPECT_EQ(registry.counter(n::kSpanCompleted).value(), 4u);
  EXPECT_DOUBLE_EQ(registry.gauge(n::kSpanOpen).value(), 1.0);
  EXPECT_EQ(registry.counter(n::kSpanByKind[0]).value(), 2u);  // client_op
  EXPECT_EQ(registry.counter(n::kSpanByKind[1]).value(), 2u);  // rpc_attempt
  EXPECT_EQ(registry.counter(n::kSpanByKind[2]).value(), 1u);  // retry_wait
  EXPECT_EQ(registry.counter(n::kSpanByKind[3]).value(), 0u);
}

TEST(SpanJsonlTest, RoundTripsExactly) {
  obs::SpanSink sink = make_closed_tree();
  // 2^53 + 1 has no double; an op id must still come back exactly.
  sink.at(1).op = 9007199254740993ULL;
  std::ostringstream out;
  obs::write_spans_jsonl(sink.spans(), out);
  std::istringstream in(out.str());
  EXPECT_EQ(obs::parse_spans_jsonl(in), sink.spans());
  std::istringstream widest(R"({"id":18446744073709551615})");
  EXPECT_EQ(obs::parse_spans_jsonl(widest)[0].id, UINT64_MAX);
}

TEST(SpanJsonlTest, SkipsBlankLines) {
  obs::SpanSink sink = make_closed_tree();
  std::ostringstream out;
  obs::write_spans_jsonl(sink.spans(), out);
  std::istringstream in("\n" + out.str() + "\n  \n");
  EXPECT_EQ(obs::parse_spans_jsonl(in).size(), sink.size());
}

/// Parse failures must name the 1-based line of the offending record.
TEST(SpanJsonlTest, ErrorsCarryLineNumbers) {
  obs::SpanSink sink = make_closed_tree();
  std::ostringstream out;
  obs::write_spans_jsonl(sink.spans(), out);
  std::istringstream in(out.str() + "{\"bogus\":1}\n");
  try {
    obs::parse_spans_jsonl(in);
    FAIL() << "expected a parse error";
  } catch (const std::logic_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("line 5"), std::string::npos) << what;
    EXPECT_NE(what.find("unknown key"), std::string::npos) << what;
  }
}

TEST(SpanJsonlTest, RejectsMalformedInput) {
  std::istringstream not_json("spans=12");
  EXPECT_THROW(obs::parse_spans_jsonl(not_json), std::logic_error);
  std::istringstream truncated(R"({"id":1,"parent":0)");
  EXPECT_THROW(obs::parse_spans_jsonl(truncated), std::logic_error);
  std::istringstream bad_kind(R"({"kind":"teleport"})");
  EXPECT_THROW(obs::parse_spans_jsonl(bad_kind), std::logic_error);
  std::istringstream bad_status(R"({"status":"maybe"})");
  EXPECT_THROW(obs::parse_spans_jsonl(bad_status), std::logic_error);
  std::istringstream overflow(R"({"start":1e999})");
  try {
    obs::parse_spans_jsonl(overflow);
    FAIL() << "expected a range error";
  } catch (const std::logic_error& e) {
    EXPECT_NE(std::string(e.what()).find("out of range"), std::string::npos)
        << e.what();
  }
  std::istringstream trailing(R"({"id":1} tail)");
  EXPECT_THROW(obs::parse_spans_jsonl(trailing), std::logic_error);
  // Integer fields are read as integers: a sign, a fraction, an exponent
  // or a value wider than the field is a line-numbered error.
  for (const char* bad :
       {R"({"id":-1})", R"({"id":1.5})", R"({"op":2e3})", R"({"op":+4})",
        R"({"id":18446744073709551616})", R"({"proc":-1})",
        R"({"server":4294967296})", R"({"quorum":[1,-2]})"}) {
    std::istringstream in(std::string("\n") + bad);
    try {
      obs::parse_spans_jsonl(in);
      ADD_FAILURE() << "accepted: " << bad;
    } catch (const std::logic_error& e) {
      EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos)
          << e.what();
    }
  }
}

/// The per-operation view: every client_op root draws as one
/// "read rN"/"write rN" slice in its client's lane.
TEST(ChromeTraceTest, EmitsCompleteEventsPerProcess) {
  obs::SpanSink sink;
  obs::SpanId read = sink.begin(obs::SpanKind::kClientOp, 0, /*proc=*/35, 4.0);
  sink.at(read).reg = 2;
  obs::SpanId rpc = sink.begin(obs::SpanKind::kRpcAttempt, read, 35, 4.0);
  sink.finish(rpc, obs::SpanStatus::kOk, 5.0);
  sink.finish(read, obs::SpanStatus::kOk, 6.5);
  obs::SpanId write =
      sink.begin(obs::SpanKind::kClientOp, 0, /*proc=*/40, 6.5);
  sink.at(write).is_write = true;
  sink.finish(write, obs::SpanStatus::kOk, 8.0);
  std::ostringstream out;
  obs::write_spans_chrome(sink.spans(), out);
  const std::string text = out.str();
  EXPECT_NE(text.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(text.find("{\"name\":\"read r2\",\"cat\":\"client_op\","
                      "\"ph\":\"X\",\"pid\":0,\"tid\":35,\"ts\":4000,"
                      "\"dur\":2500"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("{\"name\":\"write r0\",\"cat\":\"client_op\","
                      "\"ph\":\"X\",\"pid\":0,\"tid\":40,"),
            std::string::npos)
      << text;
  // One lane per proc: thread_name metadata for both 35 and 40.
  EXPECT_NE(text.find("\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,"
                      "\"tid\":35"),
            std::string::npos);
  EXPECT_NE(text.find("\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,"
                      "\"tid\":40"),
            std::string::npos);
}

TEST(SpanChromeTest, EmitsStableSortedBytesRegardlessOfInputOrder) {
  obs::SpanSink sink = make_closed_tree();
  std::vector<obs::SpanRecord> shuffled = sink.spans();
  std::swap(shuffled[0], shuffled[3]);
  std::swap(shuffled[1], shuffled[2]);
  std::ostringstream a, b;
  obs::write_spans_chrome(sink.spans(), a);
  obs::write_spans_chrome(shuffled, b);
  EXPECT_EQ(a.str(), b.str());

  const std::string text = a.str();
  EXPECT_NE(text.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(text.find("\"read r2\""), std::string::npos);
  EXPECT_NE(text.find("\"rpc_attempt s3\""), std::string::npos);
  EXPECT_NE(text.find("\"retry_wait\""), std::string::npos);
  EXPECT_NE(text.find("\"thread_name\""), std::string::npos);
  EXPECT_NE(text.find("\"quorum\":\"0 3\""), std::string::npos);
  EXPECT_NE(text.find("\"fresh\":\"0\""), std::string::npos);
}

TEST(SpanChromeTest, RejectsNonPositiveTimeScale) {
  obs::SpanSink sink = make_closed_tree();
  std::ostringstream out;
  EXPECT_THROW(obs::write_spans_chrome(sink.spans(), out, 0.0),
               std::logic_error);
  EXPECT_THROW(obs::write_spans_chrome(sink.spans(), out, -3.0),
               std::logic_error);
}

/// End-to-end: an Alg. 1 DES run with a span sink produces a structurally
/// valid forest whose roots/kinds line up with the client protocol, and is
/// reproducible record-for-record.
TEST(SpanAlg1Test, RunProducesValidReproducibleSpans) {
  apps::Graph g = apps::make_chain(5);
  apps::ApspOperator op(g);
  quorum::ProbabilisticQuorums quorums(8, 3);

  auto run = [&](obs::SpanSink& sink) {
    iter::Alg1Options options;
    options.quorums = &quorums;
    options.seed = 7;
    options.spans = &sink;
    iter::Alg1Result r = iter::run_alg1(op, options);
    ASSERT_TRUE(r.converged);
  };
  obs::SpanSink first, second;
  run(first);
  run(second);
  EXPECT_GT(first.size(), 0u);
  EXPECT_EQ(first.spans(), second.spans());
  // Convergence truncates the run with ops in flight, so open spans are
  // legal — but the structure must audit clean.
  EXPECT_NO_THROW(first.check(/*require_closed=*/false));

  std::size_t roots = 0, rpc = 0, handled = 0;
  for (const obs::SpanRecord& rec : first.spans()) {
    if (rec.kind == obs::SpanKind::kClientOp) {
      EXPECT_EQ(rec.parent, 0u);
      ++roots;
    } else {
      EXPECT_NE(rec.parent, 0u);
      rpc += rec.kind == obs::SpanKind::kRpcAttempt;
      handled += rec.kind == obs::SpanKind::kServerHandle;
    }
    if (rec.kind == obs::SpanKind::kServerHandle) {
      // Replica-side spans are parented on the RPC attempt that carried
      // the request, through the message headers.
      EXPECT_EQ(first.spans()[rec.parent - 1].kind,
                obs::SpanKind::kRpcAttempt);
    }
    if (!rec.open && rec.kind == obs::SpanKind::kClientOp &&
        rec.status == obs::SpanStatus::kOk) {
      EXPECT_FALSE(rec.quorum.empty());
    }
  }
  EXPECT_GT(roots, 0u);
  EXPECT_GT(rpc, 0u);
  EXPECT_GT(handled, 0u);
}

}  // namespace
}  // namespace pqra
