// Multi-writer registers (§8): QuorumRegisterClient::write_tagged.

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>
#include <string>

#include "core/quorum_register_client.hpp"
#include "core/server_process.hpp"
#include "core/spec/history.hpp"
#include "net/sim_transport.hpp"
#include "quorum/majority.hpp"
#include "quorum/probabilistic.hpp"
#include "util/codec.hpp"

namespace pqra::core {
namespace {

/// n servers [0, n) and num_clients writers [n, n + num_clients); a client's
/// writer id is its NodeId.
struct MwCluster {
  MwCluster(std::size_t n, std::size_t num_clients,
            const quorum::QuorumSystem& qs, ClientOptions options = {},
            std::uint64_t seed = 1, spec::HistoryRecorder* history = nullptr)
      : delay(sim::make_exponential_delay(1.0)),
        transport(sim, *delay, util::Rng(seed),
                  static_cast<net::NodeId>(n + num_clients)) {
    for (std::size_t s = 0; s < n; ++s) {
      servers.push_back(std::make_unique<ServerProcess>(
          transport, static_cast<net::NodeId>(s)));
      servers.back()->replica().preload(0, util::encode<std::int64_t>(0));
    }
    for (std::size_t c = 0; c < num_clients; ++c) {
      clients.push_back(std::make_unique<QuorumRegisterClient>(
          sim, transport, static_cast<net::NodeId>(n + c), qs,
          util::Rng(seed).fork(900 + c), options, history));
    }
  }

  sim::Simulator sim;
  std::unique_ptr<sim::DelayModel> delay;
  net::SimTransport transport;
  std::vector<std::unique_ptr<ServerProcess>> servers;
  std::vector<std::unique_ptr<QuorumRegisterClient>> clients;
};

TEST(TagTest, PackUnpackRoundTrip) {
  for (Tag t : {Tag{0, 0}, Tag{1, 7}, Tag{12345678, 65535},
                Tag{(1ULL << 48) - 1, 42}}) {
    EXPECT_EQ(unpack_tag(pack_tag(t)), t);
  }
}

TEST(TagTest, PackingPreservesOrder) {
  EXPECT_LT(pack_tag({1, 9}), pack_tag({2, 1}));  // counter dominates
  EXPECT_LT(pack_tag({3, 1}), pack_tag({3, 2}));  // writer breaks ties
}

TEST(TagTest, OverflowRejected) {
  EXPECT_THROW(pack_tag({1ULL << 48, 0}), std::logic_error);
  EXPECT_THROW(pack_tag({0, 1u << 16}), std::logic_error);
}

TEST(MultiWriterTest, SingleWriterRoundTrip) {
  quorum::MajorityQuorums qs(5);
  MwCluster c(5, 1, qs);
  bool done = false;
  c.clients[0]->write_tagged(
      0, util::encode<std::int64_t>(10), [&](Timestamp ts) {
        const Tag tag = unpack_tag(ts);
        EXPECT_EQ(tag.counter, 1u);
        EXPECT_EQ(tag.writer, 5u);  // the client's NodeId
        c.clients[0]->read(0, [&](ReadResult r) {
          EXPECT_EQ(unpack_tag(r.ts), (Tag{1, 5}));
          EXPECT_EQ(util::decode<std::int64_t>(r.value), 10);
          done = true;
        });
      });
  c.sim.run();
  EXPECT_TRUE(done);
}

TEST(MultiWriterTest, SequentialWritersSeeEachOther) {
  // With strict quorums: writer 2's tag query must see writer 1's write,
  // so counters strictly increase across writers.
  quorum::MajorityQuorums qs(7);
  MwCluster c(7, 2, qs);
  bool done = false;
  c.clients[0]->write_tagged(
      0, util::encode<std::int64_t>(1), [&](Timestamp t1) {
        c.clients[1]->write_tagged(
            0, util::encode<std::int64_t>(2), [&, t1](Timestamp t2) {
              EXPECT_GT(t2, t1);
              EXPECT_EQ(unpack_tag(t2), (Tag{2, 8}));
              c.clients[0]->read(0, [&, t2](ReadResult r) {
                EXPECT_EQ(r.ts, t2);
                EXPECT_EQ(util::decode<std::int64_t>(r.value), 2);
                done = true;
              });
            });
      });
  c.sim.run();
  EXPECT_TRUE(done);
}

TEST(MultiWriterTest, ConcurrentWritersGetDistinctTags) {
  quorum::MajorityQuorums qs(7);
  MwCluster c(7, 4, qs);
  std::set<Timestamp> tags;
  int pending = 0;
  for (int round = 0; round < 10; ++round) {
    for (auto& client : c.clients) {
      ++pending;
      client->write_tagged(
          0, util::encode<std::int64_t>(round), [&](Timestamp ts) {
            EXPECT_TRUE(tags.insert(ts).second)
                << "duplicate tag " << unpack_tag(ts).counter << "/"
                << unpack_tag(ts).writer;
            --pending;
          });
    }
  }
  c.sim.run();
  EXPECT_EQ(pending, 0);
  EXPECT_EQ(tags.size(), 40u);
}

TEST(MultiWriterTest, TaggedWritesRetryPastCrashedServers) {
  // The multi-writer path is the client's own two-phase machinery, so it
  // inherits the single-writer recovery policy: each phase re-sends to a
  // fresh quorum while acks accumulate, past two crashed servers.
  quorum::ProbabilisticQuorums qs(6, 3);
  ClientOptions options;
  options.retry = RetryPolicy::fixed(4.0);
  MwCluster c(6, 1, qs, options, 5);
  QuorumRegisterClient& client = *c.clients[0];
  c.transport.faults().crash(0);
  c.transport.faults().crash(1);
  int done = 0;
  std::function<void(int)> chain = [&](int remaining) {
    if (remaining == 0) return;
    client.write_tagged(0, util::encode<std::int64_t>(remaining),
                        [&, remaining](WriteResult r) {
                          EXPECT_EQ(r.status, OpStatus::kOk);
                          ++done;
                          chain(remaining - 1);
                        });
  };
  chain(10);
  c.sim.run_until(10000.0);
  EXPECT_EQ(done, 10);
  EXPECT_GT(client.counters().retries, 0u);
  EXPECT_EQ(client.counters().writes_completed, 10u);
}

TEST(MultiWriterTest, TaggedWriteStillQueryingAtTheDeadlineFails) {
  // Two live servers of five never complete a majority tag query.  A plain
  // write in the same spot degrades on its two acks; a tagged write has
  // installed nothing yet, so it fails outright.
  quorum::MajorityQuorums qs(5);
  ClientOptions options;
  options.retry = RetryPolicy::fixed(2.0);
  options.retry.deadline = 20.0;
  options.retry.degraded_ok = true;
  MwCluster c(5, 1, qs, options);
  for (net::NodeId s = 2; s < 5; ++s) c.transport.faults().crash(s);
  OpStatus plain = OpStatus::kOk;
  OpStatus tagged = OpStatus::kOk;
  c.clients[0]->write(0, util::encode<std::int64_t>(1),
                      [&](WriteResult r) { plain = r.status; });
  c.clients[0]->write_tagged(1, util::encode<std::int64_t>(2),
                             [&](WriteResult r) { tagged = r.status; });
  c.sim.run_until(100.0);
  EXPECT_EQ(plain, OpStatus::kDegraded);
  EXPECT_EQ(tagged, OpStatus::kTimedOut);
  EXPECT_EQ(c.clients[0]->counters().op_failures, 1u);
}

TEST(MultiWriterTest, TaggedWriteRejectsABoundHistory) {
  // The spec checkers are single-writer: a tagged write cannot be recorded.
  quorum::MajorityQuorums qs(3);
  spec::HistoryRecorder history;
  MwCluster c(3, 1, qs, {}, 1, &history);
  EXPECT_THROW(c.clients[0]->write_tagged(0, util::encode<std::int64_t>(1),
                                          [](Timestamp) {}),
               std::logic_error);
}

// Probabilistic properties: each runs once at the seed it was written
// against and over the Seeds list below, so that a pass does not rest on
// one lucky quorum stream.

void tags_unique_on_probabilistic_quorums(std::uint64_t seed) {
  // Tiny quorums: tag queries miss constantly, counters collide across
  // writers — the writer-id component must keep tags unique.
  quorum::ProbabilisticQuorums qs(20, 2);
  MwCluster c(20, 3, qs, {}, seed);
  std::set<Timestamp> tags;
  int completed = 0;
  std::function<void(std::size_t, int)> chain = [&](std::size_t who,
                                                    int remaining) {
    if (remaining == 0) return;
    c.clients[who]->write_tagged(
        0, util::encode<std::int64_t>(remaining),
        [&, who, remaining](Timestamp t) {
          EXPECT_TRUE(tags.insert(t).second);
          ++completed;
          chain(who, remaining - 1);
        });
  };
  for (std::size_t who = 0; who < 3; ++who) chain(who, 25);
  c.sim.run();
  EXPECT_EQ(completed, 75);
  EXPECT_EQ(tags.size(), 75u);
}

void own_writes_always_advance(std::uint64_t seed) {
  // Even when the tag query misses this writer's own previous write
  // (probabilistic quorums), its next tag must still be larger.
  quorum::ProbabilisticQuorums qs(20, 1);
  MwCluster c(20, 1, qs, {}, seed);
  Timestamp last = 0;
  bool ordered = true;
  std::function<void(int)> chain = [&](int remaining) {
    if (remaining == 0) return;
    c.clients[0]->write_tagged(0, util::encode<std::int64_t>(remaining),
                               [&, remaining](Timestamp t) {
                                 if (!(last < t)) ordered = false;
                                 last = t;
                                 chain(remaining - 1);
                               });
  };
  chain(50);
  c.sim.run();
  EXPECT_TRUE(ordered);
  EXPECT_EQ(unpack_tag(last), (Tag{50, 20}));
}

void reads_return_some_written_value(std::uint64_t seed) {
  quorum::ProbabilisticQuorums qs(12, 3);
  MwCluster c(12, 2, qs, {}, seed);
  std::map<Timestamp, std::int64_t> written{{0, 0}};  // initial
  int reads = 0;
  std::function<void(int)> loop = [&](int remaining) {
    if (remaining == 0) return;
    c.clients[0]->write_tagged(
        0, util::encode<std::int64_t>(remaining), [&, remaining](Timestamp t) {
          written[t] = remaining;
          c.clients[1]->read(0, [&, remaining](ReadResult r) {
            auto it = written.find(r.ts);
            ASSERT_NE(it, written.end()) << "read returned a never-written tag";
            EXPECT_EQ(util::decode<std::int64_t>(r.value), it->second);
            ++reads;
            loop(remaining - 1);
          });
        });
  };
  loop(30);
  c.sim.run();
  EXPECT_EQ(reads, 30);
}

void monotone_mode_never_regresses(std::uint64_t seed) {
  quorum::ProbabilisticQuorums qs(20, 2);
  ClientOptions options;
  options.monotone = true;
  MwCluster c(20, 2, qs, options, seed);
  Timestamp last = 0;
  bool regressed = false;
  std::function<void(int)> loop = [&](int remaining) {
    if (remaining == 0) return;
    c.clients[0]->write_tagged(
        0, util::encode<std::int64_t>(remaining), [&, remaining](Timestamp) {
          c.clients[1]->read(0, [&, remaining](ReadResult r) {
            if (r.ts < last) regressed = true;
            last = r.ts;
            loop(remaining - 1);
          });
        });
  };
  loop(60);
  c.sim.run();
  EXPECT_FALSE(regressed);
}

TEST(MultiWriterTest, TagsUniqueEvenOnProbabilisticQuorums) {
  tags_unique_on_probabilistic_quorums(7);
}

TEST(MultiWriterTest, OwnWritesAlwaysAdvance) { own_writes_always_advance(3); }

TEST(MultiWriterTest, ReadsReturnSomeWrittenValueOrInitial) {
  reads_return_some_written_value(11);
}

TEST(MultiWriterTest, MonotoneModeNeverRegresses) {
  monotone_mode_never_regresses(13);
}

class MultiWriterProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MultiWriterProperty, TagsUniqueEvenOnProbabilisticQuorums) {
  tags_unique_on_probabilistic_quorums(GetParam());
}

TEST_P(MultiWriterProperty, OwnWritesAlwaysAdvance) {
  own_writes_always_advance(GetParam());
}

TEST_P(MultiWriterProperty, ReadsReturnSomeWrittenValueOrInitial) {
  reads_return_some_written_value(GetParam());
}

TEST_P(MultiWriterProperty, MonotoneModeNeverRegresses) {
  monotone_mode_never_regresses(GetParam());
}

INSTANTIATE_TEST_SUITE_P(Seeds, MultiWriterProperty,
                         ::testing::Values(1u, 2u, 42u, 1337u, 99991u),
                         [](const auto& info) {
                           return "seed_" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace pqra::core
