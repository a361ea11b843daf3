#include "core/byzantine.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "core/quorum_register_client.hpp"
#include "core/server_process.hpp"
#include "net/sim_transport.hpp"
#include "quorum/probabilistic.hpp"
#include "util/codec.hpp"
#include "util/math.hpp"

namespace pqra::core {
namespace {

/// n servers, the first \p byzantine of which lie in the given mode, and one
/// client masking up to \p fault_bound of them.
struct ByzCluster {
  ByzCluster(std::size_t n, std::size_t byzantine, ByzantineMode mode,
             std::size_t fault_bound, const quorum::QuorumSystem& qs,
             std::uint64_t seed = 1, ClientOptions options = {})
      : delay(sim::make_constant_delay(1.0)),
        transport(sim, *delay, util::Rng(seed),
                  static_cast<net::NodeId>(n + 1)),
        client(sim, transport, static_cast<net::NodeId>(n), qs,
               util::Rng(seed).fork(55), with_bound(options, fault_bound)) {
    for (std::size_t s = 0; s < n; ++s) {
      if (s < byzantine) {
        liars.push_back(std::make_unique<ByzantineServerProcess>(
            transport, static_cast<net::NodeId>(s), mode));
      } else {
        honest.push_back(std::make_unique<ServerProcess>(
            transport, static_cast<net::NodeId>(s)));
        honest.back()->replica().preload(0, util::encode<std::int64_t>(0));
      }
    }
  }

  static ClientOptions with_bound(ClientOptions options, std::size_t b) {
    options.fault_bound = b;
    return options;
  }

  sim::Simulator sim;
  std::unique_ptr<sim::DelayModel> delay;
  net::SimTransport transport;
  std::vector<std::unique_ptr<ByzantineServerProcess>> liars;
  std::vector<std::unique_ptr<ServerProcess>> honest;
  QuorumRegisterClient client;
};

constexpr Timestamp kFabricatedTs = 1ULL << 40;

TEST(MaskingMathTest, HypergeometricPmfSmallCases) {
  // Population 5, 2 marked, draw 2: P[0]=3/10, P[1]=6/10, P[2]=1/10.
  EXPECT_NEAR(util::hypergeometric_pmf(5, 2, 2, 0), 0.3, 1e-12);
  EXPECT_NEAR(util::hypergeometric_pmf(5, 2, 2, 1), 0.6, 1e-12);
  EXPECT_NEAR(util::hypergeometric_pmf(5, 2, 2, 2), 0.1, 1e-12);
  EXPECT_NEAR(util::hypergeometric_cdf(5, 2, 2, 2), 1.0, 1e-12);
}

TEST(MaskingMathTest, ErrorProbabilityDecreasesWithK) {
  double prev = 1.0;
  for (std::uint64_t k = 5; k <= 50; k += 5) {
    double e = util::masking_error_probability(100, k, 2);
    EXPECT_LE(e, prev + 1e-12) << "k=" << k;
    prev = e;
  }
  EXPECT_LT(util::masking_error_probability(100, 40, 2), 1e-6);
}

TEST(MaskingMathTest, ZeroFaultBoundReducesToPlainOverlap) {
  // b = 0: error = P[|R ∩ W| = 0] = the §4 nonoverlap probability.
  for (std::uint64_t k : {1u, 3u, 6u}) {
    EXPECT_NEAR(util::masking_error_probability(34, k, 0),
                util::quorum_nonoverlap_probability(34, k), 1e-12);
  }
}

TEST(ByzantineTest, CleanClusterBehavesLikeARegister) {
  // Quorums of 6 of 10 overlap in >= 2 = b+1 servers: always vouched.
  quorum::ProbabilisticQuorums qs(10, 6);
  ByzCluster c(10, 0, ByzantineMode::kStaleLie, 1, qs);
  bool done = false;
  c.client.write(0, util::encode<std::int64_t>(9), [&](Timestamp ts) {
    EXPECT_EQ(ts, 1u);
    c.client.read(0, [&](ReadResult r) {
      EXPECT_TRUE(r.vouched);
      EXPECT_EQ(r.ts, 1u);
      EXPECT_EQ(util::decode<std::int64_t>(r.value), 9);
      done = true;
    });
  });
  c.sim.run();
  EXPECT_TRUE(done);
}

TEST(ByzantineTest, TooSmallQuorumsReportUnvouchedInsteadOfLying) {
  // k = 2 with fault bound 2 can never produce 3 vouchers: every read must
  // come back unvouched — the client refuses to guess.
  quorum::ProbabilisticQuorums qs(10, 2);
  ByzCluster c(10, 2, ByzantineMode::kFabricateHighTs, 2, qs, 11);
  int vouched = 0;
  int total = 0;
  std::function<void(int)> loop = [&](int remaining) {
    if (remaining == 0) return;
    c.client.read(0, [&, remaining](ReadResult r) {
      ++total;
      if (r.vouched) ++vouched;
      EXPECT_EQ(r.ts, 0u);
      loop(remaining - 1);
    });
  };
  loop(20);
  c.sim.run();
  EXPECT_EQ(total, 20);
  EXPECT_EQ(vouched, 0);
}

TEST(ByzantineTest, MaskingReadRetriesPastACrashedHonestReplica) {
  // Quorums of 7 of 10 include a given server 70% of the time, so some of
  // these reads draw the crashed honest replica and can only gather their
  // 7 answers on a retry to a fresh quorum.  Without the retry policy such
  // a read never completes.
  quorum::ProbabilisticQuorums qs(10, 7);
  ClientOptions options;
  options.retry = RetryPolicy::fixed(5.0);
  ByzCluster c(10, 1, ByzantineMode::kFabricateHighTs, 1, qs, 21, options);
  c.transport.faults().crash(9);
  int reads = 0;
  int fabricated = 0;
  std::function<void(int)> loop = [&](int remaining) {
    if (remaining == 0) return;
    c.client.write(0, util::encode<std::int64_t>(remaining),
                   [&, remaining](Timestamp) {
                     c.client.read(0, [&, remaining](ReadResult r) {
                       EXPECT_EQ(r.status, OpStatus::kOk);
                       EXPECT_EQ(r.acks, 7u);
                       ++reads;
                       if (r.ts >= kFabricatedTs) ++fabricated;
                       loop(remaining - 1);
                     });
                   });
  };
  loop(20);
  c.sim.run();
  EXPECT_EQ(reads, 20);
  EXPECT_EQ(fabricated, 0);
  EXPECT_GT(c.client.counters().retries, 0u);
}

TEST(ByzantineTest, SnapshotReadsRejectMasking) {
  quorum::ProbabilisticQuorums qs(4, 3);
  ByzCluster c(4, 0, ByzantineMode::kStaleLie, 1, qs);
  EXPECT_THROW(c.client.read_snapshot({0}, [](std::vector<ReadResult>) {}),
               std::logic_error);
}

// Probabilistic properties: each runs once at the seed it was written
// against and over the Seeds list below, so that a pass does not rest on
// one lucky quorum stream.

void fabrications_never_accepted_within_bound(std::uint64_t seed) {
  // b = 2 colluding fabricators, fault bound 2: they can never assemble the
  // required 3 vouchers, so across many reads the fabricated timestamp must
  // never be returned.
  quorum::ProbabilisticQuorums qs(12, 8);
  ByzCluster c(12, 2, ByzantineMode::kFabricateHighTs, 2, qs, seed);
  int fabricated = 0;
  int vouched_reads = 0;
  std::function<void(int)> loop = [&](int remaining) {
    if (remaining == 0) return;
    c.client.write(0, util::encode<std::int64_t>(remaining),
                   [&, remaining](Timestamp) {
                     c.client.read(0, [&, remaining](ReadResult r) {
                       if (r.vouched) {
                         ++vouched_reads;
                         if (r.ts >= kFabricatedTs) ++fabricated;
                       }
                       loop(remaining - 1);
                     });
                   });
  };
  loop(50);
  c.sim.run();
  EXPECT_GT(vouched_reads, 25);
  EXPECT_EQ(fabricated, 0);
}

void exceeding_bound_allows_deception(std::uint64_t seed) {
  // 4 colluders against a client masking only b = 2: quorums of 8 of 12
  // usually include >= 3 colluders, whose identical lie now has enough
  // vouchers and the giant timestamp wins.
  quorum::ProbabilisticQuorums qs(12, 8);
  ByzCluster c(12, 4, ByzantineMode::kFabricateHighTs, 2, qs, seed);
  int fabricated = 0;
  std::function<void(int)> loop = [&](int remaining) {
    if (remaining == 0) return;
    c.client.write(0, util::encode<std::int64_t>(remaining),
                   [&, remaining](Timestamp) {
                     c.client.read(0, [&, remaining](ReadResult r) {
                       if (r.vouched && r.ts >= kFabricatedTs) ++fabricated;
                       loop(remaining - 1);
                     });
                   });
  };
  loop(30);
  c.sim.run();
  EXPECT_GT(fabricated, 0) << "beyond the bound, collusion must win sometimes";
}

void stale_liars_cost_freshness_not_safety(std::uint64_t seed) {
  // Three liars answer (0, empty); masking b = 3 they never reach 4
  // vouchers.  A vouched read returns the fresh value (ts 1) or the genuine
  // initial (ts 0) — never junk; too few honest vouchers only cost
  // freshness or the vouch itself.
  quorum::ProbabilisticQuorums qs(12, 8);
  ByzCluster c(12, 3, ByzantineMode::kStaleLie, 3, qs, seed);
  int vouched = 0;
  std::function<void(int)> loop = [&](int remaining) {
    if (remaining == 0) return;
    c.client.read(0, [&, remaining](ReadResult r) {
      if (r.vouched) {
        ++vouched;
        ASSERT_LE(r.ts, 1u);
        EXPECT_EQ(util::decode<std::int64_t>(r.value), r.ts == 1 ? 4 : 0);
      }
      loop(remaining - 1);
    });
  };
  c.client.write(0, util::encode<std::int64_t>(4),
                 [&](Timestamp) { loop(20); });
  c.sim.run();
  EXPECT_GT(vouched, 0);
}

void corrupted_values_are_outvoted(std::uint64_t seed) {
  quorum::ProbabilisticQuorums qs(10, 7);
  ByzCluster c(10, 2, ByzantineMode::kCorruptValue, 2, qs, seed);
  int bad_payload = 0;
  std::function<void(int)> loop = [&](int remaining) {
    if (remaining == 0) return;
    c.client.write(0, util::encode<std::int64_t>(remaining),
                   [&, remaining](Timestamp ts) {
                     c.client.read(0, [&, remaining, ts](ReadResult r) {
                       if (r.vouched && r.ts == ts &&
                           util::decode<std::int64_t>(r.value) != remaining) {
                         ++bad_payload;
                       }
                       loop(remaining - 1);
                     });
                   });
  };
  loop(40);
  c.sim.run();
  EXPECT_EQ(bad_payload, 0);
}

TEST(ByzantineTest, FabricatedValuesNeverAcceptedWithinTheFaultBound) {
  fabrications_never_accepted_within_bound(7);
}

TEST(ByzantineTest, ExceedingTheFaultBoundAllowsDeception) {
  exceeding_bound_allows_deception(7);
}

TEST(ByzantineTest, StaleLiarsCostFreshnessNotSafety) {
  stale_liars_cost_freshness_not_safety(5);
}

TEST(ByzantineTest, CorruptedValuesAreOutvoted) {
  corrupted_values_are_outvoted(3);
}

class ByzantineProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ByzantineProperty, FabricatedValuesNeverAcceptedWithinTheFaultBound) {
  fabrications_never_accepted_within_bound(GetParam());
}

TEST_P(ByzantineProperty, ExceedingTheFaultBoundAllowsDeception) {
  exceeding_bound_allows_deception(GetParam());
}

TEST_P(ByzantineProperty, StaleLiarsCostFreshnessNotSafety) {
  stale_liars_cost_freshness_not_safety(GetParam());
}

TEST_P(ByzantineProperty, CorruptedValuesAreOutvoted) {
  corrupted_values_are_outvoted(GetParam());
}

INSTANTIATE_TEST_SUITE_P(Seeds, ByzantineProperty,
                         ::testing::Values(1u, 2u, 42u, 1337u, 99991u),
                         [](const auto& info) {
                           return "seed_" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace pqra::core
