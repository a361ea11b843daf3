/// Crash-replay-compare property suite (docs/DURABILITY.md): seeded DES
/// schedules — single-key and multi-key, under churn, message faults and
/// injected storage faults — run with every server on a MemDisk-backed
/// DurableStore, and every recovery is cross-checked by the explore
/// runner's crash-replay-compare oracle against an independent replay of
/// the durable bytes.  The suite also pins the pre-durability fingerprints
/// of the first five explore seeds: with durability off (the from_seed
/// default), the durable layer must not perturb a single event — and with
/// durability ON but no storage faults, a run must stay byte-identical to
/// its non-durable twin (appends and checkpoints happen inside existing
/// events and draw nothing from the schedule's RNG streams).
///
/// Each property case is parameterized by its seed, which appears in the
/// test name, so a violation reproduces with one --gtest_filter invocation.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "explore/profile.hpp"
#include "explore/runner.hpp"
#include "net/fault_plan.hpp"
#include "util/rng.hpp"

namespace pqra::explore {
namespace {

/// A durable schedule under combined fault pressure: seeded server churn,
/// message drop/duplicate/reorder, a torn WAL sync and an fsync-loss
/// window.  Every churn recovery replays the durable prefix and is
/// verified by the oracle.
ScheduleProfile durable_churn_profile(std::uint64_t seed, bool multikey) {
  ScheduleProfile p;
  p.seed = seed;
  p.num_servers = 5;
  p.quorum_size = 2;
  p.num_clients = 3;
  p.ops_per_client = 30;
  p.delay = {sim::DelaySpec::Kind::kExponential, 1.0};
  p.horizon = 100.0;
  p.durable = true;
  p.snapshot_every = seed % 3 == 0 ? 0 : 8;  // cover both log regimes
  if (multikey) {
    p.keys_per_client = 4;
    p.key_skew = 0.6;
  }

  util::Rng churn_rng(seed ^ 0xD00DULL);
  p.faults = net::FaultPlan::random_churn(p.num_servers, p.horizon,
                                          /*mean_uptime=*/20.0,
                                          /*mean_downtime=*/8.0, churn_rng);
  p.faults.add({.at = 30.0, .kind = net::FaultKind::kTornWrite, .node = 1})
      .add({.at = 40.0, .kind = net::FaultKind::kFsyncLoss, .node = 2})
      .add({.at = 55.0, .kind = net::FaultKind::kClearFsyncLoss, .node = 2});
  net::MessageFaults mf;
  mf.drop_probability = 0.02;
  mf.duplicate_probability = 0.02;
  mf.reorder_probability = 0.1;
  mf.reorder_delay_max = 2.0;
  p.faults.with_message_faults(mf);
  return p;
}

class DurabilityProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DurabilityProperty, RecoveriesMatchTheDurablePrefixUnderChurn) {
  const std::uint64_t seed = GetParam();
  for (const bool multikey : {false, true}) {
    const ScheduleProfile p = durable_churn_profile(seed, multikey);
    const RunOutcome a = run_profile(p);
    EXPECT_FALSE(a.violation)
        << "seed " << seed << (multikey ? " multikey" : " single-key")
        << ": " << a.rule << " — " << a.detail;
    EXPECT_GT(a.ops_checked, 0u) << "seed " << seed;

    // Fingerprint reproducibility: the whole durable machinery (MemDisk
    // fault draws included) is a pure function of the profile.
    const RunOutcome b = run_profile(p);
    EXPECT_EQ(a.fingerprint, b.fingerprint) << "seed " << seed;
    EXPECT_EQ(a.events_processed, b.events_processed) << "seed " << seed;
    EXPECT_EQ(a.ops_checked, b.ops_checked) << "seed " << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DurabilityProperty,
                         ::testing::Values(1u, 7u, 42u, 1337u, 99991u),
                         [](const auto& info) {
                           return "seed_" + std::to_string(info.param);
                         });

// The PR's acceptance bar, pinned: the first five explore seeds produce
// the exact fingerprints they produced before the durability layer
// existed.  If attaching the (disabled) durable path perturbs one event,
// these literals catch it.
TEST(DurabilityBaselineTest, PreDurabilityFingerprintsAreUnchanged) {
  struct Pin {
    std::uint64_t seed;
    std::uint64_t fingerprint;
    std::uint64_t events;
    std::uint64_t ops;
  };
  const Pin pins[] = {
      {0, 15431178167941431951ULL, 1454, 128},
      {1, 9556332026587393316ULL, 715, 93},
      {2, 12543841290810932016ULL, 13740, 52},
      {3, 9317799082449797467ULL, 181, 48},
      {4, 7740429695388118119ULL, 372, 37},
      // Client phases seeds 0-4 never reach: write-back + read repair (11),
      // snapshot reads (19), two writers per key + read repair (32).
      {11, 7605767021303204420ULL, 750, 76},
      {19, 1627200833178441631ULL, 1396, 130},
      {32, 7970137909269995537ULL, 1151, 76},
  };
  for (const Pin& pin : pins) {
    const ScheduleProfile p = ScheduleProfile::from_seed(pin.seed);
    ASSERT_FALSE(p.durable) << "seed " << pin.seed;
    const RunOutcome out = run_profile(p);
    EXPECT_FALSE(out.violation) << "seed " << pin.seed << ": " << out.detail;
    EXPECT_EQ(out.fingerprint, pin.fingerprint) << "seed " << pin.seed;
    EXPECT_EQ(out.events_processed, pin.events) << "seed " << pin.seed;
    EXPECT_EQ(out.ops_checked, pin.ops) << "seed " << pin.seed;
  }
}

// With durability ON but no storage faults, the durable layer adds zero
// simulator events and draws nothing: the run is byte-identical to its
// non-durable twin.  (Seeds 2–4 are direct-workload seeds; alg1 profiles
// don't take the durable layer.)
TEST(DurabilityBaselineTest, DurableTwinIsByteIdenticalWithoutStorageFaults) {
  for (const std::uint64_t seed : {2u, 3u, 4u}) {
    const ScheduleProfile p = ScheduleProfile::from_seed(seed);
    ASSERT_FALSE(p.alg1) << "seed " << seed;
    ScheduleProfile twin = p;
    twin.durable = true;
    twin.snapshot_every = 8;

    const RunOutcome plain = run_profile(p);
    const RunOutcome durable = run_profile(twin);
    EXPECT_EQ(plain.fingerprint, durable.fingerprint) << "seed " << seed;
    EXPECT_EQ(plain.events_processed, durable.events_processed)
        << "seed " << seed;
    EXPECT_EQ(plain.ops_checked, durable.ops_checked) << "seed " << seed;
    EXPECT_FALSE(durable.violation) << "seed " << seed << ": "
                                    << durable.detail;
  }
}

}  // namespace
}  // namespace pqra::explore
