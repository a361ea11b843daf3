/// Explore-layer coverage for the durability dimensions (docs/DURABILITY.md
/// + docs/EXPLORATION.md): the durability knobs serialize/parse
/// byte-identically and default correctly on pre-durability replay files,
/// from_seed never draws them (existing seeds keep their schedules),
/// FaultPlan::mutate draws durability verbs only when asked, the fsync-loss
/// window sugar desugars to a pair, and — the drill the planted CRC-skip
/// bug exists for — the crash-replay-compare oracle catches a recovery that
/// surfaces torn garbage and the shrinker reduces it to a minimal durable
/// repro without losing the rule.

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <utility>

#include "explore/profile.hpp"
#include "explore/runner.hpp"
#include "explore/shrink.hpp"
#include "net/fault_plan.hpp"
#include "util/rng.hpp"

namespace pqra::explore {
namespace {

bool is_durability_kind(net::FaultKind kind) {
  return kind == net::FaultKind::kTornWrite ||
         kind == net::FaultKind::kFsyncLoss ||
         kind == net::FaultKind::kClearFsyncLoss;
}

bool has_durability_events(const net::FaultPlan& plan) {
  for (const net::FaultPlan::Event& e : plan.events()) {
    if (is_durability_kind(e.kind)) return true;
  }
  return false;
}

/// A durable schedule with the planted CRC-skip recovery bug
/// (DurableStore::set_test_skip_crc_bug) armed: a torn WAL sync right
/// before a crash leaves garbage as the durable tail, the buggy recovery
/// replays it as if it were real state, and the crash-replay-compare
/// oracle must flag the divergence from an honest replay of the same
/// durable bytes.  snapshot_every 0 keeps the whole history in one log so
/// the torn record is never absorbed into a snapshot.
ScheduleProfile skip_crc_bug_profile() {
  ScheduleProfile p;
  p.seed = 17;
  p.num_servers = 4;
  p.quorum_size = 2;
  p.num_clients = 2;
  p.ops_per_client = 40;
  p.delay = {sim::DelaySpec::Kind::kExponential, 1.0};
  p.horizon = 120.0;
  p.durable = true;
  p.snapshot_every = 0;
  p.bug_skip_crc = true;
  const sim::Time t = 35.0;
  using net::FaultKind;
  // Tear the next WAL sync on server 0, crash while the tear is the tail;
  // recovery replays the torn garbage.
  p.faults.add({.at = t, .kind = FaultKind::kTornWrite, .node = 0})
      .add({.at = t + 0.4, .kind = FaultKind::kCrash, .node = 0})
      .add({.at = t + 30.0, .kind = FaultKind::kRecover, .node = 0});
  return p;
}

TEST(ExploreDurabilityTest, DurabilityKnobsRoundTripByteIdentically) {
  for (std::uint64_t seed = 0; seed < 200; ++seed) {
    const ScheduleProfile p = ScheduleProfile::from_seed(seed);
    // from_seed never draws durability: every existing seed keeps its
    // byte-identical schedule (the PR's acceptance bar).
    EXPECT_FALSE(p.durable) << "seed " << seed;
    EXPECT_FALSE(p.bug_skip_crc) << "seed " << seed;

    ScheduleProfile d = p;
    if (!d.alg1) {
      d.durable = true;
      d.snapshot_every = (seed % 2 == 0) ? 0 : 8;
    }
    const std::string text = d.serialize();
    EXPECT_EQ(ScheduleProfile::parse(text), d) << text;
    EXPECT_EQ(ScheduleProfile::parse(text).serialize(), text) << text;
  }
}

// Replay files written before the durability knobs existed carry none of
// the durability lines; they must parse to the legacy defaults (and thus
// replay the exact pre-durability schedule).
TEST(ExploreDurabilityTest, PreDurabilityProfileTextParsesToDefaults) {
  ScheduleProfile p = ScheduleProfile::from_seed(3);
  p.durable = false;
  p.snapshot_every = 64;
  p.bug_skip_crc = false;

  std::istringstream in(p.serialize());
  std::ostringstream legacy;
  std::string line;
  while (std::getline(in, line)) {
    const std::string key = line.substr(0, line.find(' '));
    if (key == "durable" || key == "snapshot-every" || key == "bug-skip-crc") {
      continue;
    }
    legacy << line << "\n";
  }
  EXPECT_EQ(ScheduleProfile::parse(legacy.str()), p);
}

// Every number a profile line holds is parsed whole: no sign on a count,
// no overflow, nothing non-finite, no negative gossip period.  Each of these
// replaces one line of a valid profile and must fail as a bad line — a
// wrapped or saturated count would size the run's cluster and horizon.
TEST(ExploreDurabilityTest, GarbageNumbersAreBadProfileLines) {
  const std::string text = ScheduleProfile::from_seed(3).serialize();
  ASSERT_NO_THROW(ScheduleProfile::parse(text));
  const std::pair<const char*, const char*> garbage[] = {
      {"seed", "-1"},
      {"servers", "-1"},
      {"ops", "99999999999999999999999"},
      {"horizon", "nan"},
      {"horizon", "inf"},
      {"gossip", "inf"},
      {"gossip", "-5"},
      {"key-skew", "nan"},
      {"snapshot-every", "-1"},
      {"quorum", " 2"},
      {"clients", "2x"},
  };
  for (const auto& [key, value] : garbage) {
    std::istringstream in(text);
    std::ostringstream edited;
    std::string line;
    while (std::getline(in, line)) {
      if (line.substr(0, line.find(' ')) == key) {
        line = std::string(key) + " " + value;
      }
      edited << line << "\n";
    }
    try {
      ScheduleProfile::parse(edited.str());
      ADD_FAILURE() << "accepted '" << key << " " << value << "'";
    } catch (const std::logic_error& e) {
      EXPECT_NE(std::string(e.what()).find("bad profile line ("),
                std::string::npos)
          << key << " " << value << ": " << e.what();
    }
  }
}

TEST(ExploreDurabilityTest, InvalidDurabilityCombinationsAreRejected) {
  // The CRC-skip bug needs a durable layer to express itself, and alg1
  // owns its replica layout: both combinations are profile validation
  // errors, caught at parse time so replay files can't smuggle them in.
  ScheduleProfile bug_without_durable = ScheduleProfile::from_seed(0);
  bug_without_durable.durable = false;
  bug_without_durable.bug_skip_crc = true;
  EXPECT_THROW(ScheduleProfile::parse(bug_without_durable.serialize()),
               std::logic_error);

  ScheduleProfile durable_alg1;
  durable_alg1.alg1 = true;
  durable_alg1.durable = true;
  EXPECT_THROW(ScheduleProfile::parse(durable_alg1.serialize()),
               std::logic_error);
}

// With durability enabled the FaultPlan mutation operator draws torn-write
// and fsync-loss events; without it the legacy draw sequence is unchanged.
TEST(ExploreDurabilityTest, FaultMutateDrawsDurabilityVerbsOnlyWhenEnabled) {
  util::Rng rng(41);
  net::FaultPlan plan;
  bool saw_durability = false;
  for (int i = 0; i < 200 && !saw_durability; ++i) {
    plan.mutate(/*num_servers=*/5, /*horizon=*/100.0, rng, /*num_keys=*/0,
                /*durability=*/true);
    saw_durability = has_durability_events(plan);
  }
  ASSERT_TRUE(saw_durability)
      << "200 mutations with durability never drew a durability verb";

  // Durability plans round-trip through the grammar.
  const std::string text = plan.serialize();
  EXPECT_EQ(net::FaultPlan::parse(text), plan) << text;
  EXPECT_EQ(net::FaultPlan::parse(text).serialize(), text) << text;

  // Without the flag, mutate never draws them (legacy call sites are
  // draw-compatible).
  net::FaultPlan legacy;
  util::Rng legacy_rng(41);
  for (int i = 0; i < 200; ++i) {
    legacy.mutate(5, 100.0, legacy_rng);
    ASSERT_FALSE(has_durability_events(legacy));
  }
}

// Durability verbs compose with key addressing: a `tornwrite:k3@T` targets
// whatever node owns key 3 at resolve time.
TEST(ExploreDurabilityTest, DurabilityVerbsAcceptKeyTargets) {
  using net::FaultKind;
  net::FaultPlan plan;
  plan.add({.at = 10.0, .kind = FaultKind::kTornWrite, .node = 3,
            .node_is_key = true});
  plan.add({.at = 20.0, .kind = FaultKind::kFsyncLoss, .node = 5,
            .node_is_key = true});
  plan.add({.at = 60.0, .kind = FaultKind::kClearFsyncLoss, .node = 5,
            .node_is_key = true});
  EXPECT_TRUE(plan.has_key_targets());
  EXPECT_EQ(net::FaultPlan::parse(plan.serialize()), plan);

  const net::FaultPlan resolved = plan.resolve_keys(
      [](net::KeyId key) { return static_cast<net::NodeId>(key % 4); });
  EXPECT_FALSE(resolved.has_key_targets());
  ASSERT_EQ(resolved.events().size(), 3u);
  EXPECT_EQ(resolved.events()[0].node, 3u);
  EXPECT_EQ(resolved.events()[1].node, 1u);
}

TEST(ExploreDurabilityTest, FsyncLossWindowSugarDesugarsToAPair) {
  const net::FaultPlan plan = net::FaultPlan::parse("fsyncloss:2@20-60");
  ASSERT_EQ(plan.events().size(), 2u);
  EXPECT_EQ(plan.events()[0].kind, net::FaultKind::kFsyncLoss);
  EXPECT_EQ(plan.events()[0].at, 20.0);
  EXPECT_EQ(plan.events()[0].node, 2u);
  EXPECT_EQ(plan.events()[1].kind, net::FaultKind::kClearFsyncLoss);
  EXPECT_EQ(plan.events()[1].at, 60.0);
  EXPECT_EQ(plan.events()[1].node, 2u);

  // The canonical form is the desugared pair, and it round-trips.
  net::FaultPlan explicit_pair;
  explicit_pair
      .add({.at = 20.0, .kind = net::FaultKind::kFsyncLoss, .node = 2})
      .add({.at = 60.0, .kind = net::FaultKind::kClearFsyncLoss, .node = 2});
  EXPECT_EQ(plan, explicit_pair);
  EXPECT_EQ(net::FaultPlan::parse(plan.serialize()), plan);
}

// The drill: arm the planted CRC-skip recovery bug under a torn-write +
// crash schedule, catch it with the crash-replay-compare oracle, and
// shrink the schedule without losing the rule.  This is the end-to-end
// proof that a real recovery regression in the durable layer would be
// found and minimized.
TEST(ExploreDurabilityTest, SkipCrcRecoveryBugIsCaughtAndShrunk) {
  const ScheduleProfile original = skip_crc_bug_profile();
  const RunOutcome outcome = run_profile(original);
  ASSERT_TRUE(outcome.violation)
      << "the armed CRC-skip bug produced a clean run";
  EXPECT_EQ(outcome.rule, "probe:durable-recovery") << outcome.detail;

  // The honest twin — identical schedule, bug disarmed — must run clean:
  // the oracle flags the bug, not the fault schedule.
  ScheduleProfile honest = original;
  honest.bug_skip_crc = false;
  const RunOutcome honest_outcome = run_profile(honest);
  EXPECT_FALSE(honest_outcome.violation) << honest_outcome.detail;

  const ShrinkResult shrunk = shrink(original, outcome, /*max_runs=*/300);
  EXPECT_TRUE(shrunk.outcome.violation);
  EXPECT_EQ(shrunk.outcome.rule, outcome.rule);
  EXPECT_LE(shrunk.profile.cost(), original.cost());
  // Shrinking never disarms the bug (it is not a schedule dimension), and
  // the repro keeps the durable layer the bug lives in.
  EXPECT_TRUE(shrunk.profile.bug_skip_crc);
  EXPECT_TRUE(shrunk.profile.durable);

  // The minimal repro survives the replay-file round trip.
  const std::string text = shrunk.profile.serialize();
  EXPECT_EQ(ScheduleProfile::parse(text), shrunk.profile);
  EXPECT_EQ(ScheduleProfile::parse(text).serialize(), text);
}

}  // namespace
}  // namespace pqra::explore
