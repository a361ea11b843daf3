#include <gtest/gtest.h>

#include <string>

#include "net/fault_plan.hpp"
#include "util/rng.hpp"

namespace pqra::net {
namespace {

TEST(FaultPlanRoundtripTest, HandWrittenPlanRoundTrips) {
  FaultPlan plan;
  plan.add({.at = 10.0, .kind = FaultKind::kCrash, .node = 2})
      .add({.at = 50.0, .kind = FaultKind::kRecover, .node = 2})
      .add({.at = 5.0, .kind = FaultKind::kSlow, .node = 1, .factor = 3.5})
      .add({.at = 25.0, .kind = FaultKind::kClearSlow, .node = 1})
      .add({.at = 30.0,
            .kind = FaultKind::kPartition,
            .groups = {{0, 1}, {2, 3, 4}}})
      .add({.at = 60.0, .kind = FaultKind::kHeal});
  MessageFaults mf;
  mf.drop_probability = 0.02;
  mf.duplicate_probability = 0.01;
  mf.extra_delay = 0.5;
  mf.reorder_probability = 0.1;
  mf.reorder_delay_max = 3.0;
  plan.with_message_faults(mf);

  const std::string text = plan.serialize();
  const FaultPlan parsed = FaultPlan::parse(text);
  EXPECT_EQ(parsed, plan);
  EXPECT_EQ(parsed.serialize(), text);
}

TEST(FaultPlanRoundtripTest, MutatedPlansRoundTripByteIdentically) {
  // The fuzzer's mutation operator is the plan generator that matters:
  // whatever it can produce must serialize -> parse -> serialize
  // byte-identically (the --replay file contract).
  util::Rng rng(20260807);
  for (int trial = 0; trial < 400; ++trial) {
    FaultPlan plan;
    const std::size_t edits = 1 + static_cast<std::size_t>(rng.below(10));
    for (std::size_t i = 0; i < edits; ++i) {
      plan.mutate(/*num_servers=*/8, /*horizon=*/100.0, rng);
    }
    if (plan.empty()) continue;
    const std::string text = plan.serialize();
    FaultPlan parsed;
    ASSERT_NO_THROW(parsed = FaultPlan::parse(text)) << text;
    // Structural equality, not just string equality: nothing the grammar
    // cannot express may survive inside a mutated plan (e.g. a reorder
    // delay with zero probability — normalized away by mutate()).
    EXPECT_EQ(parsed, plan) << text;
    EXPECT_EQ(parsed.serialize(), text) << text;
  }
}

TEST(FaultPlanRoundtripTest, ReorderDelayWithoutProbabilityIsNormalized) {
  // The serialize() grammar has no clause for an unobservable reorder
  // delay; the builders normalize it away so structural round-trips hold.
  MessageFaults mf;
  mf.reorder_probability = 0.0;
  mf.reorder_delay_max = 5.0;
  FaultPlan plan;
  plan.add({.at = 1.0, .kind = FaultKind::kCrash, .node = 0})
      .with_message_faults(mf);
  EXPECT_EQ(plan.message_faults().reorder_delay_max, 0.0);
  EXPECT_EQ(FaultPlan::parse(plan.serialize()), plan);

  const FaultPlan rebuilt = FaultPlan::from_parts(plan.events(), mf);
  EXPECT_EQ(rebuilt.message_faults().reorder_delay_max, 0.0);
  EXPECT_EQ(rebuilt, plan);
}

TEST(FaultPlanRoundtripTest, KeyAddressedPlanRoundTrips) {
  // The key-addressed grammar (docs/SHARDING.md): `k<KEY>` in any node
  // position, including partition members.
  FaultPlan plan;
  plan.add({.at = 10.0, .kind = FaultKind::kCrash, .node = 12,
            .node_is_key = true})
      .add({.at = 60.0, .kind = FaultKind::kRecover, .node = 12,
            .node_is_key = true})
      .add({.at = 5.0, .kind = FaultKind::kSlow, .node = 7,
            .node_is_key = true, .factor = 2.5})
      .add({.at = 25.0, .kind = FaultKind::kClearSlow, .node = 7,
            .node_is_key = true})
      // node- and key-addressed events mix freely
      .add({.at = 15.0, .kind = FaultKind::kCrash, .node = 3});
  MessageFaults mf;
  mf.drop_probability = 0.01;
  plan.with_message_faults(mf);
  ASSERT_TRUE(plan.has_key_targets());

  const std::string text = plan.serialize();
  EXPECT_NE(text.find("crash:k12@"), std::string::npos) << text;
  EXPECT_NE(text.find("slow:k7*2.5@5"), std::string::npos) << text;
  const FaultPlan parsed = FaultPlan::parse(text);
  EXPECT_EQ(parsed, plan);
  EXPECT_EQ(parsed.serialize(), text);
  EXPECT_TRUE(parsed.has_key_targets());
}

TEST(FaultPlanRoundtripTest, KeyAddressedPartitionMembersRoundTrip) {
  // `a-b` ranges are parse-side sugar; the canonical form lists members.
  const FaultPlan plan = FaultPlan::parse("partition:0-2,k7|3@9;heal@40");
  ASSERT_TRUE(plan.has_key_targets());
  const std::string text = plan.serialize();
  EXPECT_EQ(text.substr(0, 23), "partition:0,1,2,k7|3@9;") << text;
  EXPECT_EQ(FaultPlan::parse(text), plan);
  EXPECT_EQ(FaultPlan::parse(text).serialize(), text);
}

TEST(FaultPlanRoundtripTest, MutatedKeyAddressedPlansRoundTrip) {
  // With a keyspace the mutation operator also draws `k<KEY>` targets;
  // whatever it produces must survive the --replay file contract.
  util::Rng rng(20260807);
  bool saw_key_targets = false;
  for (int trial = 0; trial < 400; ++trial) {
    FaultPlan plan;
    const std::size_t edits = 1 + static_cast<std::size_t>(rng.below(10));
    for (std::size_t i = 0; i < edits; ++i) {
      plan.mutate(/*num_servers=*/8, /*horizon=*/100.0, rng, /*num_keys=*/32);
    }
    if (plan.empty()) continue;
    saw_key_targets |= plan.has_key_targets();
    const std::string text = plan.serialize();
    FaultPlan parsed;
    ASSERT_NO_THROW(parsed = FaultPlan::parse(text)) << text;
    EXPECT_EQ(parsed, plan) << text;
    EXPECT_EQ(parsed.serialize(), text) << text;
  }
  EXPECT_TRUE(saw_key_targets);
}

TEST(FaultPlanRoundtripTest, DurabilityVerbsRoundTrip) {
  // The durability grammar (docs/DURABILITY.md): tornwrite / fsyncloss /
  // nofsyncloss, node- and key-addressed, mixing freely with the rest.
  FaultPlan plan;
  plan.add({.at = 12.0, .kind = FaultKind::kTornWrite, .node = 1})
      .add({.at = 18.0, .kind = FaultKind::kTornWrite, .node = 9,
            .node_is_key = true})
      .add({.at = 22.0, .kind = FaultKind::kFsyncLoss, .node = 2})
      .add({.at = 45.0, .kind = FaultKind::kClearFsyncLoss, .node = 2})
      .add({.at = 52.0, .kind = FaultKind::kFsyncLoss, .node = 9,
            .node_is_key = true})
      .add({.at = 72.0, .kind = FaultKind::kClearFsyncLoss, .node = 9,
            .node_is_key = true})
      .add({.at = 21.0, .kind = FaultKind::kCrash, .node = 2});
  const std::string text = plan.serialize();
  EXPECT_NE(text.find("tornwrite:1@12"), std::string::npos) << text;
  EXPECT_NE(text.find("tornwrite:k9@18"), std::string::npos) << text;
  EXPECT_NE(text.find("fsyncloss:2@22"), std::string::npos) << text;
  EXPECT_NE(text.find("nofsyncloss:2@45"), std::string::npos) << text;
  const FaultPlan parsed = FaultPlan::parse(text);
  EXPECT_EQ(parsed, plan);
  EXPECT_EQ(parsed.serialize(), text);
}

TEST(FaultPlanRoundtripTest, FsyncLossWindowSugarParsesToThePair) {
  // `fsyncloss:N@T1-T2` is parse-side sugar for the open/close pair; the
  // canonical (serialized) form is the pair, which round-trips.
  const FaultPlan sugar = FaultPlan::parse("fsyncloss:4@20-60");
  FaultPlan pair;
  pair.add({.at = 20.0, .kind = FaultKind::kFsyncLoss, .node = 4})
      .add({.at = 60.0, .kind = FaultKind::kClearFsyncLoss, .node = 4});
  EXPECT_EQ(sugar, pair);
  EXPECT_EQ(FaultPlan::parse(sugar.serialize()), sugar);
  EXPECT_EQ(FaultPlan::parse(sugar.serialize()).serialize(),
            sugar.serialize());

  // Key-addressed windows desugar the same way.
  const FaultPlan key_sugar = FaultPlan::parse("fsyncloss:k3@5-15");
  FaultPlan key_pair;
  key_pair
      .add({.at = 5.0, .kind = FaultKind::kFsyncLoss, .node = 3,
            .node_is_key = true})
      .add({.at = 15.0, .kind = FaultKind::kClearFsyncLoss, .node = 3,
            .node_is_key = true});
  EXPECT_EQ(key_sugar, key_pair);
}

TEST(FaultPlanRoundtripTest, MutatedDurabilityPlansRoundTrip) {
  // With durability enabled the mutation operator also draws torn-write
  // events and fsync-loss windows; whatever it produces must survive the
  // --replay file contract.  The legacy draw sequence (durability=false)
  // is pinned unchanged by MutatedPlansRoundTripByteIdentically above
  // sharing its seed.
  util::Rng rng(20260807);
  bool saw_torn = false;
  bool saw_fsync_window = false;
  for (int trial = 0; trial < 400; ++trial) {
    FaultPlan plan;
    const std::size_t edits = 1 + static_cast<std::size_t>(rng.below(10));
    for (std::size_t i = 0; i < edits; ++i) {
      plan.mutate(/*num_servers=*/8, /*horizon=*/100.0, rng, /*num_keys=*/32,
                  /*durability=*/true);
    }
    if (plan.empty()) continue;
    for (const FaultPlan::Event& e : plan.events()) {
      saw_torn |= e.kind == FaultKind::kTornWrite;
      saw_fsync_window |= e.kind == FaultKind::kFsyncLoss;
      if (e.kind == FaultKind::kFsyncLoss ||
          e.kind == FaultKind::kClearFsyncLoss ||
          e.kind == FaultKind::kTornWrite) {
        ASSERT_GE(e.at, 0.0);
        ASSERT_LE(e.at, 100.0);
      }
    }
    const std::string text = plan.serialize();
    FaultPlan parsed;
    ASSERT_NO_THROW(parsed = FaultPlan::parse(text)) << text;
    EXPECT_EQ(parsed, plan) << text;
    EXPECT_EQ(parsed.serialize(), text) << text;
  }
  EXPECT_TRUE(saw_torn);
  EXPECT_TRUE(saw_fsync_window);
}

TEST(FaultPlanRoundtripTest, FromPartsPreservesEventOrderAndKnobs) {
  util::Rng rng(7);
  FaultPlan plan;
  for (int i = 0; i < 6; ++i) plan.mutate(5, 80.0, rng);
  const FaultPlan rebuilt =
      FaultPlan::from_parts(plan.events(), plan.message_faults());
  EXPECT_EQ(rebuilt, plan);
  EXPECT_EQ(rebuilt.serialize(), plan.serialize());
}

TEST(FaultPlanSweepTest, TruncationsAndSubstitutionsParseOrReject) {
  // A valid plan using every verb, both target forms, both window sugars
  // and all four knobs.  Its numbers are short, so no single substitution
  // can spell a huge range.
  const std::string seed =
      "crash:1@10;recover:k2@20;slow:3*2@5;noslow:k3@25;"
      "partition:0-2,k7|3@30;heal@40;tornwrite:k4@12;fsyncloss:2@22;"
      "nofsyncloss:k2@45;slow:k6*1.5@8;outage:k5@50-60;fsyncloss:1@70-80;"
      "drop=0.5;dup=0.25;delay=1.5;reorder=0.1:3";
  ASSERT_NO_THROW(FaultPlan::parse(seed));
  std::size_t accepted = 0;
  // Every attempt either throws std::logic_error (anything else fails the
  // test) or yields a plan that serializes to a fixed point.
  const auto attempt = [&](const std::string& text) {
    FaultPlan plan;
    try {
      plan = FaultPlan::parse(text);
    } catch (const std::logic_error&) {
      return;
    }
    ++accepted;
    const std::string canonical = plan.serialize();
    FaultPlan reparsed;
    ASSERT_NO_THROW(reparsed = FaultPlan::parse(canonical))
        << text << " -> " << canonical;
    EXPECT_EQ(reparsed, plan) << text << " -> " << canonical;
    EXPECT_EQ(reparsed.serialize(), canonical) << text;
  };
  for (std::size_t n = 0; n <= seed.size(); ++n) attempt(seed.substr(0, n));
  const std::string alphabet = "019-.:;@|,*=kxe ";
  for (std::size_t i = 0; i < seed.size(); ++i) {
    for (const char c : alphabet) {
      if (seed[i] == c) continue;
      std::string mutated = seed;
      mutated[i] = c;
      attempt(mutated);
    }
  }
  // Both outcomes occur: the sweep is not all-reject or all-accept.
  EXPECT_GT(accepted, seed.size());
  EXPECT_LT(accepted, seed.size() * (alphabet.size() + 1));
}

}  // namespace
}  // namespace pqra::net
