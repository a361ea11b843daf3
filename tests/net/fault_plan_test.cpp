#include "net/fault_plan.hpp"

#include <gtest/gtest.h>

namespace pqra::net {
namespace {

class NullReceiver final : public Receiver {
 public:
  void on_message(NodeId, Message) override { ++received; }
  int received = 0;
};

TEST(FaultPlanTest, InstallDrivesCrashAndRecovery) {
  sim::Simulator sim;
  auto delay = sim::make_constant_delay(0.1);
  SimTransport transport(sim, *delay, util::Rng(1), 2);
  NullReceiver rx0, rx1;
  transport.register_receiver(0, &rx0);
  transport.register_receiver(1, &rx1);

  FaultPlan plan;
  plan.outage(1, 5.0, 10.0);
  plan.install(sim, transport);

  // Before the outage: delivered.
  transport.send(0, 1, Message::read_req(0, 1));
  sim.run_until(2.0);
  EXPECT_EQ(rx1.received, 1);
  // During the outage: dropped.
  sim.run_until(7.0);
  EXPECT_TRUE(transport.faults().is_crashed(1));
  transport.send(0, 1, Message::read_req(0, 2));
  sim.run_until(9.0);
  EXPECT_EQ(rx1.received, 1);
  // After recovery: delivered again.
  sim.run_until(16.0);
  EXPECT_FALSE(transport.faults().is_crashed(1));
  transport.send(0, 1, Message::read_req(0, 3));
  sim.run();
  EXPECT_EQ(rx1.received, 2);
}

TEST(FaultPlanTest, RandomChurnProducesPairedEvents) {
  util::Rng rng(7);
  FaultPlan plan = FaultPlan::random_churn(10, 100.0, 20.0, 5.0, rng);
  EXPECT_FALSE(plan.empty());
  EXPECT_EQ(plan.events().size() % 2, 0u);  // crash/recover pairs
  for (const auto& ev : plan.events()) {
    EXPECT_LT(ev.node, 10u);
    EXPECT_GE(ev.at, 0.0);
  }
}

TEST(FaultPlanTest, ChurnIsDeterministicGivenSeed) {
  util::Rng a(3), b(3);
  FaultPlan p1 = FaultPlan::random_churn(5, 50.0, 10.0, 2.0, a);
  FaultPlan p2 = FaultPlan::random_churn(5, 50.0, 10.0, 2.0, b);
  ASSERT_EQ(p1.events().size(), p2.events().size());
  for (std::size_t i = 0; i < p1.events().size(); ++i) {
    EXPECT_DOUBLE_EQ(p1.events()[i].at, p2.events()[i].at);
    EXPECT_EQ(p1.events()[i].node, p2.events()[i].node);
    EXPECT_EQ(p1.events()[i].kind, p2.events()[i].kind);
  }
}

TEST(FaultPlanTest, RejectsBadArguments) {
  FaultPlan plan;
  EXPECT_THROW(plan.add({.at = -1.0, .kind = FaultKind::kCrash}),
               std::logic_error);
  EXPECT_THROW(plan.outage(0, 1.0, 0.0), std::logic_error);
  EXPECT_THROW(plan.add({.at = 1.0, .kind = FaultKind::kSlow, .factor = 0.5}),
               std::logic_error);
  EXPECT_THROW(
      plan.add({.at = 1.0, .kind = FaultKind::kPartition, .groups = {{0, 1}}}),
      std::logic_error);
  EXPECT_TRUE(plan.events().empty());
}

TEST(FaultPlanTest, ParseAcceptsFullGrammar) {
  FaultPlan plan = FaultPlan::parse(
      "crash:2@10;recover:2@50;outage:3@60-70;slow:1*4@5;noslow:1@25;"
      "partition:0-2|3,4@30;heal@40;drop=0.02;dup=0.01;delay=0.5;"
      "reorder=0.1:3");
  ASSERT_EQ(plan.events().size(), 8u);
  EXPECT_EQ(plan.events()[0].kind, FaultKind::kCrash);
  EXPECT_EQ(plan.events()[0].node, 2u);
  EXPECT_DOUBLE_EQ(plan.events()[0].at, 10.0);
  EXPECT_EQ(plan.events()[1].kind, FaultKind::kRecover);
  // outage expands to a crash/recover pair
  EXPECT_EQ(plan.events()[2].kind, FaultKind::kCrash);
  EXPECT_DOUBLE_EQ(plan.events()[2].at, 60.0);
  EXPECT_EQ(plan.events()[3].kind, FaultKind::kRecover);
  EXPECT_DOUBLE_EQ(plan.events()[3].at, 70.0);
  EXPECT_EQ(plan.events()[4].kind, FaultKind::kSlow);
  EXPECT_DOUBLE_EQ(plan.events()[4].factor, 4.0);
  EXPECT_EQ(plan.events()[5].kind, FaultKind::kClearSlow);
  const auto& part = plan.events()[6];
  EXPECT_EQ(part.kind, FaultKind::kPartition);
  ASSERT_EQ(part.groups.size(), 2u);
  EXPECT_EQ(part.groups[0], (std::vector<NodeId>{0, 1, 2}));
  EXPECT_EQ(part.groups[1], (std::vector<NodeId>{3, 4}));
  EXPECT_EQ(plan.events()[7].kind, FaultKind::kHeal);
  const MessageFaults& mf = plan.message_faults();
  EXPECT_DOUBLE_EQ(mf.drop_probability, 0.02);
  EXPECT_DOUBLE_EQ(mf.duplicate_probability, 0.01);
  EXPECT_DOUBLE_EQ(mf.extra_delay, 0.5);
  EXPECT_DOUBLE_EQ(mf.reorder_probability, 0.1);
  EXPECT_DOUBLE_EQ(mf.reorder_delay_max, 3.0);
}

TEST(FaultPlanTest, ParseRejectsBadClauses) {
  EXPECT_THROW(FaultPlan::parse("crash:1"), std::logic_error);
  EXPECT_THROW(FaultPlan::parse("explode:1@5"), std::logic_error);
  EXPECT_THROW(FaultPlan::parse("slow:1@5"), std::logic_error);
  EXPECT_THROW(FaultPlan::parse("outage:1@9-3"), std::logic_error);
  EXPECT_THROW(FaultPlan::parse("frob=0.1"), std::logic_error);
  EXPECT_THROW(FaultPlan::parse("drop=abc"), std::logic_error);

  // Ids are whole numbers that fit 32 bits: no fraction, hex, sign,
  // exponent or overflow.
  EXPECT_THROW(FaultPlan::parse("crash:1.5@10"), std::logic_error);
  EXPECT_THROW(FaultPlan::parse("crash:0x2@1"), std::logic_error);
  EXPECT_THROW(FaultPlan::parse("crash:-1@10"), std::logic_error);
  EXPECT_THROW(FaultPlan::parse("crash:+1@10"), std::logic_error);
  EXPECT_THROW(FaultPlan::parse("crash:1e0@10"), std::logic_error);
  EXPECT_THROW(FaultPlan::parse("crash:k4294967296@10"), std::logic_error);
  EXPECT_NO_THROW(FaultPlan::parse("crash:4294967295@10"));
  // Times, delays and factors are finite; probabilities lie in [0, 1];
  // delays are >= 0.
  EXPECT_THROW(FaultPlan::parse("crash:2@inf"), std::logic_error);
  EXPECT_THROW(FaultPlan::parse("crash:2@nan"), std::logic_error);
  EXPECT_THROW(FaultPlan::parse("crash:2@-1"), std::logic_error);
  EXPECT_THROW(FaultPlan::parse("slow:1*inf@3"), std::logic_error);
  EXPECT_THROW(FaultPlan::parse("drop=1.5"), std::logic_error);
  EXPECT_THROW(FaultPlan::parse("drop=nan"), std::logic_error);
  EXPECT_THROW(FaultPlan::parse("dup=7"), std::logic_error);
  EXPECT_THROW(FaultPlan::parse("delay=-5"), std::logic_error);
  EXPECT_THROW(FaultPlan::parse("delay=inf"), std::logic_error);
  EXPECT_THROW(FaultPlan::parse("reorder=0.5:-3"), std::logic_error);
  EXPECT_THROW(FaultPlan::parse("outage:1@5-inf"), std::logic_error);
  // A range expands to at most 2^16 ids and never wraps.
  EXPECT_THROW(FaultPlan::parse("partition:0-4294967295@1"), std::logic_error);
  EXPECT_THROW(FaultPlan::parse("partition:0-4000000000@1"), std::logic_error);
  EXPECT_THROW(FaultPlan::parse("partition:0-65536|70000@1"),
               std::logic_error);
  EXPECT_EQ(FaultPlan::parse("partition:0-65535|70000@1")
                .events()[0]
                .groups[0]
                .size(),
            65536u);
  // A node sits in one partition group; heal takes no target; every group
  // and list item is non-empty.
  EXPECT_THROW(FaultPlan::parse("partition:0,1|1@5"), std::logic_error);
  EXPECT_THROW(FaultPlan::parse("partition:0,0|1@5"), std::logic_error);
  EXPECT_THROW(FaultPlan::parse("heal:3@5"), std::logic_error);
  EXPECT_THROW(FaultPlan::parse("partition:0,|1@5"), std::logic_error);
  EXPECT_THROW(FaultPlan::parse("partition:0|1|@5"), std::logic_error);

  // Errors name the clause.
  try {
    FaultPlan::parse("crash:1@10; dup=7");
    ADD_FAILURE() << "dup=7 parsed";
  } catch (const std::logic_error& e) {
    EXPECT_STREQ(e.what(),
                 "bad fault-plan clause 'dup=7': probability must lie in "
                 "[0, 1]");
  }
}

TEST(FaultPlanTest, ParseAcceptsKeyAddressedTargets) {
  const FaultPlan plan = FaultPlan::parse(
      "crash:k12@10;recover:k12@50;outage:k7@20-60;slow:k3*2@5;noslow:k3@25;"
      "partition:0-2,k7|3@9");
  ASSERT_TRUE(plan.has_key_targets());
  ASSERT_EQ(plan.events().size(), 7u);  // outage expands to crash/recover
  EXPECT_TRUE(plan.events()[0].node_is_key);
  EXPECT_EQ(plan.events()[0].node, 12u);
  EXPECT_TRUE(plan.events()[2].node_is_key);  // outage:k7 crash half
  EXPECT_EQ(plan.events()[2].node, 7u);
  EXPECT_TRUE(plan.events()[3].node_is_key);  // ...and recover half
  const auto& part = plan.events()[6];
  EXPECT_EQ(part.kind, FaultKind::kPartition);
  ASSERT_EQ(part.group_keys.size(), 2u);
  EXPECT_EQ(part.group_keys[0], (std::vector<KeyId>{7}));
  EXPECT_TRUE(part.group_keys[1].empty());

  // Plain plans have no key targets; key ranges are not in the grammar.
  EXPECT_FALSE(FaultPlan::parse("crash:2@10").has_key_targets());
  EXPECT_THROW(FaultPlan::parse("crash:k@10"), std::logic_error);
  EXPECT_THROW(FaultPlan::parse("outage:k1-k3@5-9"), std::logic_error);
}

TEST(FaultPlanTest, ResolveKeysMapsTargetsToPrimaries) {
  const FaultPlan plan =
      FaultPlan::parse("crash:k12@10;recover:k12@50;crash:1@5");
  FaultPlan part = FaultPlan::parse("partition:0,k9,k4|2@3");
  ASSERT_TRUE(plan.has_key_targets());

  const auto primary = [](KeyId key) {
    return static_cast<NodeId>(key % 5);
  };
  const FaultPlan resolved = plan.resolve_keys(primary);
  EXPECT_FALSE(resolved.has_key_targets());
  EXPECT_EQ(resolved.events()[0].node, 2u);  // 12 % 5
  EXPECT_FALSE(resolved.events()[0].node_is_key);
  EXPECT_EQ(resolved.events()[2].node, 1u);  // node targets pass through

  // Partition members fold into the node group, deduplicated: k9 -> 4,
  // k4 -> 4 (already present after k9).
  const FaultPlan rpart = part.resolve_keys(primary);
  EXPECT_FALSE(rpart.has_key_targets());
  EXPECT_EQ(rpart.events()[0].groups[0], (std::vector<NodeId>{0, 4}));
  EXPECT_EQ(rpart.events()[0].groups[1], (std::vector<NodeId>{2}));
  // A primary that lands in another group would put one node in two
  // groups, which FaultInjector::partition rejects mid-run: the check before
  // installation catches it (k9 -> 4).
  const FaultPlan cross =
      FaultPlan::parse("partition:4|0,k9@3").resolve_keys(primary);
  EXPECT_THROW(cross.check_targets(5), std::logic_error);

  // Resolution is a copy: the original still carries its key targets (one
  // plan can be resolved against several cluster shapes).
  EXPECT_TRUE(plan.has_key_targets());
}

TEST(FaultPlanTest, InstallRejectsUnresolvedKeyTargets) {
  sim::Simulator sim;
  auto delay = sim::make_constant_delay(0.1);
  SimTransport transport(sim, *delay, util::Rng(1), 3);

  FaultPlan plan;
  plan.add({.at = 10.0, .kind = FaultKind::kCrash, .node = 2,
            .node_is_key = true});
  EXPECT_THROW(plan.install(sim, transport), std::logic_error);

  // Resolving unblocks installation.
  const FaultPlan resolved =
      plan.resolve_keys([](KeyId key) { return static_cast<NodeId>(key); });
  resolved.install(sim, transport);
  sim.run_until(11.0);
  EXPECT_TRUE(transport.faults().is_crashed(2));
}

TEST(FaultPlanTest, InstallRejectsOutOfRangeTargetsBeforeScheduling) {
  sim::Simulator sim;
  auto delay = sim::make_constant_delay(0.1);
  SimTransport transport(sim, *delay, util::Rng(1), 3);

  for (const char* spec : {"crash:1@5;crash:3@10", "partition:0|1,7@5",
                           "slow:9*2@1"}) {
    const FaultPlan plan = FaultPlan::parse(spec);
    try {
      plan.install(sim, transport);
      ADD_FAILURE() << spec << " installed";
    } catch (const std::logic_error& e) {
      EXPECT_NE(std::string(e.what()).find("bad fault-plan clause"),
                std::string::npos)
          << e.what();
    }
  }
  // Nothing was scheduled: the valid crash:1@5 before crash:3 never lands.
  sim.run();
  EXPECT_FALSE(transport.faults().is_crashed(1));
}

TEST(FaultPlanTest, EmptyConsidersMessageFaults) {
  FaultPlan plan;
  EXPECT_TRUE(plan.empty());
  plan.with_message_faults(MessageFaults{.drop_probability = 0.1});
  EXPECT_FALSE(plan.empty());
}

}  // namespace
}  // namespace pqra::net
