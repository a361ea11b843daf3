#include "sim/profiler.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "sim/simulator.hpp"

namespace pqra {
namespace {

TEST(ProfilerTest, AttributesFiresToTags) {
  sim::Profiler profiler;
  profiler.on_event(sim::EventTag::kMsgDeliver, 100, 0.5);
  profiler.on_event(sim::EventTag::kMsgDeliver, 300, 1.5);
  profiler.on_event(sim::EventTag::kRetryTimer, 50, 0.0);

  const sim::Profiler::TagStats& deliver =
      profiler.tag_stats(sim::EventTag::kMsgDeliver);
  EXPECT_EQ(deliver.fires, 2u);
  EXPECT_EQ(deliver.wall_ns, 400u);
  EXPECT_DOUBLE_EQ(deliver.sim_advance, 2.0);
  const sim::Profiler::TagStats& retry =
      profiler.tag_stats(sim::EventTag::kRetryTimer);
  EXPECT_EQ(retry.fires, 1u);
  EXPECT_EQ(profiler.tag_stats(sim::EventTag::kGossip).fires, 0u);
  EXPECT_EQ(profiler.total_fires(), 3u);
  EXPECT_EQ(profiler.total_wall_ns(), 450u);
}

TEST(ProfilerTest, TagNamesMatchEnumerators) {
  EXPECT_STREQ(sim::event_tag_name(sim::EventTag::kGeneric), "generic");
  EXPECT_STREQ(sim::event_tag_name(sim::EventTag::kMsgDeliver),
               "msg_deliver");
  EXPECT_STREQ(sim::event_tag_name(sim::EventTag::kProbe), "probe");
}

/// The profiler and obs::Histogram share util::log2_bucket's layout (sim
/// cannot link obs).  Pin bucket placement and bounds against the real
/// thing.
TEST(ProfilerTest, HistogramLayoutMatchesObsHistogram) {
  ASSERT_EQ(obs::Histogram::kNumBuckets, util::kLog2Buckets);
  for (std::size_t i = 0; i < util::kLog2Buckets; ++i) {
    EXPECT_EQ(util::log2_bucket_upper_bound(i),
              obs::Histogram::bucket_upper_bound(i))
        << "bucket " << i;
  }
  EXPECT_TRUE(
      std::isinf(util::log2_bucket_upper_bound(util::kLog2Buckets - 1)));
  EXPECT_EQ(util::log2_bucket_upper_bound(util::kLog2BucketBias), 1.0);

  // Feed identical samples through both; every bucket count must agree.
  // Samples straddle the whole range: subnormal-ish, fractional, integral,
  // huge, and the zero/negative clamp.
  const std::vector<double> samples = {0.0,    1e-9,  0.0001, 0.125, 0.5,
                                       0.9999, 1.0,   1.5,    2.0,   3.75,
                                       17.0,   1024.0, 123456.789, 1e12,
                                       1e30,   -4.0};
  sim::Profiler profiler;
  obs::Registry registry(obs::Concurrency::kSingleThread);
  obs::Histogram& hist = registry.histogram("test_profiler_equivalence");
  for (double s : samples) {
    profiler.on_event(sim::EventTag::kGeneric, 0, s);
    hist.observe(s);
  }
  for (std::size_t i = 0; i < util::kLog2Buckets; ++i) {
    EXPECT_EQ(profiler.advance_bucket(i), hist.bucket_count(i))
        << "bucket " << i;
  }
}

TEST(ProfilerTest, WriteJsonEmitsTotalsAndTags) {
  sim::Profiler profiler;
  profiler.on_event(sim::EventTag::kMsgDeliver, 128, 1.0);
  profiler.on_event(sim::EventTag::kFault, 64, 4.0);
  std::ostringstream out;
  profiler.write_json(out);
  const std::string text = out.str();
  EXPECT_NE(text.find("\"fires\": 2"), std::string::npos) << text;
  EXPECT_NE(text.find("\"msg_deliver\""), std::string::npos) << text;
  EXPECT_NE(text.find("\"fault\""), std::string::npos) << text;
  EXPECT_NE(text.find("\"wall_ns_per_fire\""), std::string::npos) << text;
  EXPECT_NE(text.find("\"sim_advance_per_fire\""), std::string::npos) << text;
}

TEST(ProfilerSimulatorTest, TaggedSchedulingAttributesPerTag) {
  sim::Simulator simulator;
  sim::Profiler profiler;
  simulator.set_profiler(&profiler);
  ASSERT_EQ(simulator.profiler(), &profiler);

  int fired = 0;
  simulator.schedule_in(1.0, sim::EventTag::kMsgDeliver, [&] { ++fired; });
  simulator.schedule_in(2.0, sim::EventTag::kMsgDeliver, [&] { ++fired; });
  simulator.schedule_at(3.0, sim::EventTag::kGossip, [&] { ++fired; });
  simulator.schedule_in(4.0, [&] { ++fired; });  // untagged -> kGeneric
  simulator.run();

  EXPECT_EQ(fired, 4);
  EXPECT_EQ(profiler.total_fires(), 4u);
  EXPECT_EQ(profiler.tag_stats(sim::EventTag::kMsgDeliver).fires, 2u);
  EXPECT_EQ(profiler.tag_stats(sim::EventTag::kGossip).fires, 1u);
  EXPECT_EQ(profiler.tag_stats(sim::EventTag::kGeneric).fires, 1u);
  // Virtual-time advance is deterministic even though wall time is not:
  // fires advanced the clock 0->1->2->3->4.
  double advance = 0.0;
  for (std::size_t t = 0; t < sim::kNumEventTags; ++t) {
    advance += profiler.tag_stats(static_cast<sim::EventTag>(t)).sim_advance;
  }
  EXPECT_DOUBLE_EQ(advance, 4.0);
}

/// The profiler is a pure observer: attaching one must not change what the
/// simulation does, only record it.
TEST(ProfilerSimulatorTest, AttachingProfilerPreservesFingerprint) {
  auto run = [](sim::Profiler* profiler) {
    sim::Simulator simulator;
    if (profiler != nullptr) simulator.set_profiler(profiler);
    // A little event cascade with ties to exercise ordering.
    for (int i = 0; i < 8; ++i) {
      simulator.schedule_in(
          1.0 + i % 3, sim::EventTag::kWorkload, [&simulator, i] {
            simulator.schedule_in(0.5 * i, sim::EventTag::kMsgDeliver,
                                  [] {});
          });
    }
    simulator.run();
    return std::pair<std::uint64_t, std::uint64_t>(
        simulator.fingerprint(), simulator.events_processed());
  };
  sim::Profiler profiler;
  auto bare = run(nullptr);
  auto profiled = run(&profiler);
  EXPECT_EQ(bare, profiled);
  EXPECT_EQ(profiler.total_fires(), profiled.second);
}

}  // namespace
}  // namespace pqra
