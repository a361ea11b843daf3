/// \file queue_micro.cpp
/// Microbenchmark of the pending-event structure behind the simulator
/// (sim/calendar_queue.hpp), the calendar queue measured in isolation with
/// the classic "hold" model — prefill N events, then repeatedly pop the
/// minimum and push a replacement at now + delay.
///
/// Sweeps pending-set sizes 10^3..10^7 under three delay mixes:
///   uniform     delays ~ U[0, 1)            (the calendar's best case)
///   two-point   0.1 with p=.9, 50 with p=.1 (bimodal — day-width stress)
///   heavy-tail  exponential(1) cubed        (rare far-future events
///                                            exercising the overflow list)
///
/// Prints hold-operation throughput per (mix, size) cell and the
/// standard stderr timing line for bench/run_benches.sh.

#include <algorithm>
#include <cstdio>
#include <utility>

#include "bench_common.hpp"
#include "sim/calendar_queue.hpp"
#include "util/rng.hpp"

namespace {

using namespace pqra;

enum class Mix { kUniform, kTwoPoint, kHeavyTail };

double sample_delay(Mix mix, util::Rng& rng) {
  switch (mix) {
    case Mix::kUniform:
      return rng.uniform01();
    case Mix::kTwoPoint:
      return rng.uniform01() < 0.9 ? 0.1 : 50.0;
    case Mix::kHeavyTail: {
      double e = rng.exponential(1.0);
      return e * e * e;
    }
  }
  return 0.0;
}

struct CellOut {
  double hold_mops = 0.0;       // hold ops (pop+push) per second, millions
  std::uint64_t resizes = 0;    // calendar reorganizations during the cell
  std::uint64_t ops = 0;        // total queue ops performed
};

CellOut run_cell(Mix mix, std::size_t pending, std::size_t holds,
                 std::uint64_t seed) {
  sim::EventQueue queue;
  sim::EventArena arena;
  util::Rng rng(seed);
  std::uint64_t seq = 0;
  // Prefill: `pending` events spread by the mix.
  for (std::size_t i = 0; i < pending; ++i) {
    queue.push(sample_delay(mix, rng), seq++, sim::EventTag::kGeneric,
               sim::EventFn([] {}, arena));
  }
  const auto start = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < holds; ++i) {
    sim::EventQueue::Item item = queue.pop();
    queue.push(item.t + sample_delay(mix, rng), seq++,
               sim::EventTag::kGeneric, std::move(item.fn));
  }
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  CellOut out;
  out.hold_mops =
      wall > 0.0 ? static_cast<double>(holds) / wall / 1e6 : 0.0;
  out.resizes = queue.bucket_resizes();
  out.ops = pending + 2 * holds;
  return out;
}

const char* mix_name(Mix mix) {
  switch (mix) {
    case Mix::kUniform:
      return "uniform";
    case Mix::kTwoPoint:
      return "two-point";
    case Mix::kHeavyTail:
      return "heavy-tail";
  }
  return "?";
}

}  // namespace

int main() {
  const std::uint64_t seed = bench::env_seed();
  bench::Timing timing;

  std::vector<std::size_t> sizes{1000, 10000, 100000, 1000000, 10000000};
  if (bench::env_fast()) sizes.resize(3);

  std::printf("event-queue hold throughput (pop+push at steady pending size; "
              "Mops/s = million hold ops per second)\n\n");
  bench::Table table({"mix", "pending", "cal_Mops", "cal_resizes"}, 13);
  table.print_header();
  for (Mix mix : {Mix::kUniform, Mix::kTwoPoint, Mix::kHeavyTail}) {
    for (std::size_t pending : sizes) {
      // Enough holds to dominate cache-warming, capped to keep the big
      // pending sizes affordable.
      const std::size_t holds =
          std::min<std::size_t>(2 * pending, 2000000);
      CellOut cal = run_cell(mix, pending, holds, seed);
      timing.add(cal.ops);
      table.cell(mix_name(mix));
      table.cell(pending);
      table.cell(cal.hold_mops, 2);
      table.cell(cal.resizes);
      table.end_row();
      std::fflush(stdout);
    }
    std::printf("\n");
  }
  std::printf("the calendar's pop stays O(1) while its width estimate "
              "matches the mix — the two-point and heavy-tail rows exercise "
              "the retune and overflow machinery.\n");
  timing.emit(1);
  return 0;
}
