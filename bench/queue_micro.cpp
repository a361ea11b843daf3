/// \file queue_micro.cpp
/// Microbenchmark of the simulator's pending-event set, sim::EventQueue
/// (sim/event_queue.hpp), measured in isolation with the classic "hold"
/// model: prefill N events, then repeatedly fire the earliest one, which
/// schedules its replacement at now + delay.  Every hold takes the path
/// Simulator::step() takes: pop the key, invoke the callback in its slot
/// (the push happens there, while the slot is still taken), then destroy
/// the callback and free the slot.
///
/// Sweeps pending-set sizes 10^3..10^7 under three delay mixes:
///   uniform     delays ~ U[0, 1)
///   two-point   0.1 with p=.9, 50 with p=.1 (bimodal)
///   heavy-tail  exponential(1) cubed        (rare far-future events)
/// The benchmark suite's workloads peak at a few thousand pending events
/// (sim.queue_high_water), so the small sizes are the ones runs live at;
/// the large ones show how the heap's log factor grows.
///
/// Prints hold-operation throughput (Mops/s) per (mix, size) cell and the
/// standard stderr timing line for bench/run_benches.sh.

#include <algorithm>
#include <cstdio>

#include "bench_common.hpp"
#include "sim/event_queue.hpp"
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
  double hold_mops = 0.0;  // hold ops (pop+push) per second, millions
  std::uint64_t ops = 0;   // total queue ops performed
};

/// What a firing hold event needs to schedule its replacement.
struct HoldContext {
  HoldContext(Mix m, std::uint64_t seed) : rng(seed), mix(m) {}

  sim::EventArena arena;  // outlives the queue, as in sim::Simulator
  sim::EventQueue queue;
  util::Rng rng;
  Mix mix;
  sim::Time now = 0.0;
  std::uint64_t seq = 0;
};

/// The event: when it fires, it schedules its successor.
struct Hold {
  HoldContext* ctx;
  void operator()() const { schedule(*ctx, ctx->now); }

  static void schedule(HoldContext& ctx, sim::Time base) {
    ctx.queue.push(base + sample_delay(ctx.mix, ctx.rng), ctx.seq++,
                   sim::EventTag::kGeneric, Hold{&ctx}, ctx.arena);
  }
};

CellOut run_cell(Mix mix, std::size_t pending, std::size_t holds,
                 std::uint64_t seed) {
  HoldContext ctx(mix, seed);
  // Prefill: `pending` events spread by the mix.
  for (std::size_t i = 0; i < pending; ++i) Hold::schedule(ctx, 0.0);
  const auto start = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < holds; ++i) {
    const sim::EventQueue::Popped top = ctx.queue.pop();
    ctx.now = top.t;
    ctx.queue.callback(top.slot)();
    ctx.queue.release(top.slot);
  }
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  CellOut out;
  out.hold_mops =
      wall > 0.0 ? static_cast<double>(holds) / wall / 1e6 : 0.0;
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
  bench::Table table({"mix", "pending", "Mops"}, 13);
  table.print_header();
  for (Mix mix : {Mix::kUniform, Mix::kTwoPoint, Mix::kHeavyTail}) {
    for (std::size_t pending : sizes) {
      // Enough holds to dominate cache-warming, capped to keep the big
      // pending sizes affordable.
      const std::size_t holds =
          std::min<std::size_t>(2 * pending, 2000000);
      CellOut cell = run_cell(mix, pending, holds, seed);
      timing.add(cell.ops);
      table.cell(mix_name(mix));
      table.cell(pending);
      table.cell(cell.hold_mops, 2);
      table.end_row();
      std::fflush(stdout);
    }
    std::printf("\n");
  }
  timing.emit(1);
  return 0;
}
