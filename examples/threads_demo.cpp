/// \file threads_demo.cpp
/// The same protocol on real OS threads instead of the simulator: replica
/// servers and clients are std::threads exchanging messages through
/// mailboxes.  One writer publishes a feed; several monotone readers consume
/// it concurrently and verify they never observe time going backwards; then
/// the full APSP application runs end-to-end on the threaded runtime.
///
///   ./threads_demo [servers=8] [quorum_size=3] [readers=4]

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <thread>
#include <vector>

#include "apps/apsp.hpp"
#include "apps/graph.hpp"
#include "core/blocking_register.hpp"
#include "core/threaded_server.hpp"
#include "iter/alg1_threads.hpp"
#include "net/thread_transport.hpp"
#include "quorum/probabilistic.hpp"
#include "util/codec.hpp"

using namespace pqra;

int main(int argc, char** argv) {
  const std::size_t n = argc > 1 ? std::strtoul(argv[1], nullptr, 10) : 8;
  const std::size_t k = argc > 2 ? std::strtoul(argv[2], nullptr, 10) : 3;
  const std::size_t readers = argc > 3 ? std::strtoul(argv[3], nullptr, 10) : 4;

  quorum::ProbabilisticQuorums qs(n, k);
  std::printf("part 1 — live feed: %zu server threads, %zu monotone reader "
              "threads, %s\n",
              n, readers, qs.name().c_str());

  {
    net::ThreadTransport transport(
        static_cast<net::NodeId>(n + readers + 1));
    std::vector<std::unique_ptr<core::ThreadedServer>> servers;
    for (std::size_t s = 0; s < n; ++s) {
      core::Replica replica;
      replica.preload(0, util::encode<std::int64_t>(0));
      servers.push_back(std::make_unique<core::ThreadedServer>(
          transport, static_cast<net::NodeId>(s), std::move(replica)));
    }

    std::atomic<bool> done{false};
    std::atomic<int> regressions{0};
    std::atomic<long long> reads_done{0};
    std::vector<std::thread> reader_threads;
    for (std::size_t i = 0; i < readers; ++i) {
      reader_threads.emplace_back([&, i] {
        core::BlockingRegisterClient reader(
            transport, static_cast<net::NodeId>(n + 1 + i), qs,
            util::Rng(100 + i), /*monotone=*/true);
        core::Timestamp last = 0;
        while (!done.load()) {
          auto r = reader.read(0);
          if (!r.has_value()) return;
          if (r->ts < last) ++regressions;
          last = r->ts;
          ++reads_done;
        }
      });
    }

    core::BlockingRegisterClient writer(transport,
                                        static_cast<net::NodeId>(n), qs,
                                        util::Rng(1));
    for (std::int64_t v = 1; v <= 500; ++v) {
      writer.write(0, util::encode(v));
    }
    done = true;
    for (auto& t : reader_threads) t.join();
    transport.close();
    servers.clear();

    std::printf("  500 writes published, %lld concurrent reads, "
                "%d monotonicity violations ([R4] holds)\n\n",
                reads_done.load(), regressions.load());
    if (regressions.load() != 0) return 1;
  }

  std::printf("part 2 — APSP on the threaded runtime (10-vertex chain)\n");
  apps::Graph g = apps::make_chain(10);
  apps::ApspOperator op(g);
  iter::Alg1ThreadsOptions options;
  options.quorums = &qs;
  options.monotone = true;
  iter::Alg1ThreadsResult r = iter::run_alg1_threads(op, options);
  std::printf("  %s in %zu rounds, %zu iterations, %llu messages\n",
              r.converged ? "converged" : "cap hit", r.rounds, r.iterations,
              static_cast<unsigned long long>(r.messages.total));
  return r.converged ? 0 : 1;
}
