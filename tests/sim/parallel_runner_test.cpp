/// \file parallel_runner_test.cpp
/// sim::ParallelRunner: results come back in index order no matter the job
/// count or completion order, every index runs exactly once, a throwing
/// batch still runs every index and reports the lowest failing one at every
/// job count, and one runner serves batch after batch.  Runs under TSan in
/// CI (the helper threads and the calling thread share each batch's
/// counter and error slot).

#include "sim/parallel_runner.hpp"

#include <atomic>
#include <chrono>
#include <cstddef>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace pqra::sim {
namespace {

TEST(ParallelRunner, MapReturnsResultsInIndexOrder) {
  for (std::size_t jobs : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    ParallelRunner pool(jobs);
    std::vector<int> out = pool.map<int>(
        37, [](std::size_t i) { return static_cast<int>(i * i); });
    ASSERT_EQ(out.size(), 37u) << "jobs=" << jobs;
    for (std::size_t i = 0; i < out.size(); ++i) {
      EXPECT_EQ(out[i], static_cast<int>(i * i)) << "jobs=" << jobs;
    }
  }
}

TEST(ParallelRunner, SlowItemsDoNotPerturbResultOrder) {
  ParallelRunner pool(4);
  // Early indices sleep, late ones finish instantly: completion order is
  // roughly reversed, result order must not be.
  std::vector<std::size_t> out =
      pool.map<std::size_t>(16, [](std::size_t i) {
        if (i < 4) {
          std::this_thread::sleep_for(std::chrono::milliseconds(20));
        }
        return i;
      });
  std::vector<std::size_t> expected(16);
  std::iota(expected.begin(), expected.end(), std::size_t{0});
  EXPECT_EQ(out, expected);
}

TEST(ParallelRunner, EachIndexRunsExactlyOnce) {
  ParallelRunner pool(8);
  constexpr std::size_t kCount = 500;
  std::vector<std::atomic<int>> hits(kCount);
  pool.for_each_index(kCount, [&](std::size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::size_t i = 0; i < kCount; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ParallelRunner, ZeroCountIsANoOp) {
  ParallelRunner pool(4);
  pool.for_each_index(0, [](std::size_t) { FAIL() << "must not be called"; });
}

TEST(ParallelRunner, ZeroJobsMeansHardwareDefault) {
  ParallelRunner pool(0);
  EXPECT_GE(pool.jobs(), 1u);
  EXPECT_EQ(pool.jobs(), default_jobs());
}

TEST(ParallelRunner, LowestFailingIndexWins) {
  for (std::size_t jobs : {std::size_t{1}, std::size_t{4}}) {
    ParallelRunner pool(jobs);
    std::atomic<int> calls{0};
    try {
      pool.for_each_index(64, [&](std::size_t i) {
        calls.fetch_add(1, std::memory_order_relaxed);
        if (i % 10 == 7) {  // 7, 17, 27, ... all fail
          throw std::runtime_error("boom at " + std::to_string(i));
        }
      });
      FAIL() << "expected an exception (jobs=" << jobs << ")";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "boom at 7") << "jobs=" << jobs;
    }
    // The batch drains before it rethrows, at every jobs value.
    EXPECT_EQ(calls.load(), 64) << "jobs=" << jobs;
  }
}

TEST(ParallelRunner, PoolIsReusableAcrossBatches) {
  ParallelRunner pool(4);
  std::uint64_t total = 0;
  for (int batch = 0; batch < 20; ++batch) {
    std::vector<std::uint64_t> out = pool.map<std::uint64_t>(
        25, [&](std::size_t i) { return static_cast<std::uint64_t>(i) + 1; });
    for (std::uint64_t v : out) total += v;
  }
  EXPECT_EQ(total, 20u * (25u * 26u / 2u));
}

TEST(ParallelRunner, BatchAfterFailureStillWorks) {
  ParallelRunner pool(4);
  EXPECT_THROW(pool.for_each_index(
                   8, [](std::size_t) { throw std::runtime_error("x"); }),
               std::runtime_error);
  std::vector<int> out = pool.map<int>(8, [](std::size_t i) {
    return static_cast<int>(i);
  });
  EXPECT_EQ(out.size(), 8u);
  EXPECT_EQ(out[7], 7);
}

TEST(ParallelRunner, WorkActuallyRunsConcurrently) {
  ParallelRunner pool(4);
  std::atomic<int> inside{0};
  std::atomic<int> peak{0};
  pool.for_each_index(8, [&](std::size_t) {
    int now = inside.fetch_add(1, std::memory_order_relaxed) + 1;
    int seen = peak.load(std::memory_order_relaxed);
    while (now > seen &&
           !peak.compare_exchange_weak(seen, now, std::memory_order_relaxed)) {
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    inside.fetch_sub(1, std::memory_order_relaxed);
  });
  // On a single-core host the scheduler may still serialise the sleeps, but
  // more than one worker must have been alive inside fn at some point.
  EXPECT_GE(peak.load(), 1);
  EXPECT_EQ(inside.load(), 0);
}

}  // namespace
}  // namespace pqra::sim
