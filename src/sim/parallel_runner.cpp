#include "sim/parallel_runner.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <system_error>
#include <thread>

#include "util/check.hpp"

namespace pqra::sim {

std::size_t default_jobs() {
  std::size_t hw = std::thread::hardware_concurrency();
  if (hw == 0) hw = 1;
  return std::min(hw, kMaxJobs);
}

ParallelRunner::ParallelRunner(std::size_t jobs)
    : jobs_(jobs == 0 ? default_jobs() : jobs) {}

void ParallelRunner::for_each_index(
    std::size_t count, const std::function<void(std::size_t)>& fn) {
  PQRA_REQUIRE(fn != nullptr, "ParallelRunner: null work function");

  std::atomic<std::size_t> next{0};
  std::mutex error_mutex;
  std::size_t error_index = count;  // lowest failing index so far
  std::exception_ptr error;
  auto drain = [&] {
    for (std::size_t i = next.fetch_add(1); i < count;
         i = next.fetch_add(1)) {
      try {
        fn(i);
      } catch (...) {
        std::lock_guard lock(error_mutex);
        if (i < error_index) {
          error_index = i;
          error = std::current_exception();
        }
      }
    }
  };

  const std::size_t threads = std::min(jobs_, count);
  std::vector<std::thread> helpers;
  helpers.reserve(threads);  // so only a thread start can throw below
  try {
    for (std::size_t t = 1; t < threads; ++t) helpers.emplace_back(drain);
  } catch (const std::system_error&) {
    // Fewer threads only cost speed: drain() below still claims every
    // index the helpers that did start leave over.
  }
  drain();
  for (std::thread& t : helpers) t.join();
  if (error) std::rethrow_exception(error);
}

}  // namespace pqra::sim
