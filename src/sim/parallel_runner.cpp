#include "sim/parallel_runner.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace pqra::sim {

std::size_t default_jobs() {
  std::size_t hw = std::thread::hardware_concurrency();
  if (hw == 0) hw = 1;
  return std::min(hw, kMaxJobs);
}

ParallelRunner::ParallelRunner(std::size_t jobs)
    : jobs_(jobs == 0 ? default_jobs() : jobs) {}

ParallelRunner::~ParallelRunner() {
  {
    std::lock_guard lock(mutex_);
    shutdown_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void ParallelRunner::ensure_workers() {
  if (!workers_.empty()) return;
  workers_.reserve(jobs_);
  for (std::size_t i = 0; i < jobs_; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

void ParallelRunner::worker_loop() {
  std::unique_lock lock(mutex_);
  for (;;) {
    work_cv_.wait(lock, [this] {
      return shutdown_ || (batch_open_ && next_ < count_);
    });
    if (shutdown_) return;
    while (next_ < count_) {
      const std::size_t index = next_++;
      ++in_flight_;
      lock.unlock();
      std::exception_ptr err;
      try {
        (*fn_)(index);
      } catch (...) {
        err = std::current_exception();
      }
      lock.lock();
      if (err && (!error_ || index < error_index_)) {
        error_ = err;
        error_index_ = index;
      }
      --in_flight_;
    }
    if (in_flight_ == 0) done_cv_.notify_all();
  }
}

void ParallelRunner::for_each_index(
    std::size_t count, const std::function<void(std::size_t)>& fn) {
  PQRA_REQUIRE(fn != nullptr, "ParallelRunner: null work function");
  if (count == 0) return;

  // Inline fast path: sequential semantics, zero synchronisation, and the
  // caller's stack in every frame (debuggers, sanitizer reports).
  if (jobs_ == 1 || count == 1) {
    for (std::size_t i = 0; i < count; ++i) fn(i);
    return;
  }

  std::unique_lock lock(mutex_);
  PQRA_CHECK(!batch_open_, "ParallelRunner batches must not nest");
  ensure_workers();
  fn_ = &fn;
  count_ = count;
  next_ = 0;
  in_flight_ = 0;
  error_ = nullptr;
  error_index_ = 0;
  batch_open_ = true;
  work_cv_.notify_all();
  done_cv_.wait(lock, [this] { return next_ >= count_ && in_flight_ == 0; });
  batch_open_ = false;
  fn_ = nullptr;
  if (error_) {
    std::exception_ptr err = error_;
    error_ = nullptr;
    lock.unlock();
    std::rethrow_exception(err);
  }
}

}  // namespace pqra::sim
