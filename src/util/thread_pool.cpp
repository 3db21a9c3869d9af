#include "util/thread_pool.hpp"

#include <exception>
#include <memory>

#include "util/require.hpp"

namespace mpsched {

ThreadPool::ThreadPool(std::size_t n_threads) {
  // A wild thread count (a mis-parsed CLI flag, an overflowed size) must
  // fail as a bad argument, not as resource exhaustion mid-construction.
  MPSCHED_REQUIRE(n_threads <= kMaxThreads,
                  "thread count " + std::to_string(n_threads) + " exceeds the maximum of " +
                      std::to_string(kMaxThreads));
  if (n_threads == 0) {
    n_threads = std::thread::hardware_concurrency();
    if (n_threads == 0) n_threads = 1;
  }
  workers_.reserve(n_threads);
  for (std::size_t i = 0; i < n_threads; ++i) workers_.emplace_back([this] { worker_loop(); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mutex_);
    stop_ = true;
  }
  cv_task_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void ThreadPool::submit(std::function<void()> task) {
  MPSCHED_REQUIRE(task != nullptr, "task must be callable");
  {
    std::lock_guard lock(mutex_);
    tasks_.push(std::move(task));
  }
  cv_task_.notify_one();
}

void ThreadPool::worker_loop() {
  while (true) {
    std::function<void()> task;
    {
      std::unique_lock lock(mutex_);
      cv_task_.wait(lock, [this] { return stop_ || !tasks_.empty(); });
      if (stop_ && tasks_.empty()) return;
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    task();
  }
}

namespace {

/// One parallel_for call's shared state. Helper tasks may outlive the call
/// (a helper still queued when the caller returns), so it is shared-owned;
/// `closed` tells such a late helper that `fn` is gone.
struct Loop {
  std::atomic<std::size_t> cursor{0};
  std::atomic<bool> failed{false};
  std::mutex mutex;  // guards error, helpers, closed
  std::condition_variable helpers_done;
  std::exception_ptr error;
  std::size_t helpers = 0;  // helpers currently draining this loop
  bool closed = false;      // the caller has drained; no helper may join

  void drain(std::size_t n, const std::function<void(std::size_t)>& fn) {
    while (true) {
      const std::size_t i = cursor.fetch_add(1, std::memory_order_relaxed);
      if (i >= n || failed.load(std::memory_order_relaxed)) return;
      try {
        fn(i);
      } catch (...) {
        std::lock_guard lock(mutex);
        if (!failed.exchange(true)) error = std::current_exception();
        return;
      }
    }
  }
};

}  // namespace

void ThreadPool::parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  MPSCHED_REQUIRE(fn != nullptr, "fn must be callable");

  auto loop = std::make_shared<Loop>();
  // One helper per worker; the calling thread drains too, so a pool of
  // size 1 still gives 2-way parallelism and a busy pool (or a nested
  // call) degrades to the caller doing the work alone.
  for (std::size_t t = 0; t < workers_.size(); ++t) {
    submit([loop, &fn, n] {
      {
        std::lock_guard lock(loop->mutex);
        if (loop->closed) return;  // the call has returned; fn may be gone
        ++loop->helpers;
      }
      loop->drain(n, fn);
      std::lock_guard lock(loop->mutex);
      if (--loop->helpers == 0) loop->helpers_done.notify_all();
    });
  }
  loop->drain(n, fn);
  {
    std::unique_lock lock(loop->mutex);
    loop->closed = true;
    loop->helpers_done.wait(lock, [&loop] { return loop->helpers == 0; });
  }
  if (loop->error) std::rethrow_exception(loop->error);
}

ThreadPool& ThreadPool::shared() {
  static ThreadPool pool;
  return pool;
}

}  // namespace mpsched
