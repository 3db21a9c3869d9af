// A minimal fixed-size thread pool plus a deterministic parallel-for.
//
// The batch engine's dispatch phases and enumerate_antichains() (on the
// shared pool) parallelize over an index space with parallel_for(); both
// enumerate over the one partition_roots() shard plan. Work is distributed
// by an atomic cursor (dynamic load balancing), but each index always
// computes the same value into its own slot, so results are independent of
// thread count and scheduling order. Each parallel_for() call waits only
// for its own work: the caller drains the loop's cursor itself, then waits
// for the helpers that actually joined this loop. So a parallel_for()
// nested in a task of the same pool finishes even when every worker is
// busy, and concurrent callers on one pool never wait for each other.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace mpsched {

class ThreadPool {
 public:
  /// Hard ceiling on workers per pool; requests above it are a
  /// precondition violation (std::invalid_argument), never an attempt to
  /// actually spawn them.
  static constexpr std::size_t kMaxThreads = 4096;

  /// Creates `n_threads` workers; 0 means std::thread::hardware_concurrency().
  /// Throws std::invalid_argument when n_threads > kMaxThreads.
  explicit ThreadPool(std::size_t n_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t thread_count() const noexcept { return workers_.size(); }

  /// Enqueues a task; returns immediately.
  void submit(std::function<void()> task);

  /// Runs fn(i) for all i in [0, n) across the pool (plus the calling
  /// thread), blocking until every index has run. Exceptions from `fn` are
  /// rethrown on the caller (first one wins). Safe to nest inside a task of
  /// the same pool and to call from several threads at once.
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn);

  /// Process-wide shared pool (lazily constructed, sized to the machine).
  static ThreadPool& shared();

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> tasks_;
  std::mutex mutex_;
  std::condition_variable cv_task_;
  bool stop_ = false;
};

}  // namespace mpsched
