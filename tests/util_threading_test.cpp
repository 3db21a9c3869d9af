// ThreadPool behaviour: completion, exception propagation, determinism of
// parallel_for results independent of scheduling, nested and concurrent
// parallel_for calls. A parallel_for that waits on work it does not own
// hangs; CMakeLists.txt gives this suite a ctest timeout so that shows as
// a failure.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <numeric>
#include <thread>

#include "util/thread_pool.hpp"

namespace mpsched {
namespace {

TEST(ThreadPoolTest, RunsSubmittedTasks) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(3);
    for (int i = 0; i < 100; ++i) pool.submit([&counter] { ++counter; });
  }  // the destructor runs every queued task before joining
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, ParallelForCoversAllIndices) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(1000, [&hits](std::size_t i) { ++hits[i]; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, ParallelForZeroIsNoop) {
  ThreadPool pool(2);
  pool.parallel_for(0, [](std::size_t) { FAIL() << "must not be called"; });
}

TEST(ThreadPoolTest, ParallelForResultIndependentOfThreadCount) {
  auto run = [](std::size_t threads) {
    ThreadPool pool(threads);
    std::vector<std::uint64_t> out(500);
    pool.parallel_for(500, [&out](std::size_t i) { out[i] = i * i + 7; });
    return out;
  };
  EXPECT_EQ(run(1), run(7));
}

TEST(ThreadPoolTest, ParallelForPropagatesExceptions) {
  ThreadPool pool(2);
  EXPECT_THROW(
      pool.parallel_for(100,
                        [](std::size_t i) {
                          if (i == 42) throw std::runtime_error("boom");
                        }),
      std::runtime_error);
}

TEST(ThreadPoolTest, SubmitNullThrows) {
  ThreadPool pool(1);
  EXPECT_THROW(pool.submit(nullptr), std::invalid_argument);
}

TEST(ThreadPoolTest, FreshPoolDestroysCleanly) {
  { ThreadPool pool(2); }  // must not hang
  SUCCEED();
}

// A parallel_for inside a task of the same pool must finish even when
// every worker is busy running the outer loop: each call waits only for
// its own work.
class NestedParallelForTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(NestedParallelForTest, InnerLoopsFinishAndCoverAllIndices) {
  ThreadPool pool(GetParam());
  constexpr std::size_t kOuter = 8, kInner = 16;
  std::vector<std::atomic<int>> hits(kOuter * kInner);
  pool.parallel_for(kOuter, [&](std::size_t i) {
    pool.parallel_for(kInner, [&](std::size_t j) { ++hits[i * kInner + j]; });
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST_P(NestedParallelForTest, InnerExceptionReachesOuterCaller) {
  ThreadPool pool(GetParam());
  EXPECT_THROW(pool.parallel_for(4,
                                 [&](std::size_t) {
                                   pool.parallel_for(4, [](std::size_t j) {
                                     if (j == 2) throw std::runtime_error("inner");
                                   });
                                 }),
               std::runtime_error);
}

INSTANTIATE_TEST_SUITE_P(PoolSizes, NestedParallelForTest, ::testing::Values(1, 2, 4));

// Two callers on one pool: caller A's tasks block every pool worker until
// released; caller B's parallel_for must still return, because B waits
// only for its own indices (which it drains itself), not for A's tasks.
TEST(ThreadPoolTest, ConcurrentCallerDoesNotWaitForOthersSlowTask) {
  ThreadPool pool(2);
  constexpr std::size_t kSlow = 3;  // pool threads + A's own thread
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  std::atomic<std::size_t> slow_running{0};
  std::thread a([&] {
    pool.parallel_for(kSlow, [&](std::size_t) {
      ++slow_running;
      released.wait();
    });
  });
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (slow_running.load() < kSlow && std::chrono::steady_clock::now() < deadline)
    std::this_thread::yield();
  ASSERT_EQ(slow_running.load(), kSlow) << "A's tasks never occupied the pool";

  std::vector<std::atomic<int>> hits(64);
  std::future<void> b = std::async(std::launch::async, [&] {
    pool.parallel_for(hits.size(), [&](std::size_t i) { ++hits[i]; });
  });
  const bool b_returned = b.wait_for(std::chrono::seconds(10)) == std::future_status::ready;
  release.set_value();  // unblock A whatever happened, so the test ends
  a.join();
  b.get();
  EXPECT_TRUE(b_returned) << "B waited for A's slow tasks";
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, SharedPoolIsSingleton) {
  EXPECT_EQ(&ThreadPool::shared(), &ThreadPool::shared());
  EXPECT_GE(ThreadPool::shared().thread_count(), 1u);
}

}  // namespace
}  // namespace mpsched
