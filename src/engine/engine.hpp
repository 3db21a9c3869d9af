// The batch scheduling engine — "submit jobs, get results" (ROADMAP's
// service-layer substrate).
//
// Every caller used to hand-wire enumerate_antichains → select_patterns →
// multi_pattern_schedule per graph. The engine runs a whole corpus instead:
//
//   1. Deduplicate. Jobs are grouped by content-addressed analysis key
//      (engine/analysis_cache.hpp); a batch with the same graph under the
//      same generation options computes its antichain analysis once, and a
//      warm cache skips the computation entirely. Every engine owns exactly
//      one AnalysisCache, built in its constructor (with the cache_dir disk
//      tier, if any), and keeps it for its lifetime.
//   2. Shard. Each analysis to compute is split by enumeration root with
//      partition_roots() (antichain/enumerate.hpp) — the same cyclic plan
//      of 4 × workers shards enumerate_antichains() runs — but ALL shards
//      of ALL jobs go into one dynamically-balanced parallel_for, so work
//      steals across jobs *and* within a job, and one huge DFG does not
//      serialize the tail of the batch. Each unit's shards are merged with
//      merge_antichain_analyses().
//   3. Solve. Selection, scheduling and optional refinement run per job in
//      a second parallel_for (they are orders of magnitude cheaper than
//      enumeration and strictly sequential per job).
//
// Determinism: shard merging is grouping-insensitive and every phase
// writes to per-index slots, so results — down to the serialized JSON —
// are bit-identical for any thread count and any cache state.
//
// Submission surface: submit()/submit_batch() enqueue jobs on an internal
// admission queue (engine/submission_queue.hpp) and return waitable
// Tickets; a dispatcher thread micro-batches everything queued into
// shared dispatches under EngineOptions::coalesce. run_batch() survives
// as a thin synchronous wrapper — submit the batch, wait the tickets —
// so every existing caller keeps working, and because a JobResult depends
// only on its Job, coalescing never changes what any caller gets back.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "engine/analysis_cache.hpp"
#include "engine/job.hpp"
#include "engine/submission_queue.hpp"

namespace mpsched {
class ThreadPool;
}

namespace mpsched::engine {

struct EngineOptions {
  /// Worker threads for the engine's own pool; 0 = use ThreadPool::shared().
  std::size_t threads = 0;
  /// Non-empty → the engine's cache gets a CacheStore on this directory
  /// as its disk tier, persisting analyses across processes. Created if
  /// absent; safe to share between concurrent processes.
  std::string cache_dir;
  /// When the admission queue behind submit()/run_batch() flushes queued
  /// jobs into one shared dispatch (submission_queue.hpp). The default —
  /// flush-on-idle, no added delay — dispatches a lone submission
  /// immediately; coalescing then happens only while a dispatch is
  /// already executing, so latency is never traded away silently.
  CoalescePolicy coalesce{};
};

struct BatchResult {
  std::vector<JobResult> jobs;

  // -- diagnostics (excluded from deterministic serialization) -----------
  double wall_ms = 0.0;
  /// Jobs whose analysis was computed fresh this batch.
  std::size_t analyses_computed = 0;
  /// Jobs served by the cache or by intra-batch deduplication.
  std::size_t analyses_reused = 0;
  /// The engine's cache counters at the end of the batch's dispatch
  /// (cumulative over the engine's lifetime).
  CacheStats cache_stats{};

  std::size_t succeeded() const;
};

/// Cumulative counters over every dispatch of one engine plus cache and
/// admission-queue snapshots — the "how warm is this engine" surface a
/// long-running front end (src/service) reports without poking engine
/// internals. Counters only grow (queue_depth is the instantaneous
/// exception); `cache` is the AnalysisCache's counter snapshot captured
/// at this engine's last completed dispatch — never mid-dispatch — so a
/// stats() read always pairs dispatch counters with the cache traffic
/// those dispatches produced.
struct EngineStats {
  std::uint64_t batches = 0;  ///< dispatches executed (shared or singleton)
  std::uint64_t jobs = 0;
  std::uint64_t jobs_succeeded = 0;
  std::uint64_t analyses_computed = 0;
  std::uint64_t analyses_reused = 0;
  // -- admission queue (submission_queue.hpp) ----------------------------
  std::uint64_t jobs_submitted = 0;  ///< tickets ever issued
  std::uint64_t jobs_cancelled = 0;  ///< tickets cancelled before dispatch
  std::uint64_t coalesced_dispatches = 0;  ///< dispatches carrying > 1 job
  std::uint64_t queue_depth = 0;           ///< currently queued
  std::uint64_t max_queue_depth = 0;       ///< queue-depth high-water mark
  CacheStats cache{};
};

/// Waits out a ticket set and reassembles it into a BatchResult: results
/// in ticket order, per-job AnalysisSource attribution summed back into
/// analyses_computed / analyses_reused (the invariant that makes
/// per-request accounting exact even when requests share a coalesced
/// dispatch). Used by run_batch() and the service layer alike; wall_ms
/// and cache_stats are left for the caller, who knows what they span.
/// Rethrows a dispatch-level failure of any ticket.
BatchResult collect_tickets(const std::vector<Ticket>& tickets);

class Engine {
 public:
  explicit Engine(EngineOptions options = {});
  ~Engine();  ///< drains the admission queue (shutdown()) before teardown

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Enqueues one job on the admission queue; the Ticket resolves when a
  /// shared dispatch has executed it. Thread-safe; throws after shutdown().
  Ticket submit(Job job);
  /// Enqueues a batch atomically — one flush always dispatches it whole,
  /// so intra-batch deduplication is never lost to coalescing splits.
  std::vector<Ticket> submit_batch(std::vector<Job> jobs);

  /// Executes one job synchronously (submit + wait).
  JobResult run(const Job& job);

  /// Executes a batch synchronously; results are index-aligned with
  /// `jobs`. A thin wrapper over submit_batch(): the jobs ride the same
  /// admission queue as every async caller (and may share a dispatch with
  /// them), which changes nothing about the results — only the counters
  /// they are reported under.
  BatchResult run_batch(const std::vector<Job>& jobs);

  /// Drains the admission queue (queued jobs still execute, in one final
  /// flush) and stops the dispatcher. Idempotent; implied by destruction.
  /// submit()/run_batch() afterwards throw std::runtime_error.
  void shutdown();

  const EngineOptions& options() const noexcept { return options_; }
  /// The engine's cache.
  AnalysisCache& cache() noexcept { return cache_; }

  /// Snapshot of the cumulative counters (thread-safe; dispatches may be
  /// executing concurrently — the snapshot is simply the last completed
  /// state). Dispatch-boundary consistent: the dispatch counters and
  /// `cache` are read under one lock and updated under the same lock at
  /// the end of every dispatch, so no snapshot can report a dispatch
  /// without its cache hits (queue_depth stays instantaneous).
  EngineStats stats();

 private:
  ThreadPool& pool();
  SubmissionQueue& queue();  ///< lazily started on first submission
  /// One shared dispatch: the whole batch pipeline (phases 0–2).
  BatchResult execute_batch(const std::vector<Job>& jobs);

  EngineOptions options_;
  std::unique_ptr<ThreadPool> owned_pool_;
  AnalysisCache cache_;
  std::mutex stats_mutex_;
  EngineStats stats_;
  std::mutex queue_mutex_;  ///< guards lazy queue_ construction + shut_down_
  std::unique_ptr<SubmissionQueue> queue_;
  bool shut_down_ = false;
};

}  // namespace mpsched::engine
