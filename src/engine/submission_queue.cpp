#include "engine/submission_queue.hpp"

#include <chrono>
#include <stdexcept>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace mpsched::engine {

namespace {

JobResult cancelled_result(const Job& job) {
  JobResult r;
  r.job = job.resolved_name();
  r.workload = job.workload;
  r.backend = job.backend;
  r.transforms = job.transforms;
  r.nodes = job.dfg.node_count();
  r.edges = job.dfg.edge_count();
  r.success = false;
  r.error = "cancelled before dispatch";
  return r;
}

}  // namespace

// ---------------------------------------------------------------------------
// Ticket
// ---------------------------------------------------------------------------

const detail::TicketEntry& Ticket::checked() const {
  if (entry_ == nullptr) throw std::logic_error("Ticket: default-constructed (invalid)");
  return *entry_;
}

std::uint64_t Ticket::id() const { return checked().id; }

TicketState Ticket::state() const {
  return checked().state.load(std::memory_order_acquire);
}

bool Ticket::ready() const {
  return checked().future.wait_for(std::chrono::seconds(0)) ==
         std::future_status::ready;
}

void Ticket::wait() const { checked().future.wait(); }

bool Ticket::wait_for(std::chrono::milliseconds timeout) const {
  return checked().future.wait_for(timeout) == std::future_status::ready;
}

const JobResult& Ticket::result() const { return checked().future.get(); }

bool Ticket::cancel() {
  checked();
  // The queue lock decides the race against a concurrent flush: the
  // dispatcher marks entries Dispatched under the same lock, so exactly
  // one side wins, and a won cancel can still find its entry in pending.
  std::unique_lock lock(core_->mutex);
  if (entry_->state.load(std::memory_order_acquire) != TicketState::Queued)
    return false;
  entry_->state.store(TicketState::Cancelled, std::memory_order_release);
  for (auto it = core_->pending.begin(); it != core_->pending.end(); ++it)
    if (it->get() == entry_.get()) {
      core_->pending.erase(it);
      break;
    }
  ++core_->stats.cancelled;
  core_->stats.queue_depth = core_->pending.size();
  {
    static obs::Gauge& depth = obs::Registry::global().gauge("queue.depth");
    depth.set(static_cast<std::int64_t>(core_->stats.queue_depth));
  }
  lock.unlock();
  entry_->promise.set_value(cancelled_result(entry_->job));
  return true;
}

// ---------------------------------------------------------------------------
// SubmissionQueue
// ---------------------------------------------------------------------------

SubmissionQueue::SubmissionQueue(
    std::function<std::vector<JobResult>(std::vector<Job>)> dispatch,
    CoalescePolicy policy)
    : dispatch_(std::move(dispatch)),
      policy_(policy),
      core_(std::make_shared<detail::QueueCore>()) {
  if (policy_.max_jobs == 0)
    throw std::invalid_argument(
        "CoalescePolicy: max_jobs must be >= 1 (a zero trigger would never flush)");
  if (dispatch_ == nullptr)
    throw std::invalid_argument("SubmissionQueue: a dispatch function is required");
  dispatcher_ = std::thread([this] { dispatcher_loop(); });
}

SubmissionQueue::~SubmissionQueue() { shutdown(); }

Ticket SubmissionQueue::submit(Job job) {
  std::vector<Job> one;
  one.push_back(std::move(job));
  return submit_batch(std::move(one)).front();
}

std::vector<Ticket> SubmissionQueue::submit_batch(std::vector<Job> jobs) {
  std::vector<Ticket> tickets;
  tickets.reserve(jobs.size());
  if (jobs.empty()) return tickets;

  const auto now = std::chrono::steady_clock::now();
  std::vector<std::shared_ptr<detail::TicketEntry>> entries;
  entries.reserve(jobs.size());
  for (Job& job : jobs) {
    auto entry = std::make_shared<detail::TicketEntry>();
    entry->id = next_id_.fetch_add(1, std::memory_order_relaxed);
    entry->job = std::move(job);
    entry->future = entry->promise.get_future().share();
    entry->enqueued = now;
    entries.push_back(std::move(entry));
  }

  {
    std::lock_guard lock(core_->mutex);
    if (core_->stop)
      throw std::runtime_error("Engine: submit after shutdown (the queue is drained)");
    for (auto& entry : entries) {
      core_->pending.push_back(entry);
      ++core_->stats.submitted;
    }
    core_->stats.queue_depth = core_->pending.size();
    if (core_->stats.queue_depth > core_->stats.max_queue_depth)
      core_->stats.max_queue_depth = core_->stats.queue_depth;
    static obs::Gauge& depth = obs::Registry::global().gauge("queue.depth");
    depth.set(static_cast<std::int64_t>(core_->stats.queue_depth));
  }
  core_->cv.notify_all();

  for (auto& entry : entries) tickets.push_back(Ticket(std::move(entry), core_));
  return tickets;
}

void SubmissionQueue::shutdown() {
  {
    std::lock_guard lock(core_->mutex);
    core_->stop = true;
  }
  core_->cv.notify_all();
  // A dedicated join lock makes shutdown() idempotent *and* safe to call
  // concurrently (join() on one std::thread from two threads is UB).
  std::lock_guard join_lock(join_mutex_);
  if (dispatcher_.joinable()) dispatcher_.join();
}

SubmissionStats SubmissionQueue::stats() const {
  std::lock_guard lock(core_->mutex);
  return core_->stats;
}

void SubmissionQueue::dispatcher_loop() {
  detail::QueueCore& core = *core_;
  std::unique_lock lock(core.mutex);
  for (;;) {
    core.cv.wait(lock, [&] { return core.stop || !core.pending.empty(); });
    if (core.pending.empty()) {
      if (core.stop) return;
      continue;
    }

    // Coalescing hold: with flush_on_idle the dispatcher is by definition
    // idle here, so it flushes at once; otherwise it holds until max_jobs
    // accumulate, the oldest job's hold window expires, or shutdown. The
    // deadline is recomputed on every wait iteration: the front entry can
    // be cancelled mid-hold, and a dead entry's timestamp must not cut the
    // survivors' window short.
    if (!policy_.flush_on_idle) {
      for (;;) {
        if (core.stop || core.pending.empty() ||
            core.pending.size() >= policy_.max_jobs)
          break;
        const auto deadline = core.pending.front()->enqueued +
                              std::chrono::milliseconds(policy_.max_delay_ms);
        if (std::chrono::steady_clock::now() >= deadline) break;
        core.cv.wait_until(lock, deadline);
      }
      if (core.pending.empty()) continue;  // everything got cancelled meanwhile
    }

    // Flush: take everything queued. Entries are marked Dispatched under
    // the lock, so cancel() can no longer win on them.
    std::vector<std::shared_ptr<detail::TicketEntry>> batch(
        core.pending.begin(), core.pending.end());
    core.pending.clear();
    for (auto& entry : batch)
      entry->state.store(TicketState::Dispatched, std::memory_order_release);
    ++core.stats.dispatches;
    if (batch.size() > 1) ++core.stats.coalesced_dispatches;
    core.stats.jobs_dispatched += batch.size();
    core.stats.queue_depth = 0;
    lock.unlock();

    // Admission telemetry: how long each job sat queued (recorded
    // retroactively — the wait happened off this thread's stack, so the
    // span goes onto the exporter's synthetic queue tracks) and how many
    // jobs this flush coalesced.
    if (obs::metrics_enabled() || obs::tracing_enabled()) {
      static obs::Gauge& depth = obs::Registry::global().gauge("queue.depth");
      static obs::Histogram& wait_ms =
          obs::Registry::global().histogram("queue.wait_ms");
      static obs::Histogram& coalesce_jobs = obs::Registry::global().histogram(
          "queue.coalesce_jobs", {1, 2, 4, 8, 16, 32, 64, 128});
      depth.set(0);
      coalesce_jobs.record(static_cast<double>(batch.size()));
      const auto flushed = std::chrono::steady_clock::now();
      const std::int64_t flush_ns = obs::trace_now_ns();
      for (const auto& entry : batch) {
        const double waited_ms =
            std::chrono::duration<double, std::milli>(flushed - entry->enqueued)
                .count();
        wait_ms.record(waited_ms);
        // The span start comes from the enqueue stamp converted to trace
        // nanoseconds directly — a round-trip through the fractional-ms
        // double above would lose sub-microsecond precision and could put
        // a near-zero wait's start past its end. Clamped so the span
        // length stays >= 0 even across clock-read jitter.
        std::int64_t start_ns = obs::trace_ns_of(entry->enqueued);
        if (start_ns > flush_ns) start_ns = flush_ns;
        obs::record_span("queue.wait", start_ns, flush_ns, entry->job.workload);
      }
    }

    std::vector<Job> jobs;
    jobs.reserve(batch.size());
    for (auto& entry : batch) jobs.push_back(std::move(entry->job));
    try {
      std::vector<JobResult> results = dispatch_(std::move(jobs));
      if (results.size() != batch.size())
        throw std::logic_error("SubmissionQueue: dispatch returned " +
                               std::to_string(results.size()) + " results for " +
                               std::to_string(batch.size()) + " jobs");
      for (std::size_t i = 0; i < batch.size(); ++i) {
        batch[i]->state.store(TicketState::Done, std::memory_order_release);
        batch[i]->promise.set_value(std::move(results[i]));
      }
    } catch (...) {
      // A dispatch-level failure (not a per-job error — those come back as
      // failed JobResults) fails every ticket of the dispatch.
      for (auto& entry : batch) {
        entry->state.store(TicketState::Done, std::memory_order_release);
        entry->promise.set_exception(std::current_exception());
      }
    }

    lock.lock();
  }
}

}  // namespace mpsched::engine
