#include "engine/engine.hpp"

#include <tuple>
#include <unordered_map>

#include "antichain/analytic.hpp"
#include "antichain/enumerate.hpp"
#include "engine/cache_store.hpp"
#include "graph/transform.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace mpsched::engine {

namespace {

/// One analysis to compute this batch: a unique (graph, options) content
/// key, the jobs consuming it, and its root shards.
struct AnalysisUnit {
  CacheKey key;
  std::size_t exemplar_job = 0;  ///< index whose dfg/options define the unit
  std::vector<std::size_t> consumers;
  std::vector<std::vector<NodeId>> shard_roots;  ///< empty for LevelAnalytic
  std::vector<AntichainAnalysis> shard_results;
  std::vector<std::string> shard_errors;
  std::vector<double> shard_ms;
  /// One counter across all shards of this unit, so the max_antichains
  /// safety valve bounds the whole analysis, not each shard separately.
  /// (unique_ptr keeps the unit movable.)
  std::unique_ptr<std::atomic<std::uint64_t>> enumerated;
  std::shared_ptr<const AntichainAnalysis> result;
  std::string error;
  double total_ms = 0.0;
};

/// Tallies each job's AnalysisSource into analyses_computed /
/// analyses_reused — the one count behind a dispatch's and a ticket
/// set's numbers alike.
void count_analysis_sources(BatchResult& batch) {
  for (const JobResult& r : batch.jobs) {
    if (r.analysis_source == AnalysisSource::Computed) ++batch.analyses_computed;
    else if (r.analysis_source == AnalysisSource::Reused) ++batch.analyses_reused;
  }
}

/// Rejects options that would never do what they ask for; runs before
/// any member (the disk tier's directory included) is built.
EngineOptions validated(EngineOptions options) {
  if (options.coalesce.max_jobs == 0)
    throw std::invalid_argument(
        "EngineOptions: coalesce.max_jobs must be >= 1 (a zero trigger would "
        "never flush the admission queue)");
  if (!options.coalesce.flush_on_idle && options.coalesce.max_delay_ms == 0)
    throw std::invalid_argument(
        "EngineOptions: coalesce.flush_on_idle=false requires max_delay_ms >= 1 "
        "(a zero hold expires instantly, silently disabling the coalescing the "
        "caller asked for)");
  return options;
}

}  // namespace

BatchResult collect_tickets(const std::vector<Ticket>& tickets) {
  BatchResult batch;
  batch.jobs.reserve(tickets.size());
  for (const Ticket& ticket : tickets) batch.jobs.push_back(ticket.result());
  count_analysis_sources(batch);
  return batch;
}

std::size_t BatchResult::succeeded() const {
  std::size_t n = 0;
  for (const JobResult& r : jobs)
    if (r.success) ++n;
  return n;
}

// An engine that silently ran without its requested persistence would
// defeat the point of asking for it, so a cache_dir that cannot be used
// throws (from CacheStore) like any bad option.
Engine::Engine(EngineOptions options)
    : options_(validated(std::move(options))),
      cache_(options_.cache_dir.empty()
                 ? nullptr
                 : std::make_shared<CacheStore>(options_.cache_dir)) {
  if (options_.threads > 0) owned_pool_ = std::make_unique<ThreadPool>(options_.threads);
}

Engine::~Engine() { shutdown(); }

ThreadPool& Engine::pool() {
  return owned_pool_ ? *owned_pool_ : ThreadPool::shared();
}

SubmissionQueue& Engine::queue() {
  // Lazy: an engine used only once and thrown away does not pay for a
  // dispatcher thread it never needed.
  std::lock_guard lock(queue_mutex_);
  if (shut_down_)
    throw std::runtime_error("Engine: submit after shutdown (the queue is drained)");
  if (queue_ == nullptr)
    queue_ = std::make_unique<SubmissionQueue>(
        [this](std::vector<Job> jobs) {
          return std::move(execute_batch(jobs).jobs);
        },
        options_.coalesce);
  return *queue_;
}

void Engine::shutdown() {
  std::unique_lock lock(queue_mutex_);
  // The latch is set under the same lock that guards lazy construction,
  // so a shutdown() on a never-used engine still makes later submits
  // throw (and a racing first submit either beats the latch and is
  // drained below, or loses and throws).
  shut_down_ = true;
  if (queue_ == nullptr) return;
  SubmissionQueue& q = *queue_;
  lock.unlock();  // shutdown executes a final flush; don't hold the lock
  q.shutdown();
}

EngineStats Engine::stats() {
  // The whole snapshot is assembled under stats_mutex_ — the same lock
  // execute_batch's end-of-dispatch update takes — so a reader never sees
  // a dispatch counted without the cache counters that dispatch produced.
  // (stats_.cache is written there too, at the dispatch boundary; reading
  // the cache live here would reintroduce exactly that torn view.)
  // Lock order stats_mutex_ -> queue_mutex_ is safe: no path acquires
  // them in the opposite order.
  std::lock_guard lock(stats_mutex_);
  EngineStats snapshot = stats_;
  {
    std::lock_guard queue_lock(queue_mutex_);
    if (queue_ != nullptr) {
      const SubmissionStats q = queue_->stats();
      snapshot.jobs_submitted = q.submitted;
      snapshot.jobs_cancelled = q.cancelled;
      snapshot.coalesced_dispatches = q.coalesced_dispatches;
      snapshot.queue_depth = q.queue_depth;
      snapshot.max_queue_depth = q.max_queue_depth;
    }
  }
  return snapshot;
}

Ticket Engine::submit(Job job) { return queue().submit(std::move(job)); }

std::vector<Ticket> Engine::submit_batch(std::vector<Job> jobs) {
  return queue().submit_batch(std::move(jobs));
}

JobResult Engine::run(const Job& job) {
  return run_batch({job}).jobs.front();
}

BatchResult Engine::run_batch(const std::vector<Job>& jobs) {
  Timer wall;
  BatchResult batch = collect_tickets(submit_batch(jobs));
  batch.wall_ms = wall.millis();
  // Cache counters come from the dispatch-boundary snapshot, not a live
  // cache().stats() read: our dispatch updated stats_.cache under
  // stats_mutex_ before the tickets resolved, and a live read under
  // concurrent sessions could tear mid-dispatch (the torn view stats()
  // was fixed to never return).
  {
    std::lock_guard lock(stats_mutex_);
    batch.cache_stats = stats_.cache;
  }
  return batch;
}

BatchResult Engine::execute_batch(const std::vector<Job>& jobs) {
  Timer wall;
  obs::Span dispatch_span("engine.dispatch",
                          obs::tracing_enabled()
                              ? std::to_string(jobs.size()) + " jobs"
                              : std::string());
  BatchResult batch;
  batch.jobs.resize(jobs.size());

  const std::size_t n_jobs = jobs.size();
  ThreadPool& workers = pool();
  const std::size_t worker_count = workers.thread_count() + 1;  // pool + caller

  // ---- Phase 0: resolve pipeline, transform, identify, deduplicate ------
  std::vector<std::shared_ptr<const PreparedGraph>> prepared(n_jobs);
  std::vector<std::shared_ptr<const AntichainAnalysis>> analysis(n_jobs);
  std::vector<CacheKey> keys(n_jobs);
  // Effective (post-transform) graph per job; every later phase — keys,
  // levels/closure, enumeration, backend — consumes this, never Job::dfg.
  std::vector<std::shared_ptr<const Dfg>> graphs(n_jobs);
  std::vector<const SchedulerBackend*> backends(n_jobs, nullptr);

  for (std::size_t i = 0; i < n_jobs; ++i) {
    JobResult& r = batch.jobs[i];
    r.job = jobs[i].resolved_name();
    r.workload = jobs[i].workload;
    r.backend = jobs[i].backend;
    r.transforms = jobs[i].transforms;
  }

  // Levels + closure per job. Jobs are grouped by graph content key first
  // so duplicate graphs compute their (expensive, O(V·E/64)) transitive
  // closure exactly once even on a cold cache — concurrent misses on the
  // same key would otherwise all recompute.
  {
  obs::Span prepare_span("engine.prepare");
  // Resolve each job's backend and transform stack, run the transforms,
  // then hash the effective graph: one canonical serialization yields both
  // the graph and the analysis key. Unknown names fail only that job. An
  // empty stack aliases the caller's graph (no copy; `jobs` outlives the
  // dispatch), so the default pipeline costs nothing here beyond the
  // registry lookup and the hash.
  std::vector<CacheKey> graph_keys(n_jobs);
  workers.parallel_for(n_jobs, [&](std::size_t i) {
    JobResult& r = batch.jobs[i];
    Timer t;
    try {
      backends[i] = &get_backend(jobs[i].backend);
      if (jobs[i].transforms.empty()) {
        graphs[i] = std::shared_ptr<const Dfg>(std::shared_ptr<const Dfg>{},
                                               &jobs[i].dfg);
      } else {
        const TransformPipeline pipe =
            TransformPipeline::from_specs(jobs[i].transforms);
        graphs[i] = std::make_shared<const Dfg>(pipe.apply(jobs[i].dfg));
      }
      r.nodes = graphs[i]->node_count();
      r.edges = graphs[i]->edge_count();
    } catch (const std::exception& e) {
      r.error = std::string("pipeline: ") + e.what();
    }
    if (r.error.empty()) {
      try {
        std::tie(graph_keys[i], keys[i]) = AnalysisCache::content_keys(
            *graphs[i], jobs[i].select.generation, jobs[i].select.capacity,
            jobs[i].select.span_limit,
            pipeline_cache_tag(jobs[i].transforms, jobs[i].backend));
      } catch (const std::exception& e) {
        r.error = std::string("prepare: ") + e.what();
      }
    }
    r.timings.prepare_ms = t.millis();
  });

  std::unordered_map<CacheKey, std::vector<std::size_t>, CacheKeyHash> by_graph;
  for (std::size_t i = 0; i < n_jobs; ++i)
    if (batch.jobs[i].error.empty()) by_graph[graph_keys[i]].push_back(i);
  std::vector<std::vector<std::size_t>> graph_groups;
  graph_groups.reserve(by_graph.size());
  for (auto& [key, group] : by_graph) graph_groups.push_back(std::move(group));

  workers.parallel_for(graph_groups.size(), [&](std::size_t g) {
    const std::vector<std::size_t>& group = graph_groups[g];
    const std::size_t exemplar = group.front();
    Timer t;
    std::shared_ptr<const PreparedGraph> graph;
    std::string error;
    try {
      graph = cache_.prepare_graph(*graphs[exemplar], graph_keys[exemplar]);
    } catch (const std::exception& e) {
      error = std::string("prepare: ") + e.what();
    }
    const double ms = t.millis();
    for (const std::size_t i : group) {
      prepared[i] = graph;
      if (!error.empty()) batch.jobs[i].error = error;
    }
    // Charge the shared computation to the exemplar only, so summing
    // prepare_ms across a results file reflects work actually done.
    batch.jobs[exemplar].timings.prepare_ms += ms;
  });
  }

  // Group jobs into analysis units, one per distinct analysis key the
  // cache cannot serve. Jobs whose backend composes its own patterns
  // (needs_analysis() == false) skip enumeration entirely: no unit, no
  // cache traffic, analysis_source stays None.
  std::vector<AnalysisUnit> units;
  std::unordered_map<CacheKey, std::size_t, CacheKeyHash> unit_of;
  for (std::size_t i = 0; i < n_jobs; ++i) {
    if (!batch.jobs[i].error.empty()) continue;
    if (!backends[i]->needs_analysis()) continue;
    if (auto hit = cache_.find_analysis(keys[i])) {
      analysis[i] = std::move(hit);
      batch.jobs[i].analysis_cache_hit = true;
      batch.jobs[i].analysis_source = AnalysisSource::Reused;
      continue;
    }
    const auto [it, inserted] = unit_of.try_emplace(keys[i], units.size());
    if (inserted) {
      units.push_back(AnalysisUnit{});
      units.back().key = keys[i];
      units.back().exemplar_job = i;
      batch.jobs[i].analysis_source = AnalysisSource::Computed;
    } else {
      batch.jobs[i].analysis_source = AnalysisSource::Reused;
    }
    units[it->second].consumers.push_back(i);
  }

  // ---- Phase 1: sharded analysis over one flat task list ----------------
  struct Task {
    std::size_t unit;
    std::size_t shard;
  };
  std::vector<Task> tasks;
  for (std::size_t u = 0; u < units.size(); ++u) {
    AnalysisUnit& unit = units[u];
    const Job& job = jobs[unit.exemplar_job];
    const Dfg& unit_dfg = *graphs[unit.exemplar_job];
    if (job.select.generation == PatternGeneration::SpanLimitedEnumeration) {
      unit.shard_roots = partition_roots(unit_dfg.node_count(), worker_count);
    } else {
      unit.shard_roots.resize(1);  // closed-form counting: one cheap task
    }
    unit.shard_results.resize(unit.shard_roots.size());
    unit.shard_errors.resize(unit.shard_roots.size());
    unit.shard_ms.resize(unit.shard_roots.size());
    unit.enumerated = std::make_unique<std::atomic<std::uint64_t>>(0);
    for (std::size_t s = 0; s < unit.shard_roots.size(); ++s) tasks.push_back({u, s});
  }

  static obs::Histogram& shard_ms_metric =
      obs::Registry::global().histogram("engine.shard_ms");
  workers.parallel_for(tasks.size(), [&](std::size_t t) {
    AnalysisUnit& unit = units[tasks[t].unit];
    const std::size_t s = tasks[t].shard;
    const Job& job = jobs[unit.exemplar_job];
    const Dfg& unit_dfg = *graphs[unit.exemplar_job];
    const PreparedGraph& graph = *prepared[unit.exemplar_job];
    obs::Span enumerate_span("engine.enumerate",
                             obs::tracing_enabled()
                                 ? job.workload + " shard " + std::to_string(s)
                                 : std::string());
    Timer timer;
    try {
      if (job.select.generation == PatternGeneration::SpanLimitedEnumeration) {
        unit.shard_results[s] =
            enumerate_antichain_roots(unit_dfg, graph.levels, graph.reach,
                                      enumerate_options_for(job.select),
                                      unit.shard_roots[s], unit.enumerated.get());
      } else {
        unit.shard_results[s] =
            analytic_level_analysis(unit_dfg, graph.levels, job.select.capacity);
      }
    } catch (const std::exception& e) {
      unit.shard_errors[s] = e.what();
    }
    unit.shard_ms[s] = timer.millis();
    shard_ms_metric.record(unit.shard_ms[s]);
  });

  // Merge + publish per unit, in parallel: merging is per-unit CPU work,
  // and with a disk tier store_analysis writes a file — neither
  // belongs on one thread while the pool idles after the shard phase.
  // (Publication order across units is irrelevant: keys are distinct, and
  // consumers read unit.result, not the cache, below.)
  workers.parallel_for(units.size(), [&](std::size_t u) {
    AnalysisUnit& unit = units[u];
    for (std::size_t s = 0; s < unit.shard_errors.size(); ++s)
      if (unit.error.empty() && !unit.shard_errors[s].empty())
        unit.error = "analysis: " + unit.shard_errors[s];
    for (const double ms : unit.shard_ms) unit.total_ms += ms;
    if (!unit.error.empty()) return;
    const Dfg& unit_dfg = *graphs[unit.exemplar_job];
    unit.result = std::make_shared<AntichainAnalysis>(
        merge_antichain_analyses(std::move(unit.shard_results), unit_dfg.node_count()));
    cache_.store_analysis(unit.key, unit.result);
  });

  for (const AnalysisUnit& unit : units) {
    for (const std::size_t i : unit.consumers) {
      analysis[i] = unit.result;
      // Same convention as prepare_ms: shared work is charged to the
      // exemplar only, so summing timings over a results file reflects
      // work actually done.
      batch.jobs[i].timings.analysis_ms = i == unit.exemplar_job ? unit.total_ms : 0.0;
      if (i == unit.exemplar_job) batch.jobs[i].shard_ms = unit.shard_ms;
      if (!unit.error.empty()) batch.jobs[i].error = unit.error;
    }
  }

  // ---- Phase 2: scheduler backend, one task per job ---------------------
  workers.parallel_for(n_jobs, [&](std::size_t i) {
    JobResult& r = batch.jobs[i];
    if (!r.error.empty()) return;  // earlier phase already failed this job
    const Job& job = jobs[i];
    const Dfg& dfg = *graphs[i];
    try {
      r.critical_path = prepared[i]->levels.critical_path_length();

      BackendRequest request;
      request.dfg = &dfg;
      request.analysis = analysis[i].get();  // null for self-contained backends
      request.select = job.select;
      request.schedule = job.schedule;
      request.refine = job.refine;
      request.refinement = job.refinement;
      request.trace_detail = job.workload;
      BackendResult out = backends[i]->solve(request);

      r.timings.select_ms = out.select_ms;
      r.timings.schedule_ms = out.schedule_ms;
      r.timings.refine_ms = out.refine_ms;
      r.antichains = out.antichains;
      r.candidate_patterns = out.candidate_patterns;
      r.refine_swaps = out.refine_swaps;
      if (!out.success) {
        r.error = out.error;
        return;
      }

      r.success = true;
      r.cycles = out.cycles;
      for (const Pattern& p : out.patterns) r.patterns.push_back(p.to_string(dfg));
      r.node_cycles.resize(dfg.node_count());
      for (NodeId n = 0; n < dfg.node_count(); ++n)
        r.node_cycles[n] = out.schedule.cycle_of(n);
    } catch (const std::exception& e) {
      r.success = false;
      r.error = e.what();
    }
  });

  batch.wall_ms = wall.millis();
  batch.cache_stats = cache_.stats();
  count_analysis_sources(batch);
  {
    std::lock_guard lock(stats_mutex_);
    ++stats_.batches;
    stats_.jobs += batch.jobs.size();
    stats_.jobs_succeeded += batch.succeeded();
    stats_.analyses_computed += batch.analyses_computed;
    stats_.analyses_reused += batch.analyses_reused;
    // Cache counters are captured at the dispatch boundary, under the
    // same lock as the dispatch counters, so stats() can never report
    // this dispatch without the cache traffic it produced.
    stats_.cache = batch.cache_stats;
  }
  {
    static obs::Counter& dispatches =
        obs::Registry::global().counter("engine.dispatches");
    static obs::Counter& jobs_total = obs::Registry::global().counter("engine.jobs");
    static obs::Histogram& dispatch_ms =
        obs::Registry::global().histogram("engine.dispatch_ms");
    dispatches.add();
    jobs_total.add(batch.jobs.size());
    dispatch_ms.record(batch.wall_ms);
  }
  return batch;
}

}  // namespace mpsched::engine
