// perfbench_driver — the load generator behind perfbench/run.py.
//
// Runs ONE benchmark workload against the mpsched library through its
// public surface only (io corpus/result codecs, engine::Engine,
// service::Server/Client), re-checks every result from scratch, and
// writes the raw measurements as one JSON document: per-operation
// timestamps, set-up times, obs registry snapshots around the measured
// window, engine counters, and (with --trace 1) the span trace. run.py
// turns that document into the benchmark's metrics.
//
//   perfbench_driver --workload W --seed N --seconds S --trace 0|1 --out FILE
//
// Every timestamp is obs::trace_now_ns(), so operations and trace spans
// share one clock. With --trace 1 the window alternates untraced and
// traced segments (kSegments of equal length, odd ones traced): the
// untraced half gives the baseline for the tracing overhead, the traced
// half the per-layer attribution. The driver's own spans (bench.op,
// io.*, service.call, bench.engine_*) frame each call into a layer.
//
// Files (the unix socket, the disk-cache tier) are created relative to
// the working directory, which run.py points at its scratch directory.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <mutex>
#include <random>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "engine/engine.hpp"
#include "io/json.hpp"
#include "io/result_io.hpp"
#include "io/service_io.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "pattern/parse.hpp"
#include "sched/backend.hpp"
#include "sched/schedule.hpp"
#include "service/client.hpp"
#include "service/server.hpp"
#include "workloads/corpus.hpp"

namespace {

using namespace mpsched;
using engine::Job;

constexpr int kSegments = 8;        ///< trace mode: window segments (two traced)
constexpr int kSetupRepeats = 5;    ///< set-ups per run; run.py reports the median
constexpr std::size_t kTraceCapacity = std::size_t{1} << 21;
constexpr const char* kSocket = "perfbench.sock";
constexpr const char* kCacheDir = "perfbench_cache";

std::int64_t now_ns() { return obs::trace_now_ns(); }

/// Sleeps until `due` on the trace clock. A plain sleep: spinning load
/// generator threads would compete with the server for the cores.
void sleep_until_ns(std::int64_t due) {
  for (std::int64_t left = due - now_ns(); left > 0; left = due - now_ns())
    std::this_thread::sleep_for(std::chrono::nanoseconds(left));
}

std::uint64_t fnv1a(std::string_view bytes, std::uint64_t h = 14695981039346656037ull) {
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

/// Restricts the process to the first CPU it may use. Called before any
/// thread starts, so every thread (server, engine pool, clients) inherits it.
void pin_to_one_cpu() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &set)) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    if (sched_setaffinity(0, sizeof one, &one) != 0)
      throw std::runtime_error("cannot pin the process to one CPU");
    return;
  }
}

/// Engine pool size: nproc - 1 workers (at least one), where nproc counts
/// the CPUs this process may run on, as the nproc command does.
std::size_t pool_threads() {
  cpu_set_t set;
  CPU_ZERO(&set);
  const int cpus = sched_getaffinity(0, sizeof set, &set) == 0 ? CPU_COUNT(&set) : 1;
  return cpus > 1 ? static_cast<std::size_t>(cpus - 1) : 1;
}

/// CPU seconds this process has used, all threads, user + system.
double process_cpu_s() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) / 1e6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double peak_rss_kb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss);  // KiB on Linux
}

std::vector<Job> jobs_of(const std::vector<std::string>& specs,
                         const std::string& backend = std::string(kDefaultBackend),
                         bool refine = false) {
  std::vector<Job> jobs;
  for (const std::string& spec : specs) {
    Job job = Job::from_workload(spec);
    job.backend = backend;
    job.refine = refine;
    jobs.push_back(std::move(job));
  }
  return jobs;
}

std::string seeded(const char* family, std::uint64_t seed) {
  return std::string(family) + "(" + std::to_string(seed) + ")";
}

// ---------------------------------------------------------------------------
// Output check: nothing the program reports is trusted. Each distinct
// result entry is validated once from scratch — graph rebuilt from its
// spec, schedule rebuilt from node_cycles, §4 precedence / capacity /
// pattern membership via validate_schedule, cycle count recomputed, and
// the pattern count held to Pdef for the backends bound by it; repeats of
// a validated entry must match it byte for byte.
// ---------------------------------------------------------------------------
class Checker {
 public:
  /// Empty when `entry` is a valid result of `job`, else the reason.
  std::string check(const Json& entry, const Job& job) {
    std::string key = job.workload + '|' + job.backend + '|' + entry.dump();
    {
      std::lock_guard lock(mutex_);
      if (const auto it = verdicts_.find(key); it != verdicts_.end()) return it->second;
    }
    std::string verdict = validate(entry, job);
    std::lock_guard lock(mutex_);
    verdicts_.emplace(std::move(key), verdict);
    return verdict;
  }

  /// Checks a whole results document against the jobs it answers.
  std::string check_document(const Json& doc, const std::vector<Job>& jobs) {
    try {
      const Json::Array& entries = doc.at("jobs").as_array();
      if (entries.size() != jobs.size()) return "results document has the wrong job count";
      for (std::size_t i = 0; i < jobs.size(); ++i)
        if (std::string why = check(entries[i], jobs[i]); !why.empty())
          return jobs[i].workload + ": " + why;
    } catch (const std::exception& e) {
      return std::string("malformed results document: ") + e.what();
    }
    return {};
  }

 private:
  static std::string validate(const Json& entry, const Job& job) {
    try {
      if (entry.at("workload").as_string() != job.workload) return "result for another workload";
      const Json* backend = entry.find("backend");
      const std::string echoed =
          backend != nullptr ? backend->as_string() : std::string(kDefaultBackend);
      if (echoed != job.backend) return "backend echo mismatch";
      if (!entry.at("success").as_bool()) return "job failed: " + entry.at("error").as_string();
      const Dfg dfg = workloads::make_workload(job.workload);
      const Json::Array& cycles = entry.at("node_cycles").as_array();
      if (cycles.size() != dfg.node_count()) return "node_cycles size mismatch";
      Schedule schedule(dfg.node_count());
      for (NodeId n = 0; n < dfg.node_count(); ++n) {
        const std::int64_t c = cycles[n].as_int();
        if (c < 0) return "unscheduled node";
        schedule.place(n, static_cast<int>(c));
      }
      const Json::Array& listed = entry.at("patterns").as_array();
      PatternSet patterns;
      for (const Json& p : listed) patterns.insert(parse_pattern(dfg, p.as_string()));
      const ScheduleValidation v = validate_schedule(dfg, schedule, patterns);
      if (!v.ok) return v.summary();
      if (static_cast<std::int64_t>(schedule.cycle_count()) != entry.at("cycles").as_int())
        return "cycle count mismatch";
      if ((echoed == "multi_pattern" || echoed == "exhaustive") &&
          listed.size() > job.select.pattern_count)
        return "more patterns than Pdef";
    } catch (const std::exception& e) {
      return std::string("malformed result: ") + e.what();
    }
    return {};
  }

  std::mutex mutex_;
  std::unordered_map<std::string, std::string> verdicts_;
};

// ---------------------------------------------------------------------------
// Run bookkeeping
// ---------------------------------------------------------------------------
struct OpRecord {
  std::int64_t index = 0;
  std::int64_t due_ns = 0;    ///< closed loop: == start_ns
  std::int64_t start_ns = 0;  ///< first call into the program
  std::int64_t end_ns = 0;    ///< last result decoded
  std::int64_t jobs = 0;
  bool ok = false;
  /// Trace mode: 1 when tracing was on for the whole op, 0 when off for
  /// the whole op, -1 when it switched while the op ran.
  int traced = 0;
};

/// What one thread of the load generator observed.
struct ThreadLog {
  std::vector<OpRecord> ops;
  std::vector<std::string> failures;
  void fail(OpRecord& op, const std::string& why) {
    op.ok = false;
    if (failures.size() < 20) failures.push_back(why);
  }
};

struct Window {
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  bool trace = false;

  int segment(std::int64_t t) const {
    const std::int64_t s = (t - start_ns) * kSegments / (end_ns - start_ns);
    return static_cast<int>(std::clamp<std::int64_t>(s, 0, kSegments - 1));
  }
  bool traced(std::int64_t t) const { return trace && traced_segment(segment(t)); }
  /// Two of the eight segments are traced, so the trace stays small enough
  /// to keep whole; the other six are the untraced baseline.
  static bool traced_segment(int s) { return s == 1 || s == 5; }
};

/// Host-speed probe: a fixed integer kernel timed every kProbePeriodMs on
/// its own thread through the window. The host's speed drifts under other
/// tenants; the probe's durations show by how much during this run.
constexpr int kProbePeriodMs = 50;

double probe_kernel_ms() {
  const std::int64_t t0 = now_ns();
  std::uint64_t x = 88172645463325252ull;
  for (int i = 0; i < 400000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  static std::atomic<std::uint64_t> sink{0};  // keeps the loop from folding away
  sink.fetch_xor(x, std::memory_order_relaxed);
  return static_cast<double>(now_ns() - t0) / 1e6;
}

class HostProbe {
 public:
  explicit HostProbe(std::vector<double>& out) : out_(out), thread_([this] { loop(); }) {}
  ~HostProbe() {
    {
      std::lock_guard lock(mutex_);
      stop_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }
  HostProbe(const HostProbe&) = delete;
  HostProbe& operator=(const HostProbe&) = delete;

 private:
  void loop() {
    std::unique_lock lock(mutex_);
    while (!cv_.wait_for(lock, std::chrono::milliseconds(kProbePeriodMs), [this] { return stop_; }))
      out_.push_back(probe_kernel_ms());
  }

  std::vector<double>& out_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::thread thread_;
};

struct Run {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;

  std::vector<double> setup_s;
  Window window;
  std::vector<ThreadLog> logs;
  Json registry_before;
  Json registry_after;
  Json info = Json::object();    ///< workload description (loop, rate, ...)
  Json counts = Json::object();  ///< counters summed over the window
  Json calibration = Json::object();
  std::string digest;
  std::int64_t cycles_sum = 0;
  std::uint64_t trace_dropped = 0;
  std::string trace_file;
  std::vector<double> probe_ms;
  std::unique_ptr<HostProbe> probe;
  double cpu_s = 0;  ///< process CPU time spent in the window, probe included
  double peak_rss_kb = 0;  ///< high-water mark at the end of the window

  void add(const char* key, double v) {
    const Json* old = counts.find(key);
    counts.set(key, Json((old != nullptr ? old->as_double() : 0.0) + v));
  }
};

void begin_window(Run& run) {
  if (run.trace) {
    obs::set_trace_capacity(kTraceCapacity);
    obs::clear_trace();
  }
  run.registry_before = obs::Registry::global().to_json();
  run.cpu_s = -process_cpu_s();
  run.window.start_ns = now_ns();
  run.window.end_ns = run.window.start_ns + static_cast<std::int64_t>(run.seconds * 1e9);
  run.window.trace = run.trace;
  run.probe = std::make_unique<HostProbe>(run.probe_ms);
}

void end_window(Run& run) {
  run.probe.reset();
  run.cpu_s += process_cpu_s();
  run.peak_rss_kb = peak_rss_kb();
  obs::set_tracing_enabled(false);
  run.registry_after = obs::Registry::global().to_json();
  if (run.trace) {
    run.trace_dropped = obs::trace_dropped();
    run.trace_file = "perfbench_trace.json";
    if (!obs::write_trace(run.trace_file))
      throw std::runtime_error("cannot write " + run.trace_file);
  }
}

template <class Fn>
double time_s(Fn&& fn) {
  const std::int64_t t0 = now_ns();
  fn();
  return static_cast<double>(now_ns() - t0) / 1e9;
}

/// Mean milliseconds per call of `fn` over `reps` calls (calibration).
template <class Fn>
double mean_ms(std::size_t reps, Fn&& fn) {
  const std::int64_t t0 = now_ns();
  for (std::size_t i = 0; i < reps; ++i) fn(i);
  return static_cast<double>(now_ns() - t0) / 1e6 / static_cast<double>(reps);
}

void add_engine_delta(Run& run, const engine::EngineStats& a, const engine::EngineStats& b) {
  run.add("engine.batches", static_cast<double>(b.batches - a.batches));
  run.add("engine.coalesced_dispatches",
          static_cast<double>(b.coalesced_dispatches - a.coalesced_dispatches));
  run.add("engine.analyses_computed", static_cast<double>(b.analyses_computed - a.analyses_computed));
  run.add("engine.analyses_reused", static_cast<double>(b.analyses_reused - a.analyses_reused));
  run.add("cache.graph_hits", static_cast<double>(b.cache.graph_hits - a.cache.graph_hits));
  run.add("cache.graph_misses", static_cast<double>(b.cache.graph_misses - a.cache.graph_misses));
  run.add("cache.analysis_hits", static_cast<double>(b.cache.analysis_hits - a.cache.analysis_hits));
  run.add("cache.analysis_misses",
          static_cast<double>(b.cache.analysis_misses - a.cache.analysis_misses));
}

// ---------------------------------------------------------------------------
// Batch workloads: closed loop, one caller. One operation is one corpus
// pass — parse the corpus JSON, run_batch, serialize the results JSON.
// ---------------------------------------------------------------------------
std::vector<Job> batch_cold_corpus(std::uint64_t seed) {
  // Heavy kernels, two duplicates (in-batch dedup), four seeded graphs.
  std::vector<std::string> specs = {"fir(32)", "bitonic(16)", "iir(12)", "fir(28)",
                                    "dct8",    "paper_3dft",  "fir(28)", "paper_3dft"};
  const std::uint64_t base = 1000 + (seed % 1000000) * 4;
  specs.push_back(seeded("layered", base));
  specs.push_back(seeded("layered", base + 1));
  specs.push_back(seeded("series_parallel", base + 2));
  specs.push_back(seeded("series_parallel", base + 3));
  std::shuffle(specs.begin(), specs.end(), std::mt19937_64(seed));
  return jobs_of(specs);
}

std::vector<Job> batch_solve_corpus(std::uint64_t seed) {
  std::vector<Job> jobs;
  for (const char* group : {"paper", "dft", "kernels", "random"}) {
    const std::vector<std::string>& specs = workloads::corpus_group(group).specs;
    for (Job& j : jobs_of(specs, "exhaustive")) jobs.push_back(std::move(j));
    for (Job& j : jobs_of(specs, "force_directed")) jobs.push_back(std::move(j));
    for (Job& j : jobs_of(specs, std::string(kDefaultBackend), true)) jobs.push_back(std::move(j));
  }
  std::shuffle(jobs.begin(), jobs.end(), std::mt19937_64(seed));
  return jobs;
}

engine::EngineOptions engine_options() {
  engine::EngineOptions options;
  options.threads = pool_threads();
  return options;
}

/// One corpus pass on `eng`; returns the serialized results document.
std::string corpus_pass(engine::Engine& eng, const std::string& corpus_text,
                        engine::BatchResult& batch) {
  std::vector<Job> jobs;
  {
    obs::Span span("io.corpus_parse");
    jobs = corpus_from_json(Json::parse(corpus_text));
  }
  batch = eng.run_batch(jobs);
  obs::Span span("io.results_serialize");
  return batch_to_json(batch).dump();
}

/// Per-pass counters the batch workloads read from the JobResult
/// diagnostics (the program's own per-job timings and attribution).
void add_batch_diagnostics(Run& run, const engine::BatchResult& batch) {
  double exhaustive = 0, force_directed = 0, refine = 0, slowest = 0, antichains = 0;
  for (const engine::JobResult& r : batch.jobs) {
    const double solve = r.timings.select_ms + r.timings.schedule_ms + r.timings.refine_ms;
    if (r.backend == "exhaustive") exhaustive += solve;
    if (r.backend == "force_directed") force_directed += solve;
    refine += r.timings.refine_ms;
    slowest = std::max(slowest, r.timings.total_ms());
    if (r.analysis_source == engine::AnalysisSource::Computed)
      antichains += static_cast<double>(r.antichains);
  }
  run.add("sched.exhaustive_ms", exhaustive);
  run.add("sched.force_directed_ms", force_directed);
  run.add("core.refine_ms", refine);
  run.add("sched.slowest_job_ms", slowest);
  run.add("antichain.antichains", antichains);
}

void run_batch_workload(Run& run) {
  const bool cold = run.workload == "batch_cold";
  const std::vector<Job> corpus = cold ? batch_cold_corpus(run.seed) : batch_solve_corpus(run.seed);
  Checker checker;
  std::string reference;  // the first, fully validated, results document
  std::unique_ptr<engine::Engine> warm;

  run.info.set("loop", Json("closed"));
  run.info.set("connections", Json(1));

  // Set-up: corpus document + engine start + one untimed warm-up pass,
  // which for batch_solve also computes every analysis the timed passes
  // reuse. The last set-up's engine is kept.
  std::string corpus_text;
  for (int r = 0; r < kSetupRepeats; ++r) {
    run.setup_s.push_back(time_s([&] {
      corpus_text = corpus_to_json(corpus).dump();
      warm = std::make_unique<engine::Engine>(engine_options());
      engine::BatchResult batch;
      reference = corpus_pass(*warm, corpus_text, batch);
      if (cold) warm.reset();
    }));
  }
  const Json reference_doc = Json::parse(reference);
  if (const std::string why = checker.check_document(reference_doc, corpus); !why.empty())
    throw std::runtime_error("warm-up pass produced an invalid result: " + why);
  for (const Json& entry : reference_doc.at("jobs").as_array())
    run.cycles_sum += entry.at("cycles").as_int();
  run.digest = hex64(fnv1a(reference));

  run.logs.resize(1);
  ThreadLog& log = run.logs[0];
  const engine::EngineStats before = warm ? warm->stats() : engine::EngineStats{};
  begin_window(run);
  for (std::int64_t i = 0;; ++i) {
    const std::int64_t start = now_ns();
    if (start >= run.window.end_ns) break;
    obs::set_tracing_enabled(run.window.traced(start));
    OpRecord op{i, start, start, 0, static_cast<std::int64_t>(corpus.size()), true,
                obs::tracing_enabled() ? 1 : 0};
    engine::BatchResult batch;
    std::string doc;
    try {
      obs::Span span("bench.op");
      if (cold) {
        std::unique_ptr<engine::Engine> eng;
        {
          obs::Span start_span("bench.engine_start");
          eng = std::make_unique<engine::Engine>(engine_options());
        }
        doc = corpus_pass(*eng, corpus_text, batch);
        obs::Span stop_span("bench.engine_stop");
        eng.reset();
      } else {
        doc = corpus_pass(*warm, corpus_text, batch);
      }
    } catch (const std::exception& e) {
      log.fail(op, std::string("pass threw: ") + e.what());
    }
    op.end_ns = now_ns();
    // Outside the timed interval: the result must be the validated document.
    if (op.ok && doc != reference) log.fail(op, "results document differs from the validated one");
    if (op.ok) {
      add_batch_diagnostics(run, batch);
      run.add("io.response_bytes", static_cast<double>(doc.size()));
      if (cold) {  // a fresh engine per pass: its cumulative stats are this pass
        run.add("engine.analyses_computed", static_cast<double>(batch.analyses_computed));
        run.add("engine.analyses_reused", static_cast<double>(batch.analyses_reused));
        run.add("engine.batches", 1);
        run.add("cache.graph_hits", static_cast<double>(batch.cache_stats.graph_hits));
        run.add("cache.graph_misses", static_cast<double>(batch.cache_stats.graph_misses));
        run.add("cache.analysis_hits", static_cast<double>(batch.cache_stats.analysis_hits));
        run.add("cache.analysis_misses", static_cast<double>(batch.cache_stats.analysis_misses));
      }
    }
    log.ops.push_back(op);
  }
  end_window(run);
  if (warm) add_engine_delta(run, before, warm->stats());

  if (run.trace) {  // what corpus_from_json spends instantiating specs
    run.calibration.set("workloads.instantiate_ms", Json(mean_ms(20, [&](std::size_t) {
      for (const Job& job : corpus) (void)workloads::make_workload(job.workload);
    })));
  }
}

// ---------------------------------------------------------------------------
// serve_mixed: an in-process Server on a Unix socket with a disk-cache
// tier, two client connections, each on its own thread, driven open loop.
// ---------------------------------------------------------------------------
class LiveServer {
 public:
  explicit LiveServer(service::ServerOptions options) : server_(std::move(options)) {
    thread_ = std::thread([this] {
      try {
        server_.serve_socket();
      } catch (const std::exception& e) {
        error_ = e.what();
      }
    });
    for (int attempt = 0; attempt < 500; ++attempt) {
      try {
        service::Client probe(server_.options().socket_path);
        return;
      } catch (const std::exception&) {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
      }
    }
    stop();
    throw std::runtime_error("server did not come up: " + error_);
  }
  ~LiveServer() { stop(); }
  LiveServer(const LiveServer&) = delete;
  LiveServer& operator=(const LiveServer&) = delete;

  service::Server& server() { return server_; }

 private:
  void stop() {
    server_.request_stop();
    if (thread_.joinable()) thread_.join();
  }

  service::Server server_;
  std::string error_;  ///< written by the serve thread, read after join
  std::thread thread_;
};

service::ServerOptions server_options() {
  service::ServerOptions options;
  options.engine = engine_options();
  options.socket_path = kSocket;
  options.engine.cache_dir = kCacheDir;
  return options;
}

/// Small hot jobs: every one analysed during set-up.
std::vector<std::string> hot_specs(std::uint64_t seed) {
  std::vector<std::string> specs = {"small_example", "dft3",    "dft5",    "paper_3dft",
                                    "fft(4)",        "fft(8)",  "direct_dft(3)", "fir(8)",
                                    "fir(12)",       "iir(3)",  "horner(10)",    "dct8",
                                    "bitonic(8)"};
  const std::uint64_t base = 500000 + (seed % 1000000) * 3;
  specs.push_back(seeded("layered", base));
  specs.push_back(seeded("series_parallel", base + 1));
  specs.push_back(seeded("expr_tree", base + 2));
  return specs;
}

/// Index stream over a pool of `n`: consecutive blocks of `n` are seeded
/// permutations, so every prefix of whole blocks uses each job equally.
class BalancedStream {
 public:
  BalancedStream(std::size_t n, std::uint64_t seed) : n_(n), seed_(seed) {}
  std::size_t at(std::size_t k) const {
    std::vector<std::size_t> perm(n_);
    for (std::size_t i = 0; i < n_; ++i) perm[i] = i;
    std::shuffle(perm.begin(), perm.end(), std::mt19937_64(seed_ * 1000003 + k / n_));
    return perm[k % n_];
  }

 private:
  std::size_t n_;
  std::uint64_t seed_;
};

Json call(service::Client& client, const service::Request& request, Json* raw_out = nullptr) {
  Json encoded;
  {
    obs::Span span("io.request_encode");
    encoded = service::request_to_json(request);
  }
  Json raw;
  {
    obs::Span span("service.call");
    raw = client.call_raw(encoded);
  }
  if (raw_out != nullptr) *raw_out = raw;
  obs::Span span("io.response_decode");
  service::Response response = service::response_from_json(std::move(raw));
  if (!response.ok)
    throw std::runtime_error(std::string(service::to_text(request.op)) + " rejected: " +
                             response.error);
  return std::move(response.body);
}

struct ServeOp {
  std::vector<std::vector<Job>> corpora;  ///< one request per corpus
  std::vector<bool> novel;                ///< per job, flattened: never seen before
};

constexpr double kServeRate = 50;           ///< offered operations per second
constexpr std::int64_t kServeDigestOps = 200;  ///< digest/cycles over ops [0, this)

/// Operation `i` of serve_mixed: two pipelined corpora of four jobs; one
/// job of each is a seeded graph the server has never seen (enumerate +
/// .mpa + sidecar writes), the rest come from the hot pool (disk tier on
/// first touch after the set-up restart, memory afterwards).
ServeOp serve_op(const std::vector<Job>& hot, const BalancedStream& stream, std::uint64_t seed,
                 std::size_t i) {
  const std::uint64_t novel_base = 2000000 + (seed % 1000000) * 20000;
  ServeOp op;
  for (std::size_t c = 0; c < 2; ++c) {
    std::vector<Job> corpus;
    for (std::size_t k = 0; k < 3; ++k) {
      corpus.push_back(hot[stream.at(i * 6 + c * 3 + k)]);
      op.novel.push_back(false);
    }
    const std::uint64_t s = novel_base + i * 2 + c;
    corpus.push_back(Job::from_workload(seeded(c == 0 ? "layered" : "series_parallel", s)));
    op.novel.push_back(true);
    op.corpora.push_back(std::move(corpus));
  }
  return op;
}

void run_serve_workload(Run& run) {
  const std::vector<Job> hot = jobs_of(hot_specs(run.seed));
  const BalancedStream stream(hot.size(), run.seed);
  constexpr int kConnections = 2;

  run.info.set("loop", Json("open"));
  run.info.set("offered_rate", Json(kServeRate));
  run.info.set("connections", Json(kConnections));

  // Set-up: a first server writes the hot analyses to a fresh disk-cache
  // directory and stops; a second one is started on it (a warm-daemon
  // restart), so the window sees disk hits, memory hits and misses.
  std::unique_ptr<LiveServer> live;
  std::vector<std::unique_ptr<service::Client>> clients;
  for (int r = 0; r < kSetupRepeats; ++r) {
    clients.clear();
    live.reset();
    run.setup_s.push_back(time_s([&] {
      service::Request warm_up;
      warm_up.op = service::Op::Submit;
      warm_up.jobs = hot;
      std::filesystem::remove_all(kCacheDir);
      {
        LiveServer first(server_options());
        service::Client client(kSocket);
        call(client, warm_up);
      }
      live = std::make_unique<LiveServer>(server_options());
      for (int c = 0; c < kConnections; ++c)
        clients.push_back(std::make_unique<service::Client>(kSocket));
      service::Request ping;
      ping.op = service::Op::Ping;
      for (auto& client : clients) call(*client, ping);
    }));
  }

  Checker checker;
  std::vector<std::uint64_t> op_hash(static_cast<std::size_t>(kServeDigestOps), 0);
  std::vector<std::int64_t> op_cycles(static_cast<std::size_t>(kServeDigestOps), 0);
  std::vector<double> novel_antichains(kConnections, 0), response_bytes(kConnections, 0);
  std::vector<std::vector<std::pair<std::string, Json>>> samples(kConnections);

  // One connection's share of the window: op k is due at start + k / rate,
  // whatever happened before it.
  auto generator = [&](int c) {
    ThreadLog& log = run.logs[c];
    service::Client& client = *clients[c];
    const double period_ns = 1e9 / kServeRate;
    for (std::size_t i = c;; i += kConnections) {
      const ServeOp op_jobs = serve_op(hot, stream, run.seed, i);
      const std::int64_t due =
          run.window.start_ns + static_cast<std::int64_t>(static_cast<double>(i) * period_ns);
      if (due >= run.window.end_ns) break;
      sleep_until_ns(due);
      const bool traced_at_start = obs::tracing_enabled();
      OpRecord op{static_cast<std::int64_t>(i), due, now_ns(), 0, 0, true};
      std::vector<Json> results;
      Json raw_last;
      try {
        obs::Span span("bench.op", obs::tracing_enabled() ? "op " + std::to_string(i)
                                                               : std::string());
        std::vector<std::uint64_t> ids;
        for (const std::vector<Job>& corpus : op_jobs.corpora) {
          service::Request request;
          request.op = service::Op::SubmitAsync;
          request.jobs = corpus;
          ids.push_back(static_cast<std::uint64_t>(call(client, request).at("request").as_int()));
        }
        for (const std::uint64_t id : ids) {
          service::Request request;
          request.op = service::Op::Wait;
          request.request = id;
          results.push_back(call(client, request, &raw_last).at("results"));
        }
      } catch (const std::exception& e) {
        log.fail(op, e.what());
      }
      op.end_ns = now_ns();
      op.traced = traced_at_start == obs::tracing_enabled() ? (traced_at_start ? 1 : 0) : -1;
      // Outside the timed interval: check every result, fold the digest.
      std::uint64_t hash = fnv1a("op");
      std::int64_t cycles = 0;
      std::size_t flat = 0;
      for (std::size_t k = 0; op.ok && k < op_jobs.corpora.size(); ++k) {
        const std::vector<Job>& corpus = op_jobs.corpora[k];
        op.jobs += static_cast<std::int64_t>(corpus.size());
        if (const std::string why = checker.check_document(results[k], corpus); !why.empty()) {
          log.fail(op, why);
          break;
        }
        for (const Json& entry : results[k].at("jobs").as_array()) {
          hash = fnv1a(entry.dump(), hash);
          cycles += entry.at("cycles").as_int();
          if (op_jobs.novel[flat++])
            novel_antichains[c] += static_cast<double>(entry.at("antichains").as_int());
        }
      }
      if (op.ok && i < op_hash.size()) {
        op_hash[i] = hash;
        op_cycles[i] = cycles;
      }
      if (run.trace && op.ok) {
        response_bytes[c] += static_cast<double>(raw_last.dump().size());
        if (samples[c].size() < 100) {
          service::Request request;
          request.op = service::Op::Submit;
          request.jobs = op_jobs.corpora[0];
          samples[c].emplace_back(service::request_to_json(request).dump(), raw_last);
        }
      }
      log.ops.push_back(op);
    }
  };

  const engine::EngineStats before = live->server().engine().stats();
  run.logs.resize(kConnections);
  begin_window(run);
  {
    std::vector<std::thread> threads;
    for (int c = 0; c < kConnections; ++c) threads.emplace_back(generator, c);
    if (run.trace) {  // tracing on in the traced segments
      for (int s = 0; s < kSegments; ++s) {
        sleep_until_ns(run.window.start_ns + (run.window.end_ns - run.window.start_ns) * s /
                                                 kSegments);
        obs::set_tracing_enabled(Window::traced_segment(s));
      }
    }
    for (std::thread& t : threads) t.join();
  }
  end_window(run);
  add_engine_delta(run, before, live->server().engine().stats());
  for (int c = 0; c < kConnections; ++c) {
    run.add("antichain.antichains", novel_antichains[c]);
    run.add("io.response_bytes", response_bytes[c]);
  }

  std::uint64_t digest = fnv1a(run.workload);
  for (std::size_t i = 0; i < op_hash.size(); ++i) {
    if (op_hash[i] == 0) {
      for (const ThreadLog& log : run.logs)
        for (const std::string& f : log.failures) std::cerr << "failure: " << f << "\n";
      throw std::runtime_error("no checked result for op " + std::to_string(i) +
                               " of the digest prefix");
    }
    digest = fnv1a(hex64(op_hash[i]), digest);
    run.cycles_sum += op_cycles[i];
  }
  run.digest = hex64(digest);

  if (run.trace) {
    // The server's parse and serialize run inside serve.request, which
    // has no child spans for them: replay the same public calls on the
    // recorded requests and responses to size them.
    std::vector<std::pair<std::string, Json>> all;
    for (auto& s : samples) all.insert(all.end(), s.begin(), s.end());
    if (!all.empty()) {
      const std::size_t reps = all.size() * 5;
      run.calibration.set("io.corpus_parse_ms", Json(mean_ms(reps, [&](std::size_t i) {
        (void)service::request_from_json(Json::parse(all[i % all.size()].first));
      })));
      run.calibration.set("io.results_serialize_ms", Json(mean_ms(reps, [&](std::size_t i) {
        (void)all[i % all.size()].second.dump();
      })));
      run.calibration.set("workloads.instantiate_ms", Json(mean_ms(reps, [&](std::size_t i) {
        const Json doc = Json::parse(all[i % all.size()].first);
        for (const Json& job : doc.at("corpus").at("jobs").as_array())
          (void)workloads::make_workload(job.at("workload").as_string());
      })));
    }
  }
  clients.clear();
  live.reset();
  std::filesystem::remove_all(kCacheDir);
}

// ---------------------------------------------------------------------------
Json ops_json(const std::vector<ThreadLog>& logs) {
  std::vector<OpRecord> ops;
  for (const ThreadLog& log : logs) ops.insert(ops.end(), log.ops.begin(), log.ops.end());
  std::sort(ops.begin(), ops.end(),
            [](const OpRecord& a, const OpRecord& b) { return a.index < b.index; });
  Json out = Json::array();
  for (const OpRecord& op : ops) {
    Json row = Json::array();
    row.push_back(Json(op.index));
    row.push_back(Json(op.due_ns));
    row.push_back(Json(op.start_ns));
    row.push_back(Json(op.end_ns));
    row.push_back(Json(op.jobs));
    row.push_back(Json(op.ok));
    row.push_back(Json(op.traced));
    out.push_back(std::move(row));
  }
  return out;
}

Json run_to_json(const Run& run) {
  Json doc = Json::object();
  doc.set("workload", Json(run.workload));
  doc.set("seed", Json(run.seed));
  doc.set("trace", Json(run.trace));
  Json setup = Json::array();
  for (const double s : run.setup_s) setup.push_back(Json(s));
  doc.set("setup_s", std::move(setup));
  doc.set("window", Json(Json::Array{Json(run.window.start_ns), Json(run.window.end_ns),
                                     Json(kSegments)}));
  doc.set("ops_columns", Json(Json::Array{Json("index"), Json("due_ns"), Json("start_ns"),
                                          Json("end_ns"), Json("jobs"), Json("ok"),
                                          Json("traced")}));
  doc.set("ops", ops_json(run.logs));
  Json failures = Json::array();
  for (const ThreadLog& log : run.logs)
    for (const std::string& f : log.failures) failures.push_back(Json(f));
  doc.set("failures", std::move(failures));
  doc.set("info", run.info);
  doc.set("counts", run.counts);
  doc.set("calibration", run.calibration);
  doc.set("registry_before", run.registry_before);
  doc.set("registry_after", run.registry_after);
  doc.set("digest", Json(run.digest));
  doc.set("cycles_sum", Json(run.cycles_sum));
  doc.set("peak_rss_kb", Json(run.peak_rss_kb));
  doc.set("cpu_s", Json(run.cpu_s));
  doc.set("trace_dropped", Json(run.trace_dropped));
  doc.set("trace_file", Json(run.trace_file));
  Json probe = Json::array();
  for (const double ms : run.probe_ms) probe.push_back(Json(ms));
  doc.set("probe_ms", std::move(probe));
  return doc;
}

}  // namespace

int main(int argc, char** argv) {
  Run run;
  std::string out;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") run.workload = value;
    else if (flag == "--seed") run.seed = std::stoull(value);
    else if (flag == "--seconds") run.seconds = std::stod(value);
    else if (flag == "--trace") run.trace = value == "1";
    else if (flag == "--out") out = value;
    else {
      std::cerr << "perfbench_driver: unknown flag " << flag << "\n";
      return 2;
    }
  }
  if (out.empty() || run.seconds <= 0) {
    std::cerr << "usage: perfbench_driver --workload W --seed N --seconds S "
                 "--trace 0|1 --out FILE\n";
    return 2;
  }
  try {
    // Every workload runs the whole process — load generator, server,
    // engine pool — on one CPU. On a shared virtual machine, work spread
    // over several CPUs finishes as fast as the host happens to run them
    // together, which swung wall-clock throughput by a factor of two from
    // one run to the next; on one CPU a run costs what its CPU time costs.
    pin_to_one_cpu();
    if (run.workload == "batch_cold" || run.workload == "batch_solve") {
      run_batch_workload(run);
    } else if (run.workload == "serve_mixed") {
      run_serve_workload(run);
    } else {
      std::cerr << "perfbench_driver: unknown workload " << run.workload << "\n";
      return 2;
    }
    std::ofstream file(out, std::ios::binary);
    file << run_to_json(run).dump() << "\n";
    if (!file) throw std::runtime_error("cannot write " + out);
  } catch (const std::exception& e) {
    std::cerr << "perfbench_driver: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
