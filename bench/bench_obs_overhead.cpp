// Observability overhead — the cost of the src/obs layer on the same
// 8-job demo corpus bench_engine_batch runs.
//
// Three configurations of one cold-cache engine dispatch:
//   metrics off   runtime kill switch (set_metrics_enabled(false)): every
//                 instrument collapses to one relaxed load + branch
//   metrics on    the shipping default: counters/gauges/histograms live
//   + tracing     metrics plus span capture into the ring buffer
//
// Gate: metrics-enabled wall time stays within 5% of metrics-disabled
// wall time (the acceptance criterion for keeping the layer compiled in
// by default). Both enabled configurations are timed against the dark run
// with bench::paired_ratio: the median of paired, interleaved (off, on)
// ratios, each sample at least 30 ms of repeated cold dispatches, so one
// noisy scheduling on a loaded CI runner moves a single pair, not the
// verdict. The gated ratio takes 45 pairs: on a shared 4-core box single
// pairs scatter by ±5%, and with 15 pairs one run in 14 still read a
// median of +5.7% against a true overhead near 0. The report-only tracing
// ratio takes the sampler's default 15. The ratios' spread is recorded
// beside them.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "engine/engine.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/table.hpp"
#include "workloads/corpus.hpp"

using namespace mpsched;

namespace {

/// One full cold dispatch: fresh engine (shared pool, empty cache) so
/// every pass pays the same enumeration work.
double cold_dispatch_ms(const std::vector<engine::Job>& jobs) {
  engine::Engine eng;
  return eng.run_batch(jobs).wall_ms;
}

}  // namespace

int main() {
  bench::banner("Observability overhead — 8-job demo corpus",
                "metrics off vs. on vs. on+tracing, cold engine dispatch each");

  std::vector<engine::Job> jobs;
  for (const std::string& spec : workloads::demo_corpus_specs())
    jobs.push_back(engine::Job::from_workload(spec));

  bench::Gate gate("obs_overhead");

  const auto dispatch_with = [&jobs](bool metrics, bool tracing) {
    return [&jobs, metrics, tracing] {
      obs::set_metrics_enabled(metrics);
      obs::set_tracing_enabled(tracing);
      return cold_dispatch_ms(jobs);
    };
  };
  constexpr int kGatedPairs = 45;
  const bench::PairedRatio on =
      bench::paired_ratio(dispatch_with(false, false), dispatch_with(true, false), kGatedPairs);
  const bench::PairedRatio traced =
      bench::paired_ratio(dispatch_with(false, false), dispatch_with(true, true));
  obs::set_metrics_enabled(true);
  obs::set_tracing_enabled(false);
  obs::clear_trace();

  TextTable table({"configuration", "wall ms", "vs. metrics off", "ratio spread"});
  const auto row = [&](const char* name, double ms, double ratio, double spread) {
    char wall[32], delta[32], iqr[32] = "";
    std::snprintf(wall, sizeof wall, "%.2f", ms);
    std::snprintf(delta, sizeof delta, "%+.1f%%", 100.0 * (ratio - 1.0));
    if (spread >= 0.0) std::snprintf(iqr, sizeof iqr, "%.3f", spread);
    table.add(name, wall, delta, iqr);
  };
  row("metrics off", on.a_ms, 1.0, -1.0);
  row("metrics on", on.b_ms, on.ratio, on.spread);
  row("metrics + tracing", traced.b_ms, traced.ratio, traced.spread);
  std::fputs(table.to_string().c_str(), stdout);
  std::printf("(wall ms: median per dispatch; vs. metrics off: median of paired ratios)\n");

  gate.info("metrics off ms", on.a_ms);
  gate.info("metrics on ms", on.b_ms);
  gate.info("metrics+tracing ms", traced.b_ms);
  gate.info("metrics on / off ratio", on.ratio);
  gate.info("metrics on / off ratio spread (IQR / median)", on.spread);
  gate.info("metrics+tracing / off ratio", traced.ratio);
  gate.check(on.ratio <= 1.05,
             "metrics-enabled overhead is at most 5% of the dark run");

  return gate.finish("observability overhead");
}
