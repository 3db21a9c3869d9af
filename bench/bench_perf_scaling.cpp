// Performance scaling (google-benchmark): the computational kernels —
// antichain enumeration (one sequential walk over all roots vs the
// partition_roots() shards of enumerate_antichains() on the shared pool),
// transitive closure, pattern selection end-to-end, and the multi-pattern
// scheduler — across graph sizes.
//
// main() additionally pins the arena-enumerator speedup: the word-parallel
// scratch-arena walk (one enumerate_antichain_roots() shard over all
// roots) must beat the reference (copy-a-bitset-per-node) enumerator of
// tests/reference_enumerate.hpp by ≥2× on the Fig. 5 span workload, with
// byte-identical analysis output. The ratio is the median over paired,
// interleaved (arena, reference) samples from bench::paired_ratio, and
// its spread is reported beside it in the BENCH_perf_scaling.json
// trajectory.
//
// It also records report-only trajectory cells for the §5.1 hot path: the
// serial enumerate time of three heavy kernels, fir(32), bitonic(16) and
// iir(12), at C = 5 and span limit 1, where most antichains are size-C
// leaves, and of a 70-color random DAG at C = 6, where most patterns
// occur once.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <numeric>

#include "bench_common.hpp"
#include "antichain/analytic.hpp"
#include "antichain/enumerate.hpp"
#include "core/mp_schedule.hpp"
#include "core/select.hpp"
#include "graph/closure.hpp"
#include "pattern/random.hpp"
#include "many_colors_dag.hpp"
#include "reference_enumerate.hpp"
#include "util/timer.hpp"
#include "workloads/corpus.hpp"
#include "workloads/dft.hpp"
#include "workloads/paper_graphs.hpp"
#include "workloads/random_dag.hpp"

namespace {

using namespace mpsched;

std::vector<NodeId> all_roots(const Dfg& g) {
  std::vector<NodeId> roots(g.node_count());
  std::iota(roots.begin(), roots.end(), NodeId{0});
  return roots;
}

Dfg sized_dag(std::int64_t nodes_hint) {
  workloads::LayeredDagOptions options;
  options.layers = static_cast<std::size_t>(std::max<std::int64_t>(3, nodes_hint / 8));
  options.min_width = 6;
  options.max_width = 10;
  options.edge_probability = 0.3;
  return workloads::random_layered_dag(12345, options);
}

void BM_TransitiveClosure(benchmark::State& state) {
  const Dfg g = sized_dag(state.range(0));
  for (auto _ : state) {
    Reachability reach(g);
    benchmark::DoNotOptimize(reach.comparable_pair_count());
  }
  state.SetLabel(std::to_string(g.node_count()) + " nodes");
}
BENCHMARK(BM_TransitiveClosure)->Arg(64)->Arg(128)->Arg(256);

void BM_AntichainEnumeration(benchmark::State& state) {
  const Dfg g = sized_dag(state.range(0));
  const Levels lv = compute_levels(g);
  const Reachability reach(g);
  EnumerateOptions options;
  options.max_size = 5;
  options.span_limit = 1;  // library default
  const bool sharded = state.range(1) != 0;
  const std::vector<NodeId> roots = all_roots(g);
  std::uint64_t total = 0;
  for (auto _ : state) {
    const AntichainAnalysis analysis =
        sharded ? enumerate_antichains(g, lv, reach, options)
                : enumerate_antichain_roots(g, lv, reach, options, roots);
    total = analysis.total;
    benchmark::DoNotOptimize(analysis.per_pattern.size());
  }
  state.SetLabel(std::to_string(g.node_count()) + " nodes, " + std::to_string(total) +
                 " antichains, " + (sharded ? "parallel" : "serial"));
  state.SetItemsProcessed(static_cast<std::int64_t>(total) *
                          static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_AntichainEnumeration)
    ->Args({64, 0})
    ->Args({64, 1})
    ->Args({128, 0})
    ->Args({128, 1})
    ->Unit(benchmark::kMillisecond);

void BM_PatternSelection(benchmark::State& state) {
  const Dfg g = sized_dag(state.range(0));
  SelectOptions options;
  options.pattern_count = 4;
  options.capacity = 5;
  for (auto _ : state) {
    const SelectionResult sel = select_patterns(g, options);
    benchmark::DoNotOptimize(sel.patterns.size());
  }
  state.SetLabel(std::to_string(g.node_count()) + " nodes");
  state.SetComplexityN(static_cast<std::int64_t>(g.node_count()));
}
BENCHMARK(BM_PatternSelection)->Arg(48)->Arg(96)->Arg(192)->Unit(benchmark::kMillisecond);

void BM_MultiPatternSchedule(benchmark::State& state) {
  const Dfg g = sized_dag(state.range(0));
  SelectOptions so;
  so.pattern_count = 4;
  so.capacity = 5;
  const SelectionResult sel = select_patterns(g, so);
  for (auto _ : state) {
    const MpScheduleResult r = multi_pattern_schedule(g, sel.patterns);
    benchmark::DoNotOptimize(r.cycles);
  }
  state.SetLabel(std::to_string(g.node_count()) + " nodes");
}
BENCHMARK(BM_MultiPatternSchedule)->Arg(64)->Arg(128)->Arg(256)->Arg(512);

void BM_AnalyticGeneration(benchmark::State& state) {
  const Dfg g = workloads::radix2_fft(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    const AntichainAnalysis analysis = analytic_level_analysis(g, 5);
    benchmark::DoNotOptimize(analysis.per_pattern.size());
  }
  state.SetLabel("fft" + std::to_string(state.range(0)) + ": " +
                 std::to_string(g.node_count()) + " nodes");
}
BENCHMARK(BM_AnalyticGeneration)->Arg(16)->Arg(64)->Arg(256);

void BM_ScheduleFft(benchmark::State& state) {
  const Dfg g = workloads::radix2_fft(static_cast<std::size_t>(state.range(0)));
  SelectOptions so;
  so.pattern_count = 4;
  so.capacity = 5;
  // Enumerative generation is intractable on wide FFTs; scheduler scaling
  // is what this benchmark measures, so use the analytic generator.
  so.generation = PatternGeneration::LevelAnalytic;
  const SelectionResult sel = select_patterns(g, so);
  for (auto _ : state) {
    const MpScheduleResult r = multi_pattern_schedule(g, sel.patterns);
    benchmark::DoNotOptimize(r.cycles);
  }
  state.SetLabel("fft" + std::to_string(state.range(0)) + ": " +
                 std::to_string(g.node_count()) + " nodes");
}
BENCHMARK(BM_ScheduleFft)->Arg(8)->Arg(16)->Arg(32)->Arg(64);

/// True when the two analyses are field-by-field identical (the same
/// contract test_util's expect_analysis_identical asserts in gtest).
bool analyses_identical(const AntichainAnalysis& a, const AntichainAnalysis& b) {
  if (a.total != b.total || a.count_by_size_span != b.count_by_size_span ||
      a.per_pattern.size() != b.per_pattern.size())
    return false;
  for (std::size_t i = 0; i < a.per_pattern.size(); ++i) {
    const PatternAntichains& x = a.per_pattern[i];
    const PatternAntichains& y = b.per_pattern[i];
    if (!(x.pattern == y.pattern) || x.antichain_count != y.antichain_count ||
        x.node_frequency != y.node_frequency || x.members != y.members)
      return false;
  }
  return true;
}

/// Report-only cells: one sequential enumerate_antichain_roots() walk over
/// all roots of fir(32), bitonic(16) and iir(12) at C = 5 and span limit 1
/// (the SelectOptions defaults), and of many_colors_dag() at C = 6 with no
/// span limit. Each repetition times every graph back to back, rotating
/// which runs first, so drift hits all alike; each graph's cell is the
/// median over repetitions, with its IQR / median.
void record_heavy_enumeration_cells(bench::Gate& gate) {
  struct Kernel {
    std::string label;
    Dfg dfg;
    EnumerateOptions options;
    Levels levels;
    Reachability reach;
    std::vector<NodeId> roots;
    std::vector<double> ms;
  };
  EnumerateOptions defaults;
  defaults.max_size = 5;
  defaults.span_limit = 1;
  EnumerateOptions c6;
  c6.max_size = 6;
  std::vector<Kernel> kernels;
  const auto add = [&kernels](std::string label, Dfg g, const EnumerateOptions& options) {
    Levels lv = compute_levels(g);
    Reachability reach(g);
    std::vector<NodeId> roots = all_roots(g);
    kernels.push_back({std::move(label), std::move(g), options, std::move(lv), std::move(reach),
                       std::move(roots), {}});
  };
  for (const std::string spec : {"fir(32)", "bitonic(16)", "iir(12)"})
    add(spec + " C5 span1", workloads::make_workload(spec), defaults);
  add("many-colors-70 C6", test::many_colors_dag(), c6);
  const auto walk_ms = [](const Kernel& k) {
    mpsched::Timer timer;
    benchmark::DoNotOptimize(
        enumerate_antichain_roots(k.dfg, k.levels, k.reach, k.options, k.roots));
    return timer.millis();
  };

  // One warm-up round sizes the run: up to 11 repetitions within ~1 s, at
  // least 3 (sanitizer builds are an order of magnitude slower).
  double round_ms = 0.0;
  for (const Kernel& k : kernels) round_ms += walk_ms(k);
  const int reps = std::clamp(static_cast<int>(1000.0 / std::max(round_ms, 1e-3)), 3, 11);
  for (int rep = 0; rep < reps; ++rep)
    for (std::size_t i = 0; i < kernels.size(); ++i) {
      Kernel& k = kernels[(rep + i) % kernels.size()];
      k.ms.push_back(walk_ms(k));
    }

  for (const Kernel& k : kernels) {
    const double median = bench::quantile(k.ms, 0.5);
    const double spread = bench::relative_iqr(k.ms);
    std::printf("%s, serial enumerate: %.3f ms (median of %d; IQR/median %.3f)\n",
                k.label.c_str(), median, reps, spread);
    gate.workload(k.label);
    gate.info("serial enumerate ms", median);
    gate.info("serial enumerate ms spread (IQR / median)", spread);
  }
}

/// The pinned arena-vs-reference enumeration gate on the Fig. 5 span
/// workload (3DFT, max_size 4 — the population Theorem 1 is checked over):
/// the arena walk is one enumerate_antichain_roots() shard over all roots.
int run_enumeration_speedup_gate() {
  bench::Gate gate("perf_scaling");
  gate.workload("fig5-span-3dft");

  const Dfg g = workloads::paper_3dft();
  const Levels lv = compute_levels(g);
  const Reachability reach(g);
  const std::vector<NodeId> roots = all_roots(g);
  EnumerateOptions options;
  options.max_size = 4;

  // Byte-identity first: the representation change must be invisible in
  // the analysis (member lists included).
  {
    EnumerateOptions with_members = options;
    with_members.collect_members = true;
    const AntichainAnalysis ref = test::enumerate_antichains_reference(g, lv, reach, with_members);
    const AntichainAnalysis arena = enumerate_antichain_roots(g, lv, reach, with_members, roots);
    gate.check(analyses_identical(ref, arena),
               "arena enumerator byte-identical to reference (collect_members)");
    gate.check_eq(3808, static_cast<long long>(arena.total),
                  "fig5 span workload antichain population");
  }

  const auto reference = [&] {
    mpsched::Timer timer;
    benchmark::DoNotOptimize(test::enumerate_antichains_reference(g, lv, reach, options));
    return timer.millis();
  };
  const auto arena = [&] {
    mpsched::Timer timer;
    benchmark::DoNotOptimize(enumerate_antichain_roots(g, lv, reach, options, roots));
    return timer.millis();
  };
  const bench::PairedRatio timed = bench::paired_ratio(arena, reference);

  std::printf("\nFig. 5 span workload, single shard, paired samples: reference %.3f ms, "
              "arena %.3f ms, speedup %.2fx (median ratio; IQR/median %.3f)\n",
              timed.b_ms, timed.a_ms, timed.ratio, timed.spread);
  gate.info("reference enumerate ms", timed.b_ms);
  gate.info("arena enumerate ms", timed.a_ms);
  gate.check_min(2.0, timed.ratio, "single-shard enumeration speedup (arena vs reference)");
  gate.info("single-shard enumeration speedup spread (IQR / median)", timed.spread);

  record_heavy_enumeration_cells(gate);
  return gate.finish("perf scaling (arena enumerator identity + pinned >=2x speedup)");
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return run_enumeration_speedup_gate();
}
