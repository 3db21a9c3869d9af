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
// interleaved (reference, arena) repetitions, and its spread is reported
// beside it in the BENCH_perf_scaling.json trajectory.
//
// It also records report-only trajectory cells for the §5.1 hot path: the
// serial enumerate time of two heavy kernels, fir(32) and bitonic(16), at
// C = 5 and span limit 1, where most antichains are size-C leaves.
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

/// Wall time per call of `fn`, over `iterations` back-to-back calls.
template <typename Fn>
double seconds_per_call(Fn&& fn, int iterations) {
  mpsched::Timer timer;
  for (int i = 0; i < iterations; ++i) fn();
  return timer.seconds() / iterations;
}

/// The q-quantile (0 ≤ q ≤ 1) of `values`, linearly interpolated.
double quantile(std::vector<double> values, double q) {
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

/// Report-only cells: one sequential enumerate_antichain_roots() walk over
/// all roots of fir(32) and of bitonic(16), at C = 5 and span limit 1 (the
/// SelectOptions defaults). Each repetition times both graphs back to
/// back, alternating which runs first, so drift hits both alike; each
/// graph's cell is the median over repetitions, with its IQR / median.
void record_heavy_enumeration_cells(bench::Gate& gate) {
  struct Kernel {
    std::string spec;
    Dfg dfg;
    Levels levels;
    Reachability reach;
    std::vector<NodeId> roots;
    std::vector<double> ms;
  };
  std::vector<Kernel> kernels;
  for (const std::string spec : {"fir(32)", "bitonic(16)"}) {
    Dfg g = workloads::make_workload(spec);
    Levels lv = compute_levels(g);
    Reachability reach(g);
    std::vector<NodeId> roots = all_roots(g);
    kernels.push_back({spec, std::move(g), std::move(lv), std::move(reach), std::move(roots), {}});
  }
  EnumerateOptions options;
  options.max_size = 5;
  options.span_limit = 1;
  const auto walk_ms = [&options](const Kernel& k) {
    mpsched::Timer timer;
    benchmark::DoNotOptimize(
        enumerate_antichain_roots(k.dfg, k.levels, k.reach, options, k.roots));
    return timer.seconds() * 1e3;
  };

  // One warm-up pair sizes the run: up to 11 repetitions within ~1 s, at
  // least 3 (sanitizer builds are an order of magnitude slower).
  const double pair_ms = walk_ms(kernels[0]) + walk_ms(kernels[1]);
  const int reps = std::clamp(static_cast<int>(1000.0 / std::max(pair_ms, 1e-3)), 3, 11);
  for (int rep = 0; rep < reps; ++rep)
    for (std::size_t i = 0; i < kernels.size(); ++i) {
      Kernel& k = kernels[rep % 2 == 0 ? i : kernels.size() - 1 - i];
      k.ms.push_back(walk_ms(k));
    }

  for (const Kernel& k : kernels) {
    const double median = quantile(k.ms, 0.5);
    const double spread = (quantile(k.ms, 0.75) - quantile(k.ms, 0.25)) / median;
    std::printf("%s, C = 5, span 1, serial enumerate: %.3f ms (median of %d; IQR/median %.3f)\n",
                k.spec.c_str(), median, reps, spread);
    gate.workload(k.spec + " C5 span1");
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
    benchmark::DoNotOptimize(test::enumerate_antichains_reference(g, lv, reach, options));
  };
  const auto arena = [&] {
    benchmark::DoNotOptimize(enumerate_antichain_roots(g, lv, reach, options, roots));
  };

  // Calibrate the inner iteration count off the reference walk so one rep
  // lasts ~50ms on any build type (Release and ASan/Debug legs both time
  // meaningfully). Then time paired repetitions, alternating which kernel
  // runs first, so drift and co-scheduled load hit both sides of a pair
  // alike; the gate takes the median of the per-pair ratios.
  const double once = std::max(seconds_per_call(reference, 1), 1e-6);
  const int iterations = std::clamp(static_cast<int>(0.05 / once), 1, 200);
  constexpr int kPairs = 15;
  std::vector<double> ref_s, arena_s, ratios;
  for (int pair = 0; pair < kPairs; ++pair) {
    double r = 0.0, a = 0.0;
    if (pair % 2 == 0) {
      r = seconds_per_call(reference, iterations);
      a = seconds_per_call(arena, iterations);
    } else {
      a = seconds_per_call(arena, iterations);
      r = seconds_per_call(reference, iterations);
    }
    ref_s.push_back(r);
    arena_s.push_back(a);
    ratios.push_back(r / a);
  }
  const double speedup = quantile(ratios, 0.5);
  const double spread = (quantile(ratios, 0.75) - quantile(ratios, 0.25)) / speedup;

  std::printf("\nFig. 5 span workload, single shard, %d paired reps: reference %.3f ms, "
              "arena %.3f ms, speedup %.2fx (median ratio; IQR/median %.3f)\n",
              kPairs, quantile(ref_s, 0.5) * 1e3, quantile(arena_s, 0.5) * 1e3, speedup,
              spread);
  gate.info("reference enumerate ms", quantile(ref_s, 0.5) * 1e3);
  gate.info("arena enumerate ms", quantile(arena_s, 0.5) * 1e3);
  gate.check_min(2.0, speedup, "single-shard enumeration speedup (arena vs reference)");
  gate.info("single-shard enumeration speedup spread (IQR / median)", spread);

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
