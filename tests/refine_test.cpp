// Pattern-set refinement and the exhaustive selection oracle.
#include <gtest/gtest.h>

#include <algorithm>

#include "antichain/enumerate.hpp"
#include "core/exhaustive.hpp"
#include "core/refine.hpp"
#include "core/select.hpp"
#include "pattern/parse.hpp"
#include "workloads/corpus.hpp"
#include "workloads/dft.hpp"
#include "workloads/paper_graphs.hpp"

namespace mpsched {
namespace {

/// Multisets of exactly `size` colors over `colors`, in the order the
/// oracle enumerates them.
void all_patterns(const std::vector<ColorId>& colors, std::size_t size, std::size_t from,
                  std::vector<ColorId>& current, std::vector<Pattern>& out) {
  if (current.size() == size) {
    out.emplace_back(current);
    return;
  }
  for (std::size_t i = from; i < colors.size(); ++i) {
    current.push_back(colors[i]);
    all_patterns(colors, size, i, current, out);
    current.pop_back();
  }
}

/// The oracle as a plain loop: one full multi_pattern_schedule per
/// covering Pdef-subset of the universe, in lexicographic index order; the
/// first strictly better set wins.
void visit_subsets(const Dfg& g, const ExhaustiveOptions& o,
                   const std::vector<Pattern>& universe, std::vector<std::size_t>& chosen,
                   std::size_t from, const std::vector<ColorId>& colors,
                   ExhaustiveResult& best) {
  if (chosen.size() == o.pattern_count) {
    PatternSet set;
    for (const std::size_t i : chosen) set.insert(universe[i]);
    if (!set.covers(colors)) {
      ++best.sets_skipped;
      return;
    }
    ++best.sets_evaluated;
    const MpScheduleResult r = multi_pattern_schedule(g, set, o.schedule);
    if (r.success && r.cycles < best.cycles) {
      best.cycles = r.cycles;
      best.best = std::move(set);
    }
    return;
  }
  for (std::size_t i = from; i < universe.size(); ++i) {
    chosen.push_back(i);
    visit_subsets(g, o, universe, chosen, i + 1, colors, best);
    chosen.pop_back();
  }
}

ExhaustiveResult brute_force_oracle(const Dfg& g, const ExhaustiveOptions& o) {
  std::vector<ColorId> colors;
  for (NodeId n = 0; n < g.node_count(); ++n) colors.push_back(g.color(n));
  std::sort(colors.begin(), colors.end());
  colors.erase(std::unique(colors.begin(), colors.end()), colors.end());
  std::vector<Pattern> universe;
  std::vector<ColorId> current;
  all_patterns(colors, o.capacity, 0, current, universe);
  ExhaustiveResult best;
  best.cycles = SIZE_MAX;
  std::vector<std::size_t> chosen;
  visit_subsets(g, o, universe, chosen, 0, colors, best);
  return best;
}

/// refine_pattern_set as a plain loop: every evaluation is a full,
/// unbounded multi_pattern_schedule.
RefineResult unbounded_refine(const Dfg& g, const AntichainAnalysis& analysis,
                              const PatternSet& initial, const RefineOptions& o,
                              const std::vector<ColorId>& colors) {
  auto evaluate = [&](const PatternSet& set, RefineResult& r) {
    ++r.evaluations;
    const MpScheduleResult s = multi_pattern_schedule(g, set, o.schedule);
    return s.success ? s.cycles : SIZE_MAX;
  };
  RefineResult r;
  r.patterns = initial;
  r.initial_cycles = evaluate(r.patterns, r);
  r.refined_cycles = r.initial_cycles;
  std::vector<const PatternAntichains*> ranked;
  for (const auto& pa : analysis.per_pattern) ranked.push_back(&pa);
  std::sort(ranked.begin(), ranked.end(), [](const auto* a, const auto* b) {
    if (a->antichain_count != b->antichain_count)
      return a->antichain_count > b->antichain_count;
    return a->pattern < b->pattern;
  });
  if (ranked.size() > o.candidate_pool) ranked.resize(o.candidate_pool);
  for (std::size_t sweep = 0; sweep < o.max_sweeps; ++sweep) {
    bool improved = false;
    for (std::size_t slot = 0; slot < r.patterns.size(); ++slot) {
      for (const PatternAntichains* cand : ranked) {
        if (r.patterns.contains(cand->pattern)) continue;
        PatternSet trial;
        for (std::size_t i = 0; i < r.patterns.size(); ++i)
          trial.insert(i == slot ? cand->pattern : r.patterns[i]);
        if (!trial.covers(colors)) continue;
        const std::size_t cycles = evaluate(trial, r);
        if (cycles < r.refined_cycles) {
          r.patterns = std::move(trial);
          r.refined_cycles = cycles;
          ++r.swaps_accepted;
          improved = true;
          break;
        }
      }
    }
    if (!improved) break;
  }
  return r;
}

TEST(RefineTest, NeverWorseThanInitial) {
  const Dfg g = workloads::paper_3dft();
  for (std::size_t pdef = 1; pdef <= 4; ++pdef) {
    SelectOptions so;
    so.pattern_count = pdef;
    so.capacity = 5;
    const RefineResult r = select_and_refine(g, so);
    EXPECT_LE(r.refined_cycles, r.initial_cycles) << "Pdef=" << pdef;
    EXPECT_GE(r.evaluations, 1u);
    const MpScheduleResult check = multi_pattern_schedule(g, r.patterns);
    ASSERT_TRUE(check.success);
    EXPECT_EQ(check.cycles, r.refined_cycles);
  }
}

TEST(RefineTest, ImprovesDeliberatelyBadStart) {
  const Dfg g = workloads::paper_3dft();
  // A wasteful but covering start: heavy on subtractions the graph barely
  // needs (it has only 4 'b' nodes).
  const PatternSet bad = parse_pattern_set(g, "bbbbc bbbba");
  EnumerateOptions eo;
  eo.max_size = 5;
  eo.span_limit = 1;
  const AntichainAnalysis analysis = enumerate_antichains(g, eo);
  const RefineResult r = refine_pattern_set(g, analysis, bad);
  EXPECT_LT(r.refined_cycles, r.initial_cycles);
  EXPECT_GT(r.swaps_accepted, 0u);
}

TEST(RefineTest, CoverageInvariantMaintained) {
  const Dfg g = workloads::winograd_dft5();
  SelectOptions so;
  so.pattern_count = 3;
  so.capacity = 5;
  const RefineResult r = select_and_refine(g, so);
  EXPECT_TRUE(r.patterns.covers({0, 1, 2}));
}

// Trial sets run bounded by the incumbent; the result must equal a
// refinement whose every evaluation runs to completion.
TEST(RefineTest, MatchesUnboundedReference) {
  for (const char* spec : {"paper_3dft", "dft5", "dct8"}) {
    const Dfg g = workloads::make_workload(spec);
    const std::vector<ColorId> colors = MpScheduler(g, {}).used_colors();
    EnumerateOptions eo;
    eo.max_size = 5;
    eo.span_limit = 1;
    const AntichainAnalysis analysis = enumerate_antichains(g, eo);
    for (std::size_t pdef = 1; pdef <= 4; ++pdef) {
      SelectOptions so;
      so.pattern_count = pdef;
      so.capacity = 5;
      const SelectionResult greedy = select_patterns(g, analysis, so);
      for (const bool random : {false, true}) {
        SCOPED_TRACE(std::string(spec) + " Pdef=" + std::to_string(pdef) +
                     (random ? " random ties" : " stable"));
        RefineOptions ro;
        ro.schedule.tie_break = random ? TieBreak::Random : TieBreak::Stable;
        ro.schedule.random_pattern_ties = random;
        ro.schedule.seed = 7;
        const RefineResult got = refine_pattern_set(g, analysis, greedy.patterns, ro);
        const RefineResult want = unbounded_refine(g, analysis, greedy.patterns, ro, colors);
        EXPECT_EQ(got.patterns.patterns(), want.patterns.patterns());
        EXPECT_EQ(got.initial_cycles, want.initial_cycles);
        EXPECT_EQ(got.refined_cycles, want.refined_cycles);
        EXPECT_EQ(got.swaps_accepted, want.swaps_accepted);
        EXPECT_EQ(got.evaluations, want.evaluations);
      }
    }
  }
}

TEST(RefineTest, EmptyInitialThrows) {
  const Dfg g = workloads::paper_3dft();
  const AntichainAnalysis analysis = enumerate_antichains(g, {});
  EXPECT_THROW(refine_pattern_set(g, analysis, PatternSet{}), std::invalid_argument);
}

TEST(ExhaustiveTest, FindsKnownOptimumOnSmallExample) {
  const Dfg g = workloads::small_example();
  ExhaustiveOptions o;
  o.capacity = 2;
  o.pattern_count = 2;
  const ExhaustiveResult r = exhaustive_pattern_search(g, o);
  // {aa},{bb} schedules a1,a3 | a2 | b4,b5 → 3 cycles; nothing beats the
  // critical path of 3.
  EXPECT_EQ(r.cycles, 3u);
  EXPECT_GT(r.sets_evaluated, 0u);
}

TEST(ExhaustiveTest, HeuristicSelectionMatchesOracleOn3Dft) {
  const Dfg g = workloads::paper_3dft();
  for (const std::size_t pdef : {1u, 2u}) {
    ExhaustiveOptions o;
    o.capacity = 5;
    o.pattern_count = pdef;
    const ExhaustiveResult oracle = exhaustive_pattern_search(g, o);

    SelectOptions so;
    so.pattern_count = pdef;
    so.capacity = 5;
    const SelectionResult sel = select_patterns(g, so);
    const MpScheduleResult heuristic = multi_pattern_schedule(g, sel.patterns);
    ASSERT_TRUE(heuristic.success);

    EXPECT_LE(oracle.cycles, heuristic.cycles) << "Pdef=" << pdef;
    // The paper's Table 7 values (8 and 7) should be at or near the best
    // any pattern choice can achieve.
    EXPECT_GE(heuristic.cycles, oracle.cycles);
    EXPECT_LE(heuristic.cycles - oracle.cycles, 1u) << "Pdef=" << pdef;
  }
}

TEST(ExhaustiveTest, RefinementNarrowsTheOracleGap) {
  const Dfg g = workloads::paper_3dft();
  ExhaustiveOptions o;
  o.capacity = 5;
  o.pattern_count = 2;
  const ExhaustiveResult oracle = exhaustive_pattern_search(g, o);

  SelectOptions so;
  so.pattern_count = 2;
  so.capacity = 5;
  RefineOptions ro;
  ro.candidate_pool = 128;
  ro.max_sweeps = 8;
  const RefineResult refined = select_and_refine(g, so, ro);
  // Single-swap local search can stop one cycle short of the global
  // optimum (reaching it can require replacing both patterns at once),
  // but never more on this graph.
  EXPECT_GE(refined.refined_cycles, oracle.cycles);
  EXPECT_LE(refined.refined_cycles, oracle.cycles + 1);
}

// The search prepares the scheduler once, tests coverage by color mask and
// stops runs at the incumbent bound; none of that may change which set
// wins or what is counted. Checked against the plain oracle loop on every
// tournament graph under five option variants.
TEST(ExhaustiveTest, MatchesBruteForceReference) {
  struct Variant {
    const char* name;
    ExhaustiveOptions options;
  };
  std::vector<Variant> variants(5);
  variants[0].name = "F2/Stable";
  variants[1].name = "F1";
  variants[1].options.schedule.rule = PatternRule::F1CoverCount;
  variants[2].name = "Random ties, seed 7";
  variants[2].options.schedule.tie_break = TieBreak::Random;
  variants[2].options.schedule.random_pattern_ties = true;
  variants[2].options.schedule.seed = 7;
  variants[3].name = "C4/Pdef 2/NodeIdDesc";
  variants[3].options.capacity = 4;
  variants[3].options.pattern_count = 2;
  variants[3].options.schedule.tie_break = TieBreak::NodeIdDesc;
  variants[4].name = "Pdef 3";
  variants[4].options.pattern_count = 3;
  for (std::size_t v = 0; v < 3; ++v) variants[v].options.pattern_count = 4;

  std::size_t graphs = 0;
  for (const char* group : {"paper", "dft", "kernels", "random"}) {
    for (const std::string& spec : workloads::corpus_group(group).specs) {
      const Dfg g = workloads::make_workload(spec);
      ++graphs;
      for (const Variant& variant : variants) {
        SCOPED_TRACE(spec + " " + variant.name);
        const ExhaustiveResult got = exhaustive_pattern_search(g, variant.options);
        const ExhaustiveResult want = brute_force_oracle(g, variant.options);
        EXPECT_EQ(got.best.patterns(), want.best.patterns());
        EXPECT_EQ(got.cycles, want.cycles);
        EXPECT_EQ(got.sets_evaluated, want.sets_evaluated);
        EXPECT_EQ(got.sets_skipped, want.sets_skipped);
      }
    }
  }
  EXPECT_EQ(graphs, 21u);
}

TEST(ExhaustiveTest, GuardTripsOnHugeSearch) {
  const Dfg g = workloads::paper_3dft();
  ExhaustiveOptions o;
  o.capacity = 5;
  o.pattern_count = 4;
  o.max_combinations = 10;
  EXPECT_THROW(exhaustive_pattern_search(g, o), std::runtime_error);
}

TEST(ExhaustiveTest, CoverageImpossibleThrows) {
  const Dfg g = workloads::paper_3dft();  // 3 colors
  ExhaustiveOptions o;
  o.capacity = 1;  // single-slot patterns
  o.pattern_count = 2;  // 2 slots < 3 colors
  EXPECT_THROW(exhaustive_pattern_search(g, o), std::runtime_error);
}

}  // namespace
}  // namespace mpsched
