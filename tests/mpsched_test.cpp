// Multi-pattern list scheduler (§4): node priorities, selected sets,
// F1/F2 rules, tie-breaks, failure modes, and validity properties over
// random graphs × random pattern sets.
#include <gtest/gtest.h>

#include "core/mp_schedule.hpp"
#include "core/node_priority.hpp"
#include "graph/levels.hpp"
#include "pattern/parse.hpp"
#include "test_util.hpp"
#include "workloads/paper_graphs.hpp"

namespace mpsched {
namespace {

TEST(NodePriorityTest, ParamsSatisfyInequality5Strictly) {
  const Dfg g = workloads::paper_3dft();
  const Reachability reach(g);
  const NodePriorityParams params = derive_priority_params(g, reach);
  for (NodeId n = 0; n < g.node_count(); ++n) {
    const auto direct = static_cast<std::int64_t>(g.succs(n).size());
    const auto all = static_cast<std::int64_t>(reach.followers(n).count());
    EXPECT_GT(params.t, all);
    EXPECT_GT(params.s, params.t * direct + all);
  }
}

TEST(NodePriorityTest, LexicographicBehaviour) {
  const Dfg g = workloads::paper_3dft();
  const Levels lv = compute_levels(g);
  const Reachability reach(g);
  const NodePriorities np = compute_node_priorities(g, lv, reach);
  for (NodeId x = 0; x < g.node_count(); ++x) {
    for (NodeId y = 0; y < g.node_count(); ++y) {
      if (lv.height[x] > lv.height[y]) {
        EXPECT_GT(np.f[x], np.f[y]) << "height must dominate";
      } else if (lv.height[x] == lv.height[y] &&
                 np.direct_successors[x] > np.direct_successors[y]) {
        EXPECT_GT(np.f[x], np.f[y]) << "direct successors break height ties";
      }
    }
  }
}

TEST(MpScheduleTest, FailsWithoutColorCoverage) {
  const Dfg g = workloads::paper_3dft();
  const PatternSet patterns = parse_pattern_set(g, "aabaa");  // no 'c'
  const MpScheduleResult result = multi_pattern_schedule(g, patterns);
  EXPECT_FALSE(result.success);
  EXPECT_NE(result.error.find("cover"), std::string::npos);
}

TEST(MpScheduleTest, EmptyPatternSetThrows) {
  const Dfg g = workloads::small_example();
  EXPECT_THROW(multi_pattern_schedule(g, PatternSet{}), std::invalid_argument);
}

TEST(MpScheduleTest, EmptyGraphSucceedsWithZeroCycles) {
  Dfg g;
  g.intern_color("a");
  PatternSet set;
  set.insert(Pattern({0}));
  const MpScheduleResult result = multi_pattern_schedule(g, set);
  EXPECT_TRUE(result.success);
  EXPECT_EQ(result.cycles, 0u);
}

TEST(MpScheduleTest, SingleWildPatternActsAsListScheduler) {
  // With one pattern of five 'a' slots on an all-'a' chain, every cycle
  // schedules exactly the one ready node.
  Dfg g;
  const ColorId a = g.intern_color("a");
  for (int i = 0; i < 6; ++i) g.add_node(a);
  for (int i = 0; i + 1 < 6; ++i)
    g.add_edge(static_cast<NodeId>(i), static_cast<NodeId>(i + 1));
  PatternSet set;
  set.insert(Pattern({a, a, a, a, a}));
  const MpScheduleResult result = multi_pattern_schedule(g, set);
  ASSERT_TRUE(result.success);
  EXPECT_EQ(result.cycles, 6u);
}

TEST(MpScheduleTest, SchedulesWideGraphAtFullWidth) {
  Dfg g;
  const ColorId a = g.intern_color("a");
  for (int i = 0; i < 10; ++i) g.add_node(a);
  PatternSet set;
  set.insert(Pattern({a, a, a, a, a}));
  const MpScheduleResult result = multi_pattern_schedule(g, set);
  ASSERT_TRUE(result.success);
  EXPECT_EQ(result.cycles, 2u);  // ceil(10 / 5)
}

TEST(MpScheduleTest, TraceOnlyRecordedWhenRequested) {
  const Dfg g = workloads::paper_3dft();
  const PatternSet patterns = parse_pattern_set(g, "aabcc aaacc");
  MpScheduleOptions options;
  options.record_trace = false;
  EXPECT_TRUE(multi_pattern_schedule(g, patterns, options).trace.empty());
  options.record_trace = true;
  EXPECT_FALSE(multi_pattern_schedule(g, patterns, options).trace.empty());
}

TEST(MpScheduleTest, TraceTableRendersAllCycles) {
  const Dfg g = workloads::paper_3dft();
  const PatternSet patterns = parse_pattern_set(g, "aabcc aaacc");
  MpScheduleOptions options;
  options.record_trace = true;
  const MpScheduleResult result = multi_pattern_schedule(g, patterns, options);
  const std::string table = result.trace_table(g, patterns);
  EXPECT_NE(table.find("| 1 |"), std::string::npos);
  EXPECT_NE(table.find("| 7 |"), std::string::npos);
  EXPECT_NE(table.find("aabcc"), std::string::npos);
}

TEST(MpScheduleTest, RecordedCyclePatternsFitUsage) {
  const Dfg g = workloads::paper_3dft();
  const PatternSet patterns = parse_pattern_set(g, "aabcc aaacc");
  const MpScheduleResult result = multi_pattern_schedule(g, patterns);
  ASSERT_TRUE(result.success);
  const ScheduleValidation v = validate_schedule(g, result.schedule, patterns);
  EXPECT_TRUE(v.ok) << v.summary();
}

TEST(MpScheduleTest, F1AndF2BothProduceValidSchedules) {
  const Dfg g = workloads::paper_3dft();
  const PatternSet patterns = parse_pattern_set(g, "aabcc aaacc");
  for (const PatternRule rule : {PatternRule::F1CoverCount, PatternRule::F2PrioritySum}) {
    MpScheduleOptions options;
    options.rule = rule;
    const MpScheduleResult result = multi_pattern_schedule(g, patterns, options);
    ASSERT_TRUE(result.success);
    EXPECT_TRUE(validate_schedule(g, result.schedule, patterns).ok);
  }
}

TEST(MpScheduleTest, RandomTieBreakIsSeedDeterministic) {
  const Dfg g = workloads::paper_3dft();
  const PatternSet patterns = parse_pattern_set(g, "aabcc aaacc");
  MpScheduleOptions options;
  options.tie_break = TieBreak::Random;
  options.seed = 77;
  const MpScheduleResult r1 = multi_pattern_schedule(g, patterns, options);
  const MpScheduleResult r2 = multi_pattern_schedule(g, patterns, options);
  ASSERT_TRUE(r1.success && r2.success);
  EXPECT_EQ(r1.cycles, r2.cycles);
  for (NodeId n = 0; n < g.node_count(); ++n)
    EXPECT_EQ(r1.schedule.cycle_of(n), r2.schedule.cycle_of(n));
}

TEST(MpScheduleTest, AllTieBreaksYieldValidSchedules) {
  const Dfg g = workloads::paper_3dft();
  const PatternSet patterns = parse_pattern_set(g, "aabcc aaacc");
  for (const TieBreak tb :
       {TieBreak::Stable, TieBreak::NodeIdAsc, TieBreak::NodeIdDesc, TieBreak::Random}) {
    MpScheduleOptions options;
    options.tie_break = tb;
    const MpScheduleResult result = multi_pattern_schedule(g, patterns, options);
    ASSERT_TRUE(result.success);
    EXPECT_TRUE(validate_schedule(g, result.schedule, patterns).ok);
    EXPECT_GE(result.cycles, 5u);  // critical path of the 3DFT
  }
}

// The incumbent bound is exact: a run bounded by its own unbounded cycle
// count is cut, and a run bounded one cycle above returns the identical
// schedule and trace. Also checks that one prepared scheduler serves many
// sets exactly like the single-call multi_pattern_schedule.
TEST(MpSchedulerTest, BoundCutsAtTheUnboundedLengthAndKeepsEverythingAbove) {
  struct Case {
    Dfg g;
    PatternSet patterns;
  };
  std::vector<Case> cases;
  {
    Dfg g = workloads::paper_3dft();
    PatternSet patterns = parse_pattern_set(g, "aabcc aaacc");
    cases.push_back({std::move(g), std::move(patterns)});
  }
  for (const std::uint64_t seed : {11u, 22u, 33u}) {
    Dfg g = test::random_dag(seed);
    Rng rng(seed);
    PatternSet patterns = test::random_patterns(g, rng, 1 + seed % 4);
    cases.push_back({std::move(g), std::move(patterns)});
  }

  for (const TieBreak tb : {TieBreak::Stable, TieBreak::Random}) {
    MpScheduleOptions options;
    options.tie_break = tb;
    options.random_pattern_ties = tb == TieBreak::Random;
    options.seed = 7;
    options.record_trace = true;
    for (const Case& c : cases) {
      SCOPED_TRACE(c.g.name() + " " + c.patterns.to_string(c.g));
      MpScheduler scheduler(c.g, options);
      const MpScheduleResult full = scheduler.run(c.patterns);
      ASSERT_TRUE(full.success) << full.error;

      const MpScheduleResult cut = scheduler.run(c.patterns, full.cycles);
      EXPECT_FALSE(cut.success);
      EXPECT_EQ(cut.error, MpScheduler::kCutByBound);

      const MpScheduleResult single = multi_pattern_schedule(c.g, c.patterns, options);
      const MpScheduleResult kept = scheduler.run(c.patterns, full.cycles + 1);
      for (const MpScheduleResult* r : {&single, &kept}) {
        ASSERT_TRUE(r->success) << r->error;
        EXPECT_EQ(r->cycles, full.cycles);
        EXPECT_EQ(r->priority_params.s, full.priority_params.s);
        EXPECT_EQ(r->priority_params.t, full.priority_params.t);
        for (NodeId n = 0; n < c.g.node_count(); ++n)
          EXPECT_EQ(r->schedule.cycle_of(n), full.schedule.cycle_of(n)) << "node " << n;
        for (int cycle = 0; cycle < static_cast<int>(full.cycles); ++cycle)
          EXPECT_EQ(r->schedule.cycle_pattern(cycle), full.schedule.cycle_pattern(cycle));
        ASSERT_EQ(r->trace.size(), full.trace.size());
        for (std::size_t i = 0; i < full.trace.size(); ++i) {
          EXPECT_EQ(r->trace[i].candidates, full.trace[i].candidates);
          EXPECT_EQ(r->trace[i].selected, full.trace[i].selected);
          EXPECT_EQ(r->trace[i].pattern_score, full.trace[i].pattern_score);
          EXPECT_EQ(r->trace[i].chosen_pattern, full.trace[i].chosen_pattern);
        }
      }
    }
  }
}

// Property sweep: random graph × random covering pattern set must produce
// a complete, dependency-correct, resource-correct schedule with at least
// critical-path length, and never more cycles than nodes.
class MpSchedulePropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MpSchedulePropertyTest, SchedulesAreAlwaysValid) {
  const Dfg g = test::random_dag(GetParam());
  Rng rng(GetParam() * 31 + 7);
  for (std::size_t pdef : {1u, 2u, 4u}) {
    const PatternSet patterns = test::random_patterns(g, rng, pdef);
    const MpScheduleResult result = multi_pattern_schedule(g, patterns);
    ASSERT_NO_FATAL_FAILURE(test::expect_valid_schedule(g, result, patterns));
  }
}

INSTANTIATE_TEST_SUITE_P(RandomDags, MpSchedulePropertyTest,
                         ::testing::Values(101, 202, 303, 404, 505, 606, 707, 808));

}  // namespace
}  // namespace mpsched
