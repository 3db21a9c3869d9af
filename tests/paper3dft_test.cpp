// Verifies the 3DFT reconstruction (workloads::paper_3dft) against every
// value the paper publishes about Fig. 2:
//   * Table 1 — ASAP / ALAP / Height for all 22 listed nodes,
//   * Table 2 — the complete multi-pattern scheduling trace (candidate
//     lists, per-pattern selected sets, chosen patterns, 7 cycles),
//   * Table 5 — antichain counts for sizes 1 and 2 at every span limit
//     (the size 3-5 columns depend on unpublished structure; see
//     EXPERIMENTS.md for the measured values side by side).
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "antichain/enumerate.hpp"
#include "core/mp_schedule.hpp"
#include "graph/closure.hpp"
#include "graph/levels.hpp"
#include "pattern/parse.hpp"
#include "workloads/paper_graphs.hpp"

namespace mpsched {
namespace {

using workloads::paper_3dft;

class Paper3DftTest : public ::testing::Test {
 protected:
  Dfg dfg = paper_3dft();

  NodeId node(const std::string& name) const {
    const auto n = dfg.find_node(name);
    EXPECT_TRUE(n.has_value()) << name;
    return *n;
  }

  std::vector<std::string> names(const std::vector<NodeId>& nodes) const {
    std::vector<std::string> out;
    out.reserve(nodes.size());
    for (const NodeId n : nodes) out.push_back(dfg.node_name(n));
    std::sort(out.begin(), out.end());
    return out;
  }
};

TEST_F(Paper3DftTest, HasTwentyFourNodesWithPaperColorMix) {
  EXPECT_EQ(dfg.node_count(), 24u);
  std::map<std::string, int> histogram;
  for (NodeId n = 0; n < dfg.node_count(); ++n) ++histogram[dfg.color_name(dfg.color(n))];
  EXPECT_EQ(histogram["a"], 14);  // additions
  EXPECT_EQ(histogram["b"], 4);   // subtractions
  EXPECT_EQ(histogram["c"], 6);   // multiplications
}

// Table 1, all 22 published rows: {name, asap, alap, height}.
TEST_F(Paper3DftTest, Table1LevelsMatchExactly) {
  struct Row {
    const char* name;
    int asap, alap, height;
  };
  const Row kTable1[] = {
      {"b3", 0, 0, 5},  {"b6", 0, 0, 5},  {"b1", 0, 1, 4},  {"b5", 0, 1, 4},
      {"a4", 0, 1, 4},  {"a2", 0, 1, 4},  {"a8", 1, 1, 4},  {"a7", 1, 1, 4},
      {"c9", 1, 2, 3},  {"c13", 1, 2, 3}, {"c11", 1, 2, 3}, {"c10", 1, 2, 3},
      {"a24", 1, 4, 1}, {"a16", 1, 4, 1}, {"a15", 2, 3, 2}, {"a18", 2, 3, 2},
      {"a20", 3, 3, 2}, {"a17", 3, 3, 2}, {"a19", 3, 4, 1}, {"a22", 3, 4, 1},
      {"a23", 4, 4, 1}, {"a21", 4, 4, 1},
  };
  const Levels lv = compute_levels(dfg);
  EXPECT_EQ(lv.asap_max, 4);
  for (const Row& row : kTable1) {
    const NodeId n = node(row.name);
    EXPECT_EQ(lv.asap[n], row.asap) << "ASAP(" << row.name << ")";
    EXPECT_EQ(lv.alap[n], row.alap) << "ALAP(" << row.name << ")";
    EXPECT_EQ(lv.height[n], row.height) << "Height(" << row.name << ")";
  }
}

// The two nodes Table 1 omits; values derived in DESIGN.md §3.
TEST_F(Paper3DftTest, OmittedNodesC12C14HaveDerivedLevels) {
  const Levels lv = compute_levels(dfg);
  for (const char* name : {"c12", "c14"}) {
    const NodeId n = node(name);
    EXPECT_EQ(lv.asap[n], 2) << name;
    EXPECT_EQ(lv.alap[n], 2) << name;
    EXPECT_EQ(lv.height[n], 3) << name;
  }
}

// Table 2: the full scheduling procedure with pattern1="aabcc",
// pattern2="aaacc", pattern priority F2, stable tie-breaking.
TEST_F(Paper3DftTest, Table2TraceMatchesExactly) {
  const PatternSet patterns = parse_pattern_set(dfg, "aabcc aaacc");
  MpScheduleOptions options;
  options.rule = PatternRule::F2PrioritySum;
  options.tie_break = TieBreak::Stable;
  options.record_trace = true;

  const MpScheduleResult result = multi_pattern_schedule(dfg, patterns, options);
  ASSERT_TRUE(result.success) << result.error;
  EXPECT_EQ(result.cycles, 7u);
  ASSERT_EQ(result.trace.size(), 7u);

  struct Row {
    std::vector<std::string> candidates;
    std::vector<std::string> selected_p1;
    std::vector<std::string> selected_p2;
    std::size_t chosen;  // 0-based pattern index
  };
  const std::vector<Row> kTable2 = {
      {{"a2", "a4", "b1", "b3", "b5", "b6"}, {"a2", "a4", "b6"}, {"a2", "a4"}, 0},
      {{"a16", "a24", "a7", "b1", "b3", "b5", "c10", "c11"},
       {"a24", "a7", "b3", "c10", "c11"},
       {"a16", "a24", "a7", "c10", "c11"},
       0},
      {{"a16", "a8", "b1", "b5", "c12"}, {"a16", "a8", "b5", "c12"}, {"a16", "a8", "c12"}, 0},
      {{"a17", "b1", "c13", "c14"}, {"a17", "b1", "c13", "c14"}, {"a17", "c13", "c14"}, 0},
      {{"a18", "a20", "a21", "c9"}, {"a18", "a20", "c9"}, {"a18", "a20", "a21", "c9"}, 1},
      {{"a15", "a22", "a23"}, {"a15", "a22"}, {"a15", "a22", "a23"}, 1},
      {{"a19"}, {"a19"}, {"a19"}, 0},
  };

  for (std::size_t c = 0; c < kTable2.size(); ++c) {
    const MpTraceStep& step = result.trace[c];
    EXPECT_EQ(step.cycle, static_cast<int>(c) + 1);
    EXPECT_EQ(names(step.candidates), kTable2[c].candidates) << "cycle " << c + 1;
    ASSERT_EQ(step.selected.size(), 2u);
    EXPECT_EQ(names(step.selected[0]), kTable2[c].selected_p1) << "cycle " << c + 1;
    EXPECT_EQ(names(step.selected[1]), kTable2[c].selected_p2) << "cycle " << c + 1;
    EXPECT_EQ(step.chosen_pattern, kTable2[c].chosen) << "cycle " << c + 1;
  }
}

// Table 2's §4.3 narration: with F1 the two patterns tie in cycle 2; F2
// prefers pattern1 because b3's height beats a16's.
TEST_F(Paper3DftTest, Cycle2IsAnF1TieBrokenByF2) {
  const PatternSet patterns = parse_pattern_set(dfg, "aabcc aaacc");
  MpScheduleOptions options;
  options.rule = PatternRule::F1CoverCount;
  options.record_trace = true;
  const MpScheduleResult result = multi_pattern_schedule(dfg, patterns, options);
  ASSERT_TRUE(result.success);
  ASSERT_GE(result.trace.size(), 2u);
  const MpTraceStep& cycle2 = result.trace[1];
  EXPECT_EQ(cycle2.pattern_score[0], cycle2.pattern_score[1]);  // the F1 tie
  EXPECT_EQ(cycle2.selected[0].size(), 5u);
  EXPECT_EQ(cycle2.selected[1].size(), 5u);
}

// Table 5, size-1 and size-2 columns for every span limit row.
TEST_F(Paper3DftTest, Table5AntichainCountsSizes1And2) {
  const AntichainAnalysis analysis = enumerate_antichains(dfg, EnumerateOptions{.max_size = 5, .span_limit = std::nullopt,
                                           .collect_members = false,
                                           .max_antichains = 1'000'000});
  // Cumulative counts, rows = span limit 4..0 as printed in the paper.
  const std::uint64_t kSize1[] = {24, 24, 24, 24, 24};
  const std::uint64_t kSize2[] = {224, 222, 208, 178, 124};
  for (int limit = 4; limit >= 0; --limit) {
    EXPECT_EQ(analysis.count_with_span_at_most(1, limit), kSize1[4 - limit])
        << "size 1, span<=" << limit;
    EXPECT_EQ(analysis.count_with_span_at_most(2, limit), kSize2[4 - limit])
        << "size 2, span<=" << limit;
  }
}

// The comparable-pair structure behind Table 5's size-2 row.
TEST_F(Paper3DftTest, ComparablePairSpanHistogram) {
  const Reachability reach(dfg);
  EXPECT_EQ(reach.comparable_pair_count(), 52u);
}

// Deeper Table 5 sanity: counts must be monotone in the span limit and in
// line with the paper's qualitative shape (limiting span prunes heavily at
// larger sizes).
TEST_F(Paper3DftTest, Table5CountsMonotoneInSpanLimit) {
  const AntichainAnalysis analysis = enumerate_antichains(dfg, EnumerateOptions{.max_size = 5, .span_limit = std::nullopt,
                                           .collect_members = false,
                                           .max_antichains = 1'000'000});
  for (std::size_t size = 1; size <= 5; ++size) {
    for (int limit = 1; limit <= 4; ++limit) {
      EXPECT_LE(analysis.count_with_span_at_most(size, limit - 1),
                analysis.count_with_span_at_most(size, limit))
          << "size " << size << " limit " << limit;
    }
  }
}

}  // namespace
}  // namespace mpsched
