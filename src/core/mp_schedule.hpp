// Multi-pattern list scheduling (paper §4, Fig. 3).
//
// Given Pdef patterns, assign every DFG node to a clock cycle so that
// (1) dependencies hold, (2) each cycle's resource usage fits one of the
// given patterns, (3) the cycle count is minimized (heuristically).
//
// Per cycle the algorithm:
//   * sorts the candidate list CL by node priority f(n) (Eq. 4),
//   * for every pattern p computes the selected set S(p, CL): walk CL in
//     priority order, admitting a node when a slot of its color is free,
//   * scores each pattern with F1 = |S| (Eq. 6) or F2 = Σ f(n) (Eq. 7),
//   * schedules the S of the best pattern, then refreshes CL with newly
//     ready successors.
//
// Tie-breaking (nodes of equal f, patterns of equal F) is configurable;
// the default TieBreak::Stable keeps candidate insertion order (FIFO) and
// prefers the lowest pattern index, which reproduces the paper's Table 2
// trace exactly on the reconstructed 3DFT graph.
//
// Prepared scheduler. Everything the loop needs that does not depend on
// the pattern set — graph validation, the colors the graph uses, the
// levels, the node priorities f(n), the initial pending-predecessor
// counts — is derived once per (graph, options) by MpScheduler; run()
// then executes the one scheduling loop per pattern set on reused
// buffers. Search callers (the exhaustive oracle, the refinement pass)
// judge thousands of sets against one graph this way; the single-call
// multi_pattern_schedule() is "prepare, then run unbounded".
//
// Incumbent bound. run() optionally takes `bound`, the cycle count a set
// has to beat. At the top of every cycle, with `cycle` cycles spent and
// `remaining` nodes unplaced, the run stops as soon as
//   cycle + max(max height(n) over CL, ⌈remaining / max|p|⌉) ≥ bound.
// Both terms are lower bounds on the cycles still needed: a cycle places
// at most one node of any chain, and every node of the longest chain
// starting at a candidate is still unplaced; a cycle places at most
// max|p| nodes. So a run that stops could only have finished with
// cycles ≥ bound, and callers that accept only strictly fewer cycles
// lose nothing: the bound is exact for them. Every run seeds its own Rng
// from the options, so stopping one run early never shifts another.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/node_priority.hpp"
#include "pattern/pattern_set.hpp"
#include "sched/schedule.hpp"
#include "util/rng.hpp"

namespace mpsched {

/// Pattern priority rule: F1 counts covered nodes (Eq. 6), F2 sums their
/// node priorities (Eq. 7). The paper recommends F2.
enum class PatternRule { F1CoverCount, F2PrioritySum };

/// Node-level tie-breaking among equal f(n).
enum class TieBreak {
  Stable,     ///< FIFO candidate order (paper-faithful; deterministic)
  NodeIdAsc,  ///< lowest node id first
  NodeIdDesc, ///< highest node id first
  Random,     ///< seeded shuffle among ties
};

struct MpScheduleOptions {
  PatternRule rule = PatternRule::F2PrioritySum;
  TieBreak tie_break = TieBreak::Stable;
  /// Seed for TieBreak::Random and for random pattern-F tie resolution.
  std::uint64_t seed = 1;
  /// Break pattern-F ties randomly instead of lowest-index-first (the
  /// paper notes F1 ties were broken "at random"; default is deterministic).
  bool random_pattern_ties = false;
  /// Record the full per-cycle trace (Table 2 reproduction). Costs memory
  /// proportional to cycles × patterns × candidates.
  bool record_trace = false;
  /// Override node priority parameters s,t (0/0 = auto-derive).
  NodePriorityParams priority_params{};
  /// Abort guard for malformed inputs.
  std::size_t max_cycles = 1'000'000;
};

/// One cycle of the recorded trace.
struct MpTraceStep {
  int cycle = 0;  ///< 1-based, matching Table 2
  std::vector<NodeId> candidates;                  ///< CL in priority order
  std::vector<std::vector<NodeId>> selected;       ///< S(p_i, CL) per pattern
  std::vector<std::int64_t> pattern_score;         ///< F per pattern
  std::size_t chosen_pattern = 0;                  ///< index into the set
};

struct MpScheduleResult {
  bool success = false;
  std::string error;                    ///< set when !success
  Schedule schedule;
  std::size_t cycles = 0;
  std::vector<MpTraceStep> trace;       ///< only when record_trace
  NodePriorityParams priority_params;   ///< the s,t actually used

  /// Formats the trace like the paper's Table 2.
  std::string trace_table(const Dfg& dfg, const PatternSet& patterns) const;
};

/// The §4 scheduler prepared for one graph and one set of options (see
/// the file comment). The graph must outlive the scheduler. run() reuses
/// internal buffers, so one instance serves one thread at a time.
class MpScheduler {
 public:
  /// No incumbent: the run always completes.
  static constexpr std::size_t kUnbounded = SIZE_MAX;
  /// MpScheduleResult::error of a run stopped by its bound.
  static constexpr const char* kCutByBound = "cut by bound";

  /// Validates the graph (throws if cyclic) and derives the set-independent
  /// state: used colors, levels, node priorities, pending counts.
  MpScheduler(const Dfg& dfg, const MpScheduleOptions& options);

  /// Colors the graph uses, sorted ascending.
  const std::vector<ColorId>& used_colors() const noexcept { return used_colors_; }

  /// Schedules against `patterns` (index i of the result's cycle patterns
  /// and trace refers to patterns[i]). Fails (success=false) when the
  /// patterns do not cover every color the graph uses, or — with error
  /// kCutByBound — when the run provably cannot finish in fewer than
  /// `bound` cycles. A run that succeeds has cycles < bound.
  MpScheduleResult run(std::span<const Pattern* const> patterns,
                       std::size_t bound = kUnbounded);
  MpScheduleResult run(const PatternSet& patterns, std::size_t bound = kUnbounded);

 private:
  const Dfg& dfg_;
  MpScheduleOptions options_;
  std::vector<ColorId> used_colors_;
  Levels levels_;
  NodePriorities priorities_;
  std::vector<std::size_t> initial_pending_;  ///< |Pred(n)|

  // Per-run buffers, reused across run() calls.
  std::vector<std::size_t> pending_;
  std::vector<char> in_candidates_;
  std::vector<NodeId> candidates_;
  std::vector<std::uint32_t> slots_;  ///< pattern-major per-color slot counts
  std::vector<std::uint32_t> free_slots_;
  std::vector<std::vector<NodeId>> selected_;
  std::vector<std::int64_t> score_;
  std::vector<std::size_t> tied_;
};

/// Runs the scheduler once: MpScheduler(dfg, options).run(patterns).
/// Fails (success=false) when the pattern union does not cover every color
/// appearing in the graph — such inputs can never schedule completely.
MpScheduleResult multi_pattern_schedule(const Dfg& dfg, const PatternSet& patterns,
                                        const MpScheduleOptions& options = {});

}  // namespace mpsched
