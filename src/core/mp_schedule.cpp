#include "core/mp_schedule.hpp"

#include <algorithm>
#include <sstream>

#include "graph/levels.hpp"

namespace mpsched {

MpScheduler::MpScheduler(const Dfg& dfg, const MpScheduleOptions& options)
    : dfg_(dfg), options_(options) {
  dfg.validate();
  const std::size_t n_nodes = dfg.node_count();

  std::vector<bool> seen(dfg.color_count(), false);
  for (NodeId n = 0; n < n_nodes; ++n) {
    if (!seen[dfg.color(n)]) {
      seen[dfg.color(n)] = true;
      used_colors_.push_back(dfg.color(n));
    }
  }
  std::sort(used_colors_.begin(), used_colors_.end());

  levels_ = compute_levels(dfg);
  priorities_ =
      compute_node_priorities(dfg, levels_, Reachability(dfg), options.priority_params);

  initial_pending_.resize(n_nodes);
  for (NodeId n = 0; n < n_nodes; ++n) initial_pending_[n] = dfg.preds(n).size();
  pending_.resize(n_nodes);
  in_candidates_.resize(n_nodes);
  free_slots_.resize(dfg.color_count());
}

MpScheduleResult MpScheduler::run(const PatternSet& patterns, std::size_t bound) {
  std::vector<const Pattern*> members;
  members.reserve(patterns.size());
  for (const Pattern& p : patterns) members.push_back(&p);
  return run(members, bound);
}

MpScheduleResult MpScheduler::run(std::span<const Pattern* const> patterns,
                                  std::size_t bound) {
  const Dfg& dfg = dfg_;
  const std::size_t n_nodes = dfg.node_count();
  const std::size_t n_colors = dfg.color_count();
  const std::vector<std::int64_t>& f = priorities_.f;

  MpScheduleResult result;
  result.schedule = Schedule(n_nodes);
  if (n_nodes == 0) {
    result.success = true;
    return result;
  }
  MPSCHED_REQUIRE(!patterns.empty(), "pattern set must be non-empty");

  // Per-pattern slot counts (the per-cycle capacity vectors), filled once
  // per run. Coverage precondition: a color no pattern provides can never
  // be scheduled, so the main loop would stall.
  slots_.assign(patterns.size() * n_colors, 0);
  std::size_t widest = 0;
  bool out_of_range = false;
  for (std::size_t p = 0; p < patterns.size(); ++p) {
    widest = std::max(widest, patterns[p]->size());
    for (const ColorId c : patterns[p]->colors()) {
      if (c < n_colors) ++slots_[p * n_colors + c];
      else out_of_range = true;
    }
  }
  for (const ColorId c : used_colors_) {
    bool provided = false;
    for (std::size_t p = 0; p < patterns.size() && !provided; ++p)
      provided = slots_[p * n_colors + c] > 0;
    if (!provided) {
      result.error = "pattern set does not cover all colors of the graph";
      return result;
    }
  }
  MPSCHED_REQUIRE(!out_of_range, "pattern color out of range for this graph");
  result.priority_params = priorities_.params;

  Rng rng(options_.seed);

  // Candidate list: nodes whose predecessors are all scheduled. Kept in
  // insertion (discovery) order between cycles; sorted stably by f each
  // cycle so ties preserve FIFO order under TieBreak::Stable.
  std::vector<NodeId>& candidate_list = candidates_;
  candidate_list.clear();
  pending_ = initial_pending_;
  for (NodeId n = 0; n < n_nodes; ++n) {
    in_candidates_[n] = pending_[n] == 0;
    if (in_candidates_[n]) candidate_list.push_back(n);
  }
  selected_.resize(patterns.size());
  score_.resize(patterns.size());

  std::size_t scheduled_count = 0;
  int cycle = 0;

  while (scheduled_count < n_nodes) {
    MPSCHED_CHECK(static_cast<std::size_t>(cycle) < options_.max_cycles,
                  "multi-pattern scheduling exceeded max_cycles");
    MPSCHED_ASSERT(!candidate_list.empty());

    // Incumbent bound (file comment): stop once this run cannot finish in
    // fewer than `bound` cycles.
    if (bound != kUnbounded) {
      int tallest = 0;
      for (const NodeId n : candidate_list) tallest = std::max(tallest, levels_.height[n]);
      const std::size_t remaining = n_nodes - scheduled_count;
      const std::size_t needed = std::max(static_cast<std::size_t>(tallest),
                                          (remaining + widest - 1) / widest);
      if (static_cast<std::size_t>(cycle) + needed >= bound) {
        result.error = kCutByBound;
        return result;
      }
    }

    // Step 3 (Fig. 3): sort candidates by priority, high first.
    switch (options_.tie_break) {
      case TieBreak::Stable:
        break;  // keep FIFO discovery order among ties
      case TieBreak::NodeIdAsc:
        std::sort(candidate_list.begin(), candidate_list.end());
        break;
      case TieBreak::NodeIdDesc:
        std::sort(candidate_list.begin(), candidate_list.end(), std::greater<>());
        break;
      case TieBreak::Random:
        rng.shuffle(candidate_list);
        break;
    }
    std::stable_sort(candidate_list.begin(), candidate_list.end(),
                     [&f](NodeId a, NodeId b) { return f[a] > f[b]; });

    // Step 4: selected set S(p, CL) per pattern — walk the sorted
    // candidates, admitting a node while a slot of its color remains.
    // Step 5: score and pick.
    for (std::size_t p = 0; p < patterns.size(); ++p) {
      std::copy_n(slots_.begin() + static_cast<std::ptrdiff_t>(p * n_colors), n_colors,
                  free_slots_.begin());
      std::vector<NodeId>& selected = selected_[p];
      selected.clear();
      for (const NodeId n : candidate_list) {
        std::uint32_t& free_slots = free_slots_[dfg.color(n)];
        if (free_slots > 0) {
          --free_slots;
          selected.push_back(n);
          if (selected.size() == patterns[p]->size()) break;  // pattern exhausted
        }
      }
      score_[p] = 0;
      if (options_.rule == PatternRule::F1CoverCount) {
        score_[p] = static_cast<std::int64_t>(selected.size());
      } else {
        for (const NodeId n : selected) score_[p] += f[n];
      }
    }

    std::size_t best = 0;
    if (options_.random_pattern_ties) {
      tied_.assign(1, 0);
      for (std::size_t p = 1; p < patterns.size(); ++p) {
        if (score_[p] > score_[tied_.front()]) tied_.assign(1, p);
        else if (score_[p] == score_[tied_.front()]) tied_.push_back(p);
      }
      best = tied_[rng.below(tied_.size())];
    } else {
      for (std::size_t p = 1; p < patterns.size(); ++p)
        if (score_[p] > score_[best]) best = p;
    }

    if (options_.record_trace) {
      MpTraceStep step;
      step.cycle = cycle + 1;
      step.candidates = candidate_list;
      step.selected.assign(selected_.begin(), selected_.begin() +
                                                  static_cast<std::ptrdiff_t>(patterns.size()));
      step.pattern_score = score_;
      step.chosen_pattern = best;
      result.trace.push_back(std::move(step));
    }

    const std::vector<NodeId>& chosen = selected_[best];
    MPSCHED_ASSERT(!chosen.empty());  // guaranteed by color coverage

    // Place the chosen nodes, then refresh the candidate list (step 6):
    // successors are probed in scheduled order and adjacency order, so
    // discovery order — and therefore Stable tie-breaking — is
    // deterministic and matches the paper's walkthrough.
    for (const NodeId n : chosen) {
      result.schedule.place(n, cycle);
      in_candidates_[n] = 0;
      ++scheduled_count;
    }
    result.schedule.set_cycle_pattern(cycle, best);
    candidate_list.erase(std::remove_if(candidate_list.begin(), candidate_list.end(),
                                        [this](NodeId n) { return !in_candidates_[n]; }),
                         candidate_list.end());
    for (const NodeId n : chosen) {
      for (const NodeId s : dfg.succs(n)) {
        MPSCHED_ASSERT(pending_[s] > 0);
        if (--pending_[s] == 0 && !in_candidates_[s]) {
          candidate_list.push_back(s);
          in_candidates_[s] = 1;
        }
      }
    }
    ++cycle;
  }

  result.cycles = static_cast<std::size_t>(cycle);
  result.success = true;
  return result;
}

MpScheduleResult multi_pattern_schedule(const Dfg& dfg, const PatternSet& patterns,
                                        const MpScheduleOptions& options) {
  return MpScheduler(dfg, options).run(patterns);
}

std::string MpScheduleResult::trace_table(const Dfg& dfg, const PatternSet& patterns) const {
  std::ostringstream os;
  auto names = [&dfg](const std::vector<NodeId>& nodes) {
    std::vector<std::string> sorted_names;
    sorted_names.reserve(nodes.size());
    for (const NodeId n : nodes) sorted_names.push_back(dfg.node_name(n));
    std::sort(sorted_names.begin(), sorted_names.end());
    std::string out;
    for (std::size_t i = 0; i < sorted_names.size(); ++i) {
      if (i) out += ",";
      out += sorted_names[i];
    }
    return out;
  };

  os << "| cycle | candidate list |";
  for (std::size_t p = 0; p < patterns.size(); ++p)
    os << " pattern" << (p + 1) << "=\"" << patterns[p].to_string(dfg) << "\" |";
  os << " selected |\n";
  for (const MpTraceStep& step : trace) {
    os << "| " << step.cycle << " | " << names(step.candidates) << " |";
    for (const auto& sel : step.selected) os << ' ' << names(sel) << " |";
    os << ' ' << (step.chosen_pattern + 1) << " |\n";
  }
  return os.str();
}

}  // namespace mpsched
