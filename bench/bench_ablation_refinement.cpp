// Ablation E — closing the loop on selection quality (the paper's §7
// future work): greedy selection (Eq. 8) vs schedule-driven local-search
// refinement vs the exhaustive oracle (best achievable pattern set).
//
// Every per-case cell is pinned via bench::Gate: greedy/refined/oracle
// cycles and the swap/evaluation counts are all deterministic, so the
// pins are reproduction values — and they encode the harness's two
// headline claims as assertions: refined == oracle on every measured
// case, and refined <= greedy always. The oracle's evaluated/skipped set counts are
// pinned too, so stopping runs at the incumbent bound provably visits the
// same sets. A last report-only cell times the oracle over the 21
// tournament graphs (paper, dft, kernels and random groups) at C=5,
// Pdef=4, beside a pinned sum of its cycle counts.
#include <cstdio>

#include "bench_common.hpp"
#include "core/exhaustive.hpp"
#include "core/refine.hpp"
#include "core/select.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"
#include "workloads/corpus.hpp"
#include "workloads/dft.hpp"
#include "workloads/kernels.hpp"
#include "workloads/paper_graphs.hpp"

using namespace mpsched;

int main() {
  bench::banner("Ablation E — greedy selection vs refinement vs exhaustive oracle",
                "cycles; oracle = best over ALL covering pattern sets (small Pdef only)");

  struct Workload {
    const char* name;
    Dfg dfg;
  };
  std::vector<Workload> cases;
  cases.push_back({"3DFT", workloads::paper_3dft()});
  cases.push_back({"w3DFT", workloads::winograd_dft3()});
  cases.push_back({"5DFT", workloads::winograd_dft5()});
  cases.push_back({"DCT8", workloads::dct8()});
  cases.push_back({"FIR16", workloads::fir_filter(16)});

  // Pinned reproduction cells, row order = cases × Pdef {1, 2}:
  // {greedy, refined, oracle, swaps, evals, oracle sets evaluated,
  //  oracle sets skipped}.
  struct Expected {
    long long greedy, refined, oracle, swaps, evals, evaluated, skipped;
  };
  const Expected expected[] = {
      {8, 8, 8, 0, 10, 6, 15},       // 3DFT  Pdef=1
      {7, 6, 6, 1, 155, 165, 45},    // 3DFT  Pdef=2
      {5, 5, 5, 0, 8, 6, 15},        // w3DFT Pdef=1
      {5, 4, 4, 1, 73, 165, 45},     // w3DFT Pdef=2
      {14, 13, 13, 1, 14, 6, 15},    // 5DFT  Pdef=1
      {10, 10, 10, 0, 88, 165, 45},  // 5DFT  Pdef=2
      {16, 12, 12, 2, 15, 6, 15},    // DCT8  Pdef=1
      {11, 9, 9, 2, 107, 165, 45},   // DCT8  Pdef=2
      {16, 10, 10, 1, 11, 4, 2},     // FIR16 Pdef=1
      {8, 8, 8, 0, 33, 15, 0},       // FIR16 Pdef=2
  };

  bench::Gate gate("ablation_refinement");
  TextTable t({"workload", "Pdef", "greedy", "refined", "oracle", "swaps", "evals"});
  std::size_t row = 0;
  for (const auto& w : cases) {
    for (const std::size_t pdef : {1u, 2u}) {
      SelectOptions so;
      so.pattern_count = pdef;
      so.capacity = 5;
      RefineOptions ro;
      ro.candidate_pool = 64;
      const RefineResult refined = select_and_refine(w.dfg, so, ro);

      ExhaustiveOptions eo;
      eo.capacity = 5;
      eo.pattern_count = pdef;
      const ExhaustiveResult oracle = exhaustive_pattern_search(w.dfg, eo);

      const Expected& e = expected[row++];
      const std::string cell =
          std::string(w.name) + " Pdef=" + std::to_string(pdef) + " ";
      gate.check_eq(e.greedy, static_cast<long long>(refined.initial_cycles),
                    cell + "greedy cycles");
      gate.check_eq(e.refined, static_cast<long long>(refined.refined_cycles),
                    cell + "refined cycles");
      gate.check_eq(e.oracle, static_cast<long long>(oracle.cycles), cell + "oracle cycles");
      gate.check_eq(e.swaps, static_cast<long long>(refined.swaps_accepted),
                    cell + "accepted swaps");
      gate.check_eq(e.evals, static_cast<long long>(refined.evaluations),
                    cell + "scheduler evaluations");
      gate.check_eq(e.evaluated, static_cast<long long>(oracle.sets_evaluated),
                    cell + "oracle sets evaluated");
      gate.check_eq(e.skipped, static_cast<long long>(oracle.sets_skipped),
                    cell + "oracle sets skipped");
      gate.check(refined.refined_cycles == oracle.cycles,
                 cell + "refinement reaches the exhaustive optimum");
      gate.check(refined.refined_cycles <= refined.initial_cycles,
                 cell + "refinement never regresses greedy");

      t.add(w.name, pdef, refined.initial_cycles, refined.refined_cycles, oracle.cycles,
            refined.swaps_accepted, refined.evaluations);
    }
  }
  std::fputs(t.to_string().c_str(), stdout);

  std::printf("\nReading: greedy Eq. 8 is near-optimal on the DFT kernels but can leave\n"
              "several cycles on the table for reduction-heavy graphs at Pdef=1 (its\n"
              "antichain-coverage proxy overvalues wide mul patterns there); the\n"
              "schedule-driven swap pass recovers the exhaustive optimum in every\n"
              "measured case for a few dozen scheduler evaluations.\n");

  // The oracle over every tournament graph, as the `exhaustive` backend
  // runs it (C=5, Pdef=4).
  std::size_t tournament_graphs = 0;
  long long tournament_cycles = 0;
  double tournament_ms = 0.0;
  for (const char* group : {"paper", "dft", "kernels", "random"}) {
    for (const std::string& spec : workloads::corpus_group(group).specs) {
      const Dfg g = workloads::make_workload(spec);
      ExhaustiveOptions eo;
      eo.capacity = 5;
      eo.pattern_count = 4;
      const Timer timer;
      tournament_cycles += static_cast<long long>(exhaustive_pattern_search(g, eo).cycles);
      tournament_ms += timer.millis();
      ++tournament_graphs;
    }
  }
  gate.check_eq(21, static_cast<long long>(tournament_graphs), "tournament oracle graphs");
  gate.check_eq(198, tournament_cycles, "tournament oracle cycles sum");
  gate.info("tournament oracle search ms", tournament_ms);
  std::printf("\nOracle over the %zu tournament graphs (C=5, Pdef=4): %lld cycles in "
              "total, %.1f ms\n",
              tournament_graphs, tournament_cycles, tournament_ms);
  return gate.finish("ablation E — greedy/refined/oracle per-cell pins");
}
