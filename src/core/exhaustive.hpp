// Exhaustive pattern-set search — the quality oracle for the selection
// heuristic on small instances.
//
// For small color alphabets the space of candidate patterns is tiny: the
// multisets of exactly C colors over L colors number C(|L|+C−1, C) — e.g.
// 21 for |L|=3, C=5. Trying every color-covering Pdef-subset against the
// actual multi-pattern scheduler yields the best achievable cycle count
// for ANY pattern choice, which bounds how much the §5.2 heuristic (or the
// refinement pass) leaves on the table.
//
// Cost. The search visits C(21, Pdef) subsets (guarded by
// max_combinations) but keeps each visit cheap:
//  * the set-independent scheduler setup — validation, levels, node
//    priorities, buffers — is prepared once per graph (MpScheduler);
//  * coverage is a union of per-pattern color masks; a PatternSet is
//    built only for a new incumbent;
//  * each covering set runs bounded by the incumbent's cycle count, and
//    stops as soon as it provably cannot beat it (mp_schedule.hpp).
// Only strictly shorter schedules replace the incumbent, so the bound is
// exact: best, cycles and both set counters equal those of one full
// scheduler run per subset. On the 21 tournament graphs at C=5, Pdef=4
// the search takes ~17 ms in Release on one core of a Xeon server,
// against ~1.4 s with a full scheduler run per subset
// (bench_ablation_refinement reports it).
#pragma once

#include <cstdint>

#include "core/mp_schedule.hpp"
#include "pattern/pattern_set.hpp"

namespace mpsched {

struct ExhaustiveOptions {
  std::size_t capacity = 5;       ///< C — patterns are exactly this size
  std::size_t pattern_count = 2;  ///< Pdef
  /// Abort guard on the number of pattern sets to schedule.
  std::uint64_t max_combinations = 2'000'000;
  MpScheduleOptions schedule{};
};

struct ExhaustiveResult {
  PatternSet best;                 ///< a best pattern set
  std::size_t cycles = 0;          ///< its schedule length
  std::uint64_t sets_evaluated = 0;
  std::uint64_t sets_skipped = 0;  ///< non-covering subsets skipped
};

/// Finds the minimum schedule length over all covering Pdef-subsets of the
/// full pattern universe. Throws when the combination count exceeds the
/// guard.
ExhaustiveResult exhaustive_pattern_search(const Dfg& dfg,
                                           const ExhaustiveOptions& options = {});

}  // namespace mpsched
