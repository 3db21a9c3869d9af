#include "core/exhaustive.hpp"

#include "util/bitset.hpp"

namespace mpsched {

namespace {

/// All multisets of exactly `size` colors drawn from `colors`.
void enumerate_patterns(const std::vector<ColorId>& colors, std::size_t size,
                        std::size_t from, std::vector<ColorId>& current,
                        std::vector<Pattern>& out) {
  if (current.size() == size) {
    out.emplace_back(current);
    return;
  }
  for (std::size_t i = from; i < colors.size(); ++i) {
    current.push_back(colors[i]);
    enumerate_patterns(colors, size, i, current, out);
    current.pop_back();
  }
}

std::uint64_t combinations(std::uint64_t n, std::uint64_t k) {
  if (k > n) return 0;
  std::uint64_t result = 1;
  for (std::uint64_t i = 0; i < k; ++i) result = result * (n - i) / (i + 1);
  return result;
}

}  // namespace

ExhaustiveResult exhaustive_pattern_search(const Dfg& dfg, const ExhaustiveOptions& options) {
  MPSCHED_REQUIRE(options.pattern_count >= 1, "Pdef must be positive");
  MpScheduler scheduler(dfg, options.schedule);
  const std::vector<ColorId>& colors = scheduler.used_colors();
  MPSCHED_REQUIRE(!colors.empty(), "graph has no nodes");

  std::vector<Pattern> universe;
  std::vector<ColorId> scratch;
  enumerate_patterns(colors, options.capacity, 0, scratch, universe);

  const std::uint64_t total =
      combinations(universe.size(), options.pattern_count);
  MPSCHED_CHECK(total <= options.max_combinations,
                "exhaustive search would evaluate " + std::to_string(total) +
                    " pattern sets (limit " + std::to_string(options.max_combinations) + ")");

  // Color mask per universe pattern: a combination covers the graph when
  // the union of its members' masks is every used color.
  std::vector<DynamicBitset> masks(universe.size(), DynamicBitset(dfg.color_count()));
  for (std::size_t i = 0; i < universe.size(); ++i)
    for (const ColorId c : universe[i].colors()) masks[i].set(c);
  DynamicBitset all_colors(dfg.color_count());
  for (const ColorId c : colors) all_colors.set(c);

  ExhaustiveResult result;
  result.cycles = SIZE_MAX;

  // Iterate k-combinations of the universe.
  std::vector<std::size_t> idx(options.pattern_count);
  for (std::size_t i = 0; i < idx.size(); ++i) idx[i] = i;
  if (idx.size() > universe.size()) {
    MPSCHED_CHECK(false, "fewer candidate patterns than Pdef");
  }

  std::vector<const Pattern*> members(idx.size());
  DynamicBitset covered(dfg.color_count());
  while (true) {
    covered.clear();
    for (const std::size_t i : idx) covered |= masks[i];
    if (covered == all_colors) {
      for (std::size_t k = 0; k < idx.size(); ++k) members[k] = &universe[idx[k]];
      // Only a strictly shorter schedule replaces the incumbent, so runs
      // that provably cannot beat it stop early (see mp_schedule.hpp). The
      // first covering set runs unbounded: SIZE_MAX is kUnbounded.
      const MpScheduleResult r = scheduler.run(members, result.cycles);
      ++result.sets_evaluated;
      if (r.success) {
        result.cycles = r.cycles;
        result.best = PatternSet();
        for (const std::size_t i : idx) result.best.insert(universe[i]);
      }
    } else {
      ++result.sets_skipped;
    }

    // Next combination.
    std::size_t pos = idx.size();
    while (pos > 0) {
      --pos;
      if (idx[pos] != pos + universe.size() - idx.size()) {
        ++idx[pos];
        for (std::size_t j = pos + 1; j < idx.size(); ++j) idx[j] = idx[j - 1] + 1;
        break;
      }
      if (pos == 0) {
        MPSCHED_CHECK(result.cycles != SIZE_MAX,
                      "no covering pattern set exists for this Pdef");
        return result;
      }
    }
  }
}

}  // namespace mpsched
