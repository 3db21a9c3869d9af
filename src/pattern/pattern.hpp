// Pattern — the combination of concurrent functions performed by the C
// reconfigurable ALUs in one clock cycle (paper §1, §3).
//
// A pattern is a *bag* (multiset) of at most C colors; elements beyond the
// defined ones are dummies ("undefined"). Patterns are stored canonically
// as a sorted vector of ColorIds, so equality, hashing and the subpattern
// relation are cheap and representation-independent.
//
// Paper notation mapped to this API:
//   |p̄|            → size()                (number of defined colors)
//   p̄1 ⊆ p̄2        → is_subpattern_of()    (multiset inclusion)
//   "aabcc"        → parse_pattern() in parse.hpp
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "graph/dfg.hpp"

namespace mpsched {

class Pattern {
 public:
  Pattern() = default;

  /// Builds a pattern from any order of colors; canonicalizes internally.
  explicit Pattern(std::vector<ColorId> colors);

  /// Number of defined (non-dummy) elements, the paper's |p̄|.
  std::size_t size() const noexcept { return colors_.size(); }
  bool empty() const noexcept { return colors_.empty(); }

  /// Sorted color multiset.
  const std::vector<ColorId>& colors() const noexcept { return colors_; }

  /// Number of slots of color `c` in this pattern.
  std::size_t count(ColorId c) const;

  /// Distinct colors, sorted ascending.
  std::vector<ColorId> distinct_colors() const;

  /// Multiset inclusion: every color of *this occurs at least as often in
  /// `other`. The empty pattern is a subpattern of everything.
  bool is_subpattern_of(const Pattern& other) const;

  /// Returns a copy with `c` added (keeps canonical form).
  Pattern with_color(ColorId c) const;

  /// Per-color slot counts as a dense vector of length `n_colors` (the
  /// per-cycle capacity vector of the §4 scheduler).
  std::vector<std::uint32_t> slot_counts(std::size_t n_colors) const;

  /// Compact text form using the graph's color names, e.g. "aabcc".
  /// Multi-character color names are joined with '+' (e.g. "mul+mul+add").
  std::string to_string(const Dfg& dfg) const;

  bool operator==(const Pattern&) const = default;
  /// Lexicographic on the canonical color vector (size first); gives
  /// deterministic ordering for reports and tie-breaking.
  bool operator<(const Pattern& other) const;

  std::size_t hash() const noexcept;

 private:
  std::vector<ColorId> colors_;  // sorted ascending
};

struct PatternHash {
  std::size_t operator()(const Pattern& p) const noexcept { return p.hash(); }
};

}  // namespace mpsched
