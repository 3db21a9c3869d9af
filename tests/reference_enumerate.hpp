// Reference antichain enumerator: the original copy-a-DynamicBitset-per-node,
// bit-at-a-time recursion, strictly sequential on the calling thread.
//
// It is the validation oracle for the library's arena enumerator
// (antichain/enumerate.hpp): the antichain tests gate byte-identity of
// enumerate_antichains() and of the sharded enumerate_antichain_roots() /
// merge_antichain_analyses() path against it, and bench_perf_scaling pins
// the arena walk's speedup over it. Never use it for real workloads.
//
// Header-only and free of gtest, so the benchmark harness can include it.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "antichain/enumerate.hpp"
#include "antichain/span.hpp"
#include "util/require.hpp"

namespace mpsched::test {

namespace reference_detail {

struct Entry {
  std::uint64_t count = 0;
  std::vector<std::uint64_t> node_frequency;
  std::vector<std::vector<NodeId>> members;
};

struct Accumulator {
  std::unordered_map<Pattern, Entry, PatternHash> per_pattern;
  std::vector<std::vector<std::uint64_t>> by_size_span;  // [size][span]
  std::uint64_t total = 0;
};

struct SearchContext {
  const Dfg& dfg;
  const Levels& levels;
  const Reachability& reach;
  const EnumerateOptions& options;
  int effective_span_limit;
  std::atomic<std::uint64_t>* global_count;
};

inline void record_reference(const SearchContext& ctx, Accumulator& acc,
                             const std::vector<NodeId>& stack, int span) {
  acc.total += 1;
  acc.by_size_span[stack.size()][static_cast<std::size_t>(span)] += 1;

  std::vector<ColorId> colors;
  colors.reserve(stack.size());
  for (const NodeId n : stack) colors.push_back(ctx.dfg.color(n));
  Pattern pattern(std::move(colors));

  auto& entry = acc.per_pattern[pattern];
  if (entry.node_frequency.empty()) entry.node_frequency.assign(ctx.dfg.node_count(), 0);
  entry.count += 1;
  for (const NodeId n : stack) entry.node_frequency[n] += 1;
  if (ctx.options.collect_members) entry.members.push_back(stack);

  const std::uint64_t seen = ctx.global_count->fetch_add(1, std::memory_order_relaxed) + 1;
  MPSCHED_CHECK(seen <= ctx.options.max_antichains,
                "antichain enumeration exceeded the max_antichains safety limit (" +
                    std::to_string(ctx.options.max_antichains) + ")");
}

inline void extend_reference(const SearchContext& ctx, Accumulator& acc,
                             std::vector<NodeId>& stack, const DynamicBitset& compat,
                             SpanTracker tracker) {
  if (stack.size() >= ctx.options.max_size) return;
  const std::size_t n = ctx.dfg.node_count();
  for (std::size_t j = compat.find_next(stack.back() + 1); j < n; j = compat.find_next(j + 1)) {
    const auto node = static_cast<NodeId>(j);
    const int new_span = tracker.span_with(node, ctx.levels);
    if (new_span > ctx.effective_span_limit) continue;
    stack.push_back(node);
    record_reference(ctx, acc, stack, new_span);
    DynamicBitset next_compat = compat;
    next_compat &= ctx.reach.parallel_mask(node);
    extend_reference(ctx, acc, stack, next_compat, tracker.with(node, ctx.levels));
    stack.pop_back();
  }
}

inline void enumerate_from_root_reference(const SearchContext& ctx, Accumulator& acc,
                                          NodeId root) {
  std::vector<NodeId> stack{root};
  SpanTracker tracker;
  tracker = tracker.with(root, ctx.levels);
  record_reference(ctx, acc, stack, 0);
  extend_reference(ctx, acc, stack, ctx.reach.parallel_mask(root), tracker);
}

}  // namespace reference_detail

/// Enumerates every antichain of `dfg` under `options`, root by root in
/// increasing id order, and emits the analysis in the library's canonical
/// form (per_pattern sorted by Pattern::operator<, members sorted when
/// collected).
inline AntichainAnalysis enumerate_antichains_reference(const Dfg& dfg, const Levels& levels,
                                                        const Reachability& reach,
                                                        const EnumerateOptions& options = {}) {
  using namespace reference_detail;
  MPSCHED_REQUIRE(options.max_size >= 1, "max_size must be at least 1");
  MPSCHED_REQUIRE(levels.asap.size() == dfg.node_count(), "levels do not belong to this graph");
  MPSCHED_REQUIRE(reach.node_count() == dfg.node_count(),
                  "reachability does not belong to this graph");
  MPSCHED_REQUIRE(!options.span_limit || *options.span_limit >= 0,
                  "span limit must be non-negative");
  const int span_cap = levels.asap_max;
  const int effective_limit =
      options.span_limit.has_value() ? std::min(*options.span_limit, span_cap) : span_cap;

  std::atomic<std::uint64_t> global_count{0};
  const SearchContext ctx{dfg, levels, reach, options, effective_limit, &global_count};
  Accumulator acc;
  acc.by_size_span.assign(options.max_size + 1,
                          std::vector<std::uint64_t>(static_cast<std::size_t>(span_cap) + 1, 0));
  for (NodeId root = 0; root < dfg.node_count(); ++root)
    enumerate_from_root_reference(ctx, acc, root);

  std::map<Pattern, Entry> ordered;
  for (auto& [pattern, entry] : acc.per_pattern) ordered[pattern] = std::move(entry);
  AntichainAnalysis out;
  out.total = acc.total;
  out.count_by_size_span = std::move(acc.by_size_span);
  for (auto& [pattern, entry] : ordered) {
    PatternAntichains pa;
    pa.pattern = pattern;
    pa.antichain_count = entry.count;
    pa.node_frequency = std::move(entry.node_frequency);
    pa.members = std::move(entry.members);
    if (options.collect_members) std::sort(pa.members.begin(), pa.members.end());
    out.per_pattern.push_back(std::move(pa));
  }
  return out;
}

}  // namespace mpsched::test
