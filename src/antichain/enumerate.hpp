// Antichain enumeration and per-pattern classification (paper §5.1).
//
// The pattern generation step of the selection algorithm:
//   1. find all antichains A of the DFG with |A| ≤ C and Span(A) ≤ limit,
//   2. classify them by their pattern (the multiset of member colors),
//   3. per pattern p̄, record the antichain count and the node frequency
//      vector h(p̄, n) = number of p̄-antichains containing node n.
//
// Implementation: depth-first extension over nodes in increasing id order.
// The running set keeps a compatibility bitset (the AND of every member's
// parallel mask), so testing whether node j can extend the antichain is a
// single bit probe, and candidate iteration enumerates set bits > max id.
// Span is monotone non-decreasing as a set grows, so the span limit prunes
// the subtree, not just the leaf. Accounting is grouped per prefix: one
// pass over the prefix's candidates charges each extension A ∪ {j} only
// what depends on j (h(p̄, j) and its span bucket), and adds what depends
// on j's color alone — the pattern lookup, the pattern's count and the
// prefix members' h — once per color present. Antichains of the full size
// C (most of them on real kernels) are thus counted, not visited. The
// pattern lookup is itself mostly one array load: a pattern that prefixes
// a second pass gets a successor row whose slot c holds the entry of
// pattern ∪ {c}, so building the key and probing the hash map happen only
// the first time a (pattern, color) pair is met. Each walk emits its
// patterns by sorting pointers to its entries.
//
// Parallelism: the search forest is partitioned by the antichain's minimum
// node id with partition_roots() — the one shard plan, shared with the
// batch engine (src/engine). enumerate_antichains() walks the shards on the
// shared thread pool and merges them with merge_antichain_analyses().
// Results are canonically sorted, so output is identical for any thread
// count. A sequential walk is enumerate_antichain_roots() over all roots.
#pragma once

#include <atomic>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "graph/closure.hpp"
#include "graph/dfg.hpp"
#include "graph/levels.hpp"
#include "pattern/pattern.hpp"

namespace mpsched {

struct EnumerateOptions {
  /// Maximum antichain size (C; 5 for the Montium).
  std::size_t max_size = 5;
  /// Span limit; nullopt = unlimited (equivalent to limit ASAPmax).
  std::optional<int> span_limit;
  /// Also store the explicit member lists per pattern (small graphs only —
  /// memory grows with the antichain count).
  bool collect_members = false;
  /// Safety valve: abort with an exception if more than this many
  /// antichains would be enumerated (guards accidental explosion).
  std::uint64_t max_antichains = 500'000'000;
};

/// Statistics for one pattern discovered in the DFG.
struct PatternAntichains {
  Pattern pattern;
  std::uint64_t antichain_count = 0;
  /// h(p̄, n) indexed by NodeId: how many antichains of this pattern
  /// contain node n (paper §5.2, Table 6).
  std::vector<std::uint64_t> node_frequency;
  /// Explicit antichains (ascending node ids), only if collect_members.
  std::vector<std::vector<NodeId>> members;
};

struct AntichainAnalysis {
  /// One entry per distinct pattern, sorted by Pattern::operator< (size
  /// first, then colors) for deterministic output.
  std::vector<PatternAntichains> per_pattern;
  /// Total antichains enumerated (all sizes 1..max_size).
  std::uint64_t total = 0;
  /// count_by_size_span[s][k] = number of antichains of size s (1-based,
  /// index 0 unused) whose exact span equals k. Powers Table 5, whose rows
  /// are cumulative over k.
  std::vector<std::vector<std::uint64_t>> count_by_size_span;

  /// Cumulative Table 5 cell: antichains of size `size` with span ≤ limit.
  std::uint64_t count_with_span_at_most(std::size_t size, int limit) const;

  /// Locates the stats for a pattern, if it occurred.
  const PatternAntichains* find(const Pattern& p) const;
};

/// Runs the enumeration: partition_roots() for ThreadPool::shared(), one
/// enumerate_antichain_roots() per shard on that pool, all shards sharing
/// one max_antichains counter, merged by merge_antichain_analyses().
/// `levels` and `reach` must belong to `dfg`.
AntichainAnalysis enumerate_antichains(const Dfg& dfg, const Levels& levels,
                                       const Reachability& reach,
                                       const EnumerateOptions& options = {});

/// Convenience overload computing levels and reachability internally.
AntichainAnalysis enumerate_antichains(const Dfg& dfg, const EnumerateOptions& options = {});

// ---------------------------------------------------------------------------
// Sharded enumeration — the batch engine's unit of work (src/engine).
//
// The search forest is a disjoint union of subtrees keyed by the
// antichain's minimum node id ("root"). enumerate_antichain_roots() walks
// only the subtrees of the given roots, sequentially, on the calling
// thread; merging the partial analyses of any partition of [0, n) with
// merge_antichain_analyses() reproduces the whole enumeration exactly.
// This lets a scheduler interleave shards of *different* graphs on one
// thread pool (the engine's flat task list) instead of being stuck with
// one graph's fan-out at a time.
// ---------------------------------------------------------------------------

/// Shards per worker (pool threads + caller): enough slack for a
/// parallel_for to balance uneven roots without much merge work.
inline constexpr std::size_t kShardsPerThread = 4;

/// The one shard plan: min(node_count, workers × kShardsPerThread) shards
/// (at least one, empty for an empty graph), cyclic — shard s takes roots
/// s, s+S, s+2S, … so the expensive low-id roots (largest search subtrees)
/// spread across shards.
std::vector<std::vector<NodeId>> partition_roots(std::size_t node_count, std::size_t workers);

/// Enumerates the subtrees rooted at each id in `roots` (all < node_count,
/// duplicates forbidden), sequentially on the calling thread, on the
/// arena walk (one preallocated mask stack, word-parallel candidate probe,
/// per-prefix grouped accounting, successor-row pattern lookups,
/// chunk-batched limit checks). The max_antichains safety valve counts
/// through `shared_count` when given, so a scheduler running many shards
/// of one analysis keeps the limit global instead of per-shard; with
/// nullptr the limit applies to this call alone.
AntichainAnalysis enumerate_antichain_roots(const Dfg& dfg, const Levels& levels,
                                            const Reachability& reach,
                                            const EnumerateOptions& options,
                                            const std::vector<NodeId>& roots,
                                            std::atomic<std::uint64_t>* shared_count = nullptr);

/// Merges root-disjoint partial analyses of the same graph + options.
/// Associative and order-insensitive: any grouping of the same shard set
/// yields a bit-identical result (a single part is returned as is).
AntichainAnalysis merge_antichain_analyses(std::vector<AntichainAnalysis> parts,
                                           std::size_t node_count);

}  // namespace mpsched
