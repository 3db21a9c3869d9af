// Content-addressed cache of per-graph analyses (batch engine, src/engine).
//
// The expensive inputs to pattern selection — transitive closure, ASAP/ALAP
// levels, and above all the antichain analysis — depend only on the graph's
// structure and the generation options, not on which Job asked. The same
// graphs recur constantly (the two paper graphs appear in a dozen
// harnesses; sweeps re-run one graph under many selection parameters), so
// the engine memoizes:
//
//   PreparedGraph  keyed by  H(canonical DFG text)
//   AntichainAnalysis  keyed by  H(canonical DFG text ‖ generation options)
//
// "Content-addressed" means the key is a hash of the graph's canonical
// structure — the per-node color-name sequence and the edge list, both in
// their semantics-bearing insertion order; graph/node display names are
// excluded — never an object identity. Two independently-built but
// structurally identical graphs share one cache line. Keys are 128-bit
// (two independent FNV-1a streams over length-delimited fields) so
// accidental collision is out of the question at any realistic corpus size.
//
// A CacheStore (engine/cache_store.hpp) given at construction is a second
// tier, fixed for the cache's lifetime: analysis lookups that miss in
// memory fall through to the cache directory, and stores write through to
// it, so analyses persist across processes. Disk-served lookups are
// published into the memory tier and count as analysis hits (the disk tier
// keeps its own counters). The memory tiers have no eviction.
//
// Thread safety: all methods are safe to call concurrently; values are
// immutable once published (shared_ptr<const T>).
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <utility>

#include "antichain/enumerate.hpp"
#include "core/select.hpp"
#include "graph/closure.hpp"
#include "graph/dfg.hpp"
#include "graph/levels.hpp"

namespace mpsched::engine {

class CacheStore;

/// 128-bit content hash.
struct CacheKey {
  std::uint64_t lo = 0;
  std::uint64_t hi = 0;

  bool operator==(const CacheKey&) const = default;
  /// Hex rendering for logs and result diagnostics.
  std::string to_string() const;
};

struct CacheKeyHash {
  std::size_t operator()(const CacheKey& k) const noexcept {
    return static_cast<std::size_t>(k.lo ^ (k.hi * 0x9e3779b97f4a7c15ULL));
  }
};

/// Levels + reachability bundle; everything downstream of the bare DFG.
struct PreparedGraph {
  Levels levels;
  Reachability reach;
};

/// Hit/miss counters (monotone; snapshot via stats()).
struct CacheStats {
  std::uint64_t graph_hits = 0;
  std::uint64_t graph_misses = 0;
  std::uint64_t analysis_hits = 0;
  std::uint64_t analysis_misses = 0;
};

class AnalysisCache {
 public:
  /// `store` (nullptr → memory only) is the disk tier for this cache's
  /// whole lifetime.
  explicit AnalysisCache(std::shared_ptr<CacheStore> store = nullptr);

  /// Content key of the graph alone.
  static CacheKey graph_key(const Dfg& dfg);

  /// Content key of (graph, generation strategy, enumeration options).
  /// Only the options that influence the analysis participate:
  /// generation mode, capacity/max_size, span limit. collect_members is
  /// always off for cached analyses (enumerate_options_for).
  /// `pipeline_tag` (engine::pipeline_cache_tag) separates differently
  /// configured pipelines over the same graph content; the empty tag feeds
  /// nothing, so default-pipeline keys are byte-identical to pre-pipeline
  /// releases and warm disk caches stay valid.
  static CacheKey analysis_key(const Dfg& dfg, PatternGeneration generation,
                               std::size_t max_size, std::optional<int> span_limit,
                               const std::string& pipeline_tag = {});

  /// Both keys from ONE canonical serialization of the graph (the
  /// serialization dominates key cost; the batch engine needs both per
  /// job). Returns {graph_key, analysis_key}.
  static std::pair<CacheKey, CacheKey> content_keys(const Dfg& dfg,
                                                    PatternGeneration generation,
                                                    std::size_t max_size,
                                                    std::optional<int> span_limit,
                                                    const std::string& pipeline_tag = {});

  /// Memoized levels+closure under the graph's content key (graph_key or
  /// content_keys().first); computes on miss.
  std::shared_ptr<const PreparedGraph> prepare_graph(const Dfg& dfg,
                                                     const CacheKey& key);

  /// Pure lookups — the engine orchestrates the (sharded) computation
  /// itself on a miss, then publishes with store_analysis(). With a disk
  /// tier, a memory miss falls through to disk before reporting one.
  std::shared_ptr<const AntichainAnalysis> find_analysis(const CacheKey& key);
  void store_analysis(const CacheKey& key, std::shared_ptr<const AntichainAnalysis> value);

  /// The disk tier; nullptr when the cache is memory-only.
  CacheStore* disk_store() const noexcept { return store_.get(); }

  CacheStats stats() const;
  /// Number of cached analyses (not graphs) held in memory.
  std::size_t analysis_count() const;

 private:
  const std::shared_ptr<CacheStore> store_;
  mutable std::mutex mutex_;
  std::unordered_map<CacheKey, std::shared_ptr<const PreparedGraph>, CacheKeyHash> graphs_;
  std::unordered_map<CacheKey, std::shared_ptr<const AntichainAnalysis>, CacheKeyHash>
      analyses_;
  CacheStats stats_;
};

}  // namespace mpsched::engine
