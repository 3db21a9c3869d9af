#include "antichain/enumerate.hpp"

#include <algorithm>
#include <atomic>
#include <span>
#include <unordered_map>

#include "util/require.hpp"
#include "util/thread_pool.hpp"

namespace mpsched {

namespace {

using Word = DynamicBitset::Word;
constexpr std::size_t kWordBits = DynamicBitset::kWordBits;

/// Transparent hash/equality so the walk can probe the per-pattern map
/// with a sorted scratch color span — no Pattern (and no heap allocation)
/// is constructed unless a pattern occurs for the first time. The span
/// hash MUST mirror Pattern::hash() (FNV-1a over the canonical colors).
struct PatternKeyHash {
  using is_transparent = void;
  std::size_t operator()(const Pattern& p) const noexcept { return p.hash(); }
  std::size_t operator()(std::span<const ColorId> colors) const noexcept {
    std::size_t h = 1469598103934665603ULL;
    for (const ColorId c : colors) {
      h ^= static_cast<std::size_t>(c) + 1;
      h *= 1099511628211ULL;
    }
    return h;
  }
};

struct PatternKeyEq {
  using is_transparent = void;
  bool operator()(const Pattern& a, const Pattern& b) const noexcept { return a == b; }
  bool operator()(std::span<const ColorId> s, const Pattern& p) const noexcept {
    return std::equal(s.begin(), s.end(), p.colors().begin(), p.colors().end());
  }
  bool operator()(const Pattern& p, std::span<const ColorId> s) const noexcept {
    return (*this)(s, p);
  }
};

/// One walk's accumulator; emitted in canonical order by emit_per_pattern().
struct Accumulator {
  /// Entry::successors before a Walker has given the entry a row.
  static constexpr std::size_t kNeverExtended = SIZE_MAX;
  static constexpr std::size_t kExtendedOnce = SIZE_MAX - 1;

  struct Entry {
    std::uint64_t count = 0;
    std::vector<std::uint64_t> node_frequency;
    std::vector<std::vector<NodeId>> members;
    /// This entry's key in per_pattern (map keys never move).
    const Pattern* pattern = nullptr;
    /// Offset of this pattern's successor row in the Walker's arena, or
    /// kNeverExtended / kExtendedOnce while no row is allocated.
    std::size_t successors = kNeverExtended;
  };
  std::unordered_map<Pattern, Entry, PatternKeyHash, PatternKeyEq> per_pattern;
  std::vector<std::vector<std::uint64_t>> by_size_span;  // [size][span]
  std::uint64_t total = 0;

  Accumulator(std::size_t max_size, std::size_t max_span) {
    by_size_span.assign(max_size + 1, std::vector<std::uint64_t>(max_span + 1, 0));
  }
};

struct SearchContext {
  const Dfg& dfg;
  const Levels& levels;
  const Reachability& reach;
  const EnumerateOptions& options;
  int effective_span_limit;
  std::atomic<std::uint64_t>* global_count;
};

/// Chunked accounting against the shared max_antichains counter: each
/// walk batches at least kChunk recorded antichains locally and publishes
/// them with one fetch_add, so the hot path touches the shared cache line
/// once per chunk instead of once per antichain. note(n) charges n at once
/// (every antichain one Walker::extend() pass recorded). The limit stays
/// exact in the threshold sense: partial sums only ever reach the true
/// total, so a flush observes a count above the limit iff the enumeration
/// really produced more than max_antichains — the same workloads trip it,
/// the same workloads pass (Walker::finish() guarantees the last pending
/// batch is always published).
class CountBudget {
 public:
  static constexpr std::uint64_t kChunk = 1024;

  CountBudget(std::atomic<std::uint64_t>* global, std::uint64_t limit)
      : global_(global), limit_(limit) {}

  void note(std::uint64_t n = 1) {
    pending_ += n;
    if (pending_ >= kChunk) flush();
  }

  void flush() {
    if (pending_ == 0) return;
    const std::uint64_t seen =
        global_->fetch_add(pending_, std::memory_order_relaxed) + pending_;
    pending_ = 0;
    MPSCHED_CHECK(seen <= limit_,
                  "antichain enumeration exceeded the max_antichains safety limit (" +
                      std::to_string(limit_) + ")");
  }

 private:
  std::atomic<std::uint64_t>* global_;
  std::uint64_t limit_;
  std::uint64_t pending_ = 0;
};

/// One shard's depth-first walk over the subtrees of its roots, on
/// arena-style scratch: a preallocated max_depth × word_count mask stack
/// replaces the per-node `DynamicBitset next_compat = compat` heap copy,
/// the candidate probe is a fused word-parallel AND+countr_zero loop over
/// raw words, and the shared safety counter is batched through
/// CountBudget.
///
/// Accounting is grouped per prefix: extend() visits all one-node
/// extensions of the current antichain in one pass and charges each of
/// them only what depends on the new node (its h entry, its span bucket).
/// Everything that depends on the new node's color alone (the pattern
/// lookup, the pattern count, the prefix members' h) is added once per
/// color present. At the deepest level (size max_size, where most
/// antichains live) that makes each antichain a handful of increments.
///
/// The pattern lookup itself is mostly one array load: an entry that
/// prefixes a second extend() pass gets a successor row in `successors_`,
/// whose slot c caches the entry of pattern ∪ {c}. Only the first sighting
/// of a (pattern, color) pair builds the key and probes the hash map, and
/// a pattern that prefixes a single pass (most of them on many-color
/// graphs) never pays for a row. The walk itself allocates nothing but
/// those rows, the entry of each new pattern, and the explicit member
/// lists when collect_members is on.
class Walker {
 public:
  Walker(const SearchContext& ctx, Accumulator& acc)
      : ctx_(ctx),
        acc_(acc),
        budget_(ctx.global_count, ctx.options.max_antichains),
        word_count_(ctx.dfg.node_count() == 0
                        ? 0
                        : (ctx.dfg.node_count() + kWordBits - 1) / kWordBits),
        // An antichain can never exceed node_count members, so the scratch
        // depth is bounded by min(max_size, n) no matter how large the
        // configured max_size is.
        max_depth_(std::min<std::size_t>(ctx.options.max_size, ctx.dfg.node_count())),
        color_count_(ctx.dfg.color_count()) {
    masks_.assign(max_depth_ * word_count_, 0);
    stack_.reserve(max_depth_);
    colors_.resize(max_depth_);
    groups_.resize(max_depth_ * color_count_);
    opened_.resize(max_depth_ * color_count_);
    // Hot-path caches: the color table snapshot skips dfg.color()'s
    // always-on bounds assert per member per antichain, and the span-row
    // pointers skip two vector indexings per antichain (the Accumulator
    // preallocates by_size_span once; rows never move).
    color_of_.resize(ctx.dfg.node_count());
    pm_of_.resize(ctx.dfg.node_count());
    for (NodeId n = 0; n < ctx.dfg.node_count(); ++n) {
      color_of_[n] = ctx.dfg.color(n);
      pm_of_[n] = ctx.reach.parallel_mask(n).words();
    }
    span_rows_.resize(acc_.by_size_span.size());
    for (std::size_t s = 0; s < acc_.by_size_span.size(); ++s)
      span_rows_[s] = acc_.by_size_span[s].data();
  }

  /// Enumerates every antichain whose minimum node id is `root`.
  void run_root(NodeId root) {
    stack_.clear();
    stack_.push_back(root);
    // Size-1 antichains always have span U(asap - alap) = 0 (asap ≤ alap).
    const ColorId color = color_of_[root];
    Accumulator::Entry& entry = entry_for(std::span<const ColorId>(&color, 1));
    entry.count += 1;
    entry.node_frequency[root] += 1;
    if (ctx_.options.collect_members) entry.members.push_back(stack_);
    span_rows_[1][0] += 1;
    acc_.total += 1;
    budget_.note();
    extend(entry, pm_of_[root], ctx_.levels.asap[root], ctx_.levels.alap[root]);
  }

  /// Publishes the last pending chunk (and trips the limit check if the
  /// total crossed it). Must be called once after the shard's last root.
  void finish() { budget_.flush(); }

 private:
  /// Per (depth, color) state of one extend() pass: how many extensions
  /// of that color it kept, and the entry of pattern prefix ∪ {color}
  /// with its h row (null until the pass meets the color).
  struct ColorGroup {
    std::uint64_t count = 0;
    Accumulator::Entry* entry = nullptr;
    std::uint64_t* freq = nullptr;
  };

  /// Depth-first extension of the antichain `stack_`, whose pattern's
  /// entry is `prefix`. `compat` is the AND of parallel masks of all
  /// members (word_count_ words, tail bits zero); only ids greater than
  /// the last member are probed, so each antichain is produced exactly
  /// once (as its sorted id sequence). `max_asap`/`min_alap` carry the
  /// members' span state (SpanTracker's fields, inlined: the span of the
  /// set plus candidate `j` is max(max_asap, asap[j]) - min(min_alap,
  /// alap[j]) clamped at 0, monotone in membership — so a span overrun
  /// prunes the whole subtree). Each kept extension is recorded here,
  /// grouped by color, and recursed into unless it already has max_size
  /// members.
  void extend(Accumulator::Entry& prefix, const Word* compat, int max_asap, int min_alap) {
    const std::size_t depth = stack_.size();
    if (depth >= ctx_.options.max_size) return;
    const std::size_t from = stack_.back() + 1;
    std::size_t wi = from / kWordBits;
    if (wi >= word_count_) return;
    if (prefix.successors == Accumulator::kNeverExtended) {
      prefix.successors = Accumulator::kExtendedOnce;
    } else if (prefix.successors == Accumulator::kExtendedOnce) {
      prefix.successors = successors_.size();
      successors_.resize(successors_.size() + color_count_, nullptr);
    }
    const int* asap = ctx_.levels.asap.data();
    const int* alap = ctx_.levels.alap.data();
    const int limit = ctx_.effective_span_limit;
    const bool collect = ctx_.options.collect_members;
    const bool deepest = depth + 1 == ctx_.options.max_size;
    std::uint64_t* span_row = span_rows_[depth + 1];
    ColorGroup* groups = groups_.data() + (depth - 1) * color_count_;
    ColorId* opened = opened_.data() + (depth - 1) * color_count_;
    std::size_t opened_count = 0;

    std::uint64_t kept = 0;
    Word w = compat[wi] & (~Word{0} << (from % kWordBits));
    while (true) {
      while (w != 0) {
        const auto node =
            static_cast<NodeId>(wi * kWordBits +
                                static_cast<std::size_t>(std::countr_zero(w)));
        w &= w - 1;
        const int ma = max_asap > asap[node] ? max_asap : asap[node];
        const int mi = min_alap < alap[node] ? min_alap : alap[node];
        const int span = ma - mi > 0 ? ma - mi : 0;
        if (span > limit) continue;  // span is monotone: subtree pruned
        const ColorId c = color_of_[node];
        ColorGroup& group = groups[c];
        if (group.freq == nullptr) {
          open_group(group, prefix, c);
          opened[opened_count++] = c;
        }
        group.count += 1;
        group.freq[node] += 1;
        span_row[span] += 1;
        ++kept;
        if (!collect && deepest) continue;
        stack_.push_back(node);
        if (collect) group.entry->members.push_back(stack_);
        if (!deepest) {
          // Word-wise AND into the next depth's arena slot. Words below wi
          // are never read deeper in this subtree (every candidate there
          // has id > node ≥ wi·64), so the suffix suffices.
          Word* next = masks_.data() + depth * word_count_;
          const Word* pm = pm_of_[node];
          for (std::size_t k = wi; k < word_count_; ++k) next[k] = compat[k] & pm[k];
          extend(*group.entry, next, ma, mi);
        }
        stack_.pop_back();
      }
      if (++wi >= word_count_) break;
      w = compat[wi];
    }

    for (std::size_t i = 0; i < opened_count; ++i) {
      ColorGroup& group = groups[opened[i]];
      group.entry->count += group.count;
      for (std::size_t m = 0; m < depth; ++m) group.freq[stack_[m]] += group.count;
      group = ColorGroup{};
    }
    acc_.total += kept;
    budget_.note(kept);
  }

  /// First kept extension of color `c` in a pass: finds the entry of
  /// `prefix`'s pattern ∪ {c} once for the whole pass — from the prefix's
  /// successor row when it has one, else (and then cached in the row) by
  /// building the sorted key and probing the map. The row is indexed
  /// afresh here, never held: deeper passes grow `successors_`.
  void open_group(ColorGroup& group, Accumulator::Entry& prefix, ColorId c) {
    const bool has_row = prefix.successors < Accumulator::kExtendedOnce;
    Accumulator::Entry* entry = has_row ? successors_[prefix.successors + c] : nullptr;
    if (entry == nullptr) {
      const std::vector<ColorId>& base = prefix.pattern->colors();
      const std::size_t at =
          static_cast<std::size_t>(std::upper_bound(base.begin(), base.end(), c) - base.begin());
      ColorId* colors = colors_.data();
      std::copy(base.begin(), base.begin() + at, colors);
      colors[at] = c;
      std::copy(base.begin() + at, base.end(), colors + at + 1);
      entry = &entry_for(std::span<const ColorId>(colors, base.size() + 1));
      if (has_row) successors_[prefix.successors + c] = entry;
    }
    group.entry = entry;
    group.freq = entry->node_frequency.data();
  }

  /// The accumulator entry for sorted `colors`, created (with its
  /// node_frequency row) the first time the pattern occurs. Entries never
  /// move: unordered_map references survive rehash, and nothing erases.
  Accumulator::Entry& entry_for(std::span<const ColorId> colors) {
    auto it = acc_.per_pattern.find(colors);
    if (it == acc_.per_pattern.end()) {
      it = acc_.per_pattern
               .emplace(Pattern(std::vector<ColorId>(colors.begin(), colors.end())),
                        Accumulator::Entry{})
               .first;
      it->second.node_frequency.assign(ctx_.dfg.node_count(), 0);
      it->second.pattern = &it->first;
    }
    return it->second;
  }

  const SearchContext& ctx_;
  Accumulator& acc_;
  CountBudget budget_;
  std::size_t word_count_;
  std::size_t max_depth_;
  std::size_t color_count_;
  std::vector<Word> masks_;  // depth-major arena: one compat mask per depth
  std::vector<NodeId> stack_;
  std::vector<ColorId> colors_;  // open_group() scratch pattern
  // Successor rows, color_count_ slots each, appended as entries earn
  // them (Entry::successors is the offset; a null slot is unseen yet).
  std::vector<Accumulator::Entry*> successors_;
  // Depth-major extend() scratch, one slot per prefix size: a ColorGroup
  // per color (sized by the graph's color count), and the colors the pass
  // has opened.
  std::vector<ColorGroup> groups_;
  std::vector<ColorId> opened_;
  std::vector<ColorId> color_of_;            // dfg color table snapshot
  std::vector<const Word*> pm_of_;           // parallel-mask word pointers
  std::vector<std::uint64_t*> span_rows_;    // by_size_span row pointers
};

/// Precondition checks for a walk; returns the span limit clamped to
/// ASAPmax (spans can never exceed it).
int validate_and_clamp_span(const Dfg& dfg, const Levels& levels,
                            const Reachability& reach, const EnumerateOptions& options) {
  MPSCHED_REQUIRE(options.max_size >= 1, "max_size must be at least 1");
  MPSCHED_REQUIRE(levels.asap.size() == dfg.node_count(),
                  "levels do not belong to this graph");
  MPSCHED_REQUIRE(reach.node_count() == dfg.node_count(),
                  "reachability does not belong to this graph");
  MPSCHED_REQUIRE(!options.span_limit || *options.span_limit >= 0,
                  "span limit must be non-negative");
  const int span_cap = levels.asap_max;
  return options.span_limit.has_value() ? std::min(*options.span_limit, span_cap)
                                        : span_cap;
}

/// One walk's accumulator → the canonical sorted per_pattern vector. Rows
/// and member lists move; only the pattern key is copied. Must keep
/// merge_antichain_analyses()'s order (Pattern::operator<) and its member
/// rule (each pattern's member list sorted whenever members are collected).
std::vector<PatternAntichains> emit_per_pattern(Accumulator& acc, bool sort_members) {
  std::vector<Accumulator::Entry*> order;
  order.reserve(acc.per_pattern.size());
  for (auto& kv : acc.per_pattern) order.push_back(&kv.second);
  std::sort(order.begin(), order.end(), [](const Accumulator::Entry* a,
                                           const Accumulator::Entry* b) {
    return *a->pattern < *b->pattern;
  });
  std::vector<PatternAntichains> out;
  out.reserve(order.size());
  for (Accumulator::Entry* entry : order) {
    PatternAntichains pa;
    pa.pattern = *entry->pattern;
    pa.antichain_count = entry->count;
    pa.node_frequency = std::move(entry->node_frequency);
    pa.members = std::move(entry->members);
    if (sort_members) std::sort(pa.members.begin(), pa.members.end());
    out.push_back(std::move(pa));
  }
  return out;
}

}  // namespace

std::uint64_t AntichainAnalysis::count_with_span_at_most(std::size_t size, int limit) const {
  if (size >= count_by_size_span.size()) return 0;
  std::uint64_t total_count = 0;
  const auto& row = count_by_size_span[size];
  for (std::size_t k = 0; k < row.size(); ++k)
    if (static_cast<int>(k) <= limit) total_count += row[k];
  return total_count;
}

const PatternAntichains* AntichainAnalysis::find(const Pattern& p) const {
  // Both emitters, emit_per_pattern() for one walk and
  // merge_antichain_analyses() for sharded walks, sort per_pattern by
  // Pattern::operator<, so lookup is a binary search.
  const auto it = std::lower_bound(
      per_pattern.begin(), per_pattern.end(), p,
      [](const PatternAntichains& entry, const Pattern& key) { return entry.pattern < key; });
  if (it != per_pattern.end() && it->pattern == p) return &*it;
  return nullptr;
}

std::vector<std::vector<NodeId>> partition_roots(std::size_t node_count, std::size_t workers) {
  const std::size_t shards = std::clamp<std::size_t>(workers * kShardsPerThread, 1,
                                                     std::max<std::size_t>(node_count, 1));
  std::vector<std::vector<NodeId>> roots(shards);
  for (std::size_t r = 0; r < node_count; ++r) roots[r % shards].push_back(static_cast<NodeId>(r));
  return roots;
}

AntichainAnalysis enumerate_antichains(const Dfg& dfg, const Levels& levels,
                                       const Reachability& reach,
                                       const EnumerateOptions& options) {
  ThreadPool& pool = ThreadPool::shared();
  const std::vector<std::vector<NodeId>> roots =
      partition_roots(dfg.node_count(), pool.thread_count() + 1);  // pool + caller
  std::atomic<std::uint64_t> enumerated{0};
  std::vector<AntichainAnalysis> shards(roots.size());
  pool.parallel_for(roots.size(), [&](std::size_t s) {
    shards[s] = enumerate_antichain_roots(dfg, levels, reach, options, roots[s], &enumerated);
  });
  return merge_antichain_analyses(std::move(shards), dfg.node_count());
}

AntichainAnalysis enumerate_antichain_roots(const Dfg& dfg, const Levels& levels,
                                            const Reachability& reach,
                                            const EnumerateOptions& options,
                                            const std::vector<NodeId>& roots,
                                            std::atomic<std::uint64_t>* shared_count) {
  const int effective_limit = validate_and_clamp_span(dfg, levels, reach, options);

  std::atomic<std::uint64_t> local_count{0};
  SearchContext ctx{dfg, levels, reach, options, effective_limit,
                    shared_count != nullptr ? shared_count : &local_count};

  Accumulator acc(options.max_size, static_cast<std::size_t>(levels.asap_max));
  std::vector<bool> seen(dfg.node_count(), false);
  Walker walker(ctx, acc);
  for (const NodeId root : roots) {
    MPSCHED_REQUIRE(root < dfg.node_count(), "shard root out of range");
    MPSCHED_REQUIRE(!seen[root], "duplicate shard root would double-count");
    seen[root] = true;
    walker.run_root(root);
  }
  walker.finish();

  AntichainAnalysis out;
  out.total = acc.total;
  out.count_by_size_span = std::move(acc.by_size_span);
  out.per_pattern = emit_per_pattern(acc, options.collect_members);
  return out;
}

AntichainAnalysis merge_antichain_analyses(std::vector<AntichainAnalysis> parts,
                                           std::size_t node_count) {
  if (parts.size() == 1) return std::move(parts.front());
  AntichainAnalysis out;
  // Dimensions are uniform across shards of one graph + options; take the
  // maximum so merging an empty shard list still yields an empty analysis.
  std::size_t sizes = 0, spans = 0;
  for (const AntichainAnalysis& part : parts) {
    sizes = std::max(sizes, part.count_by_size_span.size());
    for (const auto& row : part.count_by_size_span) spans = std::max(spans, row.size());
  }
  out.count_by_size_span.assign(sizes, std::vector<std::uint64_t>(spans, 0));

  // Sorting the pooled records by pattern lines up every pattern's
  // partial records, and each run folds into its first record. Sums
  // commute, and the member lists are sorted at the end, so the order
  // inside a run never shows in the output. Must keep emit_per_pattern()'s
  // order (Pattern::operator<) and its member rule (sorted when collected).
  std::vector<PatternAntichains*> records;
  bool any_members = false;
  for (AntichainAnalysis& part : parts) {
    out.total += part.total;
    for (std::size_t s = 0; s < part.count_by_size_span.size(); ++s)
      for (std::size_t k = 0; k < part.count_by_size_span[s].size(); ++k)
        out.count_by_size_span[s][k] += part.count_by_size_span[s][k];
    for (PatternAntichains& pa : part.per_pattern) {
      MPSCHED_REQUIRE(pa.node_frequency.size() == node_count,
                      "node_frequency does not match node_count");
      if (!pa.members.empty()) any_members = true;
      records.push_back(&pa);
    }
  }
  std::sort(records.begin(), records.end(), [](const PatternAntichains* a,
                                               const PatternAntichains* b) {
    return a->pattern < b->pattern;
  });
  // Exact capacity: the merged analysis may live on in a cache.
  std::size_t distinct = 0;
  for (std::size_t i = 0; i < records.size(); ++i)
    if (i == 0 || !(records[i - 1]->pattern == records[i]->pattern)) ++distinct;
  out.per_pattern.reserve(distinct);
  for (std::size_t i = 0; i < records.size();) {
    PatternAntichains merged = std::move(*records[i]);
    for (++i; i < records.size() && records[i]->pattern == merged.pattern; ++i) {
      PatternAntichains& pa = *records[i];
      merged.antichain_count += pa.antichain_count;
      for (std::size_t n = 0; n < node_count; ++n)
        merged.node_frequency[n] += pa.node_frequency[n];
      for (auto& m : pa.members) merged.members.push_back(std::move(m));
    }
    if (any_members) std::sort(merged.members.begin(), merged.members.end());
    out.per_pattern.push_back(std::move(merged));
  }
  return out;
}

AntichainAnalysis enumerate_antichains(const Dfg& dfg, const EnumerateOptions& options) {
  const Levels levels = compute_levels(dfg);
  const Reachability reach(dfg);
  return enumerate_antichains(dfg, levels, reach, options);
}

}  // namespace mpsched
