#include "core/candidate_trie.hpp"

#include <algorithm>
#include <exception>
#include <optional>
#include <stdexcept>

#include "gpusim/host_pool.hpp"
#include "obs/obs.hpp"

namespace gpapriori {

namespace {

/// Below these shape-deterministic thresholds a phase stays serial: pool
/// dispatch costs a few microseconds, which tiny levels cannot amortize.
/// Deterministic in the trie shape only, never in the host machine.
constexpr std::uint64_t kMinParallelJoinPairs = 2048;
constexpr std::size_t kMinParallelMarkCandidates = 16384;
constexpr std::size_t kMinParallelFlattenWords = 65536;

/// Splits `total` weighted items into `nshards` contiguous ranges with
/// near-equal cumulative weight. boundaries[s] = first group of shard s.
std::vector<std::size_t> weighted_boundaries(
    const std::vector<std::uint64_t>& cumulative, std::uint64_t total,
    std::uint32_t nshards) {
  std::vector<std::size_t> b(nshards + 1, cumulative.size());
  b[0] = 0;
  for (std::uint32_t s = 1; s < nshards; ++s) {
    const std::uint64_t target = total * s / nshards;
    b[s] = static_cast<std::size_t>(
        std::upper_bound(cumulative.begin(), cumulative.end(), target) -
        cumulative.begin());
  }
  b[nshards] = cumulative.size();
  for (std::uint32_t s = 1; s <= nshards; ++s) b[s] = std::max(b[s], b[s - 1]);
  return b;
}

}  // namespace

CandidateTrie::CandidateTrie(std::size_t num_frequent_items)
    : num_roots_(num_frequent_items) {
  nodes_.reserve(num_frequent_items);
  Level level1;
  level1.node_ids.reserve(num_frequent_items);
  level1.paths.reserve(num_frequent_items);
  for (std::size_t i = 0; i < num_frequent_items; ++i) {
    Node n;
    n.item = static_cast<fim::Item>(i);
    n.pos = static_cast<std::uint32_t>(i);
    n.frequent = true;
    level1.node_ids.push_back(static_cast<std::uint32_t>(nodes_.size()));
    level1.paths.push_back(static_cast<std::uint32_t>(i));
    nodes_.push_back(n);
  }
  levels_.push_back(std::move(level1));
}

std::size_t CandidateTrie::extend() {
  const std::size_t k = depth();  // candidates will have size k+1
  // Spans the group scan and the sharded join, waits for shards included.
  std::optional<obs::ScopedSpan> join_span(
      std::in_place, obs::SpanKind::kCandidateGen, "candgen-join");

  // Parent equivalence classes as contiguous node-id ranges of level k:
  // all roots for k == 1, else each level-(k-1) survivor's child range.
  // Ranges may contain infrequent nodes — the join filters on the flag.
  struct Group {
    std::uint32_t lo, hi;
  };
  std::vector<Group> groups;
  std::vector<std::uint64_t> cum_pairs;  // cumulative join-pair counts
  std::uint64_t total_pairs = 0;
  auto add_group = [&](std::uint32_t lo, std::uint32_t hi) {
    std::uint64_t m = 0;
    for (std::uint32_t id = lo; id < hi; ++id)
      if (nodes_[id].frequent) ++m;
    if (m < 2) return;  // no joinable pair
    groups.push_back({lo, hi});
    total_pairs += m * (m - 1) / 2;
    cum_pairs.push_back(total_pairs);
  };
  if (k == 1) {
    add_group(0, static_cast<std::uint32_t>(num_roots_));
  } else {
    for (std::uint32_t id : levels_[k - 2].node_ids) {
      const Node& nd = nodes_[id];
      if (nd.child_begin != nd.child_end)
        add_group(nd.child_begin, nd.child_end);
    }
  }

  // Shape-deterministic shard count; shard boundaries are contiguous group
  // ranges balanced by join-pair count. The stitch below restores exact
  // serial order, so the count only affects wall clock, never the result.
  std::uint32_t nshards = 1;
  if (workers_ > 1 && groups.size() >= 2 &&
      total_pairs >= kMinParallelJoinPairs)
    nshards = static_cast<std::uint32_t>(
        std::min<std::size_t>(workers_, groups.size()));
  last_extend_shards_ = nshards;

  const auto bounds = weighted_boundaries(cum_pairs, total_pairs, nshards);

  struct ShardOut {
    std::vector<std::uint32_t> parents;  ///< vi node id per candidate
    std::vector<std::uint32_t> paths;    ///< k+1 row ids per candidate
    std::exception_ptr error;
  };
  std::vector<ShardOut> shards(nshards);

  const Level& cur = levels_[k - 1];
  const auto work = [&](std::uint32_t s) {
    ShardOut& out = shards[s];
    try {
      obs::ScopedSpan span(obs::SpanKind::kCandidateGen, "candgen-shard");
      // Scratch hoisted per worker: the candidate path (k+1 items) and the
      // subset buffer of the Apriori prune (k items).
      std::vector<fim::Item> items(k + 1);
      std::vector<fim::Item> sub(k);
      for (std::size_t g = bounds[s]; g < bounds[s + 1]; ++g) {
        for (std::uint32_t vi = groups[g].lo; vi < groups[g].hi; ++vi) {
          if (!nodes_[vi].frequent) continue;
          // Path to vi: cached level-k row of the survivor (built once per
          // vi, not re-walked per sibling pair).
          const std::uint32_t* vip = cur.paths.data() + nodes_[vi].pos * k;
          std::copy(vip, vip + k, items.begin());

          for (std::uint32_t vj = vi + 1; vj < groups[g].hi; ++vj) {
            if (!nodes_[vj].frequent) continue;
            items[k] = nodes_[vj].item;

            // Apriori prune: every k-subset must be frequent. Dropping the
            // last or second-to-last item yields the two join parents
            // (frequent by construction); check the remaining k-1 subsets.
            bool ok = true;
            for (std::size_t drop = 0; ok && drop + 2 < k + 1; ++drop) {
              std::size_t q = 0;
              for (std::size_t p = 0; p < k + 1; ++p)
                if (p != drop) sub[q++] = items[p];
              ok = is_frequent(sub);
            }
            if (!ok) continue;

            out.parents.push_back(vi);
            out.paths.insert(out.paths.end(), items.begin(), items.end());
          }
        }
      }
      if (span.active()) {
        span.add_arg("shard", static_cast<double>(s));
        span.add_arg("groups", static_cast<double>(bounds[s + 1] - bounds[s]));
        span.add_arg("candidates", static_cast<double>(out.parents.size()));
      }
    } catch (...) {
      out.error = std::current_exception();
    }
  };
  gpusim::HostPool::instance().run(nshards, work);

  // Fail deterministically: the lowest shard's error wins, matching what
  // strictly sequential generation would have thrown first.
  for (const ShardOut& sh : shards)
    if (sh.error) std::rethrow_exception(sh.error);
  join_span.reset();

  // Serial stitch in shard (= group) order: byte-identical node ids, child
  // order, and level order to the serial join for any shard count. Each
  // parent's children arrive in one consecutive burst (one group, one
  // shard), so child ranges stay contiguous. The span closes after the
  // shard buffers are freed.
  obs::ScopedSpan stitch_span(obs::SpanKind::kCandidateGen, "candgen-stitch");
  std::size_t created = 0;
  for (const ShardOut& sh : shards) created += sh.parents.size();
  // Grow the arena geometrically from what this level needs. An exact-size
  // reserve would reallocate and copy every node at every level; doubling
  // from the old capacity instead walks up through a chain of buffers that
  // stay in the heap and raise peak RSS.
  const std::size_t need = nodes_.size() + created;
  if (need > nodes_.capacity()) nodes_.reserve(need + need / 2);
  Level lvl;
  lvl.node_ids.reserve(created);
  lvl.paths.reserve(created * (k + 1));
  for (const ShardOut& sh : shards) {
    for (std::size_t c = 0; c < sh.parents.size(); ++c) {
      const std::uint32_t parent = sh.parents[c];
      const auto id = static_cast<std::uint32_t>(nodes_.size());
      Node child;
      child.item = sh.paths[c * (k + 1) + k];
      child.parent = parent;
      child.pos = static_cast<std::uint32_t>(lvl.node_ids.size());
      nodes_.push_back(child);
      Node& pn = nodes_[parent];
      if (pn.child_begin == pn.child_end) pn.child_begin = id;
      pn.child_end = id + 1;
      lvl.node_ids.push_back(id);
    }
    lvl.paths.insert(lvl.paths.end(), sh.paths.begin(), sh.paths.end());
  }
  levels_.push_back(std::move(lvl));
  shards.clear();

  auto& metrics = obs::MetricsRegistry::global();
  if (metrics.enabled())
    metrics.add(obs::Counter::kCandgenShards, nshards);
  return created;
}

bool CandidateTrie::append_level(std::vector<std::uint32_t> paths) {
  const std::size_t k = depth() + 1;
  const std::size_t n = paths.size() / k;
  const Level& prev = levels_.back();
  const std::size_t m = prev.node_ids.size();

  // Both levels are in lexicographic order, so each path's (k-1)-prefix
  // lies at or after the previous path's: one forward walk finds them all.
  std::vector<std::uint32_t> parents(n);
  std::size_t p = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint32_t* row = paths.data() + i * k;
    const auto prefix = [&](std::size_t j) {
      return prev.paths.data() + j * (k - 1);
    };
    while (p < m && std::lexicographical_compare(prefix(p), prefix(p) + k - 1,
                                                 row, row + k - 1))
      ++p;
    if (p == m || !std::equal(row, row + k - 1, prefix(p))) return false;
    parents[i] = prev.node_ids[p];
  }

  const std::size_t need = nodes_.size() + n;
  if (need > nodes_.capacity()) nodes_.reserve(need + need / 2);
  Level lvl;
  lvl.node_ids.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const auto id = static_cast<std::uint32_t>(nodes_.size());
    Node child;
    child.item = paths[i * k + k - 1];
    child.parent = parents[i];
    child.pos = static_cast<std::uint32_t>(i);
    child.frequent = true;
    nodes_.push_back(child);
    Node& pn = nodes_[parents[i]];
    if (pn.child_begin == pn.child_end) pn.child_begin = id;
    pn.child_end = id + 1;
    lvl.node_ids.push_back(id);
  }
  lvl.paths = std::move(paths);
  levels_.push_back(std::move(lvl));
  return true;
}

std::vector<std::uint32_t> CandidateTrie::flatten_level(
    std::size_t level) const {
  return levels_[level - 1].paths;  // one block copy of the cached arena
}

std::uint32_t CandidateTrie::GroupedLevel::max_group_size() const {
  std::uint32_t mx = 0;
  for (std::size_t g = 0; g + 1 < group_offsets.size(); ++g)
    mx = std::max(mx, group_offsets[g + 1] - group_offsets[g]);
  return mx;
}

CandidateTrie::GroupedLevel CandidateTrie::flatten_level_grouped(
    std::size_t level, std::uint32_t max_group_size) const {
  if (level < 2)
    throw std::invalid_argument(
        "CandidateTrie::flatten_level_grouped: level must be >= 2");
  if (max_group_size == 0)
    throw std::invalid_argument(
        "CandidateTrie::flatten_level_grouped: max_group_size must be >= 1");
  const Level& lvl = levels_[level - 1];
  const std::size_t n = lvl.node_ids.size();
  GroupedLevel out;
  out.prefix_len = static_cast<std::uint32_t>(level - 1);
  out.group_offsets.push_back(0);

  // Pass 1 (serial, one compare per candidate): group boundaries — a new
  // group starts on parent change or when the size cap splits a class.
  std::uint32_t cur_parent = kNoParent;
  std::uint32_t cur_size = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const Node& nd = nodes_[lvl.node_ids[i]];
    if (nd.parent != cur_parent || cur_size == max_group_size) {
      if (cur_size != 0)
        out.group_offsets.push_back(static_cast<std::uint32_t>(i));
      cur_parent = nd.parent;
      cur_size = 0;
    }
    ++cur_size;
  }
  if (cur_size != 0)
    out.group_offsets.push_back(static_cast<std::uint32_t>(n));

  // Pass 2: block copies out of the cached path arena — the prefix is the
  // first k-1 row ids of the group's first candidate, the sibling row is
  // each candidate's last. Parallel over contiguous group ranges (disjoint
  // writes into the pre-sized tables) when the level is large enough.
  const std::size_t ngroups = out.num_groups();
  out.prefix_rows.resize(ngroups * (level - 1));
  out.sibling_rows.resize(n);
  std::uint32_t nshards = 1;
  if (workers_ > 1 && ngroups >= 2 && n * level >= kMinParallelFlattenWords)
    nshards = static_cast<std::uint32_t>(
        std::min<std::size_t>(workers_, ngroups));
  const auto fill = [&](std::uint32_t s) {
    const std::size_t glo = ngroups * s / nshards;
    const std::size_t ghi = ngroups * (s + 1) / nshards;
    for (std::size_t g = glo; g < ghi; ++g) {
      const std::uint32_t clo = out.group_offsets[g];
      const std::uint32_t chi = out.group_offsets[g + 1];
      const std::uint32_t* first = lvl.paths.data() + clo * level;
      std::copy(first, first + (level - 1),
                out.prefix_rows.begin() +
                    static_cast<std::ptrdiff_t>(g * (level - 1)));
      for (std::uint32_t c = clo; c < chi; ++c)
        out.sibling_rows[c] = lvl.paths[c * level + (level - 1)];
    }
  };
  gpusim::HostPool::instance().run(nshards, fill);
  return out;
}

std::size_t CandidateTrie::mark_frequent(std::size_t level,
                                         std::span<const fim::Support> supports,
                                         fim::Support min_count) {
  Level& lvl = levels_[level - 1];
  const std::size_t n = lvl.node_ids.size();
  if (supports.size() != n)
    throw std::invalid_argument("CandidateTrie::mark_frequent: size mismatch");

  std::uint32_t nshards = 1;
  if (workers_ > 1 && n >= kMinParallelMarkCandidates)
    nshards = workers_;
  auto range = [&](std::uint32_t s) {
    return std::pair<std::size_t, std::size_t>{n * s / nshards,
                                               n * (s + 1) / nshards};
  };

  // Pass 1: survivors per contiguous candidate shard.
  std::vector<std::size_t> counts(nshards, 0);
  gpusim::HostPool::instance().run(nshards, [&](std::uint32_t s) {
    const auto [lo, hi] = range(s);
    std::size_t c = 0;
    for (std::size_t i = lo; i < hi; ++i)
      if (supports[i] >= min_count) ++c;
    counts[s] = c;
  });
  std::vector<std::size_t> offsets(nshards + 1, 0);
  for (std::uint32_t s = 0; s < nshards; ++s)
    offsets[s + 1] = offsets[s] + counts[s];
  const std::size_t survivors = offsets[nshards];

  // Pass 2: set flags and compact node ids + cached paths into pre-sized
  // arenas at the shard's offset — disjoint writes, order preserved, so the
  // surviving level is byte-identical to the serial erase-based compaction.
  Level compact;
  compact.node_ids.resize(survivors);
  compact.paths.resize(survivors * level);
  gpusim::HostPool::instance().run(nshards, [&](std::uint32_t s) {
    const auto [lo, hi] = range(s);
    std::size_t at = offsets[s];
    for (std::size_t i = lo; i < hi; ++i) {
      const std::uint32_t id = lvl.node_ids[i];
      Node& nd = nodes_[id];
      if (supports[i] >= min_count) {
        nd.frequent = true;
        nd.pos = static_cast<std::uint32_t>(at);
        compact.node_ids[at] = id;
        std::copy(lvl.paths.data() + i * level,
                  lvl.paths.data() + (i + 1) * level,
                  compact.paths.begin() +
                      static_cast<std::ptrdiff_t>(at * level));
        ++at;
      } else {
        nd.frequent = false;  // roots start frequent; level-1 marking prunes
      }
    }
  });
  lvl = std::move(compact);
  return survivors;
}

std::vector<fim::Item> CandidateTrie::candidate_items(std::size_t level,
                                                      std::size_t i) const {
  const auto row = candidate_row_span(level, i);
  return {row.begin(), row.end()};
}

bool CandidateTrie::is_frequent(std::span<const fim::Item> items) const {
  if (items.empty()) return false;
  // Root node ids equal their items by construction.
  if (items[0] >= num_roots_) return false;
  std::uint32_t found = items[0];
  if (!nodes_[found].frequent) return false;
  for (std::size_t d = 1; d < items.size(); ++d) {
    const Node& pn = nodes_[found];
    // Children are a contiguous id range sorted by item.
    std::uint32_t lo = pn.child_begin, hi = pn.child_end;
    while (lo < hi) {
      const std::uint32_t mid = lo + (hi - lo) / 2;
      if (nodes_[mid].item < items[d])
        lo = mid + 1;
      else
        hi = mid;
    }
    if (lo == pn.child_end || nodes_[lo].item != items[d]) return false;
    // Mid-path infrequent nodes cut the lookup exactly like an erase-based
    // trie would by removing them from their sibling list.
    if (d + 1 < items.size() && !nodes_[lo].frequent) return false;
    found = lo;
  }
  return nodes_[found].frequent;
}

}  // namespace gpapriori
