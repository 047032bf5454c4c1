#include "core/candidate_trie.hpp"

#include <algorithm>
#include <exception>
#include <optional>
#include <stdexcept>

#include "gpusim/cancel.hpp"
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
  nodes_.resize(num_frequent_items);
  Level level1;
  level1.paths.resize(num_frequent_items);
  for (std::size_t i = 0; i < num_frequent_items; ++i) {
    nodes_[i].item = static_cast<fim::Item>(i);
    level1.paths[i] = static_cast<std::uint32_t>(i);
  }
  levels_.push_back(std::move(level1));
}

std::size_t CandidateTrie::extend(const gpusim::CancelToken* cancel) {
  const std::size_t k = depth();  // candidates will have size k+1
  const Level& cur = levels_[k - 1];
  const auto m = static_cast<std::uint32_t>(level_size(k));
  // Spans the class scan and the join, waits for shards included.
  std::optional<obs::ScopedSpan> join_span(
      std::in_place, obs::SpanKind::kCandidateGen, "candgen-join");
  Level next;
  std::uint32_t nshards = 1;
  if (k == 1) {
    // Level 2 is every pair of level-1 survivors: the count is exact and
    // no 1-subset can fail the prune, so the tables are written in place.
    const std::size_t n = m < 2 ? 0 : std::size_t{m} * (m - 1) / 2;
    next.parents.resize(n);
    next.paths.resize(2 * n);
    std::uint32_t* parent = next.parents.data();
    std::uint32_t* path = next.paths.data();
    for (std::uint32_t i = 0; i < m; ++i) {
      gpusim::throw_if_cancelled(cancel, "candidate-gen");
      for (std::uint32_t j = i + 1; j < m; ++j) {
        *parent++ = i;
        *path++ = cur.paths[i];
        *path++ = cur.paths[j];
      }
    }
  } else if (cur.first_node != kNone) {
    // Parent equivalence classes: each level-(k-1) survivor's children, a
    // run of equal parents among the deepest level's survivors.
    struct Group {
      std::uint32_t lo, hi;
    };
    std::vector<Group> groups;
    std::vector<std::uint64_t> cum_pairs;  // cumulative join-pair counts
    std::uint64_t total_pairs = 0;
    for (std::uint32_t lo = 0, hi = 0; lo < m; lo = hi) {
      while (++hi < m && cur.parents[hi] == cur.parents[lo]) {
      }
      const std::uint64_t size = hi - lo;
      if (size < 2) continue;  // no joinable pair
      groups.push_back({lo, hi});
      total_pairs += size * (size - 1) / 2;
      cum_pairs.push_back(total_pairs);
    }

    // Shape-deterministic shard count; shard boundaries are contiguous
    // class ranges balanced by join-pair count. The tables are concatenated
    // in shard order, so the count only affects wall clock, never a byte.
    if (workers_ > 1 && groups.size() >= 2 &&
        total_pairs >= kMinParallelJoinPairs)
      nshards = static_cast<std::uint32_t>(
          std::min<std::size_t>(workers_, groups.size()));
    const auto bounds = weighted_boundaries(cum_pairs, total_pairs, nshards);
    std::vector<Level> tables(nshards);
    std::vector<std::exception_ptr> errors(nshards);
    const auto work = [&](std::uint32_t s) {
      Level& out = tables[s];
      try {
        obs::ScopedSpan span(obs::SpanKind::kCandidateGen, "candgen-shard");
        // Apriori prune: every k-subset of the candidate vi's path +
        // `last` (vj's last item) must be a survivor. Dropping either of
        // the two last items gives a join parent. Dropping item d < k-1
        // gives vi's path without item d, then `last`: base[d] is the node
        // of the former, found once per vi, so each pair costs one child
        // search per subset.
        std::vector<std::uint32_t> base(k - 1);
        for (std::size_t g = bounds[s]; g < bounds[s + 1]; ++g) {
          gpusim::throw_if_cancelled(cancel, "candidate-gen");
          for (std::uint32_t vi = groups[g].lo; vi + 1 < groups[g].hi; ++vi) {
            const std::uint32_t* vip = cur.paths.data() + std::size_t{vi} * k;
            bool live = true;
            for (std::size_t d = 0; live && d + 1 < k; ++d) {
              std::uint32_t node = vip[d == 0 ? 1 : 0];  // a root: id == row
              for (std::size_t p = d == 0 ? 2 : 1; live && p < k; ++p)
                if (p != d) live = (node = find_child(node, vip[p])) != kNone;
              base[d] = node;
            }
            for (std::uint32_t vj = vi + 1; live && vj < groups[g].hi; ++vj) {
              const std::uint32_t last = cur.paths[std::size_t{vj} * k + k - 1];
              if (!std::all_of(base.begin(), base.end(), [&](std::uint32_t b) {
                    return find_child(b, last) != kNone;
                  }))
                continue;
              out.parents.push_back(vi);
              out.paths.insert(out.paths.end(), vip, vip + k);
              out.paths.push_back(last);
            }
          }
        }
        if (span.active()) {
          span.add_arg("shard", static_cast<double>(s));
          span.add_arg("groups",
                       static_cast<double>(bounds[s + 1] - bounds[s]));
          span.add_arg("candidates", static_cast<double>(out.parents.size()));
        }
      } catch (...) {
        errors[s] = std::current_exception();
      }
    };
    gpusim::HostPool::instance().run(nshards, work);
    // Fail deterministically: the lowest shard's error wins, matching what
    // strictly sequential generation would have thrown first.
    for (const std::exception_ptr& e : errors)
      if (e) std::rethrow_exception(e);
    join_span.reset();

    // Shard (= class) order makes the level the serial join's, byte for
    // byte. The span closes after the shard tables are freed.
    obs::ScopedSpan stitch_span(obs::SpanKind::kCandidateGen,
                                "candgen-stitch");
    if (nshards == 1) {
      next = std::move(tables[0]);
    } else {
      std::size_t n = 0;
      for (const Level& t : tables) n += t.parents.size();
      next.parents.reserve(n);
      next.paths.reserve(n * (k + 1));
      for (const Level& t : tables) {
        next.parents.insert(next.parents.end(), t.parents.begin(),
                            t.parents.end());
        next.paths.insert(next.paths.end(), t.paths.begin(), t.paths.end());
      }
      tables.clear();
    }
  }
  last_extend_shards_ = nshards;
  levels_.push_back(std::move(next));

  auto& metrics = obs::MetricsRegistry::global();
  if (metrics.enabled())
    metrics.add(obs::Counter::kCandgenShards, nshards);
  return level_size(k + 1);
}

void CandidateTrie::append_nodes() {
  const std::size_t k = depth();
  const Level& prev = levels_[k - 2];
  Level& lvl = levels_.back();
  lvl.first_node = static_cast<std::uint32_t>(nodes_.size());
  for (std::size_t i = 0; i < lvl.parents.size(); ++i) {
    const auto id = static_cast<std::uint32_t>(nodes_.size());
    nodes_.push_back({lvl.paths[i * k + k - 1], 0, 0});
    // Survivors arrive in parent order: each parent's children are one run.
    // A root's node id is its row id.
    const std::uint32_t p = lvl.parents[i];
    Node& parent = nodes_[k == 2 ? prev.paths[p] : prev.first_node + p];
    if (parent.child_begin == parent.child_end) parent.child_begin = id;
    parent.child_end = id + 1;
  }
}

bool CandidateTrie::append_level(std::vector<std::uint32_t> paths) {
  const std::size_t k = depth() + 1;
  const Level& prev = levels_.back();
  if (k > 2 && prev.first_node == kNone) return false;  // no survivors
  const std::size_t n = paths.size() / k;
  const std::size_t m = level_size(k - 1);

  // Both levels are in lexicographic order, so each path's (k-1)-prefix
  // lies at or after the previous path's: one forward walk finds them all.
  Level lvl;
  lvl.parents.resize(n);
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
    lvl.parents[i] = static_cast<std::uint32_t>(p);
  }
  lvl.paths = std::move(paths);
  levels_.push_back(std::move(lvl));
  append_nodes();
  return true;
}

std::uint32_t CandidateTrie::GroupedLevel::max_group_size() const {
  const auto offsets = group_offsets();
  std::uint32_t mx = 0;
  for (std::size_t g = 0; g < groups; ++g)
    mx = std::max(mx, offsets[g + 1] - offsets[g]);
  return mx;
}

CandidateTrie::GroupedLevel CandidateTrie::flatten_level_grouped(
    std::size_t level, std::uint32_t max_group_size,
    const gpusim::CancelToken* cancel) const {
  if (level < 2)
    throw std::invalid_argument(
        "CandidateTrie::flatten_level_grouped: level must be >= 2");
  if (max_group_size == 0)
    throw std::invalid_argument(
        "CandidateTrie::flatten_level_grouped: max_group_size must be >= 1");
  const Level& lvl = levels_[level - 1];
  const std::size_t n = level_size(level);
  const std::size_t p = level - 1;

  // Pass 1 (serial, one compare per candidate): group boundaries — a new
  // group starts on parent change or when the size cap splits a class.
  std::vector<std::uint32_t> offsets{0};
  std::uint32_t size = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if ((i & 0x3ff) == 0) gpusim::throw_if_cancelled(cancel, "candgen-group");
    if (size == max_group_size ||
        (i != 0 && lvl.parents[i] != lvl.parents[i - 1])) {
      offsets.push_back(static_cast<std::uint32_t>(i));
      size = 0;
    }
    ++size;
  }
  if (n != 0) offsets.push_back(static_cast<std::uint32_t>(n));

  const std::size_t ngroups = offsets.size() - 1;
  GroupedLevel out;
  out.prefix_len = static_cast<std::uint32_t>(p);
  out.groups = ngroups;
  out.candidates = n;
  out.table.reserve(ngroups * p + n + offsets.size());
  out.table.resize(ngroups * p + n);
  out.table.insert(out.table.end(), offsets.begin(), offsets.end());

  // Pass 2: block copies out of the path table, in place into the sized
  // table — the prefix is the first k-1 row ids of the group's first
  // candidate, the sibling row is each candidate's last. Parallel over
  // contiguous group ranges (disjoint writes) when the level is large
  // enough.
  std::uint32_t* const prefix_rows = out.table.data();
  std::uint32_t* const sibling_rows = prefix_rows + ngroups * p;
  std::uint32_t nshards = 1;
  if (workers_ > 1 && ngroups >= 2 && n * level >= kMinParallelFlattenWords)
    nshards = static_cast<std::uint32_t>(
        std::min<std::size_t>(workers_, ngroups));
  const auto fill = [&](std::uint32_t s) {
    const std::size_t glo = ngroups * s / nshards;
    const std::size_t ghi = ngroups * (s + 1) / nshards;
    for (std::size_t g = glo; g < ghi; ++g) {
      if (cancel != nullptr && cancel->cancelled()) return;
      const std::uint32_t clo = offsets[g];
      const std::uint32_t chi = offsets[g + 1];
      const std::uint32_t* first = lvl.paths.data() + clo * level;
      std::copy(first, first + p, prefix_rows + g * p);
      for (std::uint32_t c = clo; c < chi; ++c)
        sibling_rows[c] = lvl.paths[c * level + p];
    }
  };
  gpusim::HostPool::instance().run(nshards, fill);
  gpusim::throw_if_cancelled(cancel, "candgen-group");
  return out;
}

std::size_t CandidateTrie::mark_frequent(std::size_t level,
                                         std::span<const fim::Support> supports,
                                         fim::Support min_count,
                                         const gpusim::CancelToken* cancel) {
  if (level != depth() || (level >= 2 && levels_.back().first_node != kNone))
    throw std::invalid_argument(
        "CandidateTrie::mark_frequent: not the deepest unmarked level");
  Level& lvl = levels_.back();
  const std::size_t n = level_size(level);
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

  // Pass 2: compact the parent and path tables into pre-sized ones at the
  // shard's offset — disjoint writes, order preserved, so the surviving
  // level is byte-identical to a serial compaction.
  Level kept;
  kept.parents.resize(level >= 2 ? survivors : 0);
  kept.paths.resize(survivors * level);
  gpusim::HostPool::instance().run(nshards, [&](std::uint32_t s) {
    const auto [lo, hi] = range(s);
    std::size_t at = offsets[s];
    for (std::size_t i = lo; i < hi; ++i) {
      if ((i & 0x3ff) == 0 && cancel != nullptr && cancel->cancelled()) return;
      if (supports[i] < min_count) continue;
      if (level >= 2) kept.parents[at] = lvl.parents[i];
      std::copy(lvl.paths.data() + i * level,
                lvl.paths.data() + (i + 1) * level,
                kept.paths.begin() + static_cast<std::ptrdiff_t>(at * level));
      ++at;
    }
  });
  gpusim::throw_if_cancelled(cancel, "prune");
  lvl = std::move(kept);
  // Roots are nodes from the start; a dropped root keeps its node, but it
  // leaves level 1's survivor list and so is never joined.
  if (level >= 2) append_nodes();
  return survivors;
}

std::uint32_t CandidateTrie::find_child(std::uint32_t node,
                                        fim::Item item) const {
  // Children are a contiguous id range sorted by item.
  const auto first = nodes_.begin() + nodes_[node].child_begin;
  const auto last = nodes_.begin() + nodes_[node].child_end;
  const auto it = std::lower_bound(
      first, last, item,
      [](const Node& nd, fim::Item x) { return nd.item < x; });
  return it == last || it->item != item
             ? kNone
             : static_cast<std::uint32_t>(it - nodes_.begin());
}

bool CandidateTrie::is_frequent(std::span<const fim::Item> items) const {
  if (items.empty() || items[0] >= num_roots_) return false;
  // Level 1's survivors are sorted row ids; deeper survivors are the nodes.
  if (items.size() == 1)
    return std::binary_search(levels_[0].paths.begin(),
                              levels_[0].paths.end(), items[0]);
  std::uint32_t found = items[0];  // root node ids equal their items
  for (std::size_t d = 1; d < items.size() && found != kNone; ++d)
    found = find_child(found, items[d]);
  return found != kNone;
}

}  // namespace gpapriori
