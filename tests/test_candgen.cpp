// Determinism contract of the sharded host candidate pipeline
// (DESIGN.md §13): extend(), mark_frequent(), and the grouped/flat level
// layouts must be byte-identical to the serial trie for every worker
// count, and a full mine must return bit-identical itemsets for every
// host_threads value.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <span>
#include <thread>
#include <vector>

#include "core/candidate_trie.hpp"
#include "core/gpapriori.hpp"
#include "test_util.hpp"

namespace {

using gpapriori::CandidateTrie;
using testutil::rows;
using testutil::synth_support;

/// Worker counts the suite sweeps: serial, the smallest parallel shape,
/// an odd count that never divides level sizes evenly, and whatever this
/// machine actually has.
std::vector<std::uint32_t> worker_counts() {
  const std::uint32_t hw = std::max(1u, std::thread::hardware_concurrency());
  return {1, 2, 7, hw};
}

/// Grows a trie level by level with set_workers(workers): extend, prune
/// with synth_support at `min_count`, until extension dries up or
/// `max_depth` is reached. `shards`, if given, receives each extension's
/// last_extend_shards(), level 2 first.
CandidateTrie grow(std::size_t roots, std::uint32_t workers,
                   fim::Support min_count, std::size_t max_depth,
                   std::vector<std::uint32_t>* shards = nullptr) {
  CandidateTrie trie(roots);
  trie.set_workers(workers);
  for (std::size_t k = 2; k <= max_depth; ++k) {
    const std::size_t ncand = trie.extend();
    if (shards != nullptr) shards->push_back(trie.last_extend_shards());
    if (ncand == 0) break;
    std::vector<fim::Support> supports(ncand);
    for (std::size_t c = 0; c < ncand; ++c)
      supports[c] = synth_support(trie.candidate_row_span(k, c));
    trie.mark_frequent(k, supports, min_count);
    if (trie.level_size(k) == 0) break;
  }
  return trie;
}

void expect_identical(const CandidateTrie& a, const CandidateTrie& b,
                      std::uint32_t workers) {
  ASSERT_EQ(a.depth(), b.depth()) << "workers=" << workers;
  ASSERT_EQ(a.num_nodes(), b.num_nodes()) << "workers=" << workers;
  for (std::size_t k = 1; k <= a.depth(); ++k) {
    ASSERT_EQ(a.level_size(k), b.level_size(k))
        << "workers=" << workers << " level=" << k;
    const auto pa = a.level_paths(k);
    const auto pb = b.level_paths(k);
    ASSERT_EQ(pa.size(), pb.size()) << "workers=" << workers << " level=" << k;
    EXPECT_TRUE(std::equal(pa.begin(), pa.end(), pb.begin()))
        << "path arena differs, workers=" << workers << " level=" << k;
    if (k >= 2) {
      for (std::size_t i = 0; i < a.level_size(k); ++i)
        ASSERT_EQ(a.parent_index(k, i), b.parent_index(k, i))
            << "workers=" << workers << " level=" << k << " cand=" << i;
      for (std::uint32_t cap : {std::uint32_t{64}, std::uint32_t{5}}) {
        const auto ga = a.flatten_level_grouped(k, cap);
        const auto gb = b.flatten_level_grouped(k, cap);
        EXPECT_EQ(ga.prefix_len, gb.prefix_len);
        EXPECT_EQ(rows(ga.prefix_rows()), rows(gb.prefix_rows()))
            << "workers=" << workers << " level=" << k << " cap=" << cap;
        EXPECT_EQ(rows(ga.sibling_rows()), rows(gb.sibling_rows()))
            << "workers=" << workers << " level=" << k << " cap=" << cap;
        EXPECT_EQ(rows(ga.group_offsets()), rows(gb.group_offsets()))
            << "workers=" << workers << " level=" << k << " cap=" << cap;
      }
    }
  }
}

// Level 2 (C(96,2) = 4560 pairs of the 96 roots) is one equivalence class
// written in place, so it never shards. Level 3 joins the level-2
// survivors within ~95 classes, past the 2048-pair parallel threshold, so
// workers >= 2 must shard it; it and the pruned deeper levels exercise the
// uneven class ranges and the in-order concatenation of shard tables.
TEST(CandgenDeterminism, TrieByteIdenticalAcrossWorkerCounts) {
  const CandidateTrie serial = grow(96, 1, 700, 5);
  ASSERT_GE(serial.depth(), 3u) << "test shape too shallow to be meaningful";
  for (std::uint32_t w : worker_counts()) {
    std::vector<std::uint32_t> shards;
    const CandidateTrie sharded = grow(96, w, 700, 5, &shards);
    ASSERT_GE(shards.size(), 2u) << "workers=" << w;
    EXPECT_EQ(shards[0], 1u) << "level 2 sharded, workers=" << w;
    if (w >= 2)
      EXPECT_GT(shards[1], 1u) << "level 3 not sharded, workers=" << w;
    else
      EXPECT_EQ(shards[1], 1u);
    expect_identical(serial, sharded, w);
  }
}

// One big flat level (C(200,2) = 19900 candidates) crosses the parallel
// mark_frequent threshold: the compaction of the parent and path tables,
// and the survivor nodes it appends, must agree with the serial order bit
// for bit.
TEST(CandgenDeterminism, ParallelMarkFrequentMatchesSerial) {
  auto build = [](std::uint32_t workers) {
    CandidateTrie trie(200);
    trie.set_workers(workers);
    const std::size_t ncand = trie.extend();
    std::vector<fim::Support> supports(ncand);
    for (std::size_t c = 0; c < ncand; ++c)
      supports[c] = synth_support(trie.candidate_row_span(2, c));
    trie.mark_frequent(2, supports, 500);
    return trie;
  };
  const CandidateTrie serial = build(1);
  ASSERT_GT(serial.level_size(2), 0u);
  for (std::uint32_t w : worker_counts())
    expect_identical(serial, build(w), w);
}

TEST(CandgenDeterminism, FlattenLevelMatchesPathArena) {
  const CandidateTrie trie = grow(40, 3, 600, 4);
  for (std::size_t k = 1; k <= trie.depth(); ++k) {
    const auto paths = trie.level_paths(k);
    ASSERT_EQ(paths.size(), trie.level_size(k) * k);
    for (std::size_t i = 0; i < trie.level_size(k); ++i) {
      const auto row = trie.candidate_row_span(k, i);
      ASSERT_EQ(row.data(), paths.data() + i * k) << "level " << k;
      EXPECT_TRUE(std::is_sorted(row.begin(), row.end())) << "level " << k;
    }
  }
}

// Edge: a trie whose deepest level cannot join (zero or one frequent
// node) must report an empty extension for every worker count.
TEST(CandgenEdgeCases, EmptyAndSingletonLevels) {
  for (std::uint32_t w : worker_counts()) {
    CandidateTrie lone(1);
    lone.set_workers(w);
    EXPECT_EQ(lone.extend(), 0u) << "workers=" << w;

    CandidateTrie pruned(8);
    pruned.set_workers(w);
    const std::size_t ncand = pruned.extend();
    ASSERT_GT(ncand, 0u);
    // Kill every level-2 candidate; the next extension has nothing to join.
    const std::vector<fim::Support> zero(ncand, 0);
    EXPECT_EQ(pruned.mark_frequent(2, zero, 1), 0u);
    EXPECT_EQ(pruned.level_size(2), 0u);
    EXPECT_EQ(pruned.extend(), 0u) << "workers=" << w;
  }
}

// Edge: two roots form exactly one equivalence class with one candidate —
// the single-group layout must survive every worker count and group cap.
TEST(CandgenEdgeCases, SingleGroupLevel) {
  for (std::uint32_t w : worker_counts()) {
    CandidateTrie trie(2);
    trie.set_workers(w);
    ASSERT_EQ(trie.extend(), 1u) << "workers=" << w;
    const auto g = trie.flatten_level_grouped(2, 64);
    ASSERT_EQ(g.groups, 1u);
    EXPECT_EQ(g.prefix_len, 1u);
    ASSERT_EQ(rows(g.prefix_rows()), (std::vector<std::uint32_t>{0}));
    ASSERT_EQ(rows(g.sibling_rows()), (std::vector<std::uint32_t>{1}));
    ASSERT_EQ(rows(g.group_offsets()), (std::vector<std::uint32_t>{0, 1}));
    EXPECT_EQ(g.max_group_size(), 1u);
    EXPECT_EQ(trie.parent_index(2, 0), 0u);
  }
}

// End to end: the same database mined with different host_threads must
// produce bit-identical collections — items and supports alike. The shape
// (4500 transactions, 70 items) pushes the vertical build, the level-2
// join, and result emission past their parallel thresholds.
TEST(CandgenEndToEnd, ItemsetsBitIdenticalAcrossHostThreads) {
  const auto db = testutil::random_db(4500, 70, 0.3, 907);
  miners::MiningParams p;
  p.min_support_abs = 350;

  gpapriori::CpuBitsetApriori ref(nullptr, /*tiled=*/true,
                                  /*compact_level=*/1, /*max_group_size=*/0,
                                  /*host_threads=*/1);
  const auto expected = ref.mine(db, p);
  ASSERT_GT(expected.itemsets.size(), 100u);

  for (std::uint32_t ht : worker_counts()) {
    gpapriori::CpuBitsetApriori miner(nullptr, true, 1, 0, ht);
    const auto out = miner.mine(db, p);
    ASSERT_EQ(out.itemsets.size(), expected.itemsets.size())
        << "host_threads=" << ht;
    EXPECT_TRUE(std::equal(out.itemsets.begin(), out.itemsets.end(),
                           expected.itemsets.begin()))
        << "host_threads=" << ht;
  }
}

}  // namespace
