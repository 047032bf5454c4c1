#include "core/candidate_trie.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <vector>

#include "test_util.hpp"

namespace {

using gpapriori::CandidateTrie;
using testutil::rows;

/// Extends and marks (synth_support >= 400) until level `depth` is marked.
CandidateTrie grow(std::size_t roots, std::size_t depth) {
  CandidateTrie trie(roots);
  for (std::size_t k = 2; k <= depth; ++k) {
    std::vector<fim::Support> supports(trie.extend());
    for (std::size_t c = 0; c < supports.size(); ++c)
      supports[c] = testutil::synth_support(trie.candidate_row_span(k, c));
    trie.mark_frequent(k, supports, 400);
  }
  return trie;
}

/// Same levels: paths, parent positions and grouped layouts at two caps.
void expect_same_levels(const CandidateTrie& a, const CandidateTrie& b) {
  ASSERT_EQ(a.depth(), b.depth());
  for (std::size_t k = 1; k <= a.depth(); ++k) {
    ASSERT_EQ(rows(a.level_paths(k)), rows(b.level_paths(k))) << "level " << k;
    if (k < 2) continue;
    for (std::size_t i = 0; i < a.level_size(k); ++i)
      ASSERT_EQ(a.parent_index(k, i), b.parent_index(k, i))
          << "level " << k << " candidate " << i;
    for (const std::uint32_t cap : {64u, 5u}) {
      const auto ga = a.flatten_level_grouped(k, cap);
      const auto gb = b.flatten_level_grouped(k, cap);
      EXPECT_EQ(rows(ga.prefix_rows()), rows(gb.prefix_rows()))
          << "level " << k;
      EXPECT_EQ(rows(ga.sibling_rows()), rows(gb.sibling_rows()))
          << "level " << k;
      EXPECT_EQ(rows(ga.group_offsets()), rows(gb.group_offsets()))
          << "level " << k;
    }
  }
}

TEST(CandidateTrie, Level1Roots) {
  CandidateTrie trie(4);
  EXPECT_EQ(trie.depth(), 1u);
  EXPECT_EQ(trie.level_size(1), 4u);
  for (fim::Item x = 0; x < 4; ++x)
    EXPECT_TRUE(trie.is_frequent(std::vector<fim::Item>{x}));
}

TEST(CandidateTrie, Level2IsAllSiblingPairs) {
  CandidateTrie trie(4);
  EXPECT_EQ(trie.extend(), 6u);  // C(4,2)
  EXPECT_EQ(trie.depth(), 2u);
  const auto flat = trie.level_paths(2);
  ASSERT_EQ(flat.size(), 12u);
  // Equivalence-class order: 01,02,03,12,13,23.
  const std::vector<std::uint32_t> expect{0, 1, 0, 2, 0, 3, 1, 2, 1, 3, 2, 3};
  EXPECT_EQ(rows(flat), expect);
}

TEST(CandidateTrie, MarkFrequentPrunesLevel) {
  CandidateTrie trie(3);
  trie.extend();  // 01, 02, 12
  const std::vector<fim::Support> supports{5, 1, 5};
  EXPECT_EQ(trie.mark_frequent(2, supports, 3), 2u);
  EXPECT_EQ(trie.level_size(2), 2u);
  EXPECT_TRUE(trie.is_frequent(std::vector<fim::Item>{0, 1}));
  EXPECT_FALSE(trie.is_frequent(std::vector<fim::Item>{0, 2}));
  EXPECT_TRUE(trie.is_frequent(std::vector<fim::Item>{1, 2}));
}

TEST(CandidateTrie, SubsetPruneUsesApriori) {
  // Frequent 2-sets: 01, 02, 12, 13 -> join gives 012 (kept: all subsets
  // frequent) and 123 (pruned: 23 infrequent... 12 & 13 join to 123, needs
  // 23 which is absent).
  CandidateTrie trie(4);
  trie.extend();
  // Candidates in order: 01,02,03,12,13,23. Keep 01,02,12,13.
  const std::vector<fim::Support> s2{9, 9, 0, 9, 9, 0};
  trie.mark_frequent(2, s2, 1);
  EXPECT_EQ(trie.extend(), 1u);
  EXPECT_EQ(rows(trie.candidate_row_span(3, 0)),
            (std::vector<fim::Item>{0, 1, 2}));
}

TEST(CandidateTrie, PaperFig1StyleGrowth) {
  // Build three levels and check every candidate's path is strictly
  // increasing and every (k-1)-subset of every candidate is frequent.
  CandidateTrie trie(5);
  trie.extend();
  std::vector<fim::Support> all_frequent(trie.level_size(2), 100);
  trie.mark_frequent(2, all_frequent, 1);
  trie.extend();
  EXPECT_EQ(trie.level_size(3), 10u);  // C(5,3)
  for (std::size_t i = 0; i < trie.level_size(3); ++i) {
    const auto items = rows(trie.candidate_row_span(3, i));
    EXPECT_TRUE(fim::is_strictly_increasing(items));
    for (std::size_t d = 0; d < items.size(); ++d) {
      auto sub = items;
      sub.erase(sub.begin() + static_cast<std::ptrdiff_t>(d));
      EXPECT_TRUE(trie.is_frequent(sub));
    }
  }
}

TEST(CandidateTrie, ExtendOnEmptyLevelProducesNothing) {
  CandidateTrie trie(3);
  trie.extend();
  const std::vector<fim::Support> none{0, 0, 0};
  trie.mark_frequent(2, none, 1);
  EXPECT_EQ(trie.extend(), 0u);
}

TEST(CandidateTrie, SingleItemCannotExtend) {
  CandidateTrie trie(1);
  EXPECT_EQ(trie.extend(), 0u);
}

TEST(CandidateTrie, MarkFrequentSizeMismatchThrows) {
  CandidateTrie trie(3);
  trie.extend();
  const std::vector<fim::Support> wrong{1, 2};
  EXPECT_THROW(trie.mark_frequent(2, wrong, 1), std::invalid_argument);
}

TEST(CandidateTrie, IsFrequentOnUnknownPaths) {
  CandidateTrie trie(3);
  EXPECT_FALSE(trie.is_frequent(std::vector<fim::Item>{7}));
  EXPECT_FALSE(trie.is_frequent(std::vector<fim::Item>{0, 1}));  // not yet
  EXPECT_FALSE(trie.is_frequent(std::vector<fim::Item>{}));
}

TEST(CandidateTrie, FlattenOrderMatchesCandidateItems) {
  CandidateTrie trie(4);
  trie.extend();
  const auto flat = trie.level_paths(2);
  for (std::size_t i = 0; i < trie.level_size(2); ++i) {
    const auto items = trie.candidate_row_span(2, i);
    EXPECT_EQ(items[0], flat[i * 2]);
    EXPECT_EQ(items[1], flat[i * 2 + 1]);
  }
}

TEST(CandidateTrie, CandidatesMatchAprioriGenSemantics) {
  // Against random frequent sets: candidates produced by the trie must be
  // exactly the (sorted) apriori-gen candidates.
  const auto db = testutil::random_db(100, 7, 0.5, 17);
  const fim::Support min_count = 20;
  const auto frequent = testutil::brute_force(db, min_count);

  CandidateTrie trie(7);
  // Feed true level-1 supports.
  std::vector<fim::Support> s1(7);
  for (fim::Item x = 0; x < 7; ++x)
    s1[x] = testutil::naive_support(db, fim::Itemset{x});
  trie.mark_frequent(1, s1, min_count);

  for (std::size_t k = 2; k <= frequent.max_size() + 1; ++k) {
    const std::size_t n = trie.extend();
    // Every true frequent k-set must be among the candidates (completeness).
    std::vector<std::vector<fim::Item>> cand_items;
    for (std::size_t i = 0; i < n; ++i)
      cand_items.push_back(rows(trie.candidate_row_span(k, i)));
    std::size_t true_k = 0;
    for (const auto& fs : frequent) {
      if (fs.items.size() != k) continue;
      ++true_k;
      EXPECT_NE(std::find(cand_items.begin(), cand_items.end(),
                          fs.items.items()),
                cand_items.end())
          << "missing frequent " << fs.items.to_string();
    }
    EXPECT_GE(n, true_k);
    if (n == 0) break;
    // Mark with true supports.
    std::vector<fim::Support> sk(n);
    for (std::size_t i = 0; i < n; ++i)
      sk[i] = testutil::naive_support(db, fim::Itemset(cand_items[i]));
    trie.mark_frequent(k, sk, min_count);
  }
}

// Only survivors become nodes: candidates live in the level's tables until
// mark_frequent() keeps them, and what it drops never becomes a node.
TEST(CandidateTrie, NodesAreRootsPlusSurvivors) {
  CandidateTrie trie(24);
  std::size_t survivors = 0;
  for (std::size_t k = 2; k <= 4; ++k) {
    const std::size_t before = trie.num_nodes();
    std::vector<fim::Support> supports(trie.extend());
    ASSERT_FALSE(supports.empty()) << "level " << k;
    EXPECT_EQ(trie.num_nodes(), before) << "candidates became nodes";
    for (std::size_t c = 0; c < supports.size(); ++c)
      supports[c] = testutil::synth_support(trie.candidate_row_span(k, c));
    survivors += trie.mark_frequent(k, supports, 400);
    ASSERT_LT(trie.level_size(k), supports.size()) << "nothing was pruned";
    EXPECT_EQ(trie.num_nodes(), 24 + survivors) << "level " << k;
  }
}

// A root dropped by a level-1 mark (as the top-K miner makes) keeps its
// node but must be neither joined nor found.
TEST(CandidateTrie, DroppedRootIsNeitherJoinedNorFound) {
  CandidateTrie trie(4);
  const std::vector<fim::Support> s1{5, 0, 5, 5};
  EXPECT_EQ(trie.mark_frequent(1, s1, 1), 3u);
  EXPECT_FALSE(trie.is_frequent(std::vector<fim::Item>{1}));
  EXPECT_TRUE(trie.is_frequent(std::vector<fim::Item>{2}));
  ASSERT_EQ(trie.extend(), 3u);
  EXPECT_EQ(rows(trie.level_paths(2)),
            (std::vector<std::uint32_t>{0, 2, 0, 3, 2, 3}));
  EXPECT_EQ(trie.parent_index(2, 2), 1u);  // root 2 is level-1 survivor 1
  const std::vector<fim::Support> s2(3, 9);
  trie.mark_frequent(2, s2, 1);
  EXPECT_FALSE(trie.is_frequent(std::vector<fim::Item>{1, 2}));
  EXPECT_TRUE(trie.is_frequent(std::vector<fim::Item>{0, 2}));
  ASSERT_EQ(trie.extend(), 1u);
  EXPECT_EQ(rows(trie.level_paths(3)), (std::vector<std::uint32_t>{0, 2, 3}));
}

TEST(CandidateTrie, MarkFrequentOnlyOnTheDeepestUnmarkedLevel) {
  CandidateTrie trie(3);
  trie.extend();
  const std::vector<fim::Support> s1(3, 1), s2(3, 1);
  EXPECT_THROW(trie.mark_frequent(1, s1, 1), std::invalid_argument);
  trie.mark_frequent(2, s2, 1);
  EXPECT_THROW(trie.mark_frequent(2, s2, 1), std::invalid_argument);
}

// The resume path: a trie rebuilt by append_level from a mined trie's
// survivor paths is the mined trie, and extends to the same next level.
TEST(CandidateTrie, AppendLevelRebuildsTheMinedTrie) {
  CandidateTrie mined = grow(40, 4);
  ASSERT_GT(mined.level_size(4), 0u) << "test shape too shallow";
  CandidateTrie rebuilt(40);
  for (std::size_t k = 2; k <= mined.depth(); ++k)
    ASSERT_TRUE(rebuilt.append_level(rows(mined.level_paths(k))))
        << "level " << k;
  EXPECT_EQ(rebuilt.num_nodes(), mined.num_nodes());
  expect_same_levels(mined, rebuilt);
  ASSERT_GT(mined.extend(), 0u);
  EXPECT_EQ(rebuilt.extend(), mined.level_size(5));
  expect_same_levels(mined, rebuilt);
}

}  // namespace
