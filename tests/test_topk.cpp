#include "core/topk_miner.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "test_util.hpp"

namespace {

using gpapriori::mine_top_k_native;

/// Reference: supports of ALL itemsets, sorted descending.
std::vector<fim::Support> all_supports_desc(const fim::TransactionDb& db) {
  std::vector<fim::Support> sup;
  for (const auto& fs : testutil::brute_force(db, 1))
    sup.push_back(fs.support);
  std::sort(sup.begin(), sup.end(), std::greater<>());
  return sup;
}

TEST(TopK, FindsTheKBestWithTies) {
  const auto db = testutil::random_db(80, 8, 0.45, 401);
  const auto ref = all_supports_desc(db);
  for (std::size_t k : {1u, 5u, 20u, 100u}) {
    const auto r = mine_top_k_native(db, k);
    ASSERT_GE(r.itemsets.size(), std::min<std::size_t>(k, ref.size()));
    // Every returned support >= the true k-th best; every set with support
    // strictly above the k-th best is present.
    const fim::Support kth = ref[std::min(k, ref.size()) - 1];
    EXPECT_EQ(r.effective_min_support, kth);
    for (const auto& fs : r.itemsets) EXPECT_GE(fs.support, kth);
    std::size_t strictly_above = 0;
    for (auto s : ref)
      if (s > kth) ++strictly_above;
    std::size_t got_above = 0;
    for (const auto& fs : r.itemsets)
      if (fs.support > kth) ++got_above;
    EXPECT_EQ(got_above, strictly_above) << k;
  }
}

TEST(TopK, TiesAtKthPlaceAreKeptWhole) {
  // Supports: {0}=4, {1}={0,1}=3, {2}={0,2}={1,2}={0,1,2}=2, ... k=2 lands
  // on the tie at 3, so both tied sets come back.
  const auto db = fim::TransactionDb::from_transactions(
      {{0, 1, 2, 3}, {0, 1, 2}, {0, 1}, {0}});
  const auto r = mine_top_k_native(db, 2);
  EXPECT_EQ(r.itemsets.size(), 3u);
  EXPECT_EQ(r.effective_min_support, 3u);
  EXPECT_EQ(r.itemsets.support_of(fim::Itemset{0}), 4u);
  EXPECT_EQ(r.itemsets.support_of(fim::Itemset{1}), 3u);
  EXPECT_EQ(r.itemsets.support_of(fim::Itemset{0, 1}), 3u);
}

TEST(TopK, KLargerThanEverythingReturnsAll) {
  const auto db = testutil::random_db(40, 5, 0.5, 402);
  const auto all = testutil::brute_force(db, 1);
  const auto r = mine_top_k_native(db, 1'000'000);
  EXPECT_TRUE(r.itemsets.equivalent_to(all));
}

TEST(TopK, MaxItemsetSizeCap) {
  const auto db = testutil::random_db(100, 9, 0.5, 404);
  const auto r = mine_top_k_native(db, 30, /*max_itemset_size=*/2);
  EXPECT_LE(r.itemsets.max_size(), 2u);
}

TEST(TopK, DegenerateInputs) {
  EXPECT_THROW((void)mine_top_k_native(testutil::random_db(10, 3, 0.5, 1), 0),
               std::invalid_argument);
  const auto r =
      mine_top_k_native(fim::TransactionDb::from_transactions({}), 5);
  EXPECT_TRUE(r.itemsets.empty());
  EXPECT_EQ(r.levels_mined, 0u);
}

TEST(NativeTopK, AgreesWithGenericSearch) {
  // The K-best cut of every itemset, ties at the K-th place kept whole.
  const auto db = testutil::random_db(120, 9, 0.45, 406);
  const auto all = testutil::brute_force(db, 1);
  const auto ref = all_supports_desc(db);
  for (std::size_t k : {1u, 7u, 40u}) {
    const fim::Support kth = ref[std::min(k, ref.size()) - 1];
    fim::ItemsetCollection cut;
    for (const auto& fs : all)
      if (fs.support >= kth) cut.add(fs.items, fs.support);
    const auto native = mine_top_k_native(db, k);
    EXPECT_TRUE(native.itemsets.equivalent_to(cut)) << k;
    EXPECT_EQ(native.effective_min_support, kth) << k;
  }
}

TEST(NativeTopK, SafeOnDenseDataWithSupportCliff) {
  // 50 identical 12-item transactions + noise: 2^12 - 1 itemsets at
  // support 50, a cliff a threshold-probing search could fall off. The
  // rising threshold keeps the pass tiny for small k.
  std::vector<std::vector<fim::Item>> txs(50);
  for (auto& tx : txs)
    for (fim::Item x = 0; x < 12; ++x) tx.push_back(x);
  txs.push_back({0, 1});
  txs.push_back({0});
  const auto db = fim::TransactionDb::from_transactions(txs);
  const auto r = mine_top_k_native(db, 2);
  // {0} has 52, {1} and {0,1} have 51; k=2 keeps the 51-tie whole.
  EXPECT_EQ(r.effective_min_support, 51u);
  EXPECT_EQ(r.itemsets.size(), 3u);
  EXPECT_EQ(r.itemsets.support_of(fim::Itemset{0}), 52u);
}

TEST(NativeTopK, RisingThresholdMatchesBruteForceCut) {
  const auto db = testutil::random_db(200, 10, 0.4, 407);
  const auto ref = all_supports_desc(db);
  for (std::size_t k : {3u, 15u, 60u}) {
    const auto r = mine_top_k_native(db, k);
    const fim::Support kth = ref[std::min(k, ref.size()) - 1];
    EXPECT_EQ(r.effective_min_support, kth) << k;
    for (const auto& fs : r.itemsets) EXPECT_GE(fs.support, kth) << k;
  }
}

TEST(NativeTopK, MaxSizeCapAndDegenerates) {
  const auto db = testutil::random_db(80, 8, 0.5, 408);
  const auto r = mine_top_k_native(db, 20, 2);
  EXPECT_LE(r.itemsets.max_size(), 2u);
  EXPECT_THROW((void)mine_top_k_native(db, 0), std::invalid_argument);
  const auto empty =
      mine_top_k_native(fim::TransactionDb::from_transactions({}), 3);
  EXPECT_TRUE(empty.itemsets.empty());
}

TEST(NativeTopK, KBeyondEverythingReturnsAll) {
  const auto db = testutil::random_db(40, 5, 0.5, 409);
  const auto all = testutil::brute_force(db, 1);
  const auto r = mine_top_k_native(db, 1'000'000);
  EXPECT_TRUE(r.itemsets.equivalent_to(all));
}

}  // namespace
