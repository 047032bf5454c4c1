#include "core/eqclass.hpp"

#include <gtest/gtest.h>

#include "baselines/apriori_util.hpp"
#include "core/gpapriori.hpp"
#include "fim/bitset_ops.hpp"
#include "test_util.hpp"

namespace {

using gpapriori::Config;
using gpapriori::EqClassApriori;
using gpapriori::GpApriori;
using miners::MiningParams;

Config test_config() {
  Config cfg;
  cfg.block_size = 64;
  cfg.arena_bytes = 64 << 20;
  cfg.strict_memory = true;
  cfg.sample_stride = 1;
  return cfg;
}

struct EqCase {
  std::size_t num_trans;
  std::size_t universe;
  double density;
  std::uint64_t seed;
  fim::Support min_count;
  /// Explicit, zeroed tail padding: gtest prints this struct's raw bytes
  /// into the test name, so none of them may be indeterminate.
  std::uint32_t zero_fill = 0;
};
static_assert(sizeof(EqCase) == 40, "EqCase must have no implicit padding");

class EqClassSweep : public testing::TestWithParam<EqCase> {};

TEST_P(EqClassSweep, MatchesBruteForce) {
  const auto& c = GetParam();
  const auto db =
      testutil::random_db(c.num_trans, c.universe, c.density, c.seed);
  EqClassApriori miner(test_config());
  MiningParams p;
  p.min_support_abs = c.min_count;
  EXPECT_TRUE(miner.mine(db, p).itemsets.equivalent_to(
      testutil::brute_force(db, c.min_count)));
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, EqClassSweep,
    testing::Values(EqCase{100, 12, 0.2, 71, 5}, EqCase{150, 8, 0.5, 72, 15},
                    EqCase{60, 6, 0.8, 73, 20}, EqCase{90, 33, 0.5, 74, 30},
                    EqCase{200, 10, 0.35, 75, 10}));

TEST(EqClassApriori, MatchesCompleteIntersectionExactly) {
  const auto db = testutil::random_db(250, 12, 0.4, 76);
  MiningParams p;
  p.min_support_ratio = 0.08;
  GpApriori complete(test_config());
  EqClassApriori cached(test_config());
  EXPECT_TRUE(cached.mine(db, p).itemsets.equivalent_to(
      complete.mine(db, p).itemsets));
}

TEST(EqClassApriori, UsesMoreDeviceMemoryThanStaticBitset) {
  // The Fig. 4 tradeoff: caching intermediate rows must cost device memory
  // beyond the generation-1 arena.
  const auto db = testutil::random_db(300, 14, 0.5, 77);
  MiningParams p;
  p.min_support_ratio = 0.2;
  auto cfg = test_config();
  EqClassApriori cached(cfg);
  (void)cached.mine(db, p);

  // Generation-1 arena alone: 14 rows max.
  const auto pre = miners::preprocess(
      db, p.resolve_min_count(db.num_transactions()),
      miners::ItemOrder::kAscendingFreq);
  std::vector<fim::Item> rows(pre.original_item.size());
  for (fim::Item i = 0; i < rows.size(); ++i) rows[i] = i;
  const auto store = fim::BitsetStore::from_db(pre.db, rows);
  EXPECT_GT(cached.peak_device_bytes(), store.arena().size() * 4);
}

TEST(EqClassApriori, EmptyDatabase) {
  EqClassApriori miner(test_config());
  MiningParams p;
  p.min_support_abs = 1;
  EXPECT_TRUE(miner.mine(fim::TransactionDb::from_transactions({}), p)
                  .itemsets.empty());
}

TEST(EqClassApriori, MaxSizeCap) {
  const auto db = testutil::random_db(80, 8, 0.6, 78);
  MiningParams p;
  p.min_support_abs = 10;
  p.max_itemset_size = 3;
  EqClassApriori miner(test_config());
  const auto out = miner.mine(db, p);
  EXPECT_LE(out.itemsets.max_size(), 3u);
  EXPECT_TRUE(out.itemsets.equivalent_to(testutil::brute_force(db, 10, 3)));
}

TEST(EqClassApriori, InvalidConfigRejected) {
  auto cfg = test_config();
  cfg.block_size = 100;
  EXPECT_THROW(EqClassApriori m(cfg), std::invalid_argument);
}

}  // namespace
