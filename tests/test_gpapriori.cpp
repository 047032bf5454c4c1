#include "core/gpapriori.hpp"

#include <gtest/gtest.h>

#include "test_util.hpp"

namespace {

using gpapriori::Config;
using gpapriori::CpuBitsetApriori;
using gpapriori::GpApriori;
using miners::MiningParams;

Config test_config() {
  Config cfg;
  cfg.block_size = 64;
  cfg.arena_bytes = 32 << 20;
  cfg.strict_memory = true;  // every simulated access validated
  cfg.sample_stride = 1;
  return cfg;
}

TEST(GpApriori, PaperFig2Example) {
  const auto db = fim::TransactionDb::from_transactions({
      {1, 2, 3, 4, 5},
      {2, 3, 4, 5, 6},
      {3, 4, 6, 7},
      {1, 3, 4, 5, 6},
  });
  GpApriori miner(test_config());
  MiningParams p;
  p.min_support_ratio = 0.5;
  const auto out = miner.mine(db, p);
  EXPECT_TRUE(out.itemsets.equivalent_to(testutil::brute_force(db, 2)));
  // Supports from Fig. 2: item 3 and 4 in all four transactions.
  EXPECT_EQ(out.itemsets.support_of(fim::Itemset{3}), 4u);
  EXPECT_EQ(out.itemsets.support_of(fim::Itemset{3, 4}), 4u);
  EXPECT_EQ(out.itemsets.support_of(fim::Itemset{7}), std::nullopt);
}

struct GpCase {
  std::size_t num_trans;
  std::size_t universe;
  double density;
  std::uint64_t seed;
  fim::Support min_count;
  /// Explicit, zeroed tail padding: gtest prints this struct's raw bytes
  /// into the test name, so none of them may be indeterminate.
  std::uint32_t zero_fill = 0;
};
static_assert(sizeof(GpCase) == 40, "GpCase must have no implicit padding");

class GpAprioriSweep : public testing::TestWithParam<GpCase> {};

TEST_P(GpAprioriSweep, MatchesBruteForce) {
  const auto& c = GetParam();
  const auto db =
      testutil::random_db(c.num_trans, c.universe, c.density, c.seed);
  const auto expected = testutil::brute_force(db, c.min_count);
  GpApriori gpu(test_config());
  CpuBitsetApriori cpu;
  MiningParams p;
  p.min_support_abs = c.min_count;
  EXPECT_TRUE(gpu.mine(db, p).itemsets.equivalent_to(expected));
  EXPECT_TRUE(cpu.mine(db, p).itemsets.equivalent_to(expected));
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GpAprioriSweep,
    testing::Values(GpCase{100, 12, 0.2, 51, 5}, GpCase{150, 8, 0.5, 52, 15},
                    GpCase{60, 6, 0.8, 53, 20}, GpCase{40, 15, 0.3, 54, 3},
                    GpCase{200, 10, 0.35, 55, 10},
                    GpCase{90, 33, 0.5, 56, 30},  // > 1 word of bitset
                    GpCase{300, 5, 0.9, 57, 100}));

TEST(GpApriori, BlockSizeDoesNotChangeResults) {
  const auto db = testutil::random_db(120, 10, 0.4, 61);
  MiningParams p;
  p.min_support_abs = 10;
  fim::ItemsetCollection ref;
  for (std::uint32_t bs : {32u, 64u, 128u, 256u, 512u}) {
    auto cfg = test_config();
    cfg.block_size = bs;
    GpApriori miner(cfg);
    const auto out = miner.mine(db, p);
    if (bs == 32)
      ref = out.itemsets;
    else
      EXPECT_TRUE(out.itemsets.equivalent_to(ref)) << "block " << bs;
  }
}

TEST(GpApriori, OptimizationTogglesDoNotChangeResults) {
  const auto db = testutil::random_db(120, 10, 0.4, 62);
  MiningParams p;
  p.min_support_abs = 8;
  auto base_cfg = test_config();
  GpApriori base(base_cfg);
  const auto ref = base.mine(db, p).itemsets;
  for (bool preload : {true, false}) {
    for (std::uint32_t unroll : {1u, 2u, 8u}) {
      auto cfg = test_config();
      cfg.candidate_preload = preload;
      cfg.unroll = unroll;
      GpApriori miner(cfg);
      EXPECT_TRUE(miner.mine(db, p).itemsets.equivalent_to(ref))
          << preload << " " << unroll;
    }
  }
}

TEST(GpApriori, AutoBlockSizeMatchesFixedResults) {
  const auto db = testutil::random_db(120, 10, 0.4, 68);
  MiningParams p;
  p.min_support_abs = 10;
  auto fixed_cfg = test_config();
  GpApriori fixed(fixed_cfg);
  auto auto_cfg = test_config();
  auto_cfg.block_size = 0;  // auto-tune
  GpApriori tuned(auto_cfg);
  EXPECT_TRUE(
      tuned.mine(db, p).itemsets.equivalent_to(fixed.mine(db, p).itemsets));
  // The tuner's rule itself.
  EXPECT_EQ(Config::auto_block_size(1), 64u);
  EXPECT_EQ(Config::auto_block_size(64), 64u);
  EXPECT_EQ(Config::auto_block_size(65), 128u);
  EXPECT_EQ(Config::auto_block_size(100), 128u);
  EXPECT_EQ(Config::auto_block_size(10'000), 256u);
}

TEST(GpApriori, InvalidConfigRejected) {
  auto cfg = test_config();
  cfg.block_size = 48;  // not a power of two
  EXPECT_THROW(GpApriori m(cfg), std::invalid_argument);
  cfg = test_config();
  cfg.block_size = 1024;  // beyond the T10 limit
  EXPECT_THROW(GpApriori m(cfg), std::invalid_argument);
  cfg = test_config();
  cfg.unroll = 0;
  EXPECT_THROW(GpApriori m(cfg), std::invalid_argument);
}

TEST(GpApriori, EmptyAndDegenerateInputs) {
  GpApriori miner(test_config());
  MiningParams p;
  p.min_support_abs = 1;
  EXPECT_TRUE(
      miner.mine(fim::TransactionDb::from_transactions({}), p).itemsets.empty());
  const auto single =
      miner.mine(fim::TransactionDb::from_transactions({{5}}), p);
  EXPECT_EQ(single.itemsets.size(), 1u);
  EXPECT_EQ(single.itemsets.support_of(fim::Itemset{5}), 1u);
}

TEST(GpApriori, MaxItemsetSizeCap) {
  const auto db = testutil::random_db(80, 8, 0.6, 63);
  MiningParams p;
  p.min_support_abs = 10;
  p.max_itemset_size = 2;
  GpApriori miner(test_config());
  const auto out = miner.mine(db, p);
  EXPECT_EQ(out.itemsets.max_size(), 2u);
  EXPECT_TRUE(out.itemsets.equivalent_to(testutil::brute_force(db, 10, 2)));
}

TEST(GpApriori, DeviceLedgerAndHistoryPopulated) {
  const auto db = testutil::random_db(150, 10, 0.4, 64);
  MiningParams p;
  p.min_support_abs = 15;
  GpApriori miner(test_config());
  const auto out = miner.mine(db, p);
  EXPECT_GT(out.device_ms, 0.0);
  EXPECT_GT(miner.ledger().launches, 0u);
  // One bitset upload plus one packed candidate-table upload per counting
  // level (prefix rows, sibling rows, and group offsets ship as a single
  // transfer; the level-1 entry has no copy).
  EXPECT_EQ(miner.ledger().h2d_transfers, out.levels.size());
  EXPECT_FALSE(miner.launch_history().empty());
  EXPECT_EQ(miner.launch_history()[0].kernel_name, "gpapriori_support_tiled");
  // Fresh mine resets state.
  (void)miner.mine(db, p);
  EXPECT_GT(miner.ledger().launches, 0u);
}

TEST(GpApriori, LevelStatsAreConsistent) {
  const auto db = testutil::random_db(150, 9, 0.5, 65);
  MiningParams p;
  p.min_support_abs = 30;
  GpApriori miner(test_config());
  const auto out = miner.mine(db, p);
  ASSERT_GE(out.levels.size(), 2u);
  std::size_t from_levels = 0;
  for (const auto& lvl : out.levels) {
    EXPECT_GE(lvl.candidates, lvl.frequent);
    from_levels += lvl.frequent;
  }
  EXPECT_EQ(from_levels, out.itemsets.size());
  // Device time appears only on counting levels (k >= 2).
  EXPECT_DOUBLE_EQ(out.levels[0].device_ms, 0.0);
  EXPECT_GT(out.levels[1].device_ms, 0.0);
}

TEST(GpApriori, AgreesWithCpuTestOnSupportsExactly) {
  const auto db = testutil::random_db(250, 12, 0.35, 66);
  MiningParams p;
  p.min_support_ratio = 0.08;
  GpApriori gpu(test_config());
  CpuBitsetApriori cpu;
  const auto a = gpu.mine(db, p);
  const auto b = cpu.mine(db, p);
  EXPECT_TRUE(a.itemsets.equivalent_to(b.itemsets));
}

TEST(CpuBitsetAprioriTest, NameAndPlatformMatchTable1) {
  CpuBitsetApriori m;
  EXPECT_EQ(m.name(), "CPU_TEST");
  EXPECT_EQ(m.platform(), "Single thread CPU");
  GpApriori g;
  EXPECT_EQ(g.platform(), "GPU + single thread CPU");
}

TEST(Registry, AllMinersPresentInTable1Order) {
  const auto all = gpapriori::make_all_miners();
  ASSERT_EQ(all.size(), 8u);
  EXPECT_EQ(all[0]->name(), "GPApriori");
  EXPECT_EQ(all[1]->name(), "CPU_TEST");
  EXPECT_EQ(all[2]->name(), "Borgelt Apriori");
  EXPECT_EQ(all[3]->name(), "Bodon Apriori");
  EXPECT_EQ(all[4]->name(), "Goethals Apriori");
}

}  // namespace
