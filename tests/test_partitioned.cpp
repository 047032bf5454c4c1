#include "core/partitioned.hpp"

#include <gtest/gtest.h>

#include "core/gpapriori.hpp"
#include "test_util.hpp"

namespace {

using gpapriori::Config;
using gpapriori::PartitionedGpApriori;
using miners::MiningParams;

/// `budget` is Config::partition_budget_bytes (0 = a quarter of the
/// 32 MiB arena).
Config test_config(std::size_t budget = 0) {
  Config cfg;
  cfg.block_size = 64;
  cfg.arena_bytes = 32 << 20;
  cfg.strict_memory = true;
  cfg.partition_budget_bytes = budget;
  return cfg;
}

TEST(Partitioned, SingleChunkDegeneratesToStatic) {
  const auto db = testutil::random_db(200, 12, 0.4, 501);
  MiningParams p;
  p.min_support_abs = 20;
  PartitionedGpApriori miner(test_config());
  const auto out = miner.mine(db, p);
  EXPECT_EQ(miner.num_partitions(), 1u);
  EXPECT_TRUE(out.itemsets.equivalent_to(testutil::brute_force(db, 20)));
}

TEST(Partitioned, OneChunkRunIsTheStaticRun) {
  // A store that fits the budget in one chunk is the paper's static
  // design: uploaded once and kept resident, so the modeled program is
  // GPApriori's launch for launch and copy for copy.
  const auto db = testutil::random_db(1500, 12, 0.35, 508);
  MiningParams p;
  p.min_support_ratio = 0.08;
  for (const bool tiled : {true, false}) {
    SCOPED_TRACE(tiled);
    Config cfg = test_config();
    cfg.tiled = tiled;
    gpapriori::GpApriori static_miner(cfg);
    PartitionedGpApriori one(cfg);
    const auto want = static_miner.mine(db, p);
    const auto got = one.mine(db, p);
    ASSERT_EQ(one.num_partitions(), 1u);
    EXPECT_EQ(got.itemsets.to_string(), want.itemsets.to_string());
    EXPECT_EQ(one.ledger().launches, static_miner.ledger().launches);
    EXPECT_EQ(one.ledger().h2d_transfers, static_miner.ledger().h2d_transfers);
    EXPECT_EQ(got.device_ms, want.device_ms);
  }
}

TEST(Partitioned, ChunkedCountingIsExact) {
  // 2000 transactions, budget forcing several chunks; supports must be
  // identical to the one-chunk run and the brute-force oracle.
  const auto db = testutil::random_db(2000, 10, 0.4, 502);
  MiningParams p;
  p.min_support_ratio = 0.1;
  const auto expected =
      testutil::brute_force(db, p.resolve_min_count(db.num_transactions()));

  // ~10 rows x 64-word stride = 2.5 KiB resident slice for the whole
  // database; a 1 KiB budget forces ~4 chunks with boundaries that are NOT
  // word-aligned multiples of 32 transactions.
  PartitionedGpApriori miner(test_config(1 << 10));
  const auto out = miner.mine(db, p);
  EXPECT_GT(miner.num_partitions(), 1u);
  EXPECT_TRUE(out.itemsets.equivalent_to(expected));
}

TEST(Partitioned, ManyChunkCountsAgreeAcrossBudgets) {
  const auto db = testutil::random_db(3000, 8, 0.5, 503);
  MiningParams p;
  p.min_support_ratio = 0.2;
  fim::ItemsetCollection ref;
  std::size_t last_parts = 0;
  bool first = true;
  for (std::size_t budget : {0ul, 2048ul, 1024ul, 512ul}) {
    PartitionedGpApriori miner(test_config(budget));
    const auto out = miner.mine(db, p);
    if (first) {
      ref = out.itemsets;
      first = false;
    } else {
      EXPECT_TRUE(out.itemsets.equivalent_to(ref)) << budget;
      EXPECT_GE(miner.num_partitions(), last_parts) << budget;
    }
    last_parts = miner.num_partitions();
  }
  EXPECT_GT(last_parts, 2u);
}

TEST(Partitioned, MatchesStaticDriverExactly) {
  const auto db = testutil::random_db(1500, 12, 0.35, 504);
  MiningParams p;
  p.min_support_ratio = 0.08;
  gpapriori::GpApriori static_miner(test_config());
  PartitionedGpApriori streamed(test_config(16 << 10));
  EXPECT_TRUE(streamed.mine(db, p).itemsets.equivalent_to(
      static_miner.mine(db, p).itemsets));
}

TEST(Partitioned, StreamingCostsMoreTransfers) {
  const auto db = testutil::random_db(3000, 10, 0.4, 505);
  MiningParams p;
  p.min_support_ratio = 0.15;
  PartitionedGpApriori one(test_config());
  PartitionedGpApriori many(test_config(1 << 10));
  (void)one.mine(db, p);
  (void)many.mine(db, p);
  EXPECT_GT(many.ledger().h2d_transfers, one.ledger().h2d_transfers);
  EXPECT_GT(many.ledger().h2d_ns, one.ledger().h2d_ns);
}

TEST(Partitioned, ImpossibleBudgetRejected) {
  const auto db = testutil::random_db(5000, 30, 0.5, 506);
  MiningParams p;
  p.min_support_ratio = 0.3;
  // The budget is below one 512-transaction slice: the store cannot be
  // cut to fit, which is an out-of-memory condition (the ladder's second
  // rung raises the same error and moves on to CPU_TEST).
  PartitionedGpApriori miner(test_config(64));
  EXPECT_THROW((void)miner.mine(db, p), gpusim::DeviceOomError);
}

TEST(Partitioned, TransientFaultsAndCorruptDownloadsAreRepaired) {
  // The streamed driver shares the static driver's fault-aware device: a
  // transient launch timeout is retried and a silently corrupted support
  // download is caught by its checksum and re-transferred.
  const auto db = testutil::random_db(2000, 10, 0.4, 507);
  MiningParams p;
  p.min_support_ratio = 0.1;
  const auto clean = PartitionedGpApriori(test_config(1 << 10)).mine(db, p);
  Config cfg = test_config(1 << 10);
  cfg.fault_plan = gpusim::FaultPlan::parse("launch#2=timeout;d2h#1=corrupt");
  PartitionedGpApriori miner(cfg);
  EXPECT_EQ(miner.mine(db, p).itemsets.to_string(), clean.itemsets.to_string());
  EXPECT_GT(miner.num_partitions(), 1u);
}

TEST(Partitioned, EmptyDatabase) {
  PartitionedGpApriori miner(test_config(1 << 10));
  MiningParams p;
  p.min_support_abs = 1;
  EXPECT_TRUE(miner.mine(fim::TransactionDb::from_transactions({}), p)
                  .itemsets.empty());
  EXPECT_EQ(miner.num_partitions(), 0u);
}

}  // namespace
