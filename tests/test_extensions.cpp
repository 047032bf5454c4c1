// Tests for the §VI future-work extensions: GPU Eclat, the load-balanced
// hybrid CPU/GPU miner, and multi-GPU mining across the S1070's four T10s.

#include <gtest/gtest.h>

#include "core/gpapriori_all.hpp"
#include "test_util.hpp"

namespace {

using gpapriori::Config;
using gpapriori::GpuEclat;
using gpapriori::HybridApriori;
using gpapriori::MultiGpuApriori;
using miners::MiningParams;

Config test_config() {
  Config cfg;
  cfg.block_size = 64;
  cfg.arena_bytes = 64 << 20;
  cfg.strict_memory = true;
  cfg.sample_stride = 0;  // DFS miners launch many kernels; skip sampling
  return cfg;
}

struct ExtCase {
  std::size_t num_trans;
  std::size_t universe;
  double density;
  std::uint64_t seed;
  fim::Support min_count;
  /// Explicit, zeroed tail padding: gtest prints this struct's raw bytes
  /// into the test name, so none of them may be indeterminate.
  std::uint32_t zero_fill = 0;
};
static_assert(sizeof(ExtCase) == 40, "ExtCase must have no implicit padding");

class ExtensionSweep : public testing::TestWithParam<ExtCase> {};

TEST_P(ExtensionSweep, AllExtensionsMatchBruteForce) {
  const auto& c = GetParam();
  const auto db =
      testutil::random_db(c.num_trans, c.universe, c.density, c.seed);
  const auto expected = testutil::brute_force(db, c.min_count);
  MiningParams p;
  p.min_support_abs = c.min_count;

  GpuEclat eclat(test_config());
  EXPECT_TRUE(eclat.mine(db, p).itemsets.equivalent_to(expected)) << "eclat";
  HybridApriori hybrid(test_config());
  EXPECT_TRUE(hybrid.mine(db, p).itemsets.equivalent_to(expected)) << "hybrid";
  MultiGpuApriori multi(test_config(), 4);
  EXPECT_TRUE(multi.mine(db, p).itemsets.equivalent_to(expected)) << "multi";
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ExtensionSweep,
    testing::Values(ExtCase{100, 12, 0.2, 81, 5}, ExtCase{150, 8, 0.5, 82, 15},
                    ExtCase{60, 6, 0.8, 83, 20}, ExtCase{90, 33, 0.5, 84, 30},
                    ExtCase{200, 10, 0.35, 85, 10}));

// --- GPU Eclat specifics ---

TEST(GpuEclatTest, DeviceMemoryBoundedByDfsPath) {
  const auto db = testutil::random_db(200, 12, 0.5, 86);
  MiningParams p;
  p.min_support_ratio = 0.15;
  auto cfg = test_config();
  GpuEclat miner(cfg);
  (void)miner.mine(db, p);
  EXPECT_GT(miner.peak_device_bytes(), 0u);
  EXPECT_LT(miner.peak_device_bytes(), cfg.arena_bytes);
  EXPECT_GT(miner.ledger().launches, 0u);
}

TEST(GpuEclatTest, MaxSizeCap) {
  const auto db = testutil::random_db(80, 8, 0.6, 87);
  MiningParams p;
  p.min_support_abs = 10;
  p.max_itemset_size = 2;
  GpuEclat miner(test_config());
  const auto out = miner.mine(db, p);
  EXPECT_EQ(out.itemsets.max_size(), 2u);
  EXPECT_TRUE(out.itemsets.equivalent_to(testutil::brute_force(db, 10, 2)));
}

TEST(GpuEclatTest, EmptyDatabase) {
  GpuEclat miner(test_config());
  MiningParams p;
  p.min_support_abs = 1;
  EXPECT_TRUE(miner.mine(fim::TransactionDb::from_transactions({}), p)
                  .itemsets.empty());
}

// --- hybrid specifics ---

TEST(HybridTest, SplitFractionsAreRecordedAndAdapt) {
  const auto db = testutil::random_db(400, 14, 0.4, 88);
  MiningParams p;
  p.min_support_ratio = 0.1;
  HybridApriori miner(test_config(), /*initial_gpu_fraction=*/0.5);
  (void)miner.mine(db, p);
  const auto& reports = miner.level_reports();
  ASSERT_GE(reports.size(), 2u);
  // Seed used at level 2 (up to candidate-count rounding).
  EXPECT_NEAR(reports[0].gpu_fraction, 0.5, 0.02);
  for (const auto& r : reports) {
    EXPECT_GE(r.gpu_fraction, 0.0);
    EXPECT_LE(r.gpu_fraction, 1.0);
    EXPECT_GE(r.cpu_ms, 0.0);
    EXPECT_GE(r.gpu_ms, 0.0);
  }
}

TEST(HybridTest, PureGpuAndPureCpuFractionsStillCorrect) {
  const auto db = testutil::random_db(150, 10, 0.4, 89);
  const auto expected = testutil::brute_force(db, 15);
  MiningParams p;
  p.min_support_abs = 15;
  for (double f : {0.0, 1.0}) {
    HybridApriori miner(test_config(), f);
    EXPECT_TRUE(miner.mine(db, p).itemsets.equivalent_to(expected)) << f;
  }
}

TEST(HybridTest, RejectsBadFraction) {
  EXPECT_THROW(HybridApriori m(test_config(), 1.5), std::invalid_argument);
  EXPECT_THROW(HybridApriori m(test_config(), -0.1), std::invalid_argument);
}

// --- multi-GPU specifics ---

TEST(MultiGpuTest, DeviceCountsAgree) {
  const auto db = testutil::random_db(300, 12, 0.4, 90);
  MiningParams p;
  p.min_support_ratio = 0.1;
  fim::ItemsetCollection ref;
  for (int d : {1, 2, 3, 4}) {
    MultiGpuApriori miner(test_config(), d);
    const auto out = miner.mine(db, p);
    if (d == 1)
      ref = out.itemsets;
    else
      EXPECT_TRUE(out.itemsets.equivalent_to(ref)) << d << " devices";
  }
}

TEST(MultiGpuTest, PartitioningCoversAllCandidatesOnce) {
  const auto db = testutil::random_db(300, 12, 0.4, 91);
  MiningParams p;
  p.min_support_ratio = 0.1;
  MultiGpuApriori miner(test_config(), 3);
  (void)miner.mine(db, p);
  for (const auto& r : miner.level_reports()) {
    EXPECT_EQ(r.per_device_ms.size(), 3u);
    EXPECT_GT(r.level_ms, 0.0);
    // level time is the max, so no device exceeds it.
    for (double ms : r.per_device_ms) EXPECT_LE(ms, r.level_ms + 1e-9);
  }
}

TEST(MultiGpuTest, MoreDevicesNeverSlowerOnWideLevels) {
  // A counting-heavy workload: device time with 4 GPUs must undercut 1 GPU.
  const auto db = testutil::random_db(2000, 24, 0.35, 92);
  MiningParams p;
  p.min_support_ratio = 0.05;
  MultiGpuApriori one(test_config(), 1);
  MultiGpuApriori four(test_config(), 4);
  const auto a = one.mine(db, p);
  const auto b = four.mine(db, p);
  EXPECT_LT(b.device_ms, a.device_ms);
}

TEST(MultiGpuTest, NameReflectsDeviceCount) {
  MultiGpuApriori miner(test_config(), 4);
  EXPECT_EQ(miner.name(), "GPApriori x4");
  EXPECT_THROW(MultiGpuApriori m(test_config(), 0), std::invalid_argument);
  EXPECT_THROW(MultiGpuApriori m(test_config(), 17), std::invalid_argument);
}

}  // namespace
