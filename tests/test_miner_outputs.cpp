// Cross-cutting MiningOutput contract checks: every miner returns a
// canonicalized collection, coherent level statistics, and bills time to
// the right columns (device_ms only for device-backed miners).

#include <gtest/gtest.h>

#include <algorithm>

#include "baselines/baselines.hpp"
#include "core/gpapriori_all.hpp"
#include "test_util.hpp"

namespace {

bool is_canonical(const fim::ItemsetCollection& c) {
  return std::is_sorted(c.begin(), c.end(),
                        [](const fim::FrequentItemset& a,
                           const fim::FrequentItemset& b) {
                          return a.items < b.items;
                        });
}

TEST(MinerOutputContract, AllMinersReturnCanonicalCollections) {
  const auto db = testutil::random_db(150, 10, 0.4, 801);
  miners::MiningParams p;
  p.min_support_abs = 15;
  for (auto& m : gpapriori::make_all_miners()) {
    const auto out = m->mine(db, p);
    EXPECT_TRUE(is_canonical(out.itemsets)) << m->name();
    EXPECT_GE(out.host_ms, 0.0) << m->name();
  }
}

TEST(MinerOutputContract, DeviceTimeOnlyOnDeviceMiners) {
  const auto db = testutil::random_db(150, 10, 0.4, 802);
  miners::MiningParams p;
  p.min_support_abs = 12;
  for (auto& m : gpapriori::make_all_miners()) {
    const auto out = m->mine(db, p);
    const bool device_backed =
        std::string(m->platform()).find("GPU") != std::string::npos;
    if (device_backed)
      EXPECT_GT(out.device_ms, 0.0) << m->name();
    else
      EXPECT_DOUBLE_EQ(out.device_ms, 0.0) << m->name();
  }
}

TEST(MinerOutputContract, LevelwiseStatsSumToCollection) {
  const auto db = testutil::random_db(200, 9, 0.45, 803);
  miners::MiningParams p;
  p.min_support_abs = 25;
  // Every levelwise miner (GPApriori family + trie/hash-tree baselines).
  std::vector<std::unique_ptr<miners::Miner>> levelwise;
  levelwise.push_back(std::make_unique<gpapriori::GpApriori>());
  levelwise.push_back(std::make_unique<gpapriori::CpuBitsetApriori>());
  levelwise.push_back(std::make_unique<gpapriori::EqClassApriori>());
  levelwise.push_back(std::make_unique<gpapriori::HybridApriori>());
  levelwise.push_back(std::make_unique<gpapriori::MultiGpuApriori>(
      gpapriori::Config{}, 2));
  levelwise.push_back(std::make_unique<gpapriori::PipelinedGpApriori>());
  levelwise.push_back(std::make_unique<gpapriori::PartitionedGpApriori>());
  levelwise.push_back(std::make_unique<miners::BorgeltApriori>());
  levelwise.push_back(std::make_unique<miners::BodonApriori>());
  levelwise.push_back(std::make_unique<miners::GoethalsApriori>());
  for (auto& m : levelwise) {
    const auto out = m->mine(db, p);
    ASSERT_FALSE(out.levels.empty()) << m->name();
    std::size_t total = 0;
    std::size_t prev_level = 0;
    for (const auto& lvl : out.levels) {
      EXPECT_EQ(lvl.level, prev_level + 1) << m->name();
      prev_level = lvl.level;
      EXPECT_GE(lvl.candidates, lvl.frequent) << m->name();
      total += lvl.frequent;
    }
    EXPECT_EQ(total, out.itemsets.size()) << m->name();
    // Per-level counts by size agree with the collection's histogram.
    const auto by_size = out.itemsets.counts_by_size();
    for (const auto& lvl : out.levels) {
      if (lvl.level < by_size.size()) {
        EXPECT_EQ(by_size[lvl.level], lvl.frequent)
            << m->name() << " level " << lvl.level;
      }
    }
  }
}

TEST(MinerOutputContract, TotalMsIsHostPlusDevice) {
  miners::MiningOutput out;
  out.host_ms = 3.5;
  out.device_ms = 1.25;
  EXPECT_DOUBLE_EQ(out.total_ms(), 4.75);
}

TEST(MinerOutputContract, ResolveMinCountSemantics) {
  miners::MiningParams p;
  p.min_support_ratio = 0.5;
  EXPECT_EQ(p.resolve_min_count(4), 2u);
  EXPECT_EQ(p.resolve_min_count(5), 3u);  // ceil
  EXPECT_EQ(p.resolve_min_count(0), 1u);  // clamp to 1
  p.min_support_abs = 7;  // absolute takes precedence
  EXPECT_EQ(p.resolve_min_count(1000), 7u);
  miners::MiningParams tiny;
  tiny.min_support_ratio = 1e-9;
  EXPECT_EQ(tiny.resolve_min_count(100), 1u);
}

}  // namespace
