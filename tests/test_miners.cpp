// Correctness of every CPU baseline miner against the brute-force oracle,
// parameterized over miner x database shape x support threshold (TEST_P
// property sweep), plus per-algorithm behavioural checks.

#include <gtest/gtest.h>

#include <cmath>
#include <iterator>
#include <limits>
#include <memory>
#include <vector>

#include "baselines/baselines.hpp"
#include "core/gpapriori_all.hpp"
#include "test_util.hpp"

namespace {

using miners::Miner;
using miners::MiningParams;

std::unique_ptr<Miner> make_miner(const std::string& name) {
  for (auto& m : miners::make_cpu_miners())
    if (m->name() == name) return std::move(m);
  throw std::logic_error("unknown miner: " + name);
}

const char* const kMinerNames[] = {
    "Borgelt Apriori", "Bodon Apriori",    "Goethals Apriori",
    "Eclat (tidsets)", "Eclat (diffsets)", "FP-Growth",
};

// gtest prints this struct's raw bytes into the test name, so it holds an
// index rather than a name pointer, and no implicit padding.
struct SweepCase {
  std::size_t miner;  ///< index into kMinerNames
  std::size_t num_trans;
  std::size_t universe;
  double density;
  std::uint64_t seed;
  fim::Support min_count;
  std::uint32_t zero_fill = 0;
};
static_assert(sizeof(SweepCase) == 48,
              "SweepCase must have no implicit padding");

std::string case_name(const testing::TestParamInfo<SweepCase>& info) {
  std::string n = kMinerNames[info.param.miner];
  for (char& c : n)
    if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
  return n + "_t" + std::to_string(info.param.num_trans) + "_u" +
         std::to_string(info.param.universe) + "_s" +
         std::to_string(info.param.min_count) + "_" +
         std::to_string(info.param.seed);
}

std::vector<SweepCase> sweep_cases() {
  std::vector<SweepCase> cases;
  for (std::size_t miner = 0; miner < std::size(kMinerNames); ++miner) {
    // Sparse, moderate, and dense shapes; several supports and seeds.
    cases.push_back({miner, 100, 12, 0.2, 1, 5});
    cases.push_back({miner, 100, 12, 0.2, 2, 2});
    cases.push_back({miner, 150, 8, 0.5, 3, 15});
    cases.push_back({miner, 150, 8, 0.5, 4, 40});
    cases.push_back({miner, 60, 6, 0.8, 5, 20});
    cases.push_back({miner, 40, 15, 0.3, 6, 3});
    cases.push_back({miner, 200, 10, 0.35, 7, 10});
  }
  return cases;
}

class MinerSweep : public testing::TestWithParam<SweepCase> {};

TEST_P(MinerSweep, MatchesBruteForceOracle) {
  const auto& c = GetParam();
  const auto db = testutil::random_db(c.num_trans, c.universe, c.density,
                                      c.seed);
  const auto expected = testutil::brute_force(db, c.min_count);

  auto miner = make_miner(kMinerNames[c.miner]);
  MiningParams params;
  params.min_support_abs = c.min_count;
  const auto got = miner->mine(db, params);
  EXPECT_TRUE(got.itemsets.equivalent_to(expected))
      << miner->name() << " disagrees with brute force:\n got:\n"
      << got.itemsets.to_string() << " expected:\n"
      << expected.to_string();
}

INSTANTIATE_TEST_SUITE_P(AllMiners, MinerSweep,
                         testing::ValuesIn(sweep_cases()), case_name);

// ---- shared behaviour across miners ----

class MinerCommon : public testing::TestWithParam<const char*> {};

TEST_P(MinerCommon, EmptyDatabaseYieldsNothing) {
  auto miner = make_miner(GetParam());
  MiningParams p;
  p.min_support_abs = 1;
  const auto out = miner->mine(fim::TransactionDb::from_transactions({}), p);
  EXPECT_TRUE(out.itemsets.empty());
}

TEST_P(MinerCommon, ThresholdAboveEverythingYieldsNothing) {
  auto miner = make_miner(GetParam());
  const auto db = testutil::random_db(30, 6, 0.5, 8);
  MiningParams p;
  p.min_support_abs = 31;
  EXPECT_TRUE(miner->mine(db, p).itemsets.empty());
}

TEST_P(MinerCommon, MinCountOneFindsEveryOccurringItemset) {
  auto miner = make_miner(GetParam());
  const auto db = fim::TransactionDb::from_transactions({{0, 1}, {2}});
  MiningParams p;
  p.min_support_abs = 1;
  const auto out = miner->mine(db, p);
  EXPECT_TRUE(out.itemsets.equivalent_to(testutil::brute_force(db, 1)));
}

TEST_P(MinerCommon, MaxItemsetSizeCap) {
  auto miner = make_miner(GetParam());
  const auto db = testutil::random_db(60, 8, 0.6, 9);
  MiningParams p;
  p.min_support_abs = 10;
  p.max_itemset_size = 2;
  const auto out = miner->mine(db, p);
  EXPECT_EQ(out.itemsets.max_size(), 2u);
  // And it matches brute force capped at the same size.
  EXPECT_TRUE(out.itemsets.equivalent_to(testutil::brute_force(db, 10, 2)));
}

TEST_P(MinerCommon, RatioThresholdUsesCeiling) {
  auto miner = make_miner(GetParam());
  // 3 transactions, ratio 0.5 -> min count ceil(1.5) = 2.
  const auto db =
      fim::TransactionDb::from_transactions({{0, 1}, {0}, {1}});
  MiningParams p;
  p.min_support_ratio = 0.5;
  const auto out = miner->mine(db, p);
  EXPECT_TRUE(out.itemsets.equivalent_to(testutil::brute_force(db, 2)));
}

TEST_P(MinerCommon, ReportsWallTime) {
  auto miner = make_miner(GetParam());
  const auto db = testutil::random_db(100, 10, 0.4, 10);
  MiningParams p;
  p.min_support_abs = 10;
  const auto out = miner->mine(db, p);
  EXPECT_GE(out.host_ms, 0.0);
  EXPECT_DOUBLE_EQ(out.device_ms, 0.0);  // CPU miners never bill a device
}

INSTANTIATE_TEST_SUITE_P(AllMiners, MinerCommon,
                         testing::ValuesIn(kMinerNames),
                         [](const testing::TestParamInfo<const char*>& p) {
                           std::string n = p.param;
                           for (char& ch : n)
                             if (!std::isalnum(static_cast<unsigned char>(ch)))
                               ch = '_';
                           return n;
                         });

// ---- algorithm-specific checks ----

TEST(MinerSpecific, LevelwiseMinersReportLevels) {
  const auto db = testutil::random_db(80, 8, 0.5, 12);
  MiningParams p;
  p.min_support_abs = 15;
  for (const char* name :
       {"Borgelt Apriori", "Bodon Apriori", "Goethals Apriori"}) {
    auto miner = make_miner(name);
    const auto out = miner->mine(db, p);
    ASSERT_GE(out.levels.size(), 2u) << name;
    EXPECT_EQ(out.levels[0].level, 1u);
    for (const auto& lvl : out.levels)
      EXPECT_GE(lvl.candidates, lvl.frequent) << name;
  }
}

TEST(MinerSpecific, EclatVariantsAgreeExactly) {
  const auto db = testutil::random_db(150, 10, 0.45, 14);
  MiningParams p;
  p.min_support_abs = 20;
  const auto tid = make_miner("Eclat (tidsets)")->mine(db, p);
  const auto diff = make_miner("Eclat (diffsets)")->mine(db, p);
  EXPECT_TRUE(tid.itemsets.equivalent_to(diff.itemsets));
}

TEST(MinerSpecific, RegistryHasAllTableOneCpuBaselines) {
  const auto all = miners::make_cpu_miners();
  EXPECT_EQ(all.size(), 6u);
  for (const auto& m : all) EXPECT_EQ(m->platform(), "Single thread CPU");
}

// ---- threshold validation ----

// A NaN, negative, zero, or > 1 ratio used to silently become min_count 1
// through the ceil path (an exhaustive mine at a garbage threshold). Every
// miner resolves its threshold through MiningParams::resolve_min_count, so
// the rejection is uniform: one validate() covers all of them.
TEST(MinerSpecific, EveryMinerRejectsUnusableThresholds) {
  const auto db = testutil::random_db(50, 6, 0.5, 21);
  const double bad_ratios[] = {std::nan(""), -0.5, 0.0, 1.0000001,
                               std::numeric_limits<double>::infinity()};
  std::vector<std::unique_ptr<Miner>> all = miners::make_cpu_miners();
  for (auto& m : gpapriori::make_all_miners()) {
    bool dup = false;
    for (const auto& existing : all)
      if (existing->name() == m->name()) dup = true;
    if (!dup) all.push_back(std::move(m));
  }
  for (const auto& m : all) {
    for (double ratio : bad_ratios) {
      MiningParams p;
      p.min_support_ratio = ratio;
      EXPECT_THROW((void)m->mine(db, p), std::invalid_argument)
          << m->name() << " ratio=" << ratio;
    }
    // A valid absolute count makes the ratio irrelevant.
    MiningParams p;
    p.min_support_ratio = std::nan("");
    p.min_support_abs = 10;
    EXPECT_NO_THROW((void)m->mine(db, p)) << m->name();
  }
}

TEST(MinerSpecific, ResolveMinCountValidatesOnce) {
  MiningParams p;
  p.min_support_ratio = -1.0;
  EXPECT_THROW((void)p.resolve_min_count(100), std::invalid_argument);
  p.min_support_ratio = 0.5;
  EXPECT_EQ(p.resolve_min_count(100), 50u);
  p.min_support_abs = 7;  // absolute wins; the ratio is no longer consulted
  p.min_support_ratio = std::nan("");
  EXPECT_EQ(p.resolve_min_count(100), 7u);
}

}  // namespace
