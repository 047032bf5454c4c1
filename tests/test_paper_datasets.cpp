// Property sweep over the four paper dataset profiles: at small scale,
// every miner — Table 1, extensions, and scalability variants — must agree
// on every dataset at several supports, and the profile shapes must hold
// across scales and seeds.

#include <gtest/gtest.h>

#include <cstdint>

#include "baselines/baselines.hpp"
#include "core/gpapriori_all.hpp"
#include "datagen/datagen.hpp"
#include "fim/dataset_stats.hpp"
#include "test_util.hpp"

namespace {

// gtest names each case after the raw bytes of its parameter, and CTest keeps
// that name, so the bytes must not include uninitialised padding: the filler
// after the 4-byte id is an explicit, zeroed member.
struct SweepCase {
  SweepCase(datagen::DatasetId id_, const char* name_, double scale_,
            double support_)
      : id(id_), name(name_), scale(scale_), support(support_) {}

  datagen::DatasetId id;
  std::uint32_t zero_fill = 0;
  const char* name;
  double scale;
  double support;
};
static_assert(sizeof(datagen::DatasetId) == 4 && sizeof(SweepCase) == 32,
              "SweepCase must have no implicit padding");

std::string case_name(const testing::TestParamInfo<SweepCase>& info) {
  std::string s = std::string(info.param.name) + "_s" +
                  std::to_string(static_cast<int>(info.param.support * 1000));
  return s;
}

class DatasetSweep : public testing::TestWithParam<SweepCase> {};

TEST_P(DatasetSweep, EveryMinerAgrees) {
  const auto& c = GetParam();
  const auto db = datagen::profile(c.id).generate(c.scale);
  miners::MiningParams p;
  p.min_support_ratio = c.support;

  gpapriori::Config cfg;
  cfg.arena_bytes = 64 << 20;
  cfg.sample_stride = 0;

  fim::ItemsetCollection ref;
  {
    gpapriori::GpApriori gpu(cfg);
    ref = gpu.mine(db, p).itemsets;
    ASSERT_FALSE(ref.empty());
  }
  auto check = [&](miners::Miner& m) {
    EXPECT_TRUE(m.mine(db, p).itemsets.equivalent_to(ref)) << m.name();
  };
  for (auto& m : miners::make_cpu_miners()) check(*m);
  gpapriori::CpuBitsetApriori cpu;
  check(cpu);
  gpapriori::EqClassApriori eq(cfg);
  check(eq);
  gpapriori::GpuEclat ge(cfg);
  check(ge);
  gpapriori::HybridApriori hy(cfg);
  check(hy);
  gpapriori::MultiGpuApriori mg(cfg, 2);
  check(mg);
  gpapriori::PipelinedGpApriori pl(cfg, 3);
  check(pl);
  gpapriori::Config streamed = cfg;
  streamed.partition_budget_bytes = 256 << 10;
  gpapriori::PartitionedGpApriori pt(streamed);
  check(pt);
}

INSTANTIATE_TEST_SUITE_P(
    Profiles, DatasetSweep,
    testing::Values(
        SweepCase{datagen::DatasetId::kChess, "chess", 0.06, 0.85},
        SweepCase{datagen::DatasetId::kChess, "chess", 0.06, 0.70},
        SweepCase{datagen::DatasetId::kPumsb, "pumsb", 0.012, 0.90},
        SweepCase{datagen::DatasetId::kPumsb, "pumsb", 0.012, 0.82},
        SweepCase{datagen::DatasetId::kT40I10D100K, "t40", 0.006, 0.05},
        SweepCase{datagen::DatasetId::kT40I10D100K, "t40", 0.006, 0.04},
        SweepCase{datagen::DatasetId::kAccidents, "accidents", 0.003, 0.65},
        SweepCase{datagen::DatasetId::kAccidents, "accidents", 0.003, 0.45}),
    case_name);

TEST(DatasetShapes, StableAcrossSeeds) {
  // The Table 2 statistics are properties of the profile, not of one seed.
  for (const auto& prof : datagen::all_profiles()) {
    const auto a = fim::compute_stats(prof.generate(0.02, 0));
    const auto b = fim::compute_stats(prof.generate(0.02, 99));
    EXPECT_NEAR(a.avg_transaction_length, b.avg_transaction_length,
                a.avg_transaction_length * 0.1 + 0.5)
        << prof.name;
    EXPECT_NEAR(a.top_item_frequency, b.top_item_frequency, 0.1) << prof.name;
  }
}

TEST(DatasetShapes, DenseProfilesMineDeeperThanSparseAtSameRelativeBar) {
  // chess/pumsb character: at 80% support they still hold multi-item sets;
  // T40 at the same relative bar holds (almost) nothing beyond singletons.
  miners::MiningParams p;
  p.min_support_ratio = 0.8;
  gpapriori::CpuBitsetApriori miner;
  const auto chess =
      miner.mine(datagen::profile(datagen::DatasetId::kChess).generate(0.2), p);
  const auto t40 = miner.mine(
      datagen::profile(datagen::DatasetId::kT40I10D100K).generate(0.02), p);
  EXPECT_GE(chess.itemsets.max_size(), 3u);
  EXPECT_LE(t40.itemsets.max_size(), 1u);
}

}  // namespace
