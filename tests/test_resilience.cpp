// Resilience acceptance drills: under each seeded fault scenario GpApriori
// completes without throwing, the ResilienceReport records the expected
// handling, and the mined itemsets are bit-exact against a fault-free
// CPU_TEST run of the same database.

#include "core/resilience.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <numeric>
#include <span>
#include <string>
#include <tuple>
#include <vector>

#include "core/gpapriori_all.hpp"
#include "gpusim/gpusim.hpp"
#include "obs/obs.hpp"
#include "test_util.hpp"

namespace {

using namespace gpapriori;

fim::TransactionDb drill_db() { return testutil::random_db(300, 14, 0.4, 77); }

miners::MiningParams drill_params() {
  miners::MiningParams p;
  p.min_support_abs = 30;
  return p;
}

fim::ItemsetCollection reference(const fim::TransactionDb& db,
                                 const miners::MiningParams& p) {
  return CpuBitsetApriori().mine(db, p).itemsets;
}

Config faulty_config(const std::string& plan_spec) {
  Config cfg;
  cfg.fault_plan = gpusim::FaultPlan::parse(plan_spec);
  return cfg;
}

TEST(Resilience, FaultFreeRunReportsNothing) {
  const auto db = drill_db();
  GpApriori miner;
  const auto out = miner.mine(db, drill_params());
  const auto& rep = miner.resilience_report();
  EXPECT_FALSE(rep.degraded());
  EXPECT_EQ(rep.retries, 0u);
  EXPECT_EQ(rep.corruption_detected, 0u);
  EXPECT_EQ(rep.device_faults.total_injected(), 0u);
  EXPECT_TRUE(out.itemsets.equivalent_to(reference(db, drill_params())));
}

// Scenario 1 of the acceptance drill: a transient transfer fault is
// retried and the run completes undegraded.
TEST(Resilience, TransientTransferFaultIsRetried) {
  const auto db = drill_db();
  GpApriori miner(faulty_config("h2d#2=fail"));
  const auto out = miner.mine(db, drill_params());
  const auto& rep = miner.resilience_report();
  EXPECT_EQ(rep.degraded_to, DegradationStep::kNone);
  EXPECT_GE(rep.retries, 1u);
  EXPECT_GT(rep.backoff_ms, 0.0);
  EXPECT_EQ(rep.device_faults.injected_transfer_fail, 1u);
  EXPECT_TRUE(out.itemsets.equivalent_to(reference(db, drill_params())));
}

// Silent D2H corruption is caught by the checksum and repaired by
// re-transfer — the corrupted support counts never reach the miner.
TEST(Resilience, D2hCorruptionIsDetectedAndRepaired) {
  const auto db = drill_db();
  GpApriori miner(faulty_config("d2h#1=corrupt"));
  const auto out = miner.mine(db, drill_params());
  const auto& rep = miner.resilience_report();
  EXPECT_EQ(rep.degraded_to, DegradationStep::kNone);
  EXPECT_GE(rep.corruption_detected, 1u);
  EXPECT_GE(rep.retransfers, 1u);
  EXPECT_EQ(rep.device_faults.injected_corruption, 1u);
  EXPECT_TRUE(out.itemsets.equivalent_to(reference(db, drill_params())));
}

// Scenario 2: OOM at the bitset upload degrades to partitioned streaming
// on the same device, bit-exact.
TEST(Resilience, OomAtBitsetUploadDegradesToPartitioned) {
  const auto db = drill_db();
  GpApriori miner(faulty_config("alloc#1=oom"));
  miners::MiningOutput out;
  ASSERT_NO_THROW(out = miner.mine(db, drill_params()));
  const auto& rep = miner.resilience_report();
  EXPECT_EQ(rep.degraded_to, DegradationStep::kPartitioned);
  EXPECT_EQ(rep.device_faults.injected_oom, 1u);
  EXPECT_GT(rep.time_lost_ms, 0.0);
  EXPECT_FALSE(rep.events.empty());
  EXPECT_TRUE(out.itemsets.equivalent_to(reference(db, drill_params())));
}

// A genuinely tiny arena (no injection at all) walks the same ladder.
TEST(Resilience, RealArenaExhaustionDegradesToPartitioned) {
  // Many transactions over a small universe: the static bitset (~12 KiB)
  // dwarfs the candidate arrays, so an 8 KiB arena OOMs the static upload
  // while the partitioned rung's 1000-transaction slices fit fine.
  const auto db = testutil::random_db(8000, 12, 0.4, 78);
  Config cfg;
  cfg.arena_bytes = 8 << 10;
  GpApriori miner(cfg);
  miners::MiningParams p;
  p.min_support_abs = 600;
  miners::MiningOutput out;
  ASSERT_NO_THROW(out = miner.mine(db, p));
  const auto& rep = miner.resilience_report();
  EXPECT_EQ(rep.degraded_to, DegradationStep::kPartitioned);
  EXPECT_TRUE(out.itemsets.equivalent_to(reference(db, p)));
}

// Scenario 3: a persistent launch failure exhausts the retry budget and
// drops all the way to CPU_TEST — still bit-exact, still no throw.
TEST(Resilience, PersistentLaunchFailureDegradesToCpu) {
  const auto db = drill_db();
  GpApriori miner(faulty_config("launch#1+=timeout"));
  miners::MiningOutput out;
  ASSERT_NO_THROW(out = miner.mine(db, drill_params()));
  const auto& rep = miner.resilience_report();
  EXPECT_EQ(rep.degraded_to, DegradationStep::kCpu);
  EXPECT_GE(rep.retries, 1u);  // it did try before giving up
  EXPECT_GT(rep.device_faults.injected_timeout, 0u);
  EXPECT_TRUE(out.itemsets.equivalent_to(reference(db, drill_params())));
}

// Persistent D2H corruption (every transfer flips a bit) cannot be
// repaired by re-transfer; the ladder must end at CPU_TEST.
TEST(Resilience, PersistentCorruptionDegradesToCpu) {
  const auto db = drill_db();
  GpApriori miner(faulty_config("d2h#1+=corrupt"));
  miners::MiningOutput out;
  ASSERT_NO_THROW(out = miner.mine(db, drill_params()));
  const auto& rep = miner.resilience_report();
  EXPECT_EQ(rep.degraded_to, DegradationStep::kCpu);
  EXPECT_GE(rep.corruption_detected, 1u);
  EXPECT_TRUE(out.itemsets.equivalent_to(reference(db, drill_params())));
}

// Every device driver reaches its device through one FaultAwareDevice, so
// one transient fault is retried (or one corrupted download re-sent) in
// every one of them, and none answers wrong or throws.
struct DeviceDriver {
  const char* name;
  std::unique_ptr<miners::Miner> (*make)(const Config&);
  bool tiled = true;
};

template <typename M, auto... Args>
std::unique_ptr<miners::Miner> make(const Config& cfg) {
  return std::make_unique<M>(cfg, Args...);
}

const DeviceDriver kDeviceDrivers[] = {
    {"GPApriori", &make<GpApriori>},
    {"GPAprioriUntiled", &make<GpApriori>, false},
    {"Partitioned", &make<PartitionedGpApriori>},
    {"Pipelined", &make<PipelinedGpApriori>},
    {"EqClass", &make<EqClassApriori>},
    {"Hybrid", &make<HybridApriori>},
    {"MultiGpu2", &make<MultiGpuApriori, 2>},
    {"GpuEclat", &make<GpuEclat>},
};

struct OneFault {
  const char* name;
  const char* plan;
  obs::Counter handled;  ///< the metric that proves the fault was absorbed
};

const OneFault kOneFaults[] = {
    {"D2hCorrupt", "d2h#2=corrupt", obs::Counter::kCorruptionDetected},
    {"LaunchTimeout", "launch#2=timeout", obs::Counter::kRetries},
    {"H2dFail", "h2d#2=fail", obs::Counter::kRetries},
};

void PrintTo(const DeviceDriver& d, std::ostream* os) { *os << d.name; }
void PrintTo(const OneFault& f, std::ostream* os) { *os << f.plan; }

class Resilience
    : public ::testing::TestWithParam<std::tuple<DeviceDriver, OneFault>> {};

TEST_P(Resilience, EveryDeviceDriverRecoversFromOneFault) {
  const auto& [driver, fault] = GetParam();
  // Several levels are counted at this threshold, so every driver's
  // second transfer, download and launch falls inside the run.
  const auto db = testutil::random_db(400, 16, 0.5, 33);
  miners::MiningParams p;
  p.min_support_ratio = 0.1;
  auto& metrics = obs::MetricsRegistry::global();
  metrics.reset();
  metrics.enable();
  Config cfg = faulty_config(fault.plan);
  cfg.tiled = driver.tiled;
  miners::MiningOutput out;
  ASSERT_NO_THROW(out = driver.make(cfg)->mine(db, p));
  EXPECT_GT(metrics.value(fault.handled), 0u) << "the fault never fired";
  metrics.disable();
  metrics.reset();
  EXPECT_EQ(out.itemsets.to_string(), reference(db, p).to_string());
}

INSTANTIATE_TEST_SUITE_P(
    Drivers, Resilience,
    ::testing::Combine(::testing::ValuesIn(kDeviceDrivers),
                       ::testing::ValuesIn(kOneFaults)),
    [](const auto& param_info) {
      return std::string(std::get<0>(param_info.param).name) + "_" +
             std::get<1>(param_info.param).name;
    });

TEST(Resilience, ProbabilisticFaultStormStillExact) {
  // A noisy device: 5% of transfers fail, 2% of launches time out, 2% of
  // downloads corrupt. Deterministic via the seed; must stay bit-exact.
  const auto db = drill_db();
  GpApriori miner(
      faulty_config("seed=3;p_transfer=0.05;p_timeout=0.02;p_corrupt=0.02"));
  miners::MiningOutput out;
  ASSERT_NO_THROW(out = miner.mine(db, drill_params()));
  EXPECT_TRUE(out.itemsets.equivalent_to(reference(db, drill_params())));
}

TEST(Resilience, ReportSummaryAndReset) {
  const auto db = drill_db();
  GpApriori miner(faulty_config("alloc#1=oom"));
  (void)miner.mine(db, drill_params());
  auto rep = miner.resilience_report();  // copy
  const std::string s = rep.summary();
  EXPECT_NE(s.find("degraded_to=partitioned"), std::string::npos) << s;
  EXPECT_NE(s.find("oom=1"), std::string::npos) << s;
  rep.reset();
  EXPECT_FALSE(rep.degraded());
  EXPECT_TRUE(rep.events.empty());

  // A second mine() on the same miner starts from a clean report. The
  // trigger is non-sticky and the plan counters live in the new Device, so
  // the fault fires again — and is handled again.
  (void)miner.mine(db, drill_params());
  EXPECT_EQ(miner.resilience_report().device_faults.injected_oom, 1u);
}

TEST(Resilience, EventLogIsBounded) {
  ResilienceReport rep;
  for (int i = 0; i < 1000; ++i) rep.push_event("event " + std::to_string(i));
  EXPECT_LE(rep.events.size(), 65u);  // capped (+1 for the ellipsis marker)
}

// --- FaultAwareDevice unit drills ---------------------------------------

TEST(FaultAwareDevice, DownloadVerifiedRepairsOneCorruption) {
  gpusim::DeviceOptions o;
  o.arena_bytes = 1 << 16;
  o.fault_plan = gpusim::FaultPlan::parse("d2h#1=corrupt");
  FaultAwareDevice fdev(gpusim::DeviceProperties::tesla_t10(), o,
                        RetryPolicy{});
  const ResilienceReport& rep = fdev.report();

  const auto p = fdev.alloc(32);
  std::vector<std::uint32_t> h(32);
  std::iota(h.begin(), h.end(), 100u);
  fdev.upload(p, std::span<const std::uint32_t>(h));
  std::vector<std::uint32_t> back(32);
  fdev.download_verified(std::span<std::uint32_t>(back), p);
  EXPECT_EQ(back, h);
  EXPECT_EQ(rep.corruption_detected, 1u);
  EXPECT_EQ(rep.retransfers, 1u);
}

TEST(FaultAwareDevice, PersistentCorruptionThrowsNonTransient) {
  gpusim::DeviceOptions o;
  o.arena_bytes = 1 << 16;
  o.fault_plan = gpusim::FaultPlan::parse("d2h#1+=corrupt");
  FaultAwareDevice fdev(gpusim::DeviceProperties::tesla_t10(), o,
                        RetryPolicy{});
  const ResilienceReport& rep = fdev.report();

  const auto p = fdev.alloc(32);
  std::vector<std::uint32_t> h(32, 5);
  fdev.upload(p, std::span<const std::uint32_t>(h));
  std::vector<std::uint32_t> back(32);
  try {
    fdev.download_verified(std::span<std::uint32_t>(back), p);
    FAIL() << "expected TransferError";
  } catch (const gpusim::TransferError& e) {
    EXPECT_FALSE(e.retryable());  // persistent corruption is not transient
  }
  EXPECT_GE(rep.corruption_detected, 1u);
}

TEST(FaultAwareDevice, RetryBudgetIsBounded) {
  gpusim::DeviceOptions o;
  o.arena_bytes = 1 << 16;
  o.fault_plan = gpusim::FaultPlan::parse("h2d#1+=fail");
  RetryPolicy policy;
  policy.max_retries = 2;
  FaultAwareDevice fdev(gpusim::DeviceProperties::tesla_t10(), o, policy);
  const ResilienceReport& rep = fdev.report();

  const auto p = fdev.alloc(8);
  std::vector<std::uint32_t> h(8, 1);
  EXPECT_THROW(fdev.upload(p, std::span<const std::uint32_t>(h)),
               gpusim::TransferError);
  EXPECT_EQ(rep.retries, 2u);  // exactly max_retries, then gave up
  // Backoff doubled: 1 + 2 ms.
  EXPECT_DOUBLE_EQ(rep.backoff_ms, 3.0);
}

TEST(FaultAwareDevice, ScopedAllocFreesOnThrow) {
  gpusim::DeviceOptions o;
  o.arena_bytes = 1 << 16;
  FaultAwareDevice fdev(gpusim::DeviceProperties::tesla_t10(), o,
                        RetryPolicy{});
  const gpusim::GlobalMemory& mem = fdev.device().memory();
  const std::size_t before = mem.bytes_in_use();
  try {
    ScopedDeviceAlloc a(fdev, 256);
    ScopedDeviceAlloc b(fdev, 256);
    throw std::runtime_error("mid-level failure");
  } catch (const std::runtime_error&) {
  }
  EXPECT_EQ(mem.bytes_in_use(), before);
  EXPECT_NO_THROW(mem.validate());
}

}  // namespace
