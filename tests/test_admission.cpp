// The CostEstimator/AdmissionController pair that gates service admission
// on predicted footprints.

#include "serve/cost_estimator.hpp"

#include <gtest/gtest.h>

#include "fim/dataset_stats.hpp"

namespace {

// -- Cost estimator ---------------------------------------------------------

fim::DatasetStats shape(std::size_t ntrans, std::size_t items,
                        double density) {
  fim::DatasetStats s;
  s.num_transactions = ntrans;
  s.distinct_items = items;
  s.density = density;
  s.avg_transaction_length = density * static_cast<double>(items);
  return s;
}

TEST(CostEstimatorTest, HigherThresholdNeverCostsMore) {
  serve::CostEstimator est;
  const auto s = shape(100'000, 500, 0.2);
  const auto lo = est.estimate(s, 1'000);
  const auto hi = est.estimate(s, 80'000);
  EXPECT_GE(lo.device_bytes, hi.device_bytes);
  EXPECT_GE(lo.wall_ms, hi.wall_ms);
  EXPECT_GE(lo.frequent1_bound, hi.frequent1_bound);
  EXPECT_LE(hi.frequent1_bound, s.distinct_items);
  EXPECT_GE(hi.frequent1_bound, 1u);
}

TEST(CostEstimatorTest, MoreTransactionsCostMoreBytes) {
  serve::CostEstimator est;
  const auto small = est.estimate(shape(10'000, 200, 0.3), 100);
  const auto big = est.estimate(shape(1'000'000, 200, 0.3), 100);
  EXPECT_GT(big.device_bytes, small.device_bytes);
  EXPECT_GT(big.words_per_row, small.words_per_row);
  EXPECT_EQ(small.words_per_row, (10'000 + 63) / 64u);
}

TEST(CostEstimatorTest, WallIncludesFixedDeviceSetup) {
  serve::CostEstimator::Calibration cal;
  serve::CostEstimator est(cal);
  const auto tiny = est.estimate(shape(64, 4, 0.5), 60);
  EXPECT_GE(tiny.wall_ms, cal.device_fixed_ms);
}

// -- Admission controller ---------------------------------------------------

serve::CostEstimate cost(std::size_t bytes, double wall_ms) {
  serve::CostEstimate e;
  e.device_bytes = bytes;
  e.wall_ms = wall_ms;
  return e;
}

TEST(AdmissionControllerTest, PermanentShedWhenRequestCanNeverFit) {
  serve::AdmissionOptions o;
  o.device_bytes_budget = 1 << 20;
  serve::AdmissionController ac(o, 2);
  const auto d = ac.try_admit(cost(2 << 20, 10));
  EXPECT_FALSE(d.admitted);
  EXPECT_TRUE(d.permanent);
  EXPECT_EQ(d.retry_after_ms, 0);
  EXPECT_NE(d.reason.find("whole"), std::string::npos) << d.reason;
  EXPECT_EQ(ac.stats().shed, 1u);
}

TEST(AdmissionControllerTest, WallCeilingShedsPermanently) {
  serve::AdmissionOptions o;
  o.max_request_wall_ms = 50;
  serve::AdmissionController ac(o, 2);
  const auto d = ac.try_admit(cost(100, 200));
  EXPECT_FALSE(d.admitted);
  EXPECT_TRUE(d.permanent);
  EXPECT_NE(d.reason.find("ceiling"), std::string::npos) << d.reason;
}

TEST(AdmissionControllerTest, ByteBudgetShedsRetryablyAndReleaseRestores) {
  serve::AdmissionOptions o;
  o.device_bytes_budget = 1 << 20;
  serve::AdmissionController ac(o, 2);
  const auto big = cost(800 << 10, 400);  // 800 KiB of the 1 MiB budget
  ASSERT_TRUE(ac.try_admit(big).admitted);

  const auto d = ac.try_admit(cost(400 << 10, 100));
  EXPECT_FALSE(d.admitted);
  EXPECT_FALSE(d.permanent);  // fits an empty service: retry can help
  // Retry-after predicts the drain of 400 admitted wall-ms over 2 workers.
  EXPECT_GE(d.retry_after_ms, 1.0);
  EXPECT_LE(d.retry_after_ms, 400.0);

  ac.release(big);
  EXPECT_TRUE(ac.try_admit(cost(400 << 10, 100)).admitted);
  const auto st = ac.stats();
  EXPECT_EQ(st.admitted, 2u);
  EXPECT_EQ(st.shed, 1u);
  EXPECT_EQ(st.inflight, 1u);
}

TEST(AdmissionControllerTest, FirstRequestAlwaysFitsWithinBudget) {
  // The in-flight byte check only applies on top of existing work: a
  // single admissible request into an empty service is never shed on
  // bytes, however close to the budget it sits.
  serve::AdmissionOptions o;
  o.device_bytes_budget = 1 << 20;
  serve::AdmissionController ac(o, 1);
  EXPECT_TRUE(ac.try_admit(cost(1 << 20, 10)).admitted);
}

TEST(AdmissionControllerTest, InflightCapSheds) {
  serve::AdmissionOptions o;
  o.max_inflight = 1;
  serve::AdmissionController ac(o, 4);
  const auto one = cost(100, 10);
  ASSERT_TRUE(ac.try_admit(one).admitted);
  const auto d = ac.try_admit(one);
  EXPECT_FALSE(d.admitted);
  EXPECT_FALSE(d.permanent);
  ac.release(one);
  EXPECT_TRUE(ac.try_admit(one).admitted);
}

TEST(AdmissionControllerTest, DisabledAdmitsEverything) {
  serve::AdmissionOptions o;
  o.enabled = false;
  o.device_bytes_budget = 1;
  serve::AdmissionController ac(o, 1);
  for (int i = 0; i < 10; ++i)
    EXPECT_TRUE(ac.try_admit(cost(1 << 30, 1e9)).admitted);
  EXPECT_EQ(ac.stats().admitted, 0u);  // disabled: nothing is accounted
}

}  // namespace
