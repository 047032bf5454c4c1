#include "serve/cost_estimator.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace serve {

CostEstimate CostEstimator::estimate(const fim::DatasetStats& stats,
                                     fim::Support min_count) const {
  CostEstimate est;
  est.words_per_row = (stats.num_transactions + 63) / 64;
  const double items = static_cast<double>(stats.distinct_items);
  const double ntrans = static_cast<double>(stats.num_transactions);

  // Frequent-1 bound. The average item appears in density × |DB|
  // transactions; thresholds at or below that keep (as a bound) every
  // item, thresholds above shrink the surviving set along the assumed
  // popularity tail. Always at least 1 so downstream terms stay sane.
  const double avg_support = stats.density * ntrans;
  double f1 = items;
  if (min_count > 0 && avg_support > 0 &&
      static_cast<double>(min_count) > avg_support)
    f1 = items * std::pow(avg_support / static_cast<double>(min_count),
                          cal_.tail_exponent);
  f1 = std::clamp(f1, 1.0, items > 0 ? items : 1.0);
  est.frequent1_bound = static_cast<std::size_t>(std::ceil(f1));

  // Peak device bytes: the level-1 vertical bitset store dominates (per
  // level only flattened candidate tables and a support array travel,
  // both tiny next to it); slack covers them plus alignment.
  const double bitset_bytes =
      f1 * static_cast<double>(est.words_per_row) * 8.0;
  est.device_bytes = static_cast<std::size_t>(
      std::ceil(bitset_bytes * cal_.bytes_slack)) + (1u << 20);

  // Wall estimate: the device path's fixed floor + the level-2 candidate
  // front's AND/popcount stream (the widest level on most shapes; deeper
  // levels shrink) + the linear scan that builds the bitsets.
  const double c2 = f1 * (f1 - 1.0) / 2.0;
  const double mwords = c2 * static_cast<double>(est.words_per_row) / 1e6;
  est.wall_ms = cal_.device_fixed_ms + mwords * cal_.ms_per_mword +
                ntrans * stats.avg_transaction_length *
                    cal_.us_per_item_scan / 1000.0;
  return est;
}

AdmissionDecision AdmissionController::try_admit(const CostEstimate& est) {
  AdmissionDecision d;
  if (!opts_.enabled) return d;
  std::lock_guard lk(m_);

  // Requests that can never be served shed permanently, even into an
  // empty service — a retry-after hint would just bounce them forever.
  if (opts_.max_request_wall_ms > 0 &&
      est.wall_ms > opts_.max_request_wall_ms) {
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "predicted wall %.0f ms exceeds the %.0f ms per-request "
                  "ceiling",
                  est.wall_ms, opts_.max_request_wall_ms);
    ++shed_;
    return {false, true, 0, buf};
  }
  if (opts_.device_bytes_budget > 0 &&
      est.device_bytes > opts_.device_bytes_budget) {
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "predicted peak %.1f MiB exceeds the whole %.1f MiB "
                  "device budget",
                  static_cast<double>(est.device_bytes) / (1 << 20),
                  static_cast<double>(opts_.device_bytes_budget) / (1 << 20));
    ++shed_;
    return {false, true, 0, buf};
  }

  const double drain_ms =
      std::max(1.0, wall_ms_inflight_ / static_cast<double>(workers_));
  if (opts_.max_inflight > 0 && inflight_ >= opts_.max_inflight) {
    ++shed_;
    return {false, false, drain_ms,
            "admission: " + std::to_string(inflight_) +
                " requests already in flight (cap " +
                std::to_string(opts_.max_inflight) + ")"};
  }
  if (opts_.device_bytes_budget > 0 && inflight_ > 0 &&
      bytes_inflight_ + est.device_bytes > opts_.device_bytes_budget) {
    char buf[200];
    std::snprintf(buf, sizeof(buf),
                  "admission: %.1f MiB predicted on top of %.1f MiB in "
                  "flight exceeds the %.1f MiB device budget",
                  static_cast<double>(est.device_bytes) / (1 << 20),
                  static_cast<double>(bytes_inflight_) / (1 << 20),
                  static_cast<double>(opts_.device_bytes_budget) / (1 << 20));
    ++shed_;
    return {false, false, drain_ms, buf};
  }

  bytes_inflight_ += est.device_bytes;
  inflight_ += 1;
  wall_ms_inflight_ += est.wall_ms;
  ++admitted_;
  return d;
}

void AdmissionController::release(const CostEstimate& est) {
  if (!opts_.enabled) return;
  std::lock_guard lk(m_);
  bytes_inflight_ -= std::min(bytes_inflight_, est.device_bytes);
  if (inflight_ > 0) --inflight_;
  wall_ms_inflight_ = std::max(0.0, wall_ms_inflight_ - est.wall_ms);
}

AdmissionController::Stats AdmissionController::stats() const {
  std::lock_guard lk(m_);
  return {admitted_, shed_, bytes_inflight_, inflight_};
}

}  // namespace serve
