#pragma once
// Cost-based admission control for the mining service (DESIGN.md §15).
//
// Apriori's resource footprint is predictable before any work runs: the
// level-1 vertical bitset is (frequent-1 items) × ⌈|DB|/64⌉ 64-bit words,
// and candidate fronts grow from the frequent-1 set. CostEstimator turns
// fim::DatasetStats + min_count into (a) a peak-device-bytes bound and
// (b) a coarse wall-time estimate, both deliberately conservative: an
// overestimate wastes a little capacity, an underestimate admits a
// request the device cannot hold.
//
// AdmissionController spends those estimates against token-bucket style
// budgets — concurrent in-flight bytes, in-flight request count, and an
// absolute per-request wall ceiling. A request that does not fit *now* is
// shed with a retry-after hint (the predicted drain time of the work
// already admitted); a request that could *never* fit is shed permanently
// so the caller does not retry forever.

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>

#include "fim/dataset_stats.hpp"
#include "fim/transaction_db.hpp"

namespace serve {

struct CostEstimate {
  /// Predicted peak device bytes (vertical bitset store + slack).
  std::size_t device_bytes = 0;
  /// Predicted execution wall time, ms (device-path floor + counting +
  /// bitset build scan).
  double wall_ms = 0;
  /// Frequent-1 item bound the prediction assumed.
  std::size_t frequent1_bound = 0;
  /// Bitset words per item row, ⌈|DB|/64⌉.
  std::size_t words_per_row = 0;
};

class CostEstimator {
 public:
  /// Model constants, fitted against results/BENCH_fig6c.json (chess at
  /// scale 1, host_threads 1, native tier):
  ///   * device_fixed_ms is GPApriori's wall at the sweep's smallest-work
  ///     point, minsup 0.95 (1.27-1.47 ms over 5 runs, rounded up): the
  ///     per-request floor of the device path — preprocess, device
  ///     construction, bitset upload, two short levels;
  ///   * CPU_TEST's growth (10-21 ms at 0.75, host-dependent, where the
  ///     candidate stream is a few hundred kilowords) anchors ms_per_mword;
  ///   * parse/scan cost is linear in total items read.
  struct Calibration {
    double device_fixed_ms = 1.5;     ///< per-request device-path floor
    double ms_per_mword = 4.0;        ///< per million 64-bit AND words
    double us_per_item_scan = 0.01;   ///< per (transaction, item) pair
    double bytes_slack = 1.25;        ///< bitset-store headroom multiplier
    /// Tail-shape assumption when min_count exceeds the average item
    /// support: the surviving fraction shrinks quadratically (power-law
    /// item popularity). Conservative: real FIMI tails shrink faster.
    double tail_exponent = 2.0;
  };

  CostEstimator() : CostEstimator(Calibration{}) {}
  explicit CostEstimator(Calibration c) : cal_(c) {}

  [[nodiscard]] CostEstimate estimate(const fim::DatasetStats& stats,
                                      fim::Support min_count) const;
  [[nodiscard]] const Calibration& calibration() const { return cal_; }

 private:
  Calibration cal_;
};

struct AdmissionOptions {
  bool enabled = true;
  /// Sum of admitted device_bytes allowed in flight at once.
  std::size_t device_bytes_budget = 1ull << 30;
  /// Concurrent admitted requests; 0 = unlimited (the worker pool is the
  /// real concurrency limit, this caps the committed backlog).
  std::uint32_t max_inflight = 0;
  /// Absolute per-request wall ceiling, ms; 0 = none. Requests predicted
  /// above it are shed permanently (they would never be servable).
  double max_request_wall_ms = 0;
};

struct AdmissionDecision {
  bool admitted = true;
  /// Shed and retrying will never help (single request exceeds the whole
  /// budget or the wall ceiling).
  bool permanent = false;
  /// Shed only: predicted ms until enough in-flight work drains.
  double retry_after_ms = 0;
  std::string reason;  ///< shed only
};

/// Token-bucket admission over CostEstimates. Thread-safe; every admitted
/// estimate must be released exactly once when its request completes.
class AdmissionController {
 public:
  AdmissionController(AdmissionOptions opts, std::uint32_t workers)
      : opts_(opts), workers_(workers == 0 ? 1 : workers) {}

  [[nodiscard]] AdmissionDecision try_admit(const CostEstimate& est);
  void release(const CostEstimate& est);

  struct Stats {
    std::uint64_t admitted = 0;
    std::uint64_t shed = 0;
    std::size_t bytes_inflight = 0;
    std::uint32_t inflight = 0;
  };
  [[nodiscard]] Stats stats() const;
  [[nodiscard]] const AdmissionOptions& options() const { return opts_; }

 private:
  const AdmissionOptions opts_;
  const std::uint32_t workers_;
  mutable std::mutex m_;
  std::size_t bytes_inflight_ = 0;
  std::uint32_t inflight_ = 0;
  double wall_ms_inflight_ = 0;  ///< sum of admitted wall estimates
  std::uint64_t admitted_ = 0;
  std::uint64_t shed_ = 0;
};

}  // namespace serve
