#pragma once
// GPApriori — the paper's contribution — and CPU_TEST, its CPU twin.
//
// GpApriori mines level-wise: the host owns the candidate trie
// (equivalence-class generation + Apriori pruning); support counting runs
// on the simulated Tesla T10 via SupportKernel. The generation-1 bitsets
// are copied to device memory once ("static bitset"); per level only the
// flattened candidate lists travel down and the support counts travel back.
//
// CpuBitsetApriori (the paper's CPU_TEST, "equivalent CPU code") runs the
// identical algorithm — same preprocessing, same trie, same complete
// intersection over the same 64-byte-aligned bitset store — with the k-way
// AND/popcount loop executed by the host. Both run the one LevelLoop
// (core/level_loop.hpp) and differ only in their SupportCounter, so the
// GPApriori-vs-CPU_TEST series in Fig. 6 isolates exactly the
// support-counting offload.

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "baselines/miner.hpp"
#include "core/config.hpp"
#include "core/resilience.hpp"
#include "gpusim/device_context.hpp"

namespace gpapriori {

class GpApriori final : public miners::Miner {
 public:
  explicit GpApriori(Config cfg = {});

  [[nodiscard]] std::string_view name() const override { return "GPApriori"; }
  [[nodiscard]] std::string_view platform() const override {
    return "GPU + single thread CPU";
  }
  [[nodiscard]] miners::MiningOutput mine(const fim::TransactionDb& db,
                                          const miners::MiningParams& params) override;

  /// Per-launch device statistics of the most recent mine() call.
  [[nodiscard]] const std::vector<gpusim::KernelStats>& launch_history() const {
    return history_;
  }
  /// Simulated device time ledger of the most recent mine() call.
  [[nodiscard]] const gpusim::TimeLedger& ledger() const { return ledger_; }
  [[nodiscard]] const Config& config() const { return cfg_; }

  /// Fault/retry/degradation record of the most recent mine() call.
  /// mine() never throws on device faults: it retries transients, detects
  /// D2H corruption by checksum, and walks the ladder static → partitioned
  /// → CPU_TEST, producing bit-exact results at every rung.
  [[nodiscard]] const ResilienceReport& resilience_report() const {
    return report_;
  }

 private:
  Config cfg_;
  std::vector<gpusim::KernelStats> history_;
  gpusim::TimeLedger ledger_;
  ResilienceReport report_;
};

/// CPU_TEST of Table 1: GPApriori's algorithm on the host.
class CpuBitsetApriori final : public miners::Miner {
 public:
  /// Optional run lifecycle controller (deadline/cancel/checkpoint/resume,
  /// core/run_control.hpp). Unowned; null = none.
  /// `tiled`, `compact_level`,
  /// `max_group_size`, and `host_threads` mirror the same-named Config
  /// fields so CPU_TEST exercises the same counting structure (and the
  /// same sharded host pipeline) as the device path — identical output
  /// for every combination.
  explicit CpuBitsetApriori(RunControl* run_control = nullptr,
                            bool tiled = true,
                            std::uint32_t compact_level = 1,
                            std::uint32_t max_group_size = 0,
                            std::uint32_t host_threads = 0)
      : run_control_(run_control),
        tiled_(tiled),
        compact_level_(compact_level),
        max_group_size_(max_group_size),
        host_threads_(host_threads) {}

  [[nodiscard]] std::string_view name() const override { return "CPU_TEST"; }
  [[nodiscard]] std::string_view platform() const override {
    return "Single thread CPU";
  }
  [[nodiscard]] miners::MiningOutput mine(const fim::TransactionDb& db,
                                          const miners::MiningParams& params) override;

 private:
  RunControl* run_control_ = nullptr;
  bool tiled_ = true;
  std::uint32_t compact_level_ = 1;
  std::uint32_t max_group_size_ = 0;
  std::uint32_t host_threads_ = 0;
};

/// Every miner of the paper's Table 1 plus the Eclat/FP-Growth extensions,
/// in Table 1 order (GPApriori first).
[[nodiscard]] std::vector<std::unique_ptr<miners::Miner>> make_all_miners(
    const Config& gpapriori_config = {});

/// Every name make_miner() accepts: make_all_miners' names, then the
/// Config-driven GPApriori variants (`gpapriori_cli list-algos`).
[[nodiscard]] const std::vector<std::string>& miner_names();

/// The miner registered under `name`, built from `cfg`; null when no miner
/// has that name.
[[nodiscard]] std::unique_ptr<miners::Miner> make_miner(
    std::string_view name, const Config& cfg = {});

}  // namespace gpapriori
