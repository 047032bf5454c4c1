#pragma once
// Partitioned GPApriori: mining databases whose static bitset does not fit
// in device memory.
//
// The paper's design keeps ALL generation-1 bitsets resident ("static
// bitset") — elegant, but it caps the database at device-memory size
// (4 GiB on the T10 ~ a few hundred million transactions times frequent
// items). This variant removes the cap: transactions are partitioned into
// chunks whose bitset slices fit Config::partition_budget_bytes (0 = a
// quarter of the arena, the degradation ladder's second rung uses the same
// cut); each level streams the chunks through the device and per-chunk
// supports are summed on the host. Support counting is exact because
// support is additive over a transaction partition. A store that fits in
// one chunk is the static design. The ablation bench quantifies the
// streaming price (bitset re-upload per level per chunk) against it.

#include "baselines/miner.hpp"
#include "core/config.hpp"
#include "gpusim/device_context.hpp"

namespace gpapriori {

class PartitionedGpApriori final : public miners::Miner {
 public:
  explicit PartitionedGpApriori(Config cfg = {});

  [[nodiscard]] std::string_view name() const override {
    return "GPApriori (partitioned)";
  }
  [[nodiscard]] std::string_view platform() const override {
    return "GPU + single thread CPU (streamed bitsets)";
  }
  [[nodiscard]] miners::MiningOutput mine(const fim::TransactionDb& db,
                                          const miners::MiningParams& params) override;

  [[nodiscard]] const gpusim::TimeLedger& ledger() const { return ledger_; }
  [[nodiscard]] std::size_t num_partitions() const { return num_partitions_; }

 private:
  Config cfg_;
  gpusim::TimeLedger ledger_;
  std::size_t num_partitions_ = 0;
};

}  // namespace gpapriori
