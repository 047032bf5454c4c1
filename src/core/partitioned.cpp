#include "core/partitioned.hpp"

#include <stdexcept>

#include "core/level_loop.hpp"

namespace gpapriori {

PartitionedGpApriori::PartitionedGpApriori(Config cfg,
                                           std::size_t device_bitset_budget_bytes)
    : cfg_(cfg), budget_bytes_(device_bitset_budget_bytes) {
  validate_config(cfg_, "PartitionedGpApriori");
}

miners::MiningOutput PartitionedGpApriori::mine(
    const fim::TransactionDb& db, const miners::MiningParams& params) {
  ledger_.reset();
  num_partitions_ = 0;
  LevelLoop loop(cfg_, db, params, "partitioned-level");
  const std::size_t num_trans = loop.num_transactions();
  if (loop.num_items() == 0 || num_trans == 0) return loop.level1();

  // Partition geometry: the largest chunk whose slice fits the budget, or
  // everything when there is no budget.
  const std::size_t chunk =
      budget_bytes_ == 0
          ? num_trans
          : pick_chunk_trans(num_trans, loop.num_items(), budget_bytes_);
  if (chunk == 0)
    throw std::invalid_argument(
        "PartitionedGpApriori: budget too small for even a 512-transaction "
        "chunk");
  num_partitions_ = (num_trans + chunk - 1) / chunk;

  gpusim::Device device = make_device(cfg_, loop.scope());
  ResilienceReport report;
  FaultAwareDevice fdev(device, cfg_.retry, report);
  fdev.set_cancel_token(loop.scope().cancel_token());
  DeviceCounter counter(fdev, cfg_, /*stream=*/true);
  miners::MiningOutput out = loop.run(counter, chunk);
  ledger_ = device.ledger();
  return out;
}

}  // namespace gpapriori
