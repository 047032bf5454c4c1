#include "core/partitioned.hpp"

#include "core/level_loop.hpp"

namespace gpapriori {

PartitionedGpApriori::PartitionedGpApriori(Config cfg) : cfg_(cfg) {
  validate_config(cfg_, "PartitionedGpApriori");
}

miners::MiningOutput PartitionedGpApriori::mine(
    const fim::TransactionDb& db, const miners::MiningParams& params) {
  ledger_.reset();
  num_partitions_ = 0;
  LevelLoop loop(cfg_, db, params, "partitioned-level");
  const std::size_t num_trans = loop.num_transactions();
  if (loop.num_items() == 0 || num_trans == 0) return loop.level1();

  FaultAwareDevice fdev = make_device(cfg_, loop.scope());
  const std::size_t chunk =
      partition_chunk_trans(cfg_, fdev.device(), num_trans, loop.num_items());
  num_partitions_ = (num_trans + chunk - 1) / chunk;
  DeviceCounter counter(fdev, cfg_);
  miners::MiningOutput out = loop.run(counter, chunk);
  ledger_ = fdev.device().ledger();
  return out;
}

}  // namespace gpapriori
