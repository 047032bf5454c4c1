// What-if hardware sweep: GPApriori's modeled device time on the paper's
// Tesla T10, the consumer GTX 280 (same SMs, wider memory bus), and the
// next-generation Fermi C2050 — quantifying how much of GPApriori's win is
// memory bandwidth (almost all of it: the support kernel is bandwidth-
// bound, so device time tracks GB/s, not core count).
//
// Also exercises the scalability variants: the stream-pipelined schedule
// and the partitioned (out-of-core) mode under shrinking device budgets.

#include <cstdio>

#include "bench_util.hpp"

int main() {
  const auto& prof = datagen::profile(datagen::DatasetId::kAccidents);
  const double scale = bench::resolve_scale(0.1);
  const auto db = prof.generate(scale);
  miners::MiningParams p;
  p.min_support_ratio = 0.5;

  std::printf("=== What-if devices + scalability variants (%s, minsup %.2f) "
              "===\n",
              prof.name.c_str(), p.min_support_ratio);
  bench::print_dataset_header(prof, db, scale);

  std::printf("--- device generations ---\n");
  std::printf("%-34s %10s %12s %12s\n", "device", "GB/s", "device_ms",
              "vs T10");
  double t10_ms = 0;
  for (const auto& props : {gpusim::DeviceProperties::tesla_t10(),
                            gpusim::DeviceProperties::gtx_280(),
                            gpusim::DeviceProperties::tesla_c2050()}) {
    gpapriori::Config cfg;
    cfg.device = props;
    gpapriori::GpApriori miner(cfg);
    const auto out = miner.mine(db, p);
    if (t10_ms == 0) t10_ms = out.device_ms;
    std::printf("%-34s %10.0f %12.3f %11.2fx\n", props.name.c_str(),
                props.mem_bandwidth_gbps, out.device_ms,
                t10_ms / out.device_ms);
  }

  std::printf("\n--- stream pipeline (chunks per level) ---\n");
  std::printf("%-14s %12s %12s\n", "chunks", "device_ms", "#itemsets");
  for (std::uint32_t chunks : {1u, 2u, 4u, 8u}) {
    gpapriori::PipelinedGpApriori miner({}, chunks);
    const auto out = miner.mine(db, p);
    std::printf("%-14u %12.3f %12zu\n", chunks, out.device_ms,
                out.itemsets.size());
  }

  // Budget 0 is a quarter of the arena: the store fits in one chunk, which
  // is the static design.
  std::printf("\n--- partitioned (out-of-core) bitset budgets ---\n");
  std::printf("%-18s %12s %12s %14s %12s\n", "budget", "chunks", "device_ms",
              "h2d copies", "#itemsets");
  for (std::size_t budget :
       {std::size_t{0}, std::size_t{64} << 10, std::size_t{16} << 10,
        std::size_t{4} << 10}) {
    gpapriori::Config cfg;
    cfg.partition_budget_bytes = budget;
    gpapriori::PartitionedGpApriori miner(cfg);
    const auto out = miner.mine(db, p);
    char label[32];
    if (budget == 0)
      std::snprintf(label, sizeof label, "arena/4");
    else
      std::snprintf(label, sizeof label, "%zu KiB", budget >> 10);
    std::printf("%-18s %12zu %12.3f %14llu %12zu\n", label,
                miner.num_partitions(), out.device_ms,
                static_cast<unsigned long long>(miner.ledger().h2d_transfers),
                out.itemsets.size());
  }
  return 0;
}
