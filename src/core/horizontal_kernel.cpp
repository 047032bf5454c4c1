#include "core/horizontal_kernel.hpp"

#include "gpusim/error.hpp"

namespace gpapriori {

gpusim::KernelInfo HorizontalCountKernel::info(
    const gpusim::LaunchConfig& cfg) const {
  // A thread's first transaction and the grid stride count x only: a 2-D
  // block or grid would walk the same transactions twice. Reject at launch
  // instead of miscounting.
  if (cfg.block.y != 1 || cfg.block.z != 1)
    throw gpusim::LaunchError("horizontal_count: block must be 1-D");
  if (cfg.grid.y != 1 || cfg.grid.z != 1)
    throw gpusim::LaunchError("horizontal_count: grid must be 1-D");
  return {.num_phases = 1, .static_shared_bytes = 0, .regs_per_thread = 18};
}

void HorizontalCountKernel::run_phase(std::uint32_t /*phase*/,
                                      gpusim::ThreadCtx& t) const {
  const std::uint64_t stride =
      static_cast<std::uint64_t>(t.grid_dim().x) * t.block_dim().x;
  const std::uint64_t first =
      t.flat_block_idx() * t.block_dim().x + t.flat_tid();

  for (std::uint64_t tx = first; tx < args_.num_transactions; tx += stride) {
    const std::uint32_t lo = t.ld_global(args_.offsets, tx);
    const std::uint32_t hi = t.ld_global(args_.offsets, tx + 1);
    const std::uint32_t len = hi - lo;
    t.alu(2);

    for (std::uint32_t c = 0; c < args_.num_candidates; ++c) {
      if (len < args_.k) {
        t.alu(1);
        continue;
      }
      // Merge the sorted candidate against the sorted transaction.
      std::uint32_t matched = 0, j = 0;
      for (std::uint32_t ci = 0; ci < args_.k; ++ci) {
        const std::uint32_t want =
            t.ld_global(args_.candidates,
                        static_cast<std::uint64_t>(c) * args_.k + ci);
        while (j < len) {
          const std::uint32_t have = t.ld_global(args_.items, lo + j);
          t.alu(1);
          ++j;
          if (have == want) {
            ++matched;
            break;
          }
          if (have > want) {  // sorted: overshot, candidate absent
            j = len;
            break;
          }
        }
        if (matched != ci + 1) break;
      }
      if (matched == args_.k)
        t.atomic_add_global(args_.supports, c, 1);
      t.alu(2);  // candidate-loop control
    }
  }
}

}  // namespace gpapriori
