#include "core/tidset_kernel.hpp"

#include <bit>
#include <string>

#include "gpusim/error.hpp"

namespace gpapriori {

gpusim::KernelInfo TidsetJoinKernel::info(
    const gpusim::LaunchConfig& cfg) const {
  // Threads and partials are indexed by x alone, and the tree reduction
  // halves blockDim.x every phase: a 2-D block or a non-power-of-two x
  // would drop partial sums. Reject at launch instead of miscounting.
  if (cfg.block.y != 1 || cfg.block.z != 1)
    throw gpusim::LaunchError("tidset_join: block must be 1-D");
  if (!std::has_single_bit(cfg.block.x))
    throw gpusim::LaunchError(
        "tidset_join: block.x must be a power of two (got " +
        std::to_string(cfg.block.x) + ")");
  gpusim::KernelInfo i;
  i.num_phases =
      1 + static_cast<std::uint32_t>(std::countr_zero(cfg.block.x)) + 1;
  i.static_shared_bytes = static_cast<std::size_t>(cfg.block.x) * 4;
  i.regs_per_thread = 16;
  return i;
}

void TidsetJoinKernel::run_phase(std::uint32_t phase,
                                 gpusim::ThreadCtx& t) const {
  const std::uint32_t tid = t.flat_tid();
  const std::uint32_t block = t.block_dim().x;
  const std::uint64_t pair = t.flat_block_idx();
  const auto log2b = static_cast<std::uint32_t>(std::countr_zero(block));

  if (phase == 0) {
    const std::uint32_t a_start = t.ld_global(args_.pair_table, pair * 4 + 0);
    const std::uint32_t a_len = t.ld_global(args_.pair_table, pair * 4 + 1);
    const std::uint32_t b_start = t.ld_global(args_.pair_table, pair * 4 + 2);
    const std::uint32_t b_len = t.ld_global(args_.pair_table, pair * 4 + 3);

    std::uint32_t count = 0;
    for (std::uint64_t i = tid; i < a_len; i += block) {
      const std::uint32_t needle = t.ld_global(args_.tids, a_start + i);
      // Binary search in B: every probe is a data-dependent global load,
      // and the number of probes varies per lane -> divergence.
      std::uint32_t lo = 0, hi = b_len;
      while (lo < hi) {
        const std::uint32_t mid = lo + (hi - lo) / 2;
        const std::uint32_t v = t.ld_global(args_.tids, b_start + mid);
        t.alu(2);  // compare + branch
        if (v < needle) {
          lo = mid + 1;
        } else {
          hi = mid;
        }
      }
      if (lo < b_len &&
          t.ld_global(args_.tids, b_start + lo) == needle)
        count += 1;
      t.alu(3);  // loop control + final compare
    }
    t.st_shared<std::uint32_t>(static_cast<std::size_t>(tid) * 4, count);
    return;
  }

  const std::uint32_t last_phase = 1 + log2b;
  if (phase < last_phase) {
    const std::uint32_t stride = block >> phase;
    if (tid < stride) {
      const auto a =
          t.ld_shared<std::uint32_t>(static_cast<std::size_t>(tid) * 4);
      const auto b = t.ld_shared<std::uint32_t>(
          static_cast<std::size_t>(tid + stride) * 4);
      t.alu(1);
      t.st_shared<std::uint32_t>(static_cast<std::size_t>(tid) * 4, a + b);
    }
    return;
  }

  if (tid == 0)
    t.st_global(args_.out, pair, t.ld_shared<std::uint32_t>(0));
}

}  // namespace gpapriori
