#pragma once
// Horizontal-layout GPU support counting — the OTHER rejected design.
//
// §IV.2: "support ratio is computed by scanning transaction database …
// this mainly involves considerable binary searches and trie traversal,
// both of which will cause irregular memory access when placing on GPU."
// This kernel quantifies that: each thread takes whole transactions at
// stride gridDim*blockDim from the horizontal (CSR) database, tests every
// candidate for containment via merge over the sorted transaction, and
// atomicAdd's the candidate's counter. Data-dependent loop lengths diverge
// warps, transaction reads are ragged, and the atomics contend — the
// quantitative case for the bitset redesign, alongside Fig. 3's tidset
// contrast. Only the ablation bench launches it, so it has one
// implementation: the per-thread interpreter, on every block.

#include "gpusim/kernel.hpp"
#include "gpusim/memory.hpp"

namespace gpapriori {

class HorizontalCountKernel final : public gpusim::Kernel {
 public:
  struct Args {
    gpusim::DevicePtr<std::uint32_t> items;    ///< CSR item array
    gpusim::DevicePtr<std::uint32_t> offsets;  ///< CSR offsets (n_trans + 1)
    std::uint32_t num_transactions = 0;
    gpusim::DevicePtr<std::uint32_t> candidates;  ///< k items per candidate
    std::uint32_t num_candidates = 0;
    std::uint32_t k = 0;
    gpusim::DevicePtr<std::uint32_t> supports;  ///< atomically incremented
  };

  explicit HorizontalCountKernel(Args args) : args_(args) {}

  [[nodiscard]] std::string_view name() const override {
    return "horizontal_count";
  }
  /// Rejects a block or grid that is not 1-D: the grid stride counts x
  /// only.
  [[nodiscard]] gpusim::KernelInfo info(
      const gpusim::LaunchConfig& cfg) const override;
  void run_phase(std::uint32_t phase, gpusim::ThreadCtx& t) const override;

 private:
  Args args_;
};

}  // namespace gpapriori
