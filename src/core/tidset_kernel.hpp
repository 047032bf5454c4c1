#pragma once
// Tidset-join kernel — the REJECTED design the paper contrasts in Fig. 3.
//
// Joins two sorted transaction-id lists on the device: each thread takes
// elements of list A at stride blockDim and binary-searches them in list B.
// Reads of A are coalesced, but every probe of B lands at a data-dependent
// address (uncoalesced) and search depth varies per lane (divergence) —
// "the resultant memory access pattern and instruction stream branching
// behavior is unpredictable and leads to poor performance on the GPU"
// (§IV.1). The Fig. 3 bench runs this against SupportKernel on identical
// work and reports both kernels' coalescing/divergence metrics. Only the
// benches launch it, so it has one implementation: the per-thread
// interpreter, on every block.

#include "gpusim/kernel.hpp"
#include "gpusim/memory.hpp"

namespace gpapriori {

class TidsetJoinKernel final : public gpusim::Kernel {
 public:
  /// Per-pair table entry: {a_start, a_len, b_start, b_len} into `tids`.
  struct Args {
    gpusim::DevicePtr<std::uint32_t> tids;        ///< pooled tidset arena
    gpusim::DevicePtr<std::uint32_t> pair_table;  ///< 4 words per pair
    gpusim::DevicePtr<std::uint32_t> out;         ///< |A ∩ B| per pair
  };

  explicit TidsetJoinKernel(Args args) : args_(args) {}

  [[nodiscard]] std::string_view name() const override {
    return "tidset_join";
  }
  /// Rejects a block that is not 1-D or whose x is not a power of two
  /// (the tree reduction halves blockDim.x).
  [[nodiscard]] gpusim::KernelInfo info(
      const gpusim::LaunchConfig& cfg) const override;
  void run_phase(std::uint32_t phase, gpusim::ThreadCtx& t) const override;

 private:
  Args args_;
};

}  // namespace gpapriori
