#pragma once
// The GPApriori support-counting kernel — paper Fig. 5 and §IV.2–3.
//
// One thread block per candidate ("each list intersection will be computed
// by one block"). Within a block:
//   phase 0  — candidate preload: the candidate's k row ids are copied to
//              shared memory (§IV.3 optimization (1));
//   phase 1  — complete intersection: each thread ANDs word-length slices
//              of all k generation-1 bitsets at stride blockDim, counts set
//              bits with __popc, and stores its partial to shared memory;
//   phases 2…— parallel tree reduction over the shared partials, one phase
//              (= one __syncthreads) per halving step;
//   last     — thread 0 writes the candidate's support to global memory.
//
// Only generation-1 vertical lists live in device memory (the "static
// bitset"); every candidate of every level is counted by re-intersecting
// them (complete intersection, Fig. 4), trading ALU work for host<->device
// traffic exactly as §IV.2 argues.

#include "core/config.hpp"
#include "gpusim/kernel.hpp"
#include "gpusim/memory.hpp"

namespace gpapriori {

class SupportKernel final : public gpusim::Kernel {
 public:
  struct Args {
    gpusim::DevicePtr<std::uint32_t> bitsets;     ///< generation-1 arena
    std::uint32_t stride_words = 0;               ///< row-to-row stride
    std::uint32_t words_per_row = 0;              ///< payload words
    gpusim::DevicePtr<std::uint32_t> candidates;  ///< k row ids per candidate
    std::uint32_t k = 0;                          ///< candidate length
    std::uint32_t first_candidate = 0;  ///< batch offset: block b counts
                                        ///< candidate first_candidate + b
    gpusim::DevicePtr<std::uint32_t> supports;    ///< output, per candidate
  };

  SupportKernel(Args args, bool candidate_preload, std::uint32_t unroll)
      : args_(args), preload_(candidate_preload), unroll_(unroll) {}

  [[nodiscard]] std::string_view name() const override {
    return "gpapriori_support";
  }
  [[nodiscard]] gpusim::KernelInfo info(
      const gpusim::LaunchConfig& cfg) const override;
  void run_phase(std::uint32_t phase, gpusim::ThreadCtx& t) const override;

  /// Native path: the whole block's complete intersection as one
  /// fim::bits::and_popcount over the candidate's k rows (ids loaded
  /// once), with O(warps) closed-form counter accounting equal to the
  /// interpreted phases. See DESIGN.md §9.
  bool run_block_native(gpusim::BlockCtx& b) const override;

  /// Phases for a given block size: preload + accumulate + log2(B)
  /// reduction steps + writeback.
  [[nodiscard]] static std::uint32_t phase_count(std::uint32_t block_size);

 private:
  [[nodiscard]] std::size_t shared_partial_off(std::uint32_t tid) const {
    return static_cast<std::size_t>(tid) * 4;
  }
  [[nodiscard]] std::size_t shared_cand_off(std::uint32_t block_size,
                                            std::uint32_t r) const {
    return (static_cast<std::size_t>(block_size) + r) * 4;
  }

  Args args_;
  bool preload_;
  std::uint32_t unroll_;
};

}  // namespace gpapriori
