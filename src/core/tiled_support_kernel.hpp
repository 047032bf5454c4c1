#pragma once
// Equivalence-class tiled support counting (DESIGN.md §12).
//
// One thread block per SIBLING GROUP — the candidates sharing a k-1 trie
// prefix — instead of one block per candidate. Per L1-sized word tile the
// block computes the shared prefix AND once into shared memory, then ANDs
// every sibling's last-item bitset against the cached tile, dropping the
// per-candidate global-load cost from k×W words (complete intersection) to
// an amortized (k-1)×W / group_size + W.
//
// Phase structure (each boundary = __syncthreads):
//   phase 0            — group descriptor + prefix/sibling row-id preload
//                        into shared memory (strided, so ids beyond
//                        blockDim still load — no preload zero-quirk);
//   per tile j:
//     phase 1+2j       — prefix AND: threads stride the tile's words,
//                        ANDing the k-1 prefix rows into the shared tile
//                        (coalesced: lanes read consecutive words);
//     phase 2+2j       — sibling sweep: warp w owns siblings w, w+nw, …;
//                        lanes of the warp stride the sibling row's words
//                        by 32 (coalesced), popcount against the tile, and
//                        accumulate into a per-(sibling, lane) partial;
//   last               — per-sibling lane reduction + support writeback.
//
// The per-(sibling, lane) partial array is padded to 33 words per sibling
// so the reduction's column reads hit 32 distinct banks (the classic
// [32][33] trick). The kernel is bit-identical in output to SupportKernel's
// complete intersection and, like it, has two implementations: the
// per-thread interpreter (run_phase) and the whole-block native path,
// counter-equal by the DESIGN.md §9 contract.

#include "core/config.hpp"
#include "gpusim/kernel.hpp"
#include "gpusim/memory.hpp"

namespace gpapriori {

class TiledSupportKernel final : public gpusim::Kernel {
 public:
  /// Hard cap on siblings per group; CandidateTrie::flatten_level_grouped
  /// splits larger equivalence classes. Bounds the shared partial array.
  static constexpr std::uint32_t kMaxGroupSize = 64;
  /// 32-bit words of the shared prefix-AND tile (1 KiB): small enough to
  /// keep several blocks resident per SM next to the partials, large
  /// enough to amortize the per-tile barrier pair.
  static constexpr std::uint32_t kTileWords = 256;
  /// Padded per-sibling pitch of the partial array (bank-conflict-free
  /// column reads in the reduction phase).
  static constexpr std::uint32_t kPartialPitch = 33;

  struct Args {
    gpusim::DevicePtr<std::uint32_t> bitsets;  ///< generation-1 arena
    std::uint32_t stride_words = 0;            ///< row-to-row stride
    std::uint32_t words_per_row = 0;           ///< payload words (W)
    /// ngroups * (k-1) row ids, group-major: group g's shared prefix.
    gpusim::DevicePtr<std::uint32_t> prefix_rows;
    /// One last-item row id per candidate, in level candidate order.
    gpusim::DevicePtr<std::uint32_t> sibling_rows;
    /// ngroups+1 ascending candidate offsets: group g's siblings are
    /// sibling_rows[group_offsets[g] .. group_offsets[g+1]).
    gpusim::DevicePtr<std::uint32_t> group_offsets;
    std::uint32_t k = 0;            ///< candidate length (>= 1)
    std::uint32_t first_group = 0;  ///< batch offset: block b handles
                                    ///< group first_group + b
    /// Upper bound on any group size in this launch (shared-memory sizing);
    /// must be in [1, kMaxGroupSize].
    std::uint32_t max_group_size = kMaxGroupSize;
    /// Output, indexed by GLOBAL candidate index (the group offsets).
    gpusim::DevicePtr<std::uint32_t> supports;
  };

  TiledSupportKernel(Args args, std::uint32_t unroll)
      : args_(args), unroll_(unroll) {}

  [[nodiscard]] std::string_view name() const override {
    return "gpapriori_support_tiled";
  }
  [[nodiscard]] gpusim::KernelInfo info(
      const gpusim::LaunchConfig& cfg) const override;
  void run_phase(std::uint32_t phase, gpusim::ThreadCtx& t) const override;

  /// Native path: the whole group's tiled intersection as one
  /// fim::bits::and_rows prefix AND per tile + one fim::bits::and_popcount
  /// per sibling, with O(warps) closed-form counter accounting equal to the
  /// interpreted phases (DESIGN.md §9).
  bool run_block_native(gpusim::BlockCtx& b) const override;

  /// Phases for a row width: preload + 2 per tile + reduce/writeback.
  [[nodiscard]] static std::uint32_t phase_count(std::uint32_t words_per_row);

 private:
  // Shared layout, in words: [0..2) group meta (size, first candidate),
  // [2..2+T) prefix-AND tile, then Gm*33 partials, k-1 prefix ids, Gm
  // sibling ids (Gm = args_.max_group_size).
  [[nodiscard]] static constexpr std::size_t shared_meta_off(std::uint32_t i) {
    return std::size_t{i} * 4;
  }
  [[nodiscard]] static constexpr std::size_t shared_tile_off(std::uint32_t w) {
    return (std::size_t{2} + w) * 4;
  }
  [[nodiscard]] std::size_t shared_partial_off(std::uint32_t s,
                                               std::uint32_t lane) const {
    return (std::size_t{2} + kTileWords +
            std::size_t{s} * kPartialPitch + lane) * 4;
  }
  [[nodiscard]] std::size_t shared_prefix_off(std::uint32_t r) const {
    return (std::size_t{2} + kTileWords +
            std::size_t{args_.max_group_size} * kPartialPitch + r) * 4;
  }
  [[nodiscard]] std::size_t shared_sib_off(std::uint32_t s) const {
    return (std::size_t{2} + kTileWords +
            std::size_t{args_.max_group_size} * kPartialPitch +
            (args_.k - 1) + s) * 4;
  }

  Args args_;
  std::uint32_t unroll_;
};

}  // namespace gpapriori
