#include "core/tiled_support_kernel.hpp"

#include <algorithm>
#include <bit>

#include "fim/bit_kernels.hpp"
#include "gpusim/error.hpp"

namespace gpapriori {

namespace {

/// Words of the native prefix-AND buffer (8 KiB on the stack): it stays
/// L1-resident while every sibling row streams past it once.
constexpr std::uint64_t kNativeTileWords = 2048;

/// Trip count of `for (i = tid; i < n; i += step)` for tid < step: with
/// n = q·step + r, q + 1 below tid r and q from there on.
constexpr std::uint64_t strided_trips(std::uint32_t n, std::uint32_t step,
                                      std::uint32_t tid) {
  return n / step + (tid < n % step ? 1 : 0);
}

/// Largest prefix length handled natively (stack row-id buffer); longer
/// prefixes fall back to the interpreter, which has no such limit.
constexpr std::uint32_t kMaxNativePrefix = 256;

}  // namespace

std::uint32_t TiledSupportKernel::phase_count(std::uint32_t words_per_row) {
  const std::uint32_t ntiles =
      (words_per_row + kTileWords - 1) / kTileWords;
  return 1 /*preload*/ + 2 * ntiles /*prefix AND + sibling sweep*/ +
         1 /*reduce + writeback*/;
}

gpusim::KernelInfo TiledSupportKernel::info(
    const gpusim::LaunchConfig& cfg) const {
  // The sibling sweep gives each warp full 32-lane word coverage and the
  // reduction sums exactly 32 partials per sibling, so partial warps would
  // silently skip words. Reject at launch instead of miscounting.
  if (cfg.block.x == 0 || cfg.block.x % 32 != 0 || cfg.block.y != 1 ||
      cfg.block.z != 1)
    throw gpusim::LaunchError(
        "gpapriori_support_tiled: block must be 1-D with x a multiple of "
        "32 (got " + std::to_string(cfg.block.x) + ")");
  if (args_.k == 0)
    throw gpusim::LaunchError("gpapriori_support_tiled: k must be >= 1");
  if (args_.max_group_size == 0 || args_.max_group_size > kMaxGroupSize)
    throw gpusim::LaunchError(
        "gpapriori_support_tiled: max_group_size must be in [1, " +
        std::to_string(kMaxGroupSize) + "]");
  gpusim::KernelInfo i;
  i.num_phases = phase_count(args_.words_per_row);
  // Shared layout: meta pair, prefix-AND tile, padded per-(sibling, lane)
  // partials, then the preloaded prefix + sibling row ids.
  i.static_shared_bytes =
      (std::size_t{2} + kTileWords +
       std::size_t{args_.max_group_size} * kPartialPitch + (args_.k - 1) +
       args_.max_group_size) * 4;
  i.regs_per_thread = 18;
  return i;
}

void TiledSupportKernel::run_phase(std::uint32_t phase,
                                   gpusim::ThreadCtx& t) const {
  const std::uint32_t tid = t.flat_tid();
  const std::uint32_t block = t.block_dim().x;
  const std::uint64_t g = args_.first_group + t.flat_block_idx();
  const std::uint32_t p = args_.k - 1;
  const std::uint32_t W = args_.words_per_row;
  const std::uint64_t stride = args_.stride_words;
  const std::uint32_t ntiles = (W + kTileWords - 1) / kTileWords;

  if (phase == 0) {
    // Group descriptor: every thread reads both offsets (broadcast loads,
    // exactly what the CUDA kernel would do); thread 0 parks them in
    // shared for the later phases. Row-id preload is strided, so ids
    // beyond blockDim still land — unlike SupportKernel's preload, this
    // path has NO zero-quirk.
    const std::uint32_t off0 = t.ld_global(args_.group_offsets, g);
    const std::uint32_t off1 = t.ld_global(args_.group_offsets, g + 1);
    const std::uint32_t G = off1 - off0;
    t.alu(1);  // the subtraction
    if (tid == 0) {
      t.st_shared<std::uint32_t>(shared_meta_off(0), G);
      t.st_shared<std::uint32_t>(shared_meta_off(1), off0);
    }
    for (std::uint32_t i = tid; i < p; i += block) {
      const std::uint32_t row = t.ld_global(args_.prefix_rows, g * p + i);
      t.st_shared<std::uint32_t>(shared_prefix_off(i), row);
      t.alu(2);  // loop control
    }
    for (std::uint32_t i = tid; i < G; i += block) {
      const std::uint32_t row =
          t.ld_global(args_.sibling_rows, std::uint64_t{off0} + i);
      t.st_shared<std::uint32_t>(shared_sib_off(i), row);
      t.alu(2);  // loop control
    }
    return;
  }

  const std::uint32_t last_phase = 1 + 2 * ntiles;
  if (phase < last_phase) {
    const std::uint32_t j = (phase - 1) / 2;
    const std::uint32_t lo = j * kTileWords;
    const std::uint32_t hi = std::min(W, lo + kTileWords);

    if ((phase - 1) % 2 == 0) {
      // ---- Prefix AND: threads stride the tile's words (coalesced) and
      // AND the k-1 prefix rows into the shared tile. ----
      std::uint32_t iter = 0;
      for (std::uint32_t w = lo + tid; w < hi; w += block, ++iter) {
        std::uint32_t acc = ~0u;
        t.alu(1);  // accumulator init
        for (std::uint32_t r = 0; r < p; ++r) {
          const std::uint32_t row =
              t.ld_shared<std::uint32_t>(shared_prefix_off(r));
          acc &= t.ld_global(args_.bitsets,
                             static_cast<std::uint64_t>(row) * stride + w);
          t.alu(1);  // the AND
        }
        t.st_shared<std::uint32_t>(shared_tile_off(w - lo), acc);
        if (unroll_ <= 1 || (iter + 1) % unroll_ == 0) t.alu(2);
      }
      if (unroll_ > 1 && iter % unroll_ != 0) t.alu(2);
      return;
    }

    // ---- Sibling sweep: warp w owns siblings w, w+nw, …; its lanes
    // stride the sibling row's words by 32 (coalesced) and popcount
    // against the cached tile, accumulating into the per-(sibling, lane)
    // partial. ----
    const std::uint32_t G = t.ld_shared<std::uint32_t>(shared_meta_off(0));
    const std::uint32_t warp = t.warp_id();
    const std::uint32_t lane = t.lane_id();
    const std::uint32_t nw = block / 32;
    for (std::uint32_t s = warp; s < G; s += nw) {
      const std::uint32_t row =
          t.ld_shared<std::uint32_t>(shared_sib_off(s));
      std::uint32_t cnt = 0;
      t.alu(1);  // accumulator init
      std::uint32_t iter = 0;
      for (std::uint32_t w = lo + lane; w < hi; w += 32, ++iter) {
        const std::uint32_t tw =
            t.ld_shared<std::uint32_t>(shared_tile_off(w - lo));
        const std::uint32_t v = t.ld_global(
            args_.bitsets, static_cast<std::uint64_t>(row) * stride + w);
        cnt += t.popc(tw & v);
        t.alu(2);  // the AND + accumulate add
        if (unroll_ <= 1 || (iter + 1) % unroll_ == 0) t.alu(2);
      }
      if (unroll_ > 1 && iter % unroll_ != 0) t.alu(2);
      const std::uint32_t part =
          t.ld_shared<std::uint32_t>(shared_partial_off(s, lane));
      t.alu(1);  // accumulate add
      t.st_shared<std::uint32_t>(shared_partial_off(s, lane), part + cnt);
      t.alu(2);  // outer loop control
    }
    return;
  }

  // ---- Reduce + writeback: thread t sums sibling t's 32 lane partials
  // (padded pitch: 32 distinct banks) and stores the support at the
  // candidate's GLOBAL index. W == 0 launches reach here with the partials
  // still executor-zeroed, yielding support 0 like the complete
  // intersection does. ----
  const std::uint32_t G = t.ld_shared<std::uint32_t>(shared_meta_off(0));
  const std::uint32_t off0 = t.ld_shared<std::uint32_t>(shared_meta_off(1));
  for (std::uint32_t s = tid; s < G; s += block) {
    std::uint32_t total = 0;
    t.alu(1);  // accumulator init
    for (std::uint32_t l = 0; l < 32; ++l) {
      total += t.ld_shared<std::uint32_t>(shared_partial_off(s, l));
      t.alu(1);  // the add
    }
    t.st_global(args_.supports, std::uint64_t{off0} + s, total);
    t.alu(2);  // loop control
  }
}

bool TiledSupportKernel::run_block_native(gpusim::BlockCtx& b) const {
  const std::uint32_t block = b.block_dim().x;
  const std::uint32_t tpb = b.num_threads();
  const std::uint32_t p = args_.k - 1;
  const std::uint32_t W = args_.words_per_row;
  if (p > kMaxNativePrefix) return false;
  const std::uint64_t g = args_.first_group + b.flat_block_idx();
  const std::uint32_t off0 = b.load(args_.group_offsets, g);
  const std::uint32_t off1 = b.load(args_.group_offsets, g + 1);
  const std::uint32_t G = off1 - off0;
  if (G > kMaxGroupSize) return false;
  const std::uint32_t nw = block / 32;
  const std::uint64_t stride = args_.stride_words;

  // ---- functional effect: supports[off0+s] = popcount(prefix AND & sib_s)
  // for every sibling of the group, in tiles of kNativeTileWords words. ----
  std::uint32_t prefix[kMaxNativePrefix];
  if (p != 0) {
    const auto v = b.view(args_.prefix_rows, g * p, p);
    std::copy(v.begin(), v.end(), prefix);
  }
  std::uint32_t sib[kMaxGroupSize];
  std::uint32_t counts[kMaxGroupSize] = {};
  if (G != 0) {
    const auto v = b.view(args_.sibling_rows, off0, G);
    std::copy(v.begin(), v.end(), sib);
  }
  if (W != 0 && G != 0) {
    std::uint32_t max_row = 0;
    for (std::uint32_t r = 0; r < p; ++r)
      max_row = std::max(max_row, prefix[r]);
    for (std::uint32_t s = 0; s < G; ++s)
      max_row = std::max(max_row, sib[s]);
    const std::uint32_t* base =
        b.view(args_.bitsets, 0, max_row * stride + W).data();

    // Per tile: the prefix AND once (none when k == 1), then each sibling
    // row's AND + popcount against it.
    std::uint32_t acc[kNativeTileWords];
    for (std::uint64_t t0 = 0; t0 < W; t0 += kNativeTileWords) {
      const std::uint64_t m = std::min(kNativeTileWords, W - t0);
      const std::uint32_t* tile_base = base + t0;
      if (p != 0) fim::bits::and_rows({tile_base, stride, {prefix, p}}, m, acc);
      for (std::uint32_t s = 0; s < G; ++s)
        counts[s] += static_cast<std::uint32_t>(fim::bits::and_popcount(
            {tile_base, stride, {&sib[s], 1}}, m, p != 0 ? acc : nullptr));
    }
  }
  for (std::uint32_t s = 0; s < G; ++s)
    b.store(args_.supports, std::uint64_t{off0} + s, counts[s]);

  using gpusim::detail::BlockRecorder;
  using gpusim::detail::WarpRows;
  const auto bitset_byte = [&](std::uint32_t row, std::uint64_t word) {
    return args_.bitsets.byte_of(row * stride + word);
  };

  // ---- accounting: field-exact against the interpreted phases; on a
  // sampled block, each phase's warp rows as the interpreter records them
  // (DESIGN.md §8). Lanes are filled in groups of equal trip count
  // (BlockCtx::for_each_piece), and each group walks its own row sequence;
  // the lowest lane of a warp makes the most accesses of every class, so
  // its count sizes the warp's rows. ----
  // Every per-lane count below is a strided trip count (strided_trips), so
  // each phase is constant between a few cuts and is charged in O(warps).
  //
  // Phase 0 — preload: every thread reads both group offsets and computes
  // the size; thread 0 parks them in shared; the row-id copies are strided
  // over the block, 4 ops per id.
  b.charge_global_loads(2ull * tpb + p + G, 4 * (2ull * tpb + p + G));
  b.charge_shared_stores(2 + std::uint64_t{p} + G);
  b.charge_piecewise_phase(
      0, {1, p % block, G % block}, [&](std::uint32_t tid) -> std::uint64_t {
        return 3 + (tid == 0 ? 2 : 0) + 4 * strided_trips(p, block, tid) +
               4 * strided_trips(G, block, tid);
      });
  b.record_phase([&](BlockRecorder& rec) {
    for (std::uint32_t w = 0; w < nw; ++w) {
      WarpRows& warp = rec.warp(w);
      const std::uint32_t t0 = 32 * w;
      const std::uint64_t ids =
          strided_trips(p, block, t0) + strided_trips(G, block, t0);
      const auto loads = warp.loads.claim(2 + ids);
      const auto shared = warp.shared.claim((w == 0 ? 2 : 0) + ids);
      b.for_each_piece(w, 0, {1, p % block, G % block}, [&](std::uint32_t lo,
                                                           std::uint32_t hi) {
        const std::uint32_t a = lo - 32 * w, e = hi - 32 * w;  // as lanes
        WarpRows::fill_global(loads[0], a, e, args_.group_offsets.byte_of(g),
                              0);
        WarpRows::fill_global(loads[1], a, e,
                              args_.group_offsets.byte_of(g + 1), 0);
        std::size_t ln = 2, sn = 0;
        if (lo == 0) {  // thread 0's meta stores
          warp.fill_shared(shared[sn++], 0, 1, shared_meta_off(0), 0, true);
          warp.fill_shared(shared[sn++], 0, 1, shared_meta_off(1), 0, true);
        }
        for (std::uint64_t m = 0; m < strided_trips(p, block, lo); ++m) {
          const std::uint64_t i = t0 + m * block;
          WarpRows::fill_global(loads[ln++], a, e,
                                args_.prefix_rows.byte_of(g * p + i), 4);
          warp.fill_shared(shared[sn++], a, e,
                           shared_prefix_off(static_cast<std::uint32_t>(i)),
                           4, true);
        }
        for (std::uint64_t m = 0; m < strided_trips(G, block, lo); ++m) {
          const std::uint64_t i = t0 + m * block;
          WarpRows::fill_global(loads[ln++], a, e,
                                args_.sibling_rows.byte_of(off0 + i), 4);
          warp.fill_shared(shared[sn++], a, e,
                           shared_sib_off(static_cast<std::uint32_t>(i)), 4,
                           true);
        }
      });
    }
  });

  const auto ctrl_groups = [&](std::uint64_t n) -> std::uint64_t {
    return unroll_ <= 1 ? n : (n + unroll_ - 1) / unroll_;
  };
  const std::uint32_t ntiles = (W + kTileWords - 1) / kTileWords;
  for (std::uint32_t j = 0; j < ntiles; ++j) {
    const std::uint32_t lo = j * kTileWords;
    const std::uint32_t len = std::min(W, lo + kTileWords) - lo;

    // Prefix-AND phase: each tile word is visited by exactly one thread,
    // costing p prefix-id loads (shared) + p bitset loads + the tile store;
    // per lane (3p+2) ops per word plus loop control.
    b.charge_shared_loads(std::uint64_t{p} * len);
    b.charge_global_loads(std::uint64_t{p} * len, 4ull * p * len);
    b.charge_shared_stores(len);
    const auto prefix_ops = [&](std::uint64_t n) -> std::uint64_t {
      return (3ull * p + 2) * n + 2 * ctrl_groups(n);
    };
    b.charge_split_phase(len % block, prefix_ops(len / block + 1),
                         prefix_ops(len / block));
    // Per word: each prefix id's broadcast shared read, then its bitset
    // word; the tile store last.
    b.record_phase([&](BlockRecorder& rec) {
      for (std::uint32_t w = 0; w < nw; ++w) {
        WarpRows& warp = rec.warp(w);
        const std::uint64_t most = strided_trips(len, block, 32 * w);
        const auto loads = warp.loads.claim(most * p);
        const auto shared = warp.shared.claim(most * (p + 1));
        b.for_each_piece(w, 0, {len % block}, [&](std::uint32_t t_lo,
                                                 std::uint32_t t_hi) {
          const std::uint32_t a = t_lo - 32 * w, e = t_hi - 32 * w;  // as lanes
          std::size_t ln = 0, sn = 0;
          for (std::uint64_t m = 0; m < strided_trips(len, block, t_lo);
               ++m) {
            const std::uint64_t t = 32 * w + m * block;  // tile word, lane 0
            for (std::uint32_t r = 0; r < p; ++r) {
              warp.fill_shared(shared[sn++], a, e, shared_prefix_off(r), 0,
                               false);
              WarpRows::fill_global(loads[ln++], a, e,
                                    bitset_byte(prefix[r], lo + t), 4);
            }
            warp.fill_shared(shared[sn++], a, e,
                             shared_tile_off(static_cast<std::uint32_t>(t)),
                             4, true);
          }
        });
      }
    });

    // Sibling-sweep phase: every thread reads the group size; each
    // sibling costs its 32 lanes one broadcast id load, len tile loads
    // between them, len bitset loads, and a partial RMW per lane. Warp w
    // sweeps strided_trips(G, nw, w) siblings, lane l strided_trips(len,
    // 32, l) words of each.
    b.charge_shared_loads(tpb + std::uint64_t{G} * (64 + len));
    b.charge_shared_stores(32ull * G);
    b.charge_global_loads(std::uint64_t{G} * len, 4ull * G * len);
    b.charge_piecewise_phase(
        len % 32, {}, [&](std::uint32_t tid) -> std::uint64_t {
          const std::uint64_t nsib = strided_trips(G, nw, tid / 32);
          const std::uint64_t n = strided_trips(len, 32, tid % 32);
          return 1 + nsib * (7 + 5 * n + 2 * ctrl_groups(n));
        });
    // Lanes below len % 32 make one more word trip per sibling, so after
    // each sibling their shared rows run one further ahead.
    b.record_phase([&](BlockRecorder& rec) {
      for (std::uint32_t w = 0; w < nw; ++w) {
        WarpRows& warp = rec.warp(w);
        const std::uint64_t nsib = strided_trips(G, nw, w);
        const std::uint64_t most = strided_trips(len, 32, 0);
        const auto loads = warp.loads.claim(nsib * most);
        const auto shared = warp.shared.claim(1 + nsib * (most + 3));
        warp.fill_shared(shared[0], 0, 32, shared_meta_off(0), 0, false);
        b.for_each_piece(w, len % 32, {}, [&](std::uint32_t t_lo,
                                             std::uint32_t t_hi) {
          const std::uint32_t a = t_lo - 32 * w, e = t_hi - 32 * w;  // as lanes
          const std::uint64_t n = strided_trips(len, 32, a);
          std::size_t ln = 0, sn = 1;
          for (std::uint32_t s = w; s < G; s += nw) {
            warp.fill_shared(shared[sn++], a, e, shared_sib_off(s), 0, false);
            for (std::uint64_t m = 0; m < n; ++m) {
              const std::uint64_t t = 32 * m;  // tile word, lane 0
              warp.fill_shared(shared[sn++], a, e,
                               shared_tile_off(static_cast<std::uint32_t>(t)),
                               4, false);
              WarpRows::fill_global(loads[ln++], a, e,
                                    bitset_byte(sib[s], lo + t), 4);
            }
            warp.fill_shared(shared[sn++], a, e, shared_partial_off(s, 0), 4,
                             false);
            warp.fill_shared(shared[sn++], a, e, shared_partial_off(s, 0), 4,
                             true);
          }
        });
      }
    });
  }

  // Reduce + writeback: every thread reads the meta pair; each sibling's
  // owner sums 32 partials (68 ops per sibling) and stores the support.
  b.charge_shared_loads(2ull * tpb + 32ull * G);
  b.charge_global_stores(G, 4ull * G);
  b.charge_split_phase(G % block, 2 + 68 * (G / block + 1),
                       2 + 68 * (G / block));
  b.record_phase([&](BlockRecorder& rec) {
    for (std::uint32_t w = 0; w < nw; ++w) {
      WarpRows& warp = rec.warp(w);
      const std::uint64_t most = strided_trips(G, block, 32 * w);
      const auto stores = warp.stores.claim(most);
      const auto shared = warp.shared.claim(2 + 32 * most);
      warp.fill_shared(shared[0], 0, 32, shared_meta_off(0), 0, false);
      warp.fill_shared(shared[1], 0, 32, shared_meta_off(1), 0, false);
      b.for_each_piece(w, 0, {G % block}, [&](std::uint32_t t_lo,
                                             std::uint32_t t_hi) {
        const std::uint32_t a = t_lo - 32 * w, e = t_hi - 32 * w;  // as lanes
        std::size_t sn = 2;
        for (std::uint64_t m = 0; m < strided_trips(G, block, t_lo); ++m) {
          const auto s = static_cast<std::uint32_t>(32 * w + m * block);
          for (std::uint32_t l = 0; l < 32; ++l)
            warp.fill_shared(shared[sn++], a, e, shared_partial_off(s, l),
                             4 * kPartialPitch, false);
          WarpRows::fill_global(stores[m], a, e,
                                args_.supports.byte_of(off0 + s), 4);
        }
      });
    }
  });
  return true;
}

}  // namespace gpapriori
