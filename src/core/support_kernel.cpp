#include "core/support_kernel.hpp"

#include <algorithm>
#include <bit>

#include "fim/bit_kernels.hpp"
#include "gpusim/error.hpp"

namespace gpapriori {

namespace {

/// Largest candidate length handled natively (stack row-id buffer); longer
/// candidates fall back to the interpreter, which has no such limit.
constexpr std::uint32_t kMaxNativeK = 256;

}  // namespace

std::uint32_t SupportKernel::phase_count(std::uint32_t block_size) {
  const auto log2b =
      static_cast<std::uint32_t>(std::countr_zero(block_size));
  return 1 /*preload*/ + 1 /*accumulate*/ + log2b /*reduction*/ + 1 /*write*/;
}

gpusim::KernelInfo SupportKernel::info(const gpusim::LaunchConfig& cfg) const {
  // The kernel indexes threads and partials by x alone, so a 2-D or 3-D
  // block would write the same partial slots twice. The tree reduction
  // halves blockDim.x every phase, so a non-power-of-two block would
  // silently drop partial sums (threads in [2^floor(log2 B), B) are never
  // reduced in). Reject both at launch instead of miscounting.
  if (cfg.block.y != 1 || cfg.block.z != 1)
    throw gpusim::LaunchError("gpapriori_support: block must be 1-D");
  if (!std::has_single_bit(cfg.block.x))
    throw gpusim::LaunchError(
        "gpapriori_support: block.x must be a power of two (got " +
        std::to_string(cfg.block.x) + ")");
  gpusim::KernelInfo i;
  i.num_phases = phase_count(cfg.block.x);
  // Shared layout: blockDim partial sums, then the preloaded candidate.
  i.static_shared_bytes =
      (static_cast<std::size_t>(cfg.block.x) + (preload_ ? args_.k : 0)) * 4;
  i.regs_per_thread = 14;
  return i;
}

void SupportKernel::run_phase(std::uint32_t phase,
                              gpusim::ThreadCtx& t) const {
  const std::uint32_t tid = t.flat_tid();
  const std::uint32_t block = t.block_dim().x;
  const std::uint64_t cand =
      args_.first_candidate + t.flat_block_idx();
  const auto log2b = static_cast<std::uint32_t>(std::countr_zero(block));

  if (phase == 0) {
    // Candidate preload (threads 0..k-1). Without the optimization this
    // phase idles and phase 1 re-reads the candidate from global memory.
    if (preload_ && tid < args_.k) {
      const std::uint32_t row =
          t.ld_global(args_.candidates, cand * args_.k + tid);
      t.st_shared<std::uint32_t>(shared_cand_off(block, tid), row);
    }
    return;
  }

  if (phase == 1) {
    // Complete intersection: stride-blockDim loop over 32-bit words.
    std::uint32_t count = 0;
    std::uint32_t iter = 0;
    for (std::uint64_t w = tid; w < args_.words_per_row; w += block, ++iter) {
      std::uint32_t acc = ~0u;
      for (std::uint32_t r = 0; r < args_.k; ++r) {
        const std::uint32_t row =
            preload_
                ? t.ld_shared<std::uint32_t>(shared_cand_off(block, r))
                : t.ld_global(args_.candidates, cand * args_.k + r);
        acc &= t.ld_global(args_.bitsets,
                           static_cast<std::uint64_t>(row) *
                                   args_.stride_words + w);
        t.alu(1);  // the AND
      }
      count += t.popc(acc);
      t.alu(1);  // accumulate add
      // Loop control: with manual unrolling the index/branch overhead is
      // paid once per COMPLETED group of `unroll` iterations...
      if (unroll_ <= 1 || (iter + 1) % unroll_ == 0) t.alu(2);
    }
    // ...plus once for the trailing partial group.
    if (unroll_ > 1 && iter % unroll_ != 0) t.alu(2);
    t.st_shared<std::uint32_t>(shared_partial_off(tid), count);
    return;
  }

  const std::uint32_t last_phase = 2 + log2b;
  if (phase < last_phase) {
    // Reduction step: phase 2 halves blockDim, phase 3 halves again, ...
    const std::uint32_t stride = block >> (phase - 1);
    if (tid < stride) {
      const auto a = t.ld_shared<std::uint32_t>(shared_partial_off(tid));
      const auto b =
          t.ld_shared<std::uint32_t>(shared_partial_off(tid + stride));
      t.alu(1);
      t.st_shared<std::uint32_t>(shared_partial_off(tid), a + b);
    }
    return;
  }

  if (tid == 0) {
    const auto total = t.ld_shared<std::uint32_t>(shared_partial_off(0));
    t.st_global(args_.supports, cand, total);
  }
}

bool SupportKernel::run_block_native(gpusim::BlockCtx& b) const {
  const std::uint32_t block = b.block_dim().x;
  const std::uint32_t tpb = b.num_threads();
  const std::uint32_t k = args_.k;
  const std::uint32_t W = args_.words_per_row;
  if (k > kMaxNativeK) return false;
  const std::uint64_t cand = args_.first_candidate + b.flat_block_idx();
  const auto log2b = static_cast<std::uint32_t>(std::countr_zero(block));

  // ---- functional effect: supports[cand] = popcount(AND of k rows) ----
  // Candidate row ids are read once per block. With preloading, rows the
  // interpreter could not copy in phase 0 (r >= blockDim when k > blockDim)
  // read back as zero from shared memory — replicated here for bit-exact
  // parity with the interpreted path.
  std::uint32_t rows[kMaxNativeK];
  if (k != 0) {
    const auto cand_view =
        b.view(args_.candidates, static_cast<std::uint64_t>(cand) * k, k);
    for (std::uint32_t r = 0; r < k; ++r)
      rows[r] = (preload_ && r >= tpb) ? 0u : cand_view[r];
  }

  std::uint32_t support = 0;
  if (W != 0 && k == 0) {
    support = 32u * W;  // empty AND = all ones, as the interpreter yields
  } else if (W != 0) {
    std::uint32_t max_row = 0;
    for (std::uint32_t r = 0; r < k; ++r) max_row = std::max(max_row, rows[r]);
    const std::uint64_t stride = args_.stride_words;
    const std::uint32_t* base =
        b.view(args_.bitsets, 0, max_row * stride + W).data();
    support = static_cast<std::uint32_t>(
        fim::bits::and_popcount({base, stride, {rows, k}}, W));
  }
  b.store(args_.supports, cand, support);

  using gpusim::detail::BlockRecorder;
  using gpusim::detail::WarpRows;
  const std::uint64_t stride = args_.stride_words;

  // ---- accounting: field-exact against the interpreted phases; on a
  // sampled block, each phase's warp rows as the interpreter records them
  // (DESIGN.md §8). Lanes are filled in groups of equal trip count
  // (BlockCtx::for_each_piece); the lowest lane of a warp makes the most
  // accesses of every class, so its count sizes the warp's rows. ----
  // Phase 0 — preload: threads tid < min(k, tpb) each do one global load
  // plus one shared store (2 ops).
  const std::uint32_t pm = preload_ ? std::min(k, tpb) : 0;
  b.charge_global_loads(pm, 4ull * pm);
  b.charge_shared_stores(pm);
  b.charge_split_phase(pm, 2, 0);
  b.record_phase([&](BlockRecorder& rec) {
    for (std::uint32_t w = 0; w < b.num_warps() && 32 * w < pm; ++w) {
      WarpRows& warp = rec.warp(w);
      const std::uint32_t n = std::min(pm - 32 * w, 32u);
      WarpRows::fill_global(warp.loads.claim(1)[0], 0, n,
                            args_.candidates.byte_of(cand * k + 32 * w), 4);
      warp.fill_shared(warp.shared.claim(1)[0], 0, n,
                       shared_cand_off(block, 32 * w), 4, true);
    }
  });

  // Phase 1 — accumulate: each of the W words is visited by exactly one
  // thread, costing k candidate loads (shared or global) + k bitset loads;
  // every thread stores its partial.
  const std::uint64_t cand_loads = std::uint64_t{k} * W;
  if (preload_)
    b.charge_shared_loads(cand_loads);
  else
    b.charge_global_loads(cand_loads, 4 * cand_loads);
  b.charge_global_loads(cand_loads, 4 * cand_loads);  // bitset words
  b.charge_shared_stores(tpb);
  // Thread tid visits n = ceil((W - tid) / blockDim) words: with
  // W = q·blockDim + r that is q + 1 below tid r and q from there on, so
  // the phase splits at r. Per lane: (k ANDs + popc + add) and k candidate
  // + k bitset loads per word, 2 loop-control ops per unroll group, and the
  // partial's store.
  const auto ops_of_iters = [&](std::uint64_t n) -> std::uint64_t {
    const std::uint64_t groups =
        unroll_ <= 1 ? n : (n + unroll_ - 1) / unroll_;
    return (3ull * k + 2) * n + 2 * groups + 1;
  };
  const std::uint64_t q = W / block;
  b.charge_split_phase(W % block, ops_of_iters(q + 1), ops_of_iters(q));
  // Per word, each row id r is read (from shared when preloaded, else a
  // broadcast global load interleaved with the bitset loads) before its
  // bitset word. A preloaded id r >= blockDim reads 0: rows[] holds it so.
  b.record_phase([&](BlockRecorder& rec) {
    const std::uint64_t per_word = preload_ ? k : 2ull * k;
    for (std::uint32_t w = 0; w < b.num_warps(); ++w) {
      WarpRows& warp = rec.warp(w);
      const std::uint64_t most = q + (32 * w < W % block ? 1 : 0);
      const auto loads = warp.loads.claim(most * per_word);
      const auto shared = warp.shared.claim(preload_ ? most * k + 1 : 1);
      b.for_each_piece(w, 0, {W % block}, [&](std::uint32_t lo,
                                              std::uint32_t hi) {
        const std::uint32_t a = lo - 32 * w, e = hi - 32 * w;  // as lanes
        const std::uint64_t n = q + (lo < W % block ? 1 : 0);
        std::size_t ln = 0, sn = 0;
        for (std::uint64_t m = 0; m < n; ++m) {
          const std::uint64_t word0 = 32 * w + m * block;
          for (std::uint32_t r = 0; r < k; ++r) {
            if (preload_)
              warp.fill_shared(shared[sn++], a, e, shared_cand_off(block, r),
                               0, false);
            else
              WarpRows::fill_global(loads[ln++], a, e,
                                    args_.candidates.byte_of(cand * k + r), 0);
            WarpRows::fill_global(
                loads[ln++], a, e,
                args_.bitsets.byte_of(rows[r] * stride + word0), 4);
          }
        }
        warp.fill_shared(shared[sn], a, e, shared_partial_off(32 * w), 4,
                         true);
      });
    }
  });

  // Reduction phases: threads tid < stride do 2 shared loads + add + store.
  for (std::uint32_t p = 2; p < 2 + log2b; ++p) {
    const std::uint32_t s = block >> (p - 1);
    b.charge_shared_loads(2ull * s);
    b.charge_shared_stores(s);
    b.charge_split_phase(s, 4, 0);
    b.record_phase([&](BlockRecorder& rec) {
      for (std::uint32_t w = 0; w < b.num_warps() && 32 * w < s; ++w) {
        WarpRows& warp = rec.warp(w);
        const std::uint32_t n = std::min(s - 32 * w, 32u);
        const auto shared = warp.shared.claim(3);
        warp.fill_shared(shared[0], 0, n, shared_partial_off(32 * w), 4,
                         false);
        warp.fill_shared(shared[1], 0, n, shared_partial_off(32 * w + s), 4,
                         false);
        warp.fill_shared(shared[2], 0, n, shared_partial_off(32 * w), 4,
                         true);
      }
    });
  }

  // Writeback: thread 0 loads the total and stores the support.
  b.charge_shared_loads(1);
  b.charge_global_stores(1, 4);
  b.charge_split_phase(1, 2, 0);
  b.record_phase([&](BlockRecorder& rec) {
    WarpRows& warp = rec.warp(0);
    warp.fill_shared(warp.shared.claim(1)[0], 0, 1, shared_partial_off(0), 0,
                     false);
    WarpRows::fill_global(warp.stores.claim(1)[0], 0, 1,
                          args_.supports.byte_of(cand), 0);
  });
  return true;
}

}  // namespace gpapriori
