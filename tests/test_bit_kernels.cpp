// Differential tests of the AND + popcount primitive (fim/bit_kernels) and
// of the O(warps) closed-form charges of the native support kernels.
//
// Every implementation this host can run is compared with a plain scalar
// reference on seeded random rows. Each row under test can end exactly at
// the end of its heap buffer, so an over-read trips AddressSanitizer in
// the sanitizer presets.
//
// The charge tests keep the per-lane charge_phase lambdas the native
// kernels used before their closed forms as the oracle (the approach of
// test_analyzer_diff) and demand field-exact KernelCounters over a sweep of
// block sizes, row widths, candidate lengths, group sizes and unroll
// factors.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <random>
#include <string>
#include <vector>

#include "core/support_kernel.hpp"
#include "core/tiled_support_kernel.hpp"
#include "fim/bit_kernels.hpp"
#include "gpusim/kernel.hpp"
#include "gpusim/memory.hpp"

namespace {

using fim::bits::Word;

// ---------------------------------------------------------------------------
// The primitive.

std::uint64_t ref_and_popcount(const std::vector<const Word*>& rows,
                               std::size_t words, const Word* mask) {
  std::uint64_t n = 0;
  for (std::size_t w = 0; w < words; ++w) {
    Word acc = mask != nullptr ? mask[w] : ~Word{0};
    for (const Word* r : rows) acc &= r[w];
    n += static_cast<std::uint64_t>(std::popcount(acc));
  }
  return n;
}

/// `nrows` random rows of `words` words at a 16-word stride, in a buffer
/// that ends exactly where the last row's payload does.
struct Arena {
  std::size_t stride = 0;
  std::vector<Word> words;

  Arena(std::size_t nrows, std::size_t w, double density, std::mt19937& rng)
      : stride(std::max<std::size_t>(16, (w + 15) / 16 * 16)),
        words((nrows - 1) * stride + w) {
    std::bernoulli_distribution bit(density);
    for (Word& x : words)
      for (int b = 0; b < 32; ++b)
        if (bit(rng)) x |= Word{1} << b;
  }
  [[nodiscard]] const Word* row(std::uint32_t r) const {
    return words.data() + r * stride;
  }
};

/// Word counts under test: every width up to 40, then the T40 and pumsb
/// row widths.
std::vector<std::size_t> widths() {
  std::vector<std::size_t> w;
  for (std::size_t i = 0; i <= 40; ++i) w.push_back(i);
  w.push_back(144);
  w.push_back(307);
  return w;
}

TEST(BitKernels, ReportsWhichPathsRan) {
  const auto impls = fim::bits::implementations();
  ASSERT_FALSE(impls.empty());
  EXPECT_STREQ(impls.front().name, "portable");
  EXPECT_EQ(&fim::bits::active(), &impls.back());
  std::string names;
  for (const auto& impl : impls) names += std::string(" ") + impl.name;
  std::printf("[ bit_kernels ] implementations run:%s; active: %s\n",
              names.c_str(), fim::bits::active().name);
  RecordProperty("paths", names);
}

TEST(BitKernels, AndPopcountMatchesScalarReference) {
  std::mt19937 rng(1401);
  for (const auto& impl : fim::bits::implementations()) {
    SCOPED_TRACE(impl.name);
    for (const std::size_t W : widths()) {
      for (const double density : {0.5, 0.95}) {
        constexpr std::uint32_t kRows = 40;
        const Arena arena(kRows, W, density, rng);
        std::vector<Word> mask(W);
        for (Word& x : mask) x = static_cast<Word>(rng());
        for (const std::size_t k : {0u, 1u, 2u, 7u, 33u}) {
          std::vector<std::uint32_t> ids(k);
          for (auto& id : ids) id = static_cast<std::uint32_t>(rng() % kRows);
          if (k != 0) ids.back() = kRows - 1;  // ends at the buffer's end
          std::vector<const Word*> ptrs;
          for (const auto id : ids) ptrs.push_back(arena.row(id));
          const fim::bits::Rows rows{arena.words.data(), arena.stride, ids};
          EXPECT_EQ(impl.and_popcount(rows, W, nullptr),
                    ref_and_popcount(ptrs, W, nullptr))
              << "W=" << W << " k=" << k;
          EXPECT_EQ(impl.and_popcount(rows, W, mask.data()),
                    ref_and_popcount(ptrs, W, mask.data()))
              << "masked W=" << W << " k=" << k;
        }
      }
    }
  }
}

TEST(BitKernels, AndRowsMatchesScalarReference) {
  std::mt19937 rng(1402);
  for (const auto& impl : fim::bits::implementations()) {
    SCOPED_TRACE(impl.name);
    for (const std::size_t W : widths()) {
      constexpr std::uint32_t kRows = 40;
      const Arena arena(kRows, W, 0.9, rng);
      for (const std::size_t k : {0u, 1u, 2u, 7u, 33u}) {
        std::vector<std::uint32_t> ids(k);
        for (auto& id : ids) id = static_cast<std::uint32_t>(rng() % kRows);
        if (k != 0) ids.back() = kRows - 1;
        const fim::bits::Rows rows{arena.words.data(), arena.stride, ids};

        std::vector<Word> want(W, ~Word{0});
        for (std::size_t w = 0; w < W; ++w)
          for (const auto id : ids) want[w] &= arena.row(id)[w];

        std::vector<Word> out(W, 0);  // exact size: ASan catches overruns
        impl.and_rows(rows, W, out.data());
        EXPECT_EQ(out, want) << "W=" << W << " k=" << k;

        // Words past W stay untouched in a larger buffer too.
        std::vector<Word> padded(W + 16, 0xA5A5A5A5u);
        impl.and_rows(rows, W, padded.data());
        EXPECT_TRUE(std::equal(want.begin(), want.end(), padded.begin()));
        EXPECT_TRUE(std::all_of(padded.begin() + static_cast<long>(W),
                                padded.end(),
                                [](Word x) { return x == 0xA5A5A5A5u; }))
            << "and_rows wrote past W=" << W;
      }
    }
  }
}

TEST(BitKernels, FreeFunctionsUseTheActivePath) {
  std::mt19937 rng(1403);
  const Arena arena(5, 307, 0.8, rng);
  const std::vector<std::uint32_t> ids{4, 0, 2};
  const fim::bits::Rows rows{arena.words.data(), arena.stride, ids};
  const auto& impl = fim::bits::active();
  EXPECT_EQ(fim::bits::and_popcount(rows, 307),
            impl.and_popcount(rows, 307, nullptr));
  std::vector<Word> a(307), b(307);
  fim::bits::and_rows(rows, 307, a.data());
  impl.and_rows(rows, 307, b.data());
  EXPECT_EQ(a, b);
}

// ---------------------------------------------------------------------------
// Closed-form charges.

void expect_counters_eq(const gpusim::KernelCounters& got,
                        const gpusim::KernelCounters& want,
                        const std::string& what) {
  EXPECT_EQ(got.global_loads, want.global_loads) << what;
  EXPECT_EQ(got.global_stores, want.global_stores) << what;
  EXPECT_EQ(got.global_atomics, want.global_atomics) << what;
  EXPECT_EQ(got.global_load_bytes, want.global_load_bytes) << what;
  EXPECT_EQ(got.global_store_bytes, want.global_store_bytes) << what;
  EXPECT_EQ(got.shared_loads, want.shared_loads) << what;
  EXPECT_EQ(got.shared_stores, want.shared_stores) << what;
  EXPECT_EQ(got.thread_instructions, want.thread_instructions) << what;
  EXPECT_EQ(got.warp_instructions, want.warp_instructions) << what;
  EXPECT_EQ(got.warp_phases, want.warp_phases) << what;
  EXPECT_EQ(got.divergent_warp_phases, want.divergent_warp_phases) << what;
}

// The native kernels' accounting before the closed forms: one per-lane
// charge_phase lambda per phase.
namespace oracle {

void charge_support(gpusim::BlockCtx& b, std::uint32_t k, std::uint32_t W,
                    bool preload, std::uint32_t unroll) {
  const std::uint32_t block = b.block_dim().x;
  const std::uint32_t tpb = b.num_threads();
  const auto log2b = static_cast<std::uint32_t>(std::countr_zero(block));
  if (preload && k != 0) {
    const std::uint32_t pm = std::min(k, tpb);
    b.charge_global_loads(pm, 4ull * pm);
    b.charge_shared_stores(pm);
    b.charge_split_phase(pm, 2, 0);
  } else {
    b.charge_split_phase(0, 0, 0);
  }
  const std::uint64_t cand_loads = std::uint64_t{k} * W;
  if (preload)
    b.charge_shared_loads(cand_loads);
  else
    b.charge_global_loads(cand_loads, 4 * cand_loads);
  b.charge_global_loads(cand_loads, 4 * cand_loads);
  b.charge_shared_stores(tpb);
  b.charge_phase([&](std::uint32_t tid) -> std::uint64_t {
    if (tid >= W) return 1;
    const std::uint64_t n_iters = (W - 1 - tid) / block + 1;
    const std::uint64_t groups =
        unroll <= 1 ? n_iters : (n_iters + unroll - 1) / unroll;
    return (3ull * k + 2) * n_iters + 2 * groups + 1;
  });
  for (std::uint32_t p = 2; p < 2 + log2b; ++p) {
    const std::uint32_t s = block >> (p - 1);
    b.charge_shared_loads(2ull * s);
    b.charge_shared_stores(s);
    b.charge_split_phase(s, 4, 0);
  }
  b.charge_shared_loads(1);
  b.charge_global_stores(1, 4);
  b.charge_split_phase(1, 2, 0);
}

void charge_tiled(gpusim::BlockCtx& b, std::uint32_t k, std::uint32_t W,
                  std::uint32_t G, std::uint32_t unroll) {
  constexpr std::uint32_t kTileWords =
      gpapriori::TiledSupportKernel::kTileWords;
  const std::uint32_t block = b.block_dim().x;
  const std::uint32_t tpb = b.num_threads();
  const std::uint32_t p = k - 1;
  const std::uint32_t nw = block / 32;
  b.charge_global_loads(2ull * tpb + p + G, 4 * (2ull * tpb + p + G));
  b.charge_shared_stores(2 + std::uint64_t{p} + G);
  b.charge_phase([&](std::uint32_t tid) -> std::uint64_t {
    const std::uint64_t np = tid < p ? (p - 1 - tid) / block + 1 : 0;
    const std::uint64_t ns = tid < G ? (G - 1 - tid) / block + 1 : 0;
    return 3 + (tid == 0 ? 2 : 0) + 4 * np + 4 * ns;
  });
  const std::uint32_t ntiles = (W + kTileWords - 1) / kTileWords;
  for (std::uint32_t j = 0; j < ntiles; ++j) {
    const std::uint32_t lo = j * kTileWords;
    const std::uint32_t len = std::min(W, lo + kTileWords) - lo;
    b.charge_shared_loads(std::uint64_t{p} * len);
    b.charge_global_loads(std::uint64_t{p} * len, 4ull * p * len);
    b.charge_shared_stores(len);
    b.charge_phase([&](std::uint32_t tid) -> std::uint64_t {
      const std::uint64_t n = tid < len ? (len - 1 - tid) / block + 1 : 0;
      if (n == 0) return 0;
      const std::uint64_t ctrl = unroll <= 1 ? n : (n + unroll - 1) / unroll;
      return (3ull * p + 2) * n + 2 * ctrl;
    });
    b.charge_shared_loads(tpb + std::uint64_t{G} * (64 + len));
    b.charge_shared_stores(32ull * G);
    b.charge_global_loads(std::uint64_t{G} * len, 4ull * G * len);
    b.charge_phase([&](std::uint32_t tid) -> std::uint64_t {
      const std::uint32_t wp = tid / 32, l = tid % 32;
      const std::uint64_t nsib = wp < G ? (G - 1 - wp) / nw + 1 : 0;
      const std::uint64_t n = l < len ? (len - 1 - l) / 32 + 1 : 0;
      const std::uint64_t wg = unroll <= 1 ? n : (n + unroll - 1) / unroll;
      return 1 + nsib * (7 + 5 * n + 2 * wg);
    });
  }
  b.charge_shared_loads(2ull * tpb + 32ull * G);
  b.charge_global_stores(G, 4ull * G);
  b.charge_phase([&](std::uint32_t tid) -> std::uint64_t {
    const std::uint64_t ns = tid < G ? (G - 1 - tid) / block + 1 : 0;
    return 2 + 68 * ns;
  });
}

}  // namespace oracle

constexpr std::uint32_t kBlocks[] = {32, 64, 128, 256, 512};
constexpr std::uint32_t kWidths[] = {0, 1, 31, 32, 33, 255, 256, 257, 513};
constexpr std::uint32_t kLengths[] = {1, 2, 33, 256, 257};
constexpr std::uint32_t kGroups[] = {0, 1, 31, 32, 33, 64};
constexpr std::uint32_t kUnrolls[] = {1, 2, 4, 8};
constexpr std::uint32_t kArenaRows = 300;

/// Device memory for one row width: a random bitset arena plus room for
/// every id list and output the sweep needs.
struct SweepMemory {
  gpusim::GlobalMemory mem{8u << 20};
  std::uint32_t stride;
  std::vector<Word> host;
  gpusim::DevicePtr<std::uint32_t> bitsets, ids, sibs, offsets, supports;

  SweepMemory(std::uint32_t W, std::mt19937& rng)
      : stride(std::max<std::uint32_t>(16, (W + 15) / 16 * 16)),
        host(std::size_t{kArenaRows} * stride) {
    // Two draws ORed: 75%-dense rows, so short ANDs stay non-zero.
    for (Word& x : host)
      x = static_cast<Word>(rng()) | static_cast<Word>(rng());
    bitsets = mem.alloc<std::uint32_t>(host.size());
    mem.write_bytes(bitsets.addr, host.data(), host.size() * 4);
    ids = mem.alloc<std::uint32_t>(512);
    sibs = mem.alloc<std::uint32_t>(64);
    offsets = mem.alloc<std::uint32_t>(2);
    supports = mem.alloc<std::uint32_t>(64);
  }
  std::vector<std::uint32_t> put_ids(gpusim::DevicePtr<std::uint32_t> p,
                                     std::uint32_t n, std::mt19937& rng) {
    std::vector<std::uint32_t> v(n);
    for (auto& x : v) x = static_cast<std::uint32_t>(rng() % kArenaRows);
    if (n != 0) mem.write_bytes(p.addr, v.data(), n * 4);
    return v;
  }
  [[nodiscard]] std::uint32_t support(std::uint32_t i) const {
    std::uint32_t v = 0;
    mem.read_bytes(supports.byte_of(i), &v, 4);
    return v;
  }
  [[nodiscard]] std::uint32_t ref_support(
      const std::vector<std::uint32_t>& rows, std::uint32_t W) const {
    std::uint32_t n = 0;
    for (std::uint32_t w = 0; w < W; ++w) {
      Word acc = ~Word{0};
      for (const auto r : rows) acc &= host[std::size_t{r} * stride + w];
      n += static_cast<std::uint32_t>(std::popcount(acc));
    }
    return n;
  }
};

/// Context for block 0 of a one-block, 1-D launch.
gpusim::BlockCtx block_ctx(std::uint32_t block, gpusim::GlobalMemory& mem,
                           gpusim::KernelCounters& counters) {
  return {gpusim::Dim3{1}, gpusim::Dim3{block}, gpusim::Dim3{0, 0, 0}, mem,
          counters};
}

TEST(BitKernelCharges, SupportKernelMatchesPerLaneOracle) {
  std::mt19937 rng(1404);
  std::uint64_t compared = 0;
  for (const std::uint32_t W : kWidths) {
    SweepMemory m(W, rng);
    for (const std::uint32_t k : kLengths) {
      std::vector<std::uint32_t> rows = m.put_ids(m.ids, k, rng);
      for (const std::uint32_t block : kBlocks)
        for (const std::uint32_t unroll : kUnrolls)
          for (const bool preload : {false, true}) {
            const std::string what =
                "W=" + std::to_string(W) + " k=" + std::to_string(k) +
                " block=" + std::to_string(block) + " unroll=" +
                std::to_string(unroll) + " preload=" + std::to_string(preload);
            gpapriori::SupportKernel::Args a;
            a.bitsets = m.bitsets;
            a.stride_words = m.stride;
            a.words_per_row = W;
            a.candidates = m.ids;
            a.k = k;
            a.supports = m.supports;
            const gpapriori::SupportKernel kernel(a, preload, unroll);
            gpusim::KernelCounters got, want;
            gpusim::BlockCtx bg = block_ctx(block, m.mem, got);
            gpusim::BlockCtx bw = block_ctx(block, m.mem, want);
            if (!kernel.run_block_native(bg)) {
              EXPECT_GT(k, 256u) << what;  // only over-long candidates decline
              continue;
            }
            oracle::charge_support(bw, k, W, preload, unroll);
            expect_counters_eq(got, want, what);
            EXPECT_EQ(bg.phases_charged(), bw.phases_charged()) << what;
            // Preloading zeroes ids the block could not copy (r >= block).
            std::vector<std::uint32_t> eff = rows;
            for (std::uint32_t r = 0; r < k; ++r)
              if (preload && r >= block) eff[r] = 0;
            EXPECT_EQ(m.support(0), m.ref_support(eff, W)) << what;
            ++compared;
          }
    }
  }
  EXPECT_GT(compared, 1000u);
}

TEST(BitKernelCharges, TiledKernelMatchesPerLaneOracle) {
  std::mt19937 rng(1405);
  std::uint64_t compared = 0;
  for (const std::uint32_t W : kWidths) {
    SweepMemory m(W, rng);
    for (const std::uint32_t k : kLengths) {
      const std::vector<std::uint32_t> prefix = m.put_ids(m.ids, k - 1, rng);
      for (const std::uint32_t G : kGroups) {
        const std::vector<std::uint32_t> sibs = m.put_ids(m.sibs, G, rng);
        const std::uint32_t offs[2] = {0, G};
        m.mem.write_bytes(m.offsets.addr, offs, sizeof offs);
        for (const std::uint32_t block : kBlocks)
          for (const std::uint32_t unroll : kUnrolls) {
            const std::string what =
                "W=" + std::to_string(W) + " k=" + std::to_string(k) +
                " G=" + std::to_string(G) + " block=" +
                std::to_string(block) + " unroll=" + std::to_string(unroll);
            gpapriori::TiledSupportKernel::Args a;
            a.bitsets = m.bitsets;
            a.stride_words = m.stride;
            a.words_per_row = W;
            a.prefix_rows = m.ids;
            a.sibling_rows = m.sibs;
            a.group_offsets = m.offsets;
            a.k = k;
            a.supports = m.supports;
            const gpapriori::TiledSupportKernel kernel(a, unroll);
            gpusim::KernelCounters got, want;
            gpusim::BlockCtx bg = block_ctx(block, m.mem, got);
            gpusim::BlockCtx bw = block_ctx(block, m.mem, want);
            ASSERT_TRUE(kernel.run_block_native(bg)) << what;
            oracle::charge_tiled(bw, k, W, G, unroll);
            expect_counters_eq(got, want, what);
            EXPECT_EQ(bg.phases_charged(), bw.phases_charged()) << what;
            for (std::uint32_t s = 0; s < G; ++s) {
              std::vector<std::uint32_t> rows = prefix;
              rows.push_back(sibs[s]);
              EXPECT_EQ(m.support(s), m.ref_support(rows, W))
                  << what << " sibling " << s;
            }
            ++compared;
          }
      }
    }
  }
  EXPECT_EQ(compared, std::size(kWidths) * std::size(kLengths) *
                          std::size(kGroups) * std::size(kBlocks) *
                          std::size(kUnrolls));
}

}  // namespace
