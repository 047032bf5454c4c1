#include "core/support_kernel.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "core/candidate_trie.hpp"
#include "fim/bitset_ops.hpp"
#include "gpusim/device_context.hpp"
#include "gpusim/error.hpp"
#include "test_util.hpp"

namespace {

using fim::BitsetStore;
using gpapriori::SupportKernel;
using gpusim::Device;
using gpusim::DeviceOptions;
using gpusim::DeviceProperties;

struct KernelCase {
  std::uint32_t block_size;
  std::uint32_t k;
  bool preload;
  std::uint32_t unroll;
  std::size_t num_trans;
};

std::string case_name(const testing::TestParamInfo<KernelCase>& info) {
  const auto& c = info.param;
  return "b" + std::to_string(c.block_size) + "_k" + std::to_string(c.k) +
         (c.preload ? "_pre" : "_nopre") + "_u" + std::to_string(c.unroll) +
         "_t" + std::to_string(c.num_trans);
}

/// Uploads the store, counts all k-item candidates over `rows` items with
/// the kernel, and returns the supports.
std::vector<fim::Support> run_support(const BitsetStore& store,
                                      const std::vector<std::uint32_t>& flat,
                                      std::uint32_t k, const KernelCase& c,
                                      Device& dev) {
  const std::uint32_t ncand = static_cast<std::uint32_t>(flat.size()) / k;
  auto d_bits = dev.alloc<std::uint32_t>(store.arena().size(), 64);
  dev.copy_to_device(d_bits, store.arena());
  auto d_cand = dev.alloc<std::uint32_t>(flat.size());
  dev.copy_to_device(d_cand, std::span<const std::uint32_t>(flat));
  auto d_sup = dev.alloc<std::uint32_t>(ncand);

  SupportKernel::Args args;
  args.bitsets = d_bits;
  args.stride_words = static_cast<std::uint32_t>(store.row_stride_words());
  args.words_per_row = static_cast<std::uint32_t>(store.words_per_row());
  args.candidates = d_cand;
  args.k = k;
  args.supports = d_sup;
  SupportKernel kernel(args, c.preload, c.unroll);
  dev.launch(kernel, {gpusim::Dim3{ncand}, gpusim::Dim3{c.block_size}});

  std::vector<std::uint32_t> sup(ncand);
  dev.copy_to_host(std::span<std::uint32_t>(sup), d_sup);
  dev.free(d_bits);
  dev.free(d_cand);
  dev.free(d_sup);
  return sup;
}

class SupportKernelSweep : public testing::TestWithParam<KernelCase> {};

TEST_P(SupportKernelSweep, MatchesCpuAndPopcount) {
  const auto& c = GetParam();
  const std::size_t items = 8;
  const auto db = testutil::random_db(c.num_trans, items, 0.4, 123);
  std::vector<fim::Item> rows;
  for (fim::Item x = 0; x < items; ++x) rows.push_back(x);
  const auto store = BitsetStore::from_db(db, rows);

  // All k-combinations of the 8 rows as candidates (trie-order irrelevant).
  gpapriori::CandidateTrie trie(items);
  for (std::uint32_t lvl = 2; lvl <= c.k; ++lvl) {
    trie.extend();
    std::vector<fim::Support> all(trie.level_size(lvl), 100);
    trie.mark_frequent(lvl, all, 1);
  }
  const auto paths = trie.level_paths(c.k);  // level 1: rows 0..7
  const std::vector<std::uint32_t> flat(paths.begin(), paths.end());

  DeviceOptions opts;
  opts.arena_bytes = 32 << 20;
  opts.strict_memory = true;  // every device access block-checked
  opts.executor.sample_stride = 1;
  Device dev(DeviceProperties::tesla_t10(), opts);
  const auto sup = run_support(store, flat, c.k, c, dev);

  const std::size_t ncand = flat.size() / c.k;
  for (std::size_t i = 0; i < ncand; ++i) {
    const auto expect = store.and_popcount(
        std::span<const std::uint32_t>(flat).subspan(i * c.k, c.k));
    ASSERT_EQ(sup[i], expect) << "candidate " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SupportKernelSweep,
    testing::Values(
        // Block-size sweep (the §IV.3 hand-tuned knob).
        KernelCase{32, 2, true, 4, 500}, KernelCase{64, 2, true, 4, 500},
        KernelCase{128, 2, true, 4, 500}, KernelCase{256, 2, true, 4, 500},
        KernelCase{512, 2, true, 4, 500},
        // Candidate length sweep.
        KernelCase{128, 1, true, 4, 700}, KernelCase{128, 3, true, 4, 700},
        KernelCase{128, 4, true, 4, 700},
        // Optimization toggles must not change results.
        KernelCase{128, 3, false, 4, 700}, KernelCase{128, 3, true, 1, 700},
        KernelCase{128, 3, false, 1, 700},
        // Edge shapes: fewer transactions than one word, word boundary,
        // more words than threads.
        KernelCase{64, 2, true, 4, 17}, KernelCase{64, 2, true, 4, 64},
        KernelCase{32, 2, true, 4, 5000}),
    case_name);

TEST(SupportKernel, BatchOffsetCountsTheRightCandidates) {
  const auto db = testutil::random_db(300, 6, 0.5, 9);
  std::vector<fim::Item> rows{0, 1, 2, 3, 4, 5};
  const auto store = BitsetStore::from_db(db, rows);
  // 4 two-item candidates; count the last two via first_candidate = 2.
  const std::vector<std::uint32_t> flat{0, 1, 1, 2, 2, 3, 4, 5};

  DeviceOptions opts;
  opts.arena_bytes = 8 << 20;
  opts.strict_memory = true;
  Device dev(DeviceProperties::tesla_t10(), opts);
  auto d_bits = dev.alloc<std::uint32_t>(store.arena().size(), 64);
  dev.copy_to_device(d_bits, store.arena());
  auto d_cand = dev.alloc<std::uint32_t>(flat.size());
  dev.copy_to_device(d_cand, std::span<const std::uint32_t>(flat));
  auto d_sup = dev.alloc<std::uint32_t>(4);

  SupportKernel::Args args;
  args.bitsets = d_bits;
  args.stride_words = static_cast<std::uint32_t>(store.row_stride_words());
  args.words_per_row = static_cast<std::uint32_t>(store.words_per_row());
  args.candidates = d_cand;
  args.k = 2;
  args.first_candidate = 2;
  args.supports = d_sup;
  SupportKernel kernel(args, true, 4);
  dev.launch(kernel, {gpusim::Dim3{2}, gpusim::Dim3{64}});

  std::vector<std::uint32_t> sup(4);
  dev.copy_to_host(std::span<std::uint32_t>(sup), d_sup);
  const std::uint32_t c2[] = {2, 3}, c3[] = {4, 5};
  EXPECT_EQ(sup[2], store.and_popcount(c2));
  EXPECT_EQ(sup[3], store.and_popcount(c3));
}

TEST(SupportKernel, BitsetLoadsAreWellCoalesced) {
  // The Fig. 3 claim, bitset side: strided word loads over 64 B-aligned
  // rows coalesce nearly perfectly.
  const auto db = testutil::random_db(4096, 4, 0.5, 3);
  std::vector<fim::Item> rows{0, 1, 2, 3};
  const auto store = BitsetStore::from_db(db, rows);
  const std::vector<std::uint32_t> flat{0, 1, 1, 2, 2, 3};

  DeviceOptions opts;
  opts.arena_bytes = 8 << 20;
  opts.executor.sample_stride = 1;
  Device dev(DeviceProperties::tesla_t10(), opts);
  auto d_bits = dev.alloc<std::uint32_t>(store.arena().size(), 64);
  dev.copy_to_device(d_bits, store.arena());
  auto d_cand = dev.alloc<std::uint32_t>(flat.size());
  dev.copy_to_device(d_cand, std::span<const std::uint32_t>(flat));
  auto d_sup = dev.alloc<std::uint32_t>(3);

  SupportKernel::Args args;
  args.bitsets = d_bits;
  args.stride_words = static_cast<std::uint32_t>(store.row_stride_words());
  args.words_per_row = static_cast<std::uint32_t>(store.words_per_row());
  args.candidates = d_cand;
  args.k = 2;
  args.supports = d_sup;
  SupportKernel kernel(args, true, 4);
  const auto stats = dev.launch(kernel, {gpusim::Dim3{3}, gpusim::Dim3{128}});
  EXPECT_GT(stats.gmem_load_coalescing.efficiency(), 0.9);
  // The AND/popcount phase itself is divergence-free; the only divergent
  // warp phases are the structural ones (preload, reduction tail,
  // writeback), which are bounded per block independent of data size.
  const auto info = kernel.info({gpusim::Dim3{3}, gpusim::Dim3{128}});
  EXPECT_LE(stats.counters.divergent_warp_phases,
            stats.counters.blocks * info.num_phases);
  // The phase structure (preload / accumulate / reduction / writeback) must
  // be free of intra-phase shared-memory races.
  EXPECT_EQ(stats.shared_race_hazards, 0u);
}

TEST(SupportKernel, PreloadReducesGlobalLoads) {
  const auto db = testutil::random_db(4096, 4, 0.5, 3);
  std::vector<fim::Item> rows{0, 1, 2, 3};
  const auto store = BitsetStore::from_db(db, rows);
  const std::vector<std::uint32_t> flat{0, 1, 2, 3};  // one 4-item candidate

  auto run = [&](bool preload) {
    DeviceOptions opts;
    opts.arena_bytes = 8 << 20;
    Device dev(DeviceProperties::tesla_t10(), opts);
    auto d_bits = dev.alloc<std::uint32_t>(store.arena().size(), 64);
    dev.copy_to_device(d_bits, store.arena());
    auto d_cand = dev.alloc<std::uint32_t>(flat.size());
    dev.copy_to_device(d_cand, std::span<const std::uint32_t>(flat));
    auto d_sup = dev.alloc<std::uint32_t>(1);
    SupportKernel::Args args;
    args.bitsets = d_bits;
    args.stride_words = static_cast<std::uint32_t>(store.row_stride_words());
    args.words_per_row = static_cast<std::uint32_t>(store.words_per_row());
    args.candidates = d_cand;
    args.k = 4;
    args.supports = d_sup;
    SupportKernel kernel(args, preload, 4);
    return dev.launch(kernel, {gpusim::Dim3{1}, gpusim::Dim3{64}});
  };

  const auto with = run(true);
  const auto without = run(false);
  EXPECT_LT(with.counters.global_loads, without.counters.global_loads);
  // Results identical is covered by the sweep; here check the cost model
  // sees the optimization.
  EXPECT_LE(with.timing.total_ns, without.timing.total_ns);
}

TEST(SupportKernel, PhaseCountFormula) {
  EXPECT_EQ(SupportKernel::phase_count(32), 1u + 1u + 5u + 1u);
  EXPECT_EQ(SupportKernel::phase_count(256), 1u + 1u + 8u + 1u);
  EXPECT_EQ(SupportKernel::phase_count(512), 1u + 1u + 9u + 1u);
}

// ---------------------------------------------------------------------------
// Edge shapes, checked on both execution paths (traced interpreter,
// whole-block native): identical supports AND identical aggregate counters
// (the DESIGN.md §9 contract).

/// Launches the kernel under one executor configuration.
std::pair<std::vector<std::uint32_t>, gpusim::KernelStats> run_configured(
    const BitsetStore& store, const std::vector<std::uint32_t>& flat,
    std::uint32_t k, std::uint32_t ncand, gpusim::Dim3 block, bool preload,
    std::uint64_t sample_stride, bool native) {
  DeviceOptions opts;
  opts.arena_bytes = 16 << 20;
  opts.executor.sample_stride = sample_stride;
  opts.executor.native = native;
  opts.executor.host_threads = 1;
  Device dev(DeviceProperties::tesla_t10(), opts);
  auto d_bits = dev.alloc<std::uint32_t>(
      std::max<std::size_t>(store.arena().size(), 1), 64);
  if (!store.arena().empty()) dev.copy_to_device(d_bits, store.arena());
  auto d_cand = dev.alloc<std::uint32_t>(std::max<std::size_t>(flat.size(), 1));
  if (!flat.empty())
    dev.copy_to_device(d_cand, std::span<const std::uint32_t>(flat));
  auto d_sup = dev.alloc<std::uint32_t>(ncand);

  SupportKernel::Args args;
  args.bitsets = d_bits;
  args.stride_words = static_cast<std::uint32_t>(store.row_stride_words());
  args.words_per_row = static_cast<std::uint32_t>(store.words_per_row());
  args.candidates = d_cand;
  args.k = k;
  args.supports = d_sup;
  SupportKernel kernel(args, preload, 4);
  const auto stats = dev.launch(kernel, {gpusim::Dim3{ncand}, block});
  std::vector<std::uint32_t> sup(ncand);
  dev.copy_to_host(std::span<std::uint32_t>(sup), d_sup);
  return {sup, stats};
}

void expect_edge_parity(const BitsetStore& store,
                        const std::vector<std::uint32_t>& flat,
                        std::uint32_t k, std::uint32_t ncand,
                        std::uint32_t block, bool preload,
                        const std::vector<std::uint32_t>& expect) {
  const auto [s_traced, traced] =
      run_configured(store, flat, k, ncand, block, preload, 1, false);
  const auto [s_native, native] =
      run_configured(store, flat, k, ncand, block, preload, 0, true);
  EXPECT_EQ(s_traced, expect);
  EXPECT_EQ(s_native, expect);
  const auto eq = [](const gpusim::KernelCounters& a,
                     const gpusim::KernelCounters& b, const char* what) {
    EXPECT_EQ(a.global_loads, b.global_loads) << what;
    EXPECT_EQ(a.global_stores, b.global_stores) << what;
    EXPECT_EQ(a.global_load_bytes, b.global_load_bytes) << what;
    EXPECT_EQ(a.shared_loads, b.shared_loads) << what;
    EXPECT_EQ(a.shared_stores, b.shared_stores) << what;
    EXPECT_EQ(a.thread_instructions, b.thread_instructions) << what;
    EXPECT_EQ(a.barriers, b.barriers) << what;
  };
  eq(traced.counters, native.counters, "traced vs native");
}

/// k == 0: the empty intersection is all-ones, so every support is 32 * W
/// (the full last word included — no row masks it down).
TEST(SupportKernelEdge, ZeroKCountsAllBits) {
  const auto db = testutil::random_db(100, 4, 0.5, 31);
  std::vector<fim::Item> rows{0, 1, 2, 3};
  const auto store = BitsetStore::from_db(db, rows);
  const auto w = static_cast<std::uint32_t>(store.words_per_row());
  const std::vector<std::uint32_t> expect(3, 32u * w);
  expect_edge_parity(store, {}, 0, 3, 64, true, expect);
  expect_edge_parity(store, {}, 0, 3, 64, false, expect);
}

/// W == 0 (zero transactions): nothing to count, supports all zero.
TEST(SupportKernelEdge, ZeroWidthRows) {
  const BitsetStore store(4, 0);  // 4 rows of zero-width bitmasks
  ASSERT_EQ(store.words_per_row(), 0u);
  const std::vector<std::uint32_t> flat{0, 1, 2, 3};
  expect_edge_parity(store, flat, 2, 2, 64, true, {0u, 0u});
}

/// Odd words_per_row exercises the native tier's trailing-word pass.
TEST(SupportKernelEdge, OddWordCount) {
  const auto db = testutil::random_db(96, 6, 0.4, 77);  // 3 words per row
  std::vector<fim::Item> rows{0, 1, 2, 3, 4, 5};
  const auto store = BitsetStore::from_db(db, rows);
  ASSERT_EQ(store.words_per_row() % 2, 1u);
  const std::vector<std::uint32_t> flat{0, 1, 2, 3, 4, 5};
  const std::uint32_t a[] = {0, 1}, b[] = {2, 3}, c[] = {4, 5};
  expect_edge_parity(store, flat, 2, 3, 64, true,
                     {store.and_popcount(a), store.and_popcount(b),
                      store.and_popcount(c)});
}

/// k > blockDim with preloading: threads r >= blockDim never copied their
/// candidate row to shared memory, so the accumulate phase reads back 0 —
/// the AND silently includes row 0. Both the interpreter and the native
/// tier must replicate this quirk bit-exactly (it never fires in the
/// miner, which sizes blocks >= 32 >= k in practice).
TEST(SupportKernelEdge, PreloadZeroQuirkWhenKExceedsBlock) {
  const auto db = testutil::random_db(200, 8, 0.5, 13);
  std::vector<fim::Item> rows;
  for (fim::Item x = 0; x < 8; ++x) rows.push_back(x);
  const auto store = BitsetStore::from_db(db, rows);
  const std::vector<std::uint32_t> flat{1, 2, 4};  // k = 3 > block = 2
  const std::uint32_t quirked[] = {1, 2, 0};       // row 4 -> shared zero
  expect_edge_parity(store, flat, 3, 1, 2, true,
                     {store.and_popcount(quirked)});
  // Without preloading the candidate reads straight from global memory —
  // no quirk, true 3-way intersection.
  const std::uint32_t full[] = {1, 2, 4};
  expect_edge_parity(store, flat, 3, 1, 2, false,
                     {store.and_popcount(full)});
}

/// Threads and partials are indexed by x alone, so a 2-D block would write
/// each partial slot twice: it is rejected before any block runs.
TEST(SupportKernelEdge, RejectsABlockThatIsNot1D) {
  const auto db = testutil::random_db(100, 4, 0.5, 31);
  std::vector<fim::Item> rows{0, 1, 2, 3};
  const auto store = BitsetStore::from_db(db, rows);
  const std::vector<std::uint32_t> flat{0, 1};
  for (const bool native : {false, true})
    EXPECT_THROW(run_configured(store, flat, 2, 1, gpusim::Dim3{32, 2}, true,
                                0, native),
                 gpusim::LaunchError)
        << "native=" << native;
}

}  // namespace
