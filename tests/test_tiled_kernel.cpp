#include "core/tiled_support_kernel.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <thread>
#include <vector>

#include "core/candidate_trie.hpp"
#include "core/compaction.hpp"
#include "core/gpapriori.hpp"
#include "datagen/datagen.hpp"
#include "fim/bitset_ops.hpp"
#include "gpusim/device_context.hpp"
#include "test_util.hpp"

namespace {

using fim::BitsetStore;
using gpapriori::CandidateTrie;
using gpapriori::TiledSupportKernel;
using gpusim::Device;
using gpusim::DeviceOptions;
using gpusim::DeviceProperties;

/// Builds the trie holding ALL k-combinations of `items` rows (every level
/// marked fully frequent) and returns it, for grouped flattening.
CandidateTrie full_trie(std::size_t items, std::uint32_t k) {
  CandidateTrie trie(items);
  for (std::uint32_t lvl = 2; lvl <= k; ++lvl) {
    trie.extend();
    std::vector<fim::Support> all(trie.level_size(lvl), 100);
    trie.mark_frequent(lvl, all, 1);
  }
  return trie;
}

/// Uploads the store + grouped candidate tables, launches the tiled kernel
/// over every group, and returns (supports, stats).
std::pair<std::vector<std::uint32_t>, gpusim::KernelStats> run_tiled(
    const BitsetStore& store, const CandidateTrie::GroupedLevel& g,
    std::uint32_t k, std::uint32_t block_size, Device& dev) {
  const auto ngroups = static_cast<std::uint32_t>(g.groups);
  const auto ncand = static_cast<std::uint32_t>(g.candidates);
  // W == 0 stores have an empty arena; keep a 1-word dummy so the device
  // allocation stays legal (the kernel never touches it when W == 0).
  auto d_bits = dev.alloc<std::uint32_t>(
      std::max<std::size_t>(store.arena().size(), 1), 64);
  if (!store.arena().empty()) dev.copy_to_device(d_bits, store.arena());
  gpusim::DevicePtr<std::uint32_t> d_prefix;
  if (!g.prefix_rows().empty()) {
    d_prefix = dev.alloc<std::uint32_t>(g.prefix_rows().size());
    dev.copy_to_device(d_prefix, g.prefix_rows());
  }
  auto d_sib = dev.alloc<std::uint32_t>(g.sibling_rows().size());
  dev.copy_to_device(d_sib, g.sibling_rows());
  auto d_off = dev.alloc<std::uint32_t>(g.group_offsets().size());
  dev.copy_to_device(d_off, g.group_offsets());
  auto d_sup = dev.alloc<std::uint32_t>(ncand);

  TiledSupportKernel::Args args;
  args.bitsets = d_bits;
  args.stride_words = static_cast<std::uint32_t>(store.row_stride_words());
  args.words_per_row = static_cast<std::uint32_t>(store.words_per_row());
  args.prefix_rows = d_prefix;
  args.sibling_rows = d_sib;
  args.group_offsets = d_off;
  args.k = k;
  args.max_group_size = std::max(1u, g.max_group_size());
  args.supports = d_sup;
  TiledSupportKernel kernel(args, 4);
  const auto stats =
      dev.launch(kernel, {gpusim::Dim3{ngroups}, gpusim::Dim3{block_size}});

  std::vector<std::uint32_t> sup(ncand);
  dev.copy_to_host(std::span<std::uint32_t>(sup), d_sup);
  dev.free(d_bits);
  if (!g.prefix_rows().empty()) dev.free(d_prefix);
  dev.free(d_sib);
  dev.free(d_off);
  dev.free(d_sup);
  return {sup, stats};
}

struct TiledCase {
  std::uint32_t block_size;
  std::uint32_t k;
  std::size_t num_trans;
  std::size_t items;
  std::uint32_t max_group;
};

std::string case_name(const testing::TestParamInfo<TiledCase>& info) {
  const auto& c = info.param;
  return "b" + std::to_string(c.block_size) + "_k" + std::to_string(c.k) +
         "_t" + std::to_string(c.num_trans) + "_g" +
         std::to_string(c.max_group);
}

class TiledKernelSweep : public testing::TestWithParam<TiledCase> {};

/// The tentpole invariant: tiled supports are bit-identical to the complete
/// k-way intersection, for every candidate, at every block size / group
/// split — including groups larger than the block's warp count and widths
/// spanning several shared tiles.
TEST_P(TiledKernelSweep, MatchesCompleteIntersection) {
  const auto& c = GetParam();
  const auto db = testutil::random_db(c.num_trans, c.items, 0.4, 123);
  std::vector<fim::Item> rows;
  for (fim::Item x = 0; x < c.items; ++x) rows.push_back(x);
  const auto store = BitsetStore::from_db(db, rows);

  const auto trie = full_trie(c.items, c.k);
  const auto grouped = trie.flatten_level_grouped(c.k, c.max_group);
  const auto flat = trie.level_paths(c.k);
  ASSERT_EQ(grouped.sibling_rows().size(), flat.size() / c.k);

  DeviceOptions opts;
  opts.arena_bytes = 32 << 20;
  opts.strict_memory = true;
  opts.executor.sample_stride = 1;
  Device dev(DeviceProperties::tesla_t10(), opts);
  const auto [sup, stats] = run_tiled(store, grouped, c.k, c.block_size, dev);

  // Grouped flattening must enumerate the same candidates in the same
  // level order as the flat layout: group prefix + sibling == flat row ids.
  const std::uint32_t p = c.k - 1;
  const auto prefixes = grouped.prefix_rows();
  const auto siblings = grouped.sibling_rows();
  const auto offsets = grouped.group_offsets();
  for (std::size_t g = 0; g < grouped.groups; ++g)
    for (std::size_t i = offsets[g]; i < offsets[g + 1]; ++i) {
      for (std::uint32_t r = 0; r < p; ++r)
        ASSERT_EQ(prefixes[g * p + r], flat[i * c.k + r]);
      ASSERT_EQ(siblings[i], flat[i * c.k + p]);
    }

  for (std::size_t i = 0; i < sup.size(); ++i) {
    const auto expect = store.and_popcount(
        std::span<const std::uint32_t>(flat).subspan(i * c.k, c.k));
    ASSERT_EQ(sup[i], expect) << "candidate " << i;
  }
  EXPECT_EQ(stats.shared_race_hazards, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, TiledKernelSweep,
    testing::Values(
        // Block-size sweep at the default group cap.
        TiledCase{32, 2, 500, 8, 64}, TiledCase{64, 2, 500, 8, 64},
        TiledCase{128, 3, 500, 8, 64}, TiledCase{256, 3, 500, 8, 64},
        TiledCase{512, 4, 500, 8, 64},
        // Group splits: singleton groups degenerate to complete
        // intersection; tiny caps exercise the prefix-duplication path.
        TiledCase{128, 3, 700, 8, 1}, TiledCase{128, 3, 700, 8, 2},
        TiledCase{64, 4, 700, 8, 3},
        // More siblings than warps (7 choose 2 = up to 6 siblings/group on
        // a 32-thread block = 1 warp) and than threads would preload.
        TiledCase{32, 3, 900, 8, 64},
        // Edge widths: sub-word, exact word boundary, odd word count,
        // multi-tile rows (> 256 words = > 8192 transactions).
        TiledCase{64, 2, 17, 8, 64}, TiledCase{64, 2, 64, 8, 64},
        TiledCase{64, 2, 96, 8, 64}, TiledCase{32, 2, 8500, 6, 64}),
    case_name);

/// k == 1 runs with an EMPTY prefix: the tile phase degenerates to all-ones
/// and each sibling's support is its own row popcount.
TEST(TiledKernel, SingletonCandidatesEmptyPrefix) {
  const std::size_t items = 6;
  const auto db = testutil::random_db(300, items, 0.5, 7);
  std::vector<fim::Item> rows;
  for (fim::Item x = 0; x < items; ++x) rows.push_back(x);
  const auto store = BitsetStore::from_db(db, rows);

  const auto g = testutil::grouped_level(0, {}, {0, 1, 2, 3, 4, 5}, {0, 6});

  DeviceOptions opts;
  opts.arena_bytes = 8 << 20;
  opts.strict_memory = true;
  opts.executor.sample_stride = 1;
  Device dev(DeviceProperties::tesla_t10(), opts);
  const auto [sup, stats] = run_tiled(store, g, 1, 64, dev);
  for (std::uint32_t r = 0; r < items; ++r) {
    const std::uint32_t one[] = {r};
    EXPECT_EQ(sup[r], store.and_popcount(one)) << "row " << r;
  }
  EXPECT_EQ(stats.shared_race_hazards, 0u);
}

/// W == 0 (no transactions): every support is 0, no bitset word is read.
TEST(TiledKernel, ZeroWidthRowsYieldZeroSupport) {
  const BitsetStore store(4, 0);  // 4 rows of zero-width bitmasks
  ASSERT_EQ(store.words_per_row(), 0u);

  const auto trie = full_trie(4, 2);
  const auto grouped = trie.flatten_level_grouped(2, 64);

  DeviceOptions opts;
  opts.arena_bytes = 1 << 20;
  opts.strict_memory = true;
  opts.executor.sample_stride = 1;
  Device dev(DeviceProperties::tesla_t10(), opts);
  const auto [sup, stats] = run_tiled(store, grouped, 2, 64, dev);
  for (std::size_t i = 0; i < sup.size(); ++i) EXPECT_EQ(sup[i], 0u);
  EXPECT_EQ(stats.counters.global_stores, sup.size());
}

/// A group larger than the block's thread count: warp 0 of a 32-thread
/// block sweeps all 64 siblings in turn (strided ownership), and every
/// sibling id still preloads (strided preload — no zero-quirk, unlike
/// SupportKernel's candidate preload).
TEST(TiledKernel, GroupLargerThanBlock) {
  const std::size_t items = 40;
  const auto db = testutil::random_db(400, items, 0.3, 11);
  std::vector<fim::Item> rows;
  for (fim::Item x = 0; x < items; ++x) rows.push_back(x);
  const auto store = BitsetStore::from_db(db, rows);

  // One group: prefix {0}, siblings 1..39 — more than the 32 threads.
  std::vector<std::uint32_t> sibs;
  for (std::uint32_t s = 1; s < items; ++s) sibs.push_back(s);
  const auto g = testutil::grouped_level(
      1, {0}, sibs, {0, static_cast<std::uint32_t>(sibs.size())});

  DeviceOptions opts;
  opts.arena_bytes = 8 << 20;
  opts.strict_memory = true;
  opts.executor.sample_stride = 1;
  Device dev(DeviceProperties::tesla_t10(), opts);
  const auto [sup, stats] = run_tiled(store, g, 2, 32, dev);
  for (std::size_t i = 0; i < sibs.size(); ++i) {
    const std::uint32_t pair[] = {0, sibs[i]};
    ASSERT_EQ(sup[i], store.and_popcount(pair)) << "sibling " << i;
  }
  EXPECT_EQ(stats.shared_race_hazards, 0u);
}

/// Launch-shape validation: k == 0, non-multiple-of-32 blocks, and 2-D
/// blocks are rejected up front instead of miscounting.
TEST(TiledKernel, RejectsInvalidLaunches) {
  TiledSupportKernel::Args args;
  args.words_per_row = 4;
  args.k = 2;
  args.max_group_size = 8;
  TiledSupportKernel kernel(args, 4);
  EXPECT_NO_THROW((void)kernel.info({gpusim::Dim3{1}, gpusim::Dim3{64}}));
  EXPECT_THROW((void)kernel.info({gpusim::Dim3{1}, gpusim::Dim3{48}}),
               gpusim::LaunchError);
  EXPECT_THROW((void)kernel.info({gpusim::Dim3{1}, gpusim::Dim3{32, 2}}),
               gpusim::LaunchError);
  args.k = 0;
  TiledSupportKernel k0(args, 4);
  EXPECT_THROW((void)k0.info({gpusim::Dim3{1}, gpusim::Dim3{64}}),
               gpusim::LaunchError);
  args.k = 2;
  args.max_group_size = 0;
  TiledSupportKernel g0(args, 4);
  EXPECT_THROW((void)g0.info({gpusim::Dim3{1}, gpusim::Dim3{64}}),
               gpusim::LaunchError);
  args.max_group_size = TiledSupportKernel::kMaxGroupSize + 1;
  TiledSupportKernel gbig(args, 4);
  EXPECT_THROW((void)gbig.info({gpusim::Dim3{1}, gpusim::Dim3{64}}),
               gpusim::LaunchError);
}

/// Phases: preload + 2 per 256-word tile + reduce/writeback.
TEST(TiledKernel, PhaseCountFormula) {
  EXPECT_EQ(TiledSupportKernel::phase_count(0), 2u);  // no tiles at W == 0
  EXPECT_EQ(TiledSupportKernel::phase_count(1), 2u + 2u);
  EXPECT_EQ(TiledSupportKernel::phase_count(256), 2u + 2u);
  EXPECT_EQ(TiledSupportKernel::phase_count(257), 2u + 4u);
  EXPECT_EQ(TiledSupportKernel::phase_count(1024), 2u + 8u);
}

// ---------------------------------------------------------------------------
// Counter-equality contract (DESIGN.md §9): the traced interpreter and the
// whole-block native path on untraced blocks must agree on every aggregate
// counter, not just on output.

gpusim::KernelStats run_counted(const BitsetStore& store,
                                const CandidateTrie::GroupedLevel& g,
                                std::uint32_t k, std::uint32_t block,
                                std::uint64_t sample_stride, bool native,
                                std::vector<std::uint32_t>& sup_out) {
  DeviceOptions opts;
  opts.arena_bytes = 32 << 20;
  opts.executor.sample_stride = sample_stride;
  opts.executor.native = native;
  opts.executor.host_threads = 1;
  Device dev(DeviceProperties::tesla_t10(), opts);
  auto [sup, stats] = run_tiled(store, g, k, block, dev);
  sup_out = std::move(sup);
  return stats;
}

void expect_counters_eq(const gpusim::KernelCounters& a,
                        const gpusim::KernelCounters& b, const char* what) {
  EXPECT_EQ(a.global_loads, b.global_loads) << what;
  EXPECT_EQ(a.global_stores, b.global_stores) << what;
  EXPECT_EQ(a.global_load_bytes, b.global_load_bytes) << what;
  EXPECT_EQ(a.global_store_bytes, b.global_store_bytes) << what;
  EXPECT_EQ(a.shared_loads, b.shared_loads) << what;
  EXPECT_EQ(a.shared_stores, b.shared_stores) << what;
  EXPECT_EQ(a.thread_instructions, b.thread_instructions) << what;
  EXPECT_EQ(a.barriers, b.barriers) << what;
  EXPECT_EQ(a.blocks, b.blocks) << what;
  EXPECT_EQ(a.threads, b.threads) << what;
}

class TiledCounterParity : public testing::TestWithParam<TiledCase> {};

TEST_P(TiledCounterParity, TracedUntracedNativeAgree) {
  const auto& c = GetParam();
  BitsetStore store;
  if (c.num_trans == 0) {
    store = BitsetStore(c.items, 0);  // zero-width rows
  } else {
    const auto db = testutil::random_db(c.num_trans, c.items, 0.4, 321);
    std::vector<fim::Item> rows;
    for (fim::Item x = 0; x < c.items; ++x) rows.push_back(x);
    store = BitsetStore::from_db(db, rows);
  }
  const auto trie = full_trie(c.items, c.k);
  const auto grouped = trie.flatten_level_grouped(c.k, c.max_group);

  std::vector<std::uint32_t> s_traced, s_native;
  const auto traced =
      run_counted(store, grouped, c.k, c.block_size, 1, false, s_traced);
  const auto native =
      run_counted(store, grouped, c.k, c.block_size, 0, true, s_native);

  EXPECT_EQ(s_traced, s_native);
  EXPECT_EQ(native.native_blocks, native.counters.blocks);
  expect_counters_eq(traced.counters, native.counters, "traced vs native");
}

INSTANTIATE_TEST_SUITE_P(
    Parity, TiledCounterParity,
    testing::Values(TiledCase{64, 2, 500, 8, 64},
                    TiledCase{128, 3, 700, 8, 64},
                    TiledCase{32, 4, 700, 8, 2},
                    // Odd word count and multi-tile width.
                    TiledCase{64, 2, 96, 8, 64},
                    TiledCase{32, 2, 8500, 6, 64},
                    // Zero-width rows.
                    TiledCase{64, 2, 0, 4, 64}),
    case_name);

// ---------------------------------------------------------------------------
// Vertical compaction: support invariance at the store level.

/// Dropping columns with fewer than two set bits (over the whole store)
/// cannot change any AND-of->=2-rows popcount: a surviving bit needs >= 2
/// contributing rows. Row renumbering is a bijection and popcount is
/// permutation-invariant (fim/vertical.hpp).
TEST(Compaction, PairSupportsInvariantUnderInitialCompaction) {
  const std::size_t items = 10;
  const auto db = testutil::random_db(600, items, 0.15, 99);
  std::vector<fim::Item> rows;
  for (fim::Item x = 0; x < items; ++x) rows.push_back(x);
  const auto store = BitsetStore::from_db(db, rows);

  const auto counts = store.column_populations();
  const auto plan = fim::plan_column_compaction(counts, 2);
  ASSERT_LT(plan.kept(), plan.original_columns)
      << "sparse db should drop at least one column";
  const auto compacted = BitsetStore::compact_columns(store, plan);

  for (std::uint32_t a = 0; a < items; ++a)
    for (std::uint32_t b = a + 1; b < items; ++b)
      for (std::uint32_t c = b + 1; c <= items; ++c) {
        std::vector<std::uint32_t> cand{a, b};
        if (c < items) cand.push_back(c);
        ASSERT_EQ(compacted.and_popcount(cand), store.and_popcount(cand))
            << a << "," << b << "," << c;
      }
}

/// compact_slices_initial is a no-op on stores where every column already
/// has >= 2 bits, and per-slice independent otherwise.
TEST(Compaction, SliceHelperDropsOnlySubThresholdColumns) {
  const auto db = testutil::random_db(200, 6, 0.9, 5);
  std::vector<fim::Item> rows{0, 1, 2, 3, 4, 5};
  std::vector<fim::BitsetStore> slices;
  slices.push_back(BitsetStore::from_db(db, rows));
  const auto before = slices[0].num_bits();
  // Dense store: every transaction holds >= 2 of the 6 items with
  // overwhelming probability at p = 0.9.
  EXPECT_EQ(gpapriori::compact_slices_initial(slices), 0u);
  EXPECT_EQ(slices[0].num_bits(), before);
}

// ---------------------------------------------------------------------------
// End-to-end bit-identity drill: tiled + compacted GPApriori vs the
// complete-intersection path on a chess slice, across host thread counts.

TEST(TiledEndToEnd, ChessSliceBitIdenticalAcrossHostThreads) {
  const auto db =
      datagen::profile(datagen::DatasetId::kChess).generate(0.04);
  miners::MiningParams p;
  p.min_support_ratio = 0.82;

  auto mine = [&](bool tiled, std::uint32_t compact_level,
                  std::uint32_t host_threads) {
    gpapriori::Config cfg;
    cfg.tiled = tiled;
    cfg.compact_level = compact_level;
    cfg.host_threads = host_threads;
    gpapriori::GpApriori miner(cfg);
    return miner.mine(db, p);
  };

  const auto reference = mine(false, 0, 1);
  ASSERT_GT(reference.itemsets.size(), 0u);
  const std::uint32_t hw = std::max(2u, std::thread::hardware_concurrency());
  for (std::uint32_t threads : {1u, 2u, hw}) {
    const auto tiled = mine(true, 1, threads);
    EXPECT_TRUE(tiled.itemsets.equivalent_to(reference.itemsets))
        << "host_threads " << threads;
    EXPECT_EQ(tiled.itemsets.to_string(), reference.itemsets.to_string())
        << "host_threads " << threads;
  }
}

/// CPU_TEST mirrors the same toggles and must agree with itself and the
/// device path in every configuration.
TEST(TiledEndToEnd, CpuTestTiledMatchesComplete) {
  const auto db = testutil::random_db(400, 12, 0.4, 17);
  miners::MiningParams p;
  p.min_support_ratio = 0.1;
  gpapriori::CpuBitsetApriori plain(nullptr, false, 0);
  gpapriori::CpuBitsetApriori tiled(nullptr, true, 1);
  const auto a = plain.mine(db, p);
  const auto b = tiled.mine(db, p);
  ASSERT_GT(a.itemsets.size(), 0u);
  EXPECT_EQ(a.itemsets.to_string(), b.itemsets.to_string());
}

/// Config::tiled = false (--no-tiled) gates the tiled path off without
/// touching results.
TEST(TiledEndToEnd, ConfigSwitchFallsBackToCompleteIntersection) {
  const auto db = testutil::random_db(300, 10, 0.4, 23);
  miners::MiningParams p;
  p.min_support_ratio = 0.12;

  gpapriori::Config cfg;
  ASSERT_TRUE(cfg.tiled);
  cfg.tiled = false;
  gpapriori::GpApriori off(cfg);
  const auto sets_off = off.mine(db, p);
  ASSERT_FALSE(off.launch_history().empty());
  EXPECT_EQ(off.launch_history()[0].kernel_name, "gpapriori_support");
  cfg.tiled = true;
  gpapriori::GpApriori on(cfg);
  const auto sets_on = on.mine(db, p);
  ASSERT_FALSE(on.launch_history().empty());
  EXPECT_EQ(on.launch_history()[0].kernel_name, "gpapriori_support_tiled");
  EXPECT_EQ(sets_on.itemsets.to_string(), sets_off.itemsets.to_string());
}

}  // namespace
