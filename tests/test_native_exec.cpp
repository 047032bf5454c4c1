// Native path drills (DESIGN.md §9): whole-block vectorized execution must
// be invisible in everything but wall-clock time. Per-kernel native-vs-
// interpreted runs demand byte-identical device output and field-exact
// KernelStats; dispatch guards pin that a kernel which cannot record its
// sampled blocks declines them to the interpreter, that an accepted
// sampled block must record every phase, and that ExecutorOptions::native
// = false (--no-native) restores the interpreter bit-for-bit; a default
// mine interprets no block; fault plans fire identically on both paths
// because injection is launch-granular. tests/test_native_rows.cpp holds
// the recorded rows themselves to the interpreter's.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <numeric>
#include <span>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "core/gpapriori_all.hpp"
#include "core/support_kernel.hpp"
#include "datagen/datagen.hpp"
#include "fim/bitset_ops.hpp"
#include "gpusim/device_context.hpp"
#include "gpusim/error.hpp"
#include "gpusim/executor.hpp"
#include "test_util.hpp"

namespace {

using namespace gpusim;

const DeviceProperties props = DeviceProperties::tesla_t10();

void expect_counters_eq(const KernelCounters& a, const KernelCounters& b,
                        const std::string& what) {
  EXPECT_EQ(a.global_loads, b.global_loads) << what;
  EXPECT_EQ(a.global_stores, b.global_stores) << what;
  EXPECT_EQ(a.global_atomics, b.global_atomics) << what;
  EXPECT_EQ(a.global_load_bytes, b.global_load_bytes) << what;
  EXPECT_EQ(a.global_store_bytes, b.global_store_bytes) << what;
  EXPECT_EQ(a.shared_loads, b.shared_loads) << what;
  EXPECT_EQ(a.shared_stores, b.shared_stores) << what;
  EXPECT_EQ(a.thread_instructions, b.thread_instructions) << what;
  EXPECT_EQ(a.warp_instructions, b.warp_instructions) << what;
  EXPECT_EQ(a.warp_phases, b.warp_phases) << what;
  EXPECT_EQ(a.divergent_warp_phases, b.divergent_warp_phases) << what;
  EXPECT_EQ(a.barriers, b.barriers) << what;
  EXPECT_EQ(a.blocks, b.blocks) << what;
  EXPECT_EQ(a.threads, b.threads) << what;
}

void expect_stats_eq(const KernelStats& a, const KernelStats& b,
                     const std::string& what) {
  expect_counters_eq(a.counters, b.counters, what);
  EXPECT_EQ(a.gmem_load_coalescing.transactions,
            b.gmem_load_coalescing.transactions)
      << what;
  EXPECT_EQ(a.gmem_store_coalescing.transactions,
            b.gmem_store_coalescing.transactions)
      << what;
  EXPECT_EQ(a.sampled_blocks, b.sampled_blocks) << what;
  EXPECT_EQ(a.shared_requests_sampled, b.shared_requests_sampled) << what;
  EXPECT_EQ(a.shared_race_hazards, b.shared_race_hazards) << what;
}

// ---------------------------------------------------------------------------
// Dispatch rules.

/// Minimal kernel with both tiers; counts how often the native one runs.
/// Its native path cannot record, so it declines sampled blocks.
class ProbeKernel final : public Kernel {
 public:
  DevicePtr<std::uint32_t> out;
  mutable std::atomic<std::uint64_t> native_calls{0};

  [[nodiscard]] std::string_view name() const override { return "probe"; }
  [[nodiscard]] KernelInfo info(const LaunchConfig&) const override {
    return {.num_phases = 1, .static_shared_bytes = 0, .regs_per_thread = 8};
  }
  void run_phase(std::uint32_t, ThreadCtx& t) const override {
    if (t.flat_tid() == 0) t.st_global(out, t.flat_block_idx(), 7u);
  }
  bool run_block_native(BlockCtx& b) const override {
    if (b.recording()) return false;
    native_calls.fetch_add(1, std::memory_order_relaxed);
    b.store(out, b.flat_block_idx(), 7u);
    b.charge_global_stores(1, 4);
    b.charge_split_phase(1, 1, 0);
    return true;
  }
};

struct ProbeRun {
  KernelStats stats;
  std::uint64_t native_calls;
  std::vector<std::uint32_t> out;
};

ProbeRun run_probe(std::uint64_t sample_stride, bool native,
                   std::uint32_t host_threads = 1) {
  constexpr std::uint64_t blocks = 64;
  GlobalMemory mem(1 << 20);
  ProbeKernel k;
  k.out = mem.alloc<std::uint32_t>(blocks);
  ExecutorOptions opts;
  opts.sample_stride = sample_stride;
  opts.native = native;
  opts.host_threads = host_threads;
  ProbeRun r;
  r.stats = run_kernel(k, {Dim3{blocks}, Dim3{64}}, mem, props, opts);
  r.native_calls = k.native_calls.load();
  r.out.resize(blocks);
  mem.read_bytes(k.out.addr, r.out.data(), blocks * 4);
  return r;
}

TEST(NativeDispatch, SampledBlocksNeverTakeTheNativePath) {
  // The probe cannot record, so it declines every sampled block and those
  // interpret. stride=1: every block is traced -> zero native blocks even
  // with the tier enabled.
  const auto traced = run_probe(1, true);
  EXPECT_EQ(traced.native_calls, 0u);
  EXPECT_EQ(traced.stats.native_blocks, 0u);
  EXPECT_EQ(traced.stats.sampled_blocks, 64u);

  // stride=0: no block is traced -> all 64 go native.
  const auto all_native = run_probe(0, true);
  EXPECT_EQ(all_native.native_calls, 64u);
  EXPECT_EQ(all_native.stats.native_blocks, 64u);

  // stride=4: exactly the untraced blocks (64 - 16 sampled) go native.
  const auto mixed = run_probe(4, true);
  EXPECT_EQ(mixed.stats.sampled_blocks, 16u);
  EXPECT_EQ(mixed.native_calls, 64u - 16u);
  EXPECT_EQ(mixed.stats.native_blocks, 64u - 16u);

  // Functional output and counters identical across every mix.
  EXPECT_EQ(traced.out, all_native.out);
  EXPECT_EQ(traced.out, mixed.out);
  expect_counters_eq(traced.stats.counters, all_native.stats.counters,
                     "traced vs all-native");
  expect_counters_eq(traced.stats.counters, mixed.stats.counters,
                     "traced vs mixed");
}

TEST(NativeDispatch, OptionsKnobDisablesNative) {
  const auto off = run_probe(0, false);
  EXPECT_EQ(off.native_calls, 0u);
  const auto on = run_probe(0, true);
  expect_counters_eq(off.stats.counters, on.stats.counters, "native on/off");
  EXPECT_EQ(off.out, on.out);
}

TEST(NativeDispatch, NativeRunsOnEveryPoolWorkerCount) {
  const auto ref = run_probe(8, true, 1);
  const std::uint32_t hw = std::max(1u, std::thread::hardware_concurrency());
  for (std::uint32_t threads : {2u, hw}) {
    const auto got = run_probe(8, true, threads);
    expect_stats_eq(ref.stats, got.stats,
                    "host_threads=" + std::to_string(threads));
    EXPECT_EQ(ref.out, got.out);
    EXPECT_EQ(ref.native_calls, got.native_calls);
  }
}

/// A native implementation that forgets to settle one phase must be caught
/// by the executor's phase-count invariant, not silently under-account.
class UnderchargingKernel final : public Kernel {
 public:
  [[nodiscard]] std::string_view name() const override { return "bad"; }
  [[nodiscard]] KernelInfo info(const LaunchConfig&) const override {
    return {.num_phases = 2, .static_shared_bytes = 64, .regs_per_thread = 8};
  }
  void run_phase(std::uint32_t, ThreadCtx&) const override {}
  bool run_block_native(BlockCtx& b) const override {
    b.charge_split_phase(0, 0, 0);  // only 1 of 2 phases
    return true;
  }
};

TEST(NativeDispatch, PhaseCountMismatchThrows) {
  GlobalMemory mem(1 << 16);
  UnderchargingKernel k;
  ExecutorOptions opts;
  opts.sample_stride = 0;
  opts.host_threads = 1;
  EXPECT_THROW(run_kernel(k, {Dim3{4}, Dim3{32}}, mem, props, opts), SimError);
}

/// Accepts sampled blocks but records `recorded` of its two phases.
class UnrecordingKernel final : public Kernel {
 public:
  explicit UnrecordingKernel(std::uint32_t recorded) : recorded_(recorded) {}
  [[nodiscard]] std::string_view name() const override { return "unrecorded"; }
  [[nodiscard]] KernelInfo info(const LaunchConfig&) const override {
    return {.num_phases = 2, .static_shared_bytes = 64, .regs_per_thread = 8};
  }
  void run_phase(std::uint32_t, ThreadCtx&) const override {}
  bool run_block_native(BlockCtx& b) const override {
    for (std::uint32_t p = 0; p < 2; ++p) {
      b.charge_split_phase(0, 0, 0);
      if (p < recorded_) b.record_phase([](detail::BlockRecorder&) {});
    }
    return true;
  }

 private:
  std::uint32_t recorded_;
};

TEST(NativeDispatch, AcceptedSampledBlockMustRecordEveryPhase) {
  // Charged but not recorded: the models would silently miss the phase, so
  // the executor names the kernel in a SimError instead.
  GlobalMemory mem(1 << 16);
  ExecutorOptions opts;
  opts.sample_stride = 2;
  opts.host_threads = 1;
  for (const std::uint32_t recorded : {0u, 1u}) {
    UnrecordingKernel k(recorded);
    try {
      (void)run_kernel(k, {Dim3{4}, Dim3{32}}, mem, props, opts);
      ADD_FAILURE() << "recorded=" << recorded << ": no SimError";
    } catch (const SimError& e) {
      EXPECT_NE(std::string(e.what()).find("unrecorded"), std::string::npos)
          << e.what();
    }
  }
  // Untraced blocks owe no rows.
  opts.sample_stride = 0;
  UnrecordingKernel k(0);
  EXPECT_NO_THROW((void)run_kernel(k, {Dim3{4}, Dim3{32}}, mem, props, opts));
  // Recording both phases satisfies the check.
  opts.sample_stride = 2;
  UnrecordingKernel full(2);
  const KernelStats st =
      run_kernel(full, {Dim3{4}, Dim3{32}}, mem, props, opts);
  EXPECT_EQ(st.native_blocks, 4u);
  EXPECT_EQ(st.sampled_blocks, 2u);
}

// ---------------------------------------------------------------------------
// SupportKernel: native vs interpreted, synthetic shapes + dataset slices.

struct SupportSetup {
  fim::BitsetStore store;
  std::vector<std::uint32_t> flat;  ///< candidate row ids, k per candidate
  std::uint32_t k;
};

/// All k-combinations over the store's first `items` rows.
std::vector<std::uint32_t> all_combos(std::uint32_t items, std::uint32_t k) {
  std::vector<std::uint32_t> flat;
  std::vector<std::uint32_t> combo(k);
  auto emit = [&](auto&& self, std::uint32_t start,
                  std::uint32_t depth) -> void {
    if (depth == k) {
      flat.insert(flat.end(), combo.begin(), combo.end());
      return;
    }
    for (std::uint32_t x = start; x < items; ++x) {
      combo[depth] = x;
      self(self, x + 1, depth + 1);
    }
  };
  emit(emit, 0, 0);
  return flat;
}

struct SupportRun {
  KernelStats stats;
  std::vector<std::uint32_t> supports;
};

SupportRun run_support(const SupportSetup& s, bool preload,
                       std::uint32_t unroll, std::uint32_t block,
                       std::uint64_t sample_stride, bool native,
                       std::uint32_t host_threads = 1) {
  DeviceOptions opts;
  opts.arena_bytes = 64 << 20;
  opts.strict_memory = true;
  opts.executor.sample_stride = sample_stride;
  opts.executor.native = native;
  opts.executor.host_threads = host_threads;
  Device dev(props, opts);
  const auto ncand = static_cast<std::uint32_t>(s.flat.size()) / s.k;
  auto d_bits = dev.alloc<std::uint32_t>(s.store.arena().size(), 64);
  dev.copy_to_device(d_bits, s.store.arena());
  auto d_cand = dev.alloc<std::uint32_t>(s.flat.size());
  dev.copy_to_device(d_cand, std::span<const std::uint32_t>(s.flat));
  auto d_sup = dev.alloc<std::uint32_t>(ncand);

  gpapriori::SupportKernel::Args args;
  args.bitsets = d_bits;
  args.stride_words = static_cast<std::uint32_t>(s.store.row_stride_words());
  args.words_per_row = static_cast<std::uint32_t>(s.store.words_per_row());
  args.candidates = d_cand;
  args.k = s.k;
  args.supports = d_sup;
  gpapriori::SupportKernel kernel(args, preload, unroll);
  SupportRun r;
  r.stats = dev.launch(kernel, {Dim3{ncand}, Dim3{block}});
  r.supports.resize(ncand);
  dev.copy_to_host(std::span<std::uint32_t>(r.supports), d_sup);
  return r;
}

void drill_support(const SupportSetup& s, bool preload, std::uint32_t unroll,
                   std::uint32_t block, const std::string& what) {
  // Reference: every block traced (the interpreter).
  const auto traced = run_support(s, preload, unroll, block, 1, true);
  // Native whole-block path.
  const std::uint32_t hw = std::max(1u, std::thread::hardware_concurrency());
  for (std::uint32_t threads : {1u, 2u, hw}) {
    const auto native = run_support(s, preload, unroll, block, 0, true, threads);
    const std::string w = what + " host_threads=" + std::to_string(threads);
    expect_counters_eq(traced.stats.counters, native.stats.counters,
                       w + " traced-vs-native");
    EXPECT_EQ(traced.supports, native.supports) << w;
  }
  // Oracle cross-check.
  for (std::size_t i = 0; i < traced.supports.size(); ++i) {
    const auto expect = s.store.and_popcount(
        std::span<const std::uint32_t>(s.flat).subspan(i * s.k, s.k));
    ASSERT_EQ(traced.supports[i], expect) << what << " cand " << i;
  }
}

TEST(NativeSupport, SyntheticShapeSweep) {
  // Odd and even word counts, W < and > blockDim, every preload/unroll mix.
  for (const std::size_t num_trans : {900ull * 32, 7ull * 32}) {
    const auto db = testutil::random_db(num_trans, 8, 0.4, 321);
    std::vector<fim::Item> rows;
    for (fim::Item x = 0; x < 8; ++x) rows.push_back(x);
    const auto store = fim::BitsetStore::from_db(db, rows);
    for (const std::uint32_t k : {1u, 3u}) {
      SupportSetup s{store, all_combos(8, k), k};
      for (const bool preload : {true, false})
        for (const std::uint32_t unroll : {1u, 4u})
          drill_support(s, preload, unroll, 64,
                        "trans=" + std::to_string(num_trans) +
                            " k=" + std::to_string(k) + " preload=" +
                            std::to_string(preload) +
                            " unroll=" + std::to_string(unroll));
    }
  }
}

TEST(NativeSupport, PinnedUnrollAccountingHoldsOnTheNativePath) {
  // The hand-computed 207-instruction shape of the TracedVsNative drills
  // must come out of the closed-form native accounting too.
  const auto db = testutil::random_db(7 * 32, 8, 0.5, 11);
  std::vector<fim::Item> rows;
  for (fim::Item x = 0; x < 8; ++x) rows.push_back(x);
  const auto store = fim::BitsetStore::from_db(db, rows);
  ASSERT_EQ(store.words_per_row(), 7u);
  SupportSetup s{store, {0}, 1};
  const std::uint64_t expected = (7 * 8 + 25 * 1) + 124 + 2;
  for (const bool native : {false, true}) {
    const auto r = run_support(s, /*preload=*/false, /*unroll=*/3, 32, 0,
                               native);
    EXPECT_EQ(r.stats.counters.thread_instructions, expected)
        << "native=" << native;
  }
}

struct SliceCase {
  datagen::DatasetId id;
  const char* name;
  double scale;
};

class NativeSupportSlices : public testing::TestWithParam<SliceCase> {};

TEST_P(NativeSupportSlices, DatasetSliceCounterExact) {
  const auto& c = GetParam();
  const auto db = datagen::profile(c.id).generate(c.scale);
  // Rows = the 8 most frequent items of the slice, candidates = all 2- and
  // 3-combinations — the level-2/3 shape GPApriori actually launches.
  std::vector<std::uint64_t> freq(db.item_universe(), 0);
  for (std::size_t t = 0; t < db.num_transactions(); ++t)
    for (const auto item : db.transaction(t)) freq[item] += 1;
  std::vector<fim::Item> order(db.item_universe());
  std::iota(order.begin(), order.end(), fim::Item{0});
  std::sort(order.begin(), order.end(), [&](fim::Item a, fim::Item b) {
    return freq[a] != freq[b] ? freq[a] > freq[b] : a < b;
  });
  const auto nrows =
      static_cast<std::ptrdiff_t>(std::min<std::size_t>(8, order.size()));
  std::vector<fim::Item> rows(order.begin(), order.begin() + nrows);
  const auto store = fim::BitsetStore::from_db(db, rows);
  const auto items = static_cast<std::uint32_t>(rows.size());
  for (const std::uint32_t k : {2u, 3u}) {
    SupportSetup s{store, all_combos(items, k), k};
    drill_support(s, /*preload=*/true, /*unroll=*/4, 128,
                  std::string(c.name) + " k=" + std::to_string(k));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Drills, NativeSupportSlices,
    testing::Values(SliceCase{datagen::DatasetId::kChess, "chess", 0.06},
                    SliceCase{datagen::DatasetId::kT40I10D100K, "t40", 0.006},
                    SliceCase{datagen::DatasetId::kPumsb, "pumsb", 0.012},
                    SliceCase{datagen::DatasetId::kAccidents, "accidents",
                              0.003}),
    [](const testing::TestParamInfo<SliceCase>& p) {
      return std::string(p.param.name);
    });

// ---------------------------------------------------------------------------
// End-to-end mining: native on/off across datasets and worker counts.

struct MiningCase {
  datagen::DatasetId id;
  const char* name;
  double scale;
  double support;
};

class NativeMining : public testing::TestWithParam<MiningCase> {};

TEST_P(NativeMining, OutputAndStatsIdenticalToInterpreter) {
  const auto& c = GetParam();
  const auto db = datagen::profile(c.id).generate(c.scale);
  miners::MiningParams p;
  p.min_support_ratio = c.support;

  auto run = [&](bool native, std::uint32_t threads) {
    gpapriori::Config cfg;
    cfg.arena_bytes = 64 << 20;
    cfg.sample_stride = 8;  // mix of traced and native-eligible blocks
    cfg.native = native;
    cfg.host_threads = threads;
    gpapriori::GpApriori miner(cfg);
    auto out = miner.mine(db, p);
    return std::tuple(out.itemsets.to_string(), miner.launch_history(),
                      out.device_ms);
  };

  const auto [ref_sets, ref_hist, ref_dev_ms] = run(false, 1);
  ASSERT_FALSE(ref_sets.empty());
  const std::uint32_t hw = std::max(1u, std::thread::hardware_concurrency());
  for (std::uint32_t threads : {1u, 2u, hw}) {
    const auto [sets, hist, dev_ms] = run(true, threads);
    const std::string what =
        std::string(c.name) + " native host_threads=" + std::to_string(threads);
    EXPECT_EQ(ref_sets, sets) << what;
    EXPECT_EQ(ref_dev_ms, dev_ms) << what;
    ASSERT_EQ(ref_hist.size(), hist.size()) << what;
    for (std::size_t i = 0; i < hist.size(); ++i)
      expect_stats_eq(ref_hist[i], hist[i],
                      what + " launch " + std::to_string(i));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Drills, NativeMining,
    testing::Values(
        MiningCase{datagen::DatasetId::kChess, "chess", 0.06, 0.75},
        MiningCase{datagen::DatasetId::kT40I10D100K, "t40", 0.006, 0.05},
        MiningCase{datagen::DatasetId::kPumsb, "pumsb", 0.012, 0.90},
        MiningCase{datagen::DatasetId::kAccidents, "accidents", 0.003, 0.65}),
    [](const testing::TestParamInfo<MiningCase>& p) {
      return std::string(p.param.name);
    });

TEST(NativeMining, DefaultMineInterpretsNoBlock) {
  // Every block of a default mine goes native, sampled ones included: the
  // support kernels record their own rows, so the interpreter runs no
  // block. The sample is block 0 and every 64th block after it.
  const MiningCase cases[] = {
      {datagen::DatasetId::kChess, "chess", 0.06, 0.75},
      {datagen::DatasetId::kT40I10D100K, "t40", 0.006, 0.05}};
  for (const MiningCase& c : cases) {
    const auto db = datagen::profile(c.id).generate(c.scale);
    miners::MiningParams p;
    p.min_support_ratio = c.support;
    for (const bool tiled : {true, false}) {
      for (const std::uint32_t threads : {1u, 2u}) {
        gpapriori::Config cfg;
        cfg.arena_bytes = 64 << 20;
        cfg.tiled = tiled;
        cfg.host_threads = threads;
        gpapriori::GpApriori miner(cfg);
        (void)miner.mine(db, p);
        std::uint64_t blocks = 0, native = 0, sampled = 0;
        for (const KernelStats& s : miner.launch_history()) {
          blocks += s.counters.blocks;
          native += s.native_blocks;
          sampled += s.sampled_blocks;
          EXPECT_EQ(s.sampled_blocks,
                    (s.counters.blocks + cfg.sample_stride - 1) /
                        cfg.sample_stride);
        }
        const std::string what = std::string(c.name) + " tiled=" +
                                 std::to_string(tiled) +
                                 " host_threads=" + std::to_string(threads);
        EXPECT_GT(sampled, 0u) << what;
        // interpreted_blocks (= blocks - native) == 0
        EXPECT_EQ(native, blocks) << what;
      }
    }
  }
}

TEST(NativeMining, FaultPlansFireIdenticallyOnBothPaths) {
  // Injection is launch-granular (Device::launch fires on_launch before the
  // executor runs), so a fault plan must produce the same faults, retries,
  // ladder decisions and output whether blocks execute natively or not.
  const auto db = datagen::profile(datagen::DatasetId::kChess).generate(0.06);
  miners::MiningParams p;
  p.min_support_ratio = 0.75;

  auto run = [&](bool native) {
    gpapriori::Config cfg;
    cfg.arena_bytes = 64 << 20;
    cfg.native = native;
    cfg.fault_plan = FaultPlan::parse(
        "seed=42;launch#2=timeout;d2h#3=corrupt;h2d#2=fail");
    gpapriori::GpApriori miner(cfg);
    const auto out = miner.mine(db, p);
    return std::pair(out.itemsets.to_string(), miner.resilience_report());
  };

  const auto [interp_sets, interp_rep] = run(false);
  const auto [native_sets, native_rep] = run(true);
  ASSERT_FALSE(interp_sets.empty());
  EXPECT_EQ(interp_sets, native_sets);
  EXPECT_EQ(interp_rep.device_faults.launches, native_rep.device_faults.launches);
  EXPECT_EQ(interp_rep.device_faults.allocs, native_rep.device_faults.allocs);
  EXPECT_EQ(interp_rep.device_faults.h2d, native_rep.device_faults.h2d);
  EXPECT_EQ(interp_rep.device_faults.d2h, native_rep.device_faults.d2h);
  EXPECT_EQ(interp_rep.device_faults.total_injected(),
            native_rep.device_faults.total_injected());
  EXPECT_EQ(interp_rep.retries, native_rep.retries);
  EXPECT_EQ(interp_rep.summary(), native_rep.summary());
}

}  // namespace
