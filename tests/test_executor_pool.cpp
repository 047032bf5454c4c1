// Block-parallel executor drills: for every host_threads value the
// simulator must produce byte-identical device memory, KernelStats, mining
// output, and fault accounting — parallelism may only change wall-clock
// time. Also pins the support kernel's counter equality between the traced
// interpreter and the native path (untraced blocks run native by default),
// and the unroll loop-control accounting.

#include <gtest/gtest.h>

#include <cstdlib>
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
                        const char* what) {
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

void expect_access_eq(const MemoryAccessStats& a, const MemoryAccessStats& b,
                      const char* what) {
  EXPECT_EQ(a.requests, b.requests) << what;
  EXPECT_EQ(a.transactions, b.transactions) << what;
  EXPECT_EQ(a.bytes_requested, b.bytes_requested) << what;
  EXPECT_EQ(a.bytes_transferred, b.bytes_transferred) << what;
}

void expect_stats_eq(const KernelStats& a, const KernelStats& b,
                     const char* what) {
  expect_counters_eq(a.counters, b.counters, what);
  expect_access_eq(a.gmem_load_coalescing, b.gmem_load_coalescing, what);
  expect_access_eq(a.gmem_store_coalescing, b.gmem_store_coalescing, what);
  EXPECT_EQ(a.sampled_blocks, b.sampled_blocks) << what;
  EXPECT_EQ(a.shared_requests_sampled, b.shared_requests_sampled) << what;
  EXPECT_EQ(a.shared_serialization_sampled, b.shared_serialization_sampled)
      << what;
  EXPECT_EQ(a.shared_race_hazards, b.shared_race_hazards) << what;
}

/// Two-phase kernel exercising everything the parallel executor must keep
/// deterministic: global loads/stores, shared traffic across a barrier,
/// divergence, and cross-block global atomics.
class StressKernel final : public Kernel {
 public:
  DevicePtr<std::uint32_t> in, out, hist;
  std::uint64_t n = 0;

  [[nodiscard]] std::string_view name() const override { return "stress"; }
  [[nodiscard]] KernelInfo info(const LaunchConfig& cfg) const override {
    return {.num_phases = 2,
            .static_shared_bytes = static_cast<std::size_t>(cfg.block.x) * 4,
            .regs_per_thread = 12};
  }
  void run_phase(std::uint32_t phase, ThreadCtx& t) const override {
    const std::uint32_t tid = t.flat_tid();
    const std::uint32_t b = t.block_dim().x;
    const std::uint64_t i = t.flat_block_idx() * b + tid;
    if (i >= n) return;
    if (phase == 0) {
      const auto v = t.ld_global(in, i);
      t.alu(tid % 5);  // intra-warp divergence
      t.st_shared<std::uint32_t>(tid * 4, v * 3 + 1);
    } else {
      const auto v = t.ld_shared<std::uint32_t>(((tid + 1) % b) * 4);
      t.atomic_add_global(hist, v % 64, 1);  // cross-block contention
      t.st_global(out, i, v);
    }
  }
};

struct StressRun {
  KernelStats stats;
  std::vector<std::uint32_t> out;
  std::vector<std::uint32_t> hist;
};

StressRun run_stress(std::uint32_t host_threads, std::uint64_t sample_stride) {
  // 128 blocks x 128 threads x 2 phases = 32768 thread-phases: well past
  // the executor's sequential cutoff, so host_threads > 1 really shards.
  constexpr std::uint64_t n = 128 * 128;
  GlobalMemory mem(8 << 20);
  StressKernel k;
  k.in = mem.alloc<std::uint32_t>(n, 128);
  k.out = mem.alloc<std::uint32_t>(n, 128);
  k.hist = mem.alloc<std::uint32_t>(64, 128);
  k.n = n;
  std::vector<std::uint32_t> hin(n);
  std::iota(hin.begin(), hin.end(), 7u);
  mem.write_bytes(k.in.addr, hin.data(), n * 4);

  ExecutorOptions opts;
  opts.sample_stride = sample_stride;
  opts.host_threads = host_threads;
  StressRun r;
  r.stats = run_kernel(k, {Dim3{128}, Dim3{128}}, mem, props, opts);
  r.out.resize(n);
  r.hist.resize(64);
  mem.read_bytes(k.out.addr, r.out.data(), n * 4);
  mem.read_bytes(k.hist.addr, r.hist.data(), 64 * 4);
  return r;
}

TEST(ExecutorPool, ByteIdenticalAcrossHostThreadCounts) {
  const auto ref = run_stress(1, 16);
  const std::uint32_t hw =
      std::max(1u, std::thread::hardware_concurrency());
  for (std::uint32_t threads : {2u, 7u, hw}) {
    const auto got = run_stress(threads, 16);
    const std::string what = "host_threads=" + std::to_string(threads);
    expect_stats_eq(ref.stats, got.stats, what.c_str());
    EXPECT_EQ(ref.out, got.out) << what;
    EXPECT_EQ(ref.hist, got.hist) << what;
  }
}

TEST(ExecutorPool, AtomicSumsSurviveConcurrentBlocks) {
  // Every element feeds exactly one histogram increment; lost updates
  // under concurrent blocks would break the total.
  const auto r = run_stress(7, 0);
  std::uint64_t total = 0;
  for (auto v : r.hist) total += v;
  EXPECT_EQ(total, 128u * 128u);
}

TEST(ExecutorPool, RepeatedLaunchesReuseThePersistentPool) {
  const auto first = run_stress(4, 16);
  for (int i = 0; i < 3; ++i) {
    const auto again = run_stress(4, 16);
    expect_stats_eq(first.stats, again.stats, "relaunch");
    EXPECT_EQ(first.out, again.out);
  }
}

TEST(ExecutorPool, ResolveHostThreadsPrecedence) {
  // Explicit value wins over everything.
  EXPECT_EQ(resolve_host_threads({.host_threads = 5}), 5u);
  EXPECT_EQ(resolve_host_threads({.host_threads = 1}), 1u);
  // Clamped to a sane ceiling.
  EXPECT_EQ(resolve_host_threads({.host_threads = 100000}), 256u);

  // Env var fills in the 0 = auto default.
  ::setenv("GPAPRIORI_HOST_THREADS", "3", 1);
  EXPECT_EQ(resolve_host_threads({.host_threads = 0}), 3u);
  EXPECT_EQ(resolve_host_threads({.host_threads = 2}), 2u);  // explicit wins

  // Garbage or out-of-range env falls back to hardware concurrency.
  const std::uint32_t hw =
      std::max(1u, std::thread::hardware_concurrency());
  ::setenv("GPAPRIORI_HOST_THREADS", "banana", 1);
  EXPECT_EQ(resolve_host_threads({.host_threads = 0}), hw);
  ::setenv("GPAPRIORI_HOST_THREADS", "0", 1);
  EXPECT_EQ(resolve_host_threads({.host_threads = 0}), hw);
  ::unsetenv("GPAPRIORI_HOST_THREADS");
  EXPECT_EQ(resolve_host_threads({.host_threads = 0}), hw);
}

// ---------------------------------------------------------------------------
// Support kernel: the traced interpreter (sample_stride 1) against the
// native path every untraced block takes by default (sample_stride 0).

struct SupportSetup {
  fim::BitsetStore store;
  std::vector<std::uint32_t> flat;
  std::uint32_t k;
};

SupportSetup make_support_setup(std::size_t num_trans, std::uint32_t k) {
  const std::size_t items = 8;
  const auto db = testutil::random_db(num_trans, items, 0.4, 321);
  std::vector<fim::Item> rows;
  for (fim::Item x = 0; x < items; ++x) rows.push_back(x);
  SupportSetup s{fim::BitsetStore::from_db(db, rows), {}, k};
  // All k-combinations of the 8 rows.
  std::vector<std::uint32_t> combo(k);
  auto emit = [&](auto&& self, std::uint32_t start, std::uint32_t depth) -> void {
    if (depth == k) {
      s.flat.insert(s.flat.end(), combo.begin(), combo.end());
      return;
    }
    for (std::uint32_t x = start; x < items; ++x) {
      combo[depth] = x;
      self(self, x + 1, depth + 1);
    }
  };
  emit(emit, 0, 0);
  return s;
}

KernelStats run_support(const SupportSetup& s, bool preload,
                        std::uint32_t unroll, std::uint32_t block,
                        std::uint64_t sample_stride,
                        std::vector<std::uint32_t>* supports_out = nullptr) {
  DeviceOptions opts;
  opts.arena_bytes = 32 << 20;
  opts.strict_memory = true;
  opts.executor.sample_stride = sample_stride;
  Device dev(props, opts);
  const std::uint32_t ncand =
      static_cast<std::uint32_t>(s.flat.size()) / s.k;
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
  const auto stats =
      dev.launch(kernel, {Dim3{ncand}, Dim3{block}});
  if (supports_out) {
    supports_out->resize(ncand);
    dev.copy_to_host(std::span<std::uint32_t>(*supports_out), d_sup);
  }
  return stats;
}

TEST(TracedVsNative, SupportKernelCounterEqualToTracedPath) {
  for (const bool preload : {true, false}) {
    for (const std::uint32_t unroll : {1u, 4u}) {
      const auto s = make_support_setup(900, 3);
      std::vector<std::uint32_t> sup_traced, sup_native;
      const auto traced =
          run_support(s, preload, unroll, 64, /*stride=*/1, &sup_traced);
      const auto native =
          run_support(s, preload, unroll, 64, /*stride=*/0, &sup_native);
      const std::string what = std::string("preload=") +
                               (preload ? "1" : "0") + " unroll=" +
                               std::to_string(unroll);
      expect_counters_eq(traced.counters, native.counters, what.c_str());
      EXPECT_EQ(sup_traced, sup_native) << what;
      EXPECT_GT(traced.sampled_blocks, 0u);
      EXPECT_EQ(native.sampled_blocks, 0u);
      // Cross-check against the CPU popcount oracle.
      for (std::size_t i = 0; i < sup_native.size(); ++i) {
        const auto expect = s.store.and_popcount(
            std::span<const std::uint32_t>(s.flat).subspan(i * s.k, s.k));
        ASSERT_EQ(sup_native[i], expect) << i;
      }
    }
  }
}

TEST(TracedVsNative, SupportKernelPinnedUnrollAccounting) {
  // Exact shape, hand-computed: block=32 (one warp), k=1, preload off,
  // unroll=3, 7 payload words, one candidate.
  //  phase 1, tids 0..6 (1 iteration each): row load + bitset load + AND +
  //    popc + accumulate = 5 ops, loop control charged once for the
  //    trailing partial group (+2), st_shared (+1) -> 8; tids 7..31 just
  //    st_shared -> 1.
  //  reduction phases (stride 16,8,4,2,1): stride*4 ops each = 124.
  //  writeback: tid 0 ld_shared + st_global = 2.
  const std::size_t items = 8;
  const auto db = testutil::random_db(7 * 32, items, 0.5, 11);
  std::vector<fim::Item> rows;
  for (fim::Item x = 0; x < items; ++x) rows.push_back(x);
  const auto store = fim::BitsetStore::from_db(db, rows);
  ASSERT_EQ(store.words_per_row(), 7u);

  SupportSetup s{store, {0}, 1};
  const std::uint64_t expected = (7 * 8 + 25 * 1) + 124 + 2;
  for (const std::uint64_t stride : {std::uint64_t{1}, std::uint64_t{0}}) {
    const auto stats =
        run_support(s, /*preload=*/false, /*unroll=*/3, 32, stride);
    EXPECT_EQ(stats.counters.thread_instructions, expected)
        << "sample_stride=" << stride;
  }
}

TEST(TracedVsNative, SupportKernelRejectsNonPowerOfTwoBlock) {
  const auto s = make_support_setup(100, 2);
  EXPECT_THROW(run_support(s, true, 4, 96, 1), LaunchError);
  EXPECT_THROW(run_support(s, true, 4, 48, 0), LaunchError);
}

// ---------------------------------------------------------------------------
// End-to-end mining determinism drills.

struct MiningCase {
  datagen::DatasetId id;
  const char* name;
  double scale;
  double support;
};

class MiningDeterminism : public testing::TestWithParam<MiningCase> {};

TEST_P(MiningDeterminism, ByteIdenticalAcrossHostThreads) {
  const auto& c = GetParam();
  const auto db = datagen::profile(c.id).generate(c.scale);
  miners::MiningParams p;
  p.min_support_ratio = c.support;

  auto run = [&](std::uint32_t threads) {
    gpapriori::Config cfg;
    cfg.arena_bytes = 64 << 20;
    cfg.sample_stride = 8;  // mix of traced and native blocks
    cfg.host_threads = threads;
    gpapriori::GpApriori miner(cfg);
    auto out = miner.mine(db, p);
    return std::tuple(out.itemsets.to_string(),
                      miner.launch_history(), out.device_ms);
  };

  const auto [ref_sets, ref_hist, ref_dev_ms] = run(1);
  ASSERT_FALSE(ref_sets.empty());
  const std::uint32_t hw =
      std::max(1u, std::thread::hardware_concurrency());
  for (std::uint32_t threads : {2u, 7u, hw}) {
    const auto [sets, hist, dev_ms] = run(threads);
    const std::string what =
        std::string(c.name) + " host_threads=" + std::to_string(threads);
    EXPECT_EQ(ref_sets, sets) << what;
    EXPECT_EQ(ref_dev_ms, dev_ms) << what;
    ASSERT_EQ(ref_hist.size(), hist.size()) << what;
    for (std::size_t i = 0; i < hist.size(); ++i) {
      expect_stats_eq(ref_hist[i], hist[i],
                      (what + " launch " + std::to_string(i)).c_str());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Drills, MiningDeterminism,
    testing::Values(
        MiningCase{datagen::DatasetId::kChess, "chess", 0.06, 0.75},
        MiningCase{datagen::DatasetId::kT40I10D100K, "t40", 0.006, 0.05},
        MiningCase{datagen::DatasetId::kPumsb, "pumsb", 0.012, 0.90},
        MiningCase{datagen::DatasetId::kAccidents, "accidents", 0.003, 0.65}),
    [](const testing::TestParamInfo<MiningCase>& param_info) {
      return std::string(param_info.param.name);
    });

TEST(ExecutorPool, ResilienceLadderIdenticalUnderThreads) {
  // Fault-plan stress: transient faults + corruption under retry must yield
  // the same output, the same ladder decisions, and the same launch-
  // granular fault accounting regardless of host parallelism.
  const auto db =
      datagen::profile(datagen::DatasetId::kChess).generate(0.06);
  miners::MiningParams p;
  p.min_support_ratio = 0.75;

  auto run = [&](std::uint32_t threads) {
    gpapriori::Config cfg;
    cfg.arena_bytes = 64 << 20;
    cfg.host_threads = threads;
    cfg.fault_plan = FaultPlan::parse(
        "seed=42;launch#2=timeout;d2h#3=corrupt;h2d#2=fail");
    gpapriori::GpApriori miner(cfg);
    const auto out = miner.mine(db, p);
    return std::pair(out.itemsets.to_string(), miner.resilience_report());
  };

  const auto [ref_sets, ref_rep] = run(1);
  ASSERT_FALSE(ref_sets.empty());
  for (std::uint32_t threads : {4u, 7u}) {
    const auto [sets, rep] = run(threads);
    EXPECT_EQ(ref_sets, sets) << threads;
    // FaultInjector counters are launch-granular (one on_launch per grid,
    // never per host worker), so every count must be thread-invariant.
    EXPECT_EQ(ref_rep.device_faults.launches, rep.device_faults.launches);
    EXPECT_EQ(ref_rep.device_faults.allocs, rep.device_faults.allocs);
    EXPECT_EQ(ref_rep.device_faults.h2d, rep.device_faults.h2d);
    EXPECT_EQ(ref_rep.device_faults.d2h, rep.device_faults.d2h);
    EXPECT_EQ(ref_rep.device_faults.total_injected(),
              rep.device_faults.total_injected());
    EXPECT_EQ(ref_rep.retries, rep.retries);
    EXPECT_EQ(ref_rep.summary(), rep.summary());
  }
}

}  // namespace
