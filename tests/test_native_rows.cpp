// Native sampled blocks (DESIGN.md §8–9): on a sampled block the two
// support kernels' native paths fill the block's warp rows themselves. Each
// seeded random launch runs side by side on an interpreter device and a
// native device, both sampling every block. Supports and every KernelStats
// field but native_blocks must match, and so must the rows, phase by phase:
// per row the active mask, and for each active lane the address, the width
// and the write bit; per warp the all-words flag. The interpreter's rows
// come from ThreadCtx recording, the native ones from a sink that copies
// what record_phase hands it.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "core/support_kernel.hpp"
#include "core/tiled_support_kernel.hpp"
#include "gpusim/device_context.hpp"
#include "gpusim/error.hpp"
#include "gpusim/kernel.hpp"

namespace {

using namespace gpusim;
using gpapriori::SupportKernel;
using gpapriori::TiledSupportKernel;

// ---------------------------------------------------------------------------
// Rows as the analyzers read them: active lanes only.

struct RowView {
  std::uint32_t mask = 0;
  std::uint32_t write_mask = 0;
  std::vector<std::uint64_t> addr;   ///< active lanes, ascending
  std::vector<std::uint32_t> width;  ///< active lanes, ascending
  bool operator==(const RowView&) const = default;
};

struct WarpView {
  std::vector<RowView> loads, stores, shared;
  bool all_words = true;
  bool operator==(const WarpView&) const = default;
};

using PhaseView = std::vector<WarpView>;

RowView view_of(const WarpRequest& r) {
  RowView v;
  v.mask = r.active_mask;
  for (std::uint32_t l = 0; l < 32; ++l)
    if ((r.active_mask >> l) & 1u) {
      v.addr.push_back(r.addr[l]);
      v.width.push_back(r.access_bytes);
    }
  return v;
}

RowView view_of(const detail::SharedRow& r) {
  RowView v;
  v.mask = r.req.active_mask;
  v.write_mask = r.write_mask;
  for (std::uint32_t l = 0; l < 32; ++l)
    if ((r.req.active_mask >> l) & 1u) {
      v.addr.push_back(r.req.addr[l]);
      v.width.push_back(r.bytes[l]);
    }
  return v;
}

template <typename Row>
std::vector<RowView> view_of(const detail::RowTable<Row>& t) {
  std::vector<RowView> v;
  for (std::size_t n = 0; n < t.used; ++n) v.push_back(view_of(t.rows[n]));
  return v;
}

PhaseView snapshot(const detail::BlockRecorder& rec) {
  PhaseView p;
  for (std::uint32_t w = 0; w < rec.num_warps(); ++w) {
    const detail::WarpRows& rows = rec.warp(w);
    p.push_back({view_of(rows.loads), view_of(rows.stores),
                 view_of(rows.shared), rows.all_words});
  }
  return p;
}

/// The test's sink: copies each phase the native path records.
class CopySink final : public detail::PhaseSink {
 public:
  std::vector<PhaseView> phases;
  void phase_recorded(detail::BlockRecorder& rec) override {
    phases.push_back(snapshot(rec));
  }
};

/// Block `flat_block`'s rows as the interpreter records them: the
/// executor's per-phase loop over ThreadCtx, threads in tid order.
std::vector<PhaseView> interpreted_rows(const Kernel& k,
                                        const LaunchConfig& cfg,
                                        std::uint32_t flat_block,
                                        GlobalMemory& mem) {
  const KernelInfo info = k.info(cfg);
  SharedMemory smem(info.static_shared_bytes + cfg.dynamic_shared_bytes);
  KernelCounters counters;
  detail::BlockRecorder rec;
  const std::uint32_t tpb = cfg.threads_per_block();
  std::vector<PhaseView> phases;
  for (std::uint32_t phase = 0; phase < info.num_phases; ++phase) {
    rec.begin_phase((tpb + 31) / 32);
    for (std::uint32_t tid = 0; tid < tpb; ++tid) {
      ThreadCtx ctx(cfg.grid, cfg.block, Dim3{flat_block, 0, 0},
                    Dim3{tid, 0, 0}, mem, smem, counters, &rec);
      k.run_phase(phase, ctx);
    }
    phases.push_back(snapshot(rec));
  }
  return phases;
}

/// The same block's rows from the native path, or nothing if it declines.
std::optional<std::vector<PhaseView>> native_rows(const Kernel& k,
                                                  const LaunchConfig& cfg,
                                                  std::uint32_t flat_block,
                                                  GlobalMemory& mem) {
  KernelCounters counters;
  detail::BlockRecorder rec;
  CopySink sink;
  BlockCtx b(cfg.grid, cfg.block, Dim3{flat_block, 0, 0}, mem, counters,
             &rec, &sink);
  if (!k.run_block_native(b)) return std::nullopt;
  return sink.phases;
}

std::string describe(const RowView& r) {
  std::ostringstream os;
  os << "mask=" << std::hex << r.mask << " writes=" << r.write_mask
     << std::dec << " addr/width=";
  for (std::size_t i = 0; i < r.addr.size(); ++i)
    os << ' ' << r.addr[i] << '/' << r.width[i];
  return os.str();
}

/// Empty when the two recordings are equal; else their first difference.
std::string first_difference(const std::vector<PhaseView>& want,
                             const std::vector<PhaseView>& got) {
  if (want.size() != got.size())
    return "phases: " + std::to_string(want.size()) + " vs " +
           std::to_string(got.size());
  for (std::size_t p = 0; p < want.size(); ++p) {
    if (want[p].size() != got[p].size()) return "warps differ";
    for (std::size_t w = 0; w < want[p].size(); ++w) {
      const std::string at =
          "phase " + std::to_string(p) + " warp " + std::to_string(w) + " ";
      const WarpView& a = want[p][w];
      const WarpView& b = got[p][w];
      if (a.all_words != b.all_words) return at + "all_words";
      const auto cmp = [&](const char* cls, const std::vector<RowView>& x,
                           const std::vector<RowView>& y) -> std::string {
        if (x.size() != y.size())
          return at + cls + " rows: " + std::to_string(x.size()) + " vs " +
                 std::to_string(y.size());
        for (std::size_t n = 0; n < x.size(); ++n)
          if (!(x[n] == y[n]))
            return at + cls + " row " + std::to_string(n) +
                   "\n  interpreter: " + describe(x[n]) +
                   "\n  native:      " + describe(y[n]);
        return {};
      };
      for (const std::string& d : {cmp("load", a.loads, b.loads),
                                   cmp("store", a.stores, b.stores),
                                   cmp("shared", a.shared, b.shared)})
        if (!d.empty()) return d;
    }
  }
  return {};
}

void expect_stats_eq(const KernelStats& a, const KernelStats& b,
                     const std::string& what) {
  const KernelCounters& x = a.counters;
  const KernelCounters& y = b.counters;
  EXPECT_EQ(x.global_loads, y.global_loads) << what;
  EXPECT_EQ(x.global_stores, y.global_stores) << what;
  EXPECT_EQ(x.global_atomics, y.global_atomics) << what;
  EXPECT_EQ(x.global_load_bytes, y.global_load_bytes) << what;
  EXPECT_EQ(x.global_store_bytes, y.global_store_bytes) << what;
  EXPECT_EQ(x.shared_loads, y.shared_loads) << what;
  EXPECT_EQ(x.shared_stores, y.shared_stores) << what;
  EXPECT_EQ(x.thread_instructions, y.thread_instructions) << what;
  EXPECT_EQ(x.warp_instructions, y.warp_instructions) << what;
  EXPECT_EQ(x.warp_phases, y.warp_phases) << what;
  EXPECT_EQ(x.divergent_warp_phases, y.divergent_warp_phases) << what;
  EXPECT_EQ(x.barriers, y.barriers) << what;
  EXPECT_EQ(x.blocks, y.blocks) << what;
  EXPECT_EQ(x.threads, y.threads) << what;
  for (const auto& [m, n] :
       {std::pair(&a.gmem_load_coalescing, &b.gmem_load_coalescing),
        std::pair(&a.gmem_store_coalescing, &b.gmem_store_coalescing)}) {
    EXPECT_EQ(m->requests, n->requests) << what;
    EXPECT_EQ(m->transactions, n->transactions) << what;
    EXPECT_EQ(m->bytes_requested, n->bytes_requested) << what;
    EXPECT_EQ(m->bytes_transferred, n->bytes_transferred) << what;
  }
  EXPECT_EQ(a.sampled_blocks, b.sampled_blocks) << what;
  EXPECT_EQ(a.shared_requests_sampled, b.shared_requests_sampled) << what;
  EXPECT_EQ(a.shared_serialization_sampled, b.shared_serialization_sampled)
      << what;
  EXPECT_EQ(a.shared_race_hazards, b.shared_race_hazards) << what;
  EXPECT_EQ(a.timing.total_ns, b.timing.total_ns) << what;
}

// ---------------------------------------------------------------------------
// Seeded random launches, uploaded in a fixed order to each device.

constexpr std::uint32_t kArenaRows = 40;
const std::uint32_t kBlocks[] = {32, 64, 128, 256, 512};
const std::uint32_t kWidths[] = {0, 1, 31, 32, 33, 144, 255, 256, 257, 513};

/// Host side of one launch: a random bitset arena (stride wider than the
/// payload), a row-id table and, for the tiled kernel, sibling ids and
/// group offsets.
struct LaunchData {
  std::uint32_t W = 0, stride = 0;
  std::vector<std::uint32_t> bits, ids, sibs, offsets;
  std::uint32_t outputs = 0;
};

struct DeviceData {
  DevicePtr<std::uint32_t> bits, ids, sibs, offsets, supports;
};

std::vector<std::uint32_t> random_ids(std::size_t n, std::mt19937& rng) {
  std::vector<std::uint32_t> v(n);
  for (auto& x : v) x = static_cast<std::uint32_t>(rng() % kArenaRows);
  return v;
}

LaunchData random_bits(std::uint32_t W, std::mt19937& rng) {
  LaunchData d;
  d.W = W;
  d.stride = W + 3;
  d.bits.resize(std::size_t{kArenaRows} * d.stride);
  for (auto& x : d.bits) x = static_cast<std::uint32_t>(rng());
  return d;
}

DevicePtr<std::uint32_t> put(Device& dev, const std::vector<std::uint32_t>& v) {
  auto p = dev.alloc<std::uint32_t>(std::max<std::size_t>(v.size(), 1), 64);
  if (!v.empty()) dev.copy_to_device(p, std::span<const std::uint32_t>(v));
  return p;
}

DeviceData upload(Device& dev, const LaunchData& d) {
  DeviceData p;
  p.bits = put(dev, d.bits);
  p.ids = put(dev, d.ids);
  p.sibs = put(dev, d.sibs);
  p.offsets = put(dev, d.offsets);
  p.supports = dev.alloc<std::uint32_t>(d.outputs, 64);
  return p;
}

Device make_device(bool native, std::uint32_t host_threads) {
  DeviceOptions opts;
  opts.arena_bytes = 8 << 20;
  opts.strict_memory = true;
  opts.executor.sample_stride = 1;
  opts.executor.native = native;
  opts.executor.host_threads = host_threads;
  return Device(DeviceProperties::tesla_t10(), opts);
}

using KernelFactory =
    std::function<std::unique_ptr<Kernel>(const DeviceData&)>;

/// Runs the launch on an interpreter device and on native devices at
/// host_threads 1 and 4, then compares every block's rows. `declines`:
/// the native path must refuse every block, which then interprets.
void side_by_side(const LaunchData& data, const LaunchConfig& cfg,
                  const KernelFactory& make, bool declines,
                  const std::string& what) {
  Device ref_dev = make_device(false, 1);
  const DeviceData ref_ptrs = upload(ref_dev, data);
  const auto ref_kernel = make(ref_ptrs);
  const KernelStats ref = ref_dev.launch(*ref_kernel, cfg);
  std::vector<std::uint32_t> ref_sup(data.outputs);
  ref_dev.copy_to_host(std::span<std::uint32_t>(ref_sup), ref_ptrs.supports);
  EXPECT_EQ(ref.native_blocks, 0u) << what;

  for (const std::uint32_t threads : {1u, 4u}) {
    const std::string w = what + " host_threads=" + std::to_string(threads);
    Device dev = make_device(true, threads);
    const DeviceData ptrs = upload(dev, data);
    const auto kernel = make(ptrs);
    const KernelStats got = dev.launch(*kernel, cfg);
    expect_stats_eq(ref, got, w);
    EXPECT_EQ(got.native_blocks, declines ? 0 : cfg.num_blocks()) << w;
    std::vector<std::uint32_t> sup(data.outputs);
    dev.copy_to_host(std::span<std::uint32_t>(sup), ptrs.supports);
    EXPECT_EQ(ref_sup, sup) << w;
  }

  for (std::uint32_t blk = 0; blk < cfg.grid.x; ++blk) {
    const std::string w = what + " block " + std::to_string(blk);
    const auto got = native_rows(*ref_kernel, cfg, blk, ref_dev.memory());
    if (declines) {
      EXPECT_FALSE(got.has_value()) << w;
      continue;
    }
    ASSERT_TRUE(got.has_value()) << w;
    const auto want =
        interpreted_rows(*ref_kernel, cfg, blk, ref_dev.memory());
    ASSERT_EQ(first_difference(want, *got), "") << w;
  }
}

// ---------------------------------------------------------------------------
// TiledSupportKernel: one launch per (blockDim, W, k, unroll) whose groups
// have sizes {1, nw-1, nw, nw+1, 33, 64}, so some warps sweep no sibling
// and some several; the launch starts at group 1.

class TiledRows : public testing::TestWithParam<std::uint32_t> {};

TEST_P(TiledRows, NativeRowsAndStatsMatchInterpreter) {
  const std::uint32_t block = GetParam();
  const std::uint32_t nw = block / 32;
  std::mt19937 rng(9100 + block);
  for (const std::uint32_t W : kWidths)
    for (const std::uint32_t k : {1u, 2u, 3u, 5u, 33u})
      for (const std::uint32_t unroll : {1u, 4u}) {
        LaunchData d = random_bits(W, rng);
        const std::vector<std::uint32_t> sizes{5,      1,  nw - 1, nw,
                                               nw + 1, 33, 64};
        d.offsets.push_back(0);
        for (const std::uint32_t g : sizes)
          d.offsets.push_back(d.offsets.back() + g);
        d.outputs = d.offsets.back();
        d.sibs = random_ids(d.outputs, rng);
        d.ids = random_ids(sizes.size() * (k - 1), rng);
        const auto ngroups = static_cast<std::uint32_t>(sizes.size() - 1);
        const KernelFactory make = [&](const DeviceData& p) {
          TiledSupportKernel::Args a;
          a.bitsets = p.bits;
          a.stride_words = d.stride;
          a.words_per_row = W;
          a.prefix_rows = p.ids;
          a.sibling_rows = p.sibs;
          a.group_offsets = p.offsets;
          a.k = k;
          a.first_group = 1;
          a.supports = p.supports;
          return std::make_unique<TiledSupportKernel>(a, unroll);
        };
        side_by_side(d, {Dim3{ngroups}, Dim3{block}}, make, false,
                     "block=" + std::to_string(block) + " W=" +
                         std::to_string(W) + " k=" + std::to_string(k) +
                         " unroll=" + std::to_string(unroll));
        if (HasFatalFailure()) return;
      }
}

INSTANTIATE_TEST_SUITE_P(Shapes, TiledRows, testing::ValuesIn(kBlocks),
                         [](const testing::TestParamInfo<std::uint32_t>& p) {
                           return "b" + std::to_string(p.param);
                         });

// ---------------------------------------------------------------------------
// SupportKernel: three candidates from candidate 2 on. k = blockDim + 1
// with preload on reads the ids past blockDim as 0 (the preload quirk);
// k = 257 is past the native path's limit and must interpret.

class SupportRows : public testing::TestWithParam<std::uint32_t> {};

TEST_P(SupportRows, NativeRowsAndStatsMatchInterpreter) {
  const std::uint32_t block = GetParam();
  std::mt19937 rng(9200 + block);
  constexpr std::uint32_t kFirst = 2, kCands = 3;
  for (const std::uint32_t W : kWidths)
    for (const std::uint32_t k : {1u, 2u, 3u, 8u, 33u, block + 1, 257u})
      for (const bool preload : {true, false})
        for (const std::uint32_t unroll : {1u, 4u}) {
          if (k == block + 1 && !preload) continue;
          // The decline interprets every word of 257 rows: one candidate
          // and one unroll keep it cheap.
          if (k == 257 && unroll != 1) continue;
          const std::uint32_t cands = k == 257 ? 1 : kCands;
          LaunchData d = random_bits(W, rng);
          d.ids = random_ids(std::size_t{kFirst + cands} * k, rng);
          d.outputs = kFirst + cands;
          const KernelFactory make = [&](const DeviceData& p) {
            SupportKernel::Args a;
            a.bitsets = p.bits;
            a.stride_words = d.stride;
            a.words_per_row = W;
            a.candidates = p.ids;
            a.k = k;
            a.first_candidate = kFirst;
            a.supports = p.supports;
            return std::make_unique<SupportKernel>(a, preload, unroll);
          };
          side_by_side(d, {Dim3{cands}, Dim3{block}}, make, k > 256,
                       "block=" + std::to_string(block) + " W=" +
                           std::to_string(W) + " k=" + std::to_string(k) +
                           " preload=" + std::to_string(preload) +
                           " unroll=" + std::to_string(unroll));
          if (HasFatalFailure()) return;
        }
}

INSTANTIATE_TEST_SUITE_P(Shapes, SupportRows, testing::ValuesIn(kBlocks),
                         [](const testing::TestParamInfo<std::uint32_t>& p) {
                           return "b" + std::to_string(p.param);
                         });

}  // namespace
