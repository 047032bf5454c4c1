// Unit-level kernel checks that the driver-level tests cannot isolate:
// EqClassKernel against BitsetStore::and_rows directly, and ThreadCtx
// geometry identities.

#include <gtest/gtest.h>

#include "core/eqclass.hpp"
#include "fim/bitset_ops.hpp"
#include "gpusim/device_context.hpp"
#include "gpusim/error.hpp"
#include "test_util.hpp"

namespace {

using namespace gpusim;

TEST(EqClassKernelUnit, WritesRowsAndSupports) {
  const auto db = testutil::random_db(500, 6, 0.4, 701);
  std::vector<fim::Item> items{0, 1, 2, 3, 4, 5};
  const auto store = fim::BitsetStore::from_db(db, items);
  const auto stride = static_cast<std::uint32_t>(store.row_stride_words());

  DeviceOptions opts;
  opts.arena_bytes = 16 << 20;
  opts.strict_memory = true;
  opts.executor.sample_stride = 1;
  Device dev(DeviceProperties::tesla_t10(), opts);

  auto d_rows = dev.alloc<std::uint32_t>(store.arena().size(), 64);
  dev.copy_to_device(d_rows, store.arena());
  // Pairs (0,1), (2,3), (4,5).
  const std::vector<std::uint32_t> table{0, 1, 2, 3, 4, 5};
  auto d_table = dev.alloc<std::uint32_t>(table.size());
  dev.copy_to_device(d_table, std::span<const std::uint32_t>(table));
  auto d_out = dev.alloc<std::uint32_t>(3ull * stride, 64);
  auto d_sup = dev.alloc<std::uint32_t>(3);

  gpapriori::EqClassKernel::Args args;
  args.parents = d_rows;
  args.gen1 = d_rows;
  args.stride_words = stride;
  args.words_per_row = static_cast<std::uint32_t>(store.words_per_row());
  args.pair_table = d_table;
  args.out_rows = d_out;
  args.supports = d_sup;
  gpapriori::EqClassKernel kernel(args);
  const auto stats = dev.launch(kernel, {Dim3{3}, Dim3{64}});
  EXPECT_EQ(stats.shared_race_hazards, 0u);

  std::vector<std::uint32_t> sup(3);
  dev.copy_to_host(std::span<std::uint32_t>(sup), d_sup);
  std::vector<std::uint32_t> expect_row(stride);
  std::vector<std::uint32_t> got_rows(3ull * stride);
  dev.copy_to_host(std::span<std::uint32_t>(got_rows), d_out);
  for (std::uint32_t p = 0; p < 3; ++p) {
    const std::uint32_t pair[] = {table[p * 2], table[p * 2 + 1]};
    EXPECT_EQ(sup[p], store.and_popcount(pair)) << p;
    store.and_rows(pair, expect_row);
    for (std::size_t w = 0; w < store.words_per_row(); ++w)
      ASSERT_EQ(got_rows[p * stride + w], expect_row[w]) << p << " " << w;
  }
}

/// Counts the pair (0, 1) over 2,000 identical transactions {0, 1} with one
/// block of shape `block`; the right support is 2,000.
std::uint32_t eqclass_pair_support(Dim3 block) {
  std::vector<std::vector<fim::Item>> txs(2000, {0, 1});
  const auto db = fim::TransactionDb::from_transactions(txs);
  std::vector<fim::Item> items{0, 1};
  const auto store = fim::BitsetStore::from_db(db, items);
  const auto stride = static_cast<std::uint32_t>(store.row_stride_words());
  DeviceOptions opts;
  opts.arena_bytes = 1 << 20;
  opts.strict_memory = true;
  opts.executor.sample_stride = 1;
  Device dev(DeviceProperties::tesla_t10(), opts);
  auto d_rows = dev.alloc<std::uint32_t>(store.arena().size(), 64);
  dev.copy_to_device(d_rows, store.arena());
  const std::vector<std::uint32_t> table{0, 1};
  auto d_table = dev.alloc<std::uint32_t>(table.size());
  dev.copy_to_device(d_table, std::span<const std::uint32_t>(table));
  auto d_out = dev.alloc<std::uint32_t>(stride, 64);
  auto d_sup = dev.alloc<std::uint32_t>(1);
  gpapriori::EqClassKernel::Args args;
  args.parents = d_rows;
  args.gen1 = d_rows;
  args.stride_words = stride;
  args.words_per_row = static_cast<std::uint32_t>(store.words_per_row());
  args.pair_table = d_table;
  args.out_rows = d_out;
  args.supports = d_sup;
  gpapriori::EqClassKernel kernel(args);
  (void)dev.launch(kernel, {Dim3{1}, block});
  std::uint32_t sup = 0;
  dev.copy_to_host(std::span<std::uint32_t>(&sup, 1), d_sup);
  return sup;
}

TEST(EqClassKernelUnit, CountsAPowerOfTwoBlockExactly) {
  EXPECT_EQ(eqclass_pair_support(Dim3{64}), 2000u);
}

TEST(EqClassKernelUnit, RejectsNonOneDimensionalBlock) {
  // A (32, 2) block would index partials by x alone and overrun shared
  // memory mid-launch; it must fail at launch with a typed error.
  EXPECT_THROW((void)eqclass_pair_support(Dim3{32, 2}), LaunchError);
}

TEST(EqClassKernelUnit, RejectsNonPowerOfTwoBlock) {
  // The tree reduction halves blockDim.x: a 96-thread block would drop
  // partials and count 672 of 2,000.
  EXPECT_THROW((void)eqclass_pair_support(Dim3{96}), LaunchError);
}

TEST(ThreadCtxUnit, GeometryIdentities) {
  class Probe final : public Kernel {
   public:
    DevicePtr<std::uint32_t> out;
    [[nodiscard]] std::string_view name() const override { return "geom"; }
    [[nodiscard]] KernelInfo info(const LaunchConfig&) const override {
      return {.num_phases = 1, .static_shared_bytes = 0, .regs_per_thread = 4};
    }
    void run_phase(std::uint32_t, ThreadCtx& t) const override {
      // flat_tid = warp_id * 32 + lane_id, always.
      const std::uint32_t reconstructed = t.warp_id() * 32 + t.lane_id();
      t.st_global(out, t.flat_block_idx() * t.block_dim().x + t.flat_tid(),
                  reconstructed == t.flat_tid() ? 1u : 0u);
    }
  } k;
  GlobalMemory mem(1 << 16);
  k.out = mem.alloc<std::uint32_t>(6 * 96);
  run_kernel(k, {Dim3{3, 2}, Dim3{96}}, mem,
             DeviceProperties::tesla_t10());
  std::vector<std::uint32_t> out(6 * 96);
  mem.read_bytes(k.out.addr, out.data(), out.size() * 4);
  for (auto v : out) ASSERT_EQ(v, 1u);
}

TEST(ThreadCtxUnit, TwoDimensionalThreadIndexFlattens) {
  class Probe final : public Kernel {
   public:
    DevicePtr<std::uint32_t> out;
    [[nodiscard]] std::string_view name() const override { return "tidxy"; }
    [[nodiscard]] KernelInfo info(const LaunchConfig&) const override {
      return {.num_phases = 1, .static_shared_bytes = 0, .regs_per_thread = 4};
    }
    void run_phase(std::uint32_t, ThreadCtx& t) const override {
      const auto idx = t.thread_idx();
      const std::uint32_t flat = idx.x + t.block_dim().x * idx.y;
      t.st_global(out, flat, flat == t.flat_tid() ? 1u : 0u);
    }
  } k;
  GlobalMemory mem(1 << 16);
  k.out = mem.alloc<std::uint32_t>(8 * 4);
  run_kernel(k, {Dim3{1}, Dim3{8, 4}}, mem, DeviceProperties::tesla_t10());
  std::vector<std::uint32_t> out(32);
  mem.read_bytes(k.out.addr, out.data(), 128);
  for (auto v : out) ASSERT_EQ(v, 1u);
}

}  // namespace
