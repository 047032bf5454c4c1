#include "core/horizontal_kernel.hpp"

#include <gtest/gtest.h>

#include "core/support_kernel.hpp"
#include "fim/bitset_ops.hpp"
#include "gpusim/device_context.hpp"
#include "gpusim/error.hpp"
#include "test_util.hpp"

namespace {

using gpapriori::HorizontalCountKernel;
using gpusim::Device;
using gpusim::DeviceOptions;
using gpusim::DeviceProperties;

struct Uploaded {
  HorizontalCountKernel::Args args;
  std::size_t num_candidates = 0;
};

Uploaded upload(Device& dev, const fim::TransactionDb& db,
                const std::vector<fim::Itemset>& candidates) {
  std::vector<std::uint32_t> items, offsets{0}, flat;
  for (std::size_t t = 0; t < db.num_transactions(); ++t) {
    const auto tx = db.transaction(t);
    items.insert(items.end(), tx.begin(), tx.end());
    offsets.push_back(static_cast<std::uint32_t>(items.size()));
  }
  const std::size_t k = candidates.empty() ? 1 : candidates[0].size();
  for (const auto& c : candidates)
    flat.insert(flat.end(), c.begin(), c.end());

  Uploaded u;
  u.num_candidates = candidates.size();
  u.args.items = dev.alloc<std::uint32_t>(std::max<std::size_t>(1, items.size()));
  if (!items.empty())
    dev.copy_to_device(u.args.items, std::span<const std::uint32_t>(items));
  u.args.offsets = dev.alloc<std::uint32_t>(offsets.size());
  dev.copy_to_device(u.args.offsets,
                     std::span<const std::uint32_t>(offsets));
  u.args.num_transactions = static_cast<std::uint32_t>(db.num_transactions());
  u.args.candidates = dev.alloc<std::uint32_t>(std::max<std::size_t>(1, flat.size()));
  if (!flat.empty())
    dev.copy_to_device(u.args.candidates,
                       std::span<const std::uint32_t>(flat));
  u.args.num_candidates = static_cast<std::uint32_t>(candidates.size());
  u.args.k = static_cast<std::uint32_t>(k);
  u.args.supports = dev.alloc<std::uint32_t>(
      std::max<std::size_t>(1, candidates.size()));
  std::vector<std::uint32_t> zero(std::max<std::size_t>(1, candidates.size()), 0);
  dev.copy_to_device(u.args.supports, std::span<const std::uint32_t>(zero));
  return u;
}

TEST(HorizontalKernel, CountsMatchNaiveSupports) {
  const auto db = testutil::random_db(300, 10, 0.4, 601);
  std::vector<fim::Itemset> cands;
  for (fim::Item a = 0; a < 10; ++a)
    for (fim::Item b = a + 1; b < 10; ++b) cands.push_back({a, b});

  DeviceOptions opts;
  opts.arena_bytes = 8 << 20;
  opts.strict_memory = true;
  opts.executor.sample_stride = 1;
  Device dev(DeviceProperties::tesla_t10(), opts);
  const auto u = upload(dev, db, cands);
  HorizontalCountKernel kernel(u.args);
  dev.launch(kernel, {gpusim::Dim3{4}, gpusim::Dim3{64}});

  std::vector<std::uint32_t> sup(cands.size());
  dev.copy_to_host(std::span<std::uint32_t>(sup), u.args.supports);
  for (std::size_t i = 0; i < cands.size(); ++i)
    ASSERT_EQ(sup[i], testutil::naive_support(db, cands[i]))
        << cands[i].to_string();
}

TEST(HorizontalKernel, TripleCandidates) {
  const auto db = testutil::random_db(200, 8, 0.5, 602);
  std::vector<fim::Itemset> cands{{0, 1, 2}, {1, 3, 5}, {2, 4, 6}, {0, 5, 7}};
  DeviceOptions opts;
  opts.arena_bytes = 8 << 20;
  opts.strict_memory = true;
  Device dev(DeviceProperties::tesla_t10(), opts);
  const auto u = upload(dev, db, cands);
  HorizontalCountKernel kernel(u.args);
  dev.launch(kernel, {gpusim::Dim3{2}, gpusim::Dim3{128}});
  std::vector<std::uint32_t> sup(cands.size());
  dev.copy_to_host(std::span<std::uint32_t>(sup), u.args.supports);
  for (std::size_t i = 0; i < cands.size(); ++i)
    EXPECT_EQ(sup[i], testutil::naive_support(db, cands[i]));
}

/// Launches the pair-count over random_db(100, 6) with `cfg`.
void launch_pairs(const gpusim::LaunchConfig& cfg) {
  const auto db = testutil::random_db(100, 6, 0.5, 603);
  DeviceOptions opts;
  opts.arena_bytes = 8 << 20;
  opts.strict_memory = true;
  Device dev(DeviceProperties::tesla_t10(), opts);
  const auto u = upload(dev, db, {{0, 1}, {2, 3}});
  HorizontalCountKernel kernel(u.args);
  dev.launch(kernel, cfg);
}

// A thread's first transaction and the grid stride count x only: a 2-D
// block or grid would walk the same transactions twice, so both are
// rejected before any block runs.
TEST(HorizontalKernel, RejectsABlockThatIsNot1D) {
  EXPECT_THROW(launch_pairs({gpusim::Dim3{4}, gpusim::Dim3{32, 2}}),
               gpusim::LaunchError);
}

TEST(HorizontalKernel, RejectsAGridThatIsNot1D) {
  EXPECT_THROW(launch_pairs({gpusim::Dim3{1, 2}, gpusim::Dim3{64}}),
               gpusim::LaunchError);
}

TEST(HorizontalKernel, ExhibitsTheIrregularityThePaperDescribes) {
  // The quantitative version of §IV.2's complaint: ragged transactions
  // diverge warps and the scan's loads coalesce poorly next to the bitset
  // kernel on identical work.
  const auto db = testutil::random_db(2048, 8, 0.5, 603);
  std::vector<fim::Itemset> cands;
  for (fim::Item a = 0; a < 8; ++a)
    for (fim::Item b = a + 1; b < 8; ++b) cands.push_back({a, b});

  DeviceOptions opts;
  opts.arena_bytes = 16 << 20;
  opts.executor.sample_stride = 1;
  Device dev(DeviceProperties::tesla_t10(), opts);
  const auto u = upload(dev, db, cands);
  HorizontalCountKernel kernel(u.args);
  const auto horiz = dev.launch(kernel, {gpusim::Dim3{8}, gpusim::Dim3{128}});
  EXPECT_GT(horiz.counters.divergent_warp_phases, 0u);
  EXPECT_GT(horiz.counters.global_atomics, 0u);
  EXPECT_LT(horiz.counters.simt_efficiency(), 0.95);

  // Bitset kernel, same candidates.
  std::vector<fim::Item> rows(8);
  for (fim::Item i = 0; i < 8; ++i) rows[i] = i;
  const auto store = fim::BitsetStore::from_db(db, rows);
  auto d_bits = dev.alloc<std::uint32_t>(store.arena().size(), 64);
  dev.copy_to_device(d_bits, store.arena());
  gpapriori::SupportKernel::Args sargs;
  sargs.bitsets = d_bits;
  sargs.stride_words = static_cast<std::uint32_t>(store.row_stride_words());
  sargs.words_per_row = static_cast<std::uint32_t>(store.words_per_row());
  sargs.candidates = u.args.candidates;
  sargs.k = 2;
  sargs.supports = u.args.supports;
  gpapriori::SupportKernel bitset(sargs, true, 4);
  const auto bs = dev.launch(
      bitset, {gpusim::Dim3{static_cast<std::uint32_t>(cands.size())},
               gpusim::Dim3{128}});

  EXPECT_GT(bs.gmem_load_coalescing.efficiency(),
            horiz.gmem_load_coalescing.efficiency());
  EXPECT_LT(bs.timing.total_ns, horiz.timing.total_ns);
}

TEST(HorizontalKernel, AtomicAddSemantics) {
  // Many threads increment one counter: exact total, atomics counted.
  class AtomicKernel final : public gpusim::Kernel {
   public:
    gpusim::DevicePtr<std::uint32_t> counter;
    [[nodiscard]] std::string_view name() const override { return "atomic"; }
    [[nodiscard]] gpusim::KernelInfo info(
        const gpusim::LaunchConfig&) const override {
      return {.num_phases = 1, .static_shared_bytes = 0, .regs_per_thread = 4};
    }
    void run_phase(std::uint32_t, gpusim::ThreadCtx& t) const override {
      const auto old = t.atomic_add_global(counter, 0, 2);
      (void)old;
    }
  } k;
  DeviceOptions opts;
  opts.arena_bytes = 1 << 16;
  Device dev(DeviceProperties::tesla_t10(), opts);
  k.counter = dev.alloc<std::uint32_t>(1);
  std::vector<std::uint32_t> zero{0};
  dev.copy_to_device(k.counter, std::span<const std::uint32_t>(zero));
  const auto stats = dev.launch(k, {gpusim::Dim3{4}, gpusim::Dim3{64}});
  std::vector<std::uint32_t> out(1);
  dev.copy_to_host(std::span<std::uint32_t>(out), k.counter);
  EXPECT_EQ(out[0], 4u * 64u * 2u);
  EXPECT_EQ(stats.counters.global_atomics, 4u * 64u);
}

}  // namespace
