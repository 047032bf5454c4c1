#include "core/tidset_kernel.hpp"

#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "fim/vertical.hpp"
#include "gpusim/device_context.hpp"
#include "gpusim/error.hpp"
#include "test_util.hpp"

namespace {

using gpapriori::TidsetJoinKernel;
using gpusim::Device;
using gpusim::DeviceOptions;
using gpusim::DeviceProperties;

struct JoinSetup {
  std::vector<std::uint32_t> tids;        // pooled
  std::vector<std::uint32_t> pair_table;  // 4 words per pair
  std::vector<std::pair<std::vector<fim::Tid>, std::vector<fim::Tid>>> pairs;
};

JoinSetup make_setup(const std::vector<std::pair<std::vector<fim::Tid>,
                                                 std::vector<fim::Tid>>>& ps) {
  JoinSetup s;
  s.pairs = ps;
  for (const auto& [a, b] : ps) {
    s.pair_table.push_back(static_cast<std::uint32_t>(s.tids.size()));
    s.pair_table.push_back(static_cast<std::uint32_t>(a.size()));
    s.tids.insert(s.tids.end(), a.begin(), a.end());
    s.pair_table.push_back(static_cast<std::uint32_t>(s.tids.size()));
    s.pair_table.push_back(static_cast<std::uint32_t>(b.size()));
    s.tids.insert(s.tids.end(), b.begin(), b.end());
  }
  return s;
}

std::vector<std::uint32_t> run_join(const JoinSetup& s, gpusim::Dim3 block,
                                    gpusim::KernelStats* stats_out = nullptr) {
  DeviceOptions opts;
  opts.arena_bytes = 16 << 20;
  opts.strict_memory = true;
  opts.executor.sample_stride = 1;
  Device dev(DeviceProperties::tesla_t10(), opts);
  TidsetJoinKernel::Args args;
  args.tids = dev.alloc<std::uint32_t>(std::max<std::size_t>(1, s.tids.size()));
  if (!s.tids.empty())
    dev.copy_to_device(args.tids, std::span<const std::uint32_t>(s.tids));
  args.pair_table = dev.alloc<std::uint32_t>(s.pair_table.size());
  dev.copy_to_device(args.pair_table,
                     std::span<const std::uint32_t>(s.pair_table));
  args.out = dev.alloc<std::uint32_t>(s.pairs.size());
  TidsetJoinKernel kernel(args);
  const auto stats = dev.launch(
      kernel, {gpusim::Dim3{static_cast<std::uint32_t>(s.pairs.size())},
               block});
  if (stats_out) *stats_out = stats;
  std::vector<std::uint32_t> out(s.pairs.size());
  dev.copy_to_host(std::span<std::uint32_t>(out), args.out);
  return out;
}

TEST(TidsetJoinKernel, CountsIntersections) {
  const auto s = make_setup({
      {{0, 2, 4, 6}, {1, 2, 3, 4}},
      {{5, 9}, {1, 3}},
      {{0, 1, 2}, {0, 1, 2}},
  });
  const auto out = run_join(s, 64);
  EXPECT_EQ(out[0], 2u);
  EXPECT_EQ(out[1], 0u);
  EXPECT_EQ(out[2], 3u);
}

TEST(TidsetJoinKernel, MatchesCpuIntersectOnRandomTidsets) {
  const auto db = testutil::random_db(800, 6, 0.3, 44);
  const auto vert = fim::VerticalDb::from_horizontal(db);
  std::vector<std::pair<std::vector<fim::Tid>, std::vector<fim::Tid>>> ps;
  for (fim::Item a = 0; a < 6; ++a)
    for (fim::Item b = a + 1; b < 6; ++b)
      ps.emplace_back(vert.tidsets[a], vert.tidsets[b]);
  const auto s = make_setup(ps);
  const auto out = run_join(s, 128);
  for (std::size_t i = 0; i < ps.size(); ++i)
    ASSERT_EQ(out[i],
              fim::tidset_intersect_count(ps[i].first, ps[i].second))
        << i;
}

TEST(TidsetJoinKernel, EmptyListsYieldZero) {
  const auto s = make_setup({{{}, {1, 2, 3}}, {{1, 2}, {}}, {{}, {}}});
  const auto out = run_join(s, 32);
  EXPECT_EQ(out[0], 0u);
  EXPECT_EQ(out[1], 0u);
  EXPECT_EQ(out[2], 0u);
}

// Shapes the kernel would miscount are rejected before any block runs:
// threads and partials are indexed by x alone, and the tree reduction
// halves blockDim.x every phase.
TEST(TidsetJoinKernel, RejectsABlockThatIsNot1D) {
  const auto s = make_setup({{{0, 1, 2}, {0, 1, 2}}});
  EXPECT_THROW(run_join(s, gpusim::Dim3{32, 2}), gpusim::LaunchError);
}

TEST(TidsetJoinKernel, RejectsANonPowerOfTwoBlock) {
  // A 96-thread block would reduce only 64 of its 96 partials of this
  // 250-element intersection.
  std::vector<fim::Tid> a(250);
  std::iota(a.begin(), a.end(), fim::Tid{0});
  const auto s = make_setup({{a, a}});
  EXPECT_THROW(run_join(s, 96), gpusim::LaunchError);
}

TEST(TidsetJoinKernel, BinarySearchProbesAreUncoalescedAndDivergent) {
  // The Fig. 3 contrast: the tidset join's probe stream must look bad to
  // the memory system compared to the bitset kernel's streaming loads.
  const auto db = testutil::random_db(4000, 4, 0.5, 21);
  const auto vert = fim::VerticalDb::from_horizontal(db);
  std::vector<std::pair<std::vector<fim::Tid>, std::vector<fim::Tid>>> ps;
  for (fim::Item a = 0; a < 4; ++a)
    for (fim::Item b = a + 1; b < 4; ++b)
      ps.emplace_back(vert.tidsets[a], vert.tidsets[b]);
  gpusim::KernelStats stats;
  run_join(make_setup(ps), 128, &stats);
  // Far from perfectly coalesced (early binary-search probes broadcast,
  // late ones scatter)...
  EXPECT_LT(stats.gmem_load_coalescing.efficiency(), 0.8);
  // ...and the data-dependent searches diverge within warps.
  EXPECT_GT(stats.counters.divergent_warp_phases, 0u);
  EXPECT_LT(stats.counters.simt_efficiency(), 1.0);
  // Badly coalesced, but still barrier-correct.
  EXPECT_EQ(stats.shared_race_hazards, 0u);
}

}  // namespace
