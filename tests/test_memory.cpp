#include "gpusim/memory.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <vector>

#include "gpusim/device_context.hpp"
#include "gpusim/error.hpp"

namespace {

using gpusim::DeviceOomError;
using gpusim::DevicePtr;
using gpusim::GlobalMemory;
using gpusim::SimError;

TEST(GlobalMemory, AllocationRespectsAlignment) {
  GlobalMemory mem(1 << 20);
  const auto a = mem.alloc<std::uint8_t>(3);
  const auto b = mem.alloc<std::uint32_t>(10, 64);
  EXPECT_NE(a.addr, 0u);
  EXPECT_EQ(b.addr % 64, 0u);
}

TEST(GlobalMemory, AddressZeroIsNeverHandedOut) {
  GlobalMemory mem(1 << 16);
  const auto p = mem.alloc<std::uint8_t>(1, 1);
  EXPECT_GT(p.addr, 0u);
  EXPECT_FALSE(p.is_null());
  EXPECT_TRUE(DevicePtr<std::uint8_t>{}.is_null());
}

TEST(GlobalMemory, WriteReadRoundTrip) {
  GlobalMemory mem(1 << 16);
  const auto p = mem.alloc<std::uint32_t>(4);
  const std::vector<std::uint32_t> v{1, 2, 3, 4};
  mem.write_bytes(p.addr, v.data(), 16);
  std::vector<std::uint32_t> back(4);
  mem.read_bytes(p.addr, back.data(), 16);
  EXPECT_EQ(v, back);
}

TEST(GlobalMemory, LoadStoreTyped) {
  GlobalMemory mem(1 << 16);
  const auto p = mem.alloc<std::uint64_t>(2);
  mem.store<std::uint64_t>(p.byte_of(1), 0xDEADBEEFCAFEBABEull);
  EXPECT_EQ(mem.load<std::uint64_t>(p.byte_of(1)), 0xDEADBEEFCAFEBABEull);
}

TEST(GlobalMemory, OutOfMemoryThrows) {
  GlobalMemory mem(4096);
  EXPECT_THROW(mem.alloc<std::uint8_t>(1 << 20), SimError);
}

TEST(GlobalMemory, FreedSpaceIsReused) {
  GlobalMemory mem(4096);
  const auto a = mem.alloc<std::uint8_t>(3000, 1);
  EXPECT_THROW(mem.alloc<std::uint8_t>(3000, 1), SimError);
  mem.free(a);
  EXPECT_NO_THROW(mem.alloc<std::uint8_t>(3000, 1));
}

TEST(GlobalMemory, FirstFitFillsGapBetweenBlocks) {
  GlobalMemory mem(8192);
  const auto a = mem.alloc<std::uint8_t>(1000, 1);
  const auto b = mem.alloc<std::uint8_t>(1000, 1);
  const auto c = mem.alloc<std::uint8_t>(1000, 1);
  (void)c;
  mem.free(b);
  const auto d = mem.alloc<std::uint8_t>(500, 1);
  EXPECT_GT(d.addr, a.addr);
  EXPECT_LT(d.addr, a.addr + 2001);  // landed in the freed gap
}

TEST(GlobalMemory, DoubleFreeThrows) {
  GlobalMemory mem(4096);
  const auto a = mem.alloc<std::uint32_t>(8);
  mem.free(a);
  EXPECT_THROW(mem.free(a), SimError);
}

TEST(GlobalMemory, FreeUnknownPointerThrows) {
  GlobalMemory mem(4096);
  EXPECT_THROW(mem.free(DevicePtr<std::uint32_t>{128}), SimError);
}

TEST(GlobalMemory, ZeroSizeAllocationThrows) {
  GlobalMemory mem(4096);
  EXPECT_THROW(mem.alloc<std::uint32_t>(0), SimError);
}

TEST(GlobalMemory, NonPowerOfTwoAlignmentThrows) {
  GlobalMemory mem(4096);
  EXPECT_THROW(mem.alloc<std::uint8_t>(8, 3), SimError);
}

TEST(GlobalMemory, ArenaBoundsChecked) {
  GlobalMemory mem(4096);
  EXPECT_THROW((void)mem.load<std::uint32_t>(4096), SimError);
  EXPECT_THROW((void)mem.load<std::uint32_t>(4094), SimError);  // straddles end
  EXPECT_THROW(mem.store<std::uint32_t>(0, 1u), SimError);  // null page
}

TEST(GlobalMemory, StrictModeRejectsUnallocatedAccess) {
  GlobalMemory mem(1 << 16, /*strict=*/true);
  const auto p = mem.alloc<std::uint32_t>(4);
  EXPECT_NO_THROW((void)mem.load<std::uint32_t>(p.byte_of(3)));
  // One past the allocation.
  EXPECT_THROW((void)mem.load<std::uint32_t>(p.byte_of(4)), SimError);
  // Address inside the arena but in no live block.
  EXPECT_THROW((void)mem.load<std::uint32_t>(p.byte_of(4) + 1024), SimError);
}

TEST(GlobalMemory, StrictModeRejectsUseAfterFree) {
  GlobalMemory mem(1 << 16, /*strict=*/true);
  const auto p = mem.alloc<std::uint32_t>(4);
  mem.free(p);
  EXPECT_THROW((void)mem.load<std::uint32_t>(p.byte_of(0)), SimError);
}

TEST(GlobalMemory, UsageAccounting) {
  GlobalMemory mem(1 << 16);
  EXPECT_EQ(mem.bytes_in_use(), 0u);
  const auto a = mem.alloc<std::uint8_t>(100, 1);
  const auto b = mem.alloc<std::uint8_t>(200, 1);
  EXPECT_EQ(mem.bytes_in_use(), 300u);
  EXPECT_EQ(mem.allocation_count(), 2u);
  mem.free(a);
  EXPECT_EQ(mem.bytes_in_use(), 200u);
  EXPECT_EQ(mem.peak_bytes_in_use(), 300u);
  mem.free(b);
  EXPECT_EQ(mem.bytes_in_use(), 0u);
}

TEST(GlobalMemory, OomThrowsTypedNonRetryableError) {
  GlobalMemory mem(4096);
  try {
    (void)mem.alloc<std::uint8_t>(1 << 20);
    FAIL() << "expected DeviceOomError";
  } catch (const DeviceOomError& e) {
    EXPECT_FALSE(e.retryable());
  }
}

// Exhausting the arena must leave the allocator fully consistent: the
// free list intact, every live allocation still usable, and freed space
// immediately reusable (strong exception safety of alloc).
TEST(GlobalMemory, ArenaConsistentAfterAllocUntilOom) {
  GlobalMemory mem(8192);
  std::vector<DevicePtr<std::uint32_t>> live;
  try {
    for (;;) live.push_back(mem.alloc<std::uint32_t>(256, 4));
  } catch (const DeviceOomError&) {
  }
  ASSERT_FALSE(live.empty());
  EXPECT_NO_THROW(mem.validate());
  const std::size_t in_use_at_oom = mem.bytes_in_use();

  // Every live allocation survives the failed alloc and still round-trips.
  for (std::size_t i = 0; i < live.size(); ++i) {
    const auto v = static_cast<std::uint32_t>(0xA000 + i);
    mem.store<std::uint32_t>(live[i].byte_of(0), v);
    mem.store<std::uint32_t>(live[i].byte_of(255), ~v);
  }
  for (std::size_t i = 0; i < live.size(); ++i) {
    const auto v = static_cast<std::uint32_t>(0xA000 + i);
    EXPECT_EQ(mem.load<std::uint32_t>(live[i].byte_of(0)), v);
    EXPECT_EQ(mem.load<std::uint32_t>(live[i].byte_of(255)), ~v);
  }

  // Free one block: its space is reusable and accounting returns to par.
  mem.free(live.back());
  live.pop_back();
  EXPECT_NO_THROW(mem.validate());
  EXPECT_NO_THROW(live.push_back(mem.alloc<std::uint32_t>(256, 4)));
  EXPECT_EQ(mem.bytes_in_use(), in_use_at_oom);
  EXPECT_NO_THROW(mem.validate());
}

TEST(GlobalMemory, RepeatedOomDoesNotLeakBookkeeping) {
  GlobalMemory mem(4096);
  const auto a = mem.alloc<std::uint8_t>(2048, 1);
  const std::size_t count = mem.allocation_count();
  const std::size_t used = mem.bytes_in_use();
  for (int i = 0; i < 16; ++i)
    EXPECT_THROW((void)mem.alloc<std::uint8_t>(4096, 1), DeviceOomError);
  EXPECT_EQ(mem.allocation_count(), count);
  EXPECT_EQ(mem.bytes_in_use(), used);
  EXPECT_NO_THROW(mem.validate());
  mem.free(a);
  EXPECT_NO_THROW(mem.alloc<std::uint8_t>(4000, 1));
}

TEST(GlobalMemory, ZeroCapacityRejected) {
  EXPECT_THROW(GlobalMemory mem(0), SimError);
}

// Resident set size of this process in bytes, or -1 where /proc/self/statm
// is not available.
long long resident_bytes() {
  std::ifstream statm("/proc/self/statm");
  long long size_pages = 0, resident_pages = 0;
  if (!(statm >> size_pages >> resident_pages)) return -1;
  return resident_pages * sysconf(_SC_PAGESIZE);
}

// cudaMalloc neither clears DRAM nor costs more on a larger card, so
// building a simulated device must not commit its arena up front: a
// returning zero-fill would cost every mine and every served request.
TEST(GlobalMemory, DefaultDeviceDoesNotCommitItsArena) {
  const long long before = resident_bytes();
  if (before < 0) GTEST_SKIP() << "/proc/self/statm not available";
  const gpusim::Device dev;
  const long long grown = resident_bytes() - before;
  EXPECT_EQ(dev.memory().capacity(), std::size_t{256} << 20);
  EXPECT_LT(grown, 16ll << 20) << "building a Device committed "
                               << (grown >> 20) << " MiB";
}

TEST(GlobalMemory, FarEndOfUntouchedArenaReadsZero) {
  GlobalMemory mem(std::size_t{256} << 20);
  const std::size_t tail_bytes = 4096;
  (void)mem.alloc<std::uint8_t>(mem.capacity() - 1 - tail_bytes, 1);
  const auto tail = mem.alloc<std::uint8_t>(tail_bytes, 1);
  ASSERT_EQ(tail.addr + tail_bytes, mem.capacity());
  std::vector<std::uint8_t> back(tail_bytes, 0xFF);
  mem.read_bytes(tail.addr, back.data(), back.size());
  EXPECT_TRUE(std::all_of(back.begin(), back.end(),
                          [](std::uint8_t b) { return b == 0; }));
}

TEST(DevicePtrTest, ArithmeticAndCast) {
  const DevicePtr<std::uint32_t> p{256};
  EXPECT_EQ((p + 3).addr, 256u + 12u);
  EXPECT_EQ(p.byte_of(5), 256u + 20u);
  EXPECT_EQ(p.cast<std::uint8_t>().addr, 256u);
}

}  // namespace
