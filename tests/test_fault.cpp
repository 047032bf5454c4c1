// Fault-injection layer: plan parsing, deterministic trigger/probability
// semantics, typed errors, and the Device-level injection sites.

#include "gpusim/fault.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <numeric>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "gpusim/gpusim.hpp"

namespace {

using namespace gpusim;

TEST(FaultPlan, ParseFullSpec) {
  const auto p = FaultPlan::parse(
      "seed=42; h2d#3=fail, alloc#1=oom; launch#2+=timeout; d2h#5=corrupt; "
      "p_corrupt=0.25; p_transfer=0.5");
  EXPECT_EQ(p.seed, 42u);
  ASSERT_EQ(p.triggers.size(), 4u);
  EXPECT_EQ(p.triggers[0].op, FaultOp::kH2D);
  EXPECT_EQ(p.triggers[0].nth, 3u);
  EXPECT_FALSE(p.triggers[0].sticky);
  EXPECT_EQ(p.triggers[0].kind, FaultKind::kFail);
  EXPECT_EQ(p.triggers[1].op, FaultOp::kAlloc);
  EXPECT_EQ(p.triggers[1].kind, FaultKind::kOom);
  EXPECT_EQ(p.triggers[2].op, FaultOp::kLaunch);
  EXPECT_TRUE(p.triggers[2].sticky);
  EXPECT_EQ(p.triggers[2].kind, FaultKind::kTimeout);
  EXPECT_EQ(p.triggers[3].kind, FaultKind::kCorrupt);
  EXPECT_DOUBLE_EQ(p.p_corrupt, 0.25);
  EXPECT_DOUBLE_EQ(p.p_transfer, 0.5);
  EXPECT_DOUBLE_EQ(p.p_timeout, 0.0);
  EXPECT_TRUE(p.enabled());
}

TEST(FaultPlan, EmptySpecIsDisabled) {
  EXPECT_FALSE(FaultPlan::parse("").enabled());
  EXPECT_FALSE(FaultPlan::parse(" ; , ").enabled());
  EXPECT_FALSE(FaultPlan{}.enabled());
}

TEST(FaultPlan, ParseRejectsMalformedSpecs) {
  const char* bad[] = {
      "bogus",                 // not key=value
      "seed=abc",              // non-numeric seed
      "alloc#0=oom",           // 1-based indices only
      "alloc#=oom",            // missing index
      "alloc#1=",              // missing kind
      "alloc#1=banana",        // unknown kind
      "warp#1=oom",            // unknown op
      "alloc#1=fail",          // kind invalid for op: alloc can only oom
      "h2d#1=oom",             // h2d can only fail
      "h2d#1=corrupt",         // corruption is a d2h-only effect
      "launch#1=fail",         // launch kinds are timeout/ecc
      "d2h#1=timeout",         // timeout is a launch-only kind
      "p_transfer=1.5",        // probability out of [0,1]
      "p_corrupt=-0.1",        // negative probability
      "p_banana=0.1",          // unknown probability key
      "alloc#1oom",            // missing '='
  };
  for (const char* s : bad)
    EXPECT_THROW((void)FaultPlan::parse(s), std::invalid_argument) << s;
}

TEST(FaultInjector, ExactTriggerFiresOnceAtExactIndex) {
  FaultInjector inj(FaultPlan::parse("h2d#2=fail"));
  EXPECT_NO_THROW(inj.on_h2d(64));
  try {
    inj.on_h2d(64);
    FAIL() << "expected TransferError";
  } catch (const TransferError& e) {
    EXPECT_TRUE(e.retryable());  // injected transfer faults are transient
  }
  // Third and later h2d operations are clean again.
  EXPECT_NO_THROW(inj.on_h2d(64));
  EXPECT_NO_THROW(inj.on_h2d(64));
  EXPECT_EQ(inj.stats().h2d, 4u);
  EXPECT_EQ(inj.stats().injected_transfer_fail, 1u);
}

TEST(FaultInjector, StickyTriggerFiresForever) {
  FaultInjector inj(FaultPlan::parse("launch#2+=timeout"));
  EXPECT_NO_THROW(inj.on_launch("k"));
  for (int i = 0; i < 4; ++i) EXPECT_THROW(inj.on_launch("k"), LaunchError);
  EXPECT_EQ(inj.stats().launches, 5u);
  EXPECT_EQ(inj.stats().injected_timeout, 4u);
}

TEST(FaultPlan, ParseBoundedWindowTrigger) {
  const auto p = FaultPlan::parse("launch#5-20=ecc");
  ASSERT_EQ(p.triggers.size(), 1u);
  EXPECT_EQ(p.triggers[0].op, FaultOp::kLaunch);
  EXPECT_EQ(p.triggers[0].nth, 5u);
  EXPECT_EQ(p.triggers[0].last, 20u);
  EXPECT_FALSE(p.triggers[0].sticky);
  EXPECT_EQ(p.triggers[0].kind, FaultKind::kEcc);
}

TEST(FaultPlan, ParseRejectsMalformedWindows) {
  const char* bad[] = {
      "launch#5-2=ecc",    // backwards range
      "launch#3-5+=ecc",   // '+' is sticky-only, not allowed on a window
      "launch#0-5=ecc",    // 1-based indices only
      "launch#3-=ecc",     // missing upper bound
      "launch#-5=ecc",     // missing lower bound
  };
  for (const char* s : bad)
    EXPECT_THROW((void)FaultPlan::parse(s), std::invalid_argument) << s;
}

TEST(FaultInjector, WindowTriggerFiresOnlyInsideItsRange) {
  // A bounded fault storm: ops 3..5 fail, everything before and after is
  // clean — the self-healing shape the retry-ladder drills lean on.
  FaultInjector inj(FaultPlan::parse("launch#3-5=ecc"));
  int thrown = 0;
  for (int i = 0; i < 8; ++i) {
    try {
      inj.on_launch("k");
    } catch (const LaunchError&) {
      ++thrown;
      EXPECT_GE(inj.stats().launches, 3u);
      EXPECT_LE(inj.stats().launches, 5u);
    }
  }
  EXPECT_EQ(thrown, 3);
  EXPECT_EQ(inj.stats().launches, 8u);
  EXPECT_EQ(inj.stats().injected_ecc, 3u);
}

TEST(FaultInjector, TriggersAreIndependentPerOpType) {
  // An alloc trigger never perturbs transfers or launches.
  FaultInjector inj(FaultPlan::parse("alloc#1=oom"));
  EXPECT_NO_THROW(inj.on_h2d(8));
  EXPECT_NO_THROW(inj.on_d2h(8));
  EXPECT_NO_THROW(inj.on_launch("k"));
  try {
    inj.on_alloc(1024);
    FAIL() << "expected DeviceOomError";
  } catch (const DeviceOomError& e) {
    EXPECT_FALSE(e.retryable());  // OOM is never transient
  }
}

TEST(FaultInjector, ProbabilisticFaultsAreSeedDeterministic) {
  // Two injectors with the same plan must produce the identical fault
  // sequence; a different seed must produce a different one (with high
  // probability at p=0.5 over 64 draws).
  const auto plan = FaultPlan::parse("seed=7;p_timeout=0.5");
  auto sequence = [](const FaultPlan& p) {
    FaultInjector inj(p);
    std::string s;
    for (int i = 0; i < 64; ++i) {
      try {
        inj.on_launch("k");
        s += '.';
      } catch (const LaunchError&) {
        s += 'X';
      }
    }
    return s;
  };
  const std::string a = sequence(plan);
  EXPECT_EQ(a, sequence(plan));
  EXPECT_NE(a.find('X'), std::string::npos);
  EXPECT_NE(a.find('.'), std::string::npos);
  EXPECT_NE(a, sequence(FaultPlan::parse("seed=8;p_timeout=0.5")));
}

TEST(FaultInjector, CorruptD2hFlipsExactlyOneBit) {
  FaultInjector inj(FaultPlan::parse("d2h#1=corrupt"));
  std::vector<std::uint8_t> buf(256);
  std::iota(buf.begin(), buf.end(), 0);
  const auto orig = buf;
  inj.on_d2h(buf.size());
  inj.corrupt_d2h(buf.data(), buf.size());
  int flipped_bits = 0;
  for (std::size_t i = 0; i < buf.size(); ++i) {
    std::uint8_t diff = buf[i] ^ orig[i];
    while (diff) {
      flipped_bits += diff & 1;
      diff >>= 1;
    }
  }
  EXPECT_EQ(flipped_bits, 1);
  EXPECT_EQ(inj.stats().injected_corruption, 1u);
  // Later transfers are untouched.
  auto buf2 = orig;
  inj.on_d2h(buf2.size());
  inj.corrupt_d2h(buf2.data(), buf2.size());
  EXPECT_EQ(buf2, orig);
}

// --- Device-level integration -------------------------------------------

DeviceOptions small_device(const std::string& plan_spec) {
  DeviceOptions o;
  o.arena_bytes = 1 << 16;
  o.fault_plan = FaultPlan::parse(plan_spec);
  return o;
}

TEST(DeviceFaults, AllocTriggerThrowsOomThroughDevice) {
  Device dev(DeviceProperties::tesla_t10(), small_device("alloc#2=oom"));
  EXPECT_NO_THROW(dev.alloc<std::uint32_t>(16));
  EXPECT_THROW(dev.alloc<std::uint32_t>(16), DeviceOomError);
  EXPECT_NO_THROW(dev.alloc<std::uint32_t>(16));
  EXPECT_EQ(dev.fault_stats().injected_oom, 1u);
  EXPECT_TRUE(dev.fault_injection_enabled());
}

TEST(DeviceFaults, TransferTriggersFireThroughDevice) {
  Device dev(DeviceProperties::tesla_t10(),
             small_device("h2d#2=fail;d2h#1=fail"));
  const auto p = dev.alloc<std::uint32_t>(8);
  std::vector<std::uint32_t> h(8, 9);
  EXPECT_NO_THROW(dev.copy_to_device(p, std::span<const std::uint32_t>(h)));
  EXPECT_THROW(dev.copy_to_device(p, std::span<const std::uint32_t>(h)),
               TransferError);
  EXPECT_THROW(dev.copy_to_host(std::span<std::uint32_t>(h), p),
               TransferError);
  // The data itself was never harmed; the retried copies round-trip.
  EXPECT_NO_THROW(dev.copy_to_device(p, std::span<const std::uint32_t>(h)));
  std::vector<std::uint32_t> back(8);
  EXPECT_NO_THROW(dev.copy_to_host(std::span<std::uint32_t>(back), p));
  EXPECT_EQ(back, h);
}

TEST(DeviceFaults, D2hCorruptionIsDetectableByChecksum) {
  Device dev(DeviceProperties::tesla_t10(), small_device("d2h#1=corrupt"));
  const auto p = dev.alloc<std::uint32_t>(64);
  std::vector<std::uint32_t> h(64);
  std::iota(h.begin(), h.end(), 0u);
  dev.copy_to_device(p, std::span<const std::uint32_t>(h));

  std::vector<std::uint32_t> back(64);
  dev.copy_to_host(std::span<std::uint32_t>(back), p);  // silently corrupted
  const std::uint64_t expect = dev.checksum(p, back.size());
  EXPECT_NE(Device::checksum_host_bytes(back.data(), back.size() * 4), expect);
  EXPECT_NE(back, h);

  // Re-transfer repairs it; checksums now agree.
  dev.copy_to_host(std::span<std::uint32_t>(back), p);
  EXPECT_EQ(Device::checksum_host_bytes(back.data(), back.size() * 4), expect);
  EXPECT_EQ(back, h);
  EXPECT_EQ(dev.fault_stats().injected_corruption, 1u);
}

TEST(DeviceFaults, ChecksumMatchesOnCleanDevice) {
  DeviceOptions o;
  o.arena_bytes = 1 << 16;
  Device dev(DeviceProperties::tesla_t10(), o);
  const auto p = dev.alloc<std::uint32_t>(33);  // odd count: not chunk-aligned
  std::vector<std::uint32_t> h(33, 0xABCD1234u);
  h[7] = 0;
  dev.copy_to_device(p, std::span<const std::uint32_t>(h));
  EXPECT_EQ(dev.checksum(p, h.size()),
            Device::checksum_host_bytes(h.data(), h.size() * 4));
  EXPECT_FALSE(dev.fault_injection_enabled());
}

// 37 words are 148 bytes: four 32-byte blocks, two full 8-byte words and
// a 4-byte tail, so the zero-padded tail of the word hash is covered too.
TEST(DeviceFaults, ChecksumChangesOnEverySingleBitFlip) {
  std::vector<std::uint32_t> h(37);
  std::iota(h.begin(), h.end(), 0x9e3779b9u);
  const std::size_t bytes = h.size() * 4;
  const std::uint64_t clean = Device::checksum_host_bytes(h.data(), bytes);
  for (std::size_t w = 0; w < h.size(); ++w) {
    for (std::uint32_t bit = 0; bit < 32; ++bit) {
      h[w] ^= 1u << bit;
      EXPECT_NE(Device::checksum_host_bytes(h.data(), bytes), clean)
          << "word " << w << " bit " << bit;
      h[w] ^= 1u << bit;
    }
  }
}

TEST(DeviceFaults, ProfileReportMentionsInjectedFaults) {
  Device dev(DeviceProperties::tesla_t10(), small_device("alloc#1=oom"));
  EXPECT_THROW(dev.alloc<std::uint32_t>(4), DeviceOomError);
  EXPECT_NE(dev.profile_report().find("faults injected"), std::string::npos);
}

}  // namespace
