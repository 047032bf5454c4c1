// Differential test of the sampled-block analyzers: the CC 1.3 coalescing
// model, the shared-memory bank model and the intra-phase race check are
// compared with straightforward reference implementations over seeded
// random inputs. The three-tier parity tests cannot catch a divergence
// here, because every execution tier replays its sampled blocks through
// the same analyzers.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <random>
#include <unordered_map>
#include <vector>

#include "gpusim/coalescing.hpp"
#include "gpusim/kernel.hpp"

namespace {

using gpusim::CoalesceResult;
using gpusim::Transaction;
using gpusim::WarpRequest;
using gpusim::detail::BlockRecorder;
using gpusim::detail::LaneTrace;

// ---------------------------------------------------------------------------
// Reference oracle: lane lists, per-bank word lists and a hash map keyed by
// shared byte, written for clarity rather than speed.

namespace oracle {

std::uint32_t base_segment_bytes(std::uint32_t access_bytes) {
  if (access_bytes == 1) return 32;
  if (access_bytes == 2) return 64;
  return 128;
}

void service_half_warp(const WarpRequest& req, int lo, int hi,
                       CoalesceResult& out, std::vector<Transaction>& txs) {
  std::vector<int> pending;
  for (int lane = lo; lane < hi; ++lane)
    if (req.active_mask & (1u << lane)) pending.push_back(lane);
  while (!pending.empty()) {
    const std::uint64_t a0 = req.addr[static_cast<std::size_t>(pending.front())];
    std::uint32_t seg = base_segment_bytes(req.access_bytes);
    std::uint64_t seg_base = a0 / seg * seg;

    std::vector<int> served;
    std::uint64_t min_a = ~std::uint64_t{0}, max_end = 0;
    for (int lane : pending) {
      const std::uint64_t a = req.addr[static_cast<std::size_t>(lane)];
      if (a >= seg_base && a + req.access_bytes <= seg_base + seg) {
        served.push_back(lane);
        min_a = std::min(min_a, a);
        max_end = std::max(max_end, a + req.access_bytes);
      }
    }
    while (seg > 32) {
      const std::uint32_t half = seg / 2;
      const std::uint64_t hi_half = seg_base + half;
      if (max_end <= hi_half) {
        seg = half;
      } else if (min_a >= hi_half) {
        seg = half;
        seg_base = hi_half;
      } else {
        break;
      }
    }
    out.transactions += 1;
    out.bytes_transferred += seg;
    txs.push_back({seg_base, seg});
    std::erase_if(pending, [&](int lane) {
      return std::find(served.begin(), served.end(), lane) != served.end();
    });
  }
}

CoalesceResult coalesce_cc13(const WarpRequest& req,
                             std::vector<Transaction>& txs) {
  CoalesceResult out;
  out.bytes_requested =
      static_cast<std::uint64_t>(std::popcount(req.active_mask)) *
      req.access_bytes;
  service_half_warp(req, 0, 16, out, txs);
  service_half_warp(req, 16, 32, out, txs);
  return out;
}

std::uint32_t shared_bank_serialization(const WarpRequest& req, int banks) {
  std::uint32_t total = 0;
  for (int half = 0; half < 2; ++half) {
    const int lo = half * 16, hi = lo + 16;
    std::vector<std::vector<std::uint64_t>> words(
        static_cast<std::size_t>(banks));
    bool any = false;
    for (int lane = lo; lane < hi; ++lane) {
      if (!(req.active_mask & (1u << lane))) continue;
      any = true;
      const std::uint64_t word = req.addr[static_cast<std::size_t>(lane)] / 4;
      auto& w = words[word % static_cast<std::uint64_t>(banks)];
      if (std::find(w.begin(), w.end(), word) == w.end()) w.push_back(word);
    }
    if (!any) continue;
    std::size_t degree = 1;
    for (const auto& w : words) degree = std::max(degree, w.size());
    total += static_cast<std::uint32_t>(degree);
  }
  return total;
}

std::uint64_t count_shared_races(
    const std::vector<std::array<LaneTrace, 32>>& traces) {
  std::unordered_map<std::uint64_t, std::uint32_t> writer;
  std::uint64_t races = 0;
  for (std::uint32_t w = 0; w < traces.size(); ++w) {
    for (std::uint32_t l = 0; l < 32; ++l) {
      const auto& t = traces[w][l];
      const std::uint32_t tid = w * 32 + l;
      for (std::size_t i = 0; i < t.shared_w_addr.size(); ++i) {
        for (std::uint32_t b = 0; b < t.shared_w_size[i]; ++b) {
          auto [it, inserted] = writer.emplace(t.shared_w_addr[i] + b, tid);
          if (!inserted && it->second != tid) ++races;
        }
      }
    }
  }
  if (writer.empty()) return races;
  for (std::uint32_t w = 0; w < traces.size(); ++w) {
    for (std::uint32_t l = 0; l < 32; ++l) {
      const auto& t = traces[w][l];
      const std::uint32_t tid = w * 32 + l;
      for (std::size_t i = 0; i < t.shared_r_addr.size(); ++i) {
        for (std::uint32_t b = 0; b < t.shared_r_size[i]; ++b) {
          auto it = writer.find(t.shared_r_addr[i] + b);
          if (it != writer.end() && it->second != tid) ++races;
        }
      }
    }
  }
  return races;
}

}  // namespace oracle

// ---------------------------------------------------------------------------
// Random inputs.

constexpr std::array<std::uint32_t, 5> kWidths{1, 2, 4, 8, 16};

std::uint32_t random_mask(std::mt19937_64& rng) {
  switch (rng() % 6) {
    case 0:
    case 1: return 0xFFFFFFFFu;                               // full warp
    case 2: return static_cast<std::uint32_t>(rng());         // dense random
    case 3: return static_cast<std::uint32_t>(rng() & rng() & rng());  // sparse
    case 4: return 1u << (rng() % 32);                        // one lane
    default: return rng() % 2 ? 0x0000FFFFu : 0xFFFF0000u;    // one half
  }
}

/// A request whose lanes access naturally aligned `width`-byte words in one
/// of four shapes: unit stride, a small stride, a cluster inside a few
/// segments, or scattered over 16 MiB (with occasional repeats).
WarpRequest random_request(std::mt19937_64& rng) {
  WarpRequest req;
  req.access_bytes = kWidths[rng() % kWidths.size()];
  req.active_mask = random_mask(rng);
  const std::uint64_t w = req.access_bytes;
  const std::uint64_t base = (rng() % (1u << 20)) / w * w;
  const std::uint64_t stride = 1 + rng() % 8;
  const std::uint64_t window = 32u << (rng() % 4);  // 32..256 B cluster
  const unsigned shape = rng() % 4;
  for (std::uint32_t lane = 0; lane < 32; ++lane) {
    if (!(req.active_mask & (1u << lane))) continue;
    std::uint64_t a = 0;
    switch (shape) {
      case 0: a = base + lane * w; break;
      case 1: a = base + lane * stride * w; break;
      case 2: a = base + (rng() % window) / w * w; break;
      default:
        a = rng() % 8 == 0 ? base : (rng() % (1u << 24)) / w * w;
        break;
    }
    req.addr[lane] = a;
  }
  return req;
}

/// Per-lane shared read/write sequences of 1, 2, 4 or 8 B accesses. Most
/// phases share a small window, so different threads' writes and reads
/// collide often, and need not be aligned: the race check works on bytes.
/// One phase in four keeps every thread inside its own 8-byte slot, which
/// is race-free by construction.
std::vector<std::array<LaneTrace, 32>> random_shared_phase(
    std::mt19937_64& rng) {
  const std::uint32_t num_warps = 1 + static_cast<std::uint32_t>(rng() % 4);
  const bool private_slots = rng() % 4 == 0;
  const std::uint64_t window = 16u << (rng() % 7);  // 16 B .. 1 KiB
  const std::uint32_t max_ops = 1 + static_cast<std::uint32_t>(rng() % 6);
  std::vector<std::array<LaneTrace, 32>> traces(num_warps);
  for (std::uint32_t tid = 0; tid < num_warps * 32; ++tid) {
    LaneTrace& lane = traces[tid / 32][tid % 32];
    if (rng() % 4 == 0) continue;  // idle lane
    auto access = [&](std::vector<std::uint64_t>& addrs,
                      std::vector<std::uint32_t>& sizes) {
      const std::uint32_t size = 1u << (rng() % 4);
      addrs.push_back(private_slots ? tid * 8u + (rng() % 8) / size * size
                                    : rng() % window);
      sizes.push_back(size);
    };
    for (std::uint64_t i = rng() % (max_ops + 1); i > 0; --i)
      access(lane.shared_w_addr, lane.shared_w_size);
    for (std::uint64_t i = rng() % (max_ops + 1); i > 0; --i)
      access(lane.shared_r_addr, lane.shared_r_size);
  }
  return traces;
}

// ---------------------------------------------------------------------------

TEST(AnalyzerDiff, CoalescingMatchesOracle) {
  std::mt19937_64 rng(0xC0A1E5CEull);
  std::vector<Transaction> got_txs, want_txs;
  std::uint64_t mismatches = 0;
  for (int i = 0; i < 200'000; ++i) {
    const WarpRequest req = random_request(rng);
    got_txs.clear();
    want_txs.clear();
    const CoalesceResult got = gpusim::coalesce_cc13(req, &got_txs);
    const CoalesceResult want = oracle::coalesce_cc13(req, want_txs);
    const bool same =
        got.transactions == want.transactions &&
        got.bytes_transferred == want.bytes_transferred &&
        got.bytes_requested == want.bytes_requested &&
        got_txs.size() == want_txs.size() &&
        std::equal(got_txs.begin(), got_txs.end(), want_txs.begin(),
                   [](const Transaction& a, const Transaction& b) {
                     return a.segment_base == b.segment_base &&
                            a.segment_bytes == b.segment_bytes;
                   });
    if (!same && ++mismatches <= 5)
      ADD_FAILURE() << "request " << i << ": width " << req.access_bytes
                    << " mask 0x" << std::hex << req.active_mask << std::dec
                    << " got " << got.transactions << " tx / "
                    << got.bytes_transferred << " B, oracle "
                    << want.transactions << " tx / " << want.bytes_transferred
                    << " B";
  }
  EXPECT_EQ(mismatches, 0u);
}

TEST(AnalyzerDiff, BankSerializationMatchesOracleAt16And32Banks) {
  std::mt19937_64 rng(0xBA4C5ull);
  std::uint64_t mismatches = 0;
  for (int i = 0; i < 200'000; ++i) {
    const WarpRequest req = random_request(rng);
    for (const int banks : {16, 32}) {
      const std::uint32_t got = gpusim::shared_bank_serialization(req, banks);
      const std::uint32_t want = oracle::shared_bank_serialization(req, banks);
      if (got != want && ++mismatches <= 5)
        ADD_FAILURE() << "request " << i << " at " << banks << " banks: got "
                      << got << ", oracle " << want;
    }
  }
  EXPECT_EQ(mismatches, 0u);
}

TEST(AnalyzerDiff, SharedRaceCountMatchesOracleAcrossReusedPhases) {
  std::mt19937_64 rng(0x2ACEull);
  // One recorder for every phase, as a worker reuses its scratch: stale
  // first-writer stamps from earlier phases must never count.
  BlockRecorder recorder;
  std::uint64_t mismatches = 0, racy_phases = 0;
  for (int i = 0; i < 20'000; ++i) {
    const auto traces = random_shared_phase(rng);
    recorder.begin_phase(static_cast<std::uint32_t>(traces.size()));
    for (std::uint32_t w = 0; w < traces.size(); ++w)
      for (std::uint32_t l = 0; l < 32; ++l) recorder.lane(w, l) = traces[w][l];
    const std::uint64_t got = recorder.count_shared_races();
    const std::uint64_t want = oracle::count_shared_races(traces);
    if (want != 0) ++racy_phases;
    if (got != want && ++mismatches <= 5)
      ADD_FAILURE() << "phase " << i << ": got " << got << " races, oracle "
                    << want;
  }
  EXPECT_EQ(mismatches, 0u);
  // The generator must exercise both outcomes to mean anything.
  EXPECT_GT(racy_phases, 10'000u);
  EXPECT_LT(racy_phases, 18'000u);
}

}  // namespace
