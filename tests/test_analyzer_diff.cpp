// Differential test of the sampled-block analyzers: the CC 1.3 coalescing
// model, the shared-memory bank model, the warp-major access rows the
// BlockRecorder builds while recording, and the intra-phase race check are
// compared with straightforward reference implementations over seeded
// random inputs. The reference for the rows and the race check is the
// per-lane trace the recorder used to keep (one access list per lane, then
// a zip of every lane's n-th access into warp request n). The
// traced-vs-native parity tests cannot catch a divergence here, because
// sampled blocks always run the interpreter through the same analyzers.

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
using gpusim::MemoryAccessStats;
using gpusim::Transaction;
using gpusim::WarpRequest;
using gpusim::detail::BlockRecorder;

// ---------------------------------------------------------------------------
// A phase as the kernels issue it: every lane's accesses in program order.

struct Access {
  enum Kind { kLoad, kStore, kSharedRead, kSharedWrite } kind;
  std::uint64_t addr;
  std::uint32_t bytes;
};
using LaneProgram = std::vector<Access>;

/// lanes[tid] is thread tid's program; warps are consecutive 32-lane runs.
struct Phase {
  std::vector<LaneProgram> lanes;
  [[nodiscard]] std::uint32_t num_warps() const {
    return static_cast<std::uint32_t>(lanes.size() / 32);
  }
};

/// Records `phase` the way the executor does: lanes in tid order, each
/// lane's accesses in program order, through its recording handle.
void record(BlockRecorder& recorder, const Phase& phase) {
  recorder.begin_phase(phase.num_warps());
  for (std::uint32_t tid = 0; tid < phase.lanes.size(); ++tid) {
    gpusim::detail::LaneRecorder lane = recorder.lane(tid / 32, tid % 32);
    for (const Access& a : phase.lanes[tid]) {
      switch (a.kind) {
        case Access::kLoad: lane.load(a.addr, a.bytes); break;
        case Access::kStore: lane.store(a.addr, a.bytes); break;
        case Access::kSharedRead: lane.shared(a.addr, a.bytes, false); break;
        case Access::kSharedWrite: lane.shared(a.addr, a.bytes, true); break;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Reference oracle: lane lists, per-bank word lists and a hash map keyed by
// shared byte, written for clarity rather than speed.

namespace oracle {

/// Per-lane access trace for one phase of one sampled block, as the
/// recorder kept it before it recorded warp-major rows.
struct LaneTrace {
  std::vector<std::uint64_t> load_addr;
  std::vector<std::uint32_t> load_size;
  std::vector<std::uint64_t> store_addr;
  std::vector<std::uint32_t> store_size;
  std::vector<std::uint64_t> shared_addr;   // loads+stores, bank analysis
  std::vector<std::uint64_t> shared_w_addr;  // stores only, race analysis
  std::vector<std::uint32_t> shared_w_size;
  std::vector<std::uint64_t> shared_r_addr;  // loads only, race analysis
  std::vector<std::uint32_t> shared_r_size;
};
using Traces = std::vector<std::array<LaneTrace, 32>>;

Traces lane_traces(const Phase& phase) {
  Traces traces(phase.num_warps());
  for (std::uint32_t tid = 0; tid < phase.lanes.size(); ++tid) {
    LaneTrace& t = traces[tid / 32][tid % 32];
    for (const Access& a : phase.lanes[tid]) {
      switch (a.kind) {
        case Access::kLoad:
          t.load_addr.push_back(a.addr);
          t.load_size.push_back(a.bytes);
          break;
        case Access::kStore:
          t.store_addr.push_back(a.addr);
          t.store_size.push_back(a.bytes);
          break;
        case Access::kSharedRead:
          t.shared_addr.push_back(a.addr);
          t.shared_r_addr.push_back(a.addr);
          t.shared_r_size.push_back(a.bytes);
          break;
        case Access::kSharedWrite:
          t.shared_addr.push_back(a.addr);
          t.shared_w_addr.push_back(a.addr);
          t.shared_w_size.push_back(a.bytes);
          break;
      }
    }
  }
  return traces;
}

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

std::uint64_t count_shared_races(const Traces& traces) {
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

// The zip: the i-th recorded access of every lane in a warp forms warp
// request i; a request's width is the highest active lane's.
void analyze_global(const std::array<LaneTrace, 32>& warp, bool loads,
                    MemoryAccessStats& out) {
  std::size_t max_len = 0;
  for (const auto& lane : warp) {
    const auto& addrs = loads ? lane.load_addr : lane.store_addr;
    max_len = std::max(max_len, addrs.size());
  }
  for (std::size_t i = 0; i < max_len; ++i) {
    WarpRequest req;
    for (std::uint32_t l = 0; l < 32; ++l) {
      const auto& addrs = loads ? warp[l].load_addr : warp[l].store_addr;
      const auto& sizes = loads ? warp[l].load_size : warp[l].store_size;
      if (i < addrs.size()) {
        req.addr[l] = addrs[i];
        req.access_bytes = sizes[i];
        req.active_mask |= (1u << l);
      }
    }
    if (req.active_mask) out.add(gpusim::coalesce_cc13(req));
  }
}

void analyze_shared(const std::array<LaneTrace, 32>& warp,
                    std::uint64_t& requests, std::uint64_t& serialization) {
  std::size_t max_len = 0;
  for (const auto& lane : warp)
    max_len = std::max(max_len, lane.shared_addr.size());
  for (std::size_t i = 0; i < max_len; ++i) {
    WarpRequest req;
    for (std::uint32_t l = 0; l < 32; ++l) {
      if (i < warp[l].shared_addr.size()) {
        req.addr[l] = warp[l].shared_addr[i];
        req.active_mask |= (1u << l);
      }
    }
    if (req.active_mask) {
      requests += 1;
      serialization += gpusim::shared_bank_serialization(req);
    }
  }
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

/// The three kinds of shared-memory phase the race check must get right.
enum class SharedShape {
  kInterleaved,  ///< reads and writes of 1-8 B interleave in program order
  kWords,        ///< every access an aligned 4-byte word (the word path)
  kOneUnaligned  ///< words, but for one unaligned or narrower access
};

/// Random shared accesses in program order. Most phases share a small
/// window, so different threads' writes and reads collide often. One
/// phase in four keeps every thread inside its own 8-byte slot, which is
/// race-free by construction.
Phase random_shared_phase(std::mt19937_64& rng, SharedShape shape) {
  const std::uint32_t num_warps = 1 + static_cast<std::uint32_t>(rng() % 4);
  const bool private_slots = rng() % 4 == 0;
  const std::uint64_t window = 16u << (rng() % 7);  // 16 B .. 1 KiB
  const std::uint32_t max_ops = 1 + static_cast<std::uint32_t>(rng() % 12);
  Phase phase;
  phase.lanes.resize(num_warps * 32);
  for (std::uint32_t tid = 0; tid < num_warps * 32; ++tid) {
    if (rng() % 4 == 0) continue;  // idle lane
    for (std::uint64_t i = rng() % (max_ops + 1); i > 0; --i) {
      const std::uint32_t size =
          shape == SharedShape::kInterleaved ? 1u << (rng() % 4) : 4u;
      const std::uint64_t addr =
          private_slots ? tid * 8u + (rng() % 8) / size * size
          : shape == SharedShape::kInterleaved ? rng() % window
                                               : (rng() % window) / 4 * 4;
      phase.lanes[tid].push_back(
          {rng() % 2 ? Access::kSharedWrite : Access::kSharedRead, addr,
           size});
    }
  }
  if (shape == SharedShape::kOneUnaligned) {
    // Bend one access off the word grid: a misaligned word, or a narrower
    // access inside one.
    std::vector<Access*> all;
    for (auto& lane : phase.lanes)
      for (Access& a : lane) all.push_back(&a);
    if (all.empty()) {
      phase.lanes[0].push_back({Access::kSharedWrite, 0, 4});
      all.push_back(&phase.lanes[0].back());
    }
    Access& a = *all[rng() % all.size()];
    if (rng() % 2) {
      a.addr += 1 + rng() % 3;
    } else {
      a.bytes = 1u << (rng() % 2);
      a.addr += (rng() % 4) / a.bytes * a.bytes;
    }
  }
  return phase;
}

/// Random per-lane global and shared access sequences for the row-vs-zip
/// test: divergent lengths, widths of 1-16 B that usually agree across the
/// lanes of a request but not always, and the address shapes of
/// random_request.
Phase random_access_phase(std::mt19937_64& rng) {
  const std::uint32_t num_warps = 1 + static_cast<std::uint32_t>(rng() % 3);
  const std::uint32_t len = 1 + static_cast<std::uint32_t>(rng() % 24);
  // One width per program position, as compiled code issues; a lane
  // deviates now and then.
  std::vector<std::uint32_t> width(len);
  std::vector<Access::Kind> kind(len);
  for (std::uint32_t i = 0; i < len; ++i) {
    width[i] = kWidths[rng() % kWidths.size()];
    kind[i] = static_cast<Access::Kind>(rng() % 4);
  }
  const std::uint64_t base = rng() % (1u << 20);
  const std::uint64_t stride = 1 + rng() % 8;
  const unsigned shape = rng() % 4;
  Phase phase;
  phase.lanes.resize(num_warps * 32);
  for (std::uint32_t tid = 0; tid < num_warps * 32; ++tid) {
    const std::uint32_t lane = tid % 32;
    // Divergence: most lanes run the whole sequence, some stop early.
    const std::uint32_t n =
        rng() % 3 == 0 ? static_cast<std::uint32_t>(rng() % (len + 1)) : len;
    for (std::uint32_t i = 0; i < n; ++i) {
      const std::uint64_t w =
          rng() % 8 == 0 ? kWidths[rng() % kWidths.size()] : width[i];
      std::uint64_t a = 0;
      switch (shape) {
        case 0: a = base / w * w + (i * 32 + lane) * w; break;
        case 1: a = base / w * w + (i * 32 + lane) * stride * w; break;
        case 2: a = (base + rng() % 256) / w * w; break;
        default: a = (rng() % (1u << 24)) / w * w; break;
      }
      phase.lanes[tid].push_back({kind[i], a, static_cast<std::uint32_t>(w)});
    }
  }
  return phase;
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
    // At 128 banks, lanes in banks 64 apart share a fast-path bit and
    // must take the full count.
    for (const int banks : {16, 32, 128}) {
      const std::uint32_t got = gpusim::shared_bank_serialization(req, banks);
      const std::uint32_t want = oracle::shared_bank_serialization(req, banks);
      if (got != want && ++mismatches <= 5)
        ADD_FAILURE() << "request " << i << " at " << banks << " banks: got "
                      << got << ", oracle " << want;
    }
  }
  EXPECT_EQ(mismatches, 0u);
}

/// Compares the recorder's race count with the lane-list oracle's over
/// `phases` random phases of `shape`, all recorded into one recorder as a
/// worker reuses its scratch: stale rows and first-writer stamps from
/// earlier phases must never count. Returns the number of mismatching
/// phases; `racy_phases` receives how many phases the oracle found racy.
std::uint64_t race_mismatches(std::uint64_t seed, SharedShape shape,
                              int phases, std::uint64_t& racy_phases) {
  std::mt19937_64 rng(seed);
  BlockRecorder recorder;
  std::uint64_t mismatches = 0;
  racy_phases = 0;
  for (int i = 0; i < phases; ++i) {
    const Phase phase = random_shared_phase(rng, shape);
    record(recorder, phase);
    const std::uint64_t got = recorder.count_shared_races();
    const std::uint64_t want =
        oracle::count_shared_races(oracle::lane_traces(phase));
    if (want != 0) ++racy_phases;
    if (got != want && ++mismatches <= 5)
      ADD_FAILURE() << "phase " << i << ": got " << got << " races, oracle "
                    << want;
  }
  return mismatches;
}

TEST(AnalyzerDiff, SharedRaceCountMatchesOracleAcrossReusedPhases) {
  std::uint64_t racy = 0;
  EXPECT_EQ(race_mismatches(0x2ACEull, SharedShape::kInterleaved, 20'000,
                            racy),
            0u);
  // The generator must exercise both outcomes to mean anything.
  EXPECT_GT(racy, 10'000u);
  EXPECT_LT(racy, 18'000u);
}

TEST(AnalyzerDiff, SharedRaceWordPathMatchesOracle) {
  std::uint64_t racy = 0;
  EXPECT_EQ(race_mismatches(0x3024Dull, SharedShape::kWords, 10'000, racy),
            0u);
  EXPECT_GT(racy, 5'000u);
  EXPECT_LT(racy, 9'500u);
}

TEST(AnalyzerDiff, SharedRaceOneUnalignedAccessLeavesTheWordPath) {
  std::uint64_t racy = 0;
  EXPECT_EQ(race_mismatches(0xB17Eull, SharedShape::kOneUnaligned, 10'000,
                            racy),
            0u);
  EXPECT_GT(racy, 5'000u);
}

TEST(AnalyzerDiff, RowsMatchZippedLaneTraces) {
  std::mt19937_64 rng(0x2095ull);
  BlockRecorder recorder;  // reused, like a worker's scratch
  std::uint64_t mismatches = 0;
  for (int i = 0; i < 20'000; ++i) {
    const Phase phase = random_access_phase(rng);
    record(recorder, phase);
    MemoryAccessStats got_loads, got_stores;
    std::uint64_t got_requests = 0, got_serial = 0;
    recorder.analyze_phase(got_loads, got_stores, got_requests, got_serial);

    MemoryAccessStats want_loads, want_stores;
    std::uint64_t want_requests = 0, want_serial = 0;
    for (const auto& warp : oracle::lane_traces(phase)) {
      oracle::analyze_global(warp, /*loads=*/true, want_loads);
      oracle::analyze_global(warp, /*loads=*/false, want_stores);
      oracle::analyze_shared(warp, want_requests, want_serial);
    }
    const auto same = [](const MemoryAccessStats& a,
                         const MemoryAccessStats& b) {
      return a.requests == b.requests && a.transactions == b.transactions &&
             a.bytes_requested == b.bytes_requested &&
             a.bytes_transferred == b.bytes_transferred;
    };
    if (!(same(got_loads, want_loads) && same(got_stores, want_stores) &&
          got_requests == want_requests && got_serial == want_serial) &&
        ++mismatches <= 5)
      ADD_FAILURE() << "phase " << i << ": loads " << got_loads.requests
                    << " req / " << got_loads.bytes_transferred
                    << " B (zip " << want_loads.requests << " / "
                    << want_loads.bytes_transferred << "), stores "
                    << got_stores.requests << " / "
                    << got_stores.bytes_transferred << " (zip "
                    << want_stores.requests << " / "
                    << want_stores.bytes_transferred << "), shared "
                    << got_requests << " / " << got_serial << " (zip "
                    << want_requests << " / " << want_serial << ")";
  }
  EXPECT_EQ(mismatches, 0u);
}

}  // namespace
