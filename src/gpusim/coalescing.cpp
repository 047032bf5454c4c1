#include "gpusim/coalescing.hpp"

#include <algorithm>
#include <bit>

namespace gpusim {
namespace {

// Base segment size for an access width, per the CUDA 2.x programming
// guide: 1-byte accesses use 32 B segments, 2-byte use 64 B, 4/8/16-byte
// use 128 B.
std::uint32_t base_segment_bytes(std::uint32_t access_bytes) {
  if (access_bytes == 1) return 32;
  if (access_bytes == 2) return 64;
  return 128;
}

// Services the active lanes in `half` (a half-warp's 16-lane mask) and
// appends the resulting transactions. Lane sets are bit masks, so a request
// allocates nothing. Each transaction starts from the lowest pending lane's
// segment; that lane is always served, so an access straddling its segment
// (naturally aligned accesses never do) is charged to the segment it starts
// in rather than retried forever.
void service_half_warp(const WarpRequest& req, std::uint32_t half,
                       CoalesceResult& out,
                       std::vector<Transaction>* collect) {
  const std::uint32_t base_seg = base_segment_bytes(req.access_bytes);
  std::uint32_t pending = req.active_mask & half;
  while (pending != 0) {
    const int first = std::countr_zero(pending);
    std::uint32_t seg = base_seg;
    // Segments are powers of two: mask rather than divide.
    std::uint64_t seg_base =
        req.addr[static_cast<std::size_t>(first)] & ~std::uint64_t{seg - 1};

    // Gather every pending lane whose access falls fully inside the segment.
    std::uint32_t served = 1u << first;
    std::uint64_t min_a = ~std::uint64_t{0}, max_end = 0;
    for (std::uint32_t m = pending; m != 0; m &= m - 1) {
      const int lane = std::countr_zero(m);
      const std::uint64_t a = req.addr[static_cast<std::size_t>(lane)];
      if (lane == first ||
          (a >= seg_base && a + req.access_bytes <= seg_base + seg)) {
        served |= 1u << lane;
        min_a = std::min(min_a, a);
        max_end = std::max(max_end, a + req.access_bytes);
      }
    }

    // Reduce the transaction size while all served accesses fit inside an
    // aligned half of the current segment (128 -> 64 -> 32).
    while (seg > 32) {
      const std::uint32_t half_seg = seg / 2;
      const std::uint64_t hi_half = seg_base + half_seg;
      if (max_end <= hi_half) {
        seg = half_seg;  // all in the lower half
      } else if (min_a >= hi_half) {
        seg = half_seg;
        seg_base = hi_half;  // all in the upper half
      } else {
        break;
      }
    }

    out.transactions += 1;
    out.bytes_transferred += seg;
    if (collect) collect->push_back({seg_base, seg});
    pending &= ~served;
  }
}

}  // namespace

CoalesceResult coalesce_cc13(const WarpRequest& req,
                             std::vector<Transaction>* collect) {
  CoalesceResult out;
  out.bytes_requested =
      static_cast<std::uint64_t>(std::popcount(req.active_mask)) *
      req.access_bytes;
  service_half_warp(req, 0x0000FFFFu, out, collect);
  service_half_warp(req, 0xFFFF0000u, out, collect);
  return out;
}

std::uint32_t shared_bank_serialization(const WarpRequest& req, int banks) {
  const auto num_banks = static_cast<std::uint64_t>(banks);
  std::uint32_t total = 0;
  for (int half = 0; half < 2; ++half) {
    std::uint32_t lanes = (req.active_mask >> (half * 16)) & 0xFFFFu;
    if (lanes == 0) continue;
    // Exact fast path: when every active lane hits a different bank, each
    // bank holds at most one word and the degree is 1. Each lane sets bit
    // (bank % 64); as many bits as lanes proves the banks distinct, and a
    // shared bit (a real conflict, or banks 64 apart) takes the full count.
    std::uint64_t bank_bits = 0;
    for (std::uint32_t m = lanes; m != 0; m &= m - 1) {
      const int lane = half * 16 + std::countr_zero(m);
      const std::uint64_t word = req.addr[static_cast<std::size_t>(lane)] / 4;
      bank_bits |= std::uint64_t{1} << (word % num_banks % 64);
    }
    if (std::popcount(bank_bits) == std::popcount(lanes)) {
      total += 1;
      continue;
    }
    // Distinct 32-bit words of this half-warp (at most one per lane) and
    // their banks. A new word's bank holds one more distinct word than the
    // words already seen there; the worst bank sets the degree.
    std::array<std::uint64_t, 16> words;
    std::array<std::uint64_t, 16> bank_of;
    std::size_t distinct = 0;
    std::uint32_t degree = 1;
    for (; lanes != 0; lanes &= lanes - 1) {
      const int lane = half * 16 + std::countr_zero(lanes);
      const std::uint64_t word = req.addr[static_cast<std::size_t>(lane)] / 4;
      const std::uint64_t bank = word % num_banks;
      std::uint32_t in_bank = 1;
      bool seen = false;
      for (std::size_t j = 0; j < distinct && !seen; ++j) {
        seen = words[j] == word;  // broadcast: no extra cycle
        if (bank_of[j] == bank) ++in_bank;
      }
      if (seen) continue;
      words[distinct] = word;
      bank_of[distinct] = bank;
      ++distinct;
      degree = std::max(degree, in_bank);
    }
    total += degree;
  }
  return total;
}

}  // namespace gpusim
