#include "gpusim/memory.hpp"

#include <sys/mman.h>

#include <algorithm>
#include <new>
#include <string>

#include "obs/metrics.hpp"

namespace gpusim {
namespace {

std::uint64_t align_up(std::uint64_t v, std::uint64_t a) {
  return (v + a - 1) / a * a;
}

}  // namespace

GlobalMemory::ZeroedArena::ZeroedArena(std::size_t bytes) {
  if (bytes == 0) return;
  // Private anonymous pages read as zero and are committed by the first
  // write, so an untouched arena costs address space, not memory. Without
  // MAP_NORESERVE the mapping is charged against the commit limit up
  // front, so an arena the system cannot back fails here with bad_alloc.
  void* p = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (p == MAP_FAILED) throw std::bad_alloc();
  data_ = static_cast<std::byte*>(p);
  size_ = bytes;
}

GlobalMemory::ZeroedArena::~ZeroedArena() {
  if (data_ != nullptr) ::munmap(data_, size_);
}

GlobalMemory::GlobalMemory(std::size_t capacity, bool strict)
    : arena_(capacity), strict_(strict) {
  if (capacity == 0) throw SimError("GlobalMemory: zero capacity");
  // Address 0 is the reserved null handle; everything past it starts free.
  if (capacity > 1) gaps_.emplace(1, capacity - 1);
}

std::uint64_t GlobalMemory::alloc_bytes(std::size_t n, std::size_t alignment) {
  if (n == 0) throw SimError("GlobalMemory::alloc: zero-size allocation");
  if (alignment == 0 || (alignment & (alignment - 1)) != 0)
    throw SimError("GlobalMemory::alloc: alignment must be a power of two");

  // First-fit over the free-gap map. Because every gap starts where a live
  // block (or the reserved null byte) ends, aligning each gap's start gives
  // byte-identical placement to the old scan over the allocation map —
  // while touching only free regions, of which a nearly-full arena has few.
  for (auto it = gaps_.begin(); it != gaps_.end(); ++it) {
    const std::uint64_t start = it->first;
    const std::uint64_t end = start + it->second;
    const std::uint64_t a = align_up(start, alignment);
    if (a + n > end) continue;
    const std::uint64_t pad = a - start;
    const std::uint64_t tail = end - (a + n);
    if (tail > 0) gaps_.emplace(a + n, tail);
    blocks_.emplace(a, n);
    if (pad > 0)
      it->second = pad;  // leading alignment padding stays free
    else
      gaps_.erase(it);
    bytes_in_use_ += n;
    peak_bytes_in_use_ = std::max(peak_bytes_in_use_, bytes_in_use_);
    obs::MetricsRegistry::global().record_max(
        obs::Counter::kDeviceMemPeakBytes, peak_bytes_in_use_);
    return a;
  }
  // Thrown before any bookkeeping mutates: a failed alloc leaves the
  // free list exactly as it was, so live allocations stay usable.
  throw DeviceOomError(
      "GlobalMemory::alloc: out of device memory (requested " +
      std::to_string(n) + " B, in use " + std::to_string(bytes_in_use_) +
      " / " + std::to_string(capacity()) + " B)");
}

void GlobalMemory::free_bytes(std::uint64_t addr) {
  auto it = blocks_.find(addr);
  if (it == blocks_.end())
    throw SimError("GlobalMemory::free: unknown or already-freed pointer");
  const std::size_t size = it->second;
  bytes_in_use_ -= size;
  blocks_.erase(it);

  // Return the range to the gap map, coalescing with adjacent gaps so the
  // map stays minimal (one entry per maximal free run).
  std::uint64_t start = addr;
  std::uint64_t end = addr + size;
  auto next = gaps_.upper_bound(addr);
  if (next != gaps_.begin()) {
    auto prev = std::prev(next);
    if (prev->first + prev->second == start) {
      start = prev->first;
      gaps_.erase(prev);
    }
  }
  if (next != gaps_.end() && next->first == end) {
    end += next->second;
    gaps_.erase(next);
  }
  gaps_.emplace(start, end - start);
}

void GlobalMemory::write_bytes(std::uint64_t addr, const void* src, std::size_t n) {
  check(addr, n);
  std::memcpy(arena_.data() + addr, src, n);
}

void GlobalMemory::read_bytes(std::uint64_t addr, void* dst, std::size_t n) const {
  check(addr, n);
  std::memcpy(dst, arena_.data() + addr, n);
}

void GlobalMemory::validate() const {
  std::size_t sum = 0;
  std::uint64_t prev_end = 1;  // address 0 is the reserved null handle
  for (const auto& [start, size] : blocks_) {
    if (size == 0)
      throw SimError("GlobalMemory::validate: zero-size block at " +
                     std::to_string(start));
    if (start < prev_end)
      throw SimError("GlobalMemory::validate: block at " +
                     std::to_string(start) + " overlaps its predecessor");
    if (start + size > capacity())
      throw SimError("GlobalMemory::validate: block at " +
                     std::to_string(start) + " overruns the arena");
    prev_end = start + size;
    sum += size;
  }
  if (sum != bytes_in_use_)
    throw SimError("GlobalMemory::validate: bytes_in_use " +
                   std::to_string(bytes_in_use_) +
                   " disagrees with block sum " + std::to_string(sum));

  // Blocks and gaps must partition [1, capacity) exactly, with gaps
  // coalesced (no zero-size gap, no two adjacent gaps).
  std::uint64_t pos = 1;
  auto bit = blocks_.begin();
  auto git = gaps_.begin();
  bool last_was_gap = false;
  while (pos < capacity()) {
    if (git != gaps_.end() && git->first == pos) {
      if (git->second == 0)
        throw SimError("GlobalMemory::validate: zero-size gap at " +
                       std::to_string(pos));
      if (last_was_gap)
        throw SimError("GlobalMemory::validate: uncoalesced adjacent gaps at " +
                       std::to_string(pos));
      pos += git->second;
      ++git;
      last_was_gap = true;
    } else if (bit != blocks_.end() && bit->first == pos) {
      pos += bit->second;
      ++bit;
      last_was_gap = false;
    } else {
      throw SimError("GlobalMemory::validate: byte " + std::to_string(pos) +
                     " covered by neither a block nor a gap");
    }
  }
  if (pos != capacity() || git != gaps_.end() || bit != blocks_.end())
    throw SimError(
        "GlobalMemory::validate: blocks+gaps do not partition the arena");
}

void GlobalMemory::check(std::uint64_t addr, std::size_t n) const {
  if (addr == 0 || addr + n > capacity())
    throw SimError("GlobalMemory: access out of arena bounds at address " +
                   std::to_string(addr) + " size " + std::to_string(n));
  if (!strict_) return;
  // Strict mode: the access must lie fully inside one live allocation.
  auto it = blocks_.upper_bound(addr);
  if (it == blocks_.begin())
    throw SimError("GlobalMemory(strict): access to unallocated address " +
                   std::to_string(addr));
  --it;
  if (addr + n > it->first + it->second)
    throw SimError("GlobalMemory(strict): access overruns allocation at " +
                   std::to_string(it->first) + " (+" +
                   std::to_string(it->second) + " B)");
}

}  // namespace gpusim
