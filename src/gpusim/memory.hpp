#pragma once
// Simulated device global memory.
//
// GlobalMemory owns one contiguous byte arena standing in for the card's
// DRAM. Allocations come from a first-fit free list (so per-level candidate
// buffers can be released during mining, as cudaMalloc/cudaFree would be
// used). DevicePtr<T> is a typed byte offset into the arena — deliberately
// NOT a host pointer, so host code cannot dereference device data without
// going through an explicit copy, mirroring the CUDA discipline.
//
// The arena is an anonymous zero-filled mapping whose pages the OS commits
// on first touch, so building a Device costs the same whatever the arena
// size — like cudaMalloc, which neither clears DRAM nor scales with it.
// Never-written bytes still read as zero.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <map>
#include <span>

#include "gpusim/error.hpp"

namespace gpusim {

/// Typed handle to device memory: a byte address within the GlobalMemory
/// arena. Address 0 is reserved as the null handle (the arena's first
/// allocation starts past it).
template <typename T>
struct DevicePtr {
  std::uint64_t addr = 0;

  [[nodiscard]] constexpr bool is_null() const { return addr == 0; }
  [[nodiscard]] constexpr DevicePtr<T> operator+(std::uint64_t n) const {
    return DevicePtr<T>{addr + n * sizeof(T)};
  }
  /// Byte address of element `i`.
  [[nodiscard]] constexpr std::uint64_t byte_of(std::uint64_t i) const {
    return addr + i * sizeof(T);
  }
  /// Reinterpret as a different element type (address is preserved).
  template <typename U>
  [[nodiscard]] constexpr DevicePtr<U> cast() const {
    return DevicePtr<U>{addr};
  }
  friend constexpr bool operator==(const DevicePtr&, const DevicePtr&) = default;
};

class GlobalMemory {
 public:
  /// Creates an arena of `capacity` bytes. `strict` enables per-access
  /// allocated-block validation (used by the tests; benches leave it off and
  /// only get arena-bounds checking).
  explicit GlobalMemory(std::size_t capacity, bool strict = false);

  GlobalMemory(const GlobalMemory&) = delete;
  GlobalMemory& operator=(const GlobalMemory&) = delete;

  /// Allocates `count` elements of T aligned to `alignment` bytes.
  /// Throws DeviceOomError when the arena is exhausted; the failure is
  /// strongly exception-safe (no bookkeeping changes, live allocations
  /// remain intact and usable).
  template <typename T>
  DevicePtr<T> alloc(std::size_t count, std::size_t alignment = alignof(T)) {
    return DevicePtr<T>{alloc_bytes(count * sizeof(T), alignment)};
  }

  /// Releases an allocation previously returned by alloc(). Throws on
  /// double-free or a pointer that was never allocated.
  template <typename T>
  void free(DevicePtr<T> p) {
    free_bytes(p.addr);
  }

  /// Host-side raw access for transfers (Device::memcpy_* uses these).
  void write_bytes(std::uint64_t addr, const void* src, std::size_t n);
  void read_bytes(std::uint64_t addr, void* dst, std::size_t n) const;

  /// Functional load/store used by the executor. Arena-bounds checked;
  /// additionally block-checked in strict mode.
  template <typename T>
  [[nodiscard]] T load(std::uint64_t addr) const {
    check(addr, sizeof(T));
    T v;
    std::memcpy(&v, arena_.data() + addr, sizeof(T));
    return v;
  }
  template <typename T>
  void store(std::uint64_t addr, T v) {
    check(addr, sizeof(T));
    std::memcpy(arena_.data() + addr, &v, sizeof(T));
  }

  /// Atomic 32-bit fetch-add, the functional core of the simulated
  /// atomicAdd. Real atomicity matters now that independent blocks execute
  /// on concurrent host threads: plain load+store would lose increments.
  std::uint32_t atomic_fetch_add_u32(std::uint64_t addr, std::uint32_t v) {
    check(addr, 4);
    if (addr % 4 != 0)
      throw SimError("GlobalMemory: misaligned 32-bit atomic");
    auto* p = reinterpret_cast<std::uint32_t*>(arena_.data() + addr);
    return std::atomic_ref<std::uint32_t>(*p).fetch_add(
        v, std::memory_order_relaxed);
  }

  /// Bounds-checked read-only view of `count` elements starting at `addr`
  /// — native blocks (BlockCtx::view) read device data through this
  /// instead of per-element load() calls. One check covers the whole range
  /// (in strict mode the range must lie inside a single live allocation,
  /// like every individual access would have to).
  template <typename T>
  [[nodiscard]] std::span<const T> view(std::uint64_t addr,
                                        std::size_t count) const {
    if (count != 0) check(addr, count * sizeof(T));
    return {reinterpret_cast<const T*>(arena_.data() + addr), count};
  }

  [[nodiscard]] std::size_t capacity() const { return arena_.size(); }
  [[nodiscard]] std::size_t bytes_in_use() const { return bytes_in_use_; }
  [[nodiscard]] std::size_t peak_bytes_in_use() const { return peak_bytes_in_use_; }
  [[nodiscard]] std::size_t allocation_count() const { return blocks_.size(); }
  [[nodiscard]] bool strict() const { return strict_; }

  /// Checks free-list invariants (blocks sorted, non-overlapping, inside
  /// the arena, sizes summing to bytes_in_use). Throws SimError on any
  /// inconsistency; used by the OOM exception-safety tests.
  void validate() const;

 private:
  std::uint64_t alloc_bytes(std::size_t n, std::size_t alignment);
  void free_bytes(std::uint64_t addr);
  void check(std::uint64_t addr, std::size_t n) const;

  /// RAII owner of a zero-filled anonymous mapping whose pages are
  /// committed on first touch. Throws std::bad_alloc when the mapping
  /// cannot be made.
  class ZeroedArena {
   public:
    explicit ZeroedArena(std::size_t bytes);
    ~ZeroedArena();
    ZeroedArena(const ZeroedArena&) = delete;
    ZeroedArena& operator=(const ZeroedArena&) = delete;

    [[nodiscard]] std::byte* data() const { return data_; }
    [[nodiscard]] std::size_t size() const { return size_; }

   private:
    std::byte* data_ = nullptr;
    std::size_t size_ = 0;
  };

  ZeroedArena arena_;
  // Live allocations: start address -> size.
  std::map<std::uint64_t, std::size_t> blocks_;
  // Free regions: start address -> size, address-ordered and coalesced on
  // free, so blocks_ and gaps_ together partition [1, capacity) exactly.
  // alloc scans gaps (first-fit, placement-identical to scanning between
  // live blocks) instead of the allocation map — candidate-heavy levels
  // keep thousands of live blocks but only a handful of gaps, so the scan
  // stops paying O(live blocks) per call. validate() checks the partition.
  std::map<std::uint64_t, std::size_t> gaps_;
  std::size_t bytes_in_use_ = 0;
  std::size_t peak_bytes_in_use_ = 0;
  bool strict_ = false;
};

}  // namespace gpusim
