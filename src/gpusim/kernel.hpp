#pragma once
// Kernel authoring interface for the SIMT simulator.
//
// Simulated kernels are PHASE-STRUCTURED: the executor calls
// run_phase(p, ctx) for every thread of a block before moving to phase
// p+1, which gives every phase boundary the semantics of __syncthreads().
// This models barrier-synchronized CUDA kernels deterministically and
// cheaply (no per-thread stacks). A kernel with no internal barrier is
// simply a single phase.
//
// All device state lives in GlobalMemory / SharedMemory, never in the
// kernel object, so run_phase is const and threads communicate exactly the
// way CUDA threads do.

#include <algorithm>
#include <array>
#include <cstdint>
#include <initializer_list>
#include <span>
#include <string_view>
#include <vector>
#include <bit>

#include "gpusim/dim3.hpp"
#include "gpusim/memory.hpp"
#include "gpusim/shared_memory.hpp"
#include "gpusim/stats.hpp"

namespace gpusim {

namespace detail {

// Sampled blocks are recorded warp-major, as the warp requests the
// analyzers consume (DESIGN.md §8). Lanes of a warp are assumed to execute
// the same access sequence (lockstep): a lane's n-th access of a class
// (global load, global store, shared) fills its column of that class's row
// n and sets its bit in the row's active mask. Divergent lanes simply leave
// later rows partly inactive, which yields the extra transactions
// divergence costs.

/// One warp-wide shared-memory request: the bank model reads `req`; the
/// race check also needs each lane's access width and which lanes wrote.
struct SharedRow {
  WarpRequest req;  ///< addresses and active lanes (access_bytes unused)
  std::array<std::uint8_t, 32> bytes{};
  std::uint32_t write_mask = 0;
};

inline void clear_masks(WarpRequest& r) { r.active_mask = 0; }
inline void clear_masks(SharedRow& r) {
  r.req.active_mask = 0;
  r.write_mask = 0;
}

/// The rows of one access class of one warp; rows[0, used) belong to the
/// current phase. Rows live across phases and blocks: a row claimed again
/// clears only its masks, since every analyzer reads active lanes only.
template <typename Row>
struct RowTable {
  std::vector<Row> rows;
  std::size_t used = 0;

  /// Row `n` for some lane's n-th access. n <= used always holds (the
  /// lane's earlier accesses claimed rows 0..n-1); n == used claims one.
  Row& row(std::size_t n) {
    if (n == used) {
      if (used == rows.size()) rows.emplace_back();
      clear_masks(rows[used]);
      ++used;
    }
    return rows[n];
  }

  /// Claims rows [0, n) at once, masks cleared, in place of whatever the
  /// phase claimed so far: a native kernel then fills one row for a whole
  /// group of lanes at a time. n is the most accesses any lane makes.
  std::span<Row> claim(std::size_t n) {
    if (rows.size() < n) rows.resize(n);
    for (std::size_t i = 0; i < n; ++i) clear_masks(rows[i]);
    used = n;
    return {rows.data(), n};
  }
};

/// Active-lane mask of lanes [lo, hi), hi <= 32.
constexpr std::uint32_t lane_mask(std::uint32_t lo, std::uint32_t hi) {
  return hi <= lo ? 0u
                  : (hi - lo == 32 ? ~0u : ((1u << (hi - lo)) - 1u) << lo);
}

/// One warp's three row tables for the current phase.
struct WarpRows {
  RowTable<WarpRequest> loads, stores;
  RowTable<SharedRow> shared;
  /// Every shared access so far is an aligned 4-byte word, so the race
  /// check may stamp words instead of bytes.
  bool all_words = true;

  void clear() {
    loads.used = stores.used = shared.used = 0;
    all_words = true;
  }

  // Row-major fills: lanes [lo, hi) of the warp each make one access of a
  // claimed row, lane l at base + l * step (step 0 = broadcast). Same row
  // rules as LaneRecorder, whatever order the groups are filled in.

  /// Global row: the row's width is that of its highest active lane.
  static void fill_global(WarpRequest& row, std::uint32_t lo,
                          std::uint32_t hi, std::uint64_t base,
                          std::uint64_t step, std::uint32_t bytes = 4) {
    for (std::uint32_t l = lo; l < hi; ++l) row.addr[l] = base + l * step;
    if (hi == 32 || (row.active_mask >> hi) == 0) row.access_bytes = bytes;
    row.active_mask |= lane_mask(lo, hi);
  }

  /// Shared row of 4-byte word accesses; `write` sets the lanes' write bits.
  void fill_shared(SharedRow& row, std::uint32_t lo, std::uint32_t hi,
                   std::uint64_t base, std::uint64_t step, bool write) {
    for (std::uint32_t l = lo; l < hi; ++l) {
      row.req.addr[l] = base + l * step;
      row.bytes[l] = 4;
    }
    const std::uint32_t mask = lane_mask(lo, hi);
    row.req.active_mask |= mask;
    if (write) row.write_mask |= mask;
    all_words = all_words && base % 4 == 0 && step % 4 == 0;
  }
};

/// Recording handle of one lane for one phase: where each of its accesses
/// goes. Default-constructed, it records nothing (untraced threads).
class LaneRecorder {
 public:
  LaneRecorder() = default;
  LaneRecorder(WarpRows& warp, std::uint32_t lane) : warp_(&warp), lane_(lane) {}

  [[nodiscard]] bool recording() const { return warp_ != nullptr; }

  void load(std::uint64_t addr, std::uint32_t bytes) {
    global(warp_->loads.row(loads_++), addr, bytes);
  }
  void store(std::uint64_t addr, std::uint32_t bytes) {
    global(warp_->stores.row(stores_++), addr, bytes);
  }
  void shared(std::uint64_t addr, std::uint32_t bytes, bool write) {
    SharedRow& row = warp_->shared.row(shared_++);
    const std::uint32_t bit = 1u << lane_;
    row.req.addr[lane_] = addr;
    row.req.active_mask |= bit;
    row.bytes[lane_] = static_cast<std::uint8_t>(bytes);
    if (write) row.write_mask |= bit;
    warp_->all_words = warp_->all_words && bytes == 4 && addr % 4 == 0;
  }

 private:
  void global(WarpRequest& row, std::uint64_t addr, std::uint32_t bytes) {
    row.addr[lane_] = addr;
    row.access_bytes = bytes;  // lanes record in ascending order: the
                               // highest active lane's width wins
    row.active_mask |= 1u << lane_;
  }

  WarpRows* warp_ = nullptr;
  std::uint32_t lane_ = 0;
  std::uint32_t loads_ = 0, stores_ = 0, shared_ = 0;  ///< accesses so far
};

/// Records one phase of a sampled block and runs the recorded rows through
/// the coalescing, bank and race models. One per worker, reused across
/// phases and blocks.
class BlockRecorder {
 public:
  void begin_phase(std::uint32_t num_warps) {
    if (warps_.size() < num_warps) warps_.resize(num_warps);
    num_warps_ = num_warps;
    for (std::uint32_t w = 0; w < num_warps; ++w) warps_[w].clear();
  }

  /// Recording handle of lane `lane` of warp `warp`. Lanes are recorded in
  /// ascending order, each through one handle for the whole phase.
  [[nodiscard]] LaneRecorder lane(std::uint32_t warp, std::uint32_t lane) {
    return {warps_[warp], lane};
  }

  /// Warp `w`'s rows of the current phase (native kernels fill them).
  [[nodiscard]] WarpRows& warp(std::uint32_t w) { return warps_[w]; }
  [[nodiscard]] const WarpRows& warp(std::uint32_t w) const {
    return warps_[w];
  }
  [[nodiscard]] std::uint32_t num_warps() const { return num_warps_; }

  /// Runs the recorded phase through the coalescing/bank models.
  void analyze_phase(MemoryAccessStats& loads, MemoryAccessStats& stores,
                     std::uint64_t& shared_requests,
                     std::uint64_t& shared_serialization) const;

  /// Intra-phase shared-memory race check: a phase has the semantics of
  /// code between two __syncthreads(), so a byte WRITTEN by one thread and
  /// READ or WRITTEN by a different thread within the same phase is a data
  /// race on real hardware. Returns the number of hazardous byte accesses
  /// in the recorded phase (0 = race-free): every access to a written byte
  /// by a thread other than its lowest-tid writer. Call at most once per
  /// recorded phase: the check reuses per-byte scratch across phases.
  [[nodiscard]] std::uint64_t count_shared_races();

 private:
  /// Lowest-tid writer of one shared byte or word; valid only while
  /// `epoch` is the current race check's.
  struct WriterStamp {
    std::uint32_t epoch = 0;
    std::uint32_t tid = 0;
  };

  std::vector<WarpRows> warps_;
  std::uint32_t num_warps_ = 0;
  /// Race-check scratch, one stamp per shared byte (or word) written so
  /// far. Bumping epoch_ empties it in O(1), so a check allocates nothing
  /// once the array covers the block's shared memory.
  std::vector<WriterStamp> first_writer_;
  std::uint32_t epoch_ = 0;
};

/// Where BlockCtx::record_phase hands each filled phase. The executor's
/// sink runs the coalescing, bank and race models over the rows, as it
/// does after each interpreted phase; a test's sink may copy them instead.
class PhaseSink {
 public:
  virtual ~PhaseSink() = default;
  virtual void phase_recorded(BlockRecorder& rec) = 0;
};

}  // namespace detail

/// Per-thread execution context: geometry, device memory, and counters.
/// Every architectural operation a kernel performs goes through this class
/// so the simulator can account for it: one call per access, on sampled
/// blocks (recorded for the coalescing, bank and race models) and on
/// interpreted untraced blocks alike. The per-thread interpreter it drives
/// is the reference every native path is held to.
class ThreadCtx {
 public:
  ThreadCtx(Dim3 grid_dim, Dim3 block_dim, Dim3 block_idx, Dim3 thread_idx,
            GlobalMemory& gmem, SharedMemory& smem, KernelCounters& counters,
            detail::BlockRecorder* recorder)
      : grid_dim_(grid_dim),
        block_dim_(block_dim),
        block_idx_(block_idx),
        thread_idx_(thread_idx),
        gmem_(&gmem),
        smem_(&smem),
        counters_(&counters) {
    flat_tid_ = thread_idx.x + block_dim.x * (thread_idx.y + static_cast<std::uint64_t>(block_dim.y) * thread_idx.z);
    if (recorder != nullptr) trace_ = recorder->lane(warp_id(), lane_id());
  }

  // --- geometry (CUDA vocabulary) ---
  [[nodiscard]] Dim3 grid_dim() const { return grid_dim_; }
  [[nodiscard]] Dim3 block_dim() const { return block_dim_; }
  [[nodiscard]] Dim3 block_idx() const { return block_idx_; }
  [[nodiscard]] Dim3 thread_idx() const { return thread_idx_; }
  [[nodiscard]] std::uint32_t flat_tid() const {
    return static_cast<std::uint32_t>(flat_tid_);
  }
  [[nodiscard]] std::uint32_t lane_id() const {
    return static_cast<std::uint32_t>(flat_tid_ % 32);
  }
  [[nodiscard]] std::uint32_t warp_id() const {
    return static_cast<std::uint32_t>(flat_tid_ / 32);
  }
  [[nodiscard]] std::uint64_t flat_block_idx() const {
    return block_idx_.x + grid_dim_.x * (block_idx_.y + static_cast<std::uint64_t>(grid_dim_.y) * block_idx_.z);
  }

  // --- global memory ---
  template <typename T>
  [[nodiscard]] T ld_global(DevicePtr<T> p, std::uint64_t i = 0) {
    const std::uint64_t a = p.byte_of(i);
    counters_->global_loads += 1;
    counters_->global_load_bytes += sizeof(T);
    lane_ops_ += 1;
    if (trace_.recording()) trace_.load(a, sizeof(T));
    return gmem_->load<T>(a);
  }

  template <typename T>
  void st_global(DevicePtr<T> p, std::uint64_t i, T v) {
    const std::uint64_t a = p.byte_of(i);
    counters_->global_stores += 1;
    counters_->global_store_bytes += sizeof(T);
    lane_ops_ += 1;
    if (trace_.recording()) trace_.store(a, sizeof(T));
    gmem_->store<T>(a, v);
  }

  // --- shared memory (byte-addressed, like extern __shared__) ---
  template <typename T>
  [[nodiscard]] T ld_shared(std::size_t byte_offset) {
    counters_->shared_loads += 1;
    lane_ops_ += 1;
    if (trace_.recording()) trace_.shared(byte_offset, sizeof(T), false);
    return smem_->load<T>(byte_offset);
  }

  template <typename T>
  void st_shared(std::size_t byte_offset, T v) {
    counters_->shared_stores += 1;
    lane_ops_ += 1;
    if (trace_.recording()) trace_.shared(byte_offset, sizeof(T), true);
    smem_->store<T>(byte_offset, v);
  }

  /// CUDA atomicAdd on global memory (GT200: one RMW transaction per lane;
  /// lanes of a warp hitting the SAME address serialize). Returns the old
  /// value, like the hardware instruction. Executed with real host
  /// atomicity so concurrently executing blocks never lose increments (the
  /// SUM is deterministic; the returned old value is order-dependent on
  /// hardware and here alike).
  std::uint32_t atomic_add_global(DevicePtr<std::uint32_t> p, std::uint64_t i,
                                  std::uint32_t v) {
    const std::uint64_t a = p.byte_of(i);
    counters_->global_atomics += 1;
    // An atomic is a read-modify-write: charge both directions.
    counters_->global_load_bytes += 4;
    counters_->global_store_bytes += 4;
    lane_ops_ += 2;
    if (trace_.recording()) {
      trace_.load(a, 4);
      trace_.store(a, 4);
    }
    return gmem_->atomic_fetch_add_u32(a, v);
  }

  // --- ALU accounting and intrinsics ---
  /// Charges `n` arithmetic/control instructions to this lane. Kernels call
  /// this for the work the simulator cannot see (index math, compares).
  void alu(std::uint64_t n = 1) { lane_ops_ += n; }

  /// CUDA __popc: population count, one instruction on GT200.
  [[nodiscard]] std::uint32_t popc(std::uint32_t v) {
    lane_ops_ += 1;
    return static_cast<std::uint32_t>(std::popcount(v));
  }

  [[nodiscard]] std::uint64_t lane_ops() const { return lane_ops_; }

 private:
  Dim3 grid_dim_, block_dim_, block_idx_, thread_idx_;
  GlobalMemory* gmem_;
  SharedMemory* smem_;
  KernelCounters* counters_;
  detail::LaneRecorder trace_;  ///< records nothing unless sampled
  std::uint64_t flat_tid_ = 0;
  std::uint64_t lane_ops_ = 0;
};

/// Static kernel metadata the executor and occupancy calculator need.
struct KernelInfo {
  std::uint32_t num_phases = 1;         ///< phase boundaries = __syncthreads
  std::size_t static_shared_bytes = 0;  ///< __shared__ declarations
  int regs_per_thread = 16;             ///< occupancy estimate
};

/// Whole-block execution context for the native path (DESIGN.md §9).
///
/// With the native path on, the executor hands every block to
/// Kernel::run_block_native instead of interpreting tpb × num_phases
/// ThreadCtx calls. A native implementation computes the block's functional
/// effect directly on raw device data (vectorized, word-tiled, whatever the
/// host is good at) and then settles the books with the charge_* API under
/// an EQUALITY contract: every counter and every per-lane op count must
/// equal what the interpreter would have produced, phase by phase. One of
/// charge_phase, charge_split_phase or charge_piecewise_phase must be
/// called exactly once per declared phase (the executor verifies the
/// count), which also yields the interpreter's barrier accounting.
///
/// On a sampled block the context also carries the worker's recorder
/// (recording() is true), and the kernel must fill every phase's warp rows
/// through record_phase: the rows the interpreter would have recorded,
/// under the same row rules (DESIGN.md §8), so the coalescing, bank and
/// race models see every address. The executor verifies that count too.
///
/// Data accessors (view/load/store) deliberately charge NOTHING — native
/// code reads k rows once but the interpreter charged one load per thread
/// per word, so accounting is decoupled from access.
class BlockCtx {
 public:
  BlockCtx(Dim3 grid_dim, Dim3 block_dim, Dim3 block_idx, GlobalMemory& gmem,
           KernelCounters& counters, detail::BlockRecorder* recorder = nullptr,
           detail::PhaseSink* sink = nullptr)
      : grid_dim_(grid_dim),
        block_dim_(block_dim),
        block_idx_(block_idx),
        gmem_(&gmem),
        counters_(&counters),
        recorder_(recorder),
        sink_(sink) {
    tpb_ = block_dim.x * block_dim.y * block_dim.z;
    num_warps_ = (tpb_ + 31) / 32;
  }

  // --- geometry ---
  [[nodiscard]] Dim3 grid_dim() const { return grid_dim_; }
  [[nodiscard]] Dim3 block_dim() const { return block_dim_; }
  [[nodiscard]] Dim3 block_idx() const { return block_idx_; }
  [[nodiscard]] std::uint32_t num_threads() const { return tpb_; }
  [[nodiscard]] std::uint32_t num_warps() const { return num_warps_; }
  [[nodiscard]] std::uint64_t flat_block_idx() const {
    return block_idx_.x + grid_dim_.x * (block_idx_.y + static_cast<std::uint64_t>(grid_dim_.y) * block_idx_.z);
  }

  // --- raw data access (no accounting; bounds/strict-checked by gmem) ---
  template <typename T>
  [[nodiscard]] std::span<const T> view(DevicePtr<T> p, std::uint64_t first,
                                        std::uint64_t count) const {
    return gmem_->view<T>(p.byte_of(first), count);
  }
  template <typename T>
  [[nodiscard]] T load(DevicePtr<T> p, std::uint64_t i) const {
    return gmem_->load<T>(p.byte_of(i));
  }
  template <typename T>
  void store(DevicePtr<T> p, std::uint64_t i, T v) {
    gmem_->store<T>(p.byte_of(i), v);
  }

  // --- bulk counter charges (block totals) ---
  void charge_global_loads(std::uint64_t n, std::uint64_t bytes) {
    counters_->global_loads += n;
    counters_->global_load_bytes += bytes;
  }
  void charge_global_stores(std::uint64_t n, std::uint64_t bytes) {
    counters_->global_stores += n;
    counters_->global_store_bytes += bytes;
  }
  void charge_shared_loads(std::uint64_t n) { counters_->shared_loads += n; }
  void charge_shared_stores(std::uint64_t n) { counters_->shared_stores += n; }

  // --- SIMT issue accounting, one call per declared phase ---

  /// Charges one phase from a per-lane op-count function `ops_of_tid`,
  /// replicating the interpreter's per-warp max/min/sum aggregation
  /// (warp issues max over lanes; divergence when max != min).
  template <typename F>
  void charge_phase(F&& ops_of_tid) {
    for (std::uint32_t w = 0; w < num_warps_; ++w) {
      const std::uint32_t wlo = w * 32, whi = std::min(wlo + 32, tpb_);
      std::uint64_t mx = 0, mn = ~std::uint64_t{0}, sum = 0;
      for (std::uint32_t t = wlo; t < whi; ++t) {
        const std::uint64_t ops = ops_of_tid(t);
        mx = std::max(mx, ops);
        mn = std::min(mn, ops);
        sum += ops;
      }
      counters_->warp_instructions += mx;
      counters_->thread_instructions += sum;
      counters_->warp_phases += 1;
      if (mx != mn) counters_->divergent_warp_phases += 1;
    }
    ++phases_charged_;
  }

  /// O(warps) special case: lanes with tid < boundary issue `lo_ops`,
  /// the rest issue `hi_ops` — the shape of preload / reduction / writeback
  /// phases where only a prefix of the block works.
  void charge_split_phase(std::uint32_t boundary, std::uint64_t lo_ops,
                          std::uint64_t hi_ops) {
    for (std::uint32_t w = 0; w < num_warps_; ++w) {
      const std::uint32_t wlo = w * 32, whi = std::min(wlo + 32, tpb_);
      const std::uint32_t n_lo =
          boundary <= wlo ? 0
                          : std::min(boundary, whi) - wlo;
      const std::uint32_t n_hi = (whi - wlo) - n_lo;
      const std::uint64_t mx = n_lo == 0   ? hi_ops
                               : n_hi == 0 ? lo_ops
                                           : std::max(lo_ops, hi_ops);
      const std::uint64_t mn = n_lo == 0   ? hi_ops
                               : n_hi == 0 ? lo_ops
                                           : std::min(lo_ops, hi_ops);
      counters_->warp_instructions += mx;
      counters_->thread_instructions += n_lo * lo_ops + n_hi * hi_ops;
      counters_->warp_phases += 1;
      if (mx != mn) counters_->divergent_warp_phases += 1;
    }
    ++phases_charged_;
  }

  /// O(warps) form of charge_phase for per-lane op counts that are
  /// constant between a few known cuts: lane `lane_cut` of every warp (0 =
  /// none) and each tid in `tid_cuts` (at most kMaxTidCuts) — e.g. a
  /// per-warp trip count times a two-valued per-lane one. `ops_of_tid` is
  /// called once per constant piece, at its first tid, and the aggregation
  /// equals charge_phase's.
  template <typename F>
  void charge_piecewise_phase(std::uint32_t lane_cut,
                              std::initializer_list<std::uint32_t> tid_cuts,
                              F&& ops_of_tid) {
    for (std::uint32_t w = 0; w < num_warps_; ++w) {
      std::uint64_t mx = 0, mn = ~std::uint64_t{0}, sum = 0;
      for_each_piece(w, lane_cut, tid_cuts,
                     [&](std::uint32_t lo, std::uint32_t hi) {
                       const std::uint64_t ops = ops_of_tid(lo);
                       mx = std::max(mx, ops);
                       mn = std::min(mn, ops);
                       sum += ops * (hi - lo);
                     });
      counters_->warp_instructions += mx;
      counters_->thread_instructions += sum;
      counters_->warp_phases += 1;
      if (mx != mn) counters_->divergent_warp_phases += 1;
    }
    ++phases_charged_;
  }

  /// Calls fn(lo, hi) for each nonempty piece [lo, hi) of warp w's tids, in
  /// ascending order, cut at lane `lane_cut` (0 = none) and at each tid in
  /// `tid_cuts` (at most kMaxTidCuts): the lane groups of a phase whose
  /// per-lane trip counts change only at those cuts.
  template <typename F>
  void for_each_piece(std::uint32_t w, std::uint32_t lane_cut,
                      std::initializer_list<std::uint32_t> tid_cuts,
                      F&& fn) const {
    if (tid_cuts.size() > kMaxTidCuts)
      throw SimError("BlockCtx::for_each_piece: too many cuts");
    const std::uint32_t wlo = w * 32, whi = std::min(wlo + 32, tpb_);
    // Piece starts inside the warp, kept sorted by insertion; bounds[n]
    // closes the last piece.
    std::array<std::uint32_t, kMaxTidCuts + 3> bounds{};
    std::size_t n = 0;
    const auto add_start = [&](std::uint32_t c) {
      std::size_t i = n++;
      for (; i > 0 && bounds[i - 1] > c; --i) bounds[i] = bounds[i - 1];
      bounds[i] = c;
    };
    add_start(wlo);
    if (lane_cut != 0 && wlo + lane_cut < whi) add_start(wlo + lane_cut);
    for (const std::uint32_t c : tid_cuts)
      if (c > wlo && c < whi) add_start(c);
    bounds[n] = whi;
    for (std::size_t i = 0; i < n; ++i)
      if (bounds[i] != bounds[i + 1]) fn(bounds[i], bounds[i + 1]);
  }

  // --- sampled blocks: row recording, one call per declared phase ---

  /// True on a sampled block: every phase must be recorded.
  [[nodiscard]] bool recording() const { return recorder_ != nullptr; }

  /// Records one phase of a sampled block (a no-op on any other): starts
  /// the phase's rows, lets `fill(recorder)` write them, then hands them to
  /// the sink. Call once per declared phase, in phase order.
  template <typename F>
  void record_phase(F&& fill) {
    if (recorder_ == nullptr) return;
    recorder_->begin_phase(num_warps_);
    fill(*recorder_);
    sink_->phase_recorded(*recorder_);
    ++phases_recorded_;
  }

  /// Phases settled so far; the executor demands == KernelInfo::num_phases.
  [[nodiscard]] std::uint32_t phases_charged() const { return phases_charged_; }
  /// Phases recorded so far; on a sampled block the executor demands the
  /// same.
  [[nodiscard]] std::uint32_t phases_recorded() const {
    return phases_recorded_;
  }

 private:
  static constexpr std::size_t kMaxTidCuts = 4;

  Dim3 grid_dim_, block_dim_, block_idx_;
  GlobalMemory* gmem_;
  KernelCounters* counters_;
  detail::BlockRecorder* recorder_;
  detail::PhaseSink* sink_;
  std::uint32_t tpb_ = 0;
  std::uint32_t num_warps_ = 0;
  std::uint32_t phases_charged_ = 0;
  std::uint32_t phases_recorded_ = 0;
};

/// Base class for simulated kernels. Implementations keep no mutable state;
/// everything flows through ThreadCtx and device memory.
class Kernel {
 public:
  virtual ~Kernel() = default;
  [[nodiscard]] virtual std::string_view name() const = 0;
  [[nodiscard]] virtual KernelInfo info(const LaunchConfig& cfg) const = 0;
  virtual void run_phase(std::uint32_t phase, ThreadCtx& t) const = 0;

  /// Native path (DESIGN.md §9): execute one whole block without the
  /// per-thread interpreter. Return false (the default) to decline — the
  /// executor then interprets the block through run_phase, recording it if
  /// it is sampled — or compute the block's full functional effect, settle
  /// every phase through the BlockCtx charge API, on a sampled block
  /// (b.recording()) also fill every phase's rows through record_phase,
  /// and return true. A kernel that cannot record declines before it
  /// charges or records anything. Only the kernels every GPApriori mine
  /// runs override it.
  virtual bool run_block_native(BlockCtx& b) const {
    (void)b;
    return false;
  }
};

}  // namespace gpusim
