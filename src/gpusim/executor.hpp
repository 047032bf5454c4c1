#pragma once
// Grid execution for the SIMT simulator.
//
// run_kernel executes a kernel functionally (bit-exact results in
// GlobalMemory) while accounting instructions, memory traffic, SIMT
// divergence, and — on sampled blocks — full CC 1.3 coalescing and shared
// memory bank behaviour.
//
// Host execution model (DESIGN.md §8): blocks are independent by
// construction — own shared memory, barriers only intra-block — so the flat
// block range is sharded into contiguous chunks executed by a persistent
// pool of host worker threads. Each chunk accumulates into private
// counters/coalescing stats that are merged in block order after the grid
// completes, so KernelStats and device memory are byte-identical for every
// host_threads value (including 1). Within a block, execution stays
// sequential and deterministic: phases in order, threads in tid order.
// Cross-block global-memory atomics go through real host atomics; any other
// cross-block communication is as undefined here as it is on hardware.

#include <cstdint>

#include "gpusim/cancel.hpp"
#include "gpusim/device.hpp"
#include "gpusim/kernel.hpp"
#include "gpusim/memory.hpp"
#include "gpusim/stats.hpp"

namespace gpusim {

struct ExecutorOptions {
  /// Detailed coalescing analysis runs on block 0 and every sample_stride-th
  /// block thereafter. 1 = analyze every block (tests); 0 = never.
  std::uint64_t sample_stride = 64;
  /// On sampled blocks, also check each phase for intra-phase shared-memory
  /// data races (a phase = code between __syncthreads, so cross-thread
  /// write/read overlaps within it are races on real hardware).
  bool detect_shared_races = true;
  /// Host worker threads executing independent blocks concurrently.
  /// 0 = auto: the GPAPRIORI_HOST_THREADS environment variable when set to
  /// a positive integer, else std::thread::hardware_concurrency().
  /// 1 = sequential on the calling thread. Mining output and KernelStats
  /// are byte-identical for every value; only wall-clock changes.
  std::uint32_t host_threads = 0;
  /// Native path (DESIGN.md §9): every block is offered to the kernel's
  /// run_block_native, which executes whole-block vectorized host code
  /// instead of the per-thread interpreter and, on a sampled block, fills
  /// the warp rows the interpreter would record. Counter- and row-equal by
  /// contract, so results and KernelStats are bit-identical either way;
  /// only wall-clock changes. false = every block runs the interpreter
  /// (the reference), sampled blocks recording and the rest not.
  bool native = true;
  /// Cooperative cancellation (gpusim/cancel.hpp). When set, workers check
  /// the token at chunk-dispatch granularity — a cancelled launch stops
  /// claiming new chunks, drains the in-flight ones deterministically, and
  /// run_kernel throws CancelledError. Each completed chunk bumps the
  /// token's progress heartbeat for the hang watchdog. Null = never
  /// cancelled, zero overhead.
  CancelToken* cancel = nullptr;
};

/// The worker count run_kernel will actually use for these options
/// (resolves the 0 = env-or-hardware_concurrency default, clamps to a sane
/// maximum). Exposed so drivers and benches can report it.
[[nodiscard]] std::uint32_t resolve_host_threads(const ExecutorOptions& opts);

/// Validates the launch configuration against the device, runs the grid,
/// and returns counters + sampled analysis + occupancy. Timing is filled in
/// separately (see timing.hpp) so tests can check raw counters in isolation.
KernelStats run_kernel(const Kernel& kernel, const LaunchConfig& cfg,
                       GlobalMemory& gmem, const DeviceProperties& props,
                       const ExecutorOptions& opts = {});

}  // namespace gpusim
