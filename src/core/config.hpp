#pragma once
// Tuning knobs of the GPApriori implementation — the §IV.3 optimizations
// (candidate preloading, hand-unrolled inner loop, hand-tuned block size)
// are exposed here so the ablation benches can toggle each one.

#include <cstdint>
#include <memory>
#include <optional>

#include "baselines/apriori_util.hpp"
#include "core/resilience.hpp"
#include "fim/checkpoint.hpp"
#include "gpusim/device.hpp"
#include "gpusim/executor.hpp"
#include "gpusim/fault.hpp"

namespace gpapriori {

class RunControl;

/// Immutable preprocessed layout shared across runs over the same dataset
/// (serve/DatasetCache, DESIGN.md §14). Holds the frequent-1 scan + remap
/// every driver would otherwise rebuild per mine() call. A driver adopts it
/// only for the very TransactionDb object it was built from, at the same
/// threshold, so a stale or mismatched injection can never change results:
/// it is byte-for-byte the output of the miners::preprocess call the
/// driver would have made itself.
struct SharedLayout {
  fim::Support min_count = 0;        ///< threshold the layout was built at
  std::uint64_t dataset_digest = 0;  ///< fim::dataset_digest of `source`
  /// The object it was built from. Weak, so a layout never keeps an
  /// evicted dataset alive, and an expired one matches no reused address.
  std::weak_ptr<const fim::TransactionDb> source;
  miners::Preprocessed pre;  ///< kAscendingFreq layout at min_count

  [[nodiscard]] bool built_from(const fim::TransactionDb& db) const {
    return source.lock().get() == &db;
  }
};

struct Config {
  /// Threads per block for the support kernel (paper: hand-tuned; must be a
  /// power of two so the tree reduction is exact). 0 = auto-tune per run:
  /// the smallest power of two covering the bitset row width, clamped to
  /// [64, 256] — short rows avoid idle threads, long rows keep the SM at
  /// full occupancy (see auto_block_size()).
  std::uint32_t block_size = 256;

  /// The auto-tuning rule applied when block_size == 0.
  [[nodiscard]] static std::uint32_t auto_block_size(
      std::size_t words_per_row) {
    std::uint32_t b = 64;
    while (b < 256 && b < words_per_row) b <<= 1;
    return b;
  }

  /// §IV.3 (1): preload the candidate's row ids into shared memory at
  /// kernel start instead of re-reading them from global memory per chunk.
  bool candidate_preload = true;

  /// §IV.3 (2): manual unroll factor of the AND/popcount loop. Modeled as
  /// loop-control instructions amortized over `unroll` iterations.
  std::uint32_t unroll = 4;

  /// Device to simulate.
  gpusim::DeviceProperties device = gpusim::DeviceProperties::tesla_t10();

  /// Simulated DRAM arena actually allocated host-side.
  std::size_t arena_bytes = 256ull << 20;

  /// Detailed coalescing analysis stride (gpusim::ExecutorOptions).
  std::uint64_t sample_stride = 64;

  /// Host worker threads executing independent simulated blocks
  /// concurrently (gpusim::ExecutorOptions::host_threads). 0 = auto
  /// (GPAPRIORI_HOST_THREADS env var, else hardware concurrency);
  /// 1 = sequential. Results are byte-identical for every value.
  std::uint32_t host_threads = 0;

  /// Native path (gpusim::ExecutorOptions::native): every block of the
  /// two support kernels runs their whole-block vectorized implementation
  /// instead of the per-thread interpreter; on sampled blocks it also
  /// writes the warp rows the coalescing, bank and race models read.
  /// Results and KernelStats are bit-identical either way (DESIGN.md §9);
  /// false (--no-native) interprets every block, which is the reference.
  bool native = true;

  /// Equivalence-class tiled support counting (DESIGN.md §12): one block
  /// per sibling group computes the shared k-1 prefix AND once per word
  /// tile instead of once per candidate. Bit-identical output to the
  /// complete-intersection kernel; disable via --no-tiled to force
  /// per-candidate blocks.
  bool tiled = true;

  /// Hard ceiling of the tiled kernel's sibling-group size: its shared-
  /// memory partial arrays are statically sized by this (one slot per
  /// sibling, tiled_support_kernel.hpp asserts the match).
  static constexpr std::uint32_t kGroupSizeCap = 64;

  /// Sibling-group size cap handed to flatten_level_grouped when the tiled
  /// kernel is active: equivalence classes larger than this are split into
  /// consecutive groups (splits duplicate only the shared prefix work,
  /// never change a support). 0 = kGroupSizeCap. Values above
  /// kGroupSizeCap are rejected (valid_max_group_size()).
  std::uint32_t max_group_size = 0;

  /// Vertical bitset compaction (DESIGN.md §12): 1 = drop, after level 1,
  /// transaction columns covered by fewer than two frequent items (they
  /// cannot support any k>=2 itemset); 0 = off. No other value is valid.
  /// Support-invariant by the argument in fim/vertical.hpp.
  std::uint32_t compact_level = 1;

  /// Bounds-check every device access against live allocations (tests).
  bool strict_memory = false;

  /// Deterministic fault injection routed into the simulated device
  /// (chaos drills, `gpapriori_cli --fault-plan`). Default: no faults.
  gpusim::FaultPlan fault_plan;

  /// Bounded retry-with-backoff every driver's device handle (make_device)
  /// applies to transient device faults.
  RetryPolicy retry;

  /// Device-bitset budget of a partitioned store: the ladder's second rung
  /// and PartitionedGpApriori cut the generation-1 store into transaction
  /// chunks whose slices fit it (partition_chunk_trans; 0 = a quarter of
  /// the device arena).
  std::size_t partition_budget_bytes = 0;

  /// Run lifecycle control (core/run_control.hpp): deadlines, cooperative
  /// cancellation, hang watchdog, level checkpoint/resume. Unowned; must
  /// outlive every mine() call. Null = no deadline, cancellation or
  /// checkpoint for the run.
  RunControl* run_control = nullptr;

  /// Optional shared preprocessed layout (serve/DatasetCache). Unowned and
  /// immutable; must outlive the mine() call. Ignored (a fresh preprocess
  /// runs instead) unless it was built from this run's db object at this
  /// run's min_count.
  const SharedLayout* shared_layout = nullptr;

  [[nodiscard]] bool valid_block_size() const {
    return block_size == 0 ||
           (block_size >= 32 && block_size <= 512 &&
            (block_size & (block_size - 1)) == 0);
  }

  [[nodiscard]] bool valid_max_group_size() const {
    return max_group_size <= kGroupSizeCap;
  }

  /// The block size a driver should launch with for rows of the given
  /// width: the configured value, or the auto-tuned one when 0.
  [[nodiscard]] std::uint32_t resolve_block_size(
      std::size_t words_per_row) const {
    return block_size == 0 ? auto_block_size(words_per_row) : block_size;
  }

  /// The sibling-group cap a driver should pass to flatten_level_grouped:
  /// the configured value, or kGroupSizeCap when 0.
  [[nodiscard]] std::uint32_t resolve_max_group_size() const {
    return max_group_size != 0 ? max_group_size : kGroupSizeCap;
  }

  /// Host worker threads the driver hands to every parallel host phase
  /// (trie sharding, bitset build, result materialization) — the same
  /// resolution run_kernel applies to host_threads, so one knob paces the
  /// whole pipeline.
  [[nodiscard]] std::uint32_t resolve_workers() const {
    gpusim::ExecutorOptions opts;
    opts.host_threads = host_threads;
    return gpusim::resolve_host_threads(opts);
  }
};

/// The preprocessed layout a driver mines from: the shared one when it was
/// built from this very `db` at this threshold, else a fresh build into
/// `local` (which then holds a value exactly when nothing was adopted).
[[nodiscard]] inline const miners::Preprocessed& resolve_preprocess(
    const SharedLayout* shared, const fim::TransactionDb& db,
    fim::Support min_count, std::optional<miners::Preprocessed>& local) {
  if (shared != nullptr && shared->min_count == min_count &&
      shared->built_from(db))
    return shared->pre;
  local.emplace(
      miners::preprocess(db, min_count, miners::ItemOrder::kAscendingFreq));
  return *local;
}

}  // namespace gpapriori
