#pragma once
// Run-wide metrics aggregation (DESIGN.md §10).
//
// MetricsRegistry collects exact work counters from every layer of the
// stack — kernel launches and block dispatch mix from the executor,
// bytes moved from Device transfers, AND/popcount arithmetic and
// candidate/survivor counts from the mining drivers, retries and faults
// from the resilience layer, and the device-memory high-water mark from
// GlobalMemory — plus a per-level breakdown, and renders them as a
// human-readable summary table or a JSON object (embedded in BENCH json
// as the "metrics" block).
//
// Like the TraceRecorder, the registry is OFF by default and every add()
// is then a single relaxed atomic load; enabling it changes what is
// recorded, never what is computed, so KernelStats / itemset outputs are
// bit-identical either way.

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace obs {

/// Global (run-wide) counters. Extend here and in to_string(); summary()
/// and to_json() pick new counters up automatically.
enum class Counter : std::size_t {
  kKernelLaunches,
  kNativeBlocks,        ///< blocks run by the whole-block native tier
  kInterpretedBlocks,   ///< blocks run by the phase interpreter
  kWarpInstructions,
  kThreadInstructions,
  kGlobalLoadBytes,
  kGlobalStoreBytes,
  kH2DTransfers,
  kH2DBytes,
  kD2HTransfers,
  kD2HBytes,
  kCandidates,          ///< candidate itemsets generated across levels
  kSurvivors,           ///< candidates that met min-support
  kWordsAnded,          ///< 64-bit bitmap words ANDed during counting
  kPopcOps,             ///< popcount ops on intersection words
  kRetries,             ///< resilience-layer retry attempts
  kRetransfers,         ///< checksum-failed downloads that were re-pulled
  kCorruptionDetected,  ///< checksum mismatches observed
  kLadderHops,          ///< degradation-ladder transitions
  kFaultsInjected,      ///< faults fired by FaultInjector
  kDeviceAllocs,
  kDeviceMemPeakBytes,  ///< high-water of GlobalMemory bytes in use (max)
  kCancellations,       ///< cancellation requests observed by run control
  kWatchdogTrips,       ///< hang-watchdog activations
  kCheckpointsWritten,  ///< level checkpoints persisted to disk
  kCheckpointBytes,     ///< cumulative bytes of checkpoint snapshots
  kSampledBlocks,       ///< blocks replaying the full coalescing protocol
  kTiledGroups,         ///< sibling groups launched by the tiled kernel
  kTiledTiles,          ///< (group, word-tile) prefix-AND computations
  kTiledWordsSaved,     ///< global word loads avoided vs complete intersection
  kCompactColumnsDropped,  ///< transaction columns removed by compaction
  kCandgenShards,       ///< HostPool shards used by trie extend() calls
  kHostCandgenUs,       ///< host µs in candidate generation + marking
  kHostFlattenUs,       ///< host µs flattening levels for upload
  kHostBuildUs,         ///< host µs building/compacting vertical bitsets
  kHostEmitUs,          ///< host µs materializing frequent itemsets
  kCount,
};

[[nodiscard]] const char* to_string(Counter c);

/// Per-level (itemset size k) mining breakdown recorded by the drivers.
struct LevelMetrics {
  std::uint64_t candidates = 0;
  std::uint64_t survivors = 0;
  std::uint64_t words_anded = 0;
  std::uint64_t popc_ops = 0;

  void merge(const LevelMetrics& o) {
    candidates += o.candidates;
    survivors += o.survivors;
    words_anded += o.words_anded;
    popc_ops += o.popc_ops;
  }
};

class MetricsRegistry {
 public:
  /// The process-wide registry every hook reports to. First use reads
  /// GPAPRIORI_METRICS: when set to a non-empty value the registry starts
  /// enabled and prints summary() to stderr at process exit.
  static MetricsRegistry& global();

  void enable() { enabled_.store(true, std::memory_order_relaxed); }
  void disable() { enabled_.store(false, std::memory_order_relaxed); }
  [[nodiscard]] bool enabled() const {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// Zeroes every counter and the per-level table (enabled state survives).
  void reset();

  /// Adds `v` to counter `c`. No-op when disabled.
  void add(Counter c, std::uint64_t v) {
    if (!enabled()) return;
    counters_[static_cast<std::size_t>(c)].fetch_add(
        v, std::memory_order_relaxed);
  }

  /// Raises counter `c` to at least `v` (for high-water marks). No-op when
  /// disabled.
  void record_max(Counter c, std::uint64_t v);

  [[nodiscard]] std::uint64_t value(Counter c) const {
    return counters_[static_cast<std::size_t>(c)].load(
        std::memory_order_relaxed);
  }

  /// Folds one level's breakdown into the per-level table and the global
  /// kCandidates/kSurvivors/kWordsAnded/kPopcOps counters. No-op when
  /// disabled. Levels recorded more than once (multi-device, partitioned
  /// slices, repeated runs) merge additively.
  void record_level(std::size_t k, const LevelMetrics& m);

  [[nodiscard]] std::vector<std::pair<std::size_t, LevelMetrics>> levels()
      const;

  /// Human-readable run summary: non-zero global counters plus the
  /// per-level table.
  [[nodiscard]] std::string summary() const;

  /// JSON object (not a full document): {"counters": {...}, "levels": [...]}.
  /// `indent` spaces prefix each line; emitted values are always finite.
  [[nodiscard]] std::string to_json(int indent = 0) const;

 private:
  MetricsRegistry() = default;

  std::atomic<bool> enabled_{false};
  std::array<std::atomic<std::uint64_t>, static_cast<std::size_t>(Counter::kCount)>
      counters_{};
  mutable std::mutex m_;
  std::map<std::size_t, LevelMetrics> levels_;
};

}  // namespace obs
