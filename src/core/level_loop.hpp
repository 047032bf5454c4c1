#pragma once
// The Apriori level loop shared by every level-wise driver (DESIGN.md §16).
//
// Every driver in this library mines the same way: preprocess, build the
// generation-1 vertical bitsets, then per level extend the candidate trie,
// lay the level out, count supports, prune, emit, record, checkpoint. Only
// the counting differs — which device, how the work is batched, whether
// the host shares it — so counting sits behind SupportCounter and the rest
// lives here once:
//
//   * run lifecycle: RunScope poll points, truncation salvage, per-level
//     checkpoints, and resume by rebuilding the trie from the snapshot
//     (every driver can resume);
//   * host-phase accounting (candgen / flatten / build / emit) and the
//     per-level LevelStats;
//   * observability: the level and candidate-gen spans and the per-level
//     metrics, so no driver can forget them;
//   * the generation-1 store: one build, the initial column drop, and the
//     cut into transaction chunks when it must fit a device budget
//     (partition_chunk_trans).
//
// A driver builds its device(s), wraps them in a counter, and calls
// LevelLoop::run. DeviceCounter (the paper's design, static or streamed
// slices) is declared here; the other counters live beside their drivers.

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "baselines/miner.hpp"
#include "core/candidate_trie.hpp"
#include "core/config.hpp"
#include "core/resilience.hpp"
#include "core/run_control.hpp"
#include "fim/bitset_ops.hpp"
#include "fim/checkpoint.hpp"
#include "obs/obs.hpp"

namespace gpapriori {

/// One level's candidates as a counter sees them.
struct LevelCandidates {
  std::size_t k = 0;      ///< candidate length
  std::size_t count = 0;  ///< candidates at this level
  /// Candidate-major row table (count * k row ids): a zero-copy view of the
  /// trie's path arena, valid until the level is pruned.
  std::span<const std::uint32_t> paths;
  /// Sibling-group layout; filled only for counters that are grouped().
  CandidateTrie::GroupedLevel grouped;
  /// The generation-1 store: one slice per transaction chunk, a single
  /// slice when the bitsets are resident.
  std::span<const fim::BitsetStore> slices;
  const CandidateTrie* trie = nullptr;
};

/// How one level's supports get counted. Implementations: DeviceCounter
/// (static and partitioned), pipelined, hybrid, multi-GPU, eq-class, and
/// the host (CPU_TEST).
class SupportCounter {
 public:
  virtual ~SupportCounter() = default;

  /// Whether count() consumes LevelCandidates::grouped (tiled counting).
  [[nodiscard]] virtual bool grouped() const { return false; }
  /// Whether counting runs on the host, so its wall time is host time.
  [[nodiscard]] virtual bool counts_on_host() const { return false; }

  /// Called once with the built store, before any level is counted.
  virtual void attach(std::span<const fim::BitsetStore> slices) {
    (void)slices;
  }
  /// Writes every candidate's support into `supports` (zero-filled, one
  /// slot per candidate) and returns the level's modeled device time (ms).
  virtual double count(const LevelCandidates& lv,
                       std::span<fim::Support> supports) = 0;
  /// Called after the trie holds level k's survivors; `supports` still
  /// indexes the level's candidates.
  virtual void level_done(const CandidateTrie& trie, std::size_t k,
                          std::span<const fim::Support> supports,
                          fim::Support min_count) {
    (void)trie, (void)k, (void)supports, (void)min_count;
  }
  /// Called after a resume rebuilt the trie's `k` frequent levels from the
  /// snapshot.
  virtual void resumed(const CandidateTrie& trie, std::size_t k,
                       std::span<const fim::BitsetStore> slices) {
    (void)trie, (void)k, (void)slices;
  }

  /// Modeled device time spent so far: drives the device-time budget and
  /// becomes out.device_ms.
  [[nodiscard]] virtual double device_ms() const { return 0; }
  /// Adds this level's arithmetic to `lm`. Default: the tiled or complete
  /// intersection over every slice.
  virtual void add_metrics(const LevelCandidates& lv,
                           obs::LevelMetrics& lm) const;
  /// Counter-specific arguments on the level span.
  virtual void annotate(obs::ScopedSpan& span) const { (void)span; }
};

/// Device options every driver builds its simulated device(s) with.
[[nodiscard]] gpusim::DeviceOptions make_device_options(const Config& cfg,
                                                        RunScope& scope);

/// A driver's one device handle (cfg.retry, the run's cancel token),
/// constructed under a `device-init` span.
[[nodiscard]] FaultAwareDevice make_device(const Config& cfg, RunScope& scope);

/// Throws std::invalid_argument naming `driver` unless the config's block
/// size, unroll factor, group-size cap and compaction level are valid.
void validate_config(const Config& cfg, const char* driver);

/// Transactions per slice when a store of `num_trans` transactions and `n`
/// rows is cut into chunks for `device`: the largest chunk whose slice (n
/// rows at the 64-byte-aligned stride) fits Config::partition_budget_bytes,
/// 0 meaning a quarter of the device's memory. Throws DeviceOomError when
/// not even a 512-transaction slice fits.
[[nodiscard]] std::size_t partition_chunk_trans(const Config& cfg,
                                                const gpusim::Device& device,
                                                std::size_t num_trans,
                                                std::size_t n);

/// Calls `launch(first, grid)` over [0, units) in grid-sized batches:
/// CUDA 2.x grids are limited to 65535 blocks per dimension, so larger
/// levels are counted in batches, as the real implementation would.
template <typename Launch>
void launch_batched(std::size_t units, Launch&& launch) {
  constexpr std::size_t kMaxGridX = 65'535;
  for (std::size_t done = 0; done < units;) {
    const std::size_t batch = std::min(kMaxGridX, units - done);
    launch(static_cast<std::uint32_t>(done),
           gpusim::Dim3{static_cast<std::uint32_t>(batch)});
    done += batch;
  }
}

/// Allocates `store`'s arena on `fdev` and uploads it (a resident copy).
[[nodiscard]] gpusim::DevicePtr<std::uint32_t> upload_store(
    FaultAwareDevice& fdev, const fim::BitsetStore& store);

/// Counts `supports.size()` candidates (`paths`: k row ids each,
/// candidate-major) with the complete-intersection kernel on `fdev`,
/// whose resident copy of `store` is `bits`. Returns the modeled ms.
double count_complete(FaultAwareDevice& fdev, const Config& cfg,
                      const fim::BitsetStore& store,
                      gpusim::DevicePtr<std::uint32_t> bits,
                      std::span<const std::uint32_t> paths, std::size_t k,
                      std::span<fim::Support> supports);

/// The paper's counter: the support kernel (tiled or complete
/// intersection) on one simulated device. A single slice is the static
/// design — bitsets resident after one upload; several slices stream each
/// chunk through one resident buffer every level and sum the per-chunk
/// supports on the host. Device buffers are scoped, so a fault mid-level
/// unwinds with a clean arena for the next ladder rung.
class DeviceCounter final : public SupportCounter {
 public:
  DeviceCounter(FaultAwareDevice& fdev, const Config& cfg,
                std::vector<gpusim::KernelStats>* history = nullptr);

  [[nodiscard]] bool grouped() const override { return cfg_.tiled; }
  void attach(std::span<const fim::BitsetStore> slices) override;
  double count(const LevelCandidates& lv,
               std::span<fim::Support> supports) override;
  [[nodiscard]] double device_ms() const override;
  void annotate(obs::ScopedSpan& span) const override;

 private:
  FaultAwareDevice& fdev_;
  const Config& cfg_;
  bool resident_ = false;
  std::size_t num_slices_ = 0;
  std::vector<gpusim::KernelStats>* history_;
  std::optional<ScopedDeviceAlloc> d_bits_;
};

/// One level-wise mining run: construct per mine() call, then run().
class LevelLoop {
 public:
  /// Opens the run: resolves the threshold, starts the RunScope,
  /// preprocesses (or borrows cfg.shared_layout), and loads and verifies a
  /// resume snapshot. `name` labels the level span and poll point.
  LevelLoop(const Config& cfg, const fim::TransactionDb& db,
            const miners::MiningParams& params, const char* name);

  [[nodiscard]] std::size_t num_items() const {
    return pre_->original_item.size();
  }
  [[nodiscard]] std::size_t num_transactions() const {
    return pre_->db.num_transactions();
  }
  [[nodiscard]] RunScope& scope() { return scope_; }

  /// The frequent items straight from preprocessing, as a finished output
  /// (what a run with no frequent item returns).
  [[nodiscard]] miners::MiningOutput level1() const;

  /// Mines every level with `counter` from a store of `chunk_trans`
  /// transactions per slice (0 = one resident slice; see
  /// partition_chunk_trans). A cancellation
  /// salvages the completed levels. The output is canonicalized and its
  /// device_ms is the counter's. May be called again (next ladder rung).
  [[nodiscard]] miners::MiningOutput run(SupportCounter& counter,
                                         std::size_t chunk_trans = 0);

  /// Level 1 as a salvaged run: the run was cancelled before level 2
  /// (e.g. between rungs of the degradation ladder).
  [[nodiscard]] miners::MiningOutput salvage_level1();

 private:
  void checkpoint(const miners::MiningOutput& out, std::size_t level);
  [[nodiscard]] std::vector<fim::BitsetStore> build_slices(
      miners::MiningOutput& out, std::size_t chunk_trans) const;
  [[nodiscard]] std::size_t rebuild(CandidateTrie& trie,
                                    miners::MiningOutput& out);
  void mine_levels(SupportCounter& counter,
                   std::span<const fim::BitsetStore> slices, std::size_t& k,
                   CandidateTrie& trie, miners::MiningOutput& out,
                   std::vector<std::vector<fim::FrequentItemset>>& emitting);

  const char* name_;
  std::uint32_t workers_;
  std::uint32_t group_cap_;
  bool compact_;
  std::size_t max_itemset_size_;
  fim::Support min_count_;
  RunScope scope_;
  std::uint64_t dataset_dig_ = 0;
  std::uint64_t layout_dig_ = 0;
  std::optional<fim::MiningCheckpoint> resume_;
  std::optional<miners::Preprocessed> pre_local_;
  const miners::Preprocessed* pre_ = nullptr;
  double pre_ms_ = 0;
};

}  // namespace gpapriori
