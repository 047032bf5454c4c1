#include "core/level_loop.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>
#include <string>

#include "core/compaction.hpp"
#include "core/support_kernel.hpp"
#include "core/tiled_support_kernel.hpp"
#include "fim/fimi_io.hpp"
#include "gpusim/host_pool.hpp"

namespace gpapriori {
namespace {

// Config::kGroupSizeCap is the validated ceiling of --max-group-size; it
// must match the kernel's static shared-memory sizing.
static_assert(TiledSupportKernel::kMaxGroupSize == Config::kGroupSizeCap,
              "Config::kGroupSizeCap must equal the tiled kernel's cap");

/// Folds one level's measured host-phase times into `out`'s breakdown and
/// the run-wide host_* metrics counters (µs granularity).
void record_host_phases(miners::MiningOutput& out,
                        const miners::HostPhases& level) {
  out.host_phases.merge(level);
  auto& metrics = obs::MetricsRegistry::global();
  if (metrics.enabled()) {
    using obs::Counter;
    metrics.add(Counter::kHostCandgenUs,
                static_cast<std::uint64_t>(level.candgen_ms * 1000.0));
    metrics.add(Counter::kHostFlattenUs,
                static_cast<std::uint64_t>(level.flatten_ms * 1000.0));
    metrics.add(Counter::kHostBuildUs,
                static_cast<std::uint64_t>(level.build_ms * 1000.0));
    metrics.add(Counter::kHostEmitUs,
                static_cast<std::uint64_t>(level.emit_ms * 1000.0));
  }
}

/// Survivor count below which emission stays serial (pool dispatch costs
/// more than building a few thousand itemsets). Shape-deterministic.
constexpr std::size_t kMinParallelEmit = 4096;

/// Emits the survivors of trie `level` (post mark_frequent) into `out`
/// (DESIGN.md §13): itemset i is candidate i's path translated through
/// `original_item`, with support `supports_of_survivors[i]`. Large levels
/// shard over contiguous survivor ranges on the HostPool, each shard
/// filling a private buffer appended in shard order, so the collection is
/// byte-identical to the serial emit for any worker count. `batches` is
/// the caller's scratch: a tripped `cancel` stops the build with
/// gpusim::CancelledError before anything reaches `out`, and leaves the
/// partial level there for the caller to release after it salvages.
void emit_frequent_level(
    const CandidateTrie& trie, std::size_t level,
    std::span<const fim::Support> supports_of_survivors,
    std::span<const fim::Item> original_item, fim::ItemsetCollection& out,
    std::uint32_t workers, const gpusim::CancelToken* cancel,
    std::vector<std::vector<fim::FrequentItemset>>& batches) {
  const std::size_t n = trie.level_size(level);
  auto build = [&](std::size_t i) {
    const auto rows = trie.candidate_row_span(level, i);
    std::vector<fim::Item> items;
    items.reserve(rows.size());
    for (fim::Item r : rows) items.push_back(original_item[r]);
    return fim::FrequentItemset{fim::Itemset(std::move(items)),
                                supports_of_survivors[i]};
  };

  const std::uint32_t nshards =
      workers <= 1 || n < kMinParallelEmit
          ? 1u
          : static_cast<std::uint32_t>(std::min<std::size_t>(workers, n));
  // Growing `out` is the one step no cancel can interrupt, so it comes
  // before the build, which reads the token.
  out.reserve_more(n);
  batches.assign(nshards, {});
  gpusim::HostPool::instance().run(nshards, [&](std::uint32_t s) {
    const std::size_t lo = n * s / nshards;
    const std::size_t hi = n * (s + 1) / nshards;
    auto& batch = batches[s];
    batch.reserve(hi - lo);
    for (std::size_t i = lo; i < hi; ++i) {
      if ((i & 0x3ff) == 0 && cancel != nullptr && cancel->cancelled()) return;
      batch.push_back(build(i));
    }
  });
  gpusim::throw_if_cancelled(cancel, "emit");
  for (auto& batch : batches) out.add_batch(std::move(batch));
}

/// Loads and validates a --resume snapshot against this run's inputs: the
/// dataset digest proves the same transactions, min-count/max-size prove
/// the same thresholds. (The layout digest is checked separately, after
/// preprocessing.) Any mismatch is an I/O-class error — wrong file, not a
/// device fault — so it maps to the CLI's I/O exit code.
fim::MiningCheckpoint load_resume(const std::string& path,
                                  std::uint64_t dataset_dig,
                                  fim::Support min_count,
                                  std::size_t max_itemset_size) {
  fim::MiningCheckpoint cp = fim::MiningCheckpoint::read(path);
  if (cp.dataset_digest != dataset_dig)
    throw fim::IoError(
        "resume rejected: checkpoint was taken on a different dataset: " +
        path);
  if (cp.min_count != min_count)
    throw fim::IoError("resume rejected: checkpoint min-count " +
                       std::to_string(cp.min_count) + " != run min-count " +
                       std::to_string(min_count) + ": " + path);
  if (cp.max_itemset_size != max_itemset_size)
    throw fim::IoError(
        "resume rejected: checkpoint max-itemset-size mismatch: " + path);
  return cp;
}

}  // namespace

gpusim::DeviceOptions make_device_options(const Config& cfg,
                                          RunScope& scope) {
  gpusim::DeviceOptions o;
  o.arena_bytes = cfg.arena_bytes;
  o.strict_memory = cfg.strict_memory;
  o.executor.sample_stride = cfg.sample_stride;
  o.executor.host_threads = cfg.host_threads;
  o.executor.native = cfg.native;
  o.executor.cancel = scope.cancel_token();
  // Drivers keep what they need from launch()'s return value.
  o.record_launches = false;
  o.fault_plan = cfg.fault_plan;
  return o;
}

FaultAwareDevice make_device(const Config& cfg, RunScope& scope) {
  obs::ScopedSpan span(obs::SpanKind::kOther, "device-init");
  return FaultAwareDevice(cfg.device, make_device_options(cfg, scope),
                          cfg.retry);
}

void validate_config(const Config& cfg, const char* driver) {
  const std::string who(driver);
  if (!cfg.valid_block_size())
    throw std::invalid_argument(
        who + ": block_size must be a power of two in [32, 512]");
  if (cfg.unroll == 0)
    throw std::invalid_argument(who + ": unroll must be >= 1");
  if (!cfg.valid_max_group_size())
    throw std::invalid_argument(
        who + ": max_group_size must be 0 (auto) or in [1, " +
        std::to_string(Config::kGroupSizeCap) + "]");
  if (cfg.compact_level > 1)
    throw std::invalid_argument(who + ": compact_level must be 0 or 1");
}

std::size_t partition_chunk_trans(const Config& cfg,
                                  const gpusim::Device& device,
                                  std::size_t num_trans, std::size_t n) {
  const std::size_t budget = cfg.partition_budget_bytes != 0
                                 ? cfg.partition_budget_bytes
                                 : device.memory().capacity() / 4;
  auto slice_bytes = [&](std::size_t t) {
    const std::size_t words = (t + 31) / 32;
    const std::size_t stride = (words + 15) / 16 * 16;
    return n * stride * 4;
  };
  std::size_t chunk = num_trans;
  while (chunk > 512 && slice_bytes(chunk) > budget) chunk = (chunk + 1) / 2;
  if (slice_bytes(chunk) > budget)
    throw gpusim::DeviceOomError(
        "partition budget (" + std::to_string(budget) +
        " B) too small for even a 512-transaction chunk");
  return chunk;
}

gpusim::DevicePtr<std::uint32_t> upload_store(FaultAwareDevice& fdev,
                                              const fim::BitsetStore& store) {
  auto bits = fdev.alloc(store.arena().size(), fim::BitsetStore::kAlignBytes);
  fdev.upload(bits, store.arena());
  return bits;
}

double count_complete(FaultAwareDevice& fdev, const Config& cfg,
                      const fim::BitsetStore& store,
                      gpusim::DevicePtr<std::uint32_t> bits,
                      std::span<const std::uint32_t> paths, std::size_t k,
                      std::span<fim::Support> supports) {
  const double before = fdev.device().ledger().total_ns();
  ScopedDeviceAlloc d_cand(fdev, paths.size());
  fdev.upload(d_cand.get(), paths);
  ScopedDeviceAlloc d_sup(fdev, supports.size());
  SupportKernel::Args args;
  args.bitsets = bits;
  args.stride_words = static_cast<std::uint32_t>(store.row_stride_words());
  args.words_per_row = static_cast<std::uint32_t>(store.words_per_row());
  args.candidates = d_cand.get();
  args.k = static_cast<std::uint32_t>(k);
  args.supports = d_sup.get();
  const gpusim::Dim3 block{cfg.resolve_block_size(store.words_per_row())};
  launch_batched(supports.size(), [&](std::uint32_t first, gpusim::Dim3 grid) {
    args.first_candidate = first;
    fdev.launch(SupportKernel(args, cfg.candidate_preload, cfg.unroll),
                {grid, block});
  });
  fdev.download_verified(supports, d_sup.get());
  return (fdev.device().ledger().total_ns() - before) / 1e6;
}

void SupportCounter::add_metrics(const LevelCandidates& lv,
                                 obs::LevelMetrics& lm) const {
  auto& metrics = obs::MetricsRegistry::global();
  const std::uint64_t k = lv.k;
  const std::uint64_t ncand = lv.count;
  const std::uint64_t ngroups = lv.grouped.groups;
  for (const auto& slice : lv.slices) {
    const std::uint64_t W = slice.words_per_row();
    if (grouped()) {
      // Tiled arithmetic: each group ANDs its k-1 prefix rows once, then
      // each candidate ANDs + popcounts its last row against the cached
      // tile — the (k-1)·W·(ncand - ngroups) difference is the work the
      // equivalence-class sharing eliminated.
      lm.words_anded += (ngroups * (k - 1) + ncand) * W;
      metrics.add(obs::Counter::kTiledGroups, ngroups);
      metrics.add(obs::Counter::kTiledTiles,
                  ngroups * ((W + TiledSupportKernel::kTileWords - 1) /
                             TiledSupportKernel::kTileWords));
      metrics.add(obs::Counter::kTiledWordsSaved,
                  (k - 1) * (ncand - ngroups) * W);
    } else {
      // Complete intersection: every candidate ANDs k rows of W words.
      lm.words_anded += ncand * k * W;
    }
    lm.popc_ops += ncand * W;
  }
}

// ---------------------------------------------------------------------------
// DeviceCounter

DeviceCounter::DeviceCounter(FaultAwareDevice& fdev, const Config& cfg,
                             std::vector<gpusim::KernelStats>* history)
    : fdev_(fdev), cfg_(cfg), history_(history) {}

void DeviceCounter::attach(std::span<const fim::BitsetStore> slices) {
  num_slices_ = slices.size();
  resident_ = num_slices_ == 1;
  std::size_t max_slice_words = 0;
  for (const auto& s : slices)
    max_slice_words = std::max(max_slice_words, s.arena().size());
  d_bits_.emplace(fdev_, max_slice_words, fim::BitsetStore::kAlignBytes);
  if (resident_) fdev_.upload(d_bits_->get(), slices[0].arena());
}

double DeviceCounter::count(const LevelCandidates& lv,
                            std::span<fim::Support> supports) {
  gpusim::Device& device = fdev_.device();
  const double device_ns_before = device.ledger().total_ns();
  const CandidateTrie::GroupedLevel& grouped = lv.grouped;

  // Tiled layout ships its three arrays (shared prefixes, per-candidate
  // last items, group offsets) as the one table they are built in: one
  // allocation and one upload — a per-level transfer pays pcie_latency_us
  // regardless of size, and at chess scale that fixed cost would eat the
  // kernel-side win three times over. The complete intersection ships the
  // candidate-major paths. Either way supports land at global candidate
  // indices.
  ScopedDeviceAlloc d_sup(fdev_, lv.count);
  const std::span<const std::uint32_t> table =
      cfg_.tiled ? std::span<const std::uint32_t>(grouped.table) : lv.paths;
  ScopedDeviceAlloc d_tab(fdev_, table.size());
  fdev_.upload(d_tab.get(), table);

  std::vector<std::uint32_t> partial(lv.count);
  for (const auto& slice : lv.slices) {
    if (!resident_) fdev_.upload(d_bits_->get(), slice.arena());
    const gpusim::Dim3 block{cfg_.resolve_block_size(slice.words_per_row())};
    auto launch = [&](const gpusim::Kernel& kernel, gpusim::Dim3 grid) {
      gpusim::KernelStats stats = fdev_.launch(kernel, {grid, block});
      if (history_ != nullptr) history_->push_back(std::move(stats));
    };
    if (cfg_.tiled) {
      TiledSupportKernel::Args args;
      args.bitsets = d_bits_->get();
      args.stride_words = static_cast<std::uint32_t>(slice.row_stride_words());
      args.words_per_row = static_cast<std::uint32_t>(slice.words_per_row());
      args.prefix_rows = d_tab.get();
      args.sibling_rows = args.prefix_rows + grouped.prefix_rows().size();
      args.group_offsets = args.sibling_rows + grouped.sibling_rows().size();
      args.k = static_cast<std::uint32_t>(lv.k);
      args.max_group_size = grouped.max_group_size();
      args.supports = d_sup.get();
      launch_batched(grouped.groups, [&](std::uint32_t first,
                                         gpusim::Dim3 grid) {
        args.first_group = first;
        launch(TiledSupportKernel(args, cfg_.unroll), grid);
      });
    } else {
      SupportKernel::Args args;
      args.bitsets = d_bits_->get();
      args.stride_words = static_cast<std::uint32_t>(slice.row_stride_words());
      args.words_per_row = static_cast<std::uint32_t>(slice.words_per_row());
      args.candidates = d_tab.get();
      args.k = static_cast<std::uint32_t>(lv.k);
      args.supports = d_sup.get();
      launch_batched(lv.count, [&](std::uint32_t first, gpusim::Dim3 grid) {
        args.first_candidate = first;
        launch(SupportKernel(args, cfg_.candidate_preload, cfg_.unroll), grid);
      });
    }
    fdev_.download_verified(std::span<std::uint32_t>(partial), d_sup.get());
    obs::ScopedSpan span(obs::SpanKind::kOther, "partial-fold");
    for (std::size_t i = 0; i < lv.count; ++i) supports[i] += partial[i];
  }
  return (device.ledger().total_ns() - device_ns_before) / 1e6;
}

double DeviceCounter::device_ms() const {
  return fdev_.device_ms();
}

void DeviceCounter::annotate(obs::ScopedSpan& span) const {
  if (!resident_) span.add_arg("partitions", static_cast<double>(num_slices_));
}

// ---------------------------------------------------------------------------
// LevelLoop

LevelLoop::LevelLoop(const Config& cfg, const fim::TransactionDb& db,
                     const miners::MiningParams& params, const char* name)
    : name_(name),
      workers_(cfg.resolve_workers()),
      group_cap_(cfg.resolve_max_group_size()),
      compact_(cfg.compact_level != 0),
      max_itemset_size_(params.max_itemset_size),
      min_count_(params.resolve_min_count(db.num_transactions())),
      scope_(cfg.run_control) {
  // A Config::shared_layout built from this very `db` (serve DatasetCache)
  // replaces the build with a borrow.
  {
    obs::ScopedSpan span(obs::SpanKind::kOther, "preprocess");
    const miners::StopWatch watch;
    pre_ = &resolve_preprocess(cfg.shared_layout, db, min_count_, pre_local_);
    pre_ms_ = watch.elapsed_ms();
  }

  RunControl* rc = scope_.control();
  if (rc != nullptr && (rc->want_resume() || rc->want_checkpoint())) {
    // An adopted layout carries the digest the cache took of this object
    // when it loaded it; only a local preprocess hashes the data here.
    if (pre_local_) {
      obs::ScopedSpan span(obs::SpanKind::kOther, "dataset-digest");
      dataset_dig_ = fim::dataset_digest(db);
    } else {
      dataset_dig_ = cfg.shared_layout->dataset_digest;
    }
    // The layout digest fingerprints the preprocessing (dense item order +
    // per-item supports): equal digests build identical vertical layouts,
    // so a checkpoint taken by one driver resumes bit-exactly in another.
    const std::uint64_t n = num_items();
    layout_dig_ = fim::fnv1a_bytes(&n, sizeof(n), fim::kFnvOffset);
    layout_dig_ = fim::fnv1a_bytes(pre_->original_item.data(),
                                   n * sizeof(fim::Item), layout_dig_);
    layout_dig_ = fim::fnv1a_bytes(pre_->support.data(),
                                   n * sizeof(fim::Support), layout_dig_);
  }
  if (rc != nullptr && rc->want_resume()) {
    obs::ScopedSpan span(obs::SpanKind::kOther, "snapshot-read");
    resume_ = load_resume(rc->options().resume_path, dataset_dig_, min_count_,
                          max_itemset_size_);
  }
  if (resume_ && resume_->layout_digest != layout_dig_)
    throw fim::IoError(
        "resume rejected: vertical layout digest mismatch (different "
        "preprocessing?): " +
        rc->options().resume_path);
}

miners::MiningOutput LevelLoop::level1() const {
  miners::MiningOutput out;
  const std::size_t n = num_items();
  for (fim::Item x = 0; x < n; ++x)
    out.itemsets.add(fim::Itemset{pre_->original_item[x]}, pre_->support[x]);
  out.itemsets.canonicalize();
  out.levels.push_back({1, n, n, pre_ms_, 0});
  out.host_ms = pre_ms_;
  return out;
}

miners::MiningOutput LevelLoop::salvage_level1() {
  miners::MiningOutput out = level1();
  mark_truncated(out, 2, scope_.control()->cause());
  checkpoint(out, 1);
  return out;
}

void LevelLoop::checkpoint(const miners::MiningOutput& out,
                           std::size_t level) {
  RunControl* rc = scope_.control();
  if (rc == nullptr || !rc->want_checkpoint()) return;
  obs::ScopedSpan span(obs::SpanKind::kOther, "snapshot-write");
  fim::CheckpointHeader head;
  head.dataset_digest = dataset_dig_;
  head.layout_digest = layout_dig_;
  head.min_count = min_count_;
  head.max_itemset_size = static_cast<std::uint32_t>(max_itemset_size_);
  head.completed_level = static_cast<std::uint32_t>(level);
  head.levels.reserve(out.levels.size());
  for (const miners::LevelStats& lv : out.levels)
    head.levels.push_back({static_cast<std::uint32_t>(lv.level),
                           lv.candidates, lv.frequent, lv.host_ms,
                           lv.device_ms});
  // Serialized straight from the run's collection: no copy per level.
  const std::size_t bytes = fim::write_checkpoint(
      rc->options().checkpoint_path, head, out.itemsets);
  rc->note_checkpoint(level, bytes);
  if (span.active()) {
    span.add_arg("level", static_cast<double>(level));
    span.add_arg("bytes", static_cast<double>(bytes));
  }
}

miners::MiningOutput LevelLoop::run(SupportCounter& counter,
                                    std::size_t chunk_trans) {
  miners::MiningOutput out = level1();
  if (num_items() != 0) {
    // Spans the host bitset build and the counter's store upload.
    std::optional<obs::ScopedSpan> store_span(
        std::in_place, obs::SpanKind::kOther, "store-build");
    const std::vector<fim::BitsetStore> slices =
        build_slices(out, chunk_trans);
    CandidateTrie trie(num_items());
    trie.set_workers(workers_);
    // What a cancel inside `emit` leaves of its level: released with the
    // trie and the store, after the salvage.
    std::vector<std::vector<fim::FrequentItemset>> emitting;
    // `k` is the level currently being counted; anything thrown while it
    // is in flight leaves `out` holding exactly the completed levels < k.
    std::size_t k = 2;
    try {
      counter.attach(slices);
      store_span.reset();
      if (resume_) {
        k = rebuild(trie, out) + 1;
        counter.resumed(trie, k - 1, slices);
      } else {
        checkpoint(out, 1);
      }
      mine_levels(counter, slices, k, trie, out, emitting);
    } catch (const gpusim::CancelledError& e) {
      // Cooperative salvage: the executor drained its in-flight chunks and
      // scoped device buffers unwound; keep the completed levels and mark
      // where the run stopped. Cancellation never walks the ladder.
      mark_truncated(out, k, e.cause());
    }
  }
  out.device_ms = counter.device_ms();
  obs::ScopedSpan span(obs::SpanKind::kOther, "finalize");
  out.itemsets.canonicalize();
  return out;
}

std::vector<fim::BitsetStore> LevelLoop::build_slices(
    miners::MiningOutput& out, std::size_t chunk_trans) const {
  const miners::StopWatch watch;
  const fim::TransactionDb& db = pre_->db;
  const std::size_t num_trans = db.num_transactions();
  std::vector<fim::Item> rows(num_items());
  std::iota(rows.begin(), rows.end(), fim::Item{0});
  std::vector<fim::BitsetStore> slices;
  if (chunk_trans == 0 || chunk_trans >= num_trans) {
    slices.push_back(fim::BitsetStore::from_db(db, rows, workers_));
  } else {
    // One slice per transaction chunk. Support is additive over the
    // partition, so per-chunk counts summed on the host are exact.
    for (std::size_t lo = 0; lo < num_trans; lo += chunk_trans) {
      fim::TransactionDb::Builder b;
      for (std::size_t t = lo; t < std::min(num_trans, lo + chunk_trans); ++t) {
        auto tx = db.transaction(t);
        b.add({tx.begin(), tx.end()});
      }
      slices.push_back(
          fim::BitsetStore::from_db(std::move(b).build(), rows, workers_));
    }
  }
  if (compact_) {
    obs::ScopedSpan span(obs::SpanKind::kOther, "compact-columns");
    const std::uint64_t dropped = compact_slices_initial(slices);
    if (span.active()) {
      span.add_arg("columns_dropped", static_cast<double>(dropped));
      span.add_arg("level", 1.0);
    }
  }
  miners::HostPhases ph;
  ph.build_ms = watch.elapsed_ms();
  record_host_phases(out, ph);
  out.host_ms += ph.build_ms;
  return slices;
}

std::size_t LevelLoop::rebuild(CandidateTrie& trie,
                               miners::MiningOutput& out) {
  // The snapshot's level-k itemsets are exactly the frequent depth-k nodes
  // of the interrupted run's trie, so the trie is rebuilt from them and
  // nothing is regenerated or counted. Every check below runs before
  // anything is sized from the file, and each names itself in the IoError.
  obs::ScopedSpan span(obs::SpanKind::kOther, "replay");
  const fim::MiningCheckpoint& cp = *resume_;
  const std::string& path = scope_.control()->options().resume_path;
  const auto reject = [&](const std::string& why) {
    throw fim::IoError("resume rejected: " + why + ": " + path);
  };
  const std::size_t n = num_items();
  const std::size_t top = cp.completed_level;
  if (top == 0 || top > n)
    reject("completed level " + std::to_string(top) + " is not in [1, " +
           std::to_string(n) + "] (the frequent item count)");
  if (cp.levels.size() != top)
    reject("level records: " + std::to_string(cp.levels.size()) +
           " records for " + std::to_string(top) + " completed levels");
  std::vector<const fim::CheckpointLevel*> record(top + 1, nullptr);
  for (const fim::CheckpointLevel& lv : cp.levels) {
    if (lv.level == 0 || lv.level > top || record[lv.level] != nullptr)
      reject("level records: level " + std::to_string(lv.level) +
             " is out of range or recorded twice");
    record[lv.level] = &lv;
  }
  std::vector<std::size_t> count(top + 1, 0);
  for (const fim::FrequentItemset& fs : cp.itemsets) {
    const std::size_t k = fs.items.size();
    if (k == 0 || k > top)
      reject("itemset count: an itemset of size " + std::to_string(k) +
             " is outside levels 1.." + std::to_string(top));
    ++count[k];
  }
  for (std::size_t k = 1; k <= top; ++k)
    if (count[k] != record[k]->frequent)
      reject("level " + std::to_string(k) + " itemset count " +
             std::to_string(count[k]) + " differs from its record's " +
             std::to_string(record[k]->frequent));
  if (count[1] != n)
    reject("level 1 holds " + std::to_string(count[1]) +
           " itemsets, preprocessing found " + std::to_string(n) +
           " frequent items");

  // Each itemset as sorted dense rows, bucketed by size in file order.
  const std::vector<fim::Item>& original = pre_->original_item;
  constexpr std::uint32_t kNoRow = ~std::uint32_t{0};
  std::vector<std::uint32_t> row_of(
      std::size_t{*std::max_element(original.begin(), original.end())} + 1,
      kNoRow);
  for (std::uint32_t r = 0; r < n; ++r) row_of[original[r]] = r;
  std::vector<std::vector<std::uint32_t>> paths(top + 1);
  for (std::size_t k = 1; k <= top; ++k) paths[k].reserve(count[k] * k);
  for (const fim::FrequentItemset& fs : cp.itemsets) {
    if (fs.support < min_count_)
      reject("support " + std::to_string(fs.support) + " of {" +
             fs.items.to_string() + "} is below min-count " +
             std::to_string(min_count_));
    std::vector<std::uint32_t>& rows = paths[fs.items.size()];
    const std::size_t at = rows.size();
    for (const fim::Item x : fs.items) {
      if (x >= row_of.size() || row_of[x] == kNoRow)
        reject("item " + std::to_string(x) + " is not a frequent item");
      rows.push_back(row_of[x]);
    }
    std::sort(rows.begin() + static_cast<std::ptrdiff_t>(at), rows.end());
    if (fs.items.size() == 1 && fs.support != pre_->support[rows[at]])
      reject("level 1 support of item " + std::to_string(fs.items[0]) +
             " differs from preprocessing");
  }
  std::sort(paths[1].begin(), paths[1].end());
  for (std::uint32_t r = 0; r < n; ++r)
    if (paths[1][r] != r)
      reject("level 1 differs from preprocessing: item " +
             std::to_string(original[r]) + " is missing or repeated");

  // A level's paths in lexicographic order are its survivors in trie
  // order; the loop writes them that way, so the sort is usually a scan.
  for (std::size_t k = 2; k <= top; ++k) {
    std::vector<std::uint32_t>& rows = paths[k];
    const auto at = [&](std::size_t i) { return rows.data() + i * k; };
    const auto less = [&](std::size_t a, std::size_t b) {
      return std::lexicographical_compare(at(a), at(a) + k, at(b), at(b) + k);
    };
    const auto increasing = [&] {
      for (std::size_t i = 1; i < count[k]; ++i)
        if (!less(i - 1, i)) return false;
      return true;
    };
    if (!increasing()) {
      std::vector<std::uint32_t> order(count[k]);
      std::iota(order.begin(), order.end(), 0u);
      std::sort(order.begin(), order.end(), less);
      std::vector<std::uint32_t> by_order;
      by_order.reserve(rows.size());
      for (const std::uint32_t i : order)
        by_order.insert(by_order.end(), at(i), at(i) + k);
      rows = std::move(by_order);
      if (!increasing())
        reject("a level " + std::to_string(k) + " itemset appears twice");
    }
    if (!trie.append_level(std::move(rows)))
      reject("a level " + std::to_string(k) + " itemset's prefix is not a "
             "level " + std::to_string(k - 1) + " itemset");
  }

  // Rebuilt levels report the interrupted run's recorded stats, so a
  // resumed run's LevelStats table matches the run it continues. The
  // snapshot stays intact: the next ladder rung rebuilds from it again.
  out.itemsets = cp.itemsets;
  out.levels.clear();
  for (std::size_t k = 1; k <= top; ++k) {
    const fim::CheckpointLevel& lv = *record[k];
    out.levels.push_back({k, static_cast<std::size_t>(lv.candidates),
                          static_cast<std::size_t>(lv.frequent), lv.host_ms,
                          lv.device_ms});
  }
  return top;
}

void LevelLoop::mine_levels(
    SupportCounter& counter, std::span<const fim::BitsetStore> slices,
    std::size_t& k, CandidateTrie& trie, miners::MiningOutput& out,
    std::vector<std::vector<fim::FrequentItemset>>& emitting) {
  auto& metrics = obs::MetricsRegistry::global();
  const bool grouped = counter.grouped();
  for (;; ++k) {
    if (max_itemset_size_ != 0 && k > max_itemset_size_) break;
    scope_.check(name_, counter.device_ms());
    obs::ScopedSpan level_span(obs::SpanKind::kMineLevel, name_);

    // ---- Host: candidate generation + level layout (measured). ----
    miners::StopWatch host;
    miners::HostPhases ph;
    LevelCandidates lv;
    lv.k = k;
    lv.slices = slices;
    lv.trie = &trie;
    {
      obs::ScopedSpan cand_span(obs::SpanKind::kCandidateGen, "candidate-gen");
      lv.count = trie.extend(scope_.cancel_token());
      ph.candgen_ms = host.elapsed_ms();
      ph.candgen_shards = trie.last_extend_shards();
      if (lv.count != 0) {
        const miners::StopWatch flatten_watch;
        lv.paths = trie.level_paths(k);
        if (grouped) {
          obs::ScopedSpan span(obs::SpanKind::kCandidateGen, "candgen-group");
          lv.grouped =
              trie.flatten_level_grouped(k, group_cap_, scope_.cancel_token());
        }
        ph.flatten_ms = flatten_watch.elapsed_ms();
      }
      if (cand_span.active()) {
        cand_span.add_arg("k", static_cast<double>(k));
        cand_span.add_arg("candidates", static_cast<double>(lv.count));
        if (grouped && lv.count != 0)
          cand_span.add_arg("groups",
                            static_cast<double>(lv.grouped.groups));
      }
    }
    if (lv.count == 0) break;
    double level_host_ms = host.elapsed_ms();

    // ---- Count. ----
    std::vector<fim::Support> supports(lv.count, 0);
    host.restart();
    const double level_device_ms = counter.count(lv, supports);
    if (counter.counts_on_host()) level_host_ms += host.elapsed_ms();

    // ---- Host: prune + emit (measured). ----
    host.restart();
    std::vector<fim::Support> kept;
    double mark_ms = 0;
    {
      obs::ScopedSpan span(obs::SpanKind::kOther, "prune");
      trie.mark_frequent(k, supports, min_count_, scope_.cancel_token());
      kept.reserve(trie.level_size(k));
      for (fim::Support s : supports)
        if (s >= min_count_) kept.push_back(s);
      mark_ms = host.elapsed_ms();
      counter.level_done(trie, k, supports, min_count_);
    }
    host.restart();
    {
      obs::ScopedSpan span(obs::SpanKind::kOther, "emit");
      emit_frequent_level(trie, k, kept, pre_->original_item, out.itemsets,
                          workers_, scope_.cancel_token(), emitting);
    }
    ph.emit_ms = host.elapsed_ms();
    ph.candgen_ms += mark_ms;
    record_host_phases(out, ph);
    level_host_ms += mark_ms + ph.emit_ms;

    const std::size_t survivors = trie.level_size(k);
    out.levels.push_back(
        {k, lv.count, survivors, level_host_ms, level_device_ms});
    out.host_ms += level_host_ms;

    if (level_span.active()) {
      level_span.add_arg("k", static_cast<double>(k));
      level_span.add_arg("candidates", static_cast<double>(lv.count));
      level_span.add_arg("survivors", static_cast<double>(survivors));
      level_span.add_arg("device_ms", level_device_ms);
      if (grouped) {
        const double ngroups = static_cast<double>(lv.grouped.groups);
        level_span.add_arg("groups", ngroups);
        level_span.add_arg("prefix_reuse",
                           static_cast<double>(lv.count) / ngroups);
      }
      counter.annotate(level_span);
    }
    if (metrics.enabled()) {
      obs::LevelMetrics lm;
      lm.candidates = lv.count;
      lm.survivors = survivors;
      counter.add_metrics(lv, lm);
      metrics.record_level(k, lm);
    }

    scope_.level_completed(k, counter.device_ms());
    checkpoint(out, k);
    if (survivors == 0) break;
  }
}

}  // namespace gpapriori
