#pragma once
// Shared dataset cache for the mining service (DESIGN.md §14).
//
// Two layers of immutable, reference-counted state let concurrent and
// repeated requests over the same dataset share one build:
//
//   * parsed layer — the FIMI parse of a dataset file (TransactionDb +
//     fim::dataset_digest + DatasetStats), keyed by content digest with a
//     path index in front (path -> digest, revalidated against file
//     size/mtime so an overwritten file is re-parsed, never served stale);
//   * layout layer — the preprocessed frequent-1 layout
//     (gpapriori::SharedLayout: miners::preprocess at kAscendingFreq),
//     keyed by (digest, min_count) and bound by a weak pointer to the
//     parsed object it was built from. A slot built from another object
//     of equal content (a same-bytes re-parse, or a handle and a file with
//     the same bytes) counts as a miss and is replaced. Drivers adopt a
//     layout through Config::shared_layout only for that live object at
//     that threshold, an O(1) identity check, so a cache bug can slow a
//     request down but never change its output.
//
// Both layers live under one LRU with a byte budget: every get moves the
// entry to the front, inserts evict from the back until the total fits.
// Entries are handed out as shared_ptr, so an evicted entry stays alive
// for requests already using it — eviction only drops the cache's own
// reference. Concurrent misses on the same dataset (or the same object and
// threshold, for layouts) coalesce onto a single build: the first
// requester parses/preprocesses, later ones wait on its shared_future
// instead of duplicating the work.
//
// Datasets registered through register_handle (in-memory, no file) are
// pinned: addressable by name, never evicted, not counted against the
// byte budget.

#include <cstdint>
#include <future>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>

#include "core/config.hpp"
#include "fim/dataset_stats.hpp"
#include "fim/transaction_db.hpp"

namespace serve {

/// One parsed dataset, immutable once built.
struct CachedDataset {
  fim::TransactionDb db;
  std::uint64_t digest = 0;  ///< fim::dataset_digest(db)
  fim::DatasetStats stats;
  std::size_t bytes = 0;   ///< approximate resident footprint
};

/// Cumulative cache accounting, reported in ServiceStats::cache.
struct CacheStats {
  std::uint64_t db_hits = 0;
  std::uint64_t db_misses = 0;
  std::uint64_t layout_hits = 0;
  std::uint64_t layout_misses = 0;
  std::uint64_t evictions = 0;
  std::uint64_t builds_coalesced = 0;  ///< waiters that joined an in-flight build
  std::size_t bytes_in_cache = 0;      ///< current LRU payload (pins excluded)
};

class DatasetCache {
 public:
  explicit DatasetCache(std::size_t max_bytes = 256ull << 20);
  DatasetCache(const DatasetCache&) = delete;
  DatasetCache& operator=(const DatasetCache&) = delete;

  /// Pins an in-memory dataset under `name` (requests address it by that
  /// handle instead of a path). Re-registering a name replaces it.
  void register_handle(const std::string& name, fim::TransactionDb db);

  struct DatasetResult {
    std::shared_ptr<const CachedDataset> dataset;
    bool hit = false;  ///< no parse ran on behalf of this call
  };
  /// Resolves a handle or parses a FIMI file (cached). Throws fim::IoError
  /// when the path cannot be read or does not parse.
  DatasetResult get_dataset(const std::string& path_or_handle);

  struct LayoutResult {
    std::shared_ptr<const gpapriori::SharedLayout> layout;
    bool hit = false;
  };
  /// The preprocessed layout for (dataset, min_count), built on first use
  /// and bound to `ds->db`.
  LayoutResult get_layout(const std::shared_ptr<const CachedDataset>& ds,
                          fim::Support min_count);

  /// Shape statistics without building anything: answered for registered
  /// handles and for already-parsed, unchanged files; nullopt otherwise.
  /// Cheap (no parse, no LRU churn) — admission control consults this at
  /// submit time, before a worker has parsed the dataset.
  [[nodiscard]] std::optional<fim::DatasetStats> peek_stats(
      const std::string& path_or_handle) const;

  [[nodiscard]] CacheStats stats() const;
  [[nodiscard]] std::size_t max_bytes() const { return max_bytes_; }

 private:
  struct Slot {
    std::string key;
    std::size_t bytes = 0;
    std::shared_ptr<const CachedDataset> dataset;            // one of these
    std::shared_ptr<const gpapriori::SharedLayout> layout;   // is set
  };
  struct PathStamp {
    std::uint64_t digest = 0;
    std::uintmax_t file_size = 0;
    std::int64_t mtime_ns = 0;
  };

  /// Moves `it` to the LRU front. Caller holds m_.
  void touch(std::list<Slot>::iterator it);
  /// Inserts a slot at the front and evicts from the back until the budget
  /// holds. Caller holds m_.
  void insert(Slot slot);

  const std::size_t max_bytes_;
  mutable std::mutex m_;
  std::list<Slot> lru_;  ///< front = most recently used
  std::unordered_map<std::string, std::list<Slot>::iterator> index_;
  std::unordered_map<std::string, PathStamp> path_index_;
  std::unordered_map<std::string, std::shared_ptr<const CachedDataset>>
      handles_;
  std::unordered_map<std::string,
                     std::shared_future<std::shared_ptr<const CachedDataset>>>
      pending_datasets_;
  /// Layout builds in flight, by the object they are built from.
  using PendingKey = std::pair<const fim::TransactionDb*, fim::Support>;
  std::map<PendingKey,
           std::shared_future<std::shared_ptr<const gpapriori::SharedLayout>>>
      pending_layouts_;
  CacheStats stats_;
};

}  // namespace serve
