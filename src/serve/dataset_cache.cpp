#include "serve/dataset_cache.hpp"

#include <chrono>
#include <filesystem>
#include <utility>

#include "baselines/apriori_util.hpp"
#include "fim/checkpoint.hpp"
#include "fim/fimi_io.hpp"

namespace serve {

namespace {

std::size_t db_bytes(const fim::TransactionDb& db) {
  return db.total_items() * sizeof(fim::Item) +
         (db.num_transactions() + 1) * sizeof(std::uint64_t) +
         sizeof(fim::TransactionDb);
}

std::size_t layout_bytes(const gpapriori::SharedLayout& lay) {
  return db_bytes(lay.pre.db) +
         lay.pre.original_item.size() * sizeof(fim::Item) +
         lay.pre.support.size() * sizeof(fim::Support) +
         sizeof(gpapriori::SharedLayout);
}

std::string dataset_key(std::uint64_t digest) {
  return "db:" + std::to_string(digest);
}

std::string layout_key(std::uint64_t digest, fim::Support min_count) {
  return "lay:" + std::to_string(digest) + ":" + std::to_string(min_count);
}

/// File identity stamp; returns false when the file cannot be stat'd (the
/// subsequent parse will raise the real IoError with context).
bool stat_file(const std::string& path, std::uintmax_t& size,
               std::int64_t& mtime_ns) {
  std::error_code ec;
  const auto sz = std::filesystem::file_size(path, ec);
  if (ec) return false;
  const auto mt = std::filesystem::last_write_time(path, ec);
  if (ec) return false;
  size = sz;
  mtime_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                 mt.time_since_epoch())
                 .count();
  return true;
}

/// The one place a served dataset is hashed: layouts built from the entry
/// carry this digest to the runs that adopt them.
std::shared_ptr<const CachedDataset> make_entry(fim::TransactionDb db) {
  auto entry = std::make_shared<CachedDataset>();
  entry->db = std::move(db);
  entry->digest = fim::dataset_digest(entry->db);
  entry->stats = fim::compute_stats(entry->db);
  entry->bytes = db_bytes(entry->db);
  return entry;
}

}  // namespace

DatasetCache::DatasetCache(std::size_t max_bytes) : max_bytes_(max_bytes) {}

void DatasetCache::register_handle(const std::string& name,
                                   fim::TransactionDb db) {
  auto entry = make_entry(std::move(db));
  std::lock_guard lk(m_);
  handles_[name] = std::move(entry);
}

void DatasetCache::touch(std::list<Slot>::iterator it) {
  lru_.splice(lru_.begin(), lru_, it);
}

void DatasetCache::insert(Slot slot) {
  // Replace a same-key slot (e.g. two concurrent misses that both built
  // because one was a path re-stamp) instead of double-counting bytes.
  if (auto it = index_.find(slot.key); it != index_.end()) {
    stats_.bytes_in_cache -= it->second->bytes;
    lru_.erase(it->second);
    index_.erase(it);
  }
  stats_.bytes_in_cache += slot.bytes;
  lru_.push_front(std::move(slot));
  index_[lru_.front().key] = lru_.begin();
  while (stats_.bytes_in_cache > max_bytes_ && !lru_.empty()) {
    const Slot& victim = lru_.back();
    stats_.bytes_in_cache -= victim.bytes;
    index_.erase(victim.key);
    lru_.pop_back();
    ++stats_.evictions;
  }
}

DatasetCache::DatasetResult DatasetCache::get_dataset(
    const std::string& path_or_handle) {
  std::shared_future<std::shared_ptr<const CachedDataset>> wait_on;
  {
    std::unique_lock lk(m_);
    if (auto h = handles_.find(path_or_handle); h != handles_.end()) {
      ++stats_.db_hits;
      return {h->second, true};
    }
    if (auto p = path_index_.find(path_or_handle); p != path_index_.end()) {
      std::uintmax_t size = 0;
      std::int64_t mtime = 0;
      if (stat_file(path_or_handle, size, mtime) &&
          size == p->second.file_size && mtime == p->second.mtime_ns) {
        if (auto it = index_.find(dataset_key(p->second.digest));
            it != index_.end()) {
          touch(it->second);
          ++stats_.db_hits;
          return {it->second->dataset, true};
        }
      } else {
        path_index_.erase(p);  // file changed or vanished: re-parse
      }
    }
    if (auto pending = pending_datasets_.find(path_or_handle);
        pending != pending_datasets_.end()) {
      wait_on = pending->second;
      ++stats_.builds_coalesced;
      ++stats_.db_hits;
    } else {
      std::promise<std::shared_ptr<const CachedDataset>> promise;
      pending_datasets_[path_or_handle] = promise.get_future().share();
      ++stats_.db_misses;
      lk.unlock();

      std::shared_ptr<const CachedDataset> entry;
      try {
        entry = make_entry(fim::read_fimi_file(path_or_handle));
      } catch (...) {
        promise.set_exception(std::current_exception());
        std::lock_guard relock(m_);
        pending_datasets_.erase(path_or_handle);
        throw;
      }
      promise.set_value(entry);

      lk.lock();
      pending_datasets_.erase(path_or_handle);
      std::uintmax_t size = 0;
      std::int64_t mtime = 0;
      if (stat_file(path_or_handle, size, mtime))
        path_index_[path_or_handle] = {entry->digest, size, mtime};
      insert({dataset_key(entry->digest), entry->bytes, entry, nullptr});
      return {entry, false};
    }
  }
  // Coalesced onto another thread's parse; get() rethrows its IoError.
  return {wait_on.get(), true};
}

DatasetCache::LayoutResult DatasetCache::get_layout(
    const std::shared_ptr<const CachedDataset>& ds, fim::Support min_count) {
  const std::string key = layout_key(ds->digest, min_count);
  // While a build is pending its requester holds `ds`, so the address
  // names one live object.
  const PendingKey pending_key{&ds->db, min_count};
  std::shared_future<std::shared_ptr<const gpapriori::SharedLayout>> wait_on;
  {
    std::unique_lock lk(m_);
    // A slot built from another object with the same bytes (a re-parse, or
    // a handle and a file of equal content) is a miss: drivers would
    // refuse it, so the build below replaces it.
    if (auto it = index_.find(key);
        it != index_.end() && it->second->layout->built_from(ds->db)) {
      touch(it->second);
      ++stats_.layout_hits;
      return {it->second->layout, true};
    }
    if (auto pending = pending_layouts_.find(pending_key);
        pending != pending_layouts_.end()) {
      wait_on = pending->second;
      ++stats_.builds_coalesced;
      ++stats_.layout_hits;
    } else {
      std::promise<std::shared_ptr<const gpapriori::SharedLayout>> promise;
      pending_layouts_[pending_key] = promise.get_future().share();
      ++stats_.layout_misses;
      lk.unlock();

      std::shared_ptr<gpapriori::SharedLayout> lay;
      try {
        lay = std::make_shared<gpapriori::SharedLayout>();
        lay->min_count = min_count;
        lay->dataset_digest = ds->digest;
        lay->source = std::shared_ptr<const fim::TransactionDb>(ds, &ds->db);
        lay->pre = miners::preprocess(ds->db, min_count,
                                      miners::ItemOrder::kAscendingFreq);
      } catch (...) {
        promise.set_exception(std::current_exception());
        std::lock_guard relock(m_);
        pending_layouts_.erase(pending_key);
        throw;
      }
      std::shared_ptr<const gpapriori::SharedLayout> entry = lay;
      promise.set_value(entry);

      lk.lock();
      pending_layouts_.erase(pending_key);
      insert({key, layout_bytes(*entry), nullptr, entry});
      return {entry, false};
    }
  }
  return {wait_on.get(), true};
}

std::optional<fim::DatasetStats> DatasetCache::peek_stats(
    const std::string& path_or_handle) const {
  std::lock_guard lk(m_);
  if (auto h = handles_.find(path_or_handle); h != handles_.end())
    return h->second->stats;
  if (auto p = path_index_.find(path_or_handle); p != path_index_.end()) {
    std::uintmax_t size = 0;
    std::int64_t mtime = 0;
    if (stat_file(path_or_handle, size, mtime) &&
        size == p->second.file_size && mtime == p->second.mtime_ns) {
      if (auto it = index_.find(dataset_key(p->second.digest));
          it != index_.end())
        return it->second->dataset->stats;
    }
  }
  return std::nullopt;
}

CacheStats DatasetCache::stats() const {
  std::lock_guard lk(m_);
  return stats_;
}

}  // namespace serve
