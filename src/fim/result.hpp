#pragma once
// Mining results in canonical form.
//
// Every miner in this library returns an ItemsetCollection; canonicalizing
// (sort by itemset) makes results from different algorithms directly
// comparable, which the integration tests use as the correctness oracle.

#include <algorithm>
#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "fim/itemset.hpp"

namespace fim {

struct FrequentItemset {
  Itemset items;
  Support support = 0;

  friend bool operator==(const FrequentItemset&,
                         const FrequentItemset&) = default;
};

class ItemsetCollection {
 public:
  void add(Itemset items, Support support) {
    sets_.push_back({std::move(items), support});
  }

  /// Room for `n` more results, grown geometrically as push_back would, so
  /// that adding them moves none of the results already held.
  void reserve_more(std::size_t n) {
    if (sets_.size() + n > sets_.capacity())
      sets_.reserve(std::max(sets_.size() + n, 2 * sets_.capacity()));
  }

  /// Appends a pre-built block of results in order — the merge step of the
  /// parallel materialization path (one call per shard, shard order).
  void add_batch(std::vector<FrequentItemset>&& batch) {
    if (sets_.empty()) {
      sets_ = std::move(batch);
    } else {
      sets_.insert(sets_.end(), std::make_move_iterator(batch.begin()),
                   std::make_move_iterator(batch.end()));
    }
  }

  [[nodiscard]] std::size_t size() const { return sets_.size(); }
  [[nodiscard]] bool empty() const { return sets_.empty(); }
  [[nodiscard]] const std::vector<FrequentItemset>& sets() const {
    return sets_;
  }
  [[nodiscard]] auto begin() const { return sets_.begin(); }
  [[nodiscard]] auto end() const { return sets_.end(); }

  /// Sorts by itemset (lexicographic). Two canonicalized collections with
  /// the same content compare equal.
  void canonicalize();

  /// Support lookup (linear unless indexed; call build_index first for
  /// repeated queries, e.g. rule generation).
  [[nodiscard]] std::optional<Support> support_of(const Itemset& s) const;
  void build_index();

  /// Number of frequent itemsets per size k (index 0 unused).
  [[nodiscard]] std::vector<std::size_t> counts_by_size() const;
  [[nodiscard]] std::size_t max_size() const;

  /// True iff both collections contain exactly the same (itemset, support)
  /// pairs, regardless of order.
  [[nodiscard]] bool equivalent_to(const ItemsetCollection& other) const;

  /// Multi-line "items (support)" rendering, canonical order.
  [[nodiscard]] std::string to_string() const;

 private:
  std::vector<FrequentItemset> sets_;
  std::unordered_map<Itemset, Support, ItemsetHash> index_;
};

}  // namespace fim
