#pragma once
// Core frequent-itemset-mining vocabulary types.
//
// An Item is a dense non-negative integer id. An Itemset is a
// strictly-increasing sequence of items — every algorithm in this library
// maintains that invariant, and helpers here enforce/check it.

#include <cstdint>
#include <functional>
#include <initializer_list>
#include <span>
#include <string>
#include <vector>

namespace fim {

using Item = std::uint32_t;
using Tid = std::uint32_t;      ///< transaction id
using Support = std::uint32_t;  ///< absolute occurrence count

/// Sorted, duplicate-free item sequence.
class Itemset {
 public:
  Itemset() = default;
  /// Sorts and deduplicates the given items.
  Itemset(std::initializer_list<Item> items);
  explicit Itemset(std::vector<Item> items);

  [[nodiscard]] std::size_t size() const { return items_.size(); }
  [[nodiscard]] bool empty() const { return items_.empty(); }
  [[nodiscard]] Item operator[](std::size_t i) const { return items_[i]; }
  [[nodiscard]] const std::vector<Item>& items() const { return items_; }
  [[nodiscard]] auto begin() const { return items_.begin(); }
  [[nodiscard]] auto end() const { return items_.end(); }

  [[nodiscard]] bool contains(Item x) const;
  /// True iff every item of `other` occurs in *this.
  [[nodiscard]] bool contains_all(const Itemset& other) const;

  /// Returns *this with `x` inserted (x must not already be present).
  [[nodiscard]] Itemset with(Item x) const;
  /// Returns *this with the item at position `i` removed.
  [[nodiscard]] Itemset without_index(std::size_t i) const;
  /// Set union / difference (inputs sorted, output sorted).
  [[nodiscard]] Itemset set_union(const Itemset& other) const;
  [[nodiscard]] Itemset set_difference(const Itemset& other) const;

  /// "1 5 9" — FIMI-style rendering.
  [[nodiscard]] std::string to_string() const;
  /// Appends the to_string() rendering to `out`.
  void append_to(std::string& out) const;

  friend bool operator==(const Itemset&, const Itemset&) = default;
  /// Lexicographic order; used for canonical result sorting.
  friend auto operator<=>(const Itemset& a, const Itemset& b) {
    return a.items_ <=> b.items_;
  }

 private:
  std::vector<Item> items_;
};

struct ItemsetHash {
  std::size_t operator()(const Itemset& s) const {
    // FNV-1a over the item words; itemsets are short, this is plenty.
    std::size_t h = 1469598103934665603ull;
    for (Item x : s) {
      h ^= x;
      h *= 1099511628211ull;
    }
    return h;
  }
};

/// Checks that a raw item span is strictly increasing (the library-wide
/// transaction normal form).
[[nodiscard]] bool is_strictly_increasing(std::span<const Item> items);

}  // namespace fim
