#include "fim/result.hpp"

#include <algorithm>
#include <array>
#include <charconv>

namespace fim {

void ItemsetCollection::canonicalize() {
  std::sort(sets_.begin(), sets_.end(),
            [](const FrequentItemset& a, const FrequentItemset& b) {
              return a.items < b.items;
            });
}

void ItemsetCollection::build_index() {
  index_.clear();
  index_.reserve(sets_.size());
  for (const auto& s : sets_) index_.emplace(s.items, s.support);
}

std::optional<Support> ItemsetCollection::support_of(const Itemset& s) const {
  if (!index_.empty()) {
    auto it = index_.find(s);
    if (it == index_.end()) return std::nullopt;
    return it->second;
  }
  for (const auto& fs : sets_)
    if (fs.items == s) return fs.support;
  return std::nullopt;
}

std::vector<std::size_t> ItemsetCollection::counts_by_size() const {
  std::vector<std::size_t> counts;
  for (const auto& s : sets_) {
    if (s.items.size() >= counts.size()) counts.resize(s.items.size() + 1, 0);
    counts[s.items.size()] += 1;
  }
  return counts;
}

std::size_t ItemsetCollection::max_size() const {
  std::size_t m = 0;
  for (const auto& s : sets_) m = std::max(m, s.items.size());
  return m;
}

bool ItemsetCollection::equivalent_to(const ItemsetCollection& other) const {
  if (sets_.size() != other.sets_.size()) return false;
  auto a = sets_, b = other.sets_;
  auto cmp = [](const FrequentItemset& x, const FrequentItemset& y) {
    return x.items < y.items;
  };
  std::sort(a.begin(), a.end(), cmp);
  std::sort(b.begin(), b.end(), cmp);
  return a == b;
}

std::string ItemsetCollection::to_string() const {
  std::vector<const FrequentItemset*> order;
  order.reserve(sets_.size());
  for (const auto& s : sets_) order.push_back(&s);
  const auto less = [](const FrequentItemset* a, const FrequentItemset* b) {
    return a->items < b->items;
  };
  // Every miner leaves its collection canonical, so the sort (of pointers,
  // not itemsets) only runs for hand-built collections.
  if (!std::is_sorted(order.begin(), order.end(), less))
    std::sort(order.begin(), order.end(), less);

  std::string out;
  for (const FrequentItemset* s : order) {
    s->items.append_to(out);
    out += " (";
    std::array<char, 10> buf{};  // UINT32_MAX has 10 digits
    const auto end =
        std::to_chars(buf.data(), buf.data() + buf.size(), s->support).ptr;
    out.append(buf.data(), end);
    out += ")\n";
  }
  return out;
}

}  // namespace fim
