#include "fim/itemset.hpp"

#include <algorithm>
#include <array>
#include <charconv>

namespace fim {

Itemset::Itemset(std::initializer_list<Item> items)
    : Itemset(std::vector<Item>(items)) {}

Itemset::Itemset(std::vector<Item> items) : items_(std::move(items)) {
  std::sort(items_.begin(), items_.end());
  items_.erase(std::unique(items_.begin(), items_.end()), items_.end());
}

bool Itemset::contains(Item x) const {
  return std::binary_search(items_.begin(), items_.end(), x);
}

bool Itemset::contains_all(const Itemset& other) const {
  return std::includes(items_.begin(), items_.end(), other.items_.begin(),
                       other.items_.end());
}

Itemset Itemset::with(Item x) const {
  Itemset r;
  r.items_.reserve(items_.size() + 1);
  auto pos = std::lower_bound(items_.begin(), items_.end(), x);
  r.items_.assign(items_.begin(), pos);
  r.items_.push_back(x);
  r.items_.insert(r.items_.end(), pos, items_.end());
  return r;
}

Itemset Itemset::without_index(std::size_t i) const {
  Itemset r;
  r.items_ = items_;
  r.items_.erase(r.items_.begin() + static_cast<std::ptrdiff_t>(i));
  return r;
}

Itemset Itemset::set_union(const Itemset& other) const {
  Itemset r;
  std::set_union(items_.begin(), items_.end(), other.items_.begin(),
                 other.items_.end(), std::back_inserter(r.items_));
  return r;
}

Itemset Itemset::set_difference(const Itemset& other) const {
  Itemset r;
  std::set_difference(items_.begin(), items_.end(), other.items_.begin(),
                      other.items_.end(), std::back_inserter(r.items_));
  return r;
}

std::string Itemset::to_string() const {
  std::string out;
  append_to(out);
  return out;
}

void Itemset::append_to(std::string& out) const {
  for (std::size_t i = 0; i < items_.size(); ++i) {
    if (i != 0) out += ' ';
    std::array<char, 10> buf{};  // UINT32_MAX has 10 digits
    const auto end =
        std::to_chars(buf.data(), buf.data() + buf.size(), items_[i]).ptr;
    out.append(buf.data(), end);
  }
}

bool is_strictly_increasing(std::span<const Item> items) {
  for (std::size_t i = 1; i < items.size(); ++i)
    if (items[i - 1] >= items[i]) return false;
  return true;
}

}  // namespace fim
