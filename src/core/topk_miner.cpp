#include "core/topk_miner.hpp"

#include <algorithm>
#include <queue>
#include <stdexcept>
#include <vector>

#include "baselines/apriori_util.hpp"
#include "core/candidate_trie.hpp"
#include "fim/bitset_ops.hpp"

namespace gpapriori {

NativeTopKResult mine_top_k_native(const fim::TransactionDb& db,
                                   std::size_t k,
                                   std::size_t max_itemset_size) {
  if (k == 0)
    throw std::invalid_argument("mine_top_k_native: k must be positive");
  NativeTopKResult result;
  if (db.num_transactions() == 0) return result;

  // Keep every occurring item; the heap supplies the real threshold.
  miners::Preprocessed pre =
      miners::preprocess(db, 1, miners::ItemOrder::kAscendingFreq);
  const std::size_t n = pre.original_item.size();
  if (n == 0) return result;

  std::vector<fim::Item> rows(n);
  for (fim::Item i = 0; i < n; ++i) rows[i] = i;
  const fim::BitsetStore store = fim::BitsetStore::from_db(pre.db, rows);

  // Size-K min-heap of the best supports seen; threshold = heap top once
  // the heap is full, else 1. Only ever rises.
  std::priority_queue<fim::Support, std::vector<fim::Support>,
                      std::greater<>> best;
  auto offer = [&](fim::Support s) {
    if (best.size() < k) {
      best.push(s);
    } else if (s > best.top()) {
      best.pop();
      best.push(s);
    }
  };
  auto threshold = [&]() -> fim::Support {
    return best.size() < k ? 1 : best.top();
  };

  // Collected candidates for the final cut: (support, itemset in new ids).
  std::vector<std::pair<fim::Support, std::vector<fim::Item>>> kept;

  // Level 1.
  for (fim::Item x = 0; x < n; ++x) offer(pre.support[x]);
  CandidateTrie trie(n);
  {
    std::vector<fim::Support> s1 = pre.support;
    trie.mark_frequent(1, s1, threshold());
  }
  for (fim::Item x = 0; x < n; ++x)
    if (pre.support[x] >= threshold())
      kept.push_back({pre.support[x], {x}});
  result.levels_mined = 1;

  for (std::size_t lvl = 2;; ++lvl) {
    if (max_itemset_size && lvl > max_itemset_size) break;
    const std::size_t ncand = trie.extend();
    if (ncand == 0) break;
    // Zero-copy view of the level's path table — valid until mark_frequent
    // compacts the level, so every read happens before the prune below.
    const std::span<const std::uint32_t> flat = trie.level_paths(lvl);

    std::vector<fim::Support> supports(ncand);
    for (std::size_t c = 0; c < ncand; ++c) {
      supports[c] = store.and_popcount(flat.subspan(c * lvl, lvl));
      offer(supports[c]);
    }
    // Prune with the threshold AFTER this level's supports tightened it —
    // the threshold only rises, so Apriori monotonicity is preserved.
    const fim::Support thr = threshold();
    for (std::size_t c = 0; c < ncand; ++c) {
      if (supports[c] >= thr) {
        kept.push_back(
            {supports[c],
             {flat.begin() + static_cast<std::ptrdiff_t>(c * lvl),
              flat.begin() + static_cast<std::ptrdiff_t>((c + 1) * lvl)}});
      }
    }
    trie.mark_frequent(lvl, supports, thr);
    result.levels_mined = lvl;
    if (trie.level_size(lvl) == 0) break;
  }

  // Final cut: the K best supports, ties at the K-th place kept whole.
  std::sort(kept.begin(), kept.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });
  const fim::Support kth =
      kept.size() >= k ? kept[k - 1].first
                       : (kept.empty() ? 0 : kept.back().first);
  for (const auto& [support, items] : kept) {
    if (support < kth) break;
    std::vector<fim::Item> orig;
    orig.reserve(items.size());
    for (fim::Item x : items) orig.push_back(pre.original_item[x]);
    result.itemsets.add(fim::Itemset(std::move(orig)), support);
  }
  result.itemsets.canonicalize();
  result.effective_min_support = kth;
  return result;
}

}  // namespace gpapriori
