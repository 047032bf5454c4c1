#pragma once
// Native top-K frequent-itemset mining: level-wise Apriori with a RISING
// support threshold.
//
// Re-mining at probed thresholds would be wasteful and, on dense data with
// a support cliff, dangerous (a probe past the cliff materializes an
// exponential collection). This algorithm needs ONE level-wise pass: a
// size-K min-heap of the best supports seen so far provides the current
// threshold; because the threshold only ever rises, Apriori pruning with
// the current value stays sound, and levels narrow as the heap tightens.
// Runs on the same candidate trie + static bitset machinery as CPU_TEST.

#include "fim/result.hpp"
#include "fim/transaction_db.hpp"

namespace gpapriori {

struct NativeTopKResult {
  /// K most frequent itemsets, extended through ties at the K-th place.
  fim::ItemsetCollection itemsets;
  fim::Support effective_min_support = 0;
  std::size_t levels_mined = 0;
};

/// Throws std::invalid_argument for k == 0.
[[nodiscard]] NativeTopKResult mine_top_k_native(
    const fim::TransactionDb& db, std::size_t k,
    std::size_t max_itemset_size = 0);

}  // namespace gpapriori
