#pragma once
// Shared test utilities: a brute-force reference miner (the independent
// oracle every real miner is checked against) and small random-database
// generation for property-style sweeps.

#include <algorithm>
#include <cstdint>
#include <random>
#include <span>
#include <vector>

#include "core/candidate_trie.hpp"
#include "fim/itemset.hpp"
#include "fim/result.hpp"
#include "fim/transaction_db.hpp"

namespace testutil {

/// Counts the transactions containing `items` by scanning the database.
inline fim::Support naive_support(const fim::TransactionDb& db,
                                  const fim::Itemset& items) {
  fim::Support n = 0;
  for (std::size_t t = 0; t < db.num_transactions(); ++t) {
    const auto tx = db.transaction(t);
    if (std::includes(tx.begin(), tx.end(), items.begin(), items.end())) ++n;
  }
  return n;
}

/// Brute-force frequent itemset miner: depth-first item extension with the
/// anti-monotone prune, every support computed by full database scan.
/// Deliberately shares no code with the real miners.
inline fim::ItemsetCollection brute_force(const fim::TransactionDb& db,
                                          fim::Support min_count,
                                          std::size_t max_size = 0) {
  fim::ItemsetCollection out;
  std::vector<fim::Item> present;
  for (fim::Item x = 0; x < db.item_universe(); ++x) present.push_back(x);

  struct Frame {
    fim::Itemset set;
    std::size_t next_index;
  };
  std::vector<Frame> stack;
  stack.push_back({fim::Itemset{}, 0});
  while (!stack.empty()) {
    Frame f = std::move(stack.back());
    stack.pop_back();
    for (std::size_t i = f.next_index; i < present.size(); ++i) {
      fim::Itemset cand = f.set.with(present[i]);
      const fim::Support sup = naive_support(db, cand);
      if (sup < min_count) continue;
      out.add(cand, sup);
      if (max_size == 0 || cand.size() < max_size)
        stack.push_back({std::move(cand), i + 1});
    }
  }
  out.canonicalize();
  return out;
}

/// Random transaction database: `num_trans` transactions over `universe`
/// items, each item included with probability `density`. Deterministic in
/// the seed.
inline fim::TransactionDb random_db(std::size_t num_trans,
                                    std::size_t universe, double density,
                                    std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> u(0.0, 1.0);
  std::vector<std::vector<fim::Item>> txs(num_trans);
  for (auto& tx : txs)
    for (fim::Item x = 0; x < universe; ++x)
      if (u(rng) < density) tx.push_back(x);
  return fim::TransactionDb::from_transactions(txs);
}

/// A copy of `view`, for gtest comparisons and failure messages.
inline std::vector<std::uint32_t> rows(std::span<const std::uint32_t> view) {
  return {view.begin(), view.end()};
}

/// A grouped layout built by hand, packed the way
/// CandidateTrie::flatten_level_grouped packs it.
inline gpapriori::CandidateTrie::GroupedLevel grouped_level(
    std::uint32_t prefix_len, const std::vector<std::uint32_t>& prefix_rows,
    const std::vector<std::uint32_t>& sibling_rows,
    const std::vector<std::uint32_t>& group_offsets) {
  gpapriori::CandidateTrie::GroupedLevel g;
  g.prefix_len = prefix_len;
  g.groups = group_offsets.size() - 1;
  g.candidates = sibling_rows.size();
  for (const auto* part : {&prefix_rows, &sibling_rows, &group_offsets})
    g.table.insert(g.table.end(), part->begin(), part->end());
  return g;
}

/// Deterministic pseudo-support in [0, 1000) of a candidate path — a pure
/// function of the item content, so every trie replica prunes identically
/// regardless of how its levels were generated.
inline fim::Support synth_support(std::span<const std::uint32_t> path) {
  std::uint64_t h = 1469598103934665603ull;
  for (std::uint32_t x : path) {
    h ^= x + 0x9e3779b9u;
    h *= 1099511628211ull;
  }
  return static_cast<fim::Support>(h % 1000);
}

}  // namespace testutil
