#pragma once
// Vertical (tidset) database layout — paper Fig. 2B, left column.
//
// One sorted transaction-id list per item. This is the layout Borgelt/
// Bodon-class Apriori implementations and Eclat operate on; the paper's
// bitset layout (bitset_ops.hpp) is its fixed-width counterpart.

#include <cstdint>
#include <span>
#include <vector>

#include "fim/itemset.hpp"
#include "fim/transaction_db.hpp"

namespace fim {

struct VerticalDb {
  std::vector<std::vector<Tid>> tidsets;  ///< indexed by item id
  std::size_t num_transactions = 0;

  /// Inverts the horizontal database. `workers` > 1 shards the transaction
  /// range over the shared HostPool with a per-shard count matrix and
  /// in-order offset merge — tidsets are byte-identical for every worker
  /// count (small databases stay serial regardless).
  static VerticalDb from_horizontal(const TransactionDb& db,
                                    std::uint32_t workers = 1);

  [[nodiscard]] Support support(Item x) const {
    return static_cast<Support>(tidsets[x].size());
  }
};

/// Sorted-list intersection (the tidset join of Fig. 3a).
[[nodiscard]] std::vector<Tid> tidset_intersect(std::span<const Tid> a,
                                                std::span<const Tid> b);

/// a \ b, both sorted — the diffset primitive (Zaki & Gouda).
[[nodiscard]] std::vector<Tid> tidset_difference(std::span<const Tid> a,
                                                 std::span<const Tid> b);

/// |a ∩ b| without materializing the intersection.
[[nodiscard]] Support tidset_intersect_count(std::span<const Tid> a,
                                             std::span<const Tid> b);

/// Column (transaction) remap produced by plan_column_compaction: kept
/// columns are renumbered densely in ascending original order, dropped
/// columns map to kDropped.
///
/// SUPPORT INVARIANCE. Dropping a column with per-row population < 2 never
/// changes the support of any itemset the miner still has to count: after
/// level 1 the store holds only frequent-item rows, and every later
/// candidate is a set of >= 2 of those rows. A transaction column set in
/// fewer than 2 rows cannot be set in the AND of >= 2 rows, so it
/// contributes 0 to every remaining popcount. Renumbering the kept columns
/// is a bijection on the surviving bit positions, and popcount is
/// permutation-invariant.
struct ColumnCompaction {
  static constexpr std::uint32_t kDropped = ~std::uint32_t{0};
  std::vector<Tid> new_to_old;           ///< kept-column -> original column
  std::vector<std::uint32_t> old_to_new; ///< original -> kept or kDropped
  std::size_t original_columns = 0;

  [[nodiscard]] std::size_t kept() const { return new_to_old.size(); }
};

/// Plans the remap that keeps exactly the columns whose population
/// (`per_column_counts[t]` = number of live rows containing transaction t)
/// is >= `min_rows`. Use min_rows = 2 for the support-invariant plan above.
[[nodiscard]] ColumnCompaction plan_column_compaction(
    std::span<const std::uint32_t> per_column_counts,
    std::uint32_t min_rows);

}  // namespace fim
