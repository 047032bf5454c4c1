#pragma once
// Driver planner for the mining service (DESIGN.md §14): when a request
// does not pin an algorithm, pick one from the dataset's shape statistics
// and the requested threshold. Three routes:
//
//   * GPApriori, tiled       — the default: dense/moderate data where the
//                              equivalence-class tiled kernel amortizes the
//                              shared prefix AND;
//   * GPApriori, untiled     — "static" counting for degenerate shapes
//                              (tiny frequent-1 set) where sibling groups
//                              collapse to singletons and tiling only adds
//                              dispatch overhead;
//   * GPU Eclat              — sparse, wide datasets where levelwise
//                              candidate fronts explode but DFS tid-list
//                              intersection stays narrow.
//
// Memory is not a route: a store too large for the device arena goes to
// GPApriori, whose degradation ladder cuts it into transaction partitions
// on the real out-of-memory error, sized from the arena it actually has.
//
// The planner only chooses among drivers that produce byte-identical
// itemsets (cross-miner equivalence is a repo-wide test invariant), so a
// planning mistake costs wall-time, never correctness.

#include <string>

#include "fim/dataset_stats.hpp"
#include "fim/itemset.hpp"

namespace serve {

struct PlanDecision {
  std::string algo;    ///< miner registry name (gpapriori_cli list-algos)
  bool tiled = true;   ///< Config::tiled to apply when running it
  std::string reason;  ///< one-line human-readable justification
};

/// Picks a driver for mining `stats`-shaped data at `min_count`.
[[nodiscard]] PlanDecision plan_driver(const fim::DatasetStats& stats,
                                       fim::Support min_count);

}  // namespace serve
