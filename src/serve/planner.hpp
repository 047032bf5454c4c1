#pragma once
// Driver planner for the mining service (DESIGN.md §14): when a request
// does not pin an algorithm, pick one from the dataset's shape statistics
// and the requested threshold. The decision space mirrors the degradation
// ladder's rungs plus the DFS alternative:
//
//   * GPApriori, tiled       — the default: dense/moderate data where the
//                              equivalence-class tiled kernel amortizes the
//                              shared prefix AND;
//   * GPApriori, untiled     — "static" counting for degenerate shapes
//                              (tiny frequent-1 set) where sibling groups
//                              collapse to singletons and tiling only adds
//                              dispatch overhead;
//   * GPApriori (partitioned) — when the estimated level-1 bitset would
//                              crowd the device arena, stream transaction
//                              partitions instead of risking the OOM rung;
//   * GPU Eclat              — sparse, wide datasets where levelwise
//                              candidate fronts explode but DFS tid-list
//                              intersection stays narrow.
//
// The planner only chooses among drivers that produce byte-identical
// itemsets (cross-miner equivalence is a repo-wide test invariant), so a
// planning mistake costs wall-time, never correctness.

#include <string>

#include "core/config.hpp"
#include "fim/dataset_stats.hpp"

namespace serve {

struct PlanDecision {
  std::string algo;    ///< miner registry name (gpapriori_cli list-algos)
  bool tiled = true;   ///< Config::tiled to apply when running it
  std::string reason;  ///< one-line human-readable justification
};

/// Picks a driver for mining `stats`-shaped data at `min_count`, under the
/// arena budget of `base` (Config supplies arena_bytes and device model).
[[nodiscard]] PlanDecision plan_driver(const fim::DatasetStats& stats,
                                       fim::Support min_count,
                                       const gpapriori::Config& base);

}  // namespace serve
