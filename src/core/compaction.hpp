#pragma once
// The vertical bitset compaction every mining driver gets (DESIGN.md §12):
// one column drop after level 1. The support-invariance argument lives
// with the plan type in fim/vertical.hpp; this header binds it to the
// drivers' store slices and the metrics registry.

#include <cstdint>
#include <vector>

#include "fim/bitset_ops.hpp"
#include "fim/vertical.hpp"
#include "obs/metrics.hpp"

namespace gpapriori {

/// Applies the initial (post-level-1) column compaction to every slice:
/// transaction columns covered by fewer than two frequent items cannot
/// support any k >= 2 candidate (fim/vertical.hpp), so dropping them is
/// support-invariant — per slice, since partitioned supports are summed
/// per slice. Returns the total columns dropped.
inline std::uint64_t compact_slices_initial(
    std::vector<fim::BitsetStore>& slices) {
  std::uint64_t dropped = 0;
  for (auto& s : slices) {
    const std::vector<std::uint32_t> counts = s.column_populations();
    const fim::ColumnCompaction plan = fim::plan_column_compaction(counts, 2);
    if (plan.kept() < plan.original_columns) {
      dropped += plan.original_columns - plan.kept();
      s = fim::BitsetStore::compact_columns(s, plan);
    }
  }
  if (dropped != 0)
    obs::MetricsRegistry::global().add(obs::Counter::kCompactColumnsDropped,
                                       dropped);
  return dropped;
}

}  // namespace gpapriori
