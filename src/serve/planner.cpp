#include "serve/planner.hpp"

#include <cstdio>

namespace serve {

namespace {

std::string fmt(const char* f, double a, double b) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), f, a, b);
  return buf;
}

}  // namespace

PlanDecision plan_driver(const fim::DatasetStats& stats,
                         fim::Support min_count,
                         const gpapriori::Config& base) {
  const double ntrans = static_cast<double>(stats.num_transactions);
  const double items = static_cast<double>(stats.distinct_items);
  const std::size_t words_per_row = (stats.num_transactions + 63) / 64;

  // Upper bound of the level-1 vertical bitset: every distinct item turns
  // frequent. The real footprint is smaller (preprocess drops infrequent
  // items), but the bound is what we know before parsing-time work, and
  // overshooting only costs the partitioned driver's streaming overhead.
  const double l1_bytes = items * static_cast<double>(words_per_row) * 8.0;
  const double budget = static_cast<double>(base.arena_bytes) / 2.0;
  if (l1_bytes > budget)
    return {"GPApriori (partitioned)", true,
            fmt("level-1 bitset bound %.0f MiB exceeds half the %.0f MiB "
                "arena; streaming transaction partitions",
                l1_bytes / (1 << 20),
                static_cast<double>(base.arena_bytes) / (1 << 20))};

  // Sparse and wide: the levelwise candidate front is the cost driver, DFS
  // tid-list intersection over equivalence classes stays narrow.
  if (stats.density < 0.05 && stats.distinct_items >= 256)
    return {"GPU Eclat", true,
            fmt("sparse (density %.4f, %.0f distinct items); DFS tid-list "
                "intersection beats levelwise fronts",
                stats.density, items)};

  // Degenerate frequent-1 set: at very high thresholds almost nothing
  // survives level 1, sibling groups are singletons, and the tiled
  // kernel's grouped dispatch is pure overhead over static counting.
  const double top_support = stats.top_item_frequency * ntrans;
  if (min_count > 0 && top_support > 0 &&
      static_cast<double>(min_count) > 0.9 * top_support)
    return {"GPApriori", false,
            fmt("threshold %.0f is within 10%% of the top item's support "
                "%.0f; few frequent-1 items, static counting",
                static_cast<double>(min_count), top_support)};

  return {"GPApriori", true,
          fmt("dense/moderate shape (density %.4f, avg length %.1f); "
              "eq-class tiled counting",
              stats.density, stats.avg_transaction_length)};
}

}  // namespace serve
