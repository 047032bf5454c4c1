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
                         fim::Support min_count) {
  const double ntrans = static_cast<double>(stats.num_transactions);
  const double items = static_cast<double>(stats.distinct_items);

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
