#pragma once
// Association-rule generation (Agrawal & Srikant, VLDB'94 §3).
//
// Frequent itemsets are the paper's output; rules are the application its
// introduction motivates (market-basket analysis). Given a canonical
// ItemsetCollection, generate_rules emits every rule A -> C with
// A ∪ C frequent, A ∩ C = ∅, and confidence >= min_confidence, using the
// standard anti-monotone pruning on consequents.

#include <functional>
#include <vector>

#include "fim/itemset.hpp"
#include "fim/result.hpp"

namespace fim {

struct AssociationRule {
  Itemset antecedent;
  Itemset consequent;
  Support support = 0;     ///< support of antecedent ∪ consequent
  double confidence = 0;   ///< support(A∪C) / support(A)
  double lift = 0;         ///< confidence / (support(C)/|D|)

  friend bool operator==(const AssociationRule&,
                         const AssociationRule&) = default;
};

struct RuleParams {
  double min_confidence = 0.8;
  std::size_t num_transactions = 0;  ///< |D|, needed for lift
  /// Polled once per frequent itemset when set: generation stops, keeping
  /// the rules found so far, as soon as it returns true (a deadline or a
  /// cancel of the run the rules belong to).
  std::function<bool()> stop;
};

/// `frequent` must contain every frequent itemset with its support (as all
/// miners here produce). Throws std::invalid_argument if a needed subset
/// support is missing (i.e. the collection is not downward closed). The
/// rules come in itemset order, so a stopped run returns a prefix.
[[nodiscard]] std::vector<AssociationRule> generate_rules(
    const ItemsetCollection& frequent, const RuleParams& params);

}  // namespace fim
