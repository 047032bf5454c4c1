#include "fim/rules.hpp"

#include <optional>
#include <stdexcept>

namespace fim {
namespace {

// Enumerates non-empty proper subsets of `z` as consequents, growing them
// one item at a time (ap-genrules): if a rule with consequent C fails the
// confidence bar, no superset of C can pass it (support(A) only grows as A
// shrinks... actually as C grows A shrinks and support(A) grows), so we
// only extend passing consequents.
void grow_consequents(const Itemset& z, Support sup_z,
                      const std::vector<Itemset>& consequents,
                      const ItemsetCollection& frequent,
                      const RuleParams& params,
                      std::vector<AssociationRule>& out) {
  std::vector<Itemset> next;
  for (const auto& c : consequents) {
    const Itemset a = z.set_difference(c);
    if (a.empty()) continue;
    const auto sup_a = frequent.support_of(a);
    if (!sup_a)
      throw std::invalid_argument(
          "generate_rules: collection is not downward closed (missing " +
          a.to_string() + ")");
    const double conf =
        static_cast<double>(sup_z) / static_cast<double>(*sup_a);
    if (conf + 1e-12 < params.min_confidence) continue;

    AssociationRule r;
    r.antecedent = a;
    r.consequent = c;
    r.support = sup_z;
    r.confidence = conf;
    if (params.num_transactions) {
      const auto sup_c = frequent.support_of(c);
      if (sup_c && *sup_c > 0)
        r.lift = conf / (static_cast<double>(*sup_c) /
                         static_cast<double>(params.num_transactions));
    }
    out.push_back(std::move(r));
    next.push_back(c);
  }

  // Join passing consequents that share all but their last item (the same
  // k-1 prefix join Apriori uses for candidates).
  std::vector<Itemset> grown;
  for (std::size_t i = 0; i < next.size(); ++i) {
    for (std::size_t j = i + 1; j < next.size(); ++j) {
      const auto& a = next[i].items();
      const auto& b = next[j].items();
      if (a.size() != b.size()) continue;
      bool same_prefix = true;
      for (std::size_t k = 0; k + 1 < a.size(); ++k)
        if (a[k] != b[k]) {
          same_prefix = false;
          break;
        }
      if (!same_prefix) continue;
      Itemset u = next[i].set_union(next[j]);
      if (u.size() == a.size() + 1 && u.size() < z.size())
        grown.push_back(std::move(u));
    }
  }
  if (!grown.empty())
    grow_consequents(z, sup_z, grown, frequent, params, out);
}

}  // namespace

std::vector<AssociationRule> generate_rules(const ItemsetCollection& frequent,
                                            const RuleParams& params) {
  // Indexed on first use, so a run stopped before its first rule pays
  // for no copy of the collection.
  std::optional<ItemsetCollection> indexed;
  std::vector<AssociationRule> out;
  for (const auto& fs : frequent) {
    if (params.stop && params.stop()) break;
    if (fs.items.size() < 2) continue;
    if (!indexed) {
      indexed.emplace(frequent);
      indexed->build_index();
    }
    // Seed with 1-item consequents.
    std::vector<Itemset> ones;
    ones.reserve(fs.items.size());
    for (Item x : fs.items) ones.push_back(Itemset{x});
    grow_consequents(fs.items, fs.support, ones, *indexed, params, out);
  }
  return out;
}

}  // namespace fim
