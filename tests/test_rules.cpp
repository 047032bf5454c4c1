#include "fim/rules.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "test_util.hpp"

namespace {

using fim::AssociationRule;
using fim::generate_rules;
using fim::Itemset;
using fim::ItemsetCollection;
using fim::RuleParams;

ItemsetCollection abc_collection() {
  // Supports over a notional 10-transaction database.
  ItemsetCollection c;
  c.add(Itemset{0}, 8);
  c.add(Itemset{1}, 6);
  c.add(Itemset{2}, 5);
  c.add(Itemset{0, 1}, 6);
  c.add(Itemset{0, 2}, 4);
  c.add(Itemset{1, 2}, 4);
  c.add(Itemset{0, 1, 2}, 4);
  return c;
}

const AssociationRule* find_rule(const std::vector<AssociationRule>& rules,
                                 const Itemset& a, const Itemset& c) {
  for (const auto& r : rules)
    if (r.antecedent == a && r.consequent == c) return &r;
  return nullptr;
}

TEST(Rules, ConfidenceComputation) {
  RuleParams p;
  p.min_confidence = 0.5;
  p.num_transactions = 10;
  const auto rules = generate_rules(abc_collection(), p);

  // {0} -> {1}: conf = sup(01)/sup(0) = 6/8.
  const auto* r = find_rule(rules, Itemset{0}, Itemset{1});
  ASSERT_NE(r, nullptr);
  EXPECT_DOUBLE_EQ(r->confidence, 0.75);
  EXPECT_EQ(r->support, 6u);
  // lift = 0.75 / (6/10) = 1.25.
  EXPECT_DOUBLE_EQ(r->lift, 1.25);
}

TEST(Rules, ThresholdFiltersLowConfidence) {
  RuleParams p;
  p.min_confidence = 0.9;
  const auto rules = generate_rules(abc_collection(), p);
  // {1} -> {0}: 6/6 = 1.0 passes; {0} -> {1}: 0.75 does not.
  EXPECT_NE(find_rule(rules, Itemset{1}, Itemset{0}), nullptr);
  EXPECT_EQ(find_rule(rules, Itemset{0}, Itemset{1}), nullptr);
}

TEST(Rules, StopCheckEndsGenerationAfterNItemsets) {
  // The stop check is polled once per frequent itemset (in collection
  // order); once it fires, generation returns the rules of the itemsets
  // before it, a prefix of the full list.
  RuleParams p;
  p.min_confidence = 0;
  p.num_transactions = 10;
  const auto all = generate_rules(abc_collection(), p);
  ASSERT_EQ(all.size(), 12u);
  // Rules after the first n itemsets: {0,1}, {0,2} and {1,2} give two
  // each, {0,1,2} gives six.
  const std::size_t want[] = {0, 0, 0, 0, 2, 4, 6, 12};
  for (std::size_t n = 0; n < std::size(want); ++n) {
    SCOPED_TRACE(n);
    std::size_t polls = 0;
    p.stop = [&] { return ++polls > n; };
    const auto some = generate_rules(abc_collection(), p);
    EXPECT_EQ(polls, std::min<std::size_t>(n + 1, 7));
    ASSERT_EQ(some.size(), want[n]);
    EXPECT_TRUE(std::equal(some.begin(), some.end(), all.begin()));
  }
}

TEST(Rules, MultiItemConsequentsAreGrown) {
  RuleParams p;
  p.min_confidence = 0.5;
  const auto rules = generate_rules(abc_collection(), p);
  // {0} -> {1,2}: sup(012)/sup(0) = 4/8 = 0.5, exactly at the bar.
  const auto* r = find_rule(rules, Itemset{0}, Itemset{1, 2});
  ASSERT_NE(r, nullptr);
  EXPECT_DOUBLE_EQ(r->confidence, 0.5);
}

TEST(Rules, NoRulesFromSingletonsOnly) {
  ItemsetCollection c;
  c.add(Itemset{0}, 3);
  c.add(Itemset{1}, 2);
  EXPECT_TRUE(generate_rules(c, {}).empty());
}

TEST(Rules, MissingSubsetSupportThrows) {
  ItemsetCollection c;
  c.add(Itemset{0, 1}, 4);  // {0} and {1} absent: not downward closed
  RuleParams p;
  p.min_confidence = 0.1;
  EXPECT_THROW((void)generate_rules(c, p), std::invalid_argument);
}

TEST(Rules, ExhaustiveAgainstNaiveEnumeration) {
  // Mine a small random database, generate rules, and check the rule set
  // matches a from-first-principles enumeration over all frequent sets.
  const auto db = testutil::random_db(60, 6, 0.45, 11);
  auto frequent = testutil::brute_force(db, 6);
  RuleParams p;
  p.min_confidence = 0.7;
  p.num_transactions = db.num_transactions();
  auto rules = generate_rules(frequent, p);

  frequent.build_index();
  std::size_t expected = 0;
  for (const auto& fs : frequent) {
    if (fs.items.size() < 2) continue;
    // Enumerate all non-empty proper subsets as consequents.
    const auto& items = fs.items.items();
    const std::size_t n = items.size();
    for (std::uint32_t mask = 1; mask + 1 < (1u << n); ++mask) {
      std::vector<fim::Item> cons, ante;
      for (std::size_t i = 0; i < n; ++i)
        ((mask >> i) & 1 ? cons : ante).push_back(items[i]);
      const auto sup_a = frequent.support_of(Itemset(ante));
      ASSERT_TRUE(sup_a.has_value());
      const double conf = static_cast<double>(fs.support) /
                          static_cast<double>(*sup_a);
      if (conf + 1e-12 >= p.min_confidence) {
        ++expected;
        EXPECT_NE(find_rule(rules, Itemset(ante), Itemset(cons)), nullptr)
            << Itemset(ante).to_string() << " -> "
            << Itemset(cons).to_string();
      }
    }
  }
  EXPECT_EQ(rules.size(), expected);
}

}  // namespace
