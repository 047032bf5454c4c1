#include "fim/result.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <random>
#include <set>
#include <sstream>
#include <vector>

namespace {

using fim::Itemset;
using fim::ItemsetCollection;

ItemsetCollection sample() {
  ItemsetCollection c;
  c.add(Itemset{2}, 5);
  c.add(Itemset{1}, 7);
  c.add(Itemset{1, 2}, 3);
  return c;
}

TEST(ItemsetCollection, CanonicalizeSortsLexicographically) {
  auto c = sample();
  c.canonicalize();
  EXPECT_EQ(c.sets()[0].items, Itemset{1});
  EXPECT_EQ(c.sets()[1].items, (Itemset{1, 2}));
  EXPECT_EQ(c.sets()[2].items, Itemset{2});
}

TEST(ItemsetCollection, SupportLookupLinearAndIndexed) {
  auto c = sample();
  EXPECT_EQ(c.support_of(Itemset{1, 2}), 3u);
  EXPECT_EQ(c.support_of(Itemset{9}), std::nullopt);
  c.build_index();
  EXPECT_EQ(c.support_of(Itemset{1}), 7u);
  EXPECT_EQ(c.support_of(Itemset{3}), std::nullopt);
}

TEST(ItemsetCollection, CountsBySize) {
  auto c = sample();
  c.add(Itemset{1, 2, 3}, 1);
  const auto counts = c.counts_by_size();
  ASSERT_EQ(counts.size(), 4u);
  EXPECT_EQ(counts[1], 2u);
  EXPECT_EQ(counts[2], 1u);
  EXPECT_EQ(counts[3], 1u);
  EXPECT_EQ(c.max_size(), 3u);
}

TEST(ItemsetCollection, EquivalenceIgnoresOrder) {
  ItemsetCollection a, b;
  a.add(Itemset{1}, 2);
  a.add(Itemset{2}, 3);
  b.add(Itemset{2}, 3);
  b.add(Itemset{1}, 2);
  EXPECT_TRUE(a.equivalent_to(b));
}

TEST(ItemsetCollection, EquivalenceIsSupportSensitive) {
  ItemsetCollection a, b;
  a.add(Itemset{1}, 2);
  b.add(Itemset{1}, 3);
  EXPECT_FALSE(a.equivalent_to(b));
}

TEST(ItemsetCollection, EquivalenceIsSizeSensitive) {
  ItemsetCollection a, b;
  a.add(Itemset{1}, 2);
  EXPECT_FALSE(a.equivalent_to(b));
  EXPECT_TRUE(b.equivalent_to(ItemsetCollection{}));
}

TEST(ItemsetCollection, ToStringCanonical) {
  auto c = sample();
  EXPECT_EQ(c.to_string(), "1 (7)\n1 2 (3)\n2 (5)\n");
}

TEST(ItemsetCollection, EmptyCollection) {
  const ItemsetCollection c;
  EXPECT_TRUE(c.empty());
  EXPECT_EQ(c.max_size(), 0u);
  EXPECT_TRUE(c.counts_by_size().empty());
}

// ---------------------------------------------------------------------------
// to_string against the implementation it replaced (a deep copy, a re-sort
// and two ostringstreams per line), kept here as the oracle.

std::string reference_to_string(const ItemsetCollection& c) {
  auto sorted = c.sets();
  std::sort(sorted.begin(), sorted.end(),
            [](const fim::FrequentItemset& a, const fim::FrequentItemset& b) {
              return a.items < b.items;
            });
  std::ostringstream os;
  for (const auto& s : sorted)
    os << s.items.to_string() << " (" << s.support << ")\n";
  return os.str();
}

/// Distinct random itemsets (the empty one included now and then) with
/// random supports; items and supports reach UINT32_MAX.
ItemsetCollection random_collection(std::mt19937& rng, bool sorted) {
  constexpr std::uint32_t kMax = std::numeric_limits<std::uint32_t>::max();
  const auto value = [&]() -> std::uint32_t {
    const auto r = static_cast<std::uint32_t>(rng());
    switch (rng() % 4) {
      case 0: return kMax - r % 3;
      case 1: return r;
      default: return r % 50;
    }
  };
  std::set<Itemset> distinct;
  const std::size_t n = rng() % 300;
  while (distinct.size() < n) {
    std::vector<fim::Item> items(rng() % 6);
    for (auto& x : items) x = value();
    distinct.insert(Itemset(std::move(items)));
  }
  std::vector<Itemset> order(distinct.begin(), distinct.end());
  if (!sorted) std::shuffle(order.begin(), order.end(), rng);
  ItemsetCollection c;
  for (auto& s : order) c.add(std::move(s), value());
  return c;
}

TEST(ItemsetCollection, ToStringMatchesReferenceRendering) {
  std::mt19937 rng(0x70571);
  for (int i = 0; i < 400; ++i) {
    const ItemsetCollection c = random_collection(rng, /*sorted=*/i % 2 == 0);
    ASSERT_EQ(c.to_string(), reference_to_string(c)) << "collection " << i;
  }
}

TEST(ItemsetCollection, ToStringEdgeCases) {
  constexpr std::uint32_t kMax = std::numeric_limits<std::uint32_t>::max();
  const ItemsetCollection empty;
  EXPECT_EQ(empty.to_string(), "");
  EXPECT_EQ(empty.to_string(), reference_to_string(empty));

  ItemsetCollection c;
  c.add(Itemset{kMax}, kMax);
  c.add(Itemset{}, 0);
  c.add(Itemset{0, kMax}, 1);
  EXPECT_EQ(c.to_string(), reference_to_string(c));
  EXPECT_EQ(c.to_string(),
            " (0)\n0 4294967295 (1)\n4294967295 (4294967295)\n");
}

}  // namespace
