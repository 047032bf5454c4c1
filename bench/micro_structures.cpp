// Microbenchmarks (google-benchmark) for the host-side data structures the
// paper's design rests on: the Fig. 1 candidate trie, the static-bitset
// AND/popcount primitive, tidset intersection, and the baseline counting
// structures — the per-operation numbers behind the macro benches.

#include <benchmark/benchmark.h>

#include <numeric>

#include "baselines/baselines.hpp"
#include "core/candidate_trie.hpp"
#include "datagen/datagen.hpp"
#include "fim/fim.hpp"

namespace {

fim::TransactionDb bench_db(std::size_t trans, std::size_t items,
                            double density) {
  datagen::Rng rng(12345);
  std::vector<std::vector<fim::Item>> txs(trans);
  for (auto& tx : txs)
    for (fim::Item x = 0; x < items; ++x)
      if (rng.uniform() < density) tx.push_back(x);
  return fim::TransactionDb::from_transactions(txs);
}

// --- static bitset: the paper's core primitive ---

void BM_BitsetAndPopcount(benchmark::State& state) {
  const auto k = static_cast<std::size_t>(state.range(0));
  const auto num_bits = static_cast<std::size_t>(state.range(1));
  const auto db = bench_db(num_bits, 16, 0.4);
  std::vector<fim::Item> rows(16);
  std::iota(rows.begin(), rows.end(), 0u);
  const auto store = fim::BitsetStore::from_db(db, rows);
  std::vector<std::uint32_t> cand(k);
  std::iota(cand.begin(), cand.end(), 0u);
  for (auto _ : state)
    benchmark::DoNotOptimize(store.and_popcount(cand));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(k * store.words_per_row() * 4));
}
BENCHMARK(BM_BitsetAndPopcount)
    ->Args({2, 10'000})
    ->Args({4, 10'000})
    ->Args({8, 10'000})
    ->Args({2, 100'000})
    ->Args({4, 100'000});

void BM_TidsetIntersect(benchmark::State& state) {
  const auto num_trans = static_cast<std::size_t>(state.range(0));
  const auto db = bench_db(num_trans, 4, 0.4);
  const auto vert = fim::VerticalDb::from_horizontal(db);
  for (auto _ : state)
    benchmark::DoNotOptimize(
        fim::tidset_intersect_count(vert.tidsets[0], vert.tidsets[1]));
}
BENCHMARK(BM_TidsetIntersect)->Arg(10'000)->Arg(100'000);

// --- Fig. 1 trie operations ---

void BM_TrieExtendLevel2(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    gpapriori::CandidateTrie trie(n);
    benchmark::DoNotOptimize(trie.extend());
  }
}
BENCHMARK(BM_TrieExtendLevel2)->Arg(64)->Arg(256)->Arg(1024);

void BM_TrieFlatten(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  gpapriori::CandidateTrie trie(n);
  trie.extend();
  for (auto _ : state)
    benchmark::DoNotOptimize(trie.flatten_level_grouped(2, 64));
}
BENCHMARK(BM_TrieFlatten)->Arg(64)->Arg(256);

// --- baseline counting structures on identical workloads ---

void BM_CountingTrieTransaction(benchmark::State& state) {
  const auto db = bench_db(1, 40, 0.8);  // one long transaction
  std::vector<fim::Itemset> cands;
  for (fim::Item a = 0; a < 40; a += 2)
    for (fim::Item b = a + 2; b < 40; b += 2)
      cands.push_back(fim::Itemset{a, b});
  std::sort(cands.begin(), cands.end());
  miners::CountingTrie trie(cands);
  for (auto _ : state) trie.count_transaction(db.transaction(0));
}
BENCHMARK(BM_CountingTrieTransaction);

void BM_HashTreeTransaction(benchmark::State& state) {
  const auto db = bench_db(1, 40, 0.8);
  miners::HashTree tree(2);
  for (fim::Item a = 0; a < 40; a += 2)
    for (fim::Item b = a + 2; b < 40; b += 2)
      tree.insert(fim::Itemset{a, b});
  std::uint64_t stamp = 0;
  for (auto _ : state) tree.count_subsets(db.transaction(0), ++stamp);
}
BENCHMARK(BM_HashTreeTransaction);

// --- dataset generation throughput ---

void BM_QuestGeneration(benchmark::State& state) {
  datagen::QuestParams p;
  p.num_transactions = static_cast<std::size_t>(state.range(0));
  p.avg_transaction_len = 10;
  p.avg_pattern_len = 4;
  p.num_patterns = 500;
  p.num_items = 500;
  for (auto _ : state)
    benchmark::DoNotOptimize(datagen::generate_quest(p));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_QuestGeneration)->Arg(1000)->Arg(10'000);

}  // namespace

BENCHMARK_MAIN();
