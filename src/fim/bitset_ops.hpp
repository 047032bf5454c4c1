#pragma once
// Static bitset vertical layout — the paper's core data structure.
//
// BitsetStore holds one fixed-width bitmask per (frequent) item in a single
// contiguous arena of 32-bit words. Row stride is aligned to the 64-byte
// boundary exactly as §IV.3 of the paper requires ("the size of vertical
// lists are aligned on the 64 byte boundary to ensure coalesced memory
// access"). Bit t of row r is set iff item r occurs in transaction t.
//
// 32-bit words are used (not 64) to match the GPU kernel's word size and
// the CUDA __popc intrinsic.

#include <cstdint>
#include <span>
#include <vector>

#include "fim/itemset.hpp"
#include "fim/transaction_db.hpp"
#include "fim/vertical.hpp"

namespace fim {

class BitsetStore {
 public:
  using Word = std::uint32_t;
  static constexpr std::size_t kAlignBytes = 64;
  static constexpr std::size_t kWordsPerAlign = kAlignBytes / sizeof(Word);
  static constexpr std::size_t kBitsPerWord = 32;

  BitsetStore() = default;
  /// `rows` bitmasks of `num_bits` bits each, zero-initialized.
  BitsetStore(std::size_t rows, std::size_t num_bits);

  /// Builds one row per entry of `row_items`: bit t set iff row_items[r]
  /// occurs in transaction t of `db`. `workers` > 1 shards the transaction
  /// range on word-aligned (32-transaction) boundaries over the shared
  /// HostPool — every shard then owns a disjoint set of words in every row,
  /// so the arena is byte-identical for any worker count (small databases
  /// stay serial regardless).
  static BitsetStore from_db(const TransactionDb& db,
                             std::span<const Item> row_items,
                             std::uint32_t workers = 1);
  /// Builds from explicit tidsets (row r <- tidsets[r]).
  static BitsetStore from_tidsets(
      const std::vector<std::vector<Tid>>& tidsets, std::size_t num_bits);

  [[nodiscard]] std::size_t rows() const { return rows_; }
  [[nodiscard]] std::size_t num_bits() const { return num_bits_; }
  /// Words of payload per row (excluding alignment padding).
  [[nodiscard]] std::size_t words_per_row() const { return words_per_row_; }
  /// Row-to-row distance in words; multiple of 16 (64 bytes).
  [[nodiscard]] std::size_t row_stride_words() const { return stride_; }

  void set_bit(std::size_t row, Tid t);
  [[nodiscard]] bool test(std::size_t row, Tid t) const;

  [[nodiscard]] std::span<const Word> row(std::size_t r) const {
    return {words_.data() + r * stride_, stride_};
  }
  /// The whole arena (rows() * row_stride_words() words) — what GPApriori
  /// copies to device memory once, at mining start.
  [[nodiscard]] std::span<const Word> arena() const { return words_; }

  [[nodiscard]] Support popcount_row(std::size_t r) const;

  /// Support of the itemset whose member rows are `row_ids`: popcount of the
  /// k-way AND. This is the CPU reference for the GPU support kernel, and
  /// the inner loop of the CPU_TEST baseline.
  [[nodiscard]] Support and_popcount(std::span<const std::uint32_t> row_ids) const;

  /// Materializes the k-way AND into `out` (stride_ words).
  void and_rows(std::span<const std::uint32_t> row_ids,
                std::span<Word> out) const;

  /// popcount(mask & row r) over the payload words — the sibling-sweep
  /// primitive of the tiled CPU path (mask = materialized prefix AND).
  [[nodiscard]] Support masked_popcount(std::span<const Word> mask,
                                        std::size_t r) const;

  /// Bits set per column (transaction) across all rows — the input to
  /// fim::plan_column_compaction.
  [[nodiscard]] std::vector<std::uint32_t> column_populations() const;

  /// Gathers the kept columns of every row into a fresh store with
  /// num_bits == plan.kept() (support-invariant for the miner when the
  /// plan came from plan_column_compaction with min_rows == 2 — see
  /// fim/vertical.hpp).
  [[nodiscard]] static BitsetStore compact_columns(
      const BitsetStore& src, const ColumnCompaction& plan);

  /// Converts one row back to a tidset (for tests / Fig. 2 round trips).
  [[nodiscard]] std::vector<Tid> row_tidset(std::size_t r) const;

 private:
  std::vector<Word> words_;
  std::size_t rows_ = 0;
  std::size_t num_bits_ = 0;
  std::size_t words_per_row_ = 0;
  std::size_t stride_ = 0;
};

}  // namespace fim
