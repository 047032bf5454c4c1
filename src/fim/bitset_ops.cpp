#include "fim/bitset_ops.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>

#include "fim/bit_kernels.hpp"
#include "gpusim/host_pool.hpp"

namespace fim {

namespace {
/// Transaction count below which from_db stays serial for any `workers`
/// value: pool dispatch costs more than the build. Shape-deterministic.
constexpr std::size_t kMinParallelTransactions = 4096;
}  // namespace

BitsetStore::BitsetStore(std::size_t rows, std::size_t num_bits)
    : rows_(rows), num_bits_(num_bits) {
  words_per_row_ = (num_bits + kBitsPerWord - 1) / kBitsPerWord;
  stride_ = (words_per_row_ + kWordsPerAlign - 1) / kWordsPerAlign *
            kWordsPerAlign;
  if (stride_ == 0) stride_ = kWordsPerAlign;  // keep rows addressable
  words_.assign(rows_ * stride_, 0);
}

BitsetStore BitsetStore::from_db(const TransactionDb& db,
                                 std::span<const Item> row_items,
                                 std::uint32_t workers) {
  const std::size_t num_trans = db.num_transactions();
  BitsetStore bs(row_items.size(), num_trans);
  // Invert: item -> row (only for items we keep).
  std::vector<std::int64_t> row_of(db.item_universe(), -1);
  for (std::size_t r = 0; r < row_items.size(); ++r) {
    if (row_items[r] >= db.item_universe())
      throw std::out_of_range("BitsetStore::from_db: item outside universe");
    row_of[row_items[r]] = static_cast<std::int64_t>(r);
  }
  // Hot path: this builds the whole vertical database (hundreds of
  // millions of bits at full scale), so write words directly instead of
  // going through the bounds-checked set_bit. Shards split the transaction
  // range on 32-transaction (word) boundaries: every shard sets bits in a
  // disjoint set of words of each row, making the parallel build race-free
  // and the arena byte-identical for any worker count.
  const std::size_t total_words = (num_trans + kBitsPerWord - 1) / kBitsPerWord;
  std::uint32_t nshards = 1;
  if (workers > 1 && num_trans >= kMinParallelTransactions)
    nshards = static_cast<std::uint32_t>(
        std::min<std::size_t>(workers, total_words));
  gpusim::HostPool::instance().run(nshards, [&](std::uint32_t s) {
    const std::size_t tlo = total_words * s / nshards * kBitsPerWord;
    const std::size_t thi =
        std::min(num_trans, total_words * (s + 1) / nshards * kBitsPerWord);
    for (std::size_t t = tlo; t < thi; ++t) {
      const std::size_t word = t / kBitsPerWord;
      const Word mask = Word{1} << (t % kBitsPerWord);
      for (Item x : db.transaction(t)) {
        const std::int64_t r = row_of[x];
        if (r >= 0)
          bs.words_[static_cast<std::size_t>(r) * bs.stride_ + word] |= mask;
      }
    }
  });
  return bs;
}

BitsetStore BitsetStore::from_tidsets(
    const std::vector<std::vector<Tid>>& tidsets, std::size_t num_bits) {
  BitsetStore bs(tidsets.size(), num_bits);
  for (std::size_t r = 0; r < tidsets.size(); ++r)
    for (Tid t : tidsets[r]) bs.set_bit(r, t);
  return bs;
}

void BitsetStore::set_bit(std::size_t row, Tid t) {
  if (row >= rows_ || t >= num_bits_)
    throw std::out_of_range("BitsetStore::set_bit out of range");
  words_[row * stride_ + t / kBitsPerWord] |= Word{1} << (t % kBitsPerWord);
}

bool BitsetStore::test(std::size_t row, Tid t) const {
  if (row >= rows_ || t >= num_bits_)
    throw std::out_of_range("BitsetStore::test out of range");
  return (words_[row * stride_ + t / kBitsPerWord] >> (t % kBitsPerWord)) & 1u;
}

Support BitsetStore::popcount_row(std::size_t r) const {
  const auto id = static_cast<std::uint32_t>(r);
  return static_cast<Support>(
      bits::and_popcount({words_.data(), stride_, {&id, 1}}, words_per_row_));
}

Support BitsetStore::and_popcount(
    std::span<const std::uint32_t> row_ids) const {
  if (row_ids.empty()) return static_cast<Support>(num_bits_);
  return static_cast<Support>(
      bits::and_popcount({words_.data(), stride_, row_ids}, words_per_row_));
}

void BitsetStore::and_rows(std::span<const std::uint32_t> row_ids,
                           std::span<Word> out) const {
  if (out.size() < words_per_row_)
    throw std::out_of_range("BitsetStore::and_rows: output too small");
  bits::and_rows({words_.data(), stride_, row_ids}, words_per_row_,
                 out.data());
}

Support BitsetStore::masked_popcount(std::span<const Word> mask,
                                     std::size_t r) const {
  if (mask.size() < words_per_row_)
    throw std::out_of_range("BitsetStore::masked_popcount: mask too small");
  const auto id = static_cast<std::uint32_t>(r);
  return static_cast<Support>(bits::and_popcount(
      {words_.data(), stride_, {&id, 1}}, words_per_row_, mask.data()));
}

std::vector<std::uint32_t> BitsetStore::column_populations() const {
  std::vector<std::uint32_t> counts(num_bits_, 0);
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t w = 0; w < words_per_row_; ++w) {
      Word v = words_[r * stride_ + w];
      while (v) {
        const auto b = static_cast<std::size_t>(std::countr_zero(v));
        counts[w * kBitsPerWord + b] += 1;
        v &= v - 1;
      }
    }
  }
  return counts;
}

BitsetStore BitsetStore::compact_columns(const BitsetStore& src,
                                         const ColumnCompaction& plan) {
  if (plan.old_to_new.size() != src.num_bits_)
    throw std::invalid_argument(
        "BitsetStore::compact_columns: plan column count mismatch");
  BitsetStore out(src.rows_, plan.kept());
  // Gather set bits through the remap; dropped columns vanish, kept ones
  // keep their relative order (old_to_new is monotone on kept columns).
  for (std::size_t r = 0; r < src.rows_; ++r) {
    for (std::size_t w = 0; w < src.words_per_row_; ++w) {
      Word v = src.words_[r * src.stride_ + w];
      while (v) {
        const auto b = static_cast<std::size_t>(std::countr_zero(v));
        const std::uint32_t nt = plan.old_to_new[w * kBitsPerWord + b];
        if (nt != ColumnCompaction::kDropped)
          out.words_[r * out.stride_ + nt / kBitsPerWord] |=
              Word{1} << (nt % kBitsPerWord);
        v &= v - 1;
      }
    }
  }
  return out;
}

std::vector<Tid> BitsetStore::row_tidset(std::size_t r) const {
  std::vector<Tid> out;
  for (std::size_t w = 0; w < words_per_row_; ++w) {
    Word v = words_[r * stride_ + w];
    while (v) {
      const int b = std::countr_zero(v);
      out.push_back(static_cast<Tid>(w * kBitsPerWord +
                                     static_cast<std::size_t>(b)));
      v &= v - 1;
    }
  }
  return out;
}

}  // namespace fim
