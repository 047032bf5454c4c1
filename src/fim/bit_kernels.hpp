#pragma once
// AND + popcount over bitset rows — the one hot loop of GPApriori's
// complete intersection (DESIGN.md §9).
//
// Rows are the BitsetStore layout: 32-bit words, row r at base + r * stride
// (stride a multiple of 16 words, 64 bytes), `words` payload words each.
// Two operations cover every caller: the k-way AND of some rows into a
// buffer, and the fused AND + popcount (optionally against a mask buffer,
// e.g. a materialized prefix AND). Neither allocates, and neither reads a
// word at or past `words` of any row, mask or output.
//
// There are exactly two implementations: portable C++ (64-bit lanes; on
// x86-64 the build compiles src/ with -mpopcnt, so std::popcount is one
// instruction) and AVX-512 VPOPCNTDQ (16 words per step, masked tails).
// CPUID picks one on first use; nothing else selects it.

#include <cstddef>
#include <cstdint>
#include <span>

namespace fim::bits {

using Word = std::uint32_t;

/// The rows `ids` of an arena: row i's payload starts at
/// base + ids[i] * stride.
struct Rows {
  const Word* base = nullptr;
  std::size_t stride = 0;
  std::span<const std::uint32_t> ids;
};

/// One implementation of both operations.
struct Impl {
  const char* name;
  /// out[w] = AND of every row's word w, for w < words (all ones when
  /// `rows` is empty).
  void (*and_rows)(const Rows& rows, std::size_t words, Word* out);
  /// Sum over w < words of popcount(mask[w] & AND of every row's word w).
  /// A null mask is all ones; with no rows and no mask this is 32 * words.
  std::uint64_t (*and_popcount)(const Rows& rows, std::size_t words,
                                const Word* mask);
};

/// Every implementation this host can run, the portable one first.
[[nodiscard]] std::span<const Impl> implementations();

/// The implementation the functions below use: AVX-512 VPOPCNTDQ when
/// CPUID reports it (and the OS saves its registers), else portable.
/// Chosen once per process.
[[nodiscard]] const Impl& active();

inline void and_rows(const Rows& rows, std::size_t words, Word* out) {
  active().and_rows(rows, words, out);
}

[[nodiscard]] inline std::uint64_t and_popcount(const Rows& rows,
                                                std::size_t words,
                                                const Word* mask = nullptr) {
  return active().and_popcount(rows, words, mask);
}

}  // namespace fim::bits
