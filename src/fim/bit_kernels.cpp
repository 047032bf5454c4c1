#include "fim/bit_kernels.hpp"

#include <bit>
#include <cstring>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#include <immintrin.h>
#define FIM_BITS_AVX512 1
#else
#define FIM_BITS_AVX512 0
#endif

namespace fim::bits {

namespace {

/// 64-byte step: the row alignment unit, one AVX-512 register.
constexpr std::size_t kChunkWords = 16;
constexpr std::size_t kChunkLanes = kChunkWords / 2;

inline const Word* row_ptr(const Rows& rows, std::size_t i) {
  return rows.base + rows.ids[i] * rows.stride;
}

/// Unaligned 64-bit load over two consecutive 32-bit words; memcpy (not
/// reinterpret_cast) so the read is strict-aliasing clean under UBSan and
/// still compiles to a single mov.
inline std::uint64_t load_u64(const Word* p) {
  std::uint64_t v = 0;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

inline void store_u64(Word* p, std::uint64_t v) {
  std::memcpy(p, &v, sizeof(v));
}

/// The operand that seeds the accumulator — the mask when there is one,
/// else row 0 — and the index of the first row still to AND in.
struct Seed {
  const Word* first;
  std::size_t rest;
};

inline Seed seed_of(const Rows& rows, const Word* mask) {
  return mask != nullptr ? Seed{mask, 0} : Seed{row_ptr(rows, 0), 1};
}

// ---- portable C++ ----------------------------------------------------------

/// AND of the seed and rows [rest, k) over `Lanes` 64-bit lanes at word w.
template <std::size_t Lanes>
inline void and_lanes(const Rows& rows, Seed s, std::size_t w,
                      std::uint64_t (&acc)[Lanes]) {
  for (std::size_t j = 0; j < Lanes; ++j)
    acc[j] = load_u64(s.first + w + 2 * j);
  for (std::size_t i = s.rest; i < rows.ids.size(); ++i) {
    const Word* p = row_ptr(rows, i) + w;
    for (std::size_t j = 0; j < Lanes; ++j) acc[j] &= load_u64(p + 2 * j);
  }
}

inline Word and_word(const Rows& rows, Seed s, std::size_t w) {
  Word acc = s.first[w];
  for (std::size_t i = s.rest; i < rows.ids.size(); ++i)
    acc &= row_ptr(rows, i)[w];
  return acc;
}

void and_rows_portable(const Rows& rows, std::size_t words, Word* out) {
  if (rows.ids.empty()) {
    for (std::size_t w = 0; w < words; ++w) out[w] = ~Word{0};
    return;
  }
  const Seed s = seed_of(rows, nullptr);
  std::size_t w = 0;
  for (; w + kChunkWords <= words; w += kChunkWords) {
    std::uint64_t acc[kChunkLanes];
    and_lanes(rows, s, w, acc);
    for (std::size_t j = 0; j < kChunkLanes; ++j)
      store_u64(out + w + 2 * j, acc[j]);
  }
  for (; w < words; ++w) out[w] = and_word(rows, s, w);
}

std::uint64_t and_popcount_portable(const Rows& rows, std::size_t words,
                                    const Word* mask) {
  if (rows.ids.empty() && mask == nullptr) return std::uint64_t{32} * words;
  const Seed s = seed_of(rows, mask);
  std::uint64_t n = 0;
  std::size_t w = 0;
  for (; w + kChunkWords <= words; w += kChunkWords) {
    std::uint64_t acc[kChunkLanes];
    and_lanes(rows, s, w, acc);
    for (std::size_t j = 0; j < kChunkLanes; ++j)
      n += static_cast<std::uint64_t>(std::popcount(acc[j]));
  }
  for (; w + 2 <= words; w += 2) {
    std::uint64_t acc[1];
    and_lanes(rows, s, w, acc);
    n += static_cast<std::uint64_t>(std::popcount(acc[0]));
  }
  if (w < words)
    n += static_cast<std::uint64_t>(std::popcount(and_word(rows, s, w)));
  return n;
}

constexpr Impl kPortable{"portable", &and_rows_portable,
                         &and_popcount_portable};

// ---- AVX-512 VPOPCNTDQ -----------------------------------------------------
//
// 16 words per step; the last partial step uses zero-masked loads (and a
// masked store), which touch no element past `words` — masked-off lanes
// never fault and never read.

#if FIM_BITS_AVX512
#define FIM_TARGET_AVX512 __attribute__((target("avx512f,avx512vpopcntdq")))

FIM_TARGET_AVX512 inline __m512i and_chunk(const Rows& rows, Seed s,
                                           std::size_t w, __mmask16 m) {
  __m512i acc = _mm512_maskz_loadu_epi32(m, s.first + w);
  for (std::size_t i = s.rest; i < rows.ids.size(); ++i)
    acc = _mm512_and_si512(acc,
                           _mm512_maskz_loadu_epi32(m, row_ptr(rows, i) + w));
  return acc;
}

FIM_TARGET_AVX512 inline __m512i and_chunk(const Rows& rows, Seed s,
                                           std::size_t w) {
  __m512i acc = _mm512_loadu_si512(s.first + w);
  for (std::size_t i = s.rest; i < rows.ids.size(); ++i)
    acc = _mm512_and_si512(acc, _mm512_loadu_si512(row_ptr(rows, i) + w));
  return acc;
}

inline __mmask16 tail_mask(std::size_t n) {
  return static_cast<__mmask16>((1u << n) - 1u);
}

FIM_TARGET_AVX512 void and_rows_avx512(const Rows& rows, std::size_t words,
                                       Word* out) {
  if (rows.ids.empty()) {
    for (std::size_t w = 0; w < words; ++w) out[w] = ~Word{0};
    return;
  }
  const Seed s = seed_of(rows, nullptr);
  std::size_t w = 0;
  for (; w + kChunkWords <= words; w += kChunkWords)
    _mm512_storeu_si512(out + w, and_chunk(rows, s, w));
  if (w < words) {
    const __mmask16 m = tail_mask(words - w);
    _mm512_mask_storeu_epi32(out + w, m, and_chunk(rows, s, w, m));
  }
}

FIM_TARGET_AVX512 std::uint64_t and_popcount_avx512(const Rows& rows,
                                                    std::size_t words,
                                                    const Word* mask) {
  if (rows.ids.empty() && mask == nullptr) return std::uint64_t{32} * words;
  const Seed s = seed_of(rows, mask);
  __m512i total = _mm512_setzero_si512();
  std::size_t w = 0;
  for (; w + kChunkWords <= words; w += kChunkWords)
    total = _mm512_add_epi64(total, _mm512_popcnt_epi64(and_chunk(rows, s, w)));
  if (w < words) {
    const __mmask16 m = tail_mask(words - w);
    total = _mm512_add_epi64(total,
                             _mm512_popcnt_epi64(and_chunk(rows, s, w, m)));
  }
  std::uint64_t lanes[8];
  _mm512_storeu_si512(lanes, total);
  std::uint64_t n = 0;
  for (const std::uint64_t v : lanes) n += v;
  return n;
}

constexpr Impl kAvx512{"avx512-vpopcntdq", &and_rows_avx512,
                       &and_popcount_avx512};
constexpr Impl kAll[] = {kPortable, kAvx512};

bool cpu_has_avx512_vpopcntdq() {
  __builtin_cpu_init();
  return __builtin_cpu_supports("avx512f") &&
         __builtin_cpu_supports("avx512vpopcntdq");
}
#else
constexpr Impl kAll[] = {kPortable};

bool cpu_has_avx512_vpopcntdq() { return false; }
#endif

}  // namespace

std::span<const Impl> implementations() {
  static const std::size_t runnable = cpu_has_avx512_vpopcntdq() ? 2 : 1;
  return {kAll, runnable};
}

const Impl& active() {
  static const Impl& chosen = implementations().back();
  return chosen;
}

}  // namespace fim::bits
