// Extended AVX-512 backend (512-bit with BW+VBMI): 64 x int8, 32 x int16,
// 16 x int32.
//
// This is the forward-port the paper's Sec. II-A anticipates ("the
// incoming AVX-512"): the same kernel templates that ran on IMCI-profile
// 32-bit lanes get narrow integer lanes back, doubling/quadrupling lane
// counts. The cross-lane rshift_x_fill uses permutexvar at the lane
// granularity - epi8 requires VBMI, which is why this backend gates on
// Ice-Lake-and-newer CPUs while vec_avx512.h runs anywhere with F+BW+VL.
#pragma once

#if defined(__AVX512BW__) && defined(__AVX512VBMI__)

// Silence GCC PR105593: _mm512_undefined_epi32()'s `__Y = __Y;` idiom
// false-positives -Wmaybe-uninitialized when max/permutexvar intrinsics
// are inlined into loops. See vec_avx2.h for the full note.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#pragma GCC diagnostic ignored "-Wuninitialized"
#include <immintrin.h>
#pragma GCC diagnostic pop

#include <cstdint>

#include "simd/isa.h"
#include "simd/vec_scalar.h"  // detail::seg_scan_max_lanes

namespace aalign::simd {

namespace detail {

// Popcount of a 512-bit AND, over raw bits (lane width irrelevant). BW
// gives pshufb and psadbw at 512 bits, so the whole Mula nibble-LUT
// scheme stays in-register: one shuffle pair per 64 bytes, psadbw folds
// to eight u64 partial sums, reduce_add finishes.
inline std::uint64_t popcnt_and_512(__m512i a, __m512i b) {
  const __m512i v = _mm512_and_si512(a, b);
  const __m512i lut = _mm512_broadcast_i32x4(
      _mm_setr_epi8(0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4));
  const __m512i low = _mm512_set1_epi8(0x0F);
  const __m512i lo = _mm512_shuffle_epi8(lut, _mm512_and_si512(v, low));
  const __m512i hi = _mm512_shuffle_epi8(
      lut, _mm512_and_si512(_mm512_srli_epi16(v, 4), low));
  const __m512i sum =
      _mm512_sad_epu8(_mm512_add_epi8(lo, hi), _mm512_setzero_si512());
  return static_cast<std::uint64_t>(_mm512_reduce_add_epi64(sum));
}

// vpermt2b indices of one 64 x 64 byte-transpose stage k: the stage swaps
// bit k of the register index with bit k of the byte index, so for a
// register pair (a = bit k clear, b = bit k set) the low output takes
// byte (i with bit k cleared) and the high output byte (i with bit k set),
// each from b when byte bit k of i is set (index bit 6 selects b). Six
// stages, k = 0..5, move byte c of register r to byte r of register c.
struct TransposeIdx {
  alignas(64) std::uint8_t lo[6][64];
  alignas(64) std::uint8_t hi[6][64];
};

constexpr TransposeIdx make_transpose_idx() {
  TransposeIdx t{};
  for (int k = 0; k < 6; ++k) {
    for (int i = 0; i < 64; ++i) {
      const int from_b = ((i >> k) & 1) << 6;
      t.lo[k][i] = static_cast<std::uint8_t>((i & ~(1 << k)) | from_b);
      t.hi[k][i] = static_cast<std::uint8_t>(i | (1 << k) | from_b);
    }
  }
  return t;
}

inline constexpr TransposeIdx kTransposeIdx = make_transpose_idx();

// Stages k0, k0 + 1, k0 + 2 over eight registers whose register-index bits
// k0..k0+2 are the group's own index bits 0..2.
inline void transpose_stages3(__m512i (&r)[8], int k0) {
  for (int s = 0; s < 3; ++s) {
    const int k = k0 + s;
    const __m512i lo = _mm512_load_si512(kTransposeIdx.lo[k]);
    const __m512i hi = _mm512_load_si512(kTransposeIdx.hi[k]);
    for (int i = 0; i < 8; ++i) {
      if ((i >> s) & 1) continue;
      const __m512i a = r[i];
      const __m512i b = r[i | (1 << s)];
      r[i] = _mm512_permutex2var_epi8(a, lo, b);
      r[i | (1 << s)] = _mm512_permutex2var_epi8(a, hi, b);
    }
  }
}

}  // namespace detail

template <class T, class Isa>
struct VecOps;

template <>
struct VecOps<std::int8_t, Avx512BwTag> {
  using value_type = std::int8_t;
  using reg = __m512i;
  static constexpr int kWidth = 64;

  static reg load(const value_type* p) { return _mm512_load_si512(p); }
  static void store(value_type* p, reg v) { _mm512_store_si512(p, v); }
  static reg set1(value_type x) { return _mm512_set1_epi8(x); }
  static reg adds(reg a, reg b) { return _mm512_adds_epi8(a, b); }
  static reg subs(reg a, reg b) { return _mm512_subs_epi8(a, b); }
  static reg subus(reg a, reg b) { return _mm512_subs_epu8(a, b); }
  static reg max(reg a, reg b) { return _mm512_max_epi8(a, b); }
  static reg min(reg a, reg b) { return _mm512_min_epi8(a, b); }
  static bool any_gt(reg a, reg b) {
    return _mm512_cmpgt_epi8_mask(a, b) != 0;
  }
  static std::uint64_t eq_mask(reg a, reg b) {
    return _mm512_cmpeq_epi8_mask(a, b);
  }
  static reg shift_insert(reg v, value_type fill) {
    static const reg idx = [] {
      alignas(64) std::int8_t a[64];
      a[0] = 0;
      for (int l = 1; l < 64; ++l) a[l] = static_cast<std::int8_t>(l - 1);
      return _mm512_load_si512(a);
    }();
    const reg r = _mm512_permutexvar_epi8(idx, v);
    return _mm512_mask_mov_epi8(r, __mmask64{1}, _mm512_set1_epi8(fill));
  }
  // In-register 32-entry table lookup (indices 0..31; `row` 64-byte
  // aligned with >= 64 readable entries): vpermb makes the inter kernel's
  // score-profile build one permute per alphabet symbol. Needs VBMI.
  static reg table_lookup(const value_type* row, reg idx) {
    return _mm512_permutexvar_epi8(idx, _mm512_load_si512(row));
  }
  // Subject codes of the 64 columns [t0, t0 + 64) for 64 lanes, one
  // register row per column: out[c * 64 + l] = t0 + c < lengths[l] ?
  // subjects[l][t0 + c] : pad (`out` 64-byte aligned, 4 KiB). Each lane's
  // 64 residues are one masked load, so nothing past a subject's end is
  // read; six vpermt2b stages transpose the block in two passes of eight
  // registers (register-index bits 0..2, then 3..5). Needs VBMI.
  static void column_codes(const std::uint8_t* const* subjects,
                           const int* lengths, int t0, value_type pad,
                           value_type* out) {
    const __m512i v_pad = _mm512_set1_epi8(pad);
    for (int g = 0; g < 64; g += 8) {
      __m512i r[8];
      for (int i = 0; i < 8; ++i) {
        const int rem = lengths[g + i] - t0;
        const __mmask64 k = rem >= 64 ? ~__mmask64{0}
                            : rem <= 0 ? __mmask64{0}
                                       : (__mmask64{1} << rem) - 1;
        const std::uint8_t* p = subjects[g + i] + (rem > 0 ? t0 : 0);
        r[i] = _mm512_mask_loadu_epi8(v_pad, k, p);
      }
      detail::transpose_stages3(r, 0);
      for (int i = 0; i < 8; ++i) {
        _mm512_store_si512(out + (g + i) * 64, r[i]);
      }
    }
    for (int g = 0; g < 8; ++g) {
      __m512i r[8];
      for (int i = 0; i < 8; ++i) {
        r[i] = _mm512_load_si512(out + (g + 8 * i) * 64);
      }
      detail::transpose_stages3(r, 3);
      for (int i = 0; i < 8; ++i) {
        _mm512_store_si512(out + (g + 8 * i) * 64, r[i]);
      }
    }
  }
  static std::uint64_t popcount_and(reg a, reg b) {
    return detail::popcnt_and_512(a, b);
  }
  static void to_array(reg v, value_type* out) { _mm512_storeu_si512(out, v); }
  static reg from_array(const value_type* p) { return _mm512_loadu_si512(p); }
  // Exclusive shifted max-scan (deconstructed lazy-F carry): saturating
  // lanes spill and run the scalar core - per-step stride weights can
  // exceed the 8-bit range, which the wide scalar carry handles exactly
  // (a Kogge-Stone tree could not represent its 2^r-weighted steps).
  static reg seg_scan_max(reg v, long step, value_type fill) {
    alignas(64) value_type a[kWidth];
    alignas(64) value_type r[kWidth];
    to_array(v, a);
    detail::seg_scan_max_lanes<value_type, kWidth>(a, r, step, fill);
    return from_array(r);
  }
};

template <>
struct VecOps<std::int16_t, Avx512BwTag> {
  using value_type = std::int16_t;
  using reg = __m512i;
  static constexpr int kWidth = 32;

  static reg load(const value_type* p) { return _mm512_load_si512(p); }
  static void store(value_type* p, reg v) { _mm512_store_si512(p, v); }
  static reg set1(value_type x) { return _mm512_set1_epi16(x); }
  static reg adds(reg a, reg b) { return _mm512_adds_epi16(a, b); }
  static reg subs(reg a, reg b) { return _mm512_subs_epi16(a, b); }
  static reg subus(reg a, reg b) { return _mm512_subs_epu16(a, b); }
  static reg max(reg a, reg b) { return _mm512_max_epi16(a, b); }
  static reg min(reg a, reg b) { return _mm512_min_epi16(a, b); }
  static bool any_gt(reg a, reg b) {
    return _mm512_cmpgt_epi16_mask(a, b) != 0;
  }
  static std::uint64_t eq_mask(reg a, reg b) {
    return _mm512_cmpeq_epi16_mask(a, b);
  }
  static reg shift_insert(reg v, value_type fill) {
    static const reg idx = [] {
      alignas(64) std::int16_t a[32];
      a[0] = 0;
      for (int l = 1; l < 32; ++l) a[l] = static_cast<std::int16_t>(l - 1);
      return _mm512_load_si512(a);
    }();
    const reg r = _mm512_permutexvar_epi16(idx, v);
    return _mm512_mask_mov_epi16(r, __mmask32{1}, _mm512_set1_epi16(fill));
  }
  // 32-entry table lookup: one register holds all 32 int16 entries, vpermw
  // selects per lane (indices 0..31).
  static reg table_lookup(const value_type* row, reg idx) {
    return _mm512_permutexvar_epi16(idx, _mm512_load_si512(row));
  }
  static std::uint64_t popcount_and(reg a, reg b) {
    return detail::popcnt_and_512(a, b);
  }
  static void to_array(reg v, value_type* out) { _mm512_storeu_si512(out, v); }
  static reg from_array(const value_type* p) { return _mm512_loadu_si512(p); }
  // See the int8 specialization: spilled scalar scan keeps the saturating
  // stepwise semantics exact for out-of-range stride weights.
  static reg seg_scan_max(reg v, long step, value_type fill) {
    alignas(64) value_type a[kWidth];
    alignas(64) value_type r[kWidth];
    to_array(v, a);
    detail::seg_scan_max_lanes<value_type, kWidth>(a, r, step, fill);
    return from_array(r);
  }
};

template <>
struct VecOps<std::int32_t, Avx512BwTag> {
  using value_type = std::int32_t;
  using reg = __m512i;
  static constexpr int kWidth = 16;

  static reg load(const value_type* p) { return _mm512_load_si512(p); }
  static void store(value_type* p, reg v) { _mm512_store_si512(p, v); }
  static reg set1(value_type x) { return _mm512_set1_epi32(x); }
  static reg adds(reg a, reg b) { return _mm512_add_epi32(a, b); }
  static reg subs(reg a, reg b) { return _mm512_sub_epi32(a, b); }
  static reg max(reg a, reg b) { return _mm512_max_epi32(a, b); }
  static reg min(reg a, reg b) { return _mm512_min_epi32(a, b); }
  static bool any_gt(reg a, reg b) {
    return _mm512_cmpgt_epi32_mask(a, b) != 0;
  }
  static std::uint64_t eq_mask(reg a, reg b) {
    return _mm512_cmpeq_epi32_mask(a, b);
  }
  static reg shift_insert(reg v, value_type fill) {
    const reg idx = _mm512_setr_epi32(0, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11,
                                      12, 13, 14);
    const reg r = _mm512_permutexvar_epi32(idx, v);
    return _mm512_mask_mov_epi32(r, __mmask16{1}, _mm512_set1_epi32(fill));
  }
  // Exclusive shifted max-scan (deconstructed lazy-F carry), in-register:
  // log2(16) Kogge-Stone rounds over the (max, +) semiring; see
  // vec_avx512.h for the derivation. Plain 32-bit adds keep the tree exact
  // against the serial recurrence.
  static reg seg_scan_max(reg v, long step, value_type fill) {
    const reg vfill = _mm512_set1_epi32(fill);
    reg s = shift_insert(v, fill);
    const auto round = [&](reg idx, __mmask16 low, long w) {
      const reg t = _mm512_mask_mov_epi32(
          _mm512_add_epi32(_mm512_permutexvar_epi32(idx, s),
                           _mm512_set1_epi32(static_cast<value_type>(w))),
          low, vfill);
      s = _mm512_max_epi32(s, t);
    };
    round(_mm512_setr_epi32(0, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13,
                            14),
          __mmask16(0x0001), step);
    round(_mm512_setr_epi32(0, 0, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12,
                            13),
          __mmask16(0x0003), 2 * step);
    round(_mm512_setr_epi32(0, 0, 0, 0, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11),
          __mmask16(0x000F), 4 * step);
    round(_mm512_setr_epi32(0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 2, 3, 4, 5, 6, 7),
          __mmask16(0x00FF), 8 * step);
    return s;
  }
  static std::uint64_t popcount_and(reg a, reg b) {
    return detail::popcnt_and_512(a, b);
  }
  static void to_array(reg v, value_type* out) { _mm512_storeu_si512(out, v); }
  static reg from_array(const value_type* p) { return _mm512_loadu_si512(p); }
  static reg gather(const value_type* base, reg idx) {
    return _mm512_i32gather_epi32(idx, base, 4);
  }
  // 32-entry table lookup across two registers: vpermt2d's index bit 4
  // selects the second table half (indices 0..31).
  static reg table_lookup(const value_type* row, reg idx) {
    return _mm512_permutex2var_epi32(_mm512_load_si512(row), idx,
                                     _mm512_load_si512(row + 16));
  }
};

}  // namespace aalign::simd

#endif  // __AVX512BW__ && __AVX512VBMI__
