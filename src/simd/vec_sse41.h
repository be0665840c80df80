// SSE4.1 backend (128-bit): 16 x int8, 8 x int16, 4 x int32.
//
// This is the ISA Farrar's original striped Smith-Waterman targeted; it is
// compiled only into TUs built with -msse4.1 (src/CMakeLists.txt) and the
// dispatcher guards it behind a cpuid check.
#pragma once

#if defined(__SSE4_1__)

#include <smmintrin.h>

#include <cstdint>

#include "simd/isa.h"
#include "simd/vec_scalar.h"  // detail::seg_scan_max_lanes

namespace aalign::simd {

namespace detail {

// Popcount of a 128-bit AND, over raw bits (lane width irrelevant, so all
// three specializations share it). SSE4.1 has no vector popcount; this is
// the Mula nibble-LUT scheme: pshufb maps each nibble to its bit count and
// psadbw folds the byte counts into two u64 partial sums.
inline std::uint64_t popcnt_and_128(__m128i a, __m128i b) {
  const __m128i v = _mm_and_si128(a, b);
  const __m128i lut =
      _mm_setr_epi8(0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4);
  const __m128i low = _mm_set1_epi8(0x0F);
  const __m128i lo = _mm_shuffle_epi8(lut, _mm_and_si128(v, low));
  const __m128i hi =
      _mm_shuffle_epi8(lut, _mm_and_si128(_mm_srli_epi16(v, 4), low));
  const __m128i sum = _mm_sad_epu8(_mm_add_epi8(lo, hi), _mm_setzero_si128());
  return static_cast<std::uint64_t>(_mm_extract_epi64(sum, 0)) +
         static_cast<std::uint64_t>(_mm_extract_epi64(sum, 1));
}

}  // namespace detail

template <class T, class Isa>
struct VecOps;

template <>
struct VecOps<std::int8_t, Sse41Tag> {
  using value_type = std::int8_t;
  using reg = __m128i;
  static constexpr int kWidth = 16;

  static reg load(const value_type* p) {
    return _mm_load_si128(reinterpret_cast<const __m128i*>(p));
  }
  static void store(value_type* p, reg v) {
    _mm_store_si128(reinterpret_cast<__m128i*>(p), v);
  }
  static reg set1(value_type x) { return _mm_set1_epi8(x); }
  static reg adds(reg a, reg b) { return _mm_adds_epi8(a, b); }
  static reg subs(reg a, reg b) { return _mm_subs_epi8(a, b); }
  static reg subus(reg a, reg b) { return _mm_subs_epu8(a, b); }
  static reg max(reg a, reg b) { return _mm_max_epi8(a, b); }
  static reg min(reg a, reg b) { return _mm_min_epi8(a, b); }
  static bool any_gt(reg a, reg b) {
    return _mm_movemask_epi8(_mm_cmpgt_epi8(a, b)) != 0;
  }
  static std::uint64_t eq_mask(reg a, reg b) {
    return static_cast<std::uint16_t>(
        _mm_movemask_epi8(_mm_cmpeq_epi8(a, b)));
  }
  static reg shift_insert(reg v, value_type fill) {
    reg r = _mm_slli_si128(v, 1);  // byte left-shift = lane l -> l+1
    return _mm_insert_epi8(r, fill, 0);
  }
  // Exclusive shifted max-scan (deconstructed lazy-F carry): saturating
  // lanes spill and run the scalar core - per-step stride weights can
  // exceed the 8-bit range, which the wide scalar carry handles exactly.
  static reg seg_scan_max(reg v, long step, value_type fill) {
    alignas(16) value_type a[kWidth];
    alignas(16) value_type r[kWidth];
    to_array(v, a);
    detail::seg_scan_max_lanes<value_type, kWidth>(a, r, step, fill);
    return from_array(r);
  }
  // In-register 32-entry table lookup (indices 0..31, bit 7 clear; `row`
  // 64-byte aligned): two pshufbs over the 16-entry halves, blended on
  // idx < 16.
  static reg table_lookup(const value_type* row, reg idx) {
    const reg t0 = _mm_load_si128(reinterpret_cast<const __m128i*>(row));
    const reg t1 = _mm_load_si128(reinterpret_cast<const __m128i*>(row + 16));
    const reg in_lo = _mm_cmplt_epi8(idx, _mm_set1_epi8(16));
    return _mm_blendv_epi8(_mm_shuffle_epi8(t1, idx), _mm_shuffle_epi8(t0, idx),
                           in_lo);
  }
  static std::uint64_t popcount_and(reg a, reg b) {
    return detail::popcnt_and_128(a, b);
  }
  static void to_array(reg v, value_type* out) {
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out), v);
  }
  static reg from_array(const value_type* p) {
    return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
  }
};

template <>
struct VecOps<std::int16_t, Sse41Tag> {
  using value_type = std::int16_t;
  using reg = __m128i;
  static constexpr int kWidth = 8;

  static reg load(const value_type* p) {
    return _mm_load_si128(reinterpret_cast<const __m128i*>(p));
  }
  static void store(value_type* p, reg v) {
    _mm_store_si128(reinterpret_cast<__m128i*>(p), v);
  }
  static reg set1(value_type x) { return _mm_set1_epi16(x); }
  static reg adds(reg a, reg b) { return _mm_adds_epi16(a, b); }
  static reg subs(reg a, reg b) { return _mm_subs_epi16(a, b); }
  static reg subus(reg a, reg b) { return _mm_subs_epu16(a, b); }
  static reg max(reg a, reg b) { return _mm_max_epi16(a, b); }
  static reg min(reg a, reg b) { return _mm_min_epi16(a, b); }
  static bool any_gt(reg a, reg b) {
    return _mm_movemask_epi8(_mm_cmpgt_epi16(a, b)) != 0;
  }
  static std::uint64_t eq_mask(reg a, reg b) {
    // packs narrows the 0xFFFF/0x0000 lane masks to bytes (saturation
    // keeps -1 at -1), giving one movemask bit per int16 lane.
    const reg c = _mm_packs_epi16(_mm_cmpeq_epi16(a, b), _mm_setzero_si128());
    return static_cast<std::uint64_t>(_mm_movemask_epi8(c)) & 0xFFu;
  }
  static reg shift_insert(reg v, value_type fill) {
    reg r = _mm_slli_si128(v, 2);
    return _mm_insert_epi16(r, fill, 0);
  }
  // See the int8 specialization: spilled scalar scan keeps the saturating
  // stepwise semantics exact for out-of-range stride weights.
  static reg seg_scan_max(reg v, long step, value_type fill) {
    alignas(16) value_type a[kWidth];
    alignas(16) value_type r[kWidth];
    to_array(v, a);
    detail::seg_scan_max_lanes<value_type, kWidth>(a, r, step, fill);
    return from_array(r);
  }
  static std::uint64_t popcount_and(reg a, reg b) {
    return detail::popcnt_and_128(a, b);
  }
  static void to_array(reg v, value_type* out) {
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out), v);
  }
  static reg from_array(const value_type* p) {
    return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
  }
};

template <>
struct VecOps<std::int32_t, Sse41Tag> {
  using value_type = std::int32_t;
  using reg = __m128i;
  static constexpr int kWidth = 4;

  static reg load(const value_type* p) {
    return _mm_load_si128(reinterpret_cast<const __m128i*>(p));
  }
  static void store(value_type* p, reg v) {
    _mm_store_si128(reinterpret_cast<__m128i*>(p), v);
  }
  static reg set1(value_type x) { return _mm_set1_epi32(x); }
  // 32-bit kernels rely on range checks, not saturation (matches x86: there
  // is no adds_epi32 before AVX-512VL anyway).
  static reg adds(reg a, reg b) { return _mm_add_epi32(a, b); }
  static reg subs(reg a, reg b) { return _mm_sub_epi32(a, b); }
  static reg max(reg a, reg b) { return _mm_max_epi32(a, b); }
  static reg min(reg a, reg b) { return _mm_min_epi32(a, b); }
  static bool any_gt(reg a, reg b) {
    return _mm_movemask_epi8(_mm_cmpgt_epi32(a, b)) != 0;
  }
  static std::uint64_t eq_mask(reg a, reg b) {
    return static_cast<std::uint64_t>(
        _mm_movemask_ps(_mm_castsi128_ps(_mm_cmpeq_epi32(a, b))));
  }
  static reg shift_insert(reg v, value_type fill) {
    reg r = _mm_slli_si128(v, 4);
    return _mm_insert_epi32(r, fill, 0);
  }
  // Exclusive shifted max-scan (deconstructed lazy-F carry), in-register:
  // log2(4) Kogge-Stone rounds over the (max, +) semiring. Plain 32-bit
  // adds are associative, so the tree evaluates the same
  // max_d(v[l-1-d] + d*step) as the serial recurrence, exactly. The
  // byte-shift zeroes vacated lanes; blend_epi16 re-inserts the fill.
  static reg seg_scan_max(reg v, long step, value_type fill) {
    const reg vfill = _mm_set1_epi32(fill);
    reg s = shift_insert(v, fill);
    reg t = _mm_blend_epi16(
        _mm_add_epi32(_mm_slli_si128(s, 4),
                      _mm_set1_epi32(static_cast<value_type>(step))),
        vfill, 0x03);
    s = _mm_max_epi32(s, t);
    t = _mm_blend_epi16(
        _mm_add_epi32(_mm_slli_si128(s, 8),
                      _mm_set1_epi32(static_cast<value_type>(2 * step))),
        vfill, 0x0F);
    s = _mm_max_epi32(s, t);
    return s;
  }
  static std::uint64_t popcount_and(reg a, reg b) {
    return detail::popcnt_and_128(a, b);
  }
  static void to_array(reg v, value_type* out) {
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out), v);
  }
  static reg from_array(const value_type* p) {
    return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
  }
  // SSE4.1 has no gather instruction; extract/insert emulation.
  static reg gather(const value_type* base, reg idx) {
    return _mm_setr_epi32(base[_mm_extract_epi32(idx, 0)],
                          base[_mm_extract_epi32(idx, 1)],
                          base[_mm_extract_epi32(idx, 2)],
                          base[_mm_extract_epi32(idx, 3)]);
  }
};

}  // namespace aalign::simd

#endif  // __SSE4_1__
