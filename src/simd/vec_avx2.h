// AVX2 backend (256-bit): 32 x int8, 16 x int16, 8 x int32.
//
// This is the paper's "CPU"/Haswell target. The interesting primitive is
// shift_insert (the paper's rshift_x_fill, Fig. 7): AVX2 has no cross-lane
// byte shift, so for 8/16-bit lanes we splice the two 128-bit lanes with
// permute2x128 + alignr, and for 32-bit lanes we use the cross-lane
// permutevar8x32 followed by a blend of the fill value - exactly the
// instruction selection the paper describes.
#pragma once

#if defined(__AVX2__)

// GCC 12's avx512fintrin.h implements _mm512_undefined_epi32() with the
// self-initialization idiom (`__m512i __Y = __Y;`), which trips
// -Wmaybe-uninitialized once intrinsics such as _mm512_max_epi32 or
// _mm512_permutexvar_epi32 are inlined into loops (GCC PR105593). The
// diagnostic state recorded here covers the header's source locations,
// silencing the false positive without losing the warning elsewhere.
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

// Popcount of a 256-bit AND, over raw bits (lane width irrelevant). Same
// Mula nibble-LUT + psadbw scheme as the SSE4.1 backend, widened: the LUT
// is replicated into both 128-bit lanes and the four u64 partial sums are
// folded with one cross-lane extract.
inline std::uint64_t popcnt_and_256(__m256i a, __m256i b) {
  const __m256i v = _mm256_and_si256(a, b);
  const __m256i lut = _mm256_setr_epi8(
      0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4,
      0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4);
  const __m256i low = _mm256_set1_epi8(0x0F);
  const __m256i lo = _mm256_shuffle_epi8(lut, _mm256_and_si256(v, low));
  const __m256i hi = _mm256_shuffle_epi8(
      lut, _mm256_and_si256(_mm256_srli_epi16(v, 4), low));
  const __m256i sum =
      _mm256_sad_epu8(_mm256_add_epi8(lo, hi), _mm256_setzero_si256());
  const __m128i fold = _mm_add_epi64(_mm256_castsi256_si128(sum),
                                     _mm256_extracti128_si256(sum, 1));
  return static_cast<std::uint64_t>(_mm_extract_epi64(fold, 0)) +
         static_cast<std::uint64_t>(_mm_extract_epi64(fold, 1));
}

}  // namespace detail

template <class T, class Isa>
struct VecOps;

template <>
struct VecOps<std::int8_t, Avx2Tag> {
  using value_type = std::int8_t;
  using reg = __m256i;
  static constexpr int kWidth = 32;

  static reg load(const value_type* p) {
    return _mm256_load_si256(reinterpret_cast<const __m256i*>(p));
  }
  static void store(value_type* p, reg v) {
    _mm256_store_si256(reinterpret_cast<__m256i*>(p), v);
  }
  static reg set1(value_type x) { return _mm256_set1_epi8(x); }
  static reg adds(reg a, reg b) { return _mm256_adds_epi8(a, b); }
  static reg subs(reg a, reg b) { return _mm256_subs_epi8(a, b); }
  static reg subus(reg a, reg b) { return _mm256_subs_epu8(a, b); }
  static reg max(reg a, reg b) { return _mm256_max_epi8(a, b); }
  static reg min(reg a, reg b) { return _mm256_min_epi8(a, b); }
  static bool any_gt(reg a, reg b) {
    return _mm256_movemask_epi8(_mm256_cmpgt_epi8(a, b)) != 0;
  }
  static std::uint64_t eq_mask(reg a, reg b) {
    return static_cast<std::uint32_t>(
        _mm256_movemask_epi8(_mm256_cmpeq_epi8(a, b)));
  }
  static reg shift_insert(reg v, value_type fill) {
    // t = [0 ; v_low]; alignr stitches the lane-crossing byte.
    const reg t = _mm256_permute2x128_si256(v, v, 0x08);
    reg r = _mm256_alignr_epi8(v, t, 15);
    return _mm256_insert_epi8(r, fill, 0);
  }
  // Exclusive shifted max-scan (deconstructed lazy-F carry): saturating
  // lanes spill and run the scalar core - per-step stride weights can
  // exceed the 8-bit range, which the wide scalar carry handles exactly.
  static reg seg_scan_max(reg v, long step, value_type fill) {
    alignas(32) value_type a[kWidth];
    alignas(32) value_type r[kWidth];
    to_array(v, a);
    detail::seg_scan_max_lanes<value_type, kWidth>(a, r, step, fill);
    return from_array(r);
  }
  // In-register 32-entry table lookup (indices 0..31, bit 7 clear; `row`
  // 64-byte aligned): pshufb only sees 16-byte windows, so both table
  // halves are broadcast to the two 128-bit lanes, shuffled by the low
  // 4 index bits, and blended on idx < 16.
  static reg table_lookup(const value_type* row, reg idx) {
    const reg t0 = _mm256_broadcastsi128_si256(
        _mm_load_si128(reinterpret_cast<const __m128i*>(row)));
    const reg t1 = _mm256_broadcastsi128_si256(
        _mm_load_si128(reinterpret_cast<const __m128i*>(row + 16)));
    const reg in_lo = _mm256_cmpgt_epi8(_mm256_set1_epi8(16), idx);
    return _mm256_blendv_epi8(_mm256_shuffle_epi8(t1, idx),
                              _mm256_shuffle_epi8(t0, idx), in_lo);
  }
  static std::uint64_t popcount_and(reg a, reg b) {
    return detail::popcnt_and_256(a, b);
  }
  static void to_array(reg v, value_type* out) {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out), v);
  }
  static reg from_array(const value_type* p) {
    return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
  }
};

template <>
struct VecOps<std::int16_t, Avx2Tag> {
  using value_type = std::int16_t;
  using reg = __m256i;
  static constexpr int kWidth = 16;

  static reg load(const value_type* p) {
    return _mm256_load_si256(reinterpret_cast<const __m256i*>(p));
  }
  static void store(value_type* p, reg v) {
    _mm256_store_si256(reinterpret_cast<__m256i*>(p), v);
  }
  static reg set1(value_type x) { return _mm256_set1_epi16(x); }
  static reg adds(reg a, reg b) { return _mm256_adds_epi16(a, b); }
  static reg subs(reg a, reg b) { return _mm256_subs_epi16(a, b); }
  static reg subus(reg a, reg b) { return _mm256_subs_epu16(a, b); }
  static reg max(reg a, reg b) { return _mm256_max_epi16(a, b); }
  static reg min(reg a, reg b) { return _mm256_min_epi16(a, b); }
  static bool any_gt(reg a, reg b) {
    return _mm256_movemask_epi8(_mm256_cmpgt_epi16(a, b)) != 0;
  }
  static std::uint64_t eq_mask(reg a, reg b) {
    // packs narrows lane masks to bytes but interleaves the 128-bit
    // halves: result bytes [0..7] are lanes 0-7, bytes [16..23] lanes
    // 8-15. Stitch the two movemask byte-groups back together.
    const reg c =
        _mm256_packs_epi16(_mm256_cmpeq_epi16(a, b), _mm256_setzero_si256());
    const auto m =
        static_cast<std::uint32_t>(_mm256_movemask_epi8(c));
    return (m & 0xFFu) | ((m >> 8) & 0xFF00u);
  }
  static reg shift_insert(reg v, value_type fill) {
    const reg t = _mm256_permute2x128_si256(v, v, 0x08);
    reg r = _mm256_alignr_epi8(v, t, 14);
    return _mm256_insert_epi16(r, fill, 0);
  }
  // See the int8 specialization: spilled scalar scan keeps the saturating
  // stepwise semantics exact for out-of-range stride weights.
  static reg seg_scan_max(reg v, long step, value_type fill) {
    alignas(32) value_type a[kWidth];
    alignas(32) value_type r[kWidth];
    to_array(v, a);
    detail::seg_scan_max_lanes<value_type, kWidth>(a, r, step, fill);
    return from_array(r);
  }
  static std::uint64_t popcount_and(reg a, reg b) {
    return detail::popcnt_and_256(a, b);
  }
  static void to_array(reg v, value_type* out) {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out), v);
  }
  static reg from_array(const value_type* p) {
    return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
  }
};

template <>
struct VecOps<std::int32_t, Avx2Tag> {
  using value_type = std::int32_t;
  using reg = __m256i;
  static constexpr int kWidth = 8;

  static reg load(const value_type* p) {
    return _mm256_load_si256(reinterpret_cast<const __m256i*>(p));
  }
  static void store(value_type* p, reg v) {
    _mm256_store_si256(reinterpret_cast<__m256i*>(p), v);
  }
  static reg set1(value_type x) { return _mm256_set1_epi32(x); }
  static reg adds(reg a, reg b) { return _mm256_add_epi32(a, b); }
  static reg subs(reg a, reg b) { return _mm256_sub_epi32(a, b); }
  static reg max(reg a, reg b) { return _mm256_max_epi32(a, b); }
  static reg min(reg a, reg b) { return _mm256_min_epi32(a, b); }
  static bool any_gt(reg a, reg b) {
    return _mm256_movemask_epi8(_mm256_cmpgt_epi32(a, b)) != 0;
  }
  static std::uint64_t eq_mask(reg a, reg b) {
    return static_cast<std::uint64_t>(
        _mm256_movemask_ps(_mm256_castsi256_ps(_mm256_cmpeq_epi32(a, b))));
  }
  static reg shift_insert(reg v, value_type fill) {
    const reg idx = _mm256_setr_epi32(0, 0, 1, 2, 3, 4, 5, 6);
    const reg r = _mm256_permutevar8x32_epi32(v, idx);
    return _mm256_blend_epi32(r, _mm256_set1_epi32(fill), 0x01);
  }
  // Exclusive shifted max-scan (deconstructed lazy-F carry), in-register:
  // log2(8) Kogge-Stone rounds over the (max, +) semiring, lane shifts via
  // the same cross-lane permutevar8x32 as shift_insert. Plain 32-bit adds
  // are associative, so the tree evaluates the same
  // max_d(v[l-1-d] + d*step) as the serial recurrence, exactly.
  static reg seg_scan_max(reg v, long step, value_type fill) {
    const reg vfill = _mm256_set1_epi32(fill);
    const reg i1 = _mm256_setr_epi32(0, 0, 1, 2, 3, 4, 5, 6);
    const reg i2 = _mm256_setr_epi32(0, 0, 0, 1, 2, 3, 4, 5);
    const reg i4 = _mm256_setr_epi32(0, 0, 0, 0, 0, 1, 2, 3);
    reg s = shift_insert(v, fill);
    reg t = _mm256_blend_epi32(
        _mm256_add_epi32(_mm256_permutevar8x32_epi32(s, i1),
                         _mm256_set1_epi32(static_cast<value_type>(step))),
        vfill, 0x01);
    s = _mm256_max_epi32(s, t);
    t = _mm256_blend_epi32(
        _mm256_add_epi32(_mm256_permutevar8x32_epi32(s, i2),
                         _mm256_set1_epi32(static_cast<value_type>(2 * step))),
        vfill, 0x03);
    s = _mm256_max_epi32(s, t);
    t = _mm256_blend_epi32(
        _mm256_add_epi32(_mm256_permutevar8x32_epi32(s, i4),
                         _mm256_set1_epi32(static_cast<value_type>(4 * step))),
        vfill, 0x0F);
    s = _mm256_max_epi32(s, t);
    return s;
  }
  static std::uint64_t popcount_and(reg a, reg b) {
    return detail::popcnt_and_256(a, b);
  }
  static void to_array(reg v, value_type* out) {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out), v);
  }
  static reg from_array(const value_type* p) {
    return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
  }
  static reg gather(const value_type* base, reg idx) {
    return _mm256_i32gather_epi32(base, idx, 4);
  }
};

}  // namespace aalign::simd

#endif  // __AVX2__
