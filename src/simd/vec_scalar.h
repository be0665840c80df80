// Scalar implementation of the vector-primitive contract.
//
// This backend is both the portable fallback and the semantic reference the
// hardware backends are tested against. It emulates an 8-lane register with
// a plain array; saturation behaviour matches the x86 `adds/subs`
// instructions exactly (see util/saturate.h).
//
// The VecOps<T, Isa> contract implemented by every backend:
//   value_type, reg, kWidth
//   load/store      : aligned (64 B) register moves
//   set1            : broadcast
//   adds/subs       : saturating for 8/16-bit lanes, wrapping for 32-bit
//   subus           : 8/16-bit lanes only: lanes read as unsigned, a - b
//                     floored at 0 (x86 psubus). The inter-sequence
//                     kernel's gap step on non-negative scores; a cost at
//                     the rail (0x80 / 0x8000 = 128 / 32768) floors every
//                     score to 0
//   max/min         : per-lane signed
//   any_gt(a, b)    : true if a[l] > b[l] in any lane (influence_test core)
//   shift_insert    : lane l -> lane l+1, lane 0 = fill (the paper's
//                     rshift_x_fill with n = 1; "right" is in element-index
//                     order, i.e. a byte-wise left shift of the register)
//   seg_scan_max(v, step, fill) : exclusive shifted max-scan across lanes,
//                     out[0] = fill; out[l] = max(v[l-1], out[l-1] (+) step)
//                     where (+) matches adds' semantics (saturating for
//                     8/16-bit lanes, plain for 32-bit). `step` is passed
//                     wide so segment strides beyond the lane range behave
//                     exactly like repeated saturating adds would. This is
//                     the cross-lane carry of the deconstructed lazy-F
//                     fixup (simd/modules.h, lazyf_carry_scan).
//   popcount_and(a, b) : population count of the bitwise AND of the two
//                     registers, taken over the raw register bits (lane
//                     type is irrelevant). The signature-intersection core
//                     of the two-stage search pre-filter (src/filter/):
//                     one call scores one register-width slice of a
//                     k-mer bitset against the query signature.
//   to_array/from_array : unaligned spills used by cold generic paths
//
// Optional primitives, detected with `requires` where they are used:
//   gather, table_lookup : per-lane table select (inter-sequence profile)
//   column_codes    : the inter-sequence kernel's W x W block of subject
//                     codes, transposed in registers (AVX-512BW int8)
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <limits>
#include <type_traits>

#include "simd/isa.h"
#include "util/saturate.h"

namespace aalign::simd {

namespace detail {

// Shared scalar core of seg_scan_max (see the contract above), over a
// spilled register image. The carry is widened to long and re-clamped per
// step exactly as a chain of saturating `adds` would behave, so hardware
// backends that spill to memory (cross-lane scans have no SSE/AVX2
// instruction at lane granularity) stay bit-compatible with in-register
// stepwise evaluation. 32-bit lanes use plain adds in the kernels, so no
// per-step clamp is applied - range discipline is the caller's, as
// everywhere else at that width.
template <class T, int W>
inline void seg_scan_max_lanes(const T* in, T* out, long step, T fill) {
  long carry = fill;
  out[0] = fill;
  for (int l = 1; l < W; ++l) {
    long ext = carry + step;
    if constexpr (sizeof(T) < 4) {
      if (ext < std::numeric_limits<T>::min()) ext = std::numeric_limits<T>::min();
      if (ext > std::numeric_limits<T>::max()) ext = std::numeric_limits<T>::max();
    }
    carry = static_cast<long>(in[l - 1]) > ext ? static_cast<long>(in[l - 1])
                                               : ext;
    out[l] = static_cast<T>(carry);
  }
}

}  // namespace detail

template <class T, class Isa>
struct VecOps;  // primary template intentionally undefined

template <class T>
struct ScalarReg {
  T lane[8];
};

template <class T>
struct VecOps<T, ScalarTag> {
  using value_type = T;
  using reg = ScalarReg<T>;
  static constexpr int kWidth = 8;

  static reg load(const T* p) {
    reg r;
    std::memcpy(r.lane, p, sizeof(r.lane));
    return r;
  }
  static void store(T* p, reg v) { std::memcpy(p, v.lane, sizeof(v.lane)); }

  static reg set1(T x) {
    reg r;
    for (int l = 0; l < kWidth; ++l) r.lane[l] = x;
    return r;
  }

  static reg adds(reg a, reg b) {
    reg r;
    for (int l = 0; l < kWidth; ++l) r.lane[l] = util::sat_add(a.lane[l], b.lane[l]);
    return r;
  }
  static reg subs(reg a, reg b) {
    reg r;
    for (int l = 0; l < kWidth; ++l) r.lane[l] = util::sat_sub(a.lane[l], b.lane[l]);
    return r;
  }

  static reg subus(reg a, reg b)
    requires(sizeof(T) < 4)
  {
    using U = std::make_unsigned_t<T>;
    reg r;
    for (int l = 0; l < kWidth; ++l) {
      const auto x = static_cast<U>(a.lane[l]);
      const auto y = static_cast<U>(b.lane[l]);
      r.lane[l] = static_cast<T>(x > y ? static_cast<U>(x - y) : U{0});
    }
    return r;
  }

  static reg max(reg a, reg b) {
    reg r;
    for (int l = 0; l < kWidth; ++l) r.lane[l] = a.lane[l] > b.lane[l] ? a.lane[l] : b.lane[l];
    return r;
  }
  static reg min(reg a, reg b) {
    reg r;
    for (int l = 0; l < kWidth; ++l) r.lane[l] = a.lane[l] < b.lane[l] ? a.lane[l] : b.lane[l];
    return r;
  }

  static bool any_gt(reg a, reg b) {
    for (int l = 0; l < kWidth; ++l)
      if (a.lane[l] > b.lane[l]) return true;
    return false;
  }

  // Per-lane equality bitmask (bit l set when a[l] == b[l]). The
  // saturation test of the multi-precision inter-sequence engine: lanes
  // whose running maximum is pinned at the positive rail overflowed and
  // must be re-run at wider precision.
  static std::uint64_t eq_mask(reg a, reg b) {
    std::uint64_t m = 0;
    for (int l = 0; l < kWidth; ++l)
      if (a.lane[l] == b.lane[l]) m |= std::uint64_t{1} << l;
    return m;
  }

  static reg shift_insert(reg v, T fill) {
    reg r;
    r.lane[0] = fill;
    for (int l = 1; l < kWidth; ++l) r.lane[l] = v.lane[l - 1];
    return r;
  }

  // Exclusive shifted max-scan (the deconstructed lazy-F carry); the
  // semantic reference for the hardware implementations.
  static reg seg_scan_max(reg v, long step, T fill) {
    reg r;
    detail::seg_scan_max_lanes<T, kWidth>(v.lane, r.lane, step, fill);
    return r;
  }

  // Popcount of the register-wide AND; the semantic reference for the
  // hardware backends (raw bits, lane type irrelevant).
  static std::uint64_t popcount_and(reg a, reg b) {
    using U = std::make_unsigned_t<T>;
    std::uint64_t n = 0;
    for (int l = 0; l < kWidth; ++l)
      n += static_cast<std::uint64_t>(std::popcount(
          static_cast<U>(static_cast<U>(a.lane[l]) & static_cast<U>(b.lane[l]))));
    return n;
  }

  static void to_array(reg v, T* out) { std::memcpy(out, v.lane, sizeof(v.lane)); }
  static reg from_array(const T* p) { return load(p); }

  // Per-lane table lookup (int32 lanes only): r[l] = base[idx[l]].
  // Used by the inter-sequence kernel's substitution fetch.
  static reg gather(const T* base, reg idx)
    requires(sizeof(T) == 4)
  {
    reg r;
    for (int l = 0; l < kWidth; ++l) r.lane[l] = base[idx.lane[l]];
    return r;
  }
};

}  // namespace aalign::simd
