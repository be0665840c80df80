// Unit and property tests for the vector-module layer (paper Table I):
// every backend x type combination is checked against scalar semantics,
// and wgt_max_scan is checked against its logical-order reference oracle.
//
// This TU is compiled with all ISA flags; each test guards execution with
// a runtime cpuid check and GTEST_SKIP()s on unsupported hardware.
#include <gtest/gtest.h>

#include <bit>
#include <limits>
#include <random>
#include <type_traits>
#include <vector>

#include "filter/sig_scan.h"
#include "simd/modules.h"
#include "simd/vec_avx2.h"
#include "simd/vec_avx512.h"
#include "simd/vec_avx512bw.h"
#include "simd/vec_scalar.h"
#include "simd/vec_sse41.h"
#include "util/aligned_buffer.h"
#include "util/saturate.h"

using namespace aalign;
using namespace aalign::simd;

namespace {

template <class Ops>
bool supported() {
  return isa_available(IsaKind::Scalar);  // specialized below per tag
}

template <class T, class Isa>
bool ops_supported(VecOps<T, Isa>*) {
  return isa_available(isa_kind<Isa>());
}

template <class Ops>
std::vector<typename Ops::value_type> random_values(std::mt19937_64& rng,
                                                    std::size_t count,
                                                    bool full_range) {
  using T = typename Ops::value_type;
  const long lo =
      full_range ? std::numeric_limits<T>::min() : neg_inf<T>() / 2;
  const long hi = full_range ? std::numeric_limits<T>::max() : 1000;
  std::uniform_int_distribution<long> d(lo, std::min<long>(hi, 30000));
  std::vector<T> v(count);
  for (auto& x : v) x = static_cast<T>(d(rng));
  return v;
}

template <class Ops>
void primitive_roundtrip_and_arith() {
  using T = typename Ops::value_type;
  constexpr int W = Ops::kWidth;
  std::mt19937_64 rng(42);

  for (int iter = 0; iter < 50; ++iter) {
    const auto a = random_values<Ops>(rng, W, true);
    const auto b = random_values<Ops>(rng, W, true);
    alignas(64) T abuf[W], bbuf[W], out[W];
    std::copy(a.begin(), a.end(), abuf);
    std::copy(b.begin(), b.end(), bbuf);

    const auto va = Ops::load(abuf);
    const auto vb = Ops::load(bbuf);

    // load/store roundtrip
    Ops::store(out, va);
    for (int l = 0; l < W; ++l) ASSERT_EQ(out[l], a[l]);

    // adds matches scalar saturating semantics
    Ops::store(out, Ops::adds(va, vb));
    for (int l = 0; l < W; ++l)
      ASSERT_EQ(out[l], util::sat_add(a[l], b[l])) << "lane " << l;

    // subs
    Ops::store(out, Ops::subs(va, vb));
    for (int l = 0; l < W; ++l)
      ASSERT_EQ(out[l], util::sat_sub(a[l], b[l])) << "lane " << l;

    // max / min
    Ops::store(out, Ops::max(va, vb));
    for (int l = 0; l < W; ++l) ASSERT_EQ(out[l], std::max(a[l], b[l]));
    Ops::store(out, Ops::min(va, vb));
    for (int l = 0; l < W; ++l) ASSERT_EQ(out[l], std::min(a[l], b[l]));

    // any_gt
    bool expect = false;
    for (int l = 0; l < W; ++l) expect = expect || (a[l] > b[l]);
    ASSERT_EQ(Ops::any_gt(va, vb), expect);
  }
}

template <class Ops>
void shift_insert_semantics() {
  using T = typename Ops::value_type;
  constexpr int W = Ops::kWidth;
  std::mt19937_64 rng(7);

  for (int iter = 0; iter < 50; ++iter) {
    const auto a = random_values<Ops>(rng, W, true);
    alignas(64) T abuf[W], out[W];
    std::copy(a.begin(), a.end(), abuf);
    const T fill = static_cast<T>(iter - 25);

    Ops::store(out, Ops::shift_insert(Ops::load(abuf), fill));
    ASSERT_EQ(out[0], fill);
    for (int l = 1; l < W; ++l) ASSERT_EQ(out[l], a[l - 1]) << "lane " << l;

    // Generic n-lane shift agrees for every n.
    using M = Modules<Ops>;
    for (int n = 1; n < W; ++n) {
      Ops::store(out, M::rshift_x_fill(Ops::load(abuf), n, fill));
      for (int l = 0; l < W; ++l) {
        const T expect = l < n ? fill : a[l - n];
        ASSERT_EQ(out[l], expect) << "n=" << n << " lane " << l;
      }
    }
  }
}

template <class Ops>
void set_vector_semantics() {
  using T = typename Ops::value_type;
  using M = Modules<Ops>;
  constexpr int W = Ops::kWidth;

  for (int segs : {1, 3, 17}) {
    for (int init : {0, -5, 40}) {
      alignas(64) T out[W];
      Ops::store(out, M::set_vector(segs, static_cast<T>(init), -12, -2));
      for (int l = 0; l < W; ++l) {
        const long expect = static_cast<long>(init) +
                            (-12L) + static_cast<long>(l) * segs * (-2L);
        const long clamped =
            std::max(expect, static_cast<long>(neg_inf<T>()));
        ASSERT_EQ(static_cast<long>(out[l]), clamped)
            << "segs=" << segs << " init=" << init << " lane=" << l;
      }
    }
  }
}

template <class Ops>
void wgt_max_scan_matches_reference() {
  using T = typename Ops::value_type;
  using M = Modules<Ops>;
  constexpr int W = Ops::kWidth;
  std::mt19937_64 rng(1234);

  for (int segs : {1, 2, 5, 16, 33}) {
    const int mpad = segs * W;
    for (int iter = 0; iter < 20; ++iter) {
      // Values in kernel-realistic range (scores, not rails).
      const auto logical = random_values<Ops>(rng, mpad, false);

      // Stripe them.
      util::AlignedBuffer<T> in(mpad), out(mpad), ref(mpad);
      for (int e = 0; e < mpad; ++e) {
        in[striped_offset(e, segs, W)] = logical[e];
      }

      const T init = static_cast<T>(static_cast<int>(iter) * 3 - 20);
      const T gap_first = -13, gap_ext = -3;
      M::wgt_max_scan(in.data(), out.data(), segs, init, gap_first, gap_ext);

      std::vector<T> expect(mpad);
      wgt_max_scan_reference<T>(logical.data(), expect.data(), mpad, init,
                                gap_first, gap_ext);
      for (int e = 0; e < mpad; ++e) {
        ASSERT_EQ(out[striped_offset(e, segs, W)], expect[e])
            << "segs=" << segs << " logical=" << e;
      }
    }
  }
}

template <class Ops>
void influence_and_hmax() {
  using T = typename Ops::value_type;
  using M = Modules<Ops>;
  constexpr int W = Ops::kWidth;
  std::mt19937_64 rng(99);

  for (int iter = 0; iter < 30; ++iter) {
    const auto a = random_values<Ops>(rng, W, true);
    alignas(64) T abuf[W];
    std::copy(a.begin(), a.end(), abuf);
    const auto va = Ops::load(abuf);

    T expect = a[0];
    for (int l = 1; l < W; ++l) expect = std::max(expect, a[l]);
    ASSERT_EQ(M::hmax(va), expect);

    // influence_test(v, v) must be false (nothing beats itself).
    ASSERT_FALSE(M::influence_test(va, va));
    // Raising one lane by 1 (if not at rail) must trigger it.
    if (a[0] < std::numeric_limits<T>::max()) {
      alignas(64) T bbuf[W];
      std::copy(a.begin(), a.end(), bbuf);
      bbuf[0] = static_cast<T>(bbuf[0] + 1);
      ASSERT_TRUE(M::influence_test(Ops::load(bbuf), va));
    }
  }
}

template <class Ops>
void eq_mask_semantics() {
  // The multi-precision inter-sequence engine's saturation test.
  using T = typename Ops::value_type;
  constexpr int W = Ops::kWidth;
  std::mt19937_64 rng(77);

  for (int iter = 0; iter < 30; ++iter) {
    auto a = random_values<Ops>(rng, W, true);
    auto b = random_values<Ops>(rng, W, true);
    // Force some equal lanes (including the rail value the engine tests).
    for (int l = 0; l < W; ++l) {
      if (rng() % 3 == 0) b[l] = a[l];
      if (rng() % 5 == 0) a[l] = b[l] = std::numeric_limits<T>::max();
    }
    alignas(64) T abuf[W], bbuf[W];
    std::copy(a.begin(), a.end(), abuf);
    std::copy(b.begin(), b.end(), bbuf);
    std::uint64_t expect = 0;
    for (int l = 0; l < W; ++l) {
      if (a[l] == b[l]) expect |= std::uint64_t{1} << l;
    }
    ASSERT_EQ(Ops::eq_mask(Ops::load(abuf), Ops::load(bbuf)), expect);
  }
}

template <class Ops>
void gather_semantics() {
  // int32 lanes only (the inter-sequence kernel's dependency).
  using T = typename Ops::value_type;
  if constexpr (sizeof(T) == 4) {
    constexpr int W = Ops::kWidth;
    std::mt19937_64 rng(55);
    std::vector<T> table(997);
    for (auto& v : table) v = static_cast<T>(rng() % 100000) - 50000;
    std::uniform_int_distribution<int> idx_d(0, 996);
    for (int iter = 0; iter < 30; ++iter) {
      alignas(64) T idx[W], out[W];
      for (int l = 0; l < W; ++l) idx[l] = static_cast<T>(idx_d(rng));
      Ops::store(out, Ops::gather(table.data(), Ops::load(idx)));
      for (int l = 0; l < W; ++l) ASSERT_EQ(out[l], table[idx[l]]);
    }
  }
}

template <class Ops>
void table_lookup_semantics() {
  // Optional primitive (backends with an in-register permute): 32-entry
  // table select, the inter-sequence score-profile build.
  using T = typename Ops::value_type;
  using reg = typename Ops::reg;
  if constexpr (requires(const T* p, reg r) { Ops::table_lookup(p, r); }) {
    constexpr int W = Ops::kWidth;
    std::mt19937_64 rng(66);
    alignas(64) T table[64] = {};
    for (int c = 0; c < 32; ++c) {
      table[c] = static_cast<T>(static_cast<int>(rng() % 200) - 100);
    }
    std::uniform_int_distribution<int> idx_d(0, 31);
    for (int iter = 0; iter < 30; ++iter) {
      alignas(64) T idx[W], out[W];
      for (int l = 0; l < W; ++l) idx[l] = static_cast<T>(idx_d(rng));
      Ops::store(out, Ops::table_lookup(table, Ops::load(idx)));
      for (int l = 0; l < W; ++l) ASSERT_EQ(out[l], table[idx[l]]);
    }
  }
}

// subus: the inter-sequence kernel's gap step, narrow lanes only. Lanes
// are read as unsigned and the difference floors at 0, checked on edge
// operands (0, 1, the rail 0x80 / 0x8000 and its neighbours, all-ones)
// and random full-range lanes. A score below the rail minus a cost at the
// rail must floor to 0: that is how an int8 open cost of 128 behaves.
template <class Ops>
void subus_semantics() {
  using T = typename Ops::value_type;
  if constexpr (sizeof(T) < 4) {
    using U = std::make_unsigned_t<T>;
    constexpr int W = Ops::kWidth;
    constexpr U kRail = static_cast<U>(U{1} << (sizeof(T) * 8 - 1));
    alignas(64) T a[W], b[W], out[W];
    const auto check = [&]() {
      Ops::store(out, Ops::subus(Ops::load(a), Ops::load(b)));
      for (int l = 0; l < W; ++l) {
        const auto x = static_cast<U>(a[l]);
        const auto y = static_cast<U>(b[l]);
        ASSERT_EQ(static_cast<U>(out[l]), x > y ? static_cast<U>(x - y) : U{0})
            << "lane " << l << ": " << +x << " - " << +y;
      }
    };

    const U specials[] = {U{0},
                          U{1},
                          U{2},
                          static_cast<U>(kRail - 1),
                          kRail,
                          static_cast<U>(kRail + 1),
                          static_cast<U>(~U{0})};
    for (U pa : specials) {
      for (U pb : specials) {
        for (int l = 0; l < W; ++l) {
          a[l] = static_cast<T>(pa);
          b[l] = static_cast<T>(pb);
        }
        check();
      }
    }
    for (int l = 0; l < W; ++l) {
      a[l] = static_cast<T>(l % 2 == 0 ? kRail - 1 : l);
      b[l] = static_cast<T>(kRail);
    }
    check();
    for (int l = 0; l < W; ++l) ASSERT_EQ(out[l], T{0}) << "lane " << l;

    std::mt19937_64 rng(0x5B05);
    for (int iter = 0; iter < 100; ++iter) {
      for (int l = 0; l < W; ++l) {
        a[l] = static_cast<T>(rng());
        b[l] = static_cast<T>(rng());
      }
      check();
    }
  }
}

// seg_scan_max: the lazy-F carry scan primitive. Contract (vec_scalar.h):
// out[0] = fill; out[l] = max(in[l-1], out[l-1] (+) step), where (+) is a
// saturating add for narrow types and a plain add for int32. The reference
// below runs the recurrence in long arithmetic with an explicit clamp -
// the in-register Kogge-Stone trees and the spill paths must both match
// it, including full-range inputs that hit the rails.
template <class Ops>
void seg_scan_max_matches_reference() {
  using T = typename Ops::value_type;
  constexpr int W = Ops::kWidth;
  std::mt19937_64 rng(0x5Ca9);

  // Full-range (rail-hitting) inputs are defined behaviour only for the
  // saturating narrow types; int32 uses plain adds and relies on the
  // neg_inf = min/2 headroom invariant, so it is tested in score range.
  for (const bool full_range : {false, sizeof(T) < 4}) {
    for (const long step : {-1L, -3L, -40L, -300L, 0L}) {
      for (int iter = 0; iter < 20; ++iter) {
        const auto raw = random_values<Ops>(rng, W, full_range);
        util::AlignedBuffer<T> vals(W);
        for (int l = 0; l < W; ++l) vals[l] = raw[static_cast<std::size_t>(l)];
        typename Ops::reg v = Ops::load(vals.data());
        const T fill = neg_inf<T>();
        alignas(64) T out[W];
        Ops::to_array(Ops::seg_scan_max(v, step, fill), out);

        long carry = fill;
        for (int l = 0; l < W; ++l) {
          ASSERT_EQ(out[l], static_cast<T>(carry))
              << "lane " << l << " step " << step << " full=" << full_range;
          long ext = carry + step;
          if (sizeof(T) < 4) {
            const long lo = std::numeric_limits<T>::min();
            const long hi = std::numeric_limits<T>::max();
            ext = ext < lo ? lo : (ext > hi ? hi : ext);
          }
          carry = std::max(static_cast<long>(vals[l]), ext);
        }
      }
    }
  }
}

// popcount_and: population count of the raw-bit AND of two whole
// registers, lane-type agnostic. Checked bit-exact against a per-lane
// reference on edge patterns (zero, all-ones, sign-bit-only, low-bit)
// and random full-range lanes.
template <class Ops>
void popcount_and_matches_reference() {
  using T = typename Ops::value_type;
  using U = std::make_unsigned_t<T>;
  constexpr int W = Ops::kWidth;
  std::mt19937_64 rng(0xB175);

  alignas(64) T a[W], b[W];
  const auto reference = [&]() {
    std::uint64_t n = 0;
    for (int l = 0; l < W; ++l) {
      n += static_cast<std::uint64_t>(std::popcount(
          static_cast<U>(static_cast<U>(a[l]) & static_cast<U>(b[l]))));
    }
    return n;
  };

  const U specials[] = {U{0}, static_cast<U>(~U{0}),
                        static_cast<U>(U{1} << (sizeof(T) * 8 - 1)), U{1}};
  for (U pa : specials) {
    for (U pb : specials) {
      for (int l = 0; l < W; ++l) {
        a[l] = static_cast<T>(pa);
        b[l] = static_cast<T>(pb);
      }
      ASSERT_EQ(Ops::popcount_and(Ops::load(a), Ops::load(b)), reference());
    }
  }
  for (int iter = 0; iter < 200; ++iter) {
    for (int l = 0; l < W; ++l) {
      a[l] = static_cast<T>(rng());
      b[l] = static_cast<T>(rng());
    }
    ASSERT_EQ(Ops::popcount_and(Ops::load(a), Ops::load(b)), reference())
        << "iter " << iter;
  }
}

template <class Ops>
void run_all() {
  primitive_roundtrip_and_arith<Ops>();
  shift_insert_semantics<Ops>();
  set_vector_semantics<Ops>();
  wgt_max_scan_matches_reference<Ops>();
  seg_scan_max_matches_reference<Ops>();
  influence_and_hmax<Ops>();
  eq_mask_semantics<Ops>();
  gather_semantics<Ops>();
  table_lookup_semantics<Ops>();
  subus_semantics<Ops>();
  popcount_and_matches_reference<Ops>();
}

#define AALIGN_SIMD_TEST(SUITE, T, TAG)                       \
  TEST(SUITE, T##_##TAG) {                                    \
    if (!isa_available(isa_kind<TAG##Tag>()))                 \
      GTEST_SKIP() << #TAG " not available on this machine";  \
    run_all<VecOps<T, TAG##Tag>>();                           \
  }

using std::int16_t;
using std::int32_t;
using std::int8_t;

AALIGN_SIMD_TEST(SimdModules, int8_t, Scalar)
AALIGN_SIMD_TEST(SimdModules, int16_t, Scalar)
AALIGN_SIMD_TEST(SimdModules, int32_t, Scalar)
#if defined(AALIGN_HAVE_SSE41)
AALIGN_SIMD_TEST(SimdModules, int8_t, Sse41)
AALIGN_SIMD_TEST(SimdModules, int16_t, Sse41)
AALIGN_SIMD_TEST(SimdModules, int32_t, Sse41)
#endif
#if defined(AALIGN_HAVE_AVX2)
AALIGN_SIMD_TEST(SimdModules, int8_t, Avx2)
AALIGN_SIMD_TEST(SimdModules, int16_t, Avx2)
AALIGN_SIMD_TEST(SimdModules, int32_t, Avx2)
#endif
#if defined(AALIGN_HAVE_AVX512)
AALIGN_SIMD_TEST(SimdModules, int32_t, Avx512)
#endif
#if defined(AALIGN_HAVE_AVX512BW) && defined(__AVX512VBMI__)
AALIGN_SIMD_TEST(SimdModules, int8_t, Avx512Bw)
AALIGN_SIMD_TEST(SimdModules, int16_t, Avx512Bw)
AALIGN_SIMD_TEST(SimdModules, int32_t, Avx512Bw)
#endif

// column_codes: the AVX-512BW int8 block transpose of the inter-sequence
// kernel against the scalar fill it replaces, out[c * 64 + l] = t0 + c <
// len[l] ? subject[l][t0 + c] : pad. Lanes end 0, 1, 63, 64, 65 and 127
// residues past the block start, or before it; the tail lanes repeat lane
// 0's pointer, as a partial batch does. Every subject is allocated to its
// exact length, so an unmasked read past its end is a heap overflow.
TEST(ColumnCodes, TransposeMatchesScalarFill) {
#if defined(AALIGN_HAVE_AVX512BW) && defined(__AVX512VBMI__)
  if (!isa_available(IsaKind::Avx512Bw)) {
    GTEST_SKIP() << "AVX-512BW with VBMI not available on this machine; "
                    "column_codes is not exercised";
  }
  using Ops = VecOps<std::int8_t, Avx512BwTag>;
  constexpr int W = Ops::kWidth;
  constexpr std::int8_t kPad = 24;
  constexpr int kEnds[] = {0, 1, 63, 64, 65, 127, -5};
  std::mt19937_64 rng(0xC0DE);
  for (const int t0 : {0, 64, 192}) {
    std::vector<std::vector<std::uint8_t>> subjects(W);
    const std::uint8_t* ptrs[W];
    int lens[W];
    for (int l = 0; l < W; ++l) {
      if (l >= W - 8) {  // repeated tail lanes
        ptrs[l] = ptrs[0];
        lens[l] = lens[0];
        continue;
      }
      const int end =
          l < 14 ? kEnds[l % 7] : static_cast<int>(rng() % 200) - 70;
      const int len = std::max(0, t0 + end);
      subjects[l].resize(static_cast<std::size_t>(len));
      for (auto& c : subjects[l]) c = static_cast<std::uint8_t>(rng() % 24);
      ptrs[l] = subjects[l].data();
      lens[l] = len;
    }
    util::AlignedBuffer<std::int8_t> out(W * W);
    Ops::column_codes(ptrs, lens, t0, kPad, out.data());
    for (int c = 0; c < W; ++c) {
      for (int l = 0; l < W; ++l) {
        const std::int8_t want =
            t0 + c < lens[l] ? static_cast<std::int8_t>(ptrs[l][t0 + c])
                             : kPad;
        ASSERT_EQ(out[c * W + l], want)
            << "t0 " << t0 << " column " << c << " lane " << l;
      }
    }
  }
#else
  GTEST_SKIP() << "built without the AVX-512BW+VBMI backend; column_codes "
                  "is not exercised";
#endif
}

// The signature-scan dispatch (filter/sig_scan.h) over whole word
// arrays: every backend must agree bit-exactly with the scalar popcount
// sum, including word counts at and around each backend's lane boundary
// (strides are 4/8/16 int32 words, so 4..80 covers below/at/above for
// all of them plus the strided-sweep tail path).
TEST(SigScan, BitExactAcrossBackendsAndWidths) {
  std::mt19937_64 rng(0x5163);
  for (const std::size_t words : {4, 8, 12, 16, 24, 32, 48, 64, 80}) {
    util::AlignedBuffer<std::int32_t> a, b;
    a.resize(words);
    b.resize(words);
    std::uint64_t expect = 0;
    for (std::size_t w = 0; w < words; ++w) {
      a[w] = static_cast<std::int32_t>(rng());
      b[w] = static_cast<std::int32_t>(rng());
      expect += static_cast<std::uint64_t>(
          std::popcount(static_cast<std::uint32_t>(a[w]) &
                        static_cast<std::uint32_t>(b[w])));
    }
    for (IsaKind isa : kAllIsaKinds) {
      if (!isa_available(isa)) continue;
      const filter::SigScanFn fn = filter::sig_scan_fn(isa);
      ASSERT_NE(fn, nullptr) << isa_name(isa);
      EXPECT_EQ(fn(a.data(), b.data(), words), expect)
          << isa_name(isa) << " words=" << words;
    }
  }
}

// The scan reference itself: spot-check tiny cases by hand.
TEST(WgtMaxScanReference, TinyHandCase) {
  // m=3, init=10, first=-5, ext=-1:
  // out[0] = 10-5+0 = 5
  // out[1] = max(10-5-1, in0-5) ; out[2] = max(10-5-2, in0-5-1, in1-5)
  const std::int32_t in[3] = {20, 0, 0};
  std::int32_t out[3];
  wgt_max_scan_reference<std::int32_t>(in, out, 3, 10, -5, -1);
  EXPECT_EQ(out[0], 5);
  EXPECT_EQ(out[1], 15);  // in0 - 5
  EXPECT_EQ(out[2], 14);  // in0 - 5 - 1
}

}  // namespace
