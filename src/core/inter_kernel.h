// Inter-sequence vectorization kernel: W database subjects aligned
// simultaneously, one per vector lane (same idea as Rognes' SWIPE).
//
// Because each lane is an independent alignment, the DP recurrences are
// plain element-wise vector ops - no striping, no lazy-F corrections, no
// scan. The substitution fetch is a per-column SCORE PROFILE: before the
// inner loop walks the query, the W-lane substitution row of every query
// residue is materialized once (prof[a][l] = matrix(subject_l[t], a), with
// finished lanes reading the batch-padding row - strongly negative, so
// lanes that ended early decay to zero and stop contributing to the
// running maximum). The inner loop then does one sequential aligned load
// per cell instead of a per-lane gather, which is what lets the kernel run
// on 8/16-bit lanes at all (x86 has no narrow gathers) and removes the
// gather latency from the 32-bit path too. The profile's column codes come
// from `column_codes` where the backend has it (64 columns at a time,
// transposed in registers) and from a per-lane scalar fill otherwise.
//
// Recurrence, per column i and query row j, with e[j] holding E already
// opened for column i (Farrar's / SSW's formulation):
//   H    = max(H(i-1, j-1) + S, e[j], F)
//   open = gap(H, open_left)   gap(x, c) = x - c
//   e[j] = max(gap(e[j], ext_left), open)         E of column i + 1
//   F    = max(gap(F, ext_up), gap(H, open_up))   F of row j + 1
// (open_* = open + extend, ext_* = extend, both as positive costs). When
// the two opening costs match - the usual symmetric penalties - the one
// `open` feeds both e[j] and F.
//
// int8/int16 tiers: gap is `subus`, an unsigned saturating subtract, so E
// and F never go below 0, start at 0, and H needs no max with 0: 9 vector
// ops per cell (1 add, 5 max, 3 subus), 10 when the opening costs differ.
// Flooring cannot change a score: the true H is max(diag + S, E, F, 0),
// and with E' = max(E, 0), F' = max(F, 0) the floored kernel computes
// max(diag + S, E', F') = max(diag + S, E, F, 0) = H. By induction the
// next floored E, max(E' - ext, H - open, 0), equals max(E - ext, H -
// open, 0), the floor of the true next E, because the only extra term,
// 0 - ext, is not above 0; likewise for F. A cost at the tier's rail
// (open + extend >= 128 at int8) is the byte 0x80, i.e. 128 unsigned;
// every H below the ceiling floors to 0 against it, as the true
// (negative) value would after the max with 0.
// The positive rail is one-sided: a lane whose running maximum ends pinned
// at it may have overflowed and is reported in the returned bitmask so the
// caller can re-run it at the next wider precision.
//
// int32 tier: gap is a plain add of the negative step and H keeps its max
// with 0 (x86 has no unsigned 32-bit saturating subtract): 10 ops per
// cell, 11 with differing opening costs. E and F also start at 0; they are
// then no lower than the true values and no higher than their floors at
// 0, which leaves every H exact by the same argument.
//
// Include only from backend TUs compiled with the right ISA flags.
#pragma once

#include <stdexcept>
#include <type_traits>

#include "core/column_engine.h"
#include "core/inter_engine.h"

namespace aalign::core {

template <class Ops>
std::uint64_t inter_sequence_local(const InterBatchInput& in,
                                   const Steps<typename Ops::value_type>& st,
                                   Workspace<typename Ops::value_type>& ws,
                                   long* out_scores) {
  using T = typename Ops::value_type;
  using reg = typename Ops::reg;
  constexpr int W = Ops::kWidth;
  constexpr bool kNarrow = sizeof(T) < 4;
  const int m = static_cast<int>(in.query.size());
  const int alpha = in.alpha;

  ws.h_prev.resize(m * W);  // H(prev column) per (j, lane)
  ws.e.resize(m * W);       // opened E per (j, lane)
  ws.scan.resize(alpha * W);  // per-column score profile, one row per residue
  T* const h = ws.h_prev.data();
  T* const e = ws.e.data();
  T* const prof = ws.scan.data();
  for (int j = 0; j < m * W; ++j) {
    h[j] = 0;
    e[j] = 0;
  }

  // The substitution matrix is narrowed to T ONCE per batch, so the
  // per-column profile build is a pure copy with no clamping in the loop.
  // Backends with an in-register permute expose `table_lookup`; for them
  // the matrix is laid out as one kLutStride-entry row per QUERY symbol
  // (indexed by subject character, pad included) and the per-column build
  // collapses to one permute per alphabet symbol. Everyone else gets the
  // scalar layout: one row per SUBJECT character, contiguous in the query
  // symbol, copied lane by lane.
  constexpr bool kHasLut =
      requires(const T* p, reg r) { Ops::table_lookup(p, r); };
  // A block of W columns' codes (W x W entries) built at once, else one
  // column's W codes at a time.
  constexpr bool kHasCodes =
      requires(const std::uint8_t* const* s, const int* n, T* out) {
        Ops::column_codes(s, n, 0, T{0}, out);
      };
  constexpr int kCodeCols = kHasCodes ? W : 1;
  constexpr int kLutStride = 64;          // entries; every backend's row load fits
  const bool use_lut = kHasLut && alpha < 32;  // in-register index range
  T* lut = nullptr;    // [alpha][kLutStride]
  T* codes = nullptr;  // [kCodeCols][W], follows the LUT
  T* nm = nullptr;     // [alpha + 1][alpha]
  if (use_lut) {
    ws.h_cur.resize(alpha * kLutStride + kCodeCols * W);
    lut = ws.h_cur.data();
    codes = lut + alpha * kLutStride;
    for (int a = 0; a < alpha; ++a) {
      T* row = lut + a * kLutStride;
      for (int c = 0; c <= alpha; ++c) {
        row[c] =
            clamp_score<T>(in.flat_matrix[static_cast<std::size_t>(c) * alpha +
                                          a]);
      }
      for (int c = alpha + 1; c < kLutStride; ++c) row[c] = 0;
    }
  } else {
    ws.h_cur.resize((alpha + 1) * alpha);
    nm = ws.h_cur.data();
    for (int c = 0; c <= alpha; ++c) {
      for (int a = 0; a < alpha; ++a) {
        const std::size_t k = static_cast<std::size_t>(c) * alpha + a;
        nm[k] = clamp_score<T>(in.flat_matrix[k]);
      }
    }
  }

  // Score profile of column t: transpose one matrix row per lane
  // (finished lanes use the padding row, index alpha) into W-lane rows
  // indexed by query residue. Row stride W*sizeof(T) is exactly the
  // register width, so every row is load-aligned.
  const auto fill_profile = [&](int t) {
    if constexpr (kHasLut) {
      if (use_lut) {
        const T* idx = codes;
        if constexpr (kHasCodes) {
          const int c = t % kCodeCols;
          if (c == 0) {
            Ops::column_codes(in.subjects, in.lengths, t,
                              static_cast<T>(alpha), codes);
          }
          idx = codes + c * W;
        } else {
          for (int l = 0; l < W; ++l) {
            codes[l] =
                static_cast<T>(t < in.lengths[l] ? in.subjects[l][t] : alpha);
          }
        }
        const reg v_idx = Ops::load(idx);
        for (int a = 0; a < alpha; ++a) {
          Ops::store(prof + a * W,
                     Ops::table_lookup(lut + a * kLutStride, v_idx));
        }
        return;
      }
    }
    for (int l = 0; l < W; ++l) {
      const int c = t < in.lengths[l] ? in.subjects[l][t] : alpha;
      const T* row = nm + static_cast<std::size_t>(c) * alpha;
      for (int a = 0; a < alpha; ++a) prof[a * W + l] = row[a];
    }
  };

  // Gap costs as the operand of `gap`: positive costs for subus, the
  // negative steps themselves for the int32 add.
  const auto cost = [](T step) {
    if constexpr (kNarrow) {
      return Ops::set1(static_cast<T>(-step));  // -(-128) wraps to 0x80
    } else {
      return Ops::set1(step);
    }
  };
  const auto gap = [](reg v, reg c) {
    if constexpr (kNarrow) {
      return Ops::subus(v, c);
    } else {
      return Ops::adds(v, c);
    }
  };

  const auto sweep = [&](auto shared_open) {
    constexpr bool kShared = decltype(shared_open)::value;
    // Locals, not `in`/`st` members: stores through T* may alias them.
    const std::uint8_t* const q = in.query.data();
    const int max_len = in.max_len;
    const reg v_zero = Ops::set1(T{0});
    const reg v_open_l = cost(st.first_left);
    const reg v_ext_l = cost(st.ext_left);
    const reg v_open_u = cost(st.first_up);
    const reg v_ext_u = cost(st.ext_up);
    reg v_max = v_zero;
    for (int t = 0; t < max_len; ++t) {
      fill_profile(t);
      reg v_f = v_zero;
      reg v_hdiag = v_zero;  // local boundary H(., 0) = 0
      for (int j = 0; j < m; ++j) {
        const reg v_sub = Ops::load(prof + static_cast<std::size_t>(q[j]) * W);
        const reg v_hup = Ops::load(h + j * W);
        const reg v_e = Ops::load(e + j * W);

        reg v_h = Ops::max(Ops::max(Ops::adds(v_hdiag, v_sub), v_e), v_f);
        if constexpr (!kNarrow) v_h = Ops::max(v_h, v_zero);
        v_max = Ops::max(v_max, v_h);
        Ops::store(h + j * W, v_h);

        const reg v_open = gap(v_h, v_open_l);
        Ops::store(e + j * W, Ops::max(gap(v_e, v_ext_l), v_open));
        v_f = Ops::max(gap(v_f, v_ext_u),
                       kShared ? v_open : gap(v_h, v_open_u));
        v_hdiag = v_hup;
      }
    }
    return v_max;
  };
  const reg v_max = st.first_up == st.first_left ? sweep(std::true_type{})
                                                 : sweep(std::false_type{});

  alignas(64) T scores[W];
  Ops::to_array(v_max, scores);
  for (int l = 0; l < W; ++l) out_scores[l] = scores[l];

  if constexpr (kNarrow) {
    return Ops::eq_mask(v_max, Ops::set1(std::numeric_limits<T>::max()));
  } else {
    return 0;  // exact tier: range-checked, never saturates
  }
}

// One engine per backend bundling the tiers the ISA offers; pass `void`
// for tiers the backend cannot express (the IMCI-profile AVX-512 backend
// is int32-only, matching the paper's Sec. II-A restriction).
template <class Ops8, class Ops16, class Ops32>
class InterEngineImpl final : public InterEngine {
 public:
  explicit InterEngineImpl(simd::IsaKind isa) : isa_(isa) {}
  simd::IsaKind isa() const override { return isa_; }

  int lanes(InterPrecision p) const override {
    switch (p) {
      case InterPrecision::I8: return width_of<Ops8>();
      case InterPrecision::I16: return width_of<Ops16>();
      case InterPrecision::I32: return width_of<Ops32>();
    }
    return 0;
  }

  std::uint64_t run(InterPrecision p, const InterBatchInput& in,
                    const Penalties& pen, InterScratch& ws,
                    long* out_scores) const override {
    AlignConfig cfg;
    cfg.kind = AlignKind::Local;
    cfg.pen = pen;
    switch (p) {
      case InterPrecision::I8:
        if constexpr (!std::is_void_v<Ops8>) {
          return inter_sequence_local<Ops8>(
              in, make_steps<std::int8_t>(cfg), ws.w8, out_scores);
        }
        break;
      case InterPrecision::I16:
        if constexpr (!std::is_void_v<Ops16>) {
          return inter_sequence_local<Ops16>(
              in, make_steps<std::int16_t>(cfg), ws.w16, out_scores);
        }
        break;
      case InterPrecision::I32:
        if constexpr (!std::is_void_v<Ops32>) {
          return inter_sequence_local<Ops32>(
              in, make_steps<std::int32_t>(cfg), ws.w32, out_scores);
        }
        break;
    }
    throw std::logic_error(
        "InterEngine: precision tier unavailable on this backend");
  }

 private:
  template <class Ops>
  static constexpr int width_of() {
    if constexpr (std::is_void_v<Ops>) {
      return 0;
    } else {
      return Ops::kWidth;
    }
  }

  simd::IsaKind isa_;
};

}  // namespace aalign::core
