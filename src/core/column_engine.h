// ColumnEngine: one column of the striped DP under either vectorization
// strategy, templated over the ISA backend (Ops), the alignment kind, and
// the gap system.
//
// This is the meeting point of Alg. 2 (striped-iterate) and Alg. 3
// (striped-scan): both strategies share the identical buffer invariants so
// the hybrid method (Sec. V-B) can switch between them at any column
// boundary with no state reconstruction:
//   - h_prev holds the FINAL scores H(i, .) of the last processed column i
//   - e holds E(i+1, .), the left-gap carry already advanced one column
//     (E(i+1,j) = max(E(i,j) - ext_l, H(i,j) - first_l))
//   - the vertical (F/U) carry is column-internal in both strategies
//
// Coordinates: columns i = 1..n walk the subject; logical cell e in [0, m)
// is query position e+1. Striped placement: logical e -> vector (e % segs),
// lane (e / segs); buffers are indexed [vector*W + lane].
//
// Gap steps are pre-negated (see simd/modules.h): first_* = -(open+extend)
// is the cost of a gap's first character, ext_* = -extend each further one.
#pragma once

#include <cstdint>
#include <limits>
#include <span>

#include "core/config.h"
#include "core/workspace.h"
#include "score/profile.h"
#include "simd/modules.h"

namespace aalign::core {

template <class T>
struct Steps {
  T first_up, ext_up;      // gaps consuming query characters (F/U)
  T first_left, ext_left;  // gaps consuming subject characters (E/L)
};

template <class T>
T clamp_score(long v) {
  if (v > std::numeric_limits<T>::max()) return std::numeric_limits<T>::max();
  if (v < static_cast<long>(simd::neg_inf<T>())) return simd::neg_inf<T>();
  return static_cast<T>(v);
}

template <class T>
Steps<T> make_steps(const AlignConfig& cfg) {
  return Steps<T>{
      clamp_score<T>(-(cfg.pen.query.open + cfg.pen.query.extend)),
      clamp_score<T>(-cfg.pen.query.extend),
      clamp_score<T>(-(cfg.pen.subject.open + cfg.pen.subject.extend)),
      clamp_score<T>(-cfg.pen.subject.extend)};
}

template <class Ops, AlignKind K, bool Affine>
class ColumnEngine {
 public:
  using T = typename Ops::value_type;
  using reg = typename Ops::reg;
  using M = simd::Modules<Ops>;
  static constexpr int W = Ops::kWidth;

  ColumnEngine(const score::StripedProfile<T>& prof, Steps<T> st,
               Workspace<T>& ws, LazyF lazyf = LazyF::Fixup)
      : prof_(prof), st_(st), segs_(prof.segs), lazyf_(lazyf) {
    ws.prepare(prof.padded_len());
    h_prev_ = ws.h_prev.data();
    h_cur_ = ws.h_cur.data();
    e_ = ws.e.data();
    scan_ = ws.scan.data();
    f_ramp_ = M::set_vector_ramp(segs_, st_.first_up, st_.ext_up);
    v_max_ = Ops::set1(simd::neg_inf<T>());
    last_off_ = simd::striped_offset(prof_.m - 1, segs_, W);
    init_buffers();
  }

  // Boundary value H(i, 0): the paper's INIT_T as a function of the column.
  T init_T(long i) const {
    if constexpr (!kind_col_free(K)) {  // Global / SemiGlobalQuery
      if (i == 0) return 0;
      return clamp_score<T>(static_cast<long>(st_.first_left) +
                            (i - 1) * static_cast<long>(st_.ext_left));
    } else {
      (void)i;
      return 0;
    }
  }

  // --- striped-iterate column (Alg. 2) ------------------------------------
  // Returns the number of lazy-F corrective vector steps (the hybrid
  // method's re-computation counter).
  int column_iterate(long i, std::uint8_t c) {
    const T* pr = prof_.row(c);
    const T init_prev = init_T(i - 1);
    const T init_cur = init_T(i);
    const reg v_ext_u = Ops::set1(st_.ext_up);
    const reg v_first_u = Ops::set1(st_.first_up);
    const reg v_ext_l = Ops::set1(st_.ext_left);
    const reg v_first_l = Ops::set1(st_.first_left);
    const reg v_zero = Ops::set1(T{0});

    // Diagonal carry: last vector of the previous column shifted one lane,
    // boundary H(i-1, 0) entering lane 0.
    reg v_dia =
        M::rshift_x_fill(Ops::load(h_prev_ + (segs_ - 1) * W), 1, init_prev);
    // F lower-bound seed (the paper's set_vector, Fig. 6): lane l starts
    // from the pure boundary-gap path into its chunk.
    reg v_f = Ops::adds(Ops::set1(init_cur), f_ramp_);

    for (int j = 0; j < segs_; ++j) {
      reg v_h = Ops::adds(v_dia, Ops::load(pr + j * W));
      reg v_e;
      if constexpr (Affine) {
        v_e = Ops::load(e_ + j * W);
      } else {
        v_e = Ops::adds(Ops::load(h_prev_ + j * W), v_ext_l);
      }
      v_h = Ops::max(v_h, v_e);
      v_h = Ops::max(v_h, v_f);
      if constexpr (K == AlignKind::Local) {
        v_h = Ops::max(v_h, v_zero);
        v_max_ = Ops::max(v_max_, v_h);
      }
      Ops::store(h_cur_ + j * W, v_h);
      if constexpr (Affine) {
        v_e = Ops::max(Ops::adds(v_e, v_ext_l), Ops::adds(v_h, v_first_l));
        Ops::store(e_ + j * W, v_e);
        v_f = Ops::max(Ops::adds(v_f, v_ext_u), Ops::adds(v_h, v_first_u));
      } else {
        // Linear: H >= F always, so the chain can restart from H alone.
        v_f = Ops::adds(v_h, v_ext_u);
      }
      v_dia = Ops::load(h_prev_ + j * W);
    }

    if (lazyf_ == LazyF::Legacy)
      return lazyf_legacy(v_f, v_ext_u, v_first_u);
    return lazyf_fixup(v_f, v_ext_u, v_first_u);
  }

  // Legacy lazy-F correction (Alg. 2 ln. 30-41): iterate until
  // influence_test proves convergence. Kept as the differential oracle for
  // the fixup path and as an A/B benchmark baseline (LazyF::Legacy).
  // Boundary-sourced F is already covered by the ramp seed, so vacated
  // lanes fill with -inf.
  int lazyf_legacy(reg v_f, reg v_ext_u, reg v_first_u) {
    const T kNegInf = simd::neg_inf<T>();
    int steps = 0;
    reg v_fc = M::rshift_x_fill(v_f, 1, kNegInf);
    if constexpr (Affine) {
      for (int round = 0; round < W; ++round) {
        for (int j = 0; j < segs_; ++j) {
          reg v_h = Ops::load(h_cur_ + j * W);
          v_h = Ops::max(v_h, v_fc);
          if constexpr (K == AlignKind::Local) v_max_ = Ops::max(v_max_, v_h);
          Ops::store(h_cur_ + j * W, v_h);
          ++steps;
          const reg v_open = Ops::adds(v_h, v_first_u);
          v_fc = Ops::adds(v_fc, v_ext_u);
          // influence_test: once extending F cannot beat re-opening from
          // the (updated) H anywhere, no later cell can be affected.
          if (!M::influence_test(v_fc, v_open)) return steps;
        }
        v_fc = M::rshift_x_fill(v_fc, 1, kNegInf);
      }
    } else {
      // Linear gaps: open == extend, so "extending F" and "re-opening from
      // H" tie and the affine exit test would fire immediately. Instead,
      // test F directly against H and continue the chain from the updated
      // H (which dominates F in the linear system).
      for (int round = 0; round < W; ++round) {
        for (int j = 0; j < segs_; ++j) {
          reg v_h = Ops::load(h_cur_ + j * W);
          ++steps;
          if (!M::influence_test(v_fc, v_h)) return steps;
          v_h = Ops::max(v_h, v_fc);
          if constexpr (K == AlignKind::Local) v_max_ = Ops::max(v_max_, v_h);
          Ops::store(h_cur_ + j * W, v_h);
          v_fc = Ops::adds(v_h, v_ext_u);
        }
        v_fc = M::rshift_x_fill(v_fc, 1, kNegInf);
      }
    }
    return steps;
  }

  // Deconstructed lazy-F correction (arXiv:1909.00899): the converged
  // cross-lane carry is computed directly by one shifted max-scan over the
  // per-lane F exits (M::lazyf_carry_scan), then applied in a single
  // bounded sweep - worst case segs corrective steps instead of the retry
  // loop's W * segs. The sweep extends the carry with ext only; re-opening
  // from a fixup-raised H is dominated (gap_first <= gap_ext) and in the
  // linear system restarting from H ties with extension, so H ends
  // bit-identical to the legacy loop in both gap systems. E is left
  // untouched, exactly like the legacy loop (the Farrar shortcut).
  // The early exits are the legacy tests verbatim and skip only dominated
  // updates.
  int lazyf_fixup(reg v_f, reg v_ext_u, reg v_first_u) {
    int depth = 0;
    reg v_fc = M::lazyf_carry_scan(v_f, segs_, st_.ext_up, depth);
    int steps = 0;
    if constexpr (Affine) {
      for (int j = 0; j < segs_; ++j) {
        reg v_h = Ops::load(h_cur_ + j * W);
        v_h = Ops::max(v_h, v_fc);
        if constexpr (K == AlignKind::Local) v_max_ = Ops::max(v_max_, v_h);
        Ops::store(h_cur_ + j * W, v_h);
        ++steps;
        const reg v_open = Ops::adds(v_h, v_first_u);
        v_fc = Ops::adds(v_fc, v_ext_u);
        if (!M::influence_test(v_fc, v_open)) break;
      }
    } else {
      for (int j = 0; j < segs_; ++j) {
        reg v_h = Ops::load(h_cur_ + j * W);
        ++steps;
        if (!M::influence_test(v_fc, v_h)) break;
        v_h = Ops::max(v_h, v_fc);
        if constexpr (K == AlignKind::Local) v_max_ = Ops::max(v_max_, v_h);
        Ops::store(h_cur_ + j * W, v_h);
        v_fc = Ops::adds(v_fc, v_ext_u);
      }
    }
    ++fixup_cols_;
    if (depth > 0) {
      // The legacy loop spends about one full column pass per lane of
      // carry propagation (plus the pass the fixup itself still runs).
      const long est = (static_cast<long>(depth) + 1) * segs_;
      if (est > steps)
        saved_iters_ += static_cast<std::uint64_t>(est - steps);
    }
    return steps;
  }

  // --- striped-scan column (Alg. 3) ---------------------------------------
  void column_scan(long i, std::uint8_t c) {
    const T* pr = prof_.row(c);
    const T init_prev = init_T(i - 1);
    const T init_cur = init_T(i);
    const reg v_ext_l = Ops::set1(st_.ext_left);
    const reg v_first_l = Ops::set1(st_.first_left);
    const reg v_zero = Ops::set1(T{0});

    // Tentative pass: vertical (up) dependencies ignored entirely.
    reg v_dia =
        M::rshift_x_fill(Ops::load(h_prev_ + (segs_ - 1) * W), 1, init_prev);
    for (int j = 0; j < segs_; ++j) {
      reg v_h = Ops::adds(v_dia, Ops::load(pr + j * W));
      reg v_e;
      if constexpr (Affine) {
        v_e = Ops::load(e_ + j * W);
      } else {
        v_e = Ops::adds(Ops::load(h_prev_ + j * W), v_ext_l);
      }
      v_h = Ops::max(v_h, v_e);
      if constexpr (K == AlignKind::Local) v_h = Ops::max(v_h, v_zero);
      Ops::store(h_cur_ + j * W, v_h);
      v_dia = Ops::load(h_prev_ + j * W);
    }

    // Weighted max-scan over the tentative column (exact for the final
    // scores: re-opening from a value that itself arrived via an up-gap is
    // dominated, so scanning tentative values loses nothing).
    M::wgt_max_scan(h_cur_, scan_, segs_, init_cur, st_.first_up, st_.ext_up);

    // Correction pass + E carry for the next column.
    for (int j = 0; j < segs_; ++j) {
      reg v_h = Ops::max(Ops::load(h_cur_ + j * W), Ops::load(scan_ + j * W));
      if constexpr (K == AlignKind::Local) v_max_ = Ops::max(v_max_, v_h);
      Ops::store(h_cur_ + j * W, v_h);
      if constexpr (Affine) {
        const reg v_e = Ops::max(Ops::adds(Ops::load(e_ + j * W), v_ext_l),
                                 Ops::adds(v_h, v_first_l));
        Ops::store(e_ + j * W, v_e);
      }
    }
  }

  // Block drivers: tight loops over [i, i+count) columns. The strategy
  // drivers (and the hybrid's window/stride phases) run whole blocks so
  // the per-column code is identical whether or not switching logic sits
  // above it.
  std::uint64_t run_iterate_block(long i, const std::uint8_t* subject,
                                  long count) {
    std::uint64_t lazy = 0;
    for (long t = 0; t < count; ++t) {
      lazy += static_cast<std::uint64_t>(
          column_iterate(i + t, subject[i + t - 1]));
      commit_column();
    }
    return lazy;
  }

  void run_scan_block(long i, const std::uint8_t* subject, long count) {
    for (long t = 0; t < count; ++t) {
      column_scan(i + t, subject[i + t - 1]);
      commit_column();
    }
  }

  // Commit the column: h_cur becomes h_prev. Call after every column,
  // whichever strategy produced it.
  void commit_column() {
    if constexpr (kind_end_row_free(K)) {  // SemiGlobal / Overlap
      const T last = h_cur_[last_off_];
      if (static_cast<long>(last) > best_last_) best_last_ = last;
    }
    std::swap(h_prev_, h_cur_);
  }

  long finalize() const {
    if constexpr (K == AlignKind::Local) {
      const T best = M::hmax(v_max_);
      return best > 0 ? static_cast<long>(best) : 0;
    } else if constexpr (K == AlignKind::Global) {
      return static_cast<long>(h_prev_[last_off_]);
    } else if constexpr (K == AlignKind::SemiGlobal) {
      return best_last_;
    } else {
      // SemiGlobalQuery / Overlap: trailing query overhang free -> max
      // over the final column's real cells (pad cells are never read).
      long best = (K == AlignKind::Overlap) ? best_last_
                                            : std::numeric_limits<long>::min();
      for (int e = 0; e < prof_.m; ++e) {
        const long v = static_cast<long>(
            h_prev_[simd::striped_offset(e, segs_, W)]);
        if (v > best) best = v;
      }
      return best;
    }
  }

  // Conservative saturation check for narrow score types: flags both the
  // high rail (score near +max) and, for gapped boundaries, the low rail.
  bool saturated(long score, long n) const {
    if constexpr (sizeof(T) >= 4) {
      (void)score;
      (void)n;
      return false;
    } else {
      constexpr long kMargin = 32;  // > any matrix entry or single gap step
      if (score >= std::numeric_limits<T>::max() - kMargin) return true;
      if constexpr (K != AlignKind::Local) {
        const long low_rail = static_cast<long>(simd::neg_inf<T>()) + kMargin;
        if constexpr (!kind_row_free(K)) {
          const long worst_row = static_cast<long>(st_.first_up) +
                                 static_cast<long>(prof_.padded_len() - 1) *
                                     static_cast<long>(st_.ext_up);
          if (worst_row <= low_rail) return true;
        }
        if constexpr (!kind_col_free(K)) {
          const long worst_col =
              static_cast<long>(st_.first_left) +
              (n - 1) * static_cast<long>(st_.ext_left);
          if (worst_col <= low_rail) return true;
        }
      }
      return false;
    }
  }

  int segs() const { return segs_; }
  LazyF lazyf() const { return lazyf_; }

  // Deconstructed lazy-F accounting, accumulated across every column this
  // engine processed (kernel.lazyf.* counters; zero under LazyF::Legacy).
  std::uint64_t fixup_cols() const { return fixup_cols_; }
  std::uint64_t saved_iters() const { return saved_iters_; }

 private:
  void init_buffers() {
    const int mpad = prof_.padded_len();
    for (int j = 0; j < segs_; ++j) {
      for (int l = 0; l < W; ++l) {
        const long logical = static_cast<long>(l) * segs_ + j;
        long h0;
        if constexpr (kind_row_free(K)) {
          h0 = 0;  // leading query overhang is free
        } else {
          // Global/SemiGlobal pay for leading query gaps.
          h0 = static_cast<long>(st_.first_up) +
               logical * static_cast<long>(st_.ext_up);
        }
        h_prev_[j * W + l] = clamp_score<T>(h0);
        // E(1, .) = H(0, .) - (subject gap open+extend)
        e_[j * W + l] =
            clamp_score<T>(h0 + static_cast<long>(st_.first_left));
      }
    }
    (void)mpad;
    if constexpr (kind_end_row_free(K)) {
      best_last_ = static_cast<long>(h_prev_[last_off_]);
    }
  }

  const score::StripedProfile<T>& prof_;
  Steps<T> st_;
  int segs_;
  LazyF lazyf_;
  std::uint64_t fixup_cols_ = 0;
  std::uint64_t saved_iters_ = 0;
  T* h_prev_;
  T* h_cur_;
  T* e_;
  T* scan_;
  reg f_ramp_;
  reg v_max_;
  int last_off_ = 0;
  long best_last_ = std::numeric_limits<long>::min();
};

}  // namespace aalign::core
