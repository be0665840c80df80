// The generalized pairwise-alignment paradigm (paper Sec. IV) as data.
//
// Eq. (2)'s parameters map onto this config as:
//   theta  (gap-open along the query / "up")      -> pen.query.open
//   beta   (gap-extend along the query / "up")    -> pen.query.extend
//   theta' (gap-open along the subject / "left")  -> pen.subject.open
//   beta'  (gap-extend along the subject)         -> pen.subject.extend
//   optional 0 in the outer max                   -> AlignKind::Local
//   gamma                                         -> the ScoreMatrix
//
// Penalties are positive; a gap of length L costs open + L*extend (the
// first gap character costs open+extend, matching the paper's GAP_UP =
// theta+beta / GAP_UP_EXT = beta split). A linear gap system is an affine
// one with open == 0.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>

#include "score/matrices.h"
#include "simd/isa.h"

namespace aalign {

enum class AlignKind : std::uint8_t {
  Local,            // Smith-Waterman
  Global,           // Needleman-Wunsch
  SemiGlobal,       // query global, subject overhangs free ("glocal")
  SemiGlobalQuery,  // subject global, query overhangs free
  Overlap,          // dovetail: both leading and trailing overhangs free
};

// Boundary/result shape of each kind, used by every DP implementation:
//   rows_free: leading query gaps are free  -> H(0, j) = 0
//   cols_free: leading subject gaps are free -> H(i, 0) = 0
//   end_row_free: trailing subject overhang free -> max over H(i, m)
//   end_col_free: trailing query overhang free  -> max over H(n, j)
constexpr bool kind_row_free(AlignKind k) {
  return k == AlignKind::Local || k == AlignKind::SemiGlobalQuery ||
         k == AlignKind::Overlap;
}
constexpr bool kind_col_free(AlignKind k) {
  return k == AlignKind::Local || k == AlignKind::SemiGlobal ||
         k == AlignKind::Overlap;
}
constexpr bool kind_end_row_free(AlignKind k) {
  return k == AlignKind::SemiGlobal || k == AlignKind::Overlap;
}
constexpr bool kind_end_col_free(AlignKind k) {
  return k == AlignKind::SemiGlobalQuery || k == AlignKind::Overlap;
}

enum class GapModel : std::uint8_t { Linear, Affine };

enum class Strategy : std::uint8_t {
  Sequential,      // reference / baseline
  StripedIterate,  // Alg. 2 (Farrar-style lazy-F)
  StripedScan,     // Alg. 3 (weighted max-scan)
  Hybrid,          // Sec. V-B runtime switching
};

enum class ScoreWidth : std::uint8_t { W8 = 1, W16 = 2, W32 = 4, Auto = 0 };

// Lazy-F correction implementation inside striped-iterate (Alg. 2
// ln. 30-41). Fixup is the deconstructed form (Snytsar, arXiv:1909.00899):
// one shifted max-scan over the per-lane F exits plus one bounded
// corrective sweep per column. Legacy is Farrar's iterate-until-converged
// retry loop, kept as a differential oracle and an A/B benchmark baseline.
// Both produce bit-identical H/E state.
enum class LazyF : std::uint8_t { Fixup, Legacy };

const char* to_string(AlignKind k);
const char* to_string(GapModel g);
const char* to_string(Strategy s);
const char* to_string(ScoreWidth w);
const char* to_string(LazyF l);

struct GapScheme {
  int open = 10;    // theta: charged once when a gap starts
  int extend = 2;   // beta: charged per gap character

  bool linear() const { return open == 0; }
};

struct Penalties {
  GapScheme query;    // gaps consuming query characters ("up"/U direction)
  GapScheme subject;  // gaps consuming subject characters ("left"/L)

  static Penalties symmetric(int open, int extend) {
    return Penalties{{open, extend}, {open, extend}};
  }
};

struct AlignConfig {
  AlignKind kind = AlignKind::Local;
  Penalties pen = Penalties::symmetric(10, 2);
  LazyF lazyf = LazyF::Fixup;

  GapModel gap_model() const {
    return (pen.query.linear() && pen.subject.linear()) ? GapModel::Linear
                                                        : GapModel::Affine;
  }

  void validate() const {
    if (pen.query.open < 0 || pen.query.extend <= 0 || pen.subject.open < 0 ||
        pen.subject.extend <= 0) {
      throw std::invalid_argument(
          "AlignConfig: gap extend must be > 0 and gap open >= 0");
    }
    if (pen.query.linear() != pen.subject.linear()) {
      throw std::invalid_argument(
          "AlignConfig: mixed linear/affine gap systems are not supported");
    }
  }
};

// Runtime-switching parameters for the hybrid strategy (paper Sec. V-B).
// The counter tracks lazy-F re-computation work in units of full extra
// column passes (lazy vector steps / segs). The paper calibrates the
// switch threshold against the legacy convergence loop, whose counter is
// unbounded (~1.5 extra passes at the crossover on its MIC, ~2.5 on its
// CPU). Under the default LazyF::Fixup path the counter is capped at 1.0
// - the corrective sweep is a single bounded pass - which compresses the
// whole scale: re-measured with the fixup (bench/ablate_hybrid_threshold),
// dissimilar inputs sit near 0.03-0.08 passes/column, high-identity
// inputs near 0.73-0.84, and iterate beats scan across that entire range.
// The re-derived default therefore sits just above the high-identity band:
// only the degenerate regime where nearly every column runs a full-length
// sweep (counter pinned at ~1.0, where scan's input-independent cost
// finally wins) triggers the switch.
struct HybridParams {
  double threshold = 0.95;  // switch iterate->scan above this many passes
  int window = 16;          // columns per decision epoch in iterate mode
  int stride = 256;         // columns to stay in scan mode before probing
};

struct KernelStats {
  std::uint64_t columns = 0;
  // Lazy-F corrective vector steps actually executed, whichever LazyF
  // implementation ran (legacy: all retry-loop steps; fixup: the steps of
  // its single bounded sweep). Accumulated once per column - never
  // double-counted across driver chunks.
  std::uint64_t lazy_steps = 0;
  std::uint64_t iterate_columns = 0;  // columns processed by striped-iterate
  std::uint64_t scan_columns = 0;     // columns processed by striped-scan
  std::uint64_t switches = 0;         // hybrid mode changes
  // Deconstructed lazy-F accounting (LazyF::Fixup only):
  std::uint64_t lazyf_fixup_cols = 0;   // columns corrected via the scan fixup
  std::uint64_t lazyf_saved_iters = 0;  // est. legacy corrective steps avoided

  KernelStats& operator+=(const KernelStats& o) {
    columns += o.columns;
    lazy_steps += o.lazy_steps;
    iterate_columns += o.iterate_columns;
    scan_columns += o.scan_columns;
    switches += o.switches;
    lazyf_fixup_cols += o.lazyf_fixup_cols;
    lazyf_saved_iters += o.lazyf_saved_iters;
    return *this;
  }
};

struct KernelResult {
  long score = 0;
  bool saturated = false;  // narrow type overflowed; caller should promote
  bool cancelled = false;  // run stopped by a CancelToken; score is invalid
  KernelStats stats;
};

// True when Farrar's lazy-F shortcut (E not refreshed from corrected H) is
// exact: no optimal alignment can require an insertion adjacent to a
// deletion. Holds for all standard matrices with typical gap costs; the
// tests check it for their penalty sets. (Identical caveat to SSW/parasail.)
bool farrar_safe(const score::ScoreMatrix& m, const Penalties& p);

// Smallest score width whose range is guaranteed to hold every
// intermediate value for an (m x n) problem under this config, or
// ScoreWidth::W32 if even 16-bit could overflow.
ScoreWidth min_safe_width(const AlignConfig& cfg, const score::ScoreMatrix& m,
                          std::size_t query_len, std::size_t subject_len);

}  // namespace aalign
