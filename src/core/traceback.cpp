#include "core/traceback.h"

#include <algorithm>
#include <cctype>
#include <limits>
#include <stdexcept>
#include <vector>

namespace aalign::core {

namespace {

constexpr long kNegInf = std::numeric_limits<long>::min() / 4;

// Direction byte layout.
constexpr std::uint8_t kHDiag = 0;
constexpr std::uint8_t kHFromE = 1;  // gap consuming a subject char
constexpr std::uint8_t kHFromF = 2;  // gap consuming a query char
constexpr std::uint8_t kHStop = 3;   // local zero / free boundary
constexpr std::uint8_t kHMask = 3;
constexpr std::uint8_t kEExt = 4;  // E extended from E (else opened from H)
constexpr std::uint8_t kFExt = 8;  // F extended from F

void push_op(std::string& cigar_rev, char op, std::size_t count) {
  // cigar built in reverse; caller flips at the end.
  std::string num = std::to_string(count);
  std::reverse(num.begin(), num.end());
  cigar_rev.push_back(op);
  cigar_rev += num;
}

}  // namespace

Alignment align_traceback(const score::ScoreMatrix& matrix,
                          const AlignConfig& cfg,
                          std::span<const std::uint8_t> query,
                          std::span<const std::uint8_t> subject,
                          const TracebackOptions& opt) {
  cfg.validate();
  const std::size_t m = query.size();
  const std::size_t n = subject.size();
  if (m == 0 || n == 0) {
    throw std::invalid_argument("align_traceback: empty sequence");
  }
  if ((m + 1) * (n + 1) > opt.max_cells) {
    throw std::invalid_argument(
        "align_traceback: matrix exceeds max_cells");
  }

  const long first_u = -(cfg.pen.query.open + cfg.pen.query.extend);
  const long ext_u = -cfg.pen.query.extend;
  const long first_l = -(cfg.pen.subject.open + cfg.pen.subject.extend);
  const long ext_l = -cfg.pen.subject.extend;
  const bool local = cfg.kind == AlignKind::Local;
  const bool row_free = kind_row_free(cfg.kind);
  const bool col_free = kind_col_free(cfg.kind);
  const bool end_row_free = kind_end_row_free(cfg.kind);
  const bool end_col_free = kind_end_col_free(cfg.kind);

  std::vector<std::uint8_t> dir((n + 1) * (m + 1), kHStop);
  auto D = [&](std::size_t i, std::size_t j) -> std::uint8_t& {
    return dir[i * (m + 1) + j];
  };

  std::vector<long> h(m + 1), e(m + 1, kNegInf);

  // Row 0.
  h[0] = 0;
  for (std::size_t j = 1; j <= m; ++j) {
    if (row_free) {
      h[j] = 0;
      D(0, j) = kHStop;
    } else {
      h[j] = first_u + static_cast<long>(j - 1) * ext_u;
      D(0, j) = static_cast<std::uint8_t>(kHFromF | (j > 1 ? kFExt : 0));
    }
  }

  long best = local ? 0 : kNegInf;
  std::size_t best_i = 0, best_j = 0;
  if (end_row_free) {
    best = h[m];
    best_i = 0;
    best_j = m;
  }

  for (std::size_t i = 1; i <= n; ++i) {
    long diag = h[0];
    if (!col_free) {
      h[0] = first_l + static_cast<long>(i - 1) * ext_l;
      D(i, 0) = static_cast<std::uint8_t>(kHFromE | (i > 1 ? kEExt : 0));
    } else {
      h[0] = 0;
      D(i, 0) = kHStop;
    }
    long f = kNegInf;
    std::uint8_t f_ext_bit = 0;
    const std::uint8_t sc = subject[i - 1];
    for (std::size_t j = 1; j <= m; ++j) {
      std::uint8_t d = 0;

      const long e_ext = e[j] + ext_l;
      const long e_open = h[j] + first_l;
      const long ecur = std::max(e_ext, e_open);
      if (e_ext > e_open) d |= kEExt;

      const long f_ext = f + ext_u;
      const long f_open = h[j - 1] + first_u;
      f = std::max(f_ext, f_open);
      f_ext_bit = (f_ext > f_open) ? kFExt : std::uint8_t{0};
      d |= f_ext_bit;

      long cell = diag + matrix.at(sc, query[j - 1]);
      std::uint8_t hsrc = kHDiag;
      if (ecur > cell) {
        cell = ecur;
        hsrc = kHFromE;
      }
      if (f > cell) {
        cell = f;
        hsrc = kHFromF;
      }
      if (local && cell <= 0) {
        cell = 0;
        hsrc = kHStop;
      }
      d |= hsrc;

      diag = h[j];
      e[j] = ecur;
      h[j] = cell;
      D(i, j) = d;

      if (local && cell > best) {
        best = cell;
        best_i = i;
        best_j = j;
      }
    }
    if (end_row_free && h[m] > best) {
      best = h[m];
      best_i = i;
      best_j = m;
    }
  }
  if (cfg.kind == AlignKind::Global) {
    best = h[m];
    best_i = n;
    best_j = m;
  }
  if (end_col_free) {  // trailing query overhang free: consider row n
    for (std::size_t j = 0; j <= m; ++j) {
      if (h[j] > best) {
        best = h[j];
        best_i = n;
        best_j = j;
      }
    }
  }

  Alignment aln;
  aln.score = best;
  if (local && best == 0) return aln;  // empty local alignment

  // Walk back.
  std::size_t i = best_i, j = best_j;
  enum class State { H, E, F } state = State::H;
  std::string cigar_rev;
  char run_op = 0;
  std::size_t run_len = 0;
  auto emit = [&](char op) {
    if (op == run_op) {
      ++run_len;
    } else {
      if (run_len != 0) push_op(cigar_rev, run_op, run_len);
      run_op = op;
      run_len = 1;
    }
  };

  while (true) {
    if (state == State::H) {
      const std::uint8_t d = D(i, j) & kHMask;
      if (d == kHStop) break;
      if (d == kHDiag) {
        emit('M');
        if (query[j - 1] == subject[i - 1]) ++aln.matches;
        --i;
        --j;
        if (i == 0 && j == 0) break;
        // Global boundary cells carry gap directions; keep walking.
      } else if (d == kHFromE) {
        state = State::E;
      } else {
        state = State::F;
      }
    } else if (state == State::E) {
      emit('D');
      const bool ext = (D(i, j) & kEExt) != 0;
      --i;
      state = ext ? State::E : State::H;
    } else {
      emit('I');
      const bool ext = (D(i, j) & kFExt) != 0;
      --j;
      state = ext ? State::F : State::H;
    }
  }
  if (run_len != 0) push_op(cigar_rev, run_op, run_len);
  std::reverse(cigar_rev.begin(), cigar_rev.end());
  aln.cigar = std::move(cigar_rev);

  aln.query_begin = j;
  aln.query_end = best_j;
  aln.subject_begin = i;
  aln.subject_end = best_i;
  for (std::size_t p = 0; p < aln.cigar.size();) {
    std::size_t cnt = 0;
    while (p < aln.cigar.size() && std::isdigit(aln.cigar[p])) {
      cnt = cnt * 10 + static_cast<std::size_t>(aln.cigar[p] - '0');
      ++p;
    }
    aln.columns += cnt;
    ++p;
  }
  return aln;
}

AlignmentRows render_alignment(const score::Alphabet& alphabet,
                               std::span<const std::uint8_t> query,
                               std::span<const std::uint8_t> subject,
                               const Alignment& aln) {
  AlignmentRows rows;
  std::size_t qi = aln.query_begin;
  std::size_t si = aln.subject_begin;
  std::size_t p = 0;
  while (p < aln.cigar.size()) {
    std::size_t cnt = 0;
    while (p < aln.cigar.size() && std::isdigit(aln.cigar[p])) {
      cnt = cnt * 10 + static_cast<std::size_t>(aln.cigar[p] - '0');
      ++p;
    }
    const char op = aln.cigar[p++];
    for (std::size_t t = 0; t < cnt; ++t) {
      if (op == 'M') {
        const char qc = alphabet.itoc(query[qi++]);
        const char sc = alphabet.itoc(subject[si++]);
        rows.query.push_back(qc);
        rows.subject.push_back(sc);
        rows.midline.push_back(qc == sc ? '|' : ' ');
      } else if (op == 'I') {
        rows.query.push_back(alphabet.itoc(query[qi++]));
        rows.subject.push_back('-');
        rows.midline.push_back(' ');
      } else {
        rows.query.push_back('-');
        rows.subject.push_back(alphabet.itoc(subject[si++]));
        rows.midline.push_back(' ');
      }
    }
  }
  return rows;
}

}  // namespace aalign::core
