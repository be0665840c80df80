// Shared helpers for the test suite: available-ISA enumeration, random
// sequence/config generation, Farrar-safety filtering, and the serial
// many-query search reference.
#pragma once

#include <cstdint>
#include <memory>
#include <random>
#include <vector>

#include "core/config.h"
#include "filter/signature.h"
#include "score/matrices.h"
#include "search/database_search.h"
#include "seq/database.h"
#include "simd/isa.h"

namespace aalign::test {

inline std::vector<simd::IsaKind> available_isas() {
  std::vector<simd::IsaKind> out;
  for (simd::IsaKind k : simd::kAllIsaKinds) {
    if (simd::isa_available(k)) out.push_back(k);
  }
  return out;
}

inline std::vector<std::uint8_t> random_protein(std::mt19937_64& rng,
                                                std::size_t len) {
  std::uniform_int_distribution<int> d(0, 19);  // real residues only
  std::vector<std::uint8_t> v(len);
  for (auto& c : v) c = static_cast<std::uint8_t>(d(rng));
  return v;
}

// A mutated copy: high-identity pairs stress the lazy-F loop and the scan
// correction much harder than independent random pairs.
inline std::vector<std::uint8_t> mutate(std::mt19937_64& rng,
                                        const std::vector<std::uint8_t>& src,
                                        double sub_rate, double indel_rate) {
  std::uniform_real_distribution<double> u(0.0, 1.0);
  std::uniform_int_distribution<int> d(0, 19);
  std::vector<std::uint8_t> out;
  out.reserve(src.size() + 8);
  for (std::uint8_t c : src) {
    const double r = u(rng);
    if (r < indel_rate / 2) continue;  // deletion
    if (r < indel_rate) {              // insertion
      out.push_back(static_cast<std::uint8_t>(d(rng)));
      out.push_back(c);
      continue;
    }
    out.push_back(u(rng) < sub_rate ? static_cast<std::uint8_t>(d(rng)) : c);
  }
  if (out.empty()) out.push_back(src.empty() ? 0 : src[0]);
  return out;
}

// Gap configurations used across the property sweeps. All satisfy
// farrar_safe() for BLOSUM62 (extend pairs sum to >= 4).
inline std::vector<Penalties> test_penalties() {
  return {
      Penalties::symmetric(10, 2),  // classic affine
      Penalties::symmetric(6, 4),   // heavy extend
      Penalties::symmetric(0, 4),   // linear
      Penalties{{12, 2}, {8, 3}},   // asymmetric affine
      Penalties{{0, 5}, {0, 2}},    // asymmetric linear
  };
}

// The serial reference DatabaseSearch::search_many is checked against:
// one search() per query over the same database, sorted once up front
// and, when the filter is active, screened by one signature index shared
// by every query.
inline std::vector<search::SearchResult> serial_search_many(
    const score::ScoreMatrix& matrix, const AlignConfig& cfg,
    search::SearchOptions opt,
    const std::vector<std::vector<std::uint8_t>>& queries,
    seq::Database& db) {
  if (opt.sort_database) db.sort_by_length_desc();
  if (filter::filter_active(opt.filter.mode, cfg.kind == AlignKind::Local) &&
      (opt.filter.index == nullptr || !opt.filter.index->matches(db))) {
    opt.filter.index =
        std::make_shared<filter::SignatureIndex>(db, opt.filter.params);
  }
  const search::DatabaseSearch engine(matrix, cfg, opt);
  std::vector<search::SearchResult> out;
  for (const auto& q : queries) out.push_back(engine.search(q, db));
  return out;
}

}  // namespace aalign::test
