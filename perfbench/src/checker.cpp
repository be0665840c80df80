#include "checker.h"

#include <algorithm>
#include <unordered_set>

#include "filter/signature.h"
#include "search/inter_search.h"
#include "seq/database.h"

namespace perfbench {

std::vector<Hit> top_k_of(const std::vector<long>& scores,
                          const std::vector<std::uint8_t>& allowed,
                          std::size_t k) {
  std::vector<Hit> all;
  for (std::size_t i = 0; i < scores.size(); ++i) {
    if (allowed.empty() || allowed[i] != 0) all.push_back({i, scores[i]});
  }
  const auto better = [](const Hit& a, const Hit& b) {
    return a.score != b.score ? a.score > b.score : a.index < b.index;
  };
  const std::size_t n = std::min(k, all.size());
  std::partial_sort(all.begin(), all.begin() + static_cast<long>(n),
                    all.end(), better);
  all.resize(n);
  return all;
}

Reference::Reference(std::vector<std::vector<long>> scores,
                     std::vector<std::vector<std::uint8_t>> kept,
                     std::vector<std::string> ids, std::size_t top_k)
    : scores_(std::move(scores)),
      kept_(std::move(kept)),
      ids_(std::move(ids)),
      top_k_(top_k) {
  kept_.resize(scores_.size());
  for (std::size_t q = 0; q < scores_.size(); ++q) {
    exhaustive_.push_back(top_k_of(scores_[q], {}, top_k_));
    filtered_.push_back(top_k_of(scores_[q], kept_[q], top_k_));
  }
}

Reference compute_reference(const Inputs& in, const WorkloadSpec& spec,
                            const aalign::score::ScoreMatrix& matrix,
                            const aalign::Penalties& pen,
                            aalign::simd::IsaKind isa, int threads) {
  aalign::seq::Database db(matrix.alphabet(), in.subjects);
  std::vector<std::vector<std::uint8_t>> queries;
  for (const std::string& q : in.pool) {
    queries.push_back(matrix.alphabet().encode(q));
  }
  aalign::search::SearchOptions opt;
  opt.threads = threads;
  opt.top_k = 0;
  aalign::search::InterSequenceSearch engine(matrix, pen, opt, isa);
  std::vector<std::vector<long>> scores;
  for (auto& r : engine.search_many(queries, db)) {
    scores.push_back(std::move(r.scores));
  }
  // search_many left `db` length-sorted exactly as the service sorts its
  // copy, so the filter sees the same positions the served scan does.
  std::vector<std::vector<std::uint8_t>> kept;
  if (!spec.filter_off) {
    const aalign::filter::SignatureIndex index(db);
    std::vector<std::uint8_t> survivors;
    for (const auto& q : queries) {
      index.scan(q, isa, survivors);
      std::vector<std::uint8_t> by_original(db.size(), 0);
      for (std::size_t pos = 0; pos < db.size(); ++pos) {
        by_original[db.original_index(pos)] = survivors[pos];
      }
      kept.push_back(std::move(by_original));
    }
  }
  std::vector<std::string> ids;
  for (const auto& s : in.subjects) ids.push_back(s.id);
  return Reference(std::move(scores), std::move(kept), std::move(ids),
                   spec.top_k);
}

namespace {

Check wrong(std::string why) { return {Verdict::Wrong, std::move(why)}; }

}  // namespace

Check check_response(const Reference& ref,
                     const std::vector<std::size_t>& queries, bool filtered,
                     const aalign::service::WireResponse& resp) {
  if (!resp.ok) {
    return {Verdict::Failed,
            std::string(aalign::service::error_code_name(resp.error)) + ": " +
                resp.message};
  }
  if (resp.incomplete) return {Verdict::Failed, "incomplete answer"};
  if (resp.degraded) return {Verdict::Failed, "degraded answer"};
  if (resp.results.size() != queries.size()) {
    return wrong("expected " + std::to_string(queries.size()) +
                 " results, got " + std::to_string(resp.results.size()));
  }
  for (std::size_t r = 0; r < queries.size(); ++r) {
    const std::size_t q = queries[r];
    const std::vector<long>& scores = ref.scores(q);
    const std::vector<std::uint8_t>& kept = ref.kept(q);
    const auto& hits = resp.results[r].hits;
    const std::string where = "query " + std::to_string(q) + " hit ";
    std::unordered_set<std::size_t> seen;
    for (std::size_t h = 0; h < hits.size(); ++h) {
      const auto& hit = hits[h];
      const std::string at = where + std::to_string(h) + ": ";
      if (hit.index >= scores.size()) return wrong(at + "index out of range");
      if (hit.score != scores[hit.index]) {
        return wrong(at + "score " + std::to_string(hit.score) +
                     " != reference " + std::to_string(scores[hit.index]) +
                     " at index " + std::to_string(hit.index));
      }
      if (filtered && !kept.empty() && kept[hit.index] == 0) {
        return wrong(at + "subject " + std::to_string(hit.index) +
                     " was dropped by the filter");
      }
      if (!seen.insert(hit.index).second) {
        return wrong(at + "index " + std::to_string(hit.index) + " repeats");
      }
      if (h > 0) {
        const auto& prev = hits[h - 1];
        const bool ordered = prev.score != hit.score ? prev.score > hit.score
                                                     : prev.index < hit.index;
        if (!ordered) return wrong(at + "out of (score desc, index asc) order");
      }
      if (hit.subject != ref.id(hit.index)) {
        return wrong(at + "subject id '" + hit.subject + "' != '" +
                     ref.id(hit.index) + "'");
      }
    }
    const std::vector<Hit>& expected = ref.expected_top(q, filtered);
    bool same = hits.size() == expected.size();
    for (std::size_t h = 0; same && h < hits.size(); ++h) {
      same = hits[h].index == expected[h].index;
    }
    if (!same) {
      return wrong(where + "list is not the reference top-k: missing hit (" +
                   std::to_string(hits.size()) + " served, " +
                   std::to_string(expected.size()) + " expected)");
    }
  }
  return {};
}

double recall(const Reference& ref, std::size_t q,
              const aalign::service::WireResult& served) {
  const std::vector<Hit>& expected = ref.exhaustive_top(q);
  if (expected.empty()) return 1.0;
  std::size_t found = 0;
  for (const Hit& e : expected) {
    for (const auto& h : served.hits) {
      if (h.index == e.index && h.score == e.score) {
        ++found;
        break;
      }
    }
  }
  return static_cast<double>(found) / static_cast<double>(expected.size());
}

}  // namespace perfbench
