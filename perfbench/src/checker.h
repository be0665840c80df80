// Exactness checker. Before any stack starts, the reference scores of
// every pool query against the whole database are computed with the
// inter-sequence engine (InterSequenceSearch: lane-parallel, exact
// precision ladder, filter off) - a different kernel family from the
// striped path the service runs. For requests the signature filter may
// screen, the set of subjects it keeps is taken from the filter module's
// own scan over the same length-sorted database (its verdicts are
// partition-invariant, so the same mask covers a sharded fleet).
//
// Every served answer must then be exactly the reference top-k over the
// subjects the filter kept: right scores, (score desc, index asc) order,
// no repeated index, no dropped subject, none missing. An `incomplete`
// or `degraded` answer counts as failed, never as correct.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/config.h"
#include "score/matrices.h"
#include "service/protocol.h"
#include "simd/isa.h"
#include "workload.h"

namespace perfbench {

struct Hit {
  std::size_t index = 0;
  long score = 0;
};

// Best `k` of `scores` restricted to `allowed` (empty = all), ranked by
// (score desc, index asc) - the order every serving layer promises.
std::vector<Hit> top_k_of(const std::vector<long>& scores,
                          const std::vector<std::uint8_t>& allowed,
                          std::size_t k);

class Reference {
 public:
  // scores[q][i]: exact score of pool query q against original subject i.
  // kept[q][i]: 1 when the filter keeps subject i for query q (empty when
  // no request of the workload is filtered).
  Reference(std::vector<std::vector<long>> scores,
            std::vector<std::vector<std::uint8_t>> kept,
            std::vector<std::string> ids, std::size_t top_k);

  std::size_t pool_size() const { return scores_.size(); }
  std::size_t top_k() const { return top_k_; }
  const std::vector<Hit>& exhaustive_top(std::size_t q) const {
    return exhaustive_[q];
  }
  const std::vector<Hit>& expected_top(std::size_t q, bool filtered) const {
    return filtered ? filtered_[q] : exhaustive_[q];
  }
  const std::vector<long>& scores(std::size_t q) const { return scores_[q]; }
  const std::vector<std::uint8_t>& kept(std::size_t q) const {
    return kept_[q];
  }
  const std::string& id(std::size_t i) const { return ids_[i]; }
  std::size_t subjects() const { return ids_.size(); }

 private:
  std::vector<std::vector<long>> scores_;
  std::vector<std::vector<std::uint8_t>> kept_;
  std::vector<std::string> ids_;
  std::size_t top_k_;
  std::vector<std::vector<Hit>> exhaustive_;
  std::vector<std::vector<Hit>> filtered_;
};

// Runs the reference engine for every pool query (and the filter mask
// when the workload's requests are filtered).
Reference compute_reference(const Inputs& in, const WorkloadSpec& spec,
                            const aalign::score::ScoreMatrix& matrix,
                            const aalign::Penalties& pen,
                            aalign::simd::IsaKind isa, int threads);

enum class Verdict { Ok, Failed, Wrong };

struct Check {
  Verdict verdict = Verdict::Ok;
  std::string reason;
};

// Judges one response to a request that carried pool queries `queries`
// (in request order); `filtered` says whether the filter may screen them.
Check check_response(const Reference& ref,
                     const std::vector<std::size_t>& queries, bool filtered,
                     const aalign::service::WireResponse& resp);

// Share of the exhaustive reference top-k present (same index and score)
// in a served result for pool query q.
double recall(const Reference& ref, std::size_t q,
              const aalign::service::WireResult& served);

}  // namespace perfbench
