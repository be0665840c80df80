#include "workload.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

#include "seq/generator.h"
#include "seq/pairgen.h"

namespace perfbench {

namespace {

// The length draw shared by every seed.
constexpr std::uint64_t kLengthSeed = 0x1e57a11;

std::vector<std::size_t> fixed_lengths(std::size_t count, double median,
                                       double sigma, std::size_t min_len,
                                       std::size_t max_len,
                                       std::uint64_t salt) {
  aalign::seq::SequenceGenerator gen(kLengthSeed ^ salt);
  std::vector<std::size_t> out;
  out.reserve(count);
  for (const auto& s :
       gen.protein_database(count, median, sigma, min_len, max_len)) {
    out.push_back(s.size());
  }
  return out;
}

std::size_t scaled(std::size_t n, double scale, std::size_t floor) {
  return std::max(floor, static_cast<std::size_t>(
                             std::llround(static_cast<double>(n) * scale)));
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "batch_exhaustive", "fleet_short"};
  return names;
}

WorkloadSpec workload_spec(const std::string& name, double scale) {
  WorkloadSpec s;
  s.name = name;
  if (name == "batch_exhaustive") {
    s.background = scaled(8000, scale, 64);
    s.pool = 28;
    s.queries_per_request = 8;
    s.top_k = 10;
    s.filter_off = true;
  } else if (name == "fleet_short") {
    // Short queries in 8-query batches through the gateway. The database
    // is batch_exhaustive's size because requests of a few milliseconds
    // (a ~300-subject panel, single queries) timed how fast the shared
    // host woke idle vCPUs: whole runs ran at half speed (README.md).
    s.background = scaled(8000, scale, 64);
    s.planted = 2;
    s.pool = scaled(96, scale, 8);
    s.q_median = 50.0;
    s.q_sigma = 0.4;
    s.q_min = 10;
    s.q_max = 200;
    s.queries_per_request = 8;
    s.top_k = 2;
    s.shards = 2;
    // The traced run's open loop sends single queries of the pool,
    // Zipf-drawn. One takes ~120 ms: 6 req/s queued (p95 340 ms) and made
    // the sender run 20 ms late; 3 req/s is about a third of capacity.
    s.open_rate_qps = 3.0;
    s.open_share = 0.8;
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  return s;
}

Inputs generate(const WorkloadSpec& spec, std::uint64_t seed) {
  using aalign::seq::Level;
  aalign::seq::SequenceGenerator gen(seed);
  Inputs in;

  const std::vector<std::size_t> qlen =
      fixed_lengths(spec.pool, spec.q_median, spec.q_sigma, spec.q_min,
                    spec.q_max, 1);
  // Ids are built with append(): GCC 12 reports the equivalent operator+
  // chains here as a false -Wrestrict overlap.
  std::vector<aalign::seq::Sequence> queries;
  for (std::size_t i = 0; i < spec.pool; ++i) {
    queries.push_back(
        gen.protein(qlen[i], std::string("q").append(std::to_string(i))));
    in.pool.push_back(queries.back().residues);
  }

  for (const std::size_t len :
       fixed_lengths(spec.background, spec.db_median, spec.db_sigma,
                     spec.db_min, spec.db_max, 2)) {
    in.subjects.push_back(
        gen.protein(len, std::string("s").append(
                             std::to_string(in.subjects.size()))));
  }
  // Planted homologs in the bands the filter is calibrated to keep, the
  // weakest (hi coverage, md identity) second, so a two-plant workload
  // still carries the recall canary.
  const aalign::seq::SimilaritySpec bands[] = {
      {Level::Hi, Level::Hi}, {Level::Hi, Level::Md}, {Level::Md, Level::Hi}};
  for (std::size_t q = 0; q < spec.pool; ++q) {
    for (std::size_t j = 0; j < spec.planted; ++j) {
      aalign::seq::Sequence s =
          aalign::seq::make_similar_subject(gen, queries[q], bands[j % 3]);
      s.id = std::string("p").append(std::to_string(q)).append("_").append(
          std::to_string(j));
      in.subjects.push_back(std::move(s));
    }
  }
  std::shuffle(in.subjects.begin(), in.subjects.end(), gen.rng());
  for (const auto& s : in.subjects) in.total_residues += s.size();
  return in;
}

std::vector<std::size_t> batch_request(const WorkloadSpec& spec,
                                       std::size_t r) {
  if (spec.queries_per_request < 2 ||
      spec.pool < spec.queries_per_request - 1) {
    throw std::invalid_argument("batch requests need 2+ queries and a pool "
                                "of at least one query per stratum");
  }
  const std::size_t strata = spec.queries_per_request - 1;
  const std::size_t per = spec.pool / strata;
  const std::vector<std::size_t> qlen =
      fixed_lengths(spec.pool, spec.q_median, spec.q_sigma, spec.q_min,
                    spec.q_max, 1);
  std::vector<std::size_t> by_len(spec.pool);
  std::iota(by_len.begin(), by_len.end(), std::size_t{0});
  std::stable_sort(by_len.begin(), by_len.end(),
                   [&](std::size_t a, std::size_t b) {
                     return qlen[a] < qlen[b];
                   });
  std::vector<std::size_t> out;
  for (std::size_t j = 0; j < strata; ++j) {
    out.push_back(by_len[j * per + (r + j) % per]);
  }
  out.push_back(out[r % strata]);
  return out;
}

}  // namespace perfbench
