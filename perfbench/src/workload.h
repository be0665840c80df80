// The two served-search workloads (README.md gives the rationale for
// each) and the generator that builds their inputs from a seed.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "seq/sequence.h"

namespace perfbench {

struct WorkloadSpec {
  std::string name;

  // Database: `background` Swiss-Prot-shaped subjects (log-normal
  // lengths) plus `planted` homologs of every pool query.
  std::size_t background = 0;
  double db_median = 290.0;
  double db_sigma = 0.55;
  std::size_t db_min = 30;
  std::size_t db_max = 5000;
  std::size_t planted = 0;

  // Query pool (log-normal lengths).
  std::size_t pool = 0;
  double q_median = 290.0;
  double q_sigma = 0.55;
  std::size_t q_min = 30;
  std::size_t q_max = 1000;
  double zipf_s = 1.0;  // pool popularity in the open loop

  std::size_t queries_per_request = 1;
  std::size_t top_k = 10;
  bool filter_off = false;  // requests carry filter:"off"; otherwise they
                            // inherit the server default (auto)
  std::size_t shards = 0;   // 0 = one AlignService; n = n-shard gateway fleet

  // Traced runs only: an open-loop Poisson phase at this rate (0 = none),
  // given this share of --seconds.
  double open_rate_qps = 0.0;
  double open_share = 0.0;
};

const std::vector<std::string>& workload_names();

// Throws std::invalid_argument for an unknown name. `scale` < 1 shrinks
// the database and pool (the benchmark's smoke tests use it).
WorkloadSpec workload_spec(const std::string& name, double scale = 1.0);

struct Inputs {
  // Insertion order is the ORIGINAL index every layer reports.
  std::vector<aalign::seq::Sequence> subjects;
  std::vector<std::string> pool;  // query residues
  std::size_t total_residues = 0;
};

// Residues, plants and subject order come from `seed`. Sequence lengths
// come from a fixed draw, so every seed offers the same length mix and a
// seed-to-seed spread measures the system, not the lengths it was given.
Inputs generate(const WorkloadSpec& spec, std::uint64_t seed);

// Pool indices of request `r` of a batch stream: one query from each of
// seven length strata of the pool plus one repeat of them, so every batch
// carries the same work and one duplicate the scheduler can share.
std::vector<std::size_t> batch_request(const WorkloadSpec& spec,
                                       std::size_t r);

}  // namespace perfbench
