// Seeded request streams: a Zipf pool sampler and the open-loop Poisson
// arrival schedule. Both draw from a std::mt19937_64 seeded by the run's
// seed, so with one standard library a (workload, seed) pair names one
// schedule.
#pragma once

#include <cstddef>
#include <cstdint>
#include <random>
#include <vector>

namespace perfbench {

// Draws pool ranks 0..n-1 with P(r) proportional to 1 / (r + 1)^s,
// stratified: every `block` consecutive draws hold each rank its rounded
// share of the block, in an order shuffled from `seed`, so a run's query
// mix, and with it the work per request, does not depend on the seed.
class ZipfDeck {
 public:
  ZipfDeck(std::size_t n, double s, std::size_t block, std::uint64_t seed);
  std::size_t next();

 private:
  std::vector<std::size_t> deck_;
  std::size_t pos_;
  std::mt19937_64 rng_;
};

struct Arrival {
  double due_s = 0.0;      // offset from the schedule start
  std::size_t query = 0;   // pool index
};

// `count` arrivals of a Poisson process at `rate_qps` (exponential gaps),
// naming pool queries 0..pool-1 from one ZipfDeck block of `count` draws.
std::vector<Arrival> poisson_schedule(std::uint64_t seed, double rate_qps,
                                      std::size_t count, std::size_t pool,
                                      double zipf_s);

}  // namespace perfbench
