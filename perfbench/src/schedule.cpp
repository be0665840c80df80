#include "schedule.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace perfbench {

ZipfDeck::ZipfDeck(std::size_t n, double s, std::size_t block,
                   std::uint64_t seed)
    : rng_(seed) {
  if (n == 0 || block == 0) {
    throw std::invalid_argument("ZipfDeck needs a pool and a block");
  }
  std::vector<double> cdf(n);
  double acc = 0.0;
  for (std::size_t r = 0; r < n; ++r) {
    acc += 1.0 / std::pow(static_cast<double>(r + 1), s);
    cdf[r] = acc;
  }
  // Rank r fills the slots up to its rounded cumulative share.
  for (std::size_t r = 0; r < n; ++r) {
    const auto upto = static_cast<std::size_t>(
        std::llround(cdf[r] / acc * static_cast<double>(block)));
    deck_.resize(std::max(deck_.size(), upto), r);
  }
  pos_ = deck_.size();
}

std::size_t ZipfDeck::next() {
  if (pos_ == deck_.size()) {
    std::shuffle(deck_.begin(), deck_.end(), rng_);
    pos_ = 0;
  }
  return deck_[pos_++];
}

std::vector<Arrival> poisson_schedule(std::uint64_t seed, double rate_qps,
                                      std::size_t count, std::size_t pool,
                                      double zipf_s) {
  if (rate_qps <= 0.0) throw std::invalid_argument("rate must be positive");
  std::mt19937_64 rng(seed);
  ZipfDeck deck(pool, zipf_s, std::max<std::size_t>(1, count), seed + 1);
  std::exponential_distribution<double> gap(rate_qps);
  std::vector<Arrival> out(count);
  double t = 0.0;
  for (Arrival& a : out) {
    t += gap(rng);
    a.due_s = t;
    a.query = deck.next();
  }
  return out;
}

}  // namespace perfbench
