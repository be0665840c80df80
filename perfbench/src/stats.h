// Order statistics for the served-search benchmark. Latency samples may
// hold +infinity (a failed request misses every latency limit), so the
// percentile interpolation propagates it instead of averaging it away.
#pragma once

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

namespace perfbench {

inline constexpr double kInf = std::numeric_limits<double>::infinity();

// Linear interpolation between closest ranks (numpy's default), p in
// [0, 100]. An interpolation touching +inf yields +inf. Empty -> NaN.
inline double percentile(std::vector<double> v, double p) {
  if (v.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(v.begin(), v.end());
  const double rank = std::clamp(p, 0.0, 100.0) / 100.0 *
                      static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  if (std::isinf(v[lo]) || (frac > 0.0 && std::isinf(v[hi]))) return kInf;
  return v[lo] + (v[hi] - v[lo]) * frac;
}

inline double median(std::vector<double> v) {
  return percentile(std::move(v), 50.0);
}

// The `across`-th percentile over `k` contiguous segments (in the given
// order) of each segment's p-th percentile. Interference from other
// tenants of a shared host only ever adds delay, so a low `across`
// reports the calmer part of a run and a stall during the rest of it
// does not move the figure.
inline double segmented_percentile(const std::vector<double>& v, double p,
                                   std::size_t k, double across) {
  k = std::max<std::size_t>(1, std::min(k, v.size()));
  std::vector<double> per;
  for (std::size_t i = 0; i < k; ++i) {
    const auto first = v.begin() + static_cast<long>(i * v.size() / k);
    const auto last = v.begin() + static_cast<long>((i + 1) * v.size() / k);
    per.push_back(percentile(std::vector<double>(first, last), p));
  }
  return percentile(std::move(per), across);
}

// Work spread evenly over [start, end) seconds.
struct Interval {
  double start = 0.0;
  double end = 0.0;
  double amount = 0.0;
};

// The `across`-th percentile over `k` equal windows of [t0, t1) of the
// rate at which the intervals' work was done (each interval's amount is
// spread evenly over its own duration, so concurrent requests add up).
inline double windowed_rate(const std::vector<Interval>& work, double t0,
                            double t1, std::size_t k, double across) {
  if (!(t1 > t0) || k == 0) return 0.0;
  const double w = (t1 - t0) / static_cast<double>(k);
  std::vector<double> per(k, 0.0);
  for (const Interval& iv : work) {
    const double len = iv.end - iv.start;
    for (std::size_t i = 0; i < k; ++i) {
      const double a = t0 + w * static_cast<double>(i);
      const double overlap = std::min(iv.end, a + w) - std::max(iv.start, a);
      if (overlap <= 0.0) continue;
      per[i] += len > 0.0 ? iv.amount * overlap / len : iv.amount;
    }
  }
  for (double& r : per) r /= w;
  return percentile(std::move(per), across);
}

}  // namespace perfbench
