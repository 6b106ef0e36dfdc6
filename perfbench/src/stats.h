// Window and percentile arithmetic shared by every workload.
//
// Quartiles follow Python's statistics.quantiles(data, n=4) with its
// default 'exclusive' method, so the quartiles a run prints are the ones
// the steadiness script and any external checker compute from the same
// values.
#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "hw/latency_histogram.h"

namespace perfbench {

struct Quartiles {
  double q1 = 0.0;
  double median = 0.0;
  double q3 = 0.0;
  int count = 0;
};

// statistics.quantiles(values, n=4) for two or more values; a single
// value is its own median and quartiles.
inline Quartiles quartiles(std::vector<double> values) {
  Quartiles out;
  out.count = static_cast<int>(values.size());
  if (values.empty()) return out;
  std::sort(values.begin(), values.end());
  if (values.size() == 1) {
    out.q1 = out.median = out.q3 = values[0];
    return out;
  }
  const long ld = static_cast<long>(values.size());
  const long m = ld + 1;
  double cut[3];
  for (long i = 1; i <= 3; ++i) {
    long j = i * m / 4;
    j = std::clamp(j, 1L, ld - 1);
    const long delta = i * m - j * 4;
    cut[i - 1] = (values[static_cast<std::size_t>(j - 1)] *
                      static_cast<double>(4 - delta) +
                  values[static_cast<std::size_t>(j)] *
                      static_cast<double>(delta)) /
                 4.0;
  }
  out.q1 = cut[0];
  out.median = cut[1];
  out.q3 = cut[2];
  // statistics.median, which the cut points only approximate for even
  // counts.
  const std::size_t h = values.size() / 2;
  out.median = values.size() % 2 == 1 ? values[h]
                                       : (values[h - 1] + values[h]) / 2.0;
  return out;
}

// Linear interpolation between closest ranks (numpy's default), q in
// [0, 1].
inline double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = std::clamp(q, 0.0, 1.0) *
                     static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] +
         (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

// The highest of the usual tail percentiles that still has at least ten
// samples beyond it; p50 when even p90 has too few.
inline double highest_supported_percentile(std::uint64_t count) {
  for (const double p : {99.99, 99.9, 99.0, 90.0}) {
    const double beyond = static_cast<double>(count) * (100.0 - p) / 100.0;
    if (beyond >= 10.0 - 1e-9) return p;
  }
  return 50.0;
}

// Quantile of a LatencyHistogram with linear interpolation inside the
// bucket that holds the rank, instead of the bucket's upper edge: the
// histogram's 3% bucket width would otherwise make a p50 read the same
// value on most runs.
inline double interpolated_quantile_ns(const llsc::LatencyHistogram& h,
                                       double q) {
  const std::uint64_t n = h.count();
  if (n == 0) return 0.0;
  const double rank = std::clamp(q, 0.0, 1.0) * static_cast<double>(n);
  const std::uint64_t target = std::clamp<std::uint64_t>(
      static_cast<std::uint64_t>(std::ceil(rank)), 1, n);
  // value_at(r) is the upper edge of the bucket holding the r-th sample
  // (quantile_ns takes rank floor(q·n)).
  const auto value_at = [&](std::uint64_t r) {
    return h.quantile_ns((static_cast<double>(r) + 0.5) /
                         static_cast<double>(n));
  };
  const std::uint64_t edge = value_at(target);
  // First and last ranks in the same bucket, by bisection on rank.
  std::uint64_t lo = 1, hi = target;
  while (lo < hi) {
    const std::uint64_t mid = lo + (hi - lo) / 2;
    if (value_at(mid) >= edge) hi = mid; else lo = mid + 1;
  }
  const std::uint64_t first = lo;
  lo = target;
  hi = n;
  while (lo < hi) {
    const std::uint64_t mid = lo + (hi - lo + 1) / 2;
    if (value_at(mid) <= edge) lo = mid; else hi = mid - 1;
  }
  const std::uint64_t last = lo;
  const std::size_t bucket = llsc::LatencyHistogram::index_of(edge);
  const double lower =
      bucket == 0
          ? 0.0
          : static_cast<double>(llsc::LatencyHistogram::upper_edge(bucket - 1));
  const double frac = (rank - static_cast<double>(first - 1)) /
                      static_cast<double>(last - first + 1);
  return lower +
         (static_cast<double>(edge) - lower) * std::clamp(frac, 0.0, 1.0);
}

// Metric names: a letter or digit first, then up to 63 of [A-Za-z0-9_.-].
inline bool valid_metric_name(const std::string& name) {
  if (name.empty() || name.size() > 64) return false;
  const auto alnum = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9');
  };
  if (!alnum(name[0])) return false;
  return std::all_of(name.begin(), name.end(), [&](char c) {
    return alnum(c) || c == '_' || c == '.' || c == '-';
  });
}

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
