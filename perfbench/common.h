// Small helpers shared by the benchmark's translation units: clocks,
// order statistics, fatal errors and the seeded generator.

#ifndef ITDB_PERFBENCH_COMMON_H_
#define ITDB_PERFBENCH_COMMON_H_

#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <random>
#include <string>
#include <vector>

namespace e2e {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

inline double MicrosBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

/// Server processes alive right now, so a fatal error can end them.
inline std::vector<pid_t>& LiveChildren() {
  static std::vector<pid_t> pids;
  return pids;
}

/// Aborts the benchmark without printing a result line (a non-zero exit
/// means "no measurement"), after ending and reaping every child.
[[noreturn]] inline void Die(const std::string& message) {
  std::fprintf(stderr, "itdb_e2e: %s\n", message.c_str());
  std::fflush(stderr);
  for (pid_t pid : LiveChildren()) {
    kill(pid, SIGKILL);
    waitpid(pid, nullptr, 0);
  }
  _exit(2);
}

/// Quantile of `v` (0 <= q <= 1), interpolating between order
/// statistics; NaN when empty.
inline double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return std::nan("");
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = static_cast<std::size_t>(std::ceil(pos));
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

inline double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

/// The q-quantile of `v` over every sample, each divided by the host
/// slowdown (host_speed.h) of the window its time `t` falls in: `windows`
/// equal spans of [0, span), slowdown[k] for span k (none when empty).
inline double NormalizedQuantile(const std::vector<double>& t,
                                 const std::vector<double>& v, double span,
                                 int windows, double q,
                                 const std::vector<double>& slowdown = {}) {
  std::vector<double> scaled;
  scaled.reserve(v.size());
  for (std::size_t i = 0; i < v.size(); ++i) {
    const int k = std::clamp(static_cast<int>(t[i] / span * windows), 0,
                             windows - 1);
    scaled.push_back(
        v[i] / (slowdown.empty() ? 1.0 : slowdown[static_cast<std::size_t>(k)]));
  }
  return Quantile(std::move(scaled), q);
}

/// The median over `windows` equal spans of [0, span), by sample time `t`,
/// of each span's q-quantile of `v`.  A burst of interference moves one
/// span's estimate, not the median.
inline double MedianOfWindowQuantiles(const std::vector<double>& t,
                                      const std::vector<double>& v,
                                      double span, int windows, double q) {
  std::vector<std::vector<double>> per(static_cast<std::size_t>(windows));
  for (std::size_t i = 0; i < t.size(); ++i) {
    const int k = std::clamp(static_cast<int>(t[i] / span * windows), 0,
                             windows - 1);
    per[static_cast<std::size_t>(k)].push_back(v[i]);
  }
  std::vector<double> estimates;
  for (const std::vector<double>& span_values : per) {
    if (!span_values.empty()) estimates.push_back(Quantile(span_values, q));
  }
  return Median(estimates);
}

/// Mean of the middle half (the interquartile mean) over `windows` equal
/// spans of [0, span) of the number of sample times `t` per second, each
/// multiplied by the window's host slowdown `slowdown[k]` (none when
/// empty).
inline double NormalizedRate(const std::vector<double>& t, double span,
                             int windows,
                             const std::vector<double>& slowdown = {}) {
  std::vector<double> counts(static_cast<std::size_t>(windows), 0.0);
  for (double x : t) {
    const int k = static_cast<int>(x / span * windows);
    if (k >= 0 && k < windows) counts[static_cast<std::size_t>(k)] += 1;
  }
  for (std::size_t k = 0; k < counts.size(); ++k) {
    counts[k] *= (slowdown.empty() ? 1.0 : slowdown[k]) / (span / windows);
  }
  std::sort(counts.begin(), counts.end());
  const std::size_t quarter = counts.size() / 4;
  double sum = 0;
  for (std::size_t k = quarter; k < counts.size() - quarter; ++k) {
    sum += counts[k];
  }
  return sum / static_cast<double>(counts.size() - 2 * quarter);
}

/// Ratio that reads 0 instead of NaN on an empty denominator.
inline double SafeRatio(double num, double den) {
  return den == 0 ? 0.0 : num / den;
}

using Rng = std::mt19937_64;

/// Uniform integer in [lo, hi].
inline std::int64_t Uniform(Rng& rng, std::int64_t lo, std::int64_t hi) {
  return std::uniform_int_distribution<std::int64_t>(lo, hi)(rng);
}

inline bool Coin(Rng& rng, double p) {
  return std::uniform_real_distribution<double>(0.0, 1.0)(rng) < p;
}

/// Zipf-distributed rank in [0, n) with exponent `s` (rank 0 most likely).
class Zipf {
 public:
  Zipf(int n, double s) {
    cdf_.reserve(static_cast<std::size_t>(n));
    double total = 0;
    for (int r = 1; r <= n; ++r) {
      total += 1.0 / std::pow(static_cast<double>(r), s);
      cdf_.push_back(total);
    }
    for (double& c : cdf_) c /= total;
  }
  int Draw(Rng& rng) const {
    const double u = std::uniform_real_distribution<double>(0.0, 1.0)(rng);
    auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
    if (it == cdf_.end()) --it;
    return static_cast<int>(it - cdf_.begin());
  }

 private:
  std::vector<double> cdf_;
};

}  // namespace e2e

#endif  // ITDB_PERFBENCH_COMMON_H_
