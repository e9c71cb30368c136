// Statistics and input generators for qtbench: percentiles that state
// their sample count, a seeded Zipf sampler, and a seeded Poisson
// arrival schedule. Everything here is a pure function of its inputs
// and the seed, so a workload replays identically for a given seed.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace qtbench {

/// splitmix64: the benchmark's only random source (portable, unlike the
/// <random> distributions, whose output is implementation-defined).
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  /// Uniform in [0, 1).
  double uniform();
  /// Uniform in [0, n).
  std::uint64_t below(std::uint64_t n);

 private:
  std::uint64_t state_;
};

/// Derives an independent stream seed from a run seed and a purpose tag.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t tag);

/// A percentile of a sample set together with the sample count it came
/// from. A percentile is only reported when at least 10 samples lie
/// beyond it (n * (1 - q) >= 10); otherwise value is empty.
struct Percentile {
  std::optional<double> value;
  std::size_t count = 0;
};

/// Nearest-rank percentile, q in (0, 1). Refuses (empty value) when
/// fewer than 10 samples lie beyond the requested rank.
Percentile percentile(std::vector<double> samples, double q);

/// Median of a non-empty set (no tail requirement; used for the
/// medians of repeated set-ups and per-layer batch timings).
double median(std::vector<double> samples);

/// Zipf(s) popularity over ranks [0, n): P(k) proportional to
/// 1 / (k + 1)^s. Sampling is by binary search on the cumulative table.
class ZipfSampler {
 public:
  ZipfSampler(std::size_t n, double s);
  std::size_t draw(Rng& rng) const;

 private:
  std::vector<double> cdf_;
};

/// Due times (ns from the window start) of a Poisson process at
/// `rate_per_s` over `duration_s`.
std::vector<std::uint64_t> poisson_schedule(double rate_per_s,
                                            double duration_s,
                                            std::uint64_t seed);

/// True when `name` is a valid metric name: 1..64 characters of
/// [A-Za-z0-9_.-], starting with a letter or digit.
bool valid_metric_name(const std::string& name);

}  // namespace qtbench
