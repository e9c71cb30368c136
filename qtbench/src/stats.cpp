#include "stats.h"

#include <algorithm>
#include <cctype>
#include <cmath>

namespace qtbench {

std::uint64_t Rng::next() {
  std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

double Rng::uniform() {
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

std::uint64_t Rng::below(std::uint64_t n) {
  return static_cast<std::uint64_t>(uniform() * static_cast<double>(n));
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t tag) {
  Rng rng(seed ^ (tag * 0xD1B54A32D192ED03ull));
  return rng.next();
}

Percentile percentile(std::vector<double> samples, double q) {
  Percentile out;
  out.count = samples.size();
  const double n = static_cast<double>(samples.size());
  if (samples.empty() || n * (1.0 - q) < 10.0) return out;
  const auto rank = static_cast<std::size_t>(std::ceil(q * n)) - 1;
  std::nth_element(samples.begin(),
                   samples.begin() + static_cast<std::ptrdiff_t>(rank),
                   samples.end());
  out.value = samples[rank];
  return out;
}

double median(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

ZipfSampler::ZipfSampler(std::size_t n, double s) : cdf_(n) {
  double total = 0.0;
  for (std::size_t k = 0; k < n; ++k) {
    total += 1.0 / std::pow(static_cast<double>(k + 1), s);
    cdf_[k] = total;
  }
  for (double& c : cdf_) c /= total;
}

std::size_t ZipfSampler::draw(Rng& rng) const {
  const double u = rng.uniform();
  const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
  return std::min<std::size_t>(static_cast<std::size_t>(it - cdf_.begin()),
                               cdf_.size() - 1);
}

std::vector<std::uint64_t> poisson_schedule(double rate_per_s,
                                            double duration_s,
                                            std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::uint64_t> due;
  due.reserve(static_cast<std::size_t>(rate_per_s * duration_s * 1.1) + 16);
  double t = 0.0;
  while (true) {
    t += -std::log(1.0 - rng.uniform()) / rate_per_s;
    if (t >= duration_s) break;
    due.push_back(static_cast<std::uint64_t>(t * 1e9));
  }
  return due;
}

bool valid_metric_name(const std::string& name) {
  if (name.empty() || name.size() > 64) return false;
  if (std::isalnum(static_cast<unsigned char>(name[0])) == 0) return false;
  return std::all_of(name.begin(), name.end(), [](char c) {
    return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_' ||
           c == '.' || c == '-';
  });
}

}  // namespace qtbench
