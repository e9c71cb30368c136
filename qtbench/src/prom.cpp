#include "prom.h"

#include <algorithm>
#include <cstdlib>
#include <limits>
#include <sstream>
#include <utility>

namespace qtbench {
namespace {

bool matches(const PromSample& s,
             const std::map<std::string, std::string>& match) {
  for (const auto& [k, v] : match) {
    const auto it = s.labels.find(k);
    if (it == s.labels.end() || it->second != v) return false;
  }
  return true;
}

std::string series_key(const PromSample& s) {
  std::string key = s.name;
  for (const auto& [k, v] : s.labels) key += "|" + k + "=" + v;
  return key;
}

Exposition combine(const Exposition& a, const Exposition& b, double sign) {
  std::map<std::string, std::size_t> index;
  Exposition out = a;
  for (std::size_t i = 0; i < out.samples.size(); ++i) {
    index[series_key(out.samples[i])] = i;
  }
  for (const PromSample& s : b.samples) {
    const auto it = index.find(series_key(s));
    if (it != index.end()) {
      out.samples[it->second].value += sign * s.value;
    } else {
      PromSample added = s;
      added.value *= sign;
      index[series_key(added)] = out.samples.size();
      out.samples.push_back(std::move(added));
    }
  }
  return out;
}

}  // namespace

Exposition parse_exposition(const std::string& text) {
  Exposition out;
  std::istringstream is(text);
  std::string line;
  while (std::getline(is, line)) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty() || line[0] == '#') continue;
    PromSample s;
    std::size_t pos = line.find_first_of("{ ");
    if (pos == std::string::npos) continue;
    s.name = line.substr(0, pos);
    if (line[pos] == '{') {
      const std::size_t close = line.find('}', pos);
      if (close == std::string::npos) continue;
      std::size_t p = pos + 1;
      while (p < close) {
        const std::size_t eq = line.find('=', p);
        if (eq == std::string::npos || eq >= close || line[eq + 1] != '"') {
          break;
        }
        const std::size_t end = line.find('"', eq + 2);
        if (end == std::string::npos || end > close) break;
        s.labels[line.substr(p, eq - p)] = line.substr(eq + 2, end - eq - 2);
        p = end + 1;
        if (p < close && line[p] == ',') ++p;
      }
      pos = close + 1;
    }
    const std::string rest = line.substr(pos);
    char* end = nullptr;
    s.value = std::strtod(rest.c_str(), &end);
    if (end == rest.c_str()) continue;
    out.samples.push_back(std::move(s));
  }
  return out;
}

double Exposition::sum(const std::string& name,
                       const std::map<std::string, std::string>& match) const {
  double total = 0.0;
  for (const PromSample& s : samples) {
    if (s.name == name && matches(s, match)) total += s.value;
  }
  return total;
}

double Exposition::histogram_quantile(
    const std::string& base, double q,
    const std::map<std::string, std::string>& match) const {
  // le -> cumulative count, summed over every series that matches.
  std::map<double, double> buckets;
  for (const PromSample& s : samples) {
    if (s.name != base + "_bucket" || !matches(s, match)) continue;
    const auto le = s.labels.find("le");
    if (le == s.labels.end()) continue;
    const double edge = le->second == "+Inf"
                            ? std::numeric_limits<double>::infinity()
                            : std::strtod(le->second.c_str(), nullptr);
    buckets[edge] += s.value;
  }
  if (buckets.empty() || buckets.rbegin()->second <= 0.0) return 0.0;
  const double rank = q * buckets.rbegin()->second;
  double lower = 0.0;
  double below = 0.0;
  for (const auto& [edge, cumulative] : buckets) {
    if (cumulative >= rank && cumulative > below) {
      if (edge == std::numeric_limits<double>::infinity()) return lower;
      return lower + (edge - lower) * (rank - below) / (cumulative - below);
    }
    if (edge != std::numeric_limits<double>::infinity()) lower = edge;
    below = cumulative;
  }
  return lower;
}

Exposition diff(const Exposition& after, const Exposition& before) {
  return combine(after, before, -1.0);
}

Exposition merge(const Exposition& a, const Exposition& b) {
  return combine(a, b, 1.0);
}

}  // namespace qtbench
