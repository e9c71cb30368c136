// A reader for the Prometheus text exposition the daemons serve on
// /metrics (telemetry/metrics.cpp writes it): `name{k="v",...} value`
// lines, `#` comments, and histograms as cumulative `_bucket{le=...}`
// series. qtbench scrapes every daemon before and after a window and
// derives its serve.* and shard.* per-layer metrics from the difference.
#pragma once

#include <map>
#include <string>
#include <vector>

namespace qtbench {

struct PromSample {
  std::string name;
  std::map<std::string, std::string> labels;
  double value = 0.0;
};

struct Exposition {
  std::vector<PromSample> samples;

  /// Sum of every series named `name` whose labels include all of
  /// `match` (an empty match sums all of them; 0 when none exist).
  double sum(const std::string& name,
             const std::map<std::string, std::string>& match = {}) const;

  /// Quantile q of histogram `base` (series base_bucket) restricted to
  /// `match`, interpolated linearly inside the bucket that holds the
  /// rank, as Prometheus' histogram_quantile does. Bucket edges still
  /// bound the resolution. Returns 0 when the histogram is empty.
  double histogram_quantile(
      const std::string& base, double q,
      const std::map<std::string, std::string>& match = {}) const;
};

Exposition parse_exposition(const std::string& text);

/// after - before, series by series (counters and histogram buckets;
/// series absent from `before` count from 0).
Exposition diff(const Exposition& after, const Exposition& before);

/// Adds every series of `b` into `a` (combining two workers' scrapes).
Exposition merge(const Exposition& a, const Exposition& b);

}  // namespace qtbench
