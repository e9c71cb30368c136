// Tests for qtbench's own pieces: the seeded generators, the
// percentile helper, metric naming, and the /metrics reader (against a
// captured qtserved exposition). run.py runs this before every run.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "prom.h"
#include "stats.h"

namespace qtbench {
namespace {

TEST(Generators, ZipfDrawsRepeatForASeed) {
  const ZipfSampler zipf(2048, 1.0);
  Rng a(42);
  Rng b(42);
  Rng c(43);
  std::vector<std::size_t> da, db, dc;
  for (int i = 0; i < 1000; ++i) {
    da.push_back(zipf.draw(a));
    db.push_back(zipf.draw(b));
    dc.push_back(zipf.draw(c));
  }
  EXPECT_EQ(da, db);
  EXPECT_NE(da, dc);
  for (const std::size_t d : da) EXPECT_LT(d, 2048u);
}

TEST(Generators, ZipfFavoursLowRanks) {
  const ZipfSampler zipf(2048, 1.0);
  Rng rng(7);
  int top = 0;
  for (int i = 0; i < 10000; ++i) top += zipf.draw(rng) == 0 ? 1 : 0;
  // P(rank 0) = 1 / H(2048) ~ 0.12 for s = 1.
  EXPECT_GT(top, 1000);
  EXPECT_LT(top, 1400);
}

TEST(Generators, ScheduleRepeatsForASeedAndHasTheRate) {
  const auto a = poisson_schedule(8000.0, 2.0, 99);
  const auto b = poisson_schedule(8000.0, 2.0, 99);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, poisson_schedule(8000.0, 2.0, 100));
  EXPECT_NEAR(static_cast<double>(a.size()), 16000.0, 600.0);
  EXPECT_TRUE(std::is_sorted(a.begin(), a.end()));
  EXPECT_LT(a.back(), 2'000'000'000u);
}

TEST(Percentiles, ReportCountAndRefuseThinTails) {
  std::vector<double> v;
  for (int i = 1; i <= 999; ++i) v.push_back(i);
  Percentile p99 = percentile(v, 0.99);
  EXPECT_EQ(p99.count, 999u);
  EXPECT_FALSE(p99.value.has_value());  // 9.99 samples beyond it
  v.push_back(1000);
  p99 = percentile(v, 0.99);
  ASSERT_TRUE(p99.value.has_value());
  EXPECT_EQ(*p99.value, 990.0);
  EXPECT_EQ(p99.count, 1000u);
  const Percentile p50 = percentile(v, 0.5);
  ASSERT_TRUE(p50.value.has_value());
  EXPECT_EQ(*p50.value, 500.0);
  EXPECT_FALSE(percentile({1, 2, 3}, 0.5).value.has_value());
  EXPECT_FALSE(percentile({}, 0.5).value.has_value());
}

TEST(Percentiles, Median) {
  EXPECT_EQ(median({3, 1, 2}), 2.0);
  EXPECT_EQ(median({4, 1, 2, 3}), 2.5);
}

TEST(MetricNames, Validation) {
  EXPECT_TRUE(valid_metric_name("setup_s"));
  EXPECT_TRUE(valid_metric_name("qtaccel.fast_ns_per_sample"));
  EXPECT_TRUE(valid_metric_name("net.burst8_stall-frac"));
  EXPECT_FALSE(valid_metric_name(""));
  EXPECT_FALSE(valid_metric_name(".leading_dot"));
  EXPECT_FALSE(valid_metric_name("has space"));
  EXPECT_FALSE(valid_metric_name("slash/unit"));
  EXPECT_FALSE(valid_metric_name(std::string(65, 'a')));
}

std::string captured() {
  std::ifstream in(std::string(QTBENCH_TEST_DATA) + "/qtserved_metrics.txt");
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

TEST(Scraper, ParsesACapturedQtservedExposition) {
  const Exposition e = parse_exposition(captured());
  ASSERT_FALSE(e.samples.empty());
  EXPECT_EQ(e.sum("qtserve_requests_total", {{"type", "step"}}), 48.0);
  EXPECT_EQ(e.sum("qtserve_restores_total"), 64.0);
  EXPECT_EQ(e.sum("qtserve_evictions_total"), 76.0);  // lru 12 + restore 64
  EXPECT_EQ(e.sum("qtserve_evictions_total", {{"reason", "lru"}}), 12.0);
  EXPECT_EQ(e.sum("qtserve_batch_size_sum"), 80.0);
  EXPECT_EQ(e.sum("no_such_metric"), 0.0);
  // queue_wait: 34 of 80 at <= 31, 49 at <= 63: rank 40 sits in
  // (31, 63], 6/15 of the way through.
  EXPECT_NEAR(e.histogram_quantile("qtserve_phase_us", 0.5,
                                   {{"phase", "queue_wait"}}),
              31.0 + 32.0 * 6.0 / 15.0, 1e-9);
  EXPECT_EQ(e.histogram_quantile("qtserve_phase_us", 0.5,
                                 {{"phase", "missing"}}),
            0.0);
}

TEST(Scraper, DiffAndMerge) {
  const Exposition a = parse_exposition("x_total{k=\"1\"} 5\ny 2\n");
  const Exposition b = parse_exposition("x_total{k=\"1\"} 8\nz 1\n");
  const Exposition d = diff(b, a);
  EXPECT_EQ(d.sum("x_total"), 3.0);
  EXPECT_EQ(d.sum("z"), 1.0);
  EXPECT_EQ(d.sum("y"), -2.0);
  const Exposition m = merge(a, b);
  EXPECT_EQ(m.sum("x_total", {{"k", "1"}}), 13.0);
}

}  // namespace
}  // namespace qtbench
