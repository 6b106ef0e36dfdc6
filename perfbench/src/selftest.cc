// Self-tests of the window, percentile and span arithmetic and of the
// metric tables (llsc_perfbench --selftest). Quartile expectations are
// Python's statistics.quantiles(data, n=4) on the same data.
#include <cmath>
#include <iostream>
#include <set>
#include <string>

#include "bench.h"
#include "metrics.h"

namespace perfbench {

namespace {

int failures = 0;

void expect(bool ok, const std::string& what) {
  if (!ok) {
    ++failures;
    std::cerr << "selftest FAILED: " << what << "\n";
  }
}

bool near(double a, double b, double tol = 1e-9) {
  return std::fabs(a - b) <= tol * std::max(1.0, std::fabs(b));
}

void test_quartiles() {
  const Quartiles a = quartiles({1, 2, 3, 4, 5, 6, 7, 8, 9, 10});
  expect(near(a.q1, 2.75) && near(a.median, 5.5) && near(a.q3, 8.25) &&
             a.count == 10,
         "quartiles of 1..10");
  const Quartiles b = quartiles({1, 2});
  expect(near(b.q1, 0.75) && near(b.median, 1.5) && near(b.q3, 2.25),
         "quartiles of two values");
  const Quartiles c = quartiles({3.5, 1.25, 9.0, 4.0, 2.0});
  expect(near(c.q1, 1.625) && near(c.median, 3.5) && near(c.q3, 6.5),
         "quartiles of unsorted odd count");
  const Quartiles d = quartiles({7.0});
  expect(d.q1 == 7.0 && d.median == 7.0 && d.q3 == 7.0 && d.count == 1,
         "quartiles of one value");
}

void test_percentiles() {
  expect(near(percentile({1, 2, 3, 4, 5}, 0.5), 3.0), "percentile median");
  expect(near(percentile({10, 20}, 0.25), 12.5), "percentile interpolates");
  expect(near(percentile({4, 1, 3, 2}, 1.0), 4.0), "percentile max");
  expect(highest_supported_percentile(10000) == 99.9,
         "10000 samples support p99.9");
  expect(highest_supported_percentile(1000) == 99.0,
         "1000 samples support p99 only");
  expect(highest_supported_percentile(999) == 90.0,
         "999 samples leave fewer than ten beyond p99");
  expect(highest_supported_percentile(100) == 90.0, "100 samples: p90");
  expect(highest_supported_percentile(50) == 50.0, "50 samples: p50");

  // Uniform values 1000..1999 ns: the interpolated median must sit near
  // 1500 even though the histogram's buckets there are 32 ns wide.
  llsc::LatencyHistogram h;
  for (std::uint64_t v = 1000; v < 2000; ++v) h.record(v);
  const double p50 = interpolated_quantile_ns(h, 0.5);
  expect(std::fabs(p50 - 1500.0) < 4.0,
         "interpolated p50 of 1000..1999 is " + std::to_string(p50));
  const double p99 = interpolated_quantile_ns(h, 0.99);
  expect(std::fabs(p99 - 1990.0) < 6.0,
         "interpolated p99 of 1000..1999 is " + std::to_string(p99));
  expect(interpolated_quantile_ns(h, 0.5) <= static_cast<double>(h.p50_ns()),
         "interpolation stays inside the bucket");
  llsc::LatencyHistogram empty;
  expect(interpolated_quantile_ns(empty, 0.5) == 0.0, "empty histogram");
}

void test_names() {
  std::set<std::string> seen;
  for (const auto* table : {&end_to_end_metrics(), &per_layer_metrics()}) {
    for (const MetricSpec& m : *table) {
      expect(valid_metric_name(m.name), "bad metric name " + m.name);
      expect(seen.insert(m.name).second, "duplicate metric name " + m.name);
      expect(!m.unit.empty() && m.unit.size() <= 16, "bad unit for " + m.name);
    }
  }
  expect(per_layer_metrics().size() <= 128, "too many per-layer metrics");
  expect(!valid_metric_name("_x") && !valid_metric_name("a b") &&
             !valid_metric_name("") && !valid_metric_name(std::string(65, 'a')),
         "invalid names accepted");
}

void test_self_time() {
  std::vector<Span> spans = {
      {"parent", 0, 100, 1, 0, 0},
      {"child", 10, 30, 2, 1, 0},
      {"child", 20, 50, 3, 1, 0},   // overlaps the first child
      {"child", 90, 120, 4, 1, 0},  // runs past the parent's end
  };
  const auto t = layer_times(spans);
  expect(near(t.at("parent").self_ns, 100.0 - 40.0 - 10.0),
         "parent self time subtracts the union of its children");
  expect(t.at("child").count == 3 && near(t.at("child").total_ns, 80.0),
         "child spans aggregate");
}

void test_windows() {
  std::vector<Leg> legs(2);
  int calls[2] = {0, 0};
  for (int i = 0; i < 2; ++i) {
    legs[i].window = [&calls, i](bool) { return 1.0 + calls[i]++; };
  }
  run_windows(legs, 0.0, false, 3);
  expect(legs[0].values.size() == 3 && legs[1].values.size() == 3,
         "run_windows gives every leg the minimum window count");
  expect(quartiles(legs[0].values).median == 2.0, "window values kept");
}

}  // namespace

int run_selftest() {
  test_quartiles();
  test_percentiles();
  test_names();
  test_self_time();
  test_windows();
  std::cout << (failures == 0 ? "selftest ok" : "selftest FAILED") << std::endl;
  return failures == 0 ? 0 : 1;
}

}  // namespace perfbench
