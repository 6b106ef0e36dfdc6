// Service-mode load generator (hw/service.h) and the HDR-style latency
// histogram it reports into. The accounting contract: a clean open-loop
// run serves every offered op, the merged histogram holds exactly one
// sample per served op, and quantiles are monotone in q. A waiting client
// sleeps off the run queue (bounded yields per request) and a sleeping
// run is never cancelled as hung.
#include "hw/service.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "hw/latency_histogram.h"

namespace llsc {
namespace {

TEST(LatencyHistogramTest, QuantilesBoundSamplesWithinBucketError) {
  LatencyHistogram h;
  // 1..1000 ns, uniform: p50 ~ 500, p99 ~ 990. Bucket edges are upper
  // bounds with 1/32 sub-bucket resolution, so a quantile never
  // under-reports its sample and overshoots by < ~6%.
  for (std::uint64_t v = 1; v <= 1000; ++v) h.record(v);
  EXPECT_EQ(h.count(), 1000u);
  EXPECT_GE(h.p50_ns(), 500u);
  EXPECT_LE(h.p50_ns(), 532u);
  EXPECT_GE(h.p99_ns(), 990u);
  EXPECT_LE(h.p99_ns(), 1056u);
  EXPECT_GE(h.max(), 1000u);
}

TEST(LatencyHistogramTest, QuantilesAreMonotoneInQ) {
  LatencyHistogram h;
  std::uint64_t v = 1;
  for (int k = 0; k < 4000; ++k) {
    h.record(v);
    v = v * 1664525 + 1013904223;  // spread samples across octaves
    v %= 10'000'000;
  }
  EXPECT_LE(h.p50_ns(), h.p90_ns());
  EXPECT_LE(h.p90_ns(), h.p99_ns());
  EXPECT_LE(h.p99_ns(), h.p999_ns());
  EXPECT_LE(h.p999_ns(), h.max() * 2);  // p999 edge can round up once
}

TEST(LatencyHistogramTest, MergeIsCountExact) {
  LatencyHistogram a;
  LatencyHistogram b;
  for (std::uint64_t v = 1; v <= 100; ++v) a.record(v);
  for (std::uint64_t v = 1000; v <= 1100; ++v) b.record(v);
  a.merge(b);
  EXPECT_EQ(a.count(), 201u);
  EXPECT_GE(a.max(), 1100u);
  LatencyHistogram empty;
  a.merge(empty);
  EXPECT_EQ(a.count(), 201u);
}

TEST(LatencyHistogramTest, ExtremeValuesLandInTopAndBottomBuckets) {
  LatencyHistogram h;
  h.record(0);
  h.record(~std::uint64_t{0});
  EXPECT_EQ(h.count(), 2u);
  EXPECT_GE(h.quantile_ns(1.0), 1ull << 58);
}

class HwServiceTest : public ::testing::TestWithParam<ServiceWorkload> {};

INSTANTIATE_TEST_SUITE_P(
    Workloads, HwServiceTest,
    ::testing::Values(ServiceWorkload::kFetchInc, ServiceWorkload::kWakeup,
                      ServiceWorkload::kCombining),
    [](const ::testing::TestParamInfo<ServiceWorkload>& info) {
      switch (info.param) {
        case ServiceWorkload::kFetchInc:
          return "FetchInc";
        case ServiceWorkload::kWakeup:
          return "Wakeup";
        case ServiceWorkload::kCombining:
          return "Combining";
      }
      return "Unknown";
    });

TEST_P(HwServiceTest, CleanRunServesEveryOfferedOp) {
  ServiceOptions options;
  options.procs = 16;
  options.threads = 2;
  options.ops_per_proc = 4;
  options.arrival_rate_hz = 200'000.0;  // fast: the test is accounting
  options.workload = GetParam();
  options.seed = 5;
  const ServiceResult r = run_service(options);
  ASSERT_TRUE(r.run.ok);
  EXPECT_EQ(r.offered_ops, 64u);
  EXPECT_EQ(r.served_ops, r.offered_ops);
  EXPECT_EQ(r.run.latency.count(), r.served_ops);
  EXPECT_GT(r.throughput_ops_per_sec, 0.0);
  EXPECT_LE(r.run.latency.p50_ns(), r.run.latency.p99_ns());
  EXPECT_LE(r.run.latency.p99_ns(), r.run.latency.p999_ns());
  // The pool really was oversubscribed and scheduling.
  EXPECT_EQ(r.run.sched.num_threads, 2);
  EXPECT_EQ(r.run.sched.num_procs, 16);
  EXPECT_GT(r.run.sched.yields, 0u);
}

TEST(HwServiceWaitTest, WaitingClientsSleepInsteadOfSpinYielding) {
  // Under kEveryOp a fetch&inc request costs one yield for its RMW and at
  // most one timed yield for its arrival wait: the client sleeps off the
  // run queue until it is due instead of cycling through it.
  ServiceOptions options;
  options.procs = 16;
  options.threads = 2;
  options.ops_per_proc = 8;
  options.arrival_rate_hz = 50'000.0;
  options.workload = ServiceWorkload::kFetchInc;
  options.yield_policy = YieldPolicy::kEveryOp;
  options.seed = 9;
  const ServiceResult r = run_service(options);
  ASSERT_TRUE(r.run.ok);
  EXPECT_EQ(r.served_ops, r.offered_ops);
  EXPECT_GE(r.run.sched.yields, r.served_ops);
  EXPECT_LE(r.run.sched.yields, 2 * r.served_ops);
}

TEST(HwServiceWaitTest, SleepingClientsAreNotCancelledAsHung) {
  // Two clients at 10 requests/s wait ~200 ms between requests (this
  // seed's schedule spans ~0.9 s), far longer than the stagnation window.
  // A sleeping client takes no steps, so the watchdog must read a pending
  // sleep as waiting, not as a wedged run. The window is still wide
  // enough to ride out a carrier descheduled on a loaded one-core host
  // once a sleeper is due.
  ServiceOptions options;
  options.procs = 2;
  options.threads = 2;
  options.ops_per_proc = 2;
  options.arrival_rate_hz = 10.0;
  options.workload = ServiceWorkload::kFetchInc;
  options.seed = 8;
  options.progress_timeout_ms = scale_timeout_ms(40);
  options.timeout_ms = scale_timeout_ms(30'000);  // backstop only
  const ServiceResult r = run_service(options);
  EXPECT_FALSE(r.run.cancelled);
  EXPECT_EQ(r.run.status, RunStatus::kClean);
  EXPECT_EQ(r.served_ops, r.offered_ops);
  // Non-vacuity: the run spans more stagnation windows than it has
  // requests (+1 for the start), so some gap between steps was longer
  // than a window. M = N, so the window is not scaled.
  EXPECT_GT(r.run.wall_seconds * 1e3,
            static_cast<double>((r.offered_ops + 1) *
                                options.progress_timeout_ms));
}

TEST(HwServiceDeterminismTest, ArrivalScheduleIsPureInSeed) {
  // Same seed: identical offered/served accounting and toss-independent
  // results. The latency VALUES differ run to run (wall clock), but the
  // deterministic schedule means the op counts cannot.
  ServiceOptions options;
  options.procs = 8;
  options.threads = 2;
  options.ops_per_proc = 3;
  options.arrival_rate_hz = 500'000.0;
  options.workload = ServiceWorkload::kFetchInc;
  options.seed = 42;
  const ServiceResult a = run_service(options);
  const ServiceResult b = run_service(options);
  ASSERT_TRUE(a.run.ok);
  ASSERT_TRUE(b.run.ok);
  EXPECT_EQ(a.offered_ops, b.offered_ops);
  EXPECT_EQ(a.served_ops, b.served_ops);
  EXPECT_EQ(a.run.shared_ops, b.run.shared_ops);
}

}  // namespace
}  // namespace llsc
