// The metric tables: every name a run may print, with its unit.
// BENCHMARK.json lists the same names (perfbench/test_perfbench.py checks
// the two agree).
//
// End-to-end metrics are shared by all workloads, because every run
// prints every end-to-end metric: legN_us is the N-th leg of the
// workload that ran, as time per unit of work (or a latency), so lower is
// better for all three. NOTES.md maps each leg to its workload figure.
#ifndef PERFBENCH_METRICS_H_
#define PERFBENCH_METRICS_H_

#include <string>
#include <vector>

namespace perfbench {

struct MetricSpec {
  std::string name;
  std::string unit;
};

inline const MetricSpec kLegMetrics[3] = {
    {"leg1_us", "us"}, {"leg2_us", "us"}, {"leg3_us", "us"}};

inline const std::vector<MetricSpec>& end_to_end_metrics() {
  static const std::vector<MetricSpec> specs = {
      kLegMetrics[0], kLegMetrics[1], kLegMetrics[2],
      {"setup_s", "s"}, {"peak_rss_mb", "MB"}};
  return specs;
}

inline const std::vector<MetricSpec>& per_layer_metrics() {
  static const std::vector<MetricSpec> specs = [] {
    std::vector<MetricSpec> s = {
        // lowerbound: simulator memory, runtime and the proof pipeline.
        {"memory.llsc_ns", "ns"},
        {"runtime.step_ns", "ns"},
        {"core.adversary_ms", "ms"},
        {"core.up_tracker_ms", "ms"},
        {"core.s_run_ms", "ms"},
        {"core.indist_ms", "ms"},
        {"core.rounds_per_run", "count"},
        {"core.shared_ops_per_run", "count"},
        {"mc.sample_ms.p50", "ms"},
        {"mc.sample_ms.p99", "ms"},
        {"mc.parallel_sample_us", "us"},
        {"mc.shard_imbalance", "ratio"},
        {"mc.parallel_efficiency", "ratio"},
    };
    // registers_closed: the layer ladder, one rung per layer.
    for (const char* rung : {"atomic", "storage", "hwmemory", "apply",
                             "executor"}) {
      for (const char* mix : {"read", "write"}) {
        for (const char* n : {"1t", "2t"}) {
          s.push_back({std::string("ladder.") + rung + "." + mix + "_" + n +
                           "_ns",
                       "ns"});
        }
      }
    }
    const std::vector<MetricSpec> rest = {
        {"hw.reclaim.guard_ns", "ns"},
        {"hw.reclaim.retire_ns", "ns"},
        {"hw.reclaim.nodes_per_op", "ratio"},
        {"hw.reclaim.scans_per_kop", "ratio"},
        {"hw.reclaim.high_water", "count"},
        {"hw.storage.sc_success_ratio", "ratio"},
        {"hw.backoff.cas_fail_ratio", "ratio"},
        {"hw.backoff.spins_per_kop", "ratio"},
        {"hw.executor.spawn_us", "us"},
        {"hw.executor.start_skew_us", "us"},
        {"hw.executor.overlap_frac", "ratio"},
        {"universal.combining.op_ns.p50", "ns"},
        {"universal.combining.op_ns.p99", "ns"},
        {"universal.combining.mean_batch", "ratio"},
        {"universal.combining.adopted_frac", "ratio"},
        {"universal.combining.shared_ops_per_op", "ratio"},
        // service_open: the oversubscribed scheduler and the tails.
        {"hw.oversub.sched_delay_us.p50", "us"},
        {"hw.oversub.sched_delay_us.p99", "us"},
        {"hw.oversub.yields_per_req", "ratio"},
        {"hw.oversub.resumes_per_req", "ratio"},
        {"hw.oversub.steals_per_req", "ratio"},
        {"hw.oversub.idle_parks_per_s", "1/s"},
        {"universal.combining.exec_us.p50", "us"},
        {"universal.combining.exec_us.p99", "us"},
        {"svc.p99_us.10k", "us"},
        {"svc.p999_us.10k", "us"},
        {"svc.samples.10k", "count"},
        {"svc.p99_us.50k", "us"},
        {"svc.p999_us.50k", "us"},
        {"svc.samples.50k", "count"},
        // Every workload: traced value / untraced value.
        {"trace_overhead.leg1_us", "ratio"},
        {"trace_overhead.leg2_us", "ratio"},
        {"trace_overhead.leg3_us", "ratio"},
        {"trace_overhead.setup_s", "ratio"},
        {"trace_overhead.peak_rss_mb", "ratio"},
    };
    s.insert(s.end(), rest.begin(), rest.end());
    return s;
  }();
  return specs;
}

}  // namespace perfbench

#endif  // PERFBENCH_METRICS_H_
