#include "hw/service.h"

#include <atomic>
#include <chrono>
#include <cmath>
#include <memory>
#include <utility>
#include <vector>

#include "hw/run_support.h"
#include "memory/rmw.h"
#include "objects/arith.h"
#include "universal/combining.h"
#include "util/check.h"
#include "util/rng.h"

namespace llsc {

namespace {

using Clock = std::chrono::steady_clock;

// Shared, read-only-during-run state the client bodies point at.
struct ServiceShared {
  Clock::time_point epoch;  // t = 0 of the arrival schedule
  ServiceWorkload workload = ServiceWorkload::kFetchInc;
  std::shared_ptr<const RmwFunction> inc;
  std::unique_ptr<UniversalConstruction> uc;  // kCombining only
};

// Deterministic arrival offsets (ns from epoch) for process p: i.i.d.
// exponential gaps with mean m/λ, so the superposition of the m per-
// process streams is Poisson with aggregate rate λ. Seeded per process,
// so the schedule is a pure function of (seed, p) — replayable, and
// independent of how coroutines migrate between carrier threads.
std::vector<std::uint64_t> arrival_schedule(std::uint64_t seed, ProcId p,
                                            int ops, double rate_hz, int m) {
  Rng rng(mix64(seed ^ 0x53B51CE5A10ADull ^
                (static_cast<std::uint64_t>(p) << 32)));
  const double mean_gap_ns =
      rate_hz > 0 ? 1e9 * static_cast<double>(m) / rate_hz : 0.0;
  std::vector<std::uint64_t> arrivals;
  arrivals.reserve(static_cast<std::size_t>(ops));
  double t = 0.0;
  for (int k = 0; k < ops; ++k) {
    // 1 - u in (0, 1], so the log never sees 0.
    const double u = 1.0 - rng.next_double();
    t += mean_gap_ns > 0 ? -mean_gap_ns * std::log(u) : 0.0;
    arrivals.push_back(static_cast<std::uint64_t>(t));
  }
  return arrivals;
}

// One client process: wait (cooperatively) for each scheduled arrival,
// perform the workload's operation, record completion − scheduled
// arrival. The wait is a timed yield: on the pool the client sleeps off
// the run queue until it is due; the loop re-checks the clock because
// yield_until never suspends on the simulator. A free function taking
// pointers, per the GCC 12 coroutine notes in runtime/sim_task.h; the
// co_await sits in the loop BODY, never in a condition (see
// Process::resume()).
//
// Crash-recovery: the latency histogram is the journal — its count is the
// number of COMPLETED requests, so a restarted incarnation resumes the
// arrival schedule at k = latency->count() and the request a crash caught
// mid-op is re-served (its recorded latency then spans the crash and the
// rejoin delay, the honest open-loop cost). A crash between arrival and
// completion bumps *in_flight before rethrowing, so the availability
// accounting can explain every served/offered gap; the crashed attempt
// itself never records a latency and never counts as served.
SimTask client_body(ProcCtx ctx, const ServiceShared* shared,
                    const std::vector<std::uint64_t>* arrivals,
                    LatencyHistogram* latency,
                    std::atomic<std::uint64_t>* in_flight) {
  for (std::size_t k = latency->count(); k < arrivals->size(); ++k) {
    const Clock::time_point due =
        shared->epoch + std::chrono::nanoseconds((*arrivals)[k]);
    while (Clock::now() < due) {
      co_await ctx.yield_until(hw_internal::steady_ns(due));
    }
    try {
      if (shared->workload == ServiceWorkload::kFetchInc) {
        (void)co_await ctx.rmw(0, shared->inc);
      } else if (shared->workload == ServiceWorkload::kWakeup) {
        for (;;) {
          const Value cur = co_await ctx.ll(0);
          const std::uint64_t base = cur.is_nil() ? 0 : cur.as_u64();
          const ScResult sc = co_await ctx.sc(0, Value::of_u64(base + 1));
          if (sc.ok) break;
        }
      } else {
        ObjOp op{"fetch&increment", {}};
        (void)co_await shared->uc->execute(ctx, std::move(op));
      }
    } catch (const hw_internal::CrashStopSignal&) {
      in_flight->fetch_add(1, std::memory_order_relaxed);
      throw;
    }
    const Clock::time_point done = Clock::now();
    latency->record(static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(done - due)
            .count()));
  }
  co_return Value::of_u64(latency->count());
}

}  // namespace

const char* to_string(ServiceWorkload workload) {
  switch (workload) {
    case ServiceWorkload::kFetchInc:
      return "fetch_inc";
    case ServiceWorkload::kWakeup:
      return "wakeup";
    case ServiceWorkload::kCombining:
      return "combining";
  }
  LLSC_UNREACHABLE("bad ServiceWorkload");
}

ServiceResult run_service(const ServiceOptions& options) {
  LLSC_EXPECTS(options.procs >= 1, "service needs at least one process");
  LLSC_EXPECTS(options.ops_per_proc >= 0, "negative ops_per_proc");
  const int m = options.procs;

  ServiceShared shared;
  shared.workload = options.workload;
  shared.inc = make_rmw("fetch&add1", [](const Value& v) {
    return Value::of_u64(v.is_nil() ? 1 : v.as_u64() + 1);
  });
  if (options.workload == ServiceWorkload::kCombining) {
    shared.uc = std::make_unique<CombiningUniversal>(
        m, [] { return std::make_unique<FetchAddObject>(64, 0); },
        /*base=*/0);
  }

  std::vector<std::vector<std::uint64_t>> arrivals;
  arrivals.reserve(static_cast<std::size_t>(m));
  for (ProcId p = 0; p < m; ++p) {
    arrivals.push_back(arrival_schedule(options.seed, p, options.ops_per_proc,
                                        options.arrival_rate_hz, m));
  }
  std::vector<LatencyHistogram> latency(static_cast<std::size_t>(m));

  OversubRunOptions run_options;
  run_options.seed = options.seed;
  run_options.backoff = options.backoff;
  run_options.storage = options.storage;
  run_options.timeout_ms = options.timeout_ms;
  run_options.progress_timeout_ms = options.progress_timeout_ms;
  run_options.num_threads = options.threads;
  run_options.yield_policy = options.yield_policy;
  run_options.fault = options.fault;
  if (shared.uc) run_options.register_groups = shared.uc->register_groups();

  std::atomic<std::uint64_t> in_flight_at_crash{0};
  const ProcBody body = [&](ProcCtx ctx, ProcId i, int) {
    return client_body(ctx, &shared, &arrivals[static_cast<std::size_t>(i)],
                       &latency[static_cast<std::size_t>(i)],
                       &in_flight_at_crash);
  };

  // The arrival clock starts a hair before the pool's start gate opens
  // (epoch is captured here, the gate inside run()); the skew is spawn
  // cost only and biases the FIRST arrival's latency upward, never any
  // steady-state percentile.
  OversubscribedExecutor exec(run_options);
  shared.epoch = Clock::now();
  ServiceResult out;
  out.run = exec.run(m, body);
  for (const LatencyHistogram& h : latency) {
    out.run.latency.merge(h);
  }
  out.arrival_rate_hz = options.arrival_rate_hz;
  out.offered_ops = static_cast<std::uint64_t>(m) *
                    static_cast<std::uint64_t>(options.ops_per_proc);
  out.served_ops = out.run.latency.count();
  out.throughput_ops_per_sec =
      out.run.wall_seconds > 0
          ? static_cast<double>(out.served_ops) / out.run.wall_seconds
          : 0.0;
  out.in_flight_at_crash = in_flight_at_crash.load(std::memory_order_relaxed);
  out.crashes = out.run.fault.crashes;
  out.recoveries = out.run.fault.recoveries;
  if (out.recoveries > 0 && options.fault != nullptr) {
    out.mttr_ms = static_cast<double>(out.run.fault.recovery_units) *
                  static_cast<double>(options.fault->stall_unit_ns) /
                  static_cast<double>(out.recoveries) / 1e6;
  }
  out.availability =
      out.offered_ops > 0
          ? static_cast<double>(out.served_ops) /
                static_cast<double>(out.offered_ops)
          : 1.0;
  return out;
}

}  // namespace llsc
