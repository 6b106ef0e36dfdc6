// Workload `service_open`: open-loop Poisson arrivals through run_service —
// combining fetch&increment, M = 32 clients on N carriers of the
// OversubscribedExecutor.
//
//   leg 1  p50 latency at 10k requests/s;
//   leg 2  p50 latency at 50k requests/s;
//   leg 3  capacity: every arrival already due at start, requests served
//          per second of wall time (reported as µs per request).
//
// Latency here is mostly the executor's yield/resume delay (tens of µs
// against a ~1 µs operation), so the storage layer does little per
// request. Latency is completion minus the scheduled arrival, so a stall
// also counts against the requests queued behind it.
//
// run_service keeps its per-request timestamps to itself, so the traced
// run drives the same client shape directly on the OversubscribedExecutor
// and records, per request, the wait from due to resumed (how late the
// generator ran) and the time inside CombiningUniversal::execute.
#include <cmath>
#include <memory>

#include "bench.h"
#include "hw/oversub_executor.h"
#include "hw/service.h"
#include "objects/arith.h"
#include "universal/combining.h"
#include "util/rng.h"

namespace perfbench {
namespace {

using namespace llsc;

constexpr int kProcs = 32;
constexpr int kOpsAt10k = 160;   // per client per window: ~0.5 s
constexpr int kOpsAt50k = 480;   // ~0.3 s
constexpr int kOpsSaturated = 600;

struct RateLeg {
  const char* name;
  double rate_hz;  // 0: every arrival due at start
  int ops_per_proc;
  // Span names of the traced client (string literals).
  const char* request_span;
  const char* delay_span;
  const char* exec_span;
};

constexpr RateLeg kLegs[3] = {
    {"svc.p50_us.10k", 10'000.0, kOpsAt10k, "svc.request",
     "hw.oversub.sched_delay", "universal.combining.exec"},
    {"svc.p50_us.50k", 50'000.0, kOpsAt50k, "svc.request",
     "hw.oversub.sched_delay", "universal.combining.exec"},
    {"svc.capacity_ops_per_s", 0.0, kOpsSaturated, "svc.request.saturated",
     "hw.oversub.sched_delay.saturated", "universal.combining.exec.saturated"},
};

// Exponential gaps with mean m/λ per client: the m streams superpose to a
// Poisson process of rate λ.
std::vector<std::uint64_t> arrivals(std::uint64_t seed, int ops,
                                    double rate_hz) {
  Rng rng(seed);
  const double mean_gap_ns =
      rate_hz > 0 ? 1e9 * static_cast<double>(kProcs) / rate_hz : 0.0;
  std::vector<std::uint64_t> out;
  out.reserve(static_cast<std::size_t>(ops));
  double t = 0.0;
  for (int k = 0; k < ops; ++k) {
    t += mean_gap_ns > 0 ? -mean_gap_ns * std::log(1.0 - rng.next_double())
                         : 0.0;
    out.push_back(static_cast<std::uint64_t>(t));
  }
  return out;
}

struct TracedShared {
  std::uint64_t epoch_ns = 0;
  CombiningUniversal* uc = nullptr;
  const RateLeg* leg = nullptr;
};

// run_service's client with timestamps: wait cooperatively until due,
// then one combining fetch&increment.
SimTask traced_client(ProcCtx ctx, const TracedShared* shared,
                      const std::vector<std::uint64_t>* due_ns,
                      LatencyHistogram* latency) {
  std::uint64_t sum = 0;
  for (std::size_t k = 0; k < due_ns->size(); ++k) {
    const std::uint64_t due = shared->epoch_ns + (*due_ns)[k];
    while (now_ns() < due) {
      co_await ctx.yield();
    }
    const std::uint64_t resumed = now_ns();
    ObjOp op{"fetch&increment", {}};
    const Value r = co_await shared->uc->execute(ctx, std::move(op));
    const std::uint64_t done = now_ns();
    sum += r.as_u64();
    // Every fourth request is traced, to bound the span volume.
    if (k % 4 == 0) {
      const std::uint64_t request =
          (static_cast<std::uint64_t>(ctx.id()) << 32) | k;
      Tracer& t = Tracer::instance();
      const std::uint64_t id =
          t.record(shared->leg->request_span, due, done, 0, request);
      t.record(shared->leg->delay_span, due, resumed, id, request);
      t.record(shared->leg->exec_span, resumed, done, id, request);
    }
    latency->record(done - due);
  }
  co_return Value::of_u64(sum);
}

class Service final : public Workload {
 public:
  Service(const Config& cfg, Report& report) : cfg_(cfg), report_(report) {
    for (int i = 0; i < 3; ++i) {
      legs_.push_back(Leg{kLegs[i].name, kLegs[i].rate_hz == 0.0,
                          [this, i](bool traced) {
                            return traced ? traced_window(i) : window(i);
                          },
                          {}});
    }
  }

  std::vector<Leg>& legs() override { return legs_; }

  void warm() override {
    for (int i = 0; i < 3; ++i) (void)window(i, /*record=*/false);
  }

  void layers(Report& report) override {
    const auto times = layer_times(Tracer::instance().spans());
    const auto pct = [&](const char* name, double q) {
      const auto it = times.find(name);
      return it == times.end() ? 0.0
                               : percentile(it->second.total_each_ns, q) / 1e3;
    };
    report.set("hw.oversub.sched_delay_us.p50",
               pct("hw.oversub.sched_delay", 0.50));
    report.set("hw.oversub.sched_delay_us.p99",
               pct("hw.oversub.sched_delay", 0.99));
    report.set("universal.combining.exec_us.p50",
               pct("universal.combining.exec.saturated", 0.50));
    report.set("universal.combining.exec_us.p99",
               pct("universal.combining.exec.saturated", 0.99));
    const double reqs = static_cast<double>(sched_.requests);
    if (sched_.requests > 0) {
      report.set("hw.oversub.yields_per_req",
                 static_cast<double>(sched_.yields) / reqs);
      report.set("hw.oversub.resumes_per_req",
                 static_cast<double>(sched_.resumes) / reqs);
      report.set("hw.oversub.steals_per_req",
                 static_cast<double>(sched_.steals) / reqs);
      report.set("hw.oversub.idle_parks_per_s",
                 sched_.wall_s > 0
                     ? static_cast<double>(sched_.idle_parks) / sched_.wall_s
                     : 0.0);
    }
    const struct {
      const char* rate;
      const LatencyHistogram* h;
    } tails[2] = {{"10k", &merged_[0]}, {"50k", &merged_[1]}};
    for (const auto& t : tails) {
      const std::string r = t.rate;
      report.set("svc.p99_us." + r, interpolated_quantile_ns(*t.h, 0.99) / 1e3);
      report.set("svc.p999_us." + r,
                 interpolated_quantile_ns(*t.h, 0.999) / 1e3);
      report.set("svc.samples." + r, static_cast<double>(t.h->count()));
    }
  }

  void final_checks(Report& report) override {
    // Tails of the untraced windows, each at the highest percentile with
    // at least ten samples beyond it.
    for (int i = 0; i < 2; ++i) {
      const LatencyHistogram& h = merged_[i];
      const double p = highest_supported_percentile(h.count());
      const std::string key = std::string(kLegs[i].name) + ".tail";
      report.detail(key + ".percentile", p);
      report.detail(key + ".us", interpolated_quantile_ns(h, p / 100.0) / 1e3);
      report.detail(key + ".samples", static_cast<double>(h.count()));
    }
  }

 private:
  struct SchedTotals {
    std::uint64_t requests = 0;
    std::uint64_t yields = 0;
    std::uint64_t resumes = 0;
    std::uint64_t steals = 0;
    std::uint64_t idle_parks = 0;
    double wall_s = 0.0;
  };

  ServiceOptions options(int i) const {
    ServiceOptions o;
    o.procs = kProcs;
    o.threads = cfg_.threads;
    o.arrival_rate_hz = kLegs[i].rate_hz;
    o.ops_per_proc = kLegs[i].ops_per_proc;
    o.workload = ServiceWorkload::kCombining;
    return o;
  }

  // One run_service call. Rate legs return the p50 in µs; the saturated
  // leg returns wall µs per request.
  double window(int i, bool record = true) {
    ServiceOptions o = options(i);
    o.seed = derive_seed(cfg_.seed, 20 + static_cast<std::uint64_t>(i),
                         windows_[i]++);
    const std::uint64_t t0 = now_ns();
    const ServiceResult r = run_service(o);
    const double wall_ns = static_cast<double>(now_ns() - t0);
    report_.check(r.run.ok && r.served_ops == r.offered_ops, r.offered_ops,
                  "service run did not serve every offered request");
    if (kLegs[i].rate_hz == 0.0) {
      return r.served_ops == 0 ? 0.0
                               : wall_ns / 1e3 /
                                     static_cast<double>(r.served_ops);
    }
    if (record) {
      merged_[i].merge(r.run.latency);
      sched_.requests += r.served_ops;
      sched_.yields += r.run.sched.yields;
      sched_.resumes += r.run.sched.resumes;
      sched_.steals += r.run.sched.steals;
      sched_.idle_parks += r.run.sched.idle_parks;
      sched_.wall_s += r.run.wall_seconds;
    }
    return interpolated_quantile_ns(r.run.latency, 0.5) / 1e3;
  }

  double traced_window(int i) {
    const RateLeg& leg = kLegs[i];
    CombiningUniversal uc(kProcs, [] {
      return std::make_unique<FetchAddObject>(64, 0);
    });
    const std::uint64_t seed =
        derive_seed(cfg_.seed, 30 + static_cast<std::uint64_t>(i),
                    windows_[i]++);
    std::vector<std::vector<std::uint64_t>> due(kProcs);
    for (int p = 0; p < kProcs; ++p) {
      due[static_cast<std::size_t>(p)] = arrivals(
          derive_seed(seed, 1, static_cast<std::uint64_t>(p)),
          leg.ops_per_proc, leg.rate_hz);
    }
    std::vector<LatencyHistogram> latency(kProcs);
    TracedShared shared;
    shared.uc = &uc;
    shared.leg = &leg;
    OversubRunOptions run_options;
    run_options.seed = seed;
    run_options.num_threads = cfg_.threads;
    run_options.register_groups = uc.register_groups();
    OversubscribedExecutor exec(run_options);
    const ProcBody body = [&](ProcCtx ctx, ProcId p, int) {
      return traced_client(ctx, &shared, &due[static_cast<std::size_t>(p)],
                           &latency[static_cast<std::size_t>(p)]);
    };
    const std::uint64_t t0 = now_ns();
    shared.epoch_ns = t0;
    const HwRunResult r = exec.run(kProcs, body);
    const double wall_ns = static_cast<double>(now_ns() - t0);
    LatencyHistogram merged;
    for (const LatencyHistogram& h : latency) merged.merge(h);
    const std::uint64_t total = static_cast<std::uint64_t>(kProcs) *
                                static_cast<std::uint64_t>(leg.ops_per_proc);
    std::uint64_t sum = 0;
    for (const Value& v : r.results) sum += v.holds_u64() ? v.as_u64() : 0;
    report_.check(r.ok && merged.count() == total &&
                      sum == total * (total - 1) / 2,
                  total, "traced service run lost or misanswered requests");
    if (leg.rate_hz == 0.0) {
      return wall_ns / 1e3 / static_cast<double>(total);
    }
    return interpolated_quantile_ns(merged, 0.5) / 1e3;
  }

  const Config& cfg_;
  Report& report_;
  std::vector<Leg> legs_;
  std::uint64_t windows_[3] = {0, 0, 0};
  LatencyHistogram merged_[2];
  SchedTotals sched_;
};

}  // namespace

std::unique_ptr<Workload> make_service(const Config& cfg, Report& report) {
  return std::make_unique<Service>(cfg, report);
}

}  // namespace perfbench
