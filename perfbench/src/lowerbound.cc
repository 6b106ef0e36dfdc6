// Workload `lowerbound`: the paper's own computation, on the simulator
// only. No hw storage, reclaimer or executor code runs here.
//
//   leg 1  Theorem 6.1 analyses of tournament_wakeup() at n = 256, with the
//          (S,A)-run and the Lemma 5.2 check always built;
//   leg 2  Lemma 3.1 Monte-Carlo samples of randomized_tournament_wakeup()
//          at n = 64 through the serial estimator;
//   leg 3  the default analysis at n = 256: the bound is met, so only the
//          lean adversary run is made.
//
// The parallel MC driver with `threads` workers is not a leg. Its rate
// flips by 2x with the host's state (NOTES.md), which no bound can hold.
// Every run still checks its estimate against the serial one, and the
// traced run measures it.
#include <algorithm>
#include <memory>
#include <optional>

#include "bench.h"
#include "core/adversary.h"
#include "core/indistinguishability.h"
#include "core/lower_bound.h"
#include "core/s_run.h"
#include "core/up_tracker.h"
#include "hw/mc_driver.h"
#include "memory/shared_memory.h"
#include "runtime/system.h"
#include "runtime/toss.h"
#include "util/rng.h"
#include "wakeup/algorithms.h"

namespace perfbench {
namespace {

using namespace llsc;

constexpr int kAnalysisN = 256;
constexpr int kAnalysesPerWindow = 1;
constexpr int kMcN = 64;
constexpr int kLeanAnalysesPerWindow = 8;
constexpr int kParallelSamplesPerWindow = 96;
constexpr int kParallelWindows = 12;  // traced run only
constexpr int kSerialSamplesPerWindow = 48;
constexpr int kParitySamples = 32;

bool returned_one(const Process& p) {
  return p.done() && p.result().holds_u64() && p.result().as_u64() == 1;
}

// Outcome of one Theorem 6.1 analysis, from either path.
struct Analysis {
  bool terminated = false;
  bool bound_met = false;
  bool s_run_built = false;
  bool indist_ok = false;
  bool violation = false;
  ProcId winner = -1;
  std::uint64_t winner_ops = 0;
  int rounds = 0;
  std::size_t s_size = 0;
  std::uint64_t process_checks = 0;
  std::uint64_t register_checks = 0;
  std::uint64_t shared_ops = 0;  // composed path only

  bool ok() const {
    return terminated && bound_met && s_run_built && indist_ok && !violation;
  }
  bool same_as(const Analysis& o) const {
    return terminated == o.terminated && bound_met == o.bound_met &&
           winner == o.winner && winner_ops == o.winner_ops &&
           rounds == o.rounds && s_size == o.s_size &&
           indist_ok == o.indist_ok && process_checks == o.process_checks &&
           register_checks == o.register_checks;
  }
};

Analysis from_report(const WakeupLowerBoundReport& r) {
  Analysis a;
  a.terminated = r.terminated;
  a.bound_met = r.bound_met;
  a.s_run_built = r.s_run_built;
  a.indist_ok = r.indist.ok;
  a.violation = r.wakeup_violation_witnessed;
  a.winner = r.winner;
  a.winner_ops = r.winner_ops;
  a.rounds = r.rounds;
  a.s_size = r.s_size;
  a.process_checks = r.indist.process_checks;
  a.register_checks = r.indist.register_checks;
  return a;
}

bool same_estimate(const ExpectedComplexityEstimate& a,
                   const ExpectedComplexityEstimate& b) {
  return a.n == b.n && a.samples == b.samples &&
         a.termination_rate == b.termination_rate &&
         a.spec_violations == b.spec_violations &&
         a.crashed_samples == b.crashed_samples &&
         a.hung_samples == b.hung_samples &&
         a.mean_winner_ops == b.mean_winner_ops &&
         a.mean_max_ops == b.mean_max_ops &&
         a.min_winner_ops == b.min_winner_ops && a.bound == b.bound &&
         a.bound_met == b.bound_met;
}

class Lowerbound final : public Workload {
 public:
  Lowerbound(const Config& cfg, Report& report)
      : cfg_(cfg),
        report_(report),
        thm_body_(tournament_wakeup()),
        mc_body_(randomized_tournament_wakeup()) {
    legs_.push_back(Leg{"thm61.analyses_per_s", true,
                        [this](bool traced) { return thm_window(traced); },
                        {}});
    legs_.push_back(Leg{"mc.samples_per_s", true,
                        [this](bool traced) { return serial_window(traced); },
                        {}});
    legs_.push_back(Leg{"thm61.lean.analyses_per_s", true,
                        [this](bool) { return lean_window(); }, {}});
  }

  std::vector<Leg>& legs() override { return legs_; }

  void final_checks(Report& report) override {
    // The parallel driver must fold to the serial estimate bit for bit.
    const std::uint64_t seed = derive_seed(cfg_.seed, 90, 0);
    McRunOptions options;
    options.num_workers = cfg_.threads;
    const ParallelMcResult par = estimate_expected_complexity_parallel(
        mc_body_, kMcN, kParitySamples, seed, options);
    const ExpectedComplexityEstimate ser =
        estimate_expected_complexity(mc_body_, kMcN, kParitySamples, seed);
    report.check(same_estimate(par.estimate, ser), kParitySamples,
                 "parallel MC estimate differs from the serial one");
    // The composed, traced pipeline must agree with analyze_wakeup_run.
    const std::uint64_t aseed = derive_seed(cfg_.seed, 91, 0);
    const Analysis composed = analyze_composed(aseed, 0);
    const Analysis direct = analyze_direct(aseed);
    report.check(composed.same_as(direct) && direct.ok(), 1,
                 "composed Theorem 6.1 pipeline disagrees with "
                 "analyze_wakeup_run");
  }

  void layers(Report& report) override {
    const auto times = layer_times(Tracer::instance().spans());
    const auto mean_ms = [&](const char* name) {
      const auto it = times.find(name);
      return it == times.end() ? 0.0 : it->second.mean_self_ns() / 1e6;
    };
    report.set("core.adversary_ms", mean_ms("core.run_adversary"));
    report.set("core.up_tracker_ms", mean_ms("core.up_tracker"));
    report.set("core.s_run_ms", mean_ms("core.s_run"));
    report.set("core.indist_ms", mean_ms("core.indist"));
    if (const auto it = times.find("mc.run_mc_sample"); it != times.end()) {
      report.set("mc.sample_ms.p50",
                 percentile(it->second.total_each_ns, 0.50) / 1e6);
      report.set("mc.sample_ms.p99",
                 percentile(it->second.total_each_ns, 0.99) / 1e6);
      report.detail("mc.sample_ms.samples",
                    static_cast<double>(it->second.count));
    }
    // Counts of one analysis at a seed fixed by the run's seed: they must
    // repeat exactly from run to run.
    const Analysis fixed = analyze_composed(derive_seed(cfg_.seed, 92, 0), 0);
    report.set("core.rounds_per_run", static_cast<double>(fixed.rounds));
    report.set("core.shared_ops_per_run",
               static_cast<double>(fixed.shared_ops));
    std::vector<double> parallel_us;
    for (int i = 0; i < kParallelWindows; ++i) {
      parallel_us.push_back(parallel_window());
    }
    const double par_us = quartiles(parallel_us).median;
    const double ser_us = quartiles(legs_[1].values).median;
    report.set("mc.parallel_sample_us", par_us);
    report.set("mc.parallel_efficiency",
               par_us > 0 ? ser_us / (par_us * cfg_.threads) : 0.0);
    report.set("mc.shard_imbalance",
               imbalance_windows_ == 0
                   ? 0.0
                   : imbalance_sum_ / static_cast<double>(imbalance_windows_));
    report.set("memory.llsc_ns", probe_shared_memory());
    report.set("runtime.step_ns", probe_system_step());
  }

 private:
  Analysis analyze_direct(std::uint64_t seed) {
    WakeupLowerBoundOptions options;
    options.always_check_indistinguishability = true;
    return from_report(analyze_wakeup_run(
        thm_body_, kAnalysisN, std::make_shared<SeededTossAssignment>(seed),
        options));
  }

  // analyze_wakeup_run(…, always_check_indistinguishability) spelled out
  // through the layers' public functions, one span per call.
  Analysis analyze_composed(std::uint64_t seed, std::uint64_t request) {
    ScopedSpan whole("thm61.analysis", request);
    const auto tosses = std::make_shared<SeededTossAssignment>(seed);
    Analysis a;
    std::optional<System> sys;
    {
      ScopedSpan span("runtime.system", request);
      sys.emplace(kAnalysisN, thm_body_, tosses);
      sys->set_recording(false);
    }
    AdversaryOptions adversary;
    adversary.record_snapshots = true;
    const RunLog log = [&] {
      ScopedSpan span("core.run_adversary", request);
      return run_adversary(*sys, adversary);
    }();
    a.terminated = log.all_terminated;
    a.rounds = log.num_rounds();
    a.shared_ops = sys->total_shared_ops();
    for (ProcId p = 0; p < kAnalysisN; ++p) {
      if (returned_one(sys->process(p)) &&
          (a.winner == -1 || sys->process(p).shared_ops() < a.winner_ops)) {
        a.winner = p;
        a.winner_ops = sys->process(p).shared_ops();
      }
    }
    if (a.winner == -1) return a;
    std::size_t pow = 1;
    for (std::uint64_t i = 0; i < a.winner_ops && pow < kAnalysisN; ++i) {
      pow *= 4;
    }
    a.bound_met = pow >= kAnalysisN;
    const UpTracker up = [&] {
      ScopedSpan span("core.up_tracker", request);
      return UpTracker::over(log);
    }();
    const int r = static_cast<int>(std::min<std::uint64_t>(
        a.winner_ops, static_cast<std::uint64_t>(up.num_rounds())));
    const ProcSet s = up.up_process(a.winner, r);
    a.s_size = s.count();
    std::optional<System> s_sys;
    {
      ScopedSpan span("runtime.system", request);
      s_sys.emplace(kAnalysisN, thm_body_, tosses);
      s_sys->set_recording(false);
    }
    const RunLog s_log = [&] {
      ScopedSpan span("core.s_run", request);
      return run_s_run(*s_sys, log, up, s);
    }();
    a.s_run_built = true;
    a.violation = returned_one(s_sys->process(a.winner)) &&
                  s.count() < static_cast<std::size_t>(kAnalysisN);
    const IndistReport indist = [&] {
      ScopedSpan span("core.indist", request);
      return check_indistinguishability(log, s_log, up, s);
    }();
    a.indist_ok = indist.ok;
    a.process_checks = indist.process_checks;
    a.register_checks = indist.register_checks;
    return a;
  }

  double thm_window(bool traced) {
    const Clock::time_point t0 = Clock::now();
    for (int i = 0; i < kAnalysesPerWindow; ++i) {
      const std::uint64_t request = analyses_++;
      const std::uint64_t seed = derive_seed(cfg_.seed, 1, request);
      const Analysis a = traced ? analyze_composed(seed, request)
                                : analyze_direct(seed);
      report_.check(a.ok(), 1, "Theorem 6.1 analysis failed its checks");
    }
    return seconds_since(t0) * 1e6 / kAnalysesPerWindow;
  }

  void check_estimate(const ExpectedComplexityEstimate& e) {
    const int bad = e.spec_violations + e.crashed_samples + e.hung_samples;
    report_.check(bad == 0 && e.bound_met,
                  static_cast<std::uint64_t>(e.samples),
                  "Monte-Carlo estimate: bound missed or samples failed");
  }

  // The default analysis: bound met, so no (S,A)-run is built.
  double lean_window() {
    const Clock::time_point t0 = Clock::now();
    for (int i = 0; i < kLeanAnalysesPerWindow; ++i) {
      const std::uint64_t seed = derive_seed(cfg_.seed, 5, lean_analyses_++);
      const WakeupLowerBoundReport r = analyze_wakeup_run(
          thm_body_, kAnalysisN, std::make_shared<SeededTossAssignment>(seed));
      report_.check(r.terminated && r.bound_met && !r.s_run_built, 1,
                    "default Theorem 6.1 analysis failed its checks");
    }
    return seconds_since(t0) * 1e6 / kLeanAnalysesPerWindow;
  }

  // One window of the parallel driver, for the traced run's MC metrics.
  double parallel_window() {
    McRunOptions options;
    options.num_workers = cfg_.threads;
    const std::uint64_t seed = derive_seed(cfg_.seed, 2, parallel_windows_++);
    const Clock::time_point t0 = Clock::now();
    ParallelMcResult r;
    {
      ScopedSpan span("mc.parallel_estimate");
      r = estimate_expected_complexity_parallel(
          mc_body_, kMcN, kParallelSamplesPerWindow, seed, options);
    }
    const double us = seconds_since(t0) * 1e6 / kParallelSamplesPerWindow;
    check_estimate(r.estimate);
    if (!r.shards.empty()) {
      double max_wall = 0.0, sum_wall = 0.0;
      for (const McShardStats& s : r.shards) {
        max_wall = std::max(max_wall, s.wall_seconds);
        sum_wall += s.wall_seconds;
      }
      const double mean = sum_wall / static_cast<double>(r.shards.size());
      if (mean > 0) {
        imbalance_sum_ += max_wall / mean;
        ++imbalance_windows_;
      }
    }
    return us;
  }

  double serial_window(bool traced) {
    const std::uint64_t seed = derive_seed(cfg_.seed, 3, serial_windows_++);
    const Clock::time_point t0 = Clock::now();
    if (!traced) {
      check_estimate(estimate_expected_complexity(
          mc_body_, kMcN, kSerialSamplesPerWindow, seed));
      return seconds_since(t0) * 1e6 / kSerialSamplesPerWindow;
    }
    // The serial estimator's loop, with one span per sample.
    Rng rng(seed);
    int bad = 0;
    for (int i = 0; i < kSerialSamplesPerWindow; ++i) {
      const std::uint64_t toss_seed = rng.next_u64();
      const std::uint64_t start = now_ns();
      const McSampleOutcome o =
          run_mc_sample(mc_body_, kMcN, toss_seed, AdversaryOptions{});
      Tracer::instance().record("mc.run_mc_sample", start, now_ns(), 0,
                                static_cast<std::uint64_t>(i));
      if (!o.terminated || !o.has_winner) ++bad;
    }
    const double us = seconds_since(t0) * 1e6 / kSerialSamplesPerWindow;
    report_.check(bad == 0, kSerialSamplesPerWindow,
                  "Monte-Carlo sample did not terminate with a winner");
    return us;
  }

  // One LL;SC pair on the simulator's SharedMemory, in ns.
  double probe_shared_memory() {
    constexpr int kPairs = 200000;
    SharedMemory mem;
    std::uint64_t ok = 0;
    std::uint64_t start = 0;
    {
      ScopedSpan span("memory.llsc_probe");
      start = now_ns();
      for (int i = 0; i < kPairs; ++i) {
        const ProcId p = i & 3;
        const RegId r = static_cast<RegId>(i & 15);
        const Value v = mem.ll(p, r);
        const std::uint64_t base = v.is_nil() ? 0 : v.as_u64();
        ok += mem.sc(p, r, Value::of_u64(base + 1)).flag ? 1 : 0;
      }
    }
    const double ns = static_cast<double>(now_ns() - start) / kPairs;
    std::uint64_t sum = 0;
    for (RegId r = 0; r < 16; ++r) {
      const Value& v = mem.peek_value(r);
      sum += v.is_nil() ? 0 : v.as_u64();
    }
    report_.check(sum == ok, kPairs, "SharedMemory increments lost");
    return ns;
  }

  // One System::step of tournament_wakeup() at n = 64, round-robin, in ns.
  double probe_system_step() {
    constexpr int kRuns = 20;
    std::uint64_t steps = 0;
    std::uint64_t elapsed = 0;
    for (int run = 0; run < kRuns; ++run) {
      const std::uint64_t seed =
          derive_seed(cfg_.seed, 4, static_cast<std::uint64_t>(run));
      System sys(kMcN, thm_body_,
                 std::make_shared<SeededTossAssignment>(seed));
      sys.set_recording(false);
      ScopedSpan span("runtime.step_probe");
      const std::uint64_t start = now_ns();
      while (!sys.all_done()) {
        for (ProcId p = 0; p < kMcN; ++p) {
          if (sys.process(p).done()) continue;
          sys.step(p);
          ++steps;
        }
      }
      elapsed += now_ns() - start;
      int winners = 0;
      for (ProcId p = 0; p < kMcN; ++p) winners += returned_one(sys.process(p));
      report_.check(winners >= 1, 1, "round-robin wakeup run has no winner");
    }
    return steps == 0 ? 0.0
                      : static_cast<double>(elapsed) /
                            static_cast<double>(steps);
  }

  const Config& cfg_;
  Report& report_;
  const ProcBody thm_body_;
  const ProcBody mc_body_;
  std::vector<Leg> legs_;
  std::uint64_t analyses_ = 0;
  std::uint64_t lean_analyses_ = 0;
  std::uint64_t parallel_windows_ = 0;
  std::uint64_t serial_windows_ = 0;
  double imbalance_sum_ = 0.0;
  int imbalance_windows_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_lowerbound(const Config& cfg, Report& report) {
  return std::make_unique<Lowerbound>(cfg, report);
}

}  // namespace perfbench
