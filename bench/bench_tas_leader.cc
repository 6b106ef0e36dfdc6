// E18 — expected steps vs n for randomized test-and-set and leader
// election (objects/tas.h, objects/leader.h) on all three substrates.
//
// The two retrieved papers put the strict protocol's cost between two
// curves, and the table splits them across two columns. The WINNER's cost
// (mean/min_winner_ops) is flat in n: the splitter fast path admits the
// first unobstructed process in O(1) ops — the upper-bound side, the
// shape Giakkoupis–Helmi–Higham–Woelfel (arXiv:1608.06033) drive all the
// way to O(log* n) expected. The LOSERS' cost (mean_max_ops) grows with
// log2(n): every chain reject descends the ceil(log2 n)-deep RatRace
// tournament — the side that Alistarh–Gelashvili–Nadiradze's
// (arXiv:2108.02802) Omega(log n) leader-election lower bound says some
// process must pay, and that transfers to TAS/leader here through the
// constant-op reductions of wakeup/reductions.h. EXPERIMENTS.md §E18
// records both columns against log2_n.
//
// Substrates: Sim = Monte-Carlo over the sharded parallel driver
// (adversary schedule, deterministic per seed); Hw = HwExecutor, one
// carrier thread per process, n capped near the core count; Oversub =
// n >> cores on 2 carrier threads (the service-mode substrate). Both hw
// columns run the same pool run loop. spec_violations counts
// samples where the exactly-one-winner postcondition failed and must be
// ZERO — that is the acceptance gate bench_to_csv.py --check enforces.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "hw/hw_executor.h"
#include "hw/mc_driver.h"
#include "hw/oversub_executor.h"
#include "objects/leader.h"
#include "objects/tas.h"
#include "util/check.h"

namespace llsc {
namespace {

constexpr int kSimSamples = 16;
constexpr int kHwSamples = 8;

ProcBody object_body(int object_id) {
  // 0 = TAS (1 iff won), 1 = leader election through the winner-flag body
  // (1 iff self elected) — both shapes feed the estimator's winner scan.
  return object_id == 0 ? randomized_tas_body() : leader_winner_flag_body();
}

void report_common(benchmark::State& state, int n, int object_id,
                   int substrate_id, int samples) {
  state.counters["n"] = n;
  state.counters["object_id"] = object_id;
  state.counters["substrate_id"] = substrate_id;
  state.counters["samples"] = samples;
  state.counters["log2_n"] = n > 1 ? std::log2(static_cast<double>(n)) : 0.0;
}

void run_sim_leg(benchmark::State& state, int object_id) {
  const int n = static_cast<int>(state.range(0));
  ParallelMcResult result;
  for (auto _ : state) {
    result = estimate_expected_complexity_parallel(
        object_body(object_id), n, kSimSamples, /*seed=*/0xE18 + object_id);
  }
  const ExpectedComplexityEstimate& est = result.estimate;
  LLSC_CHECK(est.spec_violations == 0, "E18 sim sample lost a winner");
  report_common(state, n, object_id, /*substrate_id=*/0, kSimSamples);
  state.counters["mean_winner_ops"] = est.mean_winner_ops;
  state.counters["mean_max_ops"] = est.mean_max_ops;
  state.counters["min_winner_ops"] = static_cast<double>(est.min_winner_ops);
  state.counters["spec_violations"] = est.spec_violations;
  state.counters["mc_workers"] = result.num_workers;
}

// Free-threaded legs: the executors have no estimator, so fold the winner
// scan by hand — exactly one result of 1 per sample or the sample counts
// as a spec violation (it never should; safety is deterministic).
void run_threaded_leg(benchmark::State& state, int object_id,
                      int substrate_id) {
  const int n = static_cast<int>(state.range(0));
  const ProcBody body = object_body(object_id);
  int spec_violations = 0;
  double sum_winner_ops = 0.0;
  double sum_max_ops = 0.0;
  std::uint64_t min_winner_ops = ~std::uint64_t{0};
  int measured = 0;
  for (auto _ : state) {
    spec_violations = 0;
    sum_winner_ops = 0.0;
    sum_max_ops = 0.0;
    min_winner_ops = ~std::uint64_t{0};
    measured = 0;
    for (int s = 0; s < kHwSamples; ++s) {
      HwRunResult run;
      if (substrate_id == 1) {
        HwRunOptions options;
        options.seed = 0xE18u + static_cast<std::uint64_t>(s);
        HwExecutor exec(options);
        run = exec.run(n, body);
      } else {
        OversubRunOptions options;
        options.seed = 0xE18u + static_cast<std::uint64_t>(s);
        options.num_threads = 2;  // n >> cores: the oversubscribed shape
        OversubscribedExecutor exec(options);
        run = exec.run(n, body);
      }
      LLSC_CHECK(run.ok, "E18 threaded sample did not complete");
      int winners = 0;
      std::uint64_t winner_ops = 0;
      std::uint64_t max_ops = 0;
      for (ProcId p = 0; p < n; ++p) {
        max_ops = std::max(max_ops, run.shared_ops[p]);
        if (run.results[p].holds_u64() && run.results[p].as_u64() == 1) {
          ++winners;
          winner_ops = run.shared_ops[p];
        }
      }
      if (winners != 1) {
        ++spec_violations;
        continue;
      }
      ++measured;
      sum_winner_ops += static_cast<double>(winner_ops);
      sum_max_ops += static_cast<double>(max_ops);
      min_winner_ops = std::min(min_winner_ops, winner_ops);
    }
  }
  LLSC_CHECK(spec_violations == 0, "E18 threaded sample lost a winner");
  LLSC_CHECK(measured > 0, "E18 leg measured nothing");
  report_common(state, n, object_id, substrate_id, kHwSamples);
  state.counters["mean_winner_ops"] = sum_winner_ops / measured;
  state.counters["mean_max_ops"] = sum_max_ops / measured;
  state.counters["min_winner_ops"] = static_cast<double>(min_winner_ops);
  state.counters["spec_violations"] = spec_violations;
}

void BM_E18_Tas_Sim(benchmark::State& state) { run_sim_leg(state, 0); }
void BM_E18_Leader_Sim(benchmark::State& state) { run_sim_leg(state, 1); }
void BM_E18_Tas_Hw(benchmark::State& state) {
  run_threaded_leg(state, 0, /*substrate_id=*/1);
}
void BM_E18_Leader_Hw(benchmark::State& state) {
  run_threaded_leg(state, 1, /*substrate_id=*/1);
}
void BM_E18_Tas_Oversub(benchmark::State& state) {
  run_threaded_leg(state, 0, /*substrate_id=*/2);
}
void BM_E18_Leader_Oversub(benchmark::State& state) {
  run_threaded_leg(state, 1, /*substrate_id=*/2);
}

}  // namespace
}  // namespace llsc

BENCHMARK(llsc::BM_E18_Tas_Sim)
    ->RangeMultiplier(2)
    ->Range(2, 64)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(llsc::BM_E18_Leader_Sim)
    ->RangeMultiplier(2)
    ->Range(2, 64)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(llsc::BM_E18_Tas_Hw)
    ->RangeMultiplier(2)
    ->Range(2, 8)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(llsc::BM_E18_Leader_Hw)
    ->RangeMultiplier(2)
    ->Range(2, 8)
    ->Unit(benchmark::kMillisecond);
// Oversubscribed: 2 carrier threads, up to 32 logical processes.
BENCHMARK(llsc::BM_E18_Tas_Oversub)
    ->RangeMultiplier(4)
    ->Range(8, 32)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(llsc::BM_E18_Leader_Oversub)
    ->RangeMultiplier(4)
    ->Range(8, 32)
    ->Unit(benchmark::kMillisecond);
