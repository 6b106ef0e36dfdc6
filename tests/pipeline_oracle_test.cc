// The Theorem 6.1 pipeline against its oracle (pipeline_reference.h,
// indist_reference.h): the production adversary's round records and
// snapshots, the pooled UpTracker, the (S,A)-run and the Lemma 5.2 check
// must match the original copy-every-round implementations exactly — every
// snapshot's procs, register values and Psets, every UP(p, r) and UP(R, r),
// every max_up_size(r), lemma51_holds(), and every IndistReport (ok, both
// counts, violation strings in order).
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>

#include "core/adversary.h"
#include "core/indistinguishability.h"
#include "core/lower_bound.h"
#include "core/s_run.h"
#include "core/up_tracker.h"
#include "hw/fault.h"
#include "indist_reference.h"
#include "pipeline_reference.h"
#include "runtime/toss.h"
#include "util/rng.h"
#include "util/str.h"
#include "wakeup/algorithms.h"

namespace llsc {
namespace {

bool returned_one(const Process& p) {
  return p.done() && p.result().holds_u64() && p.result().as_u64() == 1;
}

struct Algo {
  const char* name;
  ProcBody body;
};

std::vector<Algo> algos() {
  return {
      {"tournament", tournament_wakeup()},
      {"swap_mix", swap_mix_wakeup()},
      {"randomized_tournament", randomized_tournament_wakeup()},
      {"counter", counter_wakeup()},
  };
}

// One (algorithm, n, seed, move order) choice: the All-run, its UP sets,
// and for several S the (S,A)-run and the Lemma 5.2 report, each compared
// with the oracle's. `large` keeps only the proof's S and skips the
// oracle's quadratic Lemma 5.2 check (seconds per S at n = 1024); the
// reports at that size are compared by AnalysisReportsAt1024MatchReference.
void check_pipeline(const Algo& algo, int n, std::uint64_t seed,
                    bool secretive, bool large = false) {
  const std::string label = std::string(algo.name) + " n=" +
                            std::to_string(n) + " seed=" +
                            std::to_string(seed) +
                            (secretive ? "" : " ablated");
  const auto tosses = std::make_shared<SeededTossAssignment>(seed);
  AdversaryOptions options;
  options.max_rounds = 4000;
  options.secretive_moves = secretive;

  System sys(n, algo.body, tosses);
  sys.set_recording(false);
  const RunLog log = run_adversary(sys, options);
  System ref_sys(n, algo.body, tosses);
  ref_sys.set_recording(false);
  const ref::RunLog ref_log = ref::run_adversary(ref_sys, options);
  expect_same_log(log, ref_log, label + " all-run");

  const UpTracker up = UpTracker::over(log);
  const ref::UpTracker ref_up = ref::UpTracker::over(ref_log);
  expect_same_up(up, ref_up, log, label);

  // S choices: the proof's S = UP(winner, r), everybody, and a random
  // subset.
  std::vector<ProcSet> choices;
  ProcId winner = -1;
  for (ProcId p = 0; p < n; ++p) {
    if (returned_one(sys.process(p)) &&
        (winner == -1 ||
         sys.process(p).shared_ops() < sys.process(winner).shared_ops())) {
      winner = p;
    }
  }
  if (winner != -1) {
    const int r = static_cast<int>(std::min<std::uint64_t>(
        sys.process(winner).shared_ops(),
        static_cast<std::uint64_t>(up.num_rounds())));
    choices.push_back(up.up_process(winner, r));
  }
  if (!large) {
    choices.push_back(ProcSet::full(n));
    Rng rng(seed ^ 0x5EEDu);
    ProcSet random(n);
    for (ProcId p = 0; p < n; ++p) {
      if (rng.next_below(2) == 0) random.insert(p);
    }
    choices.push_back(random);
  }

  // Ablated move order voids the claims the S-run checks as it goes.
  SRunOptions s_options;
  s_options.verify_claims = secretive;
  for (const ProcSet& s : choices) {
    const std::string at = label + " S=" + std::to_string(s.count());
    System s_sys(n, algo.body, tosses);
    s_sys.set_recording(false);
    const RunLog s_log = run_s_run(s_sys, log, up, s, s_options);
    System ref_s_sys(n, algo.body, tosses);
    ref_s_sys.set_recording(false);
    const ref::RunLog ref_s_log =
        ref::run_s_run(ref_s_sys, ref_log, ref_up, s, s_options);
    expect_same_log(s_log, ref_s_log, at + " s-run");
    if (large) continue;
    expect_same_report(
        check_indistinguishability(log, s_log, up, s),
        reference_check_indistinguishability(ref_log, ref_s_log, ref_up, s),
        at);
  }
}

class PipelineOracle
    : public ::testing::TestWithParam<std::tuple<int, bool>> {};

TEST_P(PipelineOracle, MatchesReferenceForEveryAlgorithmAndSeed) {
  const auto [n, secretive] = GetParam();
  // Three seeds up to n = 64; one at n = 256, where the oracle's quadratic
  // Lemma 5.2 check takes about 0.3 s per S.
  const std::uint64_t seeds = n <= 64 ? 3 : 1;
  for (const Algo& algo : algos()) {
    for (std::uint64_t seed = 1; seed <= seeds; ++seed) {
      check_pipeline(algo, n, seed, secretive);
      if (HasFatalFailure()) return;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PipelineOracle,
    ::testing::Combine(::testing::Values(2, 3, 5, 8, 17, 64, 256),
                       ::testing::Bool()));

// swap_mix touches many registers, so its oracle (a std::map copy of
// every register per snapshot) takes ~3 s per order here; its ablated
// order is covered up to n = 256 by the sweep.
TEST(PipelineOracle, LogsAndUpSetsAt1024MatchReference) {
  check_pipeline(algos()[0], 1024, 7, /*secretive=*/true, /*large=*/true);
  check_pipeline(algos()[0], 1024, 7, /*secretive=*/false, /*large=*/true);
  check_pipeline(algos()[1], 1024, 11, /*secretive=*/true, /*large=*/true);
}

// An SC with no LL before it: it fails, and touches its register only
// when no fault was injected (an injected failure is a read-only probe).
SimTask blind_sc_body(ProcCtx ctx) {
  (void)co_await ctx.sc(100 + static_cast<RegId>(ctx.id()), Value::of_u64(1));
  (void)co_await ctx.ll(0);
  (void)co_await ctx.sc(0, Value::of_u64(2));
  co_return Value::of_u64(0);
}

// Injected SC failures (read-only probes, possibly of untouched registers)
// and an amnesiac restart (which drops the victim's links from every
// register outside any op) must leave the snapshots exact.
TEST(PipelineOracle, SnapshotsUnderFaultsAndRecoveryMatchReference) {
  const int n = 8;
  FaultPlan plan;
  plan.seed = 3;
  plan.sc_fail_rate = 0.3;
  CrashSpec crash{.proc = 2, .after_ops = 2, .recovery = {}};
  crash.recovery.delay_units = 2;
  crash.recovery.max_restarts = 1;
  crash.recovery.amnesia = true;
  plan.crashes.push_back(crash);
  AdversaryOptions options;
  options.max_rounds = 500;
  std::vector<Algo> cases = algos();
  cases.push_back({"blind_sc", [](ProcCtx ctx, ProcId, int) {
                     return blind_sc_body(ctx);
                   }});
  for (const Algo& algo : cases) {
    System sys(n, algo.body);
    FaultInjector injector(plan, n);
    sys.set_fault_injector(&injector);
    const RunLog log = run_adversary(sys, options);
    System ref_sys(n, algo.body);
    FaultInjector ref_injector(plan, n);
    ref_sys.set_fault_injector(&ref_injector);
    const ref::RunLog ref_log = ref::run_adversary(ref_sys, options);
    EXPECT_EQ(injector.stats().recoveries, 1u) << algo.name;
    EXPECT_GT(injector.stats().injected_sc_failures, 0u) << algo.name;
    expect_same_log(log, ref_log, std::string(algo.name) + " faulted");
    expect_same_up(UpTracker::over(log), ref::UpTracker::over(ref_log), log,
                   std::string(algo.name) + " faulted");
  }
}

// analyze_wakeup_run(…, always_check_indistinguishability) spelled out with
// the oracle's pieces.
WakeupLowerBoundReport reference_analysis(const ProcBody& body, int n,
                                          std::uint64_t seed) {
  const auto tosses = std::make_shared<SeededTossAssignment>(seed);
  WakeupLowerBoundReport report;
  report.n = n;
  report.log4_n = log4(static_cast<double>(n));
  System sys(n, body, tosses);
  sys.set_recording(false);
  const ref::RunLog log = ref::run_adversary(sys);
  report.terminated = log.all_terminated;
  report.rounds = log.num_rounds();
  report.max_ops = sys.max_shared_ops();
  for (ProcId p = 0; p < n; ++p) {
    if (returned_one(sys.process(p)) &&
        (report.winner == -1 ||
         sys.process(p).shared_ops() < report.winner_ops)) {
      report.winner = p;
      report.winner_ops = sys.process(p).shared_ops();
    }
  }
  if (report.winner == -1) return report;
  std::size_t pow = 1;
  for (std::uint64_t i = 0;
       i < report.winner_ops && pow < static_cast<std::size_t>(n); ++i) {
    pow *= 4;
  }
  report.bound_met = pow >= static_cast<std::size_t>(n);
  const ref::UpTracker up = ref::UpTracker::over(log);
  const int r = static_cast<int>(
      std::min<std::uint64_t>(report.winner_ops,
                              static_cast<std::uint64_t>(up.num_rounds())));
  const ProcSet s = up.up_process(report.winner, r);
  report.up_size = s.count();
  report.s_size = s.count();
  System s_sys(n, body, tosses);
  s_sys.set_recording(false);
  const ref::RunLog s_log = ref::run_s_run(s_sys, log, up, s);
  report.s_run_built = true;
  report.s_run_winner_returned_1 = returned_one(s_sys.process(report.winner));
  report.wakeup_violation_witnessed =
      report.s_run_winner_returned_1 && s.count() < static_cast<std::size_t>(n);
  report.indist = reference_check_indistinguishability(log, s_log, up, s);
  return report;
}

void expect_same_analysis(const WakeupLowerBoundReport& got,
                          const WakeupLowerBoundReport& want,
                          const std::string& label) {
  EXPECT_EQ(got.n, want.n) << label;
  EXPECT_EQ(got.terminated, want.terminated) << label;
  EXPECT_EQ(got.rounds, want.rounds) << label;
  EXPECT_EQ(got.winner, want.winner) << label;
  EXPECT_EQ(got.winner_ops, want.winner_ops) << label;
  EXPECT_EQ(got.max_ops, want.max_ops) << label;
  EXPECT_EQ(got.log4_n, want.log4_n) << label;
  EXPECT_EQ(got.bound_met, want.bound_met) << label;
  EXPECT_EQ(got.up_size, want.up_size) << label;
  EXPECT_EQ(got.s_run_built, want.s_run_built) << label;
  EXPECT_EQ(got.s_size, want.s_size) << label;
  EXPECT_EQ(got.s_run_winner_returned_1, want.s_run_winner_returned_1)
      << label;
  EXPECT_EQ(got.wakeup_violation_witnessed, want.wakeup_violation_witnessed)
      << label;
  expect_same_report(got.indist, want.indist, label);
  EXPECT_EQ(got.summary(), want.summary()) << label;
}

TEST(PipelineOracle, AnalysisReportsAt1024MatchReference) {
  WakeupLowerBoundOptions options;
  options.always_check_indistinguishability = true;
  const struct {
    const char* name;
    ProcBody body;
  } cases[] = {{"tournament", tournament_wakeup()},
               {"cheating", cheating_wakeup(2)}};
  for (const auto& c : cases) {
    const std::uint64_t seed = 1024;
    const WakeupLowerBoundReport got = analyze_wakeup_run(
        c.body, 1024, std::make_shared<SeededTossAssignment>(seed), options);
    const WakeupLowerBoundReport want =
        reference_analysis(c.body, 1024, seed);
    ASSERT_TRUE(want.s_run_built) << c.name;
    expect_same_analysis(got, want, c.name);
  }
}

}  // namespace
}  // namespace llsc
