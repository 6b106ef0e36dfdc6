// Property tests for the appendix claims that support Lemma 5.2, checked
// on arbitrary adversary runs, plus indistinguishability sweeps for a
// Pset-sensitive algorithm (validate flags observe who cleared links —
// the subtlest part of the register indistinguishability definition),
// each checked against the reference checker in indist_reference.h.
#include <gtest/gtest.h>

#include "core/adversary.h"
#include "core/indistinguishability.h"
#include "core/s_run.h"
#include "core/up_tracker.h"
#include "indist_reference.h"
#include "runtime/toss.h"
#include "util/rng.h"
#include "wakeup/algorithms.h"

namespace llsc {
namespace {

// An algorithm whose control flow branches on validate's link flag: p
// links R0, later validates it, and probes different registers depending
// on whether an interferer invalidated the link. Not a wakeup solution —
// the lemmas are quantified over ALL algorithms.
SimTask link_probe_body(ProcCtx ctx, ProcId i, int n) {
  (void)n;
  (void)co_await ctx.ll(0);
  if (i % 2 == 0) {
    (void)co_await ctx.sc(0, Value::of_u64(static_cast<std::uint64_t>(i)));
  } else {
    (void)co_await ctx.validate(1);  // keep round alignment
  }
  const VlResult probe = co_await ctx.validate(0);
  if (probe.ok) {
    (void)co_await ctx.ll(100 + static_cast<RegId>(i));
  } else {
    (void)co_await ctx.swap(200 + static_cast<RegId>(i),
                            Value::of_u64(static_cast<std::uint64_t>(i)));
  }
  co_return Value::of_u64(0);
}

ProcBody link_probe() {
  return [](ProcCtx ctx, ProcId i, int n) {
    return link_probe_body(ctx, i, n);
  };
}

class LinkProbeIndistSweep : public ::testing::TestWithParam<int> {};

TEST_P(LinkProbeIndistSweep, Lemma52HoldsForPsetSensitiveAlgorithm) {
  const int n = GetParam();
  const auto tosses = std::make_shared<SeededTossAssignment>(13);
  System all_sys(n, link_probe(), tosses);
  const RunLog all_log = run_adversary(all_sys);
  ASSERT_TRUE(all_log.all_terminated);
  const UpTracker up = UpTracker::over(all_log);

  Rng rng(static_cast<std::uint64_t>(n));
  for (int iter = 0; iter < 6; ++iter) {
    ProcSet s(n);
    for (ProcId p = 0; p < n; ++p) {
      if (rng.next_bool()) s.insert(p);
    }
    if (s.empty()) s.insert(static_cast<ProcId>(rng.next_below(
        static_cast<std::uint64_t>(n))));
    System s_sys(n, link_probe(), tosses);
    const RunLog s_log = run_s_run(s_sys, all_log, up, s);
    const IndistReport report =
        check_against_reference(all_log, s_log, up, s, "S=" + s.to_string());
    EXPECT_TRUE(report.ok)
        << "S=" << s.to_string() << ": " << report.violations.front();
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, LinkProbeIndistSweep,
                         ::testing::Values(2, 3, 4, 6, 9, 14));

// Claim A.4: if some process performs a successful SC on R in round r,
// then UP(R, r-1) ⊆ UP(R, r).
void check_claim_a4(const RunLog& log) {
  const UpTracker up = UpTracker::over(log);
  for (const RoundRecord& rec : log.rounds) {
    for (const OpRecord& op : rec.ops) {
      if (op.op.kind != OpKind::kSC || !op.result.flag) continue;
      EXPECT_TRUE(up.up_register(op.op.reg, rec.round - 1)
                      .subset_of(up.up_register(op.op.reg, rec.round)))
          << "Claim A.4 violated at R" << op.op.reg << " round "
          << rec.round;
    }
  }
}

// Claim A.5 (specialized): if UP(p, r) ⊆ S and p performs SC on R in
// round r, then UP(R, r) ⊆ S — equivalently UP(R, r) ⊆ UP(p, r).
void check_claim_a5(const RunLog& log) {
  const UpTracker up = UpTracker::over(log);
  for (const RoundRecord& rec : log.rounds) {
    for (const OpRecord& op : rec.ops) {
      if (op.op.kind != OpKind::kSC) continue;
      EXPECT_TRUE(up.up_register(op.op.reg, rec.round)
                      .subset_of(up.up_process(op.proc, rec.round)))
          << "Claim A.5 violated: p" << op.proc << " SC on R" << op.op.reg
          << " round " << rec.round;
    }
  }
}

class AppendixClaimsSweep
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(AppendixClaimsSweep, ClaimsA4A5HoldOnAdversaryRuns) {
  const int n = std::get<0>(GetParam());
  const int alg = std::get<1>(GetParam());
  ProcBody body;
  std::shared_ptr<TossAssignment> tosses;
  switch (alg) {
    case 0:
      body = tournament_wakeup();
      break;
    case 1:
      body = counter_wakeup();
      break;
    case 2:
      body = swap_mix_wakeup();
      break;
    case 3:
      body = link_probe();
      break;
    default:
      body = random_mix_body(14, 6);
      tosses = std::make_shared<SeededTossAssignment>(
          static_cast<std::uint64_t>(n) * 131);
      break;
  }
  System sys(n, body, tosses);
  const RunLog log = run_adversary(sys);
  ASSERT_TRUE(log.all_terminated);
  check_claim_a4(log);
  check_claim_a5(log);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, AppendixClaimsSweep,
    ::testing::Combine(::testing::Values(2, 3, 5, 8, 13),
                       ::testing::Values(0, 1, 2, 3, 4)));

// The UP sets of the (S,A)-run's own adversary structure: running the UP
// rules over the S-run log must also satisfy Lemma 5.1 (the S-run is just
// another legal adversary-structured run).
TEST(SRunUpSets, Lemma51HoldsOnSRunLogs) {
  const int n = 10;
  System all_sys(n, swap_mix_wakeup());
  const RunLog all_log = run_adversary(all_sys);
  const UpTracker up = UpTracker::over(all_log);
  const ProcSet s = ProcSet::of(n, {0, 1, 4, 7});
  System s_sys(n, swap_mix_wakeup());
  const RunLog s_log = run_s_run(s_sys, all_log, up, s);
  const UpTracker s_up = UpTracker::over(s_log);
  EXPECT_TRUE(s_up.lemma51_holds());
}

}  // namespace
}  // namespace llsc
