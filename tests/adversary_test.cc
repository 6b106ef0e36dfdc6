// Tests for the Fig. 2 adversary: round/phase structure, group
// partitioning, secretive move scheduling, termination, snapshots.
#include "core/adversary.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "wakeup/algorithms.h"
#include "wakeup/spec.h"

namespace llsc {
namespace {

TEST(Adversary, TerminatesTournamentAndRecordsRounds) {
  System sys(8, tournament_wakeup());
  const RunLog log = run_adversary(sys);
  EXPECT_TRUE(log.all_terminated);
  EXPECT_GT(log.num_rounds(), 0);
  EXPECT_EQ(log.n, 8);
  EXPECT_EQ(log.snapshots.size(), static_cast<std::size_t>(log.num_rounds()));
  const WakeupCheckResult check = check_wakeup_run(sys);
  EXPECT_TRUE(check.ok) << check.violations.front();
}

TEST(Adversary, OneSharedOpPerLiveProcessPerRound) {
  System sys(6, tournament_wakeup());
  const RunLog log = run_adversary(sys);
  for (const RoundRecord& rec : log.rounds) {
    std::set<ProcId> seen;
    for (const OpRecord& op : rec.ops) {
      EXPECT_TRUE(seen.insert(op.proc).second)
          << "p" << op.proc << " stepped twice in round " << rec.round;
    }
    const std::size_t live = rec.g_load.size() + rec.g_move.size() +
                             rec.g_swap.size() + rec.g_sc.size();
    EXPECT_EQ(rec.ops.size(), live);
  }
}

TEST(Adversary, PhaseOrderWithinRound) {
  System sys(6, swap_mix_wakeup());
  const RunLog log = run_adversary(sys);
  EXPECT_TRUE(log.all_terminated);
  bool saw_swap = false;
  bool saw_move = false;
  for (const RoundRecord& rec : log.rounds) {
    // Ops must appear grouped: loads, then moves, then swaps, then SCs.
    int phase = 0;
    for (const OpRecord& op : rec.ops) {
      const int g = static_cast<int>(op_group(op.op.kind));
      EXPECT_GE(g, phase) << "phase order violated in round " << rec.round;
      phase = std::max(phase, g);
      saw_swap |= op.op.kind == OpKind::kSwap;
      saw_move |= op.op.kind == OpKind::kMove;
    }
  }
  // swap_mix exercises swap and move phases.
  EXPECT_TRUE(saw_swap);
  EXPECT_TRUE(saw_move);
}

TEST(Adversary, MovePhaseUsesSecretiveSchedule) {
  System sys(12, swap_mix_wakeup());
  const RunLog log = run_adversary(sys);
  for (const RoundRecord& rec : log.rounds) {
    if (rec.move_set.empty()) {
      EXPECT_TRUE(rec.sigma.empty());
      continue;
    }
    EXPECT_TRUE(is_secretive_complete(rec.move_set, rec.sigma))
        << "round " << rec.round;
  }
}

TEST(Adversary, AblatedMovesScheduleById) {
  System sys(12, swap_mix_wakeup());
  AdversaryOptions opts;
  opts.secretive_moves = false;
  const RunLog log = run_adversary(sys, opts);
  for (const RoundRecord& rec : log.rounds) {
    EXPECT_TRUE(std::is_sorted(rec.sigma.begin(), rec.sigma.end()));
  }
}

TEST(Adversary, LoadsObserveEndOfPreviousRound) {
  // Within a round, loads run before stores: an LL in the same round as a
  // successful SC on the same register must return the PREVIOUS value.
  System sys(4, counter_wakeup());
  const RunLog log = run_adversary(sys);
  EXPECT_TRUE(log.all_terminated);
  for (std::size_t r = 1; r < log.rounds.size(); ++r) {
    const RoundRecord& rec = log.rounds[r];
    for (const OpRecord& op : rec.ops) {
      if (op.op.kind != OpKind::kLL) continue;
      const auto& prev_snap = log.at(rec.round - 1);
      const RegSnapshot* reg = prev_snap.regs.find(op.op.reg);
      const Value expected = reg == nullptr ? Value{} : reg->value;
      EXPECT_EQ(op.result.value, expected)
          << "LL in round " << rec.round << " did not read the end-of-"
          << (rec.round - 1) << " value";
    }
  }
}

TEST(Adversary, AtMostOneSuccessfulScPerRegisterPerRound) {
  System sys(9, counter_wakeup());
  const RunLog log = run_adversary(sys);
  for (const RoundRecord& rec : log.rounds) {
    std::map<RegId, int> successes;
    for (const OpRecord& op : rec.ops) {
      if (op.op.kind == OpKind::kSC && op.result.flag) {
        ++successes[op.op.reg];
      }
    }
    for (const auto& [reg, count] : successes) {
      EXPECT_LE(count, 1) << "register " << reg << " round " << rec.round;
    }
  }
}

TEST(Adversary, RoundCapStopsNonTerminatingRuns) {
  // flaky with denominator 2 and all-zero tosses: every process draws
  // outcome 0 and spins forever.
  System sys(3, flaky_wakeup(2));
  AdversaryOptions opts;
  opts.max_rounds = 10;
  const RunLog log = run_adversary(sys, opts);
  EXPECT_FALSE(log.all_terminated);
  EXPECT_EQ(log.num_rounds(), 10);
}

TEST(Adversary, CounterWakeupForcedToLinearRounds) {
  // Under the adversary, the naive counter makes one process finish per
  // ~2 rounds: the last finisher performs Θ(n) operations.
  const int n = 16;
  System sys(n, counter_wakeup());
  const RunLog log = run_adversary(sys);
  ASSERT_TRUE(log.all_terminated);
  EXPECT_GE(sys.max_shared_ops(), static_cast<std::uint64_t>(n));
  const WakeupCheckResult check = check_wakeup_run(sys);
  EXPECT_TRUE(check.ok) << check.violations.front();
}

TEST(Adversary, SnapshotsCanBeDisabled) {
  System sys(4, tournament_wakeup());
  AdversaryOptions opts;
  opts.record_snapshots = false;
  const RunLog log = run_adversary(sys, opts);
  EXPECT_TRUE(log.all_terminated);
  EXPECT_TRUE(log.snapshots.empty());
  EXPECT_GT(log.num_rounds(), 0);
}

class AdversaryAlgorithmSweep
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(AdversaryAlgorithmSweep, WakeupSpecHoldsUnderAdversary) {
  const int n = std::get<0>(GetParam());
  const int alg = std::get<1>(GetParam());
  ProcBody body;
  switch (alg) {
    case 0:
      body = tournament_wakeup();
      break;
    case 1:
      body = counter_wakeup();
      break;
    default:
      body = swap_mix_wakeup();
      break;
  }
  System sys(n, body);
  const RunLog log = run_adversary(sys);
  ASSERT_TRUE(log.all_terminated) << "n=" << n << " alg=" << alg;
  const WakeupCheckResult check = check_wakeup_run(sys);
  EXPECT_TRUE(check.ok) << check.violations.front();
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, AdversaryAlgorithmSweep,
    ::testing::Combine(::testing::Values(1, 2, 3, 4, 7, 16, 31),
                       ::testing::Values(0, 1, 2)));

}  // namespace
}  // namespace llsc
