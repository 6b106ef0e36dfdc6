// Tests for the Section 5.3 UP-set update rules and Lemma 5.1.
#include "core/up_tracker.h"

#include <gtest/gtest.h>

#include "core/adversary.h"
#include "runtime/toss.h"
#include "wakeup/algorithms.h"

namespace llsc {
namespace {

TEST(UpTracker, InitialSets) {
  UpTracker t(4);
  for (ProcId p = 0; p < 4; ++p) {
    EXPECT_EQ(t.up_process(p, 0), ProcSet::singleton(4, p));
  }
  EXPECT_TRUE(t.up_register(0, 0).empty());
  EXPECT_TRUE(t.up_register(12345, 0).empty());
  EXPECT_EQ(t.max_up_size(0), 1u);
}

// Two processes, a hand-checkable interaction:
//   p0: LL(0); SC(0, x); done.       p1: LL(0); SC(0, y); LL(0); done.
// Round 1: both LL(0) — UP unchanged (register 0's set is empty).
// Round 2: both SC(0): p0 (lower id) succeeds -> UP(R0,2) = UP(p0,1) = {p0};
//          p1's SC fails -> UP(p1,2) = {p1} ∪ UP(R0,2) = {p0,p1};
//          p0's own SC: UP(p0,2) = {p0} ∪ UP(R0,1) = {p0}.
// Round 3: p1 LL(0): UP(p1,3) = UP(p1,2) ∪ UP(R0,2) = {p0,p1}.
SimTask two_ops_body(ProcCtx ctx) {
  (void)co_await ctx.ll(0);
  (void)co_await ctx.sc(0, Value::of_u64(ctx.id() + 10));
  if (ctx.id() == 1) (void)co_await ctx.ll(0);
  co_return Value::of_u64(0);
}

TEST(UpTracker, HandComputedScenario) {
  System sys(2, [](ProcCtx ctx, ProcId, int) { return two_ops_body(ctx); });
  const RunLog log = run_adversary(sys);
  ASSERT_TRUE(log.all_terminated);
  ASSERT_GE(log.num_rounds(), 3);
  const UpTracker t = UpTracker::over(log);

  EXPECT_EQ(t.up_process(0, 1), ProcSet::singleton(2, 0));
  EXPECT_EQ(t.up_process(1, 1), ProcSet::singleton(2, 1));
  EXPECT_TRUE(t.up_register(0, 1).empty());

  EXPECT_EQ(t.up_register(0, 2), ProcSet::singleton(2, 0));
  EXPECT_EQ(t.up_process(0, 2), ProcSet::singleton(2, 0));
  EXPECT_EQ(t.up_process(1, 2), ProcSet::full(2));

  EXPECT_EQ(t.up_process(1, 3), ProcSet::full(2));
  EXPECT_EQ(t.up_process(0, 3), ProcSet::singleton(2, 0));
}

// Swap rules: p0 and p1 both swap register 0 in the same round.
//   Register: UP(R0,1) = UP(last swapper = p1, 0) = {p1}.
//   First swapper p0: UP(p0,1) = {p0} ∪ UP(R0,0) = {p0}.
//   Second swapper p1: reads what p0 wrote: UP(p1,1) = {p1} ∪ {p0}.
SimTask swapper_body(ProcCtx ctx) {
  (void)co_await ctx.swap(0, Value::of_u64(ctx.id()));
  co_return Value::of_u64(0);
}

TEST(UpTracker, SwapRules) {
  System sys(2, [](ProcCtx ctx, ProcId, int) { return swapper_body(ctx); });
  const RunLog log = run_adversary(sys);
  const UpTracker t = UpTracker::over(log);
  EXPECT_EQ(t.up_register(0, 1), ProcSet::singleton(2, 1));
  EXPECT_EQ(t.up_process(0, 1), ProcSet::singleton(2, 0));
  EXPECT_EQ(t.up_process(1, 1), ProcSet::full(2));
}

// Move rules: p0 swaps a mark into R1 (round 1) then p1 moves R1 -> R2
// (its first op is delayed by an initial toss... simpler: p1 moves in
// round 1 from an untouched register; p2 later reads the destination).
//   Round 1: p1: move(R10 -> R20). UP(R20,1) = UP(R10,0) ∪ UP(p1,0) = {p1};
//   p1 itself learns nothing: UP(p1,1) = {p1}.
//   Round 2: p0: LL(R20): UP(p0,2) = {p0} ∪ UP(R20,1) = {p0,p1}.
SimTask mover_body(ProcCtx ctx) {
  if (ctx.id() == 1) {
    co_await ctx.move(10, 20);
  } else {
    (void)co_await ctx.validate(99);  // keep round alignment
    (void)co_await ctx.ll(20);
  }
  co_return Value::of_u64(0);
}

TEST(UpTracker, MoveRules) {
  System sys(2, [](ProcCtx ctx, ProcId, int) { return mover_body(ctx); });
  const RunLog log = run_adversary(sys);
  const UpTracker t = UpTracker::over(log);
  EXPECT_EQ(t.up_register(20, 1), ProcSet::singleton(2, 1));
  EXPECT_EQ(t.up_process(1, 1), ProcSet::singleton(2, 1));
  EXPECT_EQ(t.up_process(0, 2), ProcSet::full(2));
}

TEST(UpTracker, Lemma51Bound) {
  EXPECT_EQ(UpTracker::lemma51_bound(0), 1u);
  EXPECT_EQ(UpTracker::lemma51_bound(1), 4u);
  EXPECT_EQ(UpTracker::lemma51_bound(3), 64u);
  EXPECT_EQ(UpTracker::lemma51_bound(40), ~std::size_t{0});  // saturates
}

class Lemma51Sweep : public ::testing::TestWithParam<std::tuple<int, int>> {};

// Lemma 5.1: |UP(X,r)| <= 4^r for every algorithm under the adversary —
// checked for deterministic wakeups and toss-driven random op mixes.
TEST_P(Lemma51Sweep, UpSizesBoundedBy4PowR) {
  const int n = std::get<0>(GetParam());
  const int alg = std::get<1>(GetParam());
  ProcBody body;
  std::shared_ptr<TossAssignment> tosses;
  switch (alg) {
    case 0:
      body = tournament_wakeup();
      break;
    case 1:
      body = swap_mix_wakeup();
      break;
    case 2:
      body = counter_wakeup();
      break;
    default:
      body = random_mix_body(12, 8);
      tosses = std::make_shared<SeededTossAssignment>(
          static_cast<std::uint64_t>(n) * 77 + 5);
      break;
  }
  System sys(n, body, tosses);
  const RunLog log = run_adversary(sys);
  ASSERT_TRUE(log.all_terminated);
  const UpTracker t = UpTracker::over(log);
  EXPECT_TRUE(t.lemma51_holds());
  for (int r = 0; r <= t.num_rounds(); ++r) {
    EXPECT_LE(t.max_up_size(r), UpTracker::lemma51_bound(r)) << "round " << r;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, Lemma51Sweep,
    ::testing::Combine(::testing::Values(2, 3, 5, 9, 16, 24),
                       ::testing::Values(0, 1, 2, 3)));

TEST(UpTracker, UpSetsGrowMonotonically) {
  System sys(8, tournament_wakeup());
  const RunLog log = run_adversary(sys);
  const UpTracker t = UpTracker::over(log);
  for (ProcId p = 0; p < 8; ++p) {
    for (int r = 1; r <= t.num_rounds(); ++r) {
      EXPECT_TRUE(t.up_process(p, r - 1).subset_of(t.up_process(p, r)))
          << "UP(p" << p << ") shrank at round " << r;
    }
  }
}

// A rule that adds nothing keeps the pooled set, so the pool holds far
// fewer sets than there are (process, round) pairs.
TEST(UpTracker, UnchangedSetsKeepTheirPoolId) {
  const int n = 64;
  System sys(n, tournament_wakeup());
  const RunLog log = run_adversary(sys);
  const UpTracker t = UpTracker::over(log);
  std::size_t unchanged = 0;
  for (int r = 1; r <= t.num_rounds(); ++r) {
    for (ProcId p = 0; p < n; ++p) {
      if (t.up_process(p, r) != t.up_process(p, r - 1)) continue;
      ++unchanged;
      EXPECT_EQ(t.process_set(p, r), t.process_set(p, r - 1))
          << "p" << p << " round " << r;
    }
  }
  EXPECT_GT(unchanged, 0u);
  const std::size_t pairs =
      static_cast<std::size_t>(n) * static_cast<std::size_t>(t.num_rounds());
  EXPECT_LT(t.num_sets(), pairs / 2);
}

TEST(UpCover, AgreesWithSubsetTestForEveryProcessAndRegister) {
  const int n = 16;
  System sys(n, swap_mix_wakeup());
  const RunLog log = run_adversary(sys);
  const UpTracker t = UpTracker::over(log);
  for (const ProcSet& s : {ProcSet::of(n, {1, 4, 6, 9}), ProcSet::full(n),
                           ProcSet(n)}) {
    UpCover cover(t, s);
    for (int r = 0; r <= t.num_rounds(); ++r) {
      for (ProcId p = 0; p < n; ++p) {
        EXPECT_EQ(cover.process(p, r), t.up_process(p, r).subset_of(s))
            << "p" << p << " round " << r;
      }
      for (const RoundRecord& rec : log.rounds) {
        for (const OpRecord& op : rec.ops) {
          EXPECT_EQ(cover.reg(op.op.reg, r),
                    t.up_register(op.op.reg, r).subset_of(s))
              << "R" << op.op.reg << " round " << r;
        }
      }
    }
  }
}

}  // namespace
}  // namespace llsc
