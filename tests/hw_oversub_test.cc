// OversubscribedExecutor: M logical coroutine processes on an N-thread
// pool. Covers the determinism contract (toss streams are migration-
// safe, so an oversubscribed run reproduces the simulator's and
// HwExecutor's results bit-for-bit), the N = M shape taking no op-policy
// yields, operation exactness under every yield policy, the watchdog's
// ⌈M/N⌉-scaled stagnation window (the false-hung regression),
// ctx.yield_until's deadline heap (no early resume; same results on every
// substrate), and a TSan-facing stress leg with adaptive fault injection.
#include "hw/oversub_executor.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <memory>
#include <vector>

#include "hw/fault.h"
#include "hw/fault_scenarios.h"
#include "memory/rmw.h"
#include "runtime/system.h"
#include "sched/scheduler.h"
#include "util/rng.h"

namespace llsc {
namespace {

std::uint64_t steady_now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

OversubRunOptions pool(int num_threads, std::uint64_t seed,
                       YieldPolicy policy = YieldPolicy::kEveryOp) {
  OversubRunOptions options;
  options.num_threads = num_threads;
  options.seed = seed;
  options.yield_policy = policy;
  return options;
}

// Each process folds five bounded tosses into a value — a pure function
// of the toss assignment, so it must agree between the simulator,
// HwExecutor and every oversubscribed pool shape, whatever carrier threads the
// coroutine migrates across.
SimTask toss_sum_body(ProcCtx ctx) {
  std::uint64_t sum = 0;
  for (int k = 0; k < 5; ++k) {
    const std::uint64_t t = co_await ctx.toss(100);
    sum = sum * 101 + t;
  }
  co_return Value::of_u64(sum);
}

// `ops` fetch&add(1)s on register 0; returns the sum of the observed old
// values. Across all processes the old values are exactly {0, ..., T-1}
// (T = m * ops), so the grand total T(T-1)/2 detects any lost or
// duplicated operation.
SimTask counter_body(ProcCtx ctx, std::shared_ptr<const RmwFunction> inc,
                     int ops) {
  std::uint64_t sum = 0;
  for (int k = 0; k < ops; ++k) {
    const Value old = co_await ctx.rmw(0, inc);
    sum += old.is_nil() ? 0 : old.as_u64();
  }
  co_return Value::of_u64(sum);
}

std::shared_ptr<const RmwFunction> fetch_add1() {
  return make_rmw("fetch&add1", [](const Value& v) {
    return Value::of_u64(v.is_nil() ? 1 : v.as_u64() + 1);
  });
}

// Six LL/SC increments with a win counter — contention-free when run
// solo, so every SC succeeds.
SimTask llsc_wins_body(ProcCtx ctx) {
  std::uint64_t wins = 0;
  for (int k = 0; k < 6; ++k) {
    const Value cur = co_await ctx.ll(0);
    const std::uint64_t base = cur.is_nil() ? 0 : cur.as_u64();
    const ScResult sc = co_await ctx.sc(0, Value::of_u64(base + 1));
    if (sc.ok) ++wins;
  }
  co_return Value::of_u64(wins);
}

// Four timed sleeps of 20–160 µs, each a single yield_until with no
// re-check loop; returns how many resumed before their wake time.
SimTask early_wake_body(ProcCtx ctx) {
  std::uint64_t early = 0;
  for (int k = 0; k < 4; ++k) {
    const std::uint64_t wake =
        steady_now_ns() +
        20'000 * static_cast<std::uint64_t>(1 + (ctx.id() + k) % 8);
    co_await ctx.yield_until(wake);
    if (steady_now_ns() < wake) ++early;
  }
  co_return Value::of_u64(early);
}

// Tosses, LL/SC on the process's own register, and a toss-sized timed
// wait per round: the result is a pure function of the toss assignment,
// whether yield_until suspends (pool) or is a no-op (simulator).
SimTask timed_toss_body(ProcCtx ctx) {
  const RegId own = static_cast<RegId>(ctx.id());
  std::uint64_t sum = 0;
  for (int k = 0; k < 4; ++k) {
    const std::uint64_t t = co_await ctx.toss(100);
    const Value cur = co_await ctx.ll(own);
    const std::uint64_t base = cur.is_nil() ? 0 : cur.as_u64();
    (void)co_await ctx.sc(own, Value::of_u64(base + t));
    const std::uint64_t due = steady_now_ns() + 5'000 * (1 + t % 4);
    while (steady_now_ns() < due) {
      co_await ctx.yield_until(due);
    }
    sum = sum * 101 + t;
  }
  const Value total = co_await ctx.read(own);
  co_return Value::of_u64(sum ^ (total.as_u64() << 48));
}

std::uint64_t result_sum(const HwRunResult& run) {
  std::uint64_t sum = 0;
  for (const Value& v : run.results) {
    if (v.holds_u64()) sum += v.as_u64();
  }
  return sum;
}

TEST(HwOversubTest, CounterIsExactUnderEveryYieldPolicy) {
  const int m = 16;
  const int ops = 8;
  const std::uint64_t total = static_cast<std::uint64_t>(m) * ops;
  auto inc = fetch_add1();
  const ProcBody body = [&](ProcCtx ctx, ProcId, int) {
    return counter_body(ctx, inc, ops);
  };
  for (const YieldPolicy policy :
       {YieldPolicy::kEveryOp, YieldPolicy::kEveryK,
        YieldPolicy::kOnScFailure}) {
    OversubscribedExecutor exec(pool(2, 7, policy));
    const HwRunResult run = exec.run(m, body);
    ASSERT_TRUE(run.ok) << to_string(policy);
    EXPECT_EQ(result_sum(run), total * (total - 1) / 2)
        << to_string(policy);
    EXPECT_EQ(run.sched.num_threads, 2) << to_string(policy);
    EXPECT_EQ(run.sched.num_procs, m) << to_string(policy);
    // Every process was started (and possibly resumed) by the pool.
    EXPECT_GE(run.sched.resumes, static_cast<std::uint64_t>(m))
        << to_string(policy);
  }
}

TEST(HwOversubTest, EveryOpPolicyYieldsOncePerSharedOp) {
  // Two processes, one carrier: with kEveryOp each of the 2·ops RMWs
  // suspends its coroutine exactly once, so the scheduler counters are
  // fully deterministic.
  const int m = 2;
  const int ops = 8;
  const std::uint64_t total = static_cast<std::uint64_t>(m) * ops;
  auto inc = fetch_add1();
  const ProcBody body = [&](ProcCtx ctx, ProcId, int) {
    return counter_body(ctx, inc, ops);
  };
  OversubscribedExecutor exec(pool(1, 1, YieldPolicy::kEveryOp));
  const HwRunResult run = exec.run(m, body);
  ASSERT_TRUE(run.ok);
  EXPECT_EQ(result_sum(run), total * (total - 1) / 2);
  EXPECT_EQ(run.sched.yields, total);
  EXPECT_EQ(run.sched.resumes, total + m);
  EXPECT_EQ(run.sched.steals, 0u);
}

TEST(HwOversubTest, OnScFailurePolicyNeverYieldsWithoutContention) {
  // Two processes on one carrier: the first runs its whole body before
  // the second starts, so no SC is ever lost and the polite-loser policy
  // keeps the carrier with the running process: zero yields, one resume
  // per process.
  const int m = 2;
  const ProcBody body = [](ProcCtx ctx, ProcId, int) {
    return llsc_wins_body(ctx);
  };
  OversubscribedExecutor exec(pool(1, 1, YieldPolicy::kOnScFailure));
  const HwRunResult run = exec.run(m, body);
  ASSERT_TRUE(run.ok);
  for (ProcId p = 0; p < m; ++p) {
    const Value& wins = run.results[static_cast<std::size_t>(p)];
    ASSERT_TRUE(wins.holds_u64()) << "p=" << p;
    EXPECT_EQ(wins.as_u64(), 6u) << "p=" << p;
  }
  EXPECT_EQ(run.sched.yields, 0u);
  EXPECT_EQ(run.sched.resumes, static_cast<std::uint64_t>(m));
}

TEST(HwOversubTest, OneCarrierPerProcessTakesNoOpPolicyYields) {
  // N = M: no runnable process ever waits for a carrier, so even kEveryOp
  // never hands one back. Each process is started once and runs to
  // completion on a single carrier. HwExecutor runs are exactly this
  // shape, with N = M = n.
  const int m = 4;
  const int ops = 64;
  const std::uint64_t total = static_cast<std::uint64_t>(m) * ops;
  auto inc = fetch_add1();
  const ProcBody body = [&](ProcCtx ctx, ProcId, int) {
    return counter_body(ctx, inc, ops);
  };
  OversubscribedExecutor pooled(pool(m, 1, YieldPolicy::kEveryOp));
  HwExecutor one_per_proc;
  for (const HwRunResult& run :
       {pooled.run(m, body), one_per_proc.run(m, body)}) {
    ASSERT_TRUE(run.ok);
    EXPECT_EQ(result_sum(run), total * (total - 1) / 2);
    EXPECT_EQ(run.sched.num_threads, m);
    EXPECT_EQ(run.sched.num_procs, m);
    EXPECT_EQ(run.sched.yields, 0u);
    EXPECT_EQ(run.sched.resumes, static_cast<std::uint64_t>(m));
  }
}

TEST(HwOversubTest, TossStreamsAreMigrationSafe) {
  // Toss outcomes are pure in (seed, p, j) and each Process carries its
  // own toss counter, so the per-process results must be identical on the
  // simulator, on HwExecutor (one carrier per process) and on every pool
  // shape — and across repeated oversubscribed runs, whatever
  // interleaving the OS picks.
  const int m = 16;
  const ProcBody body = [](ProcCtx ctx, ProcId, int) {
    return toss_sum_body(ctx);
  };
  for (const std::uint64_t seed : {1ull, 2ull, 3ull, 4ull, 5ull}) {
    System sys(m, body, std::make_shared<SeededTossAssignment>(seed));
    RoundRobinScheduler sched;
    ASSERT_TRUE(sched.run(sys, 1 << 20).all_terminated);
    HwRunOptions one_to_one;
    one_to_one.seed = seed;
    HwExecutor baseline(one_to_one);
    const HwRunResult ref = baseline.run(m, body);
    ASSERT_TRUE(ref.ok);
    for (ProcId p = 0; p < m; ++p) {
      const std::size_t s = static_cast<std::size_t>(p);
      EXPECT_EQ(ref.results[s], sys.process(p).result())
          << "seed=" << seed << " p=" << p;
      EXPECT_EQ(ref.num_tosses[s], sys.process(p).num_tosses());
      EXPECT_EQ(ref.shared_ops[s], sys.process(p).shared_ops());
    }
    for (const int num_threads : {1, 2, 4}) {
      OversubscribedExecutor exec(pool(num_threads, seed));
      const HwRunResult run = exec.run(m, body);
      ASSERT_TRUE(run.ok) << "seed=" << seed << " N=" << num_threads;
      EXPECT_EQ(run.results, ref.results)
          << "seed=" << seed << " N=" << num_threads;
      EXPECT_EQ(run.num_tosses, ref.num_tosses)
          << "seed=" << seed << " N=" << num_threads;
      EXPECT_EQ(run.shared_ops, ref.shared_ops)
          << "seed=" << seed << " N=" << num_threads;
    }
    // Replay determinism: the same pool shape again, bit-for-bit.
    OversubscribedExecutor again(pool(2, seed));
    const HwRunResult replay = again.run(m, body);
    EXPECT_EQ(replay.results, ref.results) << "seed=" << seed;
  }
}

TEST(HwOversubTest, YieldUntilNeverResumesBeforeWakeTime) {
  // M = 64 sleepers on N = 2 carriers: a process leaves the run queue at
  // each yield_until and must not come back — by its own shard or by a
  // steal — before its wake time.
  const int m = 64;
  const ProcBody body = [](ProcCtx ctx, ProcId, int) {
    return early_wake_body(ctx);
  };
  OversubscribedExecutor exec(pool(2, 3));
  const HwRunResult run = exec.run(m, body);
  ASSERT_TRUE(run.ok);
  for (ProcId p = 0; p < m; ++p) {
    const Value& early = run.results[static_cast<std::size_t>(p)];
    ASSERT_TRUE(early.holds_u64()) << "p=" << p;
    EXPECT_EQ(early.as_u64(), 0u) << "early resumes of p=" << p;
  }
  // Every timed yield suspends exactly once on the pool, and the body
  // takes no shared ops, so the count is exact.
  EXPECT_EQ(run.sched.yields, static_cast<std::uint64_t>(m) * 4);
}

TEST(HwOversubTest, YieldUntilResultsMatchAcrossSubstrates) {
  // The timed yield is not a step of the model: the simulator, HwExecutor
  // and every pool shape must agree on results, toss counts and
  // shared-op counts, bit for bit.
  const int m = 16;
  const ProcBody body = [](ProcCtx ctx, ProcId, int) {
    return timed_toss_body(ctx);
  };
  for (const std::uint64_t seed : {1ull, 2ull, 3ull}) {
    System sys(m, body, std::make_shared<SeededTossAssignment>(seed));
    RoundRobinScheduler sched;
    ASSERT_TRUE(sched.run(sys, 1 << 20).all_terminated);
    HwRunOptions one_to_one;
    one_to_one.seed = seed;
    HwExecutor baseline(one_to_one);
    const HwRunResult ref = baseline.run(m, body);
    ASSERT_TRUE(ref.ok);
    for (ProcId p = 0; p < m; ++p) {
      const std::size_t s = static_cast<std::size_t>(p);
      EXPECT_EQ(ref.results[s], sys.process(p).result())
          << "seed=" << seed << " p=" << p;
      EXPECT_EQ(ref.num_tosses[s], sys.process(p).num_tosses());
      EXPECT_EQ(ref.shared_ops[s], sys.process(p).shared_ops());
    }
    for (const int num_threads : {1, 2, 4}) {
      OversubscribedExecutor exec(pool(num_threads, seed));
      const HwRunResult run = exec.run(m, body);
      ASSERT_TRUE(run.ok) << "seed=" << seed << " N=" << num_threads;
      EXPECT_EQ(run.results, ref.results)
          << "seed=" << seed << " N=" << num_threads;
      EXPECT_EQ(run.num_tosses, ref.num_tosses)
          << "seed=" << seed << " N=" << num_threads;
      EXPECT_EQ(run.shared_ops, ref.shared_ops)
          << "seed=" << seed << " N=" << num_threads;
    }
  }
}

TEST(HwOversubTest, WatchdogScalesStagnationWindowWithOversubFactor) {
  // The false-hung regression: M = 32 logical processes share N = 2
  // carriers, and every op stalls 8 ms, so the pool's global progress
  // counter can sit still for ~one whole stall — longer than the raw
  // 5 ms stagnation window. The watchdog must scale the window by
  // ⌈M/N⌉ = 16 (run_support.h) or this perfectly healthy run is
  // cancelled as hung.
  const int m = 32;
  const int ops = 3;
  auto inc = fetch_add1();
  const ProcBody body = [&](ProcCtx ctx, ProcId, int) {
    return counter_body(ctx, inc, ops);
  };
  FaultPlan plan;
  plan.seed = 11;
  plan.stall_rate = 1.0;
  plan.max_stall_units = 1;
  plan.stall_unit_ns = 8'000'000;  // 8 ms per op
  OversubRunOptions options = pool(2, 11);
  options.fault = &plan;
  options.progress_timeout_ms = scale_timeout_ms(5);
  options.timeout_ms = scale_timeout_ms(30'000);  // backstop only
  OversubscribedExecutor exec(options);
  const HwRunResult run = exec.run(m, body);
  EXPECT_FALSE(run.cancelled);
  ASSERT_TRUE(run.ok);
  const std::uint64_t total = static_cast<std::uint64_t>(m) * ops;
  EXPECT_EQ(result_sum(run), total * (total - 1) / 2);
}

TEST(HwOversubTest, AdaptiveFaultStressIsExactUnderOversubscription) {
  // The TSan-facing stress leg: M = 64 processes on 4 carriers running
  // the contended fixed LL/SC scenario while an adaptive adversary
  // spends a fault budget on the observed history. The fixed op stream
  // means forced SC failures never add retries, so the run must stay
  // clean and fully accounted whatever the interleaving.
  const int m = 64;
  const ProcBody body = fault_scenario("fixed_ll_sc");
  FaultPlan plan;
  plan.seed = 23;
  plan.strategy = FaultStrategyKind::kAdaptive;
  plan.fault_budget = 16;
  OversubRunOptions options = pool(4, 23);
  options.fault = &plan;
  OversubscribedExecutor exec(options);
  const HwRunResult run = exec.run(m, body);
  ASSERT_TRUE(run.ok);
  ASSERT_EQ(static_cast<int>(run.proc_status.size()), m);
  for (ProcId p = 0; p < m; ++p) {
    EXPECT_EQ(run.proc_status[static_cast<std::size_t>(p)],
              HwProcOutcome::kDone);
    EXPECT_GT(run.shared_ops[static_cast<std::size_t>(p)], 0u);
  }
  EXPECT_LE(run.fault.injected_sc_failures, plan.fault_budget);
  EXPECT_GE(run.sched.resumes, static_cast<std::uint64_t>(m));
}

}  // namespace
}  // namespace llsc
