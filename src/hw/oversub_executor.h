// OversubscribedExecutor — M logical processes on an N-thread pool.
//
// This is the one real-thread run loop: HwExecutor::run is this run with
// N = n, and an oversubscribed run (M > N) lifts hw-substrate scenarios
// past the core count, where the paper's Ω(log n) curve (and the
// follow-up bounds in PAPERS.md) separates from its competitors. The
// executor multiplexes M coroutine processes onto N carrier threads by
// reusing the runtime's awaitable suspension points as yield points:
// each co_awaited shared-memory op still executes inline against
// HwMemory (the platform stays synchronous), but afterwards — under the
// configured YieldPolicy, and only while N < M — the coroutine parks its
// handle on a per-worker run-queue shard instead of monopolizing the
// thread. With N = M (after the min(N, M) clamp) every process has a
// carrier of its own, no runnable process waits for one, and the policy
// is not consulted: bodies run on their carriers until they finish or
// take an explicit ctx.yield() / ctx.yield_until(). Workers pop their
// own shard FIFO, steal from siblings when dry, and fall back to the
// adaptive+parking Backoff (hw/backoff.h) on the executor's idle
// ParkSpot when the whole pool runs dry — the same fixed
// register-in-waiters → re-check protocol the register spots use, with
// the work-epoch counter as the re-checked word.
//
// Timed sleep: ctx.yield_until(t) takes the process off the FIFO into its
// shard's deadline heap (a min-heap of wake time, under the shard mutex).
// Every pop first moves the shard's due sleepers onto the FIFO, and a
// steal drains the victim's due sleepers the same way, so no process is
// resumed before its wake time and none waits longer than one scan past
// it. While any sleeper is pending an idle worker spins (`pause`) instead
// of parking — the carrier that put a process to sleep therefore stays
// awake to wake it — and it parks on the 1 ms-timeout idle spot only once
// no sleepers are left. A plain ctx.yield() still goes straight back on
// the FIFO.
//
// Determinism contract (what makes hw_fault_diff_test replay bit-for-bit
// on every pool shape):
//   * tosses — SeededTossAssignment outcomes are pure in (seed, p, j) and
//     each Process carries its own toss counter, so a coroutine observes
//     the identical toss stream no matter which carrier thread resumes
//     it (toss migration safety);
//   * faults — FaultInjector decisions are pure in (plan seed, p,
//     op-index) or replayed from a DecisionTrace keyed the same way;
//   * memory — HwMemory is constructed with M per-process contexts
//     (links, epochs, backoff state are per ProcId, not per thread), and
//     a coroutine's steps are serialized by the run queue: the shard
//     mutex handoff is the happens-before edge between consecutive
//     carrier threads of one process.
//
// The watchdog (hw/run_support.h) tracks progress per LOGICAL process
// and scales its stagnation window by ⌈M/N⌉, so a correctly parked
// coroutine — runnable, just unscheduled — is not misread as hung; a
// sleeper whose wake time is still ahead counts as waiting, not wedged.
#ifndef LLSC_HW_OVERSUB_EXECUTOR_H_
#define LLSC_HW_OVERSUB_EXECUTOR_H_

#include <cstdint>

#include "hw/hw_executor.h"

namespace llsc {

// When does a coroutine give its carrier thread back to the scheduler?
// Consulted only while the pool has fewer carriers than processes.
enum class YieldPolicy : int {
  // After every shared-memory op: maximal interleaving, the scheduler
  // round-robins runnable processes at op granularity. The default, and
  // what service-mode latency runs want.
  kEveryOp = 0,
  // After every k-th shared-memory op of a process: amortizes scheduling
  // cost when ops are cheap and fairness at op granularity is overkill.
  kEveryK = 1,
  // Only after a FAILED SC: a process losing its register races is the
  // one burning its timeslice; winners keep their thread. The polite-
  // loser discipline of flat combining, at the scheduler level.
  kOnScFailure = 2,
};

const char* to_string(YieldPolicy policy);

struct OversubRunOptions : HwRunOptions {
  // Carrier threads (N). 0 = std::thread::hardware_concurrency().
  int num_threads = 0;
  YieldPolicy yield_policy = YieldPolicy::kEveryOp;
  // kEveryK's k; clamped to >= 1.
  std::uint32_t yield_every_k = 8;
};

class OversubscribedExecutor {
 public:
  explicit OversubscribedExecutor(OversubRunOptions options = {});

  // Runs body(ctx, i, m) for i in [0, m) — M logical processes scheduled
  // over the option's N carrier threads against a fresh HwMemory with M
  // per-process contexts. Returns the result with n = m and populated
  // HwSchedStats. Exceptions
  // thrown by a body are re-thrown on the calling thread after the pool
  // joins. ctx.yield() and ctx.yield_until() suspend here (and only
  // here).
  HwRunResult run(int m, const ProcBody& body);

  const OversubRunOptions& options() const { return options_; }

 private:
  OversubRunOptions options_;
};

}  // namespace llsc

#endif  // LLSC_HW_OVERSUB_EXECUTOR_H_
