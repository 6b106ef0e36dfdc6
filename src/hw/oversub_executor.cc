#include "hw/oversub_executor.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <deque>
#include <exception>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "hw/platform.h"
#include "hw/run_support.h"
#include "util/check.h"

namespace llsc {

namespace {

using hw_internal::CancelledSignal;
using hw_internal::Clock;
using hw_internal::CrashStopSignal;
using hw_internal::RunMonitor;
using hw_internal::Watchdog;

// The pool's Platform over HwMemory. Every shared-memory op and toss
// passes a cancellation checkpoint and ticks the monitor's progress
// counter, and (when a plan is installed) runs behind the fault injector.
// Worker bodies therefore observe watchdog cancellation and crash-stops as
// exceptions at step boundaries — a body that loops without ever taking a
// step cannot be cancelled (nothing can preempt a native thread), which is
// why tests keep a ctest-level timeout as backstop.
//
// After an op executed inline, the yield policy decides whether the
// coroutine gives its carrier thread back. With a carrier for every
// process (N = M) no runnable process ever waits for a thread, so the
// policy is never consulted; explicit ctx.yield() / ctx.yield_until() are
// honoured either way. wake_ns_ is indexed by ProcId and only ever
// touched from the carrier thread currently running that process (a
// process's steps are serialized by the run queue), so plain integers
// suffice. Every carrier reads the platform on every op, so it gets cache
// lines of its own: sharing one with SchedState's atomics (written on
// every push) cost the saturated service run ~15% per request.
class alignas(kCacheLineBytes) OversubPlatform final : public Platform {
 public:
  OversubPlatform(HwMemory* memory,
                  std::shared_ptr<const TossAssignment> tosses,
                  FaultInjector* injector, RunMonitor* monitor,
                  std::uint32_t stall_unit_ns, YieldPolicy policy, int m,
                  int num_threads)
      : memory_(memory),
        tosses_(std::move(tosses)),
        injector_(injector),
        monitor_(monitor),
        stall_unit_ns_(stall_unit_ns),
        policy_(policy),
        carrier_waits_(num_threads < m),
        wake_ns_(static_cast<std::size_t>(m), 0) {}

  bool synchronous() const override { return true; }

  OpResult apply(ProcId p, const PendingOp& op) override {
    monitor_->check_cancel(p);
    OpResult result;
    if (injector_ != nullptr) {
      if (injector_->crash_pending(p)) {
        injector_->note_crash(p);
        RecoverySpec rspec;
        if (injector_->recovery_spec(p, &rspec) && !rspec.amnesia) {
          // Pause-and-resume recovery needs no frame teardown: consume
          // the crash, serve the delay in place, and fall through to the
          // op the process was about to take. Amnesiac recovery must
          // unwind the coroutine, so it throws to the worker loop.
          const std::uint32_t units = injector_->note_recovery(p);
          recovery_wait(p, units);
        } else {
          throw CrashStopSignal{};
        }
      }
      result = injector_->apply(
          p, op, [&](const PendingOp& o) { return memory_->apply(p, o); },
          [&](std::uint32_t units) { stall(p, units); });
    } else {
      result = memory_->apply(p, op);
    }
    monitor_->note_step(p);
    return result;
  }

  std::uint64_t toss(ProcId p, std::uint64_t j) override {
    monitor_->check_cancel(p);
    monitor_->note_step(p);
    return tosses_->outcome(p, j);
  }

  std::string name() const override { return "hw"; }

  bool yield_after_op(const PendingOp& op, const OpResult& result) override {
    if (!carrier_waits_) return false;
    switch (policy_) {
      case YieldPolicy::kEveryOp:
        return true;
      case YieldPolicy::kOnScFailure:
        return op.kind == OpKind::kSC && !result.flag;
    }
    return false;
  }

  bool yield_now(ProcId p, std::uint64_t not_before_ns) override {
    wake_ns_[static_cast<std::size_t>(p)] = not_before_ns;
    return true;
  }

  // The not-before time of p's latest explicit yield (0 = none, or a plain
  // ctx.yield()); reading it clears it, so an op-policy yield that follows
  // never inherits a stale deadline. Neighbouring slots belong to
  // processes on other carriers, so the common 0 case only reads.
  std::uint64_t take_wake_ns(ProcId p) {
    std::uint64_t& wake = wake_ns_[static_cast<std::size_t>(p)];
    return wake == 0 ? 0 : std::exchange(wake, 0);
  }

  // Serve p's recovery delay: like stall(), but each unit also ticks the
  // monitor's recovery_waits so the watchdog sees the wait as progress.
  // The worker loop serves the delay for the amnesiac (thrown) path before
  // respawning the coroutine. A cancel during the wait still throws
  // CancelledSignal — a watchdog-cancelled recovery reads as kHung, not as
  // a clean restart.
  void recovery_wait(ProcId p, std::uint32_t units) {
    for (std::uint32_t u = 0; u < units; ++u) {
      monitor_->check_cancel(p);
      monitor_->note_recovery_wait(p);
      std::this_thread::sleep_for(std::chrono::nanoseconds(stall_unit_ns_));
    }
  }

 private:
  // Injected delay: sleep unit by unit with a cancellation checkpoint per
  // unit, so a stalled worker still honours the watchdog promptly.
  void stall(ProcId p, std::uint32_t units) {
    for (std::uint32_t u = 0; u < units; ++u) {
      monitor_->check_cancel(p);
      std::this_thread::sleep_for(std::chrono::nanoseconds(stall_unit_ns_));
    }
  }

  HwMemory* memory_;
  std::shared_ptr<const TossAssignment> tosses_;
  FaultInjector* injector_;
  RunMonitor* monitor_;
  std::uint32_t stall_unit_ns_;
  YieldPolicy policy_;
  bool carrier_waits_;  // N < M: some runnable process lacks a carrier
  std::vector<std::uint64_t> wake_ns_;
};

// A process asleep in ctx.yield_until, keyed by its wake time.
struct Sleeper {
  std::uint64_t wake_ns;
  Process* proc;
  // std::push_heap/pop_heap build a max-heap; invert for earliest-first.
  bool operator<(const Sleeper& o) const { return wake_ns > o.wake_ns; }
};

// One run-queue shard per carrier thread. A worker pops its own shard
// from the front (FIFO keeps arrival order, which keeps service-mode
// latencies honest) and steals from a sibling's back when dry. Sleepers
// wait in the shard's deadline heap, off the FIFO, until they are due.
struct alignas(64) Shard {
  std::mutex mu;
  std::deque<Process*> q;
  std::vector<Sleeper> sleepers;  // min-heap on wake_ns
};

// Pool-wide scheduler state. The idle protocol is the ParkSpot protocol
// (hw/backoff.h): every push bumps work_epoch and wakes registered
// waiters; an idle worker snapshots the epoch BEFORE its scan and hands
// the (word, snapshot) pair to Backoff::on_failure, whose post-register
// re-check closes the push-after-scan/park-before-wake window. Aligned
// for the same reason as OversubPlatform.
struct alignas(kCacheLineBytes) SchedState {
  SchedState(int num_threads, Waiter* waiter)
      : shards(static_cast<std::size_t>(num_threads)), waiter(waiter) {}

  void push(int shard_idx, Process* proc) {
    {
      Shard& s = shards[static_cast<std::size_t>(shard_idx)];
      std::lock_guard<std::mutex> lock(s.mu);
      s.q.push_back(proc);
    }
    work_epoch.fetch_add(1, std::memory_order_seq_cst);
    if (idle_spot.waiters.load(std::memory_order_seq_cst) != 0) {
      idle_spot.seq.fetch_add(1, std::memory_order_seq_cst);
      waiter->wake_all(idle_spot.seq);
    }
  }

  // Take proc off the run queue until steady time wake_ns. No wake-up is
  // owed to idle workers: the carrier calling this sees pending_sleepers
  // > 0 and stays awake (spinning) until the sleeper is due.
  void sleep(int shard_idx, Process* proc, std::uint64_t wake_ns) {
    Shard& s = shards[static_cast<std::size_t>(shard_idx)];
    std::lock_guard<std::mutex> lock(s.mu);
    s.sleepers.push_back(Sleeper{wake_ns, proc});
    std::push_heap(s.sleepers.begin(), s.sleepers.end());
    pending_sleepers.fetch_add(1, std::memory_order_relaxed);
  }

  // Termination / cancellation: wake every idle worker unconditionally.
  void broadcast() {
    work_epoch.fetch_add(1, std::memory_order_seq_cst);
    idle_spot.seq.fetch_add(1, std::memory_order_seq_cst);
    waiter->wake_all(idle_spot.seq);
  }

  // Own shard first, then siblings; each shard moves its due sleepers
  // onto its FIFO before it is looked at. The clock is read only while
  // some process sleeps, so runs without sleepers pay nothing for the
  // heap.
  Process* pop(int w, std::uint64_t* steals) {
    const std::uint64_t now_ns =
        pending_sleepers.load(std::memory_order_relaxed) != 0
            ? hw_internal::steady_now_ns()
            : 0;
    {
      Shard& own = shards[static_cast<std::size_t>(w)];
      std::lock_guard<std::mutex> lock(own.mu);
      wake_due(own, now_ns);
      if (!own.q.empty()) {
        Process* proc = own.q.front();
        own.q.pop_front();
        return proc;
      }
    }
    const int n = static_cast<int>(shards.size());
    for (int d = 1; d < n; ++d) {
      Shard& victim = shards[static_cast<std::size_t>((w + d) % n)];
      std::lock_guard<std::mutex> lock(victim.mu);
      wake_due(victim, now_ns);
      if (!victim.q.empty()) {
        Process* proc = victim.q.back();
        victim.q.pop_back();
        ++*steals;
        return proc;
      }
    }
    return nullptr;
  }

  // Move every sleeper of s due at now_ns onto its FIFO, earliest first.
  // Caller holds s.mu; now_ns == 0 means nobody sleeps.
  void wake_due(Shard& s, std::uint64_t now_ns) {
    int moved = 0;
    while (!s.sleepers.empty() && s.sleepers.front().wake_ns <= now_ns) {
      std::pop_heap(s.sleepers.begin(), s.sleepers.end());
      s.q.push_back(s.sleepers.back().proc);
      s.sleepers.pop_back();
      ++moved;
    }
    if (moved > 0) {
      pending_sleepers.fetch_sub(moved, std::memory_order_relaxed);
    }
  }

  std::vector<Shard> shards;
  Waiter* waiter;
  std::atomic<std::uint64_t> work_epoch{0};
  ParkSpot idle_spot;
  std::atomic<int> remaining{0};
  // Processes in some shard's deadline heap. While it is nonzero an idle
  // worker spins instead of parking, so a due sleeper is resumed within a
  // scan, not a park timeout.
  std::atomic<int> pending_sleepers{0};
};

}  // namespace

const char* to_string(YieldPolicy policy) {
  switch (policy) {
    case YieldPolicy::kEveryOp:
      return "every-op";
    case YieldPolicy::kOnScFailure:
      return "on-sc-failure";
  }
  LLSC_UNREACHABLE("bad YieldPolicy");
}

OversubscribedExecutor::OversubscribedExecutor(OversubRunOptions options)
    : options_(std::move(options)) {}

HwRunResult OversubscribedExecutor::run(int m, const ProcBody& body) {
  LLSC_EXPECTS(m >= 1, "an execution needs at least one process");
  int num_threads = options_.num_threads > 0
                        ? options_.num_threads
                        : static_cast<int>(std::thread::hardware_concurrency());
  if (num_threads < 1) num_threads = 1;
  // More carriers than processes is pure overhead: the extras would only
  // ever spin on empty shards.
  num_threads = std::min(num_threads, m);

  // M per-process contexts: links and backoff state are keyed by ProcId,
  // which is what makes a coroutine's migration between carrier threads
  // invisible to the memory (see the header's contract). Reclamation slots
  // follow the policy: epochs keep one slot per logical process (the
  // pre-seam layout), hazard pointers get one slot per carrier thread —
  // N hazard words instead of M — bound below via CarrierBinding. That is
  // sound because no protection spans a yield: operations bracket their
  // protections internally, and coroutines yield only between operations.
  const bool carrier_slots =
      options_.reclaimer == ReclaimPolicy::kHazard;
  HwMemory memory(options_.num_registers, m, options_.backoff,
                  options_.storage, options_.reclaimer,
                  carrier_slots ? num_threads : 0);
  if (!options_.register_groups.empty()) {
    memory.set_register_groups(options_.register_groups);
  }
  std::shared_ptr<const TossAssignment> tosses = options_.tosses;
  if (!tosses) {
    tosses = std::make_shared<SeededTossAssignment>(options_.seed);
  }
  const bool inject =
      options_.fault != nullptr && options_.fault->enabled();
  std::optional<FaultInjector> injector;
  if (inject) injector.emplace(*options_.fault, m);
  RunMonitor monitor(m);
  OversubPlatform platform(
      &memory, tosses, injector ? &*injector : nullptr, &monitor,
      inject ? options_.fault->stall_unit_ns : 0, options_.yield_policy, m,
      num_threads);

  std::vector<std::unique_ptr<Process>> procs;
  procs.reserve(static_cast<std::size_t>(m));
  for (ProcId i = 0; i < m; ++i) {
    auto proc = std::make_unique<Process>(i, m);
    proc->set_platform(&platform);
    proc->attach(body(ProcCtx(proc.get()), i, m));
    procs.push_back(std::move(proc));
  }

  std::vector<std::exception_ptr> errors(static_cast<std::size_t>(m));
  std::vector<HwProcOutcome> outcome(static_cast<std::size_t>(m),
                                     HwProcOutcome::kDone);

  Waiter* waiter = options_.backoff.waiter != nullptr
                       ? options_.backoff.waiter
                       : &Waiter::system();
  SchedState sched(num_threads, waiter);
  sched.remaining.store(m, std::memory_order_relaxed);
  // Initial placement p mod N, filled before any worker exists — no
  // signals needed yet.
  for (ProcId i = 0; i < m; ++i) {
    sched.shards[static_cast<std::size_t>(i % num_threads)].q.push_back(
        procs[static_cast<std::size_t>(i)].get());
  }

  // Idle-worker backoff: adaptive, and parking on the idle spot (that is
  // the point of a pool), whatever the memory-side policy is; the waiter
  // comes from the run's options so tests can stub it.
  BackoffOptions idle_options;
  idle_options.policy = BackoffPolicy::kAdaptive;
  idle_options.waiter = waiter;

  std::mutex stats_mutex;
  HwSchedStats sched_stats;
  sched_stats.num_threads = num_threads;
  sched_stats.num_procs = m;

  const auto worker_fn = [&](int w) {
    // Under a carrier-slot reclaimer (hazard pointers), every protection
    // this worker's coroutines take is charged to slot w for the worker's
    // lifetime — protections are per-operation, so nothing leaks across a
    // migration. The binding is a thread_local and unwinds on exit.
    std::optional<Reclaimer::CarrierBinding> reclaim_binding;
    if (memory.reclaimer().carrier_slots()) {
      reclaim_binding.emplace(memory.reclaimer(), w);
    }
    Backoff idle(idle_options);
    std::uint64_t resumes = 0;
    std::uint64_t yields = 0;
    std::uint64_t steals = 0;
    for (;;) {
      if (sched.remaining.load(std::memory_order_acquire) == 0) break;
      if (monitor.cancel.load(std::memory_order_relaxed)) break;
      // Epoch snapshot precedes the scan: a push landing mid-scan moves
      // the epoch, and the park's re-check sees it.
      const std::uint64_t epoch =
          sched.work_epoch.load(std::memory_order_seq_cst);
      Process* proc = sched.pop(w, &steals);
      if (proc == nullptr) {
        if (sched.pending_sleepers.load(std::memory_order_relaxed) != 0) {
          Backoff::cpu_relax();
        } else {
          idle.on_failure(&sched.idle_spot, &sched.work_epoch, epoch);
        }
        continue;
      }
      idle.on_success();
      const ProcId pid = proc->id();
      const std::size_t s = static_cast<std::size_t>(pid);
      monitor.note_sched(pid);
      ++resumes;
      bool finished = false;
      try {
        if (proc->step_kind() == StepKind::kNotStarted) {
          proc->start();
        } else {
          proc->resume_yielded();
        }
        if (proc->step_kind() == StepKind::kYielded) {
          ++yields;
          // Locality: back on this worker's shard — its FIFO, or its
          // deadline heap for a ctx.yield_until.
          const std::uint64_t wake_ns = platform.take_wake_ns(pid);
          if (wake_ns != 0) {
            monitor.note_sleep(pid, wake_ns);
            sched.sleep(w, proc, wake_ns);
          } else {
            sched.push(w, proc);
          }
        } else {
          finished = true;
        }
      } catch (const CrashStopSignal&) {
        // Only amnesiac (or unrecoverable) crashes unwind to here — a
        // pause-and-resume recovery is served inline by the platform. If
        // the plan owes this process a restart, serve the rejoin delay on
        // this carrier, drop the dead incarnation's reservations, respawn
        // the coroutine, and re-queue it on this worker's shard; it is
        // neither finished (remaining stays put) nor hung.
        bool restarted = false;
        RecoverySpec rspec;
        if (injector && injector->recovery_spec(pid, &rspec)) {
          const std::uint32_t units = injector->note_recovery(pid);
          try {
            platform.recovery_wait(pid, units);
            memory.invalidate_links(pid);
            monitor.note_restart(pid);
            proc->restart(body);
            sched.push(w, proc);
            restarted = true;
          } catch (const CancelledSignal&) {
            outcome[s] = HwProcOutcome::kHung;
          }
        } else {
          outcome[s] = HwProcOutcome::kCrashed;
        }
        finished = !restarted;
      } catch (const CancelledSignal&) {
        outcome[s] = HwProcOutcome::kHung;
        finished = true;
      } catch (...) {
        errors[s] = std::current_exception();
        outcome[s] = HwProcOutcome::kHung;
        // A failed body must not leave its peers running toward a result
        // the rethrow below will discard.
        monitor.cancel.store(true, std::memory_order_relaxed);
        finished = true;
      }
      if (finished) {
        monitor.progress[s].finished.store(true, std::memory_order_release);
        if (sched.remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
          sched.broadcast();  // the last finisher wakes every idle worker
        }
      }
    }
    // Cancellation path: hasten peers that are riding out a park timeout.
    sched.broadcast();
    const BackoffStats& b = idle.stats();
    std::lock_guard<std::mutex> lock(stats_mutex);
    sched_stats.resumes += resumes;
    sched_stats.yields += yields;
    sched_stats.steals += steals;
    sched_stats.idle_parks += b.parks;
    sched_stats.idle_park_skips += b.park_skips;
  };

  // Start gate: workers check in on `ready` and hold on `gate` so the
  // wall clock starts when every carrier is poised at its first
  // instruction rather than at spawn time. The gate has an abort value
  // (-1): if spawning carrier w fails, carriers 0..w-1 are released and
  // joined instead of wedging.
  std::atomic<int> ready{0};
  std::atomic<int> gate{0};  // 0 = hold, 1 = run, -1 = abort
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(num_threads));
  const auto join_all = [&] {
    for (auto& t : threads) {
      if (t.joinable()) t.join();
    }
  };
  try {
    for (int w = 0; w < num_threads; ++w) {
      threads.emplace_back([&, w] {
        ready.fetch_add(1, std::memory_order_release);
        ready.notify_one();
        gate.wait(0, std::memory_order_acquire);
        if (gate.load(std::memory_order_acquire) < 0) return;
        worker_fn(w);
      });
    }
  } catch (...) {
    gate.store(-1, std::memory_order_release);
    gate.notify_all();
    join_all();
    throw;
  }
  for (int seen = ready.load(std::memory_order_acquire); seen < num_threads;
       seen = ready.load(std::memory_order_acquire)) {
    ready.wait(seen, std::memory_order_acquire);
  }
  // The clock starts just before the release (not after the join: on a
  // single-core host the OS may run a worker to completion before this
  // thread is rescheduled, which would shrink the measured window).
  const Clock::time_point t0 = Clock::now();
  gate.store(1, std::memory_order_release);
  gate.notify_all();

  Watchdog watchdog(
      &monitor,
      Watchdog::Config{
          .deadline_ms = options_.timeout_ms ? *options_.timeout_ms
                                             : default_hw_timeout_ms(),
          .progress_timeout_ms = options_.progress_timeout_ms,
          .poll_ms = options_.watchdog_poll_ms,
          .oversub_factor = static_cast<std::uint64_t>(
              (m + num_threads - 1) / num_threads)},
      t0);

  join_all();
  const Clock::time_point t1 = Clock::now();
  watchdog.stop();
  for (auto& e : errors) {
    if (e) std::rethrow_exception(e);
  }

  HwRunResult out;
  out.n = m;
  out.wall_seconds = std::chrono::duration<double>(t1 - t0).count();
  out.cancelled = monitor.cancel.load(std::memory_order_relaxed);
  out.proc_status = outcome;
  out.results.resize(static_cast<std::size_t>(m));
  out.shared_ops.reserve(static_cast<std::size_t>(m));
  out.num_tosses.reserve(static_cast<std::size_t>(m));
  for (ProcId i = 0; i < m; ++i) {
    const auto& proc = procs[static_cast<std::size_t>(i)];
    const std::size_t s = static_cast<std::size_t>(i);
    if (outcome[s] == HwProcOutcome::kCrashed) {
      ++out.crashed_procs;
    } else if (outcome[s] == HwProcOutcome::kDone && proc->done()) {
      out.results[s] = proc->result();
    } else {
      // Includes coroutines still parked on a shard when the run was
      // cancelled: they are never resumed (destroying a suspended frame
      // is fine) and report as hung.
      out.proc_status[s] = HwProcOutcome::kHung;
      ++out.hung_procs;
    }
    out.shared_ops.push_back(proc->shared_ops());
    out.num_tosses.push_back(proc->num_tosses());
    out.max_shared_ops = std::max(out.max_shared_ops, proc->shared_ops());
    out.total_shared_ops += proc->shared_ops();
  }
  out.status = out.crashed_procs > 0
                   ? RunStatus::kCrashed
                   : (out.hung_procs > 0 ? RunStatus::kHung
                                         : RunStatus::kClean);
  out.ok = out.status == RunStatus::kClean;
  // Without a fault plan or a watchdog firing, anything short of full
  // completion is an executor bug.
  LLSC_CHECK(out.ok || inject || out.cancelled,
             "a process failed to run to completion on the pool");
  out.reclaim = memory.reclaim_stats();
  out.backoff = memory.backoff_stats();
  out.width = memory.width_stats();
  if (injector) {
    out.fault = injector->stats();
    out.decision_trace = injector->trace();
  }
  out.sched = sched_stats;
  return out;
}

}  // namespace llsc
