// Run plumbing for the real-thread run loop (hw/oversub_executor.h),
// which both HwExecutor and OversubscribedExecutor runs go through: the
// signals that unwind a worker's coroutine stack, the per-logical-process
// progress monitor the watchdog reads, and the watchdog thread itself.
//
// The monitor tracks progress per LOGICAL PROCESS (indexed by ProcId),
// not per carrier thread — under oversubscription a correctly parked
// coroutine owns no thread, and a per-thread view would misread M-N
// runnable-but-unscheduled processes as a wedged run. The watchdog's
// stagnation window scales by ⌈M/N⌉ for the same reason: one logical
// process legitimately waits ~M/N scheduling quanta between its own
// steps, so a window tuned for one carrier per process fires spuriously
// at 16:1. (Callers still apply LLSC_TIMEOUT_SCALE via scale_timeout_ms
// when arming tight windows; the two factors compose.)
//
// Everything here is an implementation detail of the executor — tests
// and benches should not include this header.
#ifndef LLSC_HW_RUN_SUPPORT_H_
#define LLSC_HW_RUN_SUPPORT_H_

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>
#include <vector>

#include "memory/op.h"

namespace llsc {
namespace hw_internal {

using Clock = std::chrono::steady_clock;

// A steady-clock time as nanoseconds since the clock's epoch — the unit of
// ProcCtx::yield_until deadlines.
inline std::uint64_t steady_ns(Clock::time_point t) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          t.time_since_epoch())
          .count());
}
inline std::uint64_t steady_now_ns() { return steady_ns(Clock::now()); }

// Thrown out of the monitored platform to unwind a worker's coroutine
// stack; caught by the executor's worker loop and turned into a per-
// process outcome. These never escape an executor's run().
struct CrashStopSignal {};
struct CancelledSignal {};

// Per-logical-process progress state, padded so the watchdog's reads
// don't share lines with the workers' increments. Incarnations and
// recovery waits feed the watchdog's stagnation signature alongside raw
// steps: a process serving its recovery delay takes no shared steps, and
// a freshly restarted one may re-execute the same step count — neither
// must read as a wedged run, and neither must count double as progress
// (the signature sums all three, so each restart/wait-unit moves it
// exactly once). A process asleep in ctx.yield_until takes no steps at
// all until its wake time; sleep_until_ns records that time, and while it
// lies in the future the watchdog reads the run as waiting, not wedged.
struct alignas(64) WorkerProgress {
  std::atomic<std::uint64_t> steps{0};
  std::atomic<std::uint32_t> incarnations{0};
  std::atomic<std::uint64_t> recovery_waits{0};
  std::atomic<std::uint64_t> sleep_until_ns{0};
  std::atomic<bool> finished{false};
};

// Shared run monitor: the cancel flag every worker polls at each shared
// step, plus the per-process progress counters the watchdog watches.
struct RunMonitor {
  explicit RunMonitor(int m) : progress(static_cast<std::size_t>(m)) {}

  void check_cancel(ProcId p) const {
    if (cancel.load(std::memory_order_relaxed)) {
      (void)p;
      throw CancelledSignal{};
    }
  }
  void note_step(ProcId p) {
    progress[static_cast<std::size_t>(p)].steps.fetch_add(
        1, std::memory_order_relaxed);
  }
  // A scheduling edge (resume / cooperative yield on the pool) counts as
  // progress too: an open-loop service body waiting for its arrival time
  // yields in a loop without taking shared steps, and must not read as
  // stagnant while the scheduler is cycling it.
  void note_sched(ProcId p) { note_step(p); }
  // A crash-recovery restart of p (new incarnation about to run).
  void note_restart(ProcId p) {
    progress[static_cast<std::size_t>(p)].incarnations.fetch_add(
        1, std::memory_order_relaxed);
  }
  // One served unit of p's recovery delay.
  void note_recovery_wait(ProcId p) {
    progress[static_cast<std::size_t>(p)].recovery_waits.fetch_add(
        1, std::memory_order_relaxed);
  }
  // p left the run queue until steady time wake_ns (ctx.yield_until).
  void note_sleep(ProcId p, std::uint64_t wake_ns) {
    progress[static_cast<std::size_t>(p)].sleep_until_ns.store(
        wake_ns, std::memory_order_relaxed);
  }

  std::atomic<bool> cancel{false};
  std::vector<WorkerProgress> progress;
};

// Watchdog armed over one run: polls the wall-clock deadline and the
// per-process progress counters, and flips the monitor's cancel flag when
// the run is out of budget or wedged. Construct after the start gate
// opens (t0 = the moment the clock starts); stop() after the workers
// join. Unarmed configs (both windows 0) spawn no thread.
class Watchdog {
 public:
  struct Config {
    std::uint64_t deadline_ms = 0;          // 0 = no deadline
    std::uint64_t progress_timeout_ms = 0;  // 0 = no stagnation check
    std::uint64_t poll_ms = 5;
    // ⌈M/N⌉ — logical processes per carrier thread, 1 when every
    // process has its own carrier. Multiplies progress_timeout_ms, NOT deadline_ms: the
    // run-wide wall budget is a caller promise independent of how the
    // work is scheduled.
    std::uint64_t oversub_factor = 1;
  };

  Watchdog(RunMonitor* monitor, const Config& config, Clock::time_point t0)
      : monitor_(monitor), config_(config), t0_(t0) {
    if (config_.oversub_factor == 0) config_.oversub_factor = 1;
    if (config_.deadline_ms > 0 || config_.progress_timeout_ms > 0) {
      thread_ = std::thread([this] { loop(); });
    }
  }
  ~Watchdog() { stop(); }
  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

  // Signal run completion and join the poll thread. Idempotent.
  void stop() {
    if (!thread_.joinable()) return;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      run_finished_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }

 private:
  void loop() {
    const auto poll = std::chrono::milliseconds(
        std::max<std::uint64_t>(1, config_.poll_ms));
    const std::chrono::milliseconds stagnation_window{
        config_.progress_timeout_ms * config_.oversub_factor};
    const int m = static_cast<int>(monitor_->progress.size());
    std::uint64_t last_sum = ~0ull;
    int last_finished = -1;
    Clock::time_point last_change = Clock::now();
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
      if (cv_.wait_for(lock, poll, [&] { return run_finished_; })) {
        return;
      }
      const Clock::time_point now = Clock::now();
      if (config_.deadline_ms > 0 &&
          now - t0_ >= std::chrono::milliseconds(config_.deadline_ms)) {
        monitor_->cancel.store(true, std::memory_order_relaxed);
        continue;  // keep waiting for run_finished
      }
      if (config_.progress_timeout_ms > 0) {
        // The change signature folds in restarts and recovery-delay units
        // so a recovering process is not declared hung mid-rejoin. (steps
        // can only grow, so summing the three cannot mask a stall.) A
        // sleep whose wake time is still ahead counts as a change on every
        // poll: the window starts only once a sleeper is due and the pool
        // has failed to resume it.
        const std::uint64_t now_ns = steady_ns(now);
        std::uint64_t sum = 0;
        int finished = 0;
        bool sleeping = false;
        for (const WorkerProgress& w : monitor_->progress) {
          sum += w.steps.load(std::memory_order_relaxed);
          sum += w.incarnations.load(std::memory_order_relaxed);
          sum += w.recovery_waits.load(std::memory_order_relaxed);
          sleeping |=
              w.sleep_until_ns.load(std::memory_order_relaxed) > now_ns;
          finished += w.finished.load(std::memory_order_relaxed) ? 1 : 0;
        }
        if (sum != last_sum || finished != last_finished || sleeping) {
          last_sum = sum;
          last_finished = finished;
          last_change = now;
        } else if (finished < m && now - last_change >= stagnation_window) {
          monitor_->cancel.store(true, std::memory_order_relaxed);
        }
      }
    }
  }

  RunMonitor* monitor_;
  Config config_;
  Clock::time_point t0_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool run_finished_ = false;
  std::thread thread_;
};

}  // namespace hw_internal
}  // namespace llsc

#endif  // LLSC_HW_RUN_SUPPORT_H_
