// Backoff policies for contended CAS retry loops (HwMemory::install/rmw)
// and for the oversubscribed executor's idle carriers.
//
// Two policies, selectable per HwMemory/HwExecutor at construction:
//
//   kFixed            the classic Synch-framework shape: the spin window
//                     starts at min_spins on every operation and doubles
//                     (clamped to max_spins) on every failed CAS; windows
//                     at or above yield_threshold give up the timeslice
//                     instead of spinning.
//   kAdaptive         the window persists across operations and tracks the
//                     observed CAS-failure rate: multiplicative increase
//                     (×2, clamped) on failure streaks, additive decrease
//                     (−decrease_step, clamped) on success streaks. Under
//                     sustained contention the window stays wide without
//                     re-learning it every operation; when contention
//                     drains, successive successes walk it back down.
//
// Under either policy a caller that passes a ParkSpot to on_failure gets a
// third tier: once the window has been saturated at max_spins for more
// than kParkThreshold consecutive failures, the thread parks on the
// spot's futex word instead of burning a timeslice. Only the
// oversubscribed executor's idle carriers pass one (its run queue's
// idle spot); register retry loops never park. A bounded park timeout
// means progress never depends on the wakeup arriving (see Waiter).
//
// The policy object is per-thread (no shared state); the park/wake
// rendezvous goes through a ParkSpot and a Waiter, which tests stub out
// to drive the park path deterministically.
#ifndef LLSC_HW_BACKOFF_H_
#define LLSC_HW_BACKOFF_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <thread>

namespace llsc {

enum class BackoffPolicy : int {
  kFixed = 0,
  kAdaptive = 1,
};

const char* to_string(BackoffPolicy policy);

// How a thread blocks once backoff escalates past spinning/yielding.
// The default (system()) parks on a futex on Linux and falls back to a
// short sleep elsewhere. Implementations must be wait-bounded: wait()
// may return spuriously and MUST return after a bounded timeout even if
// no wake ever arrives — callers re-check and retry, so a missed wake
// costs latency, never progress.
class Waiter {
 public:
  virtual ~Waiter() = default;
  // Block while word == expected (or until timeout/spurious return).
  virtual void wait(std::atomic<std::uint32_t>& word,
                    std::uint32_t expected) = 0;
  // Wake every thread blocked in wait() on `word`.
  virtual void wake_all(std::atomic<std::uint32_t>& word) = 0;

  // Process-wide default: FutexWaiter on Linux, TimedSleepWaiter elsewhere.
  static Waiter& system();
};

// Park rendezvous. Writers change the watched word, then bump `seq` and
// wake — but only when `waiters` is non-zero; parkers register in
// `waiters`, re-snapshot `seq`, RE-CHECK the word they failed against,
// and only then wait. The re-check closes the lost-wakeup window: a
// writer that changed the word before the parker's `waiters` increment
// may legitimately skip the seq bump (it saw waiters == 0), but that same
// change is what the parker's re-check observes, so the parker returns
// to its loop instead of sleeping out the Waiter timeout. A writer that
// changes the word after the increment observes waiters != 0 (both sides
// use seq_cst) and issues the wake.
struct ParkSpot {
  std::atomic<std::uint32_t> seq{0};
  std::atomic<std::uint32_t> waiters{0};
};

struct BackoffOptions {
  BackoffPolicy policy = BackoffPolicy::kFixed;
  std::uint32_t min_spins = 4;
  std::uint32_t max_spins = 1024;
  // Windows at or above this spin count yield the CPU instead of spinning;
  // essential on machines with fewer cores than worker threads.
  std::uint32_t yield_threshold = 256;
  // Adaptive: how much a successful CAS narrows the window.
  std::uint32_t decrease_step = 32;
  // nullptr selects Waiter::system(); tests inject a stub.
  Waiter* waiter = nullptr;
};

// Counters one Backoff instance accumulated (per thread; aggregate via
// HwMemory::backoff_stats()).
struct BackoffStats {
  std::uint64_t cas_failures = 0;
  std::uint64_t cas_successes = 0;
  std::uint64_t spin_pauses = 0;  // backoff waits served by spinning
  std::uint64_t yields = 0;       // ... by yielding the timeslice
  std::uint64_t parks = 0;        // ... by parking on a ParkSpot
  // Parks cut short by the pre-wait word re-check: the word changed
  // between the CAS failure and the park, so the thread skipped the wait
  // entirely instead of riding out the Waiter timeout.
  std::uint64_t park_skips = 0;

  double failure_rate() const {
    const std::uint64_t attempts = cas_failures + cas_successes;
    return attempts == 0
               ? 0.0
               : static_cast<double>(cas_failures) /
                     static_cast<double>(attempts);
  }
};

class Backoff {
 public:
  // Consecutive failures at a saturated (== max_spins) window before a
  // caller with a ParkSpot parks instead of yielding — the executor's
  // idle carriers, the only caller that passes one.
  static constexpr std::uint32_t kParkThreshold = 2;

  explicit Backoff(const BackoffOptions& options = {});

  // Called once at the top of each retry loop. kFixed re-arms the window
  // at min_spins; kAdaptive carries it across operations and only resets
  // the saturation streak.
  void begin_op();

  // Called after a failed CAS: wait once (spin, yield, or park on `spot`
  // depending on tier and window), then widen the window — multiplicative
  // increase clamped to max_spins. `spot` may be null (no parking tier
  // at this call site — every register retry loop). When parking, `word`
  // is the atomic the caller failed against and `observed` the value it
  // saw: after registering in `waiters` the parker re-reads `word` and
  // skips the wait if it moved (see ParkSpot). A null `word` skips the
  // re-check and leans on the Waiter timeout alone.
  void on_failure(ParkSpot* spot = nullptr,
                  const std::atomic<std::uint64_t>* word = nullptr,
                  std::uint64_t observed = 0);

  // Called after the retry loop's CAS lands: kAdaptive narrows the
  // window (additive decrease clamped to min_spins).
  void on_success();

  BackoffPolicy policy() const { return options_.policy; }
  std::uint32_t window() const { return window_; }
  const BackoffStats& stats() const { return stats_; }

  // One spin-wait hint (x86 `pause`, arm `yield`).
  static void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#elif defined(__aarch64__)
    asm volatile("yield" ::: "memory");
#else
    std::atomic_signal_fence(std::memory_order_seq_cst);
#endif
  }

 private:
  void park(ParkSpot& spot, const std::atomic<std::uint64_t>* word,
            std::uint64_t observed);

  BackoffOptions options_;
  Waiter* waiter_;
  std::uint32_t window_;
  // Consecutive on_failure calls with the window already at max_spins;
  // crossing kParkThreshold engages the parking tier.
  std::uint32_t saturated_streak_ = 0;
  BackoffStats stats_;
};

inline Backoff::Backoff(const BackoffOptions& options)
    : options_(options),
      waiter_(options.waiter != nullptr ? options.waiter : &Waiter::system()),
      window_(options.min_spins) {
  // Degenerate configurations clamp instead of trapping: the policy is a
  // performance knob, never a correctness gate.
  if (options_.min_spins == 0) options_.min_spins = 1;
  if (options_.max_spins < options_.min_spins) {
    options_.max_spins = options_.min_spins;
  }
  window_ = options_.min_spins;
}

inline void Backoff::begin_op() {
  saturated_streak_ = 0;
  if (options_.policy == BackoffPolicy::kFixed) {
    window_ = options_.min_spins;
  }
}

inline void Backoff::on_failure(ParkSpot* spot,
                                const std::atomic<std::uint64_t>* word,
                                std::uint64_t observed) {
  ++stats_.cas_failures;
  const bool saturated = window_ >= options_.max_spins;
  saturated_streak_ = saturated ? saturated_streak_ + 1 : 0;
  if (spot != nullptr && saturated_streak_ > kParkThreshold) {
    ++stats_.parks;
    park(*spot, word, observed);
  } else if (window_ >= options_.yield_threshold) {
    ++stats_.yields;
    std::this_thread::yield();
  } else {
    ++stats_.spin_pauses;
    for (std::uint32_t i = 0; i < window_; ++i) cpu_relax();
  }
  // Multiplicative increase, clamped. (The pre-clamp form `if (window <
  // max) window *= 2` overshoots a non-power-of-two cap by up to 2×.)
  window_ = std::min(window_ * 2, options_.max_spins);
}

inline void Backoff::on_success() {
  ++stats_.cas_successes;
  saturated_streak_ = 0;
  if (options_.policy == BackoffPolicy::kFixed) return;
  // Additive decrease, clamped at the floor.
  window_ = window_ > options_.min_spins + options_.decrease_step
                ? window_ - options_.decrease_step
                : options_.min_spins;
}

inline void Backoff::park(ParkSpot& spot,
                          const std::atomic<std::uint64_t>* word,
                          std::uint64_t observed) {
  // Order matters, twice over. (1) Register as a waiter BEFORE
  // snapshotting seq, so a writer that bumps seq after our snapshot is
  // guaranteed to observe waiters != 0 and issue the wake. (2) Re-check
  // the contended word AFTER registering: a writer that installed before
  // our increment saw waiters == 0 and skipped its seq bump, so the only
  // trace of its write is the word itself — seeing it changed here means
  // a retry will observe new state, and sleeping would trade that for a
  // full Waiter timeout. Both sides are seq_cst, so one of the two
  // signals (changed word, or seq bump + wake) is always visible.
  spot.waiters.fetch_add(1, std::memory_order_seq_cst);
  const std::uint32_t seen = spot.seq.load(std::memory_order_seq_cst);
  if (word != nullptr &&
      word->load(std::memory_order_seq_cst) != observed) {
    ++stats_.park_skips;
    spot.waiters.fetch_sub(1, std::memory_order_relaxed);
    return;
  }
  waiter_->wait(spot.seq, seen);
  spot.waiters.fetch_sub(1, std::memory_order_relaxed);
}

}  // namespace llsc

#endif  // LLSC_HW_BACKOFF_H_
