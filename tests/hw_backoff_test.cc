// Backoff policies: exact window sequences for fixed and adaptive
// policies (including the non-power-of-two-cap clamp regression), the
// park/unpark tier the executor's idle carriers use, driven through a
// stubbed Waiter, and counter accounting.
#include "hw/backoff.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "hw/hw_memory.h"
#include "memory/rmw.h"

namespace llsc {
namespace {

// Records every wait/wake instead of blocking, so the parking tier can be
// driven deterministically from one thread.
class StubWaiter final : public Waiter {
 public:
  void wait(std::atomic<std::uint32_t>& word, std::uint32_t expected) override {
    ++waits;
    last_expected = expected;
    last_word = &word;
  }
  void wake_all(std::atomic<std::uint32_t>& word) override {
    ++wakes;
    last_word = &word;
  }

  int waits = 0;
  int wakes = 0;
  std::uint32_t last_expected = 0;
  std::atomic<std::uint32_t>* last_word = nullptr;
};

BackoffOptions spin_only(BackoffPolicy policy, std::uint32_t min_spins,
                         std::uint32_t max_spins) {
  BackoffOptions o;
  o.policy = policy;
  o.min_spins = min_spins;
  o.max_spins = max_spins;
  // Keep every wait in the spin tier so the test never yields or parks.
  o.yield_threshold = max_spins + 1;
  return o;
}

// Regression for the window-overshoot bug: the pre-fix update
// (`if (window < max) window *= 2`) walks 4, 8, 16, 32 for a cap of 24 —
// the window exceeds the configured maximum by up to 2x. The clamped
// update must walk 4, 8, 16, 24, 24, ...
TEST(HwBackoffTest, FixedWindowNeverOvershootsNonPowerOfTwoCap) {
  Backoff b(spin_only(BackoffPolicy::kFixed, 4, 24));
  b.begin_op();
  std::vector<std::uint32_t> seen;
  for (int i = 0; i < 5; ++i) {
    b.on_failure();
    seen.push_back(b.window());
  }
  EXPECT_EQ(seen, (std::vector<std::uint32_t>{8, 16, 24, 24, 24}));
}

TEST(HwBackoffTest, FixedWindowResetsEveryOperation) {
  Backoff b(spin_only(BackoffPolicy::kFixed, 4, 64));
  b.begin_op();
  for (int i = 0; i < 4; ++i) b.on_failure();
  EXPECT_EQ(b.window(), 64u);
  b.on_success();
  b.begin_op();
  EXPECT_EQ(b.window(), 4u);  // fixed: no memory of past contention
}

TEST(HwBackoffTest, AdaptiveWindowPersistsAcrossOperations) {
  Backoff b(spin_only(BackoffPolicy::kAdaptive, 4, 1024));
  b.begin_op();
  for (int i = 0; i < 6; ++i) b.on_failure();  // 8,16,...,256
  EXPECT_EQ(b.window(), 256u);
  b.on_success();  // additive decrease by the default step (32)
  b.begin_op();
  EXPECT_EQ(b.window(), 224u);  // carried into the next operation
}

TEST(HwBackoffTest, AdaptiveMultiplicativeIncreaseAdditiveDecrease) {
  BackoffOptions o = spin_only(BackoffPolicy::kAdaptive, 4, 100);
  o.decrease_step = 10;
  Backoff b(o);
  b.begin_op();
  // Failure streak: x2 clamped at the (non-power-of-two) cap.
  std::vector<std::uint32_t> up;
  for (int i = 0; i < 6; ++i) {
    b.on_failure();
    up.push_back(b.window());
  }
  EXPECT_EQ(up, (std::vector<std::uint32_t>{8, 16, 32, 64, 100, 100}));
  // Success streak: -10 per success, clamped at the floor.
  std::vector<std::uint32_t> down;
  for (int i = 0; i < 11; ++i) {
    b.on_success();
    down.push_back(b.window());
  }
  EXPECT_EQ(down, (std::vector<std::uint32_t>{90, 80, 70, 60, 50, 40, 30, 20,
                                              10, 4, 4}));
}

TEST(HwBackoffTest, ParkingEngagesOnlyAfterSaturatedStreak) {
  StubWaiter waiter;
  BackoffOptions o = spin_only(BackoffPolicy::kAdaptive, 4, 16);
  o.waiter = &waiter;
  Backoff b(o);
  ParkSpot spot;
  b.begin_op();
  // Window reaches the 16 cap after 2 failures; the saturation streak
  // then has to exceed kParkThreshold (2) before the first park.
  for (int i = 0; i < 5; ++i) b.on_failure(&spot);
  EXPECT_EQ(waiter.waits, 1);
  EXPECT_EQ(b.stats().parks, 1u);
  EXPECT_EQ(waiter.last_word, &spot.seq);
  // Once saturated, every further failure parks...
  b.on_failure(&spot);
  EXPECT_EQ(waiter.waits, 2);
  // ...until a success resets the streak.
  b.on_success();
  b.on_failure(&spot);
  EXPECT_EQ(waiter.waits, 2);
  // The waiters count must be balanced after every park.
  EXPECT_EQ(spot.waiters.load(), 0u);
}

// Drive a Backoff whose window starts saturated (min == max spins) up to
// the edge of the parking tier: kParkThreshold failures that spin, so the
// next failure with a spot parks.
void saturate(Backoff& b, ParkSpot& spot) {
  b.begin_op();
  for (std::uint32_t i = 0; i < Backoff::kParkThreshold; ++i) {
    b.on_failure(&spot);
  }
  ASSERT_EQ(b.stats().parks, 0u);
}

// The lost-wakeup window of the executor's idle loop: the idle carrier
// scans an empty run queue having seen work-epoch `observed`, then a
// pusher bumps the epoch and — correctly, per the writer protocol —
// skips the seq bump and wake because `waiters` is still 0, and only
// then does the carrier park. The writer runs on its own thread and
// completes (join) before the park, so this is exactly the interleaving
// a park without the re-check would lose: it would call Waiter::wait and
// sleep out the full timeout. The park re-checks the word after
// registering in `waiters` and must skip the wait.
TEST(HwBackoffTest, ParkRechecksWordSoAWakelessWriterIsNeverMissed) {
  StubWaiter waiter;  // records waits: a recorded wait IS the lost wakeup
  BackoffOptions o = spin_only(BackoffPolicy::kAdaptive, 4, 4);
  o.waiter = &waiter;
  Backoff b(o);
  ParkSpot spot;
  std::atomic<std::uint64_t> word{7};
  const std::uint64_t observed =
      word.load(std::memory_order_seq_cst);  // the empty scan's snapshot
  saturate(b, spot);
  std::thread writer([&] {
    word.store(8, std::memory_order_seq_cst);  // push: bump the epoch
    // Writer-side wake protocol (the executor's push): no registered
    // waiters, so no seq bump and no wake — legal, and the half of the
    // race the parker's re-check exists to cover.
    if (spot.waiters.load(std::memory_order_seq_cst) != 0) {
      spot.seq.fetch_add(1, std::memory_order_seq_cst);
      waiter.wake_all(spot.seq);
    }
  });
  writer.join();  // the write and skipped wake land before the park
  b.on_failure(&spot, &word, observed);
  EXPECT_EQ(waiter.waits, 0);  // old ordering: 1 (slept on a stale word)
  EXPECT_EQ(b.stats().parks, 1u);
  EXPECT_EQ(b.stats().park_skips, 1u);
  EXPECT_EQ(spot.waiters.load(), 0u);  // balanced on the skip path too
}

// The complement: when the word has NOT moved, the re-check must not turn
// parking into a spin loop — the parker registers and waits as before.
TEST(HwBackoffTest, ParkStillWaitsWhenWordIsUnchanged) {
  StubWaiter waiter;
  BackoffOptions o = spin_only(BackoffPolicy::kAdaptive, 4, 4);
  o.waiter = &waiter;
  Backoff b(o);
  ParkSpot spot;
  std::atomic<std::uint64_t> word{7};
  saturate(b, spot);
  b.on_failure(&spot, &word, word.load());
  EXPECT_EQ(waiter.waits, 1);
  EXPECT_EQ(b.stats().parks, 1u);
  EXPECT_EQ(b.stats().park_skips, 0u);
  EXPECT_EQ(spot.waiters.load(), 0u);
}

// Parking is the caller's choice, not the policy's: without a spot (every
// register retry loop) neither policy ever parks.
TEST(HwBackoffTest, ParkingNeverEngagesWithoutASpot) {
  StubWaiter waiter;
  for (const BackoffPolicy policy :
       {BackoffPolicy::kFixed, BackoffPolicy::kAdaptive}) {
    BackoffOptions o = spin_only(policy, 4, 8);
    o.waiter = &waiter;
    Backoff b(o);
    b.begin_op();
    for (int i = 0; i < 10; ++i) b.on_failure(nullptr);
    EXPECT_EQ(b.stats().parks, 0u) << to_string(policy);
  }
  EXPECT_EQ(waiter.waits, 0);
}

TEST(HwBackoffTest, StatsCountEveryTierAndFailureRate) {
  StubWaiter waiter;
  BackoffOptions o;
  o.policy = BackoffPolicy::kAdaptive;
  o.min_spins = 4;
  o.max_spins = 32;
  o.yield_threshold = 16;  // windows 16/32 yield instead of spinning
  o.waiter = &waiter;
  Backoff b(o);
  ParkSpot spot;
  b.begin_op();
  // Windows walked: 4, 8 (spin tier), 16 (yield), then saturated at 32 —
  // the first two saturated failures still yield (streak 1, 2 not above
  // kParkThreshold = 2), the next two park.
  for (int i = 0; i < 7; ++i) b.on_failure(&spot);
  const BackoffStats& s = b.stats();
  EXPECT_EQ(s.cas_failures, 7u);
  EXPECT_EQ(s.spin_pauses, 2u);
  EXPECT_EQ(s.yields, 3u);
  EXPECT_EQ(s.parks, 2u);
  b.on_success();
  EXPECT_EQ(b.stats().cas_successes, 1u);
  EXPECT_DOUBLE_EQ(b.stats().failure_rate(), 7.0 / 8.0);

  Backoff idle{BackoffOptions{}};
  EXPECT_DOUBLE_EQ(idle.stats().failure_rate(), 0.0);
}

// Degenerate option values clamp rather than trap.
TEST(HwBackoffTest, DegenerateOptionsAreClamped) {
  BackoffOptions o = spin_only(BackoffPolicy::kFixed, 0, 0);
  Backoff b(o);
  b.begin_op();
  b.on_failure();
  EXPECT_GE(b.window(), 1u);
  EXPECT_LE(b.window(), 1u);
}

// End-to-end through HwMemory: options reach the per-thread Backoff and
// stats aggregate over threads. Register retry loops never park or wake,
// so the injected waiter is never touched.
TEST(HwBackoffTest, HwMemoryAggregatesStatsAndNeverTouchesTheWaiter) {
  StubWaiter waiter;
  BackoffOptions o;
  o.policy = BackoffPolicy::kAdaptive;
  o.waiter = &waiter;
  HwMemory mem(2, 2, o);
  EXPECT_EQ(mem.backoff_stats().policy, BackoffPolicy::kAdaptive);
  // Uncontended installs: successes accumulate, no failures.
  for (int i = 0; i < 10; ++i) {
    (void)mem.swap(0, 0, Value::of_u64(static_cast<std::uint64_t>(i)));
  }
  const auto inc = make_rmw("inc", [](const Value& v) {
    return Value::of_u64(v.is_nil() ? 1 : v.as_u64() + 1);
  });
  (void)mem.rmw(1, 0, *inc);
  HwBackoffStats s = mem.backoff_stats();
  EXPECT_EQ(s.cas_successes, 11u);
  EXPECT_EQ(s.cas_failures, 0u);
  EXPECT_EQ(waiter.waits, 0);
  EXPECT_EQ(waiter.wakes, 0);
  EXPECT_DOUBLE_EQ(s.failure_rate(), 0.0);
}

}  // namespace
}  // namespace llsc
