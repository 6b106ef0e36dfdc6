// HwMemory: single-thread parity with the paper-exact SharedMemory, the
// deterministic cross-thread SC/VL invalidation contract, lock-free
// fetch&increment counting under real contention, and epoch reclamation
// accounting. The whole suite runs once per register-storage policy
// (boxed nodes and inline tagged words — memory/storage_policy.h), since
// every semantic assertion must hold identically under both; only the
// reclamation-accounting expectations are policy-aware (inline storage
// allocates no nodes for small u64 payloads). Inline-only behaviors
// (overflow demotion, strict faulting, version-tag wrap) get their own
// unparameterized tests at the bottom.
#include "hw/hw_memory.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

#include "memory/rmw.h"
#include "memory/shared_memory.h"
#include "memory/storage_policy.h"
#include "util/rng.h"

namespace llsc {
namespace {

class HwMemoryPolicyTest : public ::testing::TestWithParam<StoragePolicy> {
 protected:
  bool inline_policy() const { return GetParam() != StoragePolicy::kBoxed; }
};

INSTANTIATE_TEST_SUITE_P(
    Storage, HwMemoryPolicyTest,
    ::testing::Values(StoragePolicy::kBoxed, StoragePolicy::kInline),
    [](const ::testing::TestParamInfo<StoragePolicy>& info) {
      return info.param == StoragePolicy::kBoxed ? "Boxed" : "Inline";
    });

TEST_P(HwMemoryPolicyTest, LlScBasics) {
  HwMemory mem(4, 2, {}, GetParam());
  EXPECT_TRUE(mem.ll(0, 0).is_nil());
  OpResult r = mem.sc(0, 0, Value::of_u64(7));
  EXPECT_TRUE(r.flag);
  EXPECT_TRUE(r.value.is_nil());  // previous value on success
  EXPECT_EQ(mem.peek_value(0).as_u64(), 7u);
  // A successful SC clears the whole Pset, including the writer's own
  // link: an immediate second SC must fail and report the current value.
  r = mem.sc(0, 0, Value::of_u64(8));
  EXPECT_FALSE(r.flag);
  EXPECT_EQ(r.value.as_u64(), 7u);
  EXPECT_EQ(mem.peek_value(0).as_u64(), 7u);
}

TEST_P(HwMemoryPolicyTest, InterveningScInvalidatesOtherLinks) {
  HwMemory mem(4, 2, {}, GetParam());
  (void)mem.ll(0, 0);
  (void)mem.ll(1, 0);
  ASSERT_TRUE(mem.sc(1, 0, Value::of_u64(1)).flag);
  // Process 0's link died with process 1's successful SC.
  EXPECT_FALSE(mem.validate(0, 0).flag);
  OpResult r = mem.sc(0, 0, Value::of_u64(2));
  EXPECT_FALSE(r.flag);
  EXPECT_EQ(r.value.as_u64(), 1u);
}

TEST_P(HwMemoryPolicyTest, SwapAndMoveInvalidate) {
  HwMemory mem(4, 2, {}, GetParam());
  (void)mem.ll(0, 0);
  EXPECT_TRUE(mem.swap(1, 0, Value::of_u64(3)).is_nil());
  EXPECT_FALSE(mem.validate(0, 0).flag);
  EXPECT_FALSE(mem.sc(0, 0, Value::of_u64(9)).flag);

  (void)mem.ll(0, 1);
  mem.move(1, /*src=*/0, /*dst=*/1);
  EXPECT_EQ(mem.peek_value(1).as_u64(), 3u);
  EXPECT_EQ(mem.peek_value(0).as_u64(), 3u);  // source unchanged
  EXPECT_FALSE(mem.validate(0, 1).flag);
}

TEST_P(HwMemoryPolicyTest, RmwAppliesAndReturnsOld) {
  HwMemory mem(2, 1, {}, GetParam());
  (void)mem.swap(0, 0, Value::of_u64(10));
  const auto inc = make_rmw("inc", [](const Value& v) {
    return Value::of_u64(v.as_u64() + 1);
  });
  EXPECT_EQ(mem.rmw(0, 0, *inc).as_u64(), 10u);
  EXPECT_EQ(mem.peek_value(0).as_u64(), 11u);
}

// Random single-thread op script applied to both memories step by step —
// every response (flag and value) must match the paper-exact model.
TEST_P(HwMemoryPolicyTest, RandomParityWithSharedMemory) {
  constexpr int kProcs = 3;
  constexpr RegId kRegs = 4;
  HwMemory hw(kRegs, kProcs, {}, GetParam());
  SharedMemory model;
  model.set_storage_policy(GetParam());
  Rng rng(42);
  for (int step = 0; step < 5000; ++step) {
    PendingOp op;
    op.reg = rng.next_below(kRegs);
    const ProcId p = static_cast<ProcId>(rng.next_below(kProcs));
    switch (rng.next_below(5)) {
      case 0:
        op.kind = OpKind::kLL;
        break;
      case 1:
        op.kind = OpKind::kSC;
        op.arg = Value::of_u64(rng.next_u64() % 1000);
        break;
      case 2:
        op.kind = OpKind::kValidate;
        break;
      case 3:
        op.kind = OpKind::kSwap;
        op.arg = Value::of_u64(rng.next_u64() % 1000);
        break;
      default:
        op.kind = OpKind::kMove;
        op.src = (op.reg + 1 + rng.next_below(kRegs - 1)) % kRegs;
        break;
    }
    const OpResult got = hw.apply(p, op);
    const OpResult want = model.apply(p, op);
    ASSERT_EQ(got.flag, want.flag) << "step " << step;
    ASSERT_EQ(got.value, want.value) << "step " << step;
  }
  // Width accounting ticks at the same completed-install points on both
  // substrates, so the deterministic script produces identical counters.
  const RegisterWidthStats hw_width = hw.width_stats();
  const RegisterWidthStats sim_width = model.width_stats();
  EXPECT_EQ(hw_width.policy, GetParam());
  EXPECT_EQ(hw_width.writes_inspected, sim_width.writes_inspected);
  EXPECT_EQ(hw_width.max_bits, sim_width.max_bits);
  EXPECT_EQ(hw_width.overflow_events, sim_width.overflow_events);
  EXPECT_EQ(hw_width.inline_installs, sim_width.inline_installs);
  EXPECT_EQ(hw_width.boxed_installs, sim_width.boxed_installs);
  EXPECT_EQ(hw_width.boxed_fallback_registers,
            sim_width.boxed_fallback_registers);
}

// Deterministic two-thread handshake: after an intervening swap, the
// reader's VL and SC must both fail — every round, no races about it.
TEST_P(HwMemoryPolicyTest, ScAndVlNeverSucceedAfterInterveningWrite) {
  constexpr int kRounds = 2000;
  HwMemory mem(2, 2, {}, GetParam());
  std::atomic<int> linked_round{-1};
  std::atomic<int> swapped_round{-1};
  std::thread writer([&] {
    for (int i = 0; i < kRounds; ++i) {
      while (linked_round.load() < i) std::this_thread::yield();
      (void)mem.swap(1, 0, Value::of_u64(static_cast<std::uint64_t>(i)));
      swapped_round.store(i);
    }
  });
  for (int i = 0; i < kRounds; ++i) {
    (void)mem.ll(0, 0);
    linked_round.store(i);
    while (swapped_round.load() < i) std::this_thread::yield();
    EXPECT_FALSE(mem.validate(0, 0).flag) << "round " << i;
    EXPECT_FALSE(mem.sc(0, 0, Value::of_u64(~0ull)).flag) << "round " << i;
  }
  writer.join();
  // No bogus SC ever landed: the register holds the last swap's value.
  EXPECT_EQ(mem.peek_value(0).as_u64(),
            static_cast<std::uint64_t>(kRounds - 1));
}

// Lock-free fetch&increment via LL/SC retry from several threads. Every
// successful SC adds exactly 1, so the final value must equal the summed
// success counts — lost updates (an SC succeeding despite an intervening
// write) or duplicated ones would break the equality.
TEST_P(HwMemoryPolicyTest, ConcurrentFetchIncrementIsExact) {
  constexpr int kThreads = 4;
  constexpr std::uint64_t kPerThread = 3000;
  HwMemory mem(1, kThreads, {}, GetParam());
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      std::uint64_t ok = 0;
      while (ok < kPerThread) {
        const Value v = mem.ll(t, 0);
        const std::uint64_t cur = v.is_nil() ? 0 : v.as_u64();
        if (mem.sc(t, 0, Value::of_u64(cur + 1)).flag) ++ok;
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(mem.peek_value(0).as_u64(), kThreads * kPerThread);
  // The retry loop's payloads all fit an inline word, so the inline
  // policy's hot path must never box a node.
  if (inline_policy()) {
    EXPECT_EQ(mem.reclaim_stats().nodes_allocated, 0u);
    EXPECT_EQ(mem.width_stats().overflow_events, 0u);
  }
}

TEST_P(HwMemoryPolicyTest, EpochReclamationFreesRetiredNodes) {
  // Pinned to the epoch reclaimer: the assertions below (global_epoch
  // advancing, the scan-interval tail) are epoch-specific, so the test
  // must not float with LLSC_RECLAIMER. The hazard twin lives in
  // tests/hw_reclaim_test.cc.
  HwMemory mem(1, 1, {}, GetParam(), ReclaimPolicy::kEpoch);
  for (int i = 0; i < 20000; ++i) {
    (void)mem.swap(0, 0, Value::of_u64(static_cast<std::uint64_t>(i)));
  }
  const HwReclaimStats s = mem.reclaim_stats();
  if (inline_policy()) {
    // Small u64 payloads live in the register word itself: no nodes were
    // ever allocated, so there is nothing to retire or reclaim.
    EXPECT_EQ(s.nodes_allocated, 0u);
    EXPECT_EQ(s.nodes_retired, 0u);
    EXPECT_EQ(s.nodes_freed, 0u);
    EXPECT_EQ(mem.width_stats().inline_installs, 20000u);
    return;
  }
  EXPECT_EQ(s.nodes_allocated, 20000u);
  EXPECT_EQ(s.nodes_retired, 20000u);  // every install retires its predecessor
  EXPECT_LE(s.nodes_freed, s.nodes_retired);
  // The unfreed tail is bounded by a few scan intervals, not the workload.
  EXPECT_GT(s.nodes_freed, 19000u);
  EXPECT_GT(s.global_epoch, 1u);
}

// Oversubscription stress: twice as many worker threads as the machine
// has cores, all hammering one register through the rmw retry loop under
// the adaptive policy. Exactness of the final count proves no increment
// was lost or duplicated across the spin and yield wait paths; the stats
// cross-check pins the accounting (every loop iteration is either a
// counted failure or a counted success, and register retry loops never
// park). Runs under the tsan CI job like every hw_* suite.
TEST_P(HwMemoryPolicyTest, OversubscribedAdaptiveParkingRmwIsExact) {
  const int kThreads = std::max(
      4, 2 * static_cast<int>(std::thread::hardware_concurrency()));
  constexpr std::uint64_t kPerThread = 1500;
  BackoffOptions opts;
  opts.policy = BackoffPolicy::kAdaptive;
  // A small window cap pushes the test into the yield tier quickly
  // instead of spending its budget spinning.
  opts.max_spins = 64;
  opts.yield_threshold = 32;
  HwMemory mem(1, kThreads, opts, GetParam());
  const auto inc = make_rmw("inc", [](const Value& v) {
    return Value::of_u64(v.is_nil() ? 1 : v.as_u64() + 1);
  });
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        (void)mem.rmw(t, 0, *inc);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(mem.peek_value(0).as_u64(),
            static_cast<std::uint64_t>(kThreads) * kPerThread);
  const HwBackoffStats s = mem.backoff_stats();
  EXPECT_EQ(s.policy, BackoffPolicy::kAdaptive);
  // Every rmw lands exactly once, so successes count the operations and
  // every backoff wait was triggered by a counted failure.
  EXPECT_EQ(s.cas_successes, static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(s.cas_failures, s.spin_pauses + s.yields);
  EXPECT_GE(s.failure_rate(), 0.0);
  EXPECT_LE(s.failure_rate(), 1.0);
}

TEST_P(HwMemoryPolicyTest, ReclamationUnderContention) {
  constexpr int kThreads = 4;
  HwMemory mem(2, kThreads, {}, GetParam());
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 4000; ++i) {
        const RegId r = static_cast<RegId>(i & 1);
        const Value v = mem.ll(t, r);
        const std::uint64_t cur = v.is_nil() ? 0 : v.as_u64();
        if (!mem.sc(t, r, Value::of_u64(cur + 1)).flag) {
          (void)mem.swap(t, r, Value::of_u64(cur));
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  const HwReclaimStats s = mem.reclaim_stats();
  EXPECT_EQ(s.nodes_retired, s.nodes_allocated);
  if (inline_policy()) {
    // All payloads fit inline — the policy's no-allocation promise holds
    // under contention too.
    EXPECT_EQ(s.nodes_allocated, 0u);
    return;
  }
  EXPECT_GT(s.nodes_freed, 0u);
  EXPECT_LE(s.nodes_freed, s.nodes_retired);
}

// --- inline-only behaviors ----------------------------------------------

// A value beyond the 47-bit payload bound demotes the register to a boxed
// node (sticky), counts an overflow event, and keeps every subsequent
// operation correct — including small values that would have fit.
TEST(HwMemoryInlineTest, OverflowDemotesRegisterAndCounts) {
  HwMemory mem(2, 1, {}, StoragePolicy::kInline);
  const Value big = Value::of_u64(kInlineMaxU64 + 1);
  (void)mem.swap(0, 0, big);
  EXPECT_EQ(mem.peek_value(0).as_u64(), kInlineMaxU64 + 1);
  RegisterWidthStats w = mem.width_stats();
  EXPECT_EQ(w.policy, StoragePolicy::kInline);
  EXPECT_EQ(w.overflow_events, 1u);
  EXPECT_EQ(w.boxed_installs, 1u);
  EXPECT_EQ(w.boxed_fallback_registers, 1u);
  // Demotion is sticky: a small value on the demoted register is boxed,
  // while the untouched register still installs inline.
  (void)mem.swap(0, 0, Value::of_u64(5));
  (void)mem.swap(0, 1, Value::of_u64(5));
  w = mem.width_stats();
  EXPECT_EQ(w.boxed_installs, 2u);
  EXPECT_EQ(w.inline_installs, 1u);
  EXPECT_EQ(w.boxed_fallback_registers, 1u);
  EXPECT_EQ(w.overflow_events, 1u);  // only the unencodable write counts
  // LL/SC on the demoted register behaves exactly as specified.
  (void)mem.ll(0, 0);
  EXPECT_TRUE(mem.sc(0, 0, Value::of_u64(6)).flag);
  EXPECT_EQ(mem.peek_value(0).as_u64(), 6u);
}

// Version-tag wrap: the 16-bit tag cycles after 65535 completed inline
// writes. Far more writes than one period must leave LL/SC semantics
// intact (each write bumps the tag, so a stale link can only revalidate
// after exactly k * 65535 intervening writes — not exercised here; this
// pins the wrap itself: correct values, zero allocations, full count).
TEST(HwMemoryInlineTest, TagWrapKeepsLlScExact) {
  constexpr std::uint64_t kWrites = 70000;  // > one 65535 tag period
  HwMemory mem(1, 1, {}, StoragePolicy::kInline);
  for (std::uint64_t i = 0; i < kWrites; ++i) {
    (void)mem.ll(0, 0);
    const OpResult r = mem.sc(0, 0, Value::of_u64(i));
    ASSERT_TRUE(r.flag) << "write " << i;
  }
  EXPECT_EQ(mem.peek_value(0).as_u64(), kWrites - 1);
  EXPECT_EQ(mem.reclaim_stats().nodes_allocated, 0u);
  const RegisterWidthStats w = mem.width_stats();
  EXPECT_EQ(w.inline_installs, kWrites);
  EXPECT_EQ(w.overflow_events, 0u);
  // A link taken before a wrapped-tag write must still be dead after it.
  (void)mem.ll(0, 0);
  (void)mem.swap(0, 0, Value::of_u64(1));
  EXPECT_FALSE(mem.validate(0, 0).flag);
}

}  // namespace
}  // namespace llsc
