// RegisterStorage — the storage-policy seam behind HwMemory.
//
// HwMemory's public API (the paper's LL/SC/VL/swap/move plus the Section 7
// RMW) is fixed; *how a register stores its value* is the policy this seam
// varies:
//
//   BoxedStorage  — each register's word is always a pointer to an
//                   immutable heap VersionedNode{Value, version}; every
//                   successful write installs a fresh node with version + 1
//                   and the replaced node is retired to the run's
//                   Reclaimer (hw/reclaim.h — three-epoch batches by
//                   default, per-slot hazard pointers under
//                   ReclaimPolicy::kHazard). This is the pre-seam HwMemory
//                   behavior, preserved exactly under the default epoch
//                   policy (same versions, same allocation counts).
//   InlineStorage — while a register's values fit, its word *is* the
//                   value: a 64-bit tagged word (memory/storage_policy.h
//                   codec — 16-bit version tag, 47-bit payload, bit 0 set)
//                   and a write is one CAS with no allocation and no
//                   reclamation. The first write that does not fit either
//                   demotes that one register to boxing permanently
//                   (kInline) or throws RegisterOverflowError
//                   (kInlineStrict).
//
// Link discipline across the two node/inline representations: a process's
// link for a register is the 64-bit word it would have to still observe —
// the node's version for a boxed register, the whole tagged word for an
// inline one. Inline words always have bit 0 set (odd); nodes installed by
// InlineStorage carry even versions (2, 4, …), so a link taken before a
// register was demoted can never validate against a node installed after,
// and vice versa. BoxedStorage keeps the legacy odd-and-even versions
// (1, 2, 3, …) — bit-identical to the pre-seam backend.
//
// ABA: boxed versions never recur (64-bit counter), so boxed SC is exact.
// An inline word's 16-bit tag wraps 0xFFFF → 1, so a *wrong* inline SC
// success requires exactly k · 65535 intervening completed writes, the
// last of which re-encodes the linked payload — the bounded-register price
// Section 7 is about, documented in docs/hw_backend.md.
//
// Reclamation discipline: every operation brackets its node dereferences
// inside one Reclaimer::Guard, loads register words through the guard
// (acquire for fresh loads, confirm for words a failed CAS handed back),
// and retires unlinked nodes through it. No protection ever spans an
// operation boundary — the invariant that lets oversubscribed executors
// bind hazard slots to carrier threads (see hw/reclaim.h).
#ifndef LLSC_HW_REGISTER_STORAGE_H_
#define LLSC_HW_REGISTER_STORAGE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "hw/backoff.h"
#include "hw/reclaim.h"
#include "memory/op.h"
#include "memory/reclaim_policy.h"
#include "memory/rmw.h"
#include "memory/storage_policy.h"
#include "memory/value.h"

namespace llsc {

inline constexpr std::size_t kCacheLineBytes = 64;

// Back-compat alias: the reclamation counters moved to
// memory/reclaim_policy.h when the Reclaimer seam was extracted.
using HwReclaimStats = ReclaimStats;

// Backoff counters aggregated over threads (read when quiescent), plus
// the wake side of the parking tier, which is charged to the writer
// thread that issued the wake.
struct HwBackoffStats {
  BackoffPolicy policy = BackoffPolicy::kFixed;
  std::uint64_t cas_failures = 0;
  std::uint64_t cas_successes = 0;
  std::uint64_t spin_pauses = 0;
  std::uint64_t yields = 0;
  std::uint64_t parks = 0;
  std::uint64_t park_skips = 0;  // parks cut short by the word re-check
  std::uint64_t wakes = 0;

  double failure_rate() const {
    const std::uint64_t attempts = cas_failures + cas_successes;
    return attempts == 0
               ? 0.0
               : static_cast<double>(cas_failures) /
                     static_cast<double>(attempts);
  }
};

class RegisterStorage {
 public:
  // `reclaim_slots` sizes the Reclaimer's slot table; 0 means one slot per
  // thread/process. The executor passes its carrier count when the policy
  // binds slots to carriers (hw/reclaim.h).
  RegisterStorage(std::size_t num_registers, int num_threads,
                  const BackoffOptions& backoff,
                  ReclaimPolicy reclaim = default_reclaim_policy(),
                  int reclaim_slots = 0);
  virtual ~RegisterStorage();
  RegisterStorage(const RegisterStorage&) = delete;
  RegisterStorage& operator=(const RegisterStorage&) = delete;

  virtual StoragePolicy policy() const = 0;
  ReclaimPolicy reclaim_policy() const { return reclaimer_->policy(); }

  virtual Value ll(ProcId p, RegId r) = 0;
  virtual OpResult sc(ProcId p, RegId r, Value v) = 0;
  virtual OpResult validate(ProcId p, RegId r) = 0;
  virtual Value swap(ProcId p, RegId r, Value v) = 0;
  virtual void move(ProcId p, RegId src, RegId dst) = 0;
  virtual Value rmw(ProcId p, RegId r, const RmwFunction& f) = 0;

  std::size_t num_registers() const { return regs_.size(); }
  int num_threads() const { return static_cast<int>(ctxs_.size()); }

  // Crash-recovery support (hw/fault.h): drop every link p holds, so a
  // restarted incarnation cannot adopt a reservation its dead predecessor
  // took, and release the reclamation protections of p's slot (the dead
  // incarnation's guard already unwound; this is the explicit reset).
  // Links are owner-thread private; call this from the carrier thread
  // performing p's restart — the same thread-contract every operation for
  // p already obeys.
  void invalidate_links(ProcId p);

  // The run's reclamation policy object (executors use this to bind
  // carrier threads to slots; tests to reach policy internals).
  Reclaimer& reclaimer() { return *reclaimer_; }
  const Reclaimer& reclaimer() const { return *reclaimer_; }

  // --- quiescent observation (tests / post-run accounting only) ---
  virtual Value peek_value(RegId r) const = 0;
  // For a boxed register this is the node's version; for an inline one it
  // is the whole tagged word (what peek_link_live compares links against).
  virtual std::uint64_t peek_version(RegId r) const = 0;
  bool peek_link_live(RegId r, ProcId p) const;
  HwReclaimStats reclaim_stats() const;
  HwBackoffStats backoff_stats() const;
  virtual RegisterWidthStats width_stats() const;

  // Labeled logical-object ranges (memory/storage_policy.h). When set,
  // InlineStorage::width_stats() attributes each demoted register to its
  // group in boxed_fallback_by_group; empty (the default) keeps the
  // breakdown empty and existing artifact schemas byte-stable. Set before
  // the run; not thread-safe against concurrent operations.
  void set_register_groups(std::vector<RegisterGroup> groups) {
    groups_ = std::move(groups);
  }
  const std::vector<RegisterGroup>& register_groups() const {
    return groups_;
  }

 protected:
  // Immutable once published; versions per register strictly increase and
  // are never reused (from 1 step 1 under BoxedStorage; from 2 step 2 —
  // always even — for InlineStorage's demoted registers). The node type
  // itself lives with its lifecycle owner, the Reclaimer (hw/reclaim.h).
  using Node = VersionedNode;

  struct alignas(kCacheLineBytes) PaddedWord {
    // Either a Node* (bit 0 clear — nodes are 8-byte aligned) or, under
    // InlineStorage, a tagged inline word (bit 0 set). Derived
    // constructors initialize it; 0 only before that.
    std::atomic<std::uint64_t> word{0};
    // Park rendezvous for the adaptive+parking backoff tier; shares the
    // word's (already-padded) line, which the waking writer just owned.
    ParkSpot park;
  };

  struct alignas(kCacheLineBytes) ThreadCtx {
    // Linked word per register (owner-thread private); 0 = no live link.
    std::vector<std::uint64_t> link;
    // Net completed-install allocations (a node deleted after losing its
    // CAS race is un-counted on the spot).
    std::uint64_t allocated = 0;
    // Retry-loop backoff state and counters (owner-thread private).
    Backoff backoff;
    std::uint64_t wakes = 0;
    // Width accounting (owner-thread private; see RegisterWidthStats).
    std::uint64_t writes_inspected = 0;
    std::size_t max_bits = 0;
    std::uint64_t overflow_events = 0;
    std::uint64_t inline_installs = 0;
    std::uint64_t boxed_installs = 0;
  };

  ThreadCtx& ctx(ProcId p);
  std::atomic<std::uint64_t>& word(RegId r);
  const std::atomic<std::uint64_t>& word(RegId r) const;
  Node* make_node(ThreadCtx& c, Value v, std::uint64_t version);
  // Wake threads parked on r's ParkSpot after a successful write (no-op
  // unless someone is registered as a waiter).
  void wake_waiters(ThreadCtx& c, RegId r);
  // Width accounting at a *completed* install (SC success, swap, move,
  // rmw) — never per CAS retry, so simulator and hw totals agree.
  void note_install(ThreadCtx& c, const Value& v, bool inline_install);
  // Same, from bits precomputed while the installed node was still
  // private. A published node may be replaced, retired, and freed by a
  // concurrent writer at any time — only the node in this slot's hazard
  // word is protected — so its value must not be read after the CAS.
  void note_install_bits(ThreadCtx& c, std::size_t encoded_bits,
                         bool inline_install);

  std::vector<PaddedWord> regs_;
  std::vector<std::unique_ptr<ThreadCtx>> ctxs_;
  BackoffOptions backoff_options_;
  std::vector<RegisterGroup> groups_;
  Waiter* waiter_;
  std::unique_ptr<Reclaimer> reclaimer_;
};

// The pre-seam HwMemory: every register word is a Node*, versions run
// 1, 2, 3, … per register, every write allocates.
class BoxedStorage : public RegisterStorage {
 public:
  BoxedStorage(std::size_t num_registers, int num_threads,
               const BackoffOptions& backoff,
               ReclaimPolicy reclaim = default_reclaim_policy(),
               int reclaim_slots = 0);

  StoragePolicy policy() const override { return StoragePolicy::kBoxed; }

  Value ll(ProcId p, RegId r) override;
  OpResult sc(ProcId p, RegId r, Value v) override;
  OpResult validate(ProcId p, RegId r) override;
  Value swap(ProcId p, RegId r, Value v) override;
  void move(ProcId p, RegId src, RegId dst) override;
  Value rmw(ProcId p, RegId r, const RmwFunction& f) override;

  Value peek_value(RegId r) const override;
  std::uint64_t peek_version(RegId r) const override;

 private:
  // Unconditional install of `v` into r with a version bump (swap/move
  // tail); returns the replaced value. Dereferences through `g`.
  Value install(Reclaimer::Guard& g, ThreadCtx& c, RegId r, Value v);
};

// The bounded-register regime: one 64-bit tagged word per register while
// its values fit, per-register demotion to boxing (or a thrown
// RegisterOverflowError under kInlineStrict) when one does not.
class InlineStorage final : public RegisterStorage {
 public:
  InlineStorage(std::size_t num_registers, int num_threads,
                const BackoffOptions& backoff, bool strict,
                ReclaimPolicy reclaim = default_reclaim_policy(),
                int reclaim_slots = 0);

  StoragePolicy policy() const override {
    return strict_ ? StoragePolicy::kInlineStrict : StoragePolicy::kInline;
  }

  Value ll(ProcId p, RegId r) override;
  OpResult sc(ProcId p, RegId r, Value v) override;
  OpResult validate(ProcId p, RegId r) override;
  Value swap(ProcId p, RegId r, Value v) override;
  void move(ProcId p, RegId src, RegId dst) override;
  Value rmw(ProcId p, RegId r, const RmwFunction& f) override;

  Value peek_value(RegId r) const override;
  std::uint64_t peek_version(RegId r) const override;
  RegisterWidthStats width_stats() const override;

 private:
  // The link a register's current word asserts: the whole word when
  // inline, the node's (even) version when demoted.
  static std::uint64_t link_of(std::uint64_t w) {
    return is_node_word(w) ? as_node(w)->version : w;
  }
  Value value_of(std::uint64_t w) const {
    return is_node_word(w) ? as_node(w)->value : decode_inline(w);
  }
  [[noreturn]] void throw_overflow(RegId r, const Value& v) const;
  // Unconditional install (swap/move tail): inline CAS when the register
  // is inline and `v` fits, demotion or node replacement otherwise.
  Value install(Reclaimer::Guard& g, ThreadCtx& c, RegId r, const Value& v);

  const bool strict_;
};

std::unique_ptr<RegisterStorage> make_register_storage(
    StoragePolicy policy, std::size_t num_registers, int num_threads,
    const BackoffOptions& backoff,
    ReclaimPolicy reclaim = default_reclaim_policy(), int reclaim_slots = 0);

}  // namespace llsc

#endif  // LLSC_HW_REGISTER_STORAGE_H_
