// UP-set bookkeeping (paper Section 5.3).
//
// For a run structured by the Fig. 2 adversary, UP(p, r) is the set of
// processes p could possibly know to be "up" (to have taken a step) by the
// end of round r, and UP(R, r) is the set inferable from register R's value
// at the end of round r. The update rules are conservative upper bounds on
// information flow through each of the five operations:
//
//   registers:  a successful SC installs the writer's knowledge; swaps
//   install the last swapper's; moves install the source register's
//   knowledge plus that of the (at most two, by Lemma 4.1) movers; an
//   untouched register keeps yesterday's set.
//
//   processes:  loads and successful SCs acquire the register's previous
//   set; an unsuccessful SC may observe the value written this round, so it
//   acquires the register's *new* set; the first swapper acquires what the
//   register held (through moves, if any); later swappers acquire the
//   previous swapper's set (they read what that swapper wrote); movers
//   learn nothing (move returns only an ack).
//
// Lemma 5.1: every UP set has size at most 4^r after r rounds — each rule
// unions at most four sets. The tracker records the per-round maximum so
// the lemma can be checked empirically (and its failure demonstrated when
// the secretive move schedule is ablated).
//
// Storage: a set changes in few (X, r) pairs — a rule that adds nothing
// leaves UP(X, r) = UP(X, r-1), and the register rules mostly install a
// process's set as is. So the tracker keeps one pool of distinct ProcSets
// and, per round, a flat array of pool ids: one per process and one per
// register slot (a dense index over every register a rule ever wrote). A
// rule that adds nothing reuses the previous id, and a union equal to one
// of its operands reuses that operand's id; only a genuinely new set is
// added to the pool. UpCover memoizes "⊆ S" per pooled id, so the
// (S,A)-run and the Lemma 5.2 check test each distinct set once.
#ifndef LLSC_CORE_UP_TRACKER_H_
#define LLSC_CORE_UP_TRACKER_H_

#include <cstdint>
#include <deque>
#include <unordered_map>
#include <vector>

#include "core/proc_set.h"
#include "core/round_record.h"

namespace llsc {

class UpTracker {
 public:
  // Id of a pooled set. Equal ids mean equal sets (not conversely).
  using SetId = std::uint32_t;

  explicit UpTracker(int n);

  // Incorporate one more round (records must be fed in round order).
  void advance(const RoundRecord& rec);

  // Convenience: track a whole run log.
  static UpTracker over(const RunLog& log);

  int num_rounds() const { return static_cast<int>(proc_ids_.size()) - 1; }

  // UP(p, r): 0 <= r <= num_rounds(). The reference stays valid for the
  // tracker's lifetime.
  const ProcSet& up_process(ProcId p, int r) const {
    return set(process_set(p, r));
  }
  // UP(R, r); registers never written have the empty set.
  const ProcSet& up_register(RegId reg, int r) const {
    return set(register_set(reg, r));
  }

  // The pool ids behind up_process / up_register.
  SetId process_set(ProcId p, int r) const;
  SetId register_set(RegId reg, int r) const;
  const ProcSet& set(SetId id) const { return pool_[id]; }
  std::size_t num_sets() const { return pool_.size(); }

  // max over all processes and registers of |UP(X, r)|.
  std::size_t max_up_size(int r) const;
  // 4^r saturated to SIZE_MAX (the Lemma 5.1 bound).
  static std::size_t lemma51_bound(int r);
  // True iff max_up_size(r) <= min(4^r, n) for all r so far.
  bool lemma51_holds() const;

 private:
  static constexpr SetId kEmpty = 0;

  SetId add(ProcSet s);
  // The id of pool_[a] ∪ pool_[b], reusing a or b when the union equals it.
  SetId unite(SetId a, SetId b);
  // The id `ids` (one round's register array) holds for reg.
  SetId reg_id(const std::vector<SetId>& ids, RegId reg) const;

  int n_;
  std::deque<ProcSet> pool_;  // deque: references survive growth
  std::vector<std::uint32_t> sizes_;  // sizes_[id] = |pool_[id]|
  // proc_ids_[r][p] = id of UP(p, r); reg_ids_[r][slot] = id of UP(R, r),
  // with slots past the end of round r's array holding the empty set.
  std::vector<std::vector<SetId>> proc_ids_;
  std::vector<std::vector<SetId>> reg_ids_;
  std::unordered_map<RegId, std::uint32_t> slots_;
  std::vector<std::size_t> max_sizes_;

  // advance()'s per-slot scratch: what this round's ops did to a register.
  static constexpr RegId kNoReg = ~RegId{0};
  struct RegEvents {
    RegId reg = kNoReg;  // kNoReg: no event this round
    ProcId successful_sc = -1;
    ProcId last_swapper = -1;
    bool moved_into = false;
    // The swapper whose value the next swapper of this round reads.
    ProcId prev_swapper = -1;
    // UP-of-source ∪ UPs-of-movers, once computed.
    bool has_influx = false;
    SetId influx = kEmpty;
  };
  std::vector<RegEvents> events_;      // indexed by slot
  std::vector<std::uint32_t> touched_;  // slots with events this round
};

// "UP(X, r) ⊆ S" for one S, memoized per pooled set: after the first test
// of a set, every process or register sharing it costs one lookup.
class UpCover {
 public:
  UpCover(const UpTracker& up, const ProcSet& s) : up_(up), s_(s) {}

  bool process(ProcId p, int r) { return covered(up_.process_set(p, r)); }
  bool reg(RegId reg, int r) { return covered(up_.register_set(reg, r)); }

 private:
  bool covered(UpTracker::SetId id);

  const UpTracker& up_;
  const ProcSet& s_;
  std::vector<signed char> memo_;  // -1 untested, else 0/1
};

}  // namespace llsc

#endif  // LLSC_CORE_UP_TRACKER_H_
