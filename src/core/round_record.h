// Per-round records and snapshots of adversary-scheduled runs.
//
// The Fig. 2 adversary structures a run into rounds of five phases. The
// UP-set update rules (Section 5.3), the (S,A)-run construction (Fig. 3)
// and the indistinguishability checker (Lemma 5.2) all consume information
// about what happened in each round: the partition into operation groups,
// the secretive schedule used for the move group, every executed operation
// with its result, and end-of-round state snapshots.
//
// A round changes few registers, so a snapshot's registers are kept in
// blocks that consecutive snapshots share (RegSnapshots): a snapshot costs
// one pointer per block plus the blocks its round changed, not a node per
// register. regs.find() looks a register up by binary search, and a
// range-for walks them in ascending order, which the Lemma 5.2 merge-join
// relies on.
#ifndef LLSC_CORE_ROUND_RECORD_H_
#define LLSC_CORE_ROUND_RECORD_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "memory/op.h"
#include "memory/value.h"
#include "sched/secretive_schedule.h"

namespace llsc {

// What one round of an adversary-scheduled run did.
struct RoundRecord {
  int round = 0;  // 1-based

  // The partition of live processes by the type of their next operation
  // (the paper's G_{1,r} .. G_{4,r}), each in the order scheduled.
  std::vector<ProcId> g_load;  // LL / validate
  std::vector<ProcId> g_move;
  std::vector<ProcId> g_swap;
  std::vector<ProcId> g_sc;

  // The move group's (S, f) and the schedule actually used for it
  // (sigma_r; a secretive complete schedule unless ablated).
  MoveSet move_set;
  std::vector<ProcId> sigma;

  // Every shared-memory operation executed this round, in execution order.
  std::vector<OpRecord> ops;

  // Processes that terminated during this round's Phase 1 (before taking a
  // shared-memory step this round).
  std::vector<ProcId> terminated_in_phase1;
};

// End-of-round snapshot of one process, as visible to the
// indistinguishability relation: number of coin tosses, a running hash of
// the process's personal history (ops issued, results received, toss
// outcomes consumed — for a deterministic coroutine this pins down
// state(p, r)), and termination status/result.
struct ProcSnapshot {
  std::uint64_t num_tosses = 0;
  std::uint64_t shared_ops = 0;
  std::size_t history_hash = 0;
  bool done = false;
  Value result;  // meaningful iff done
};

// End-of-round snapshot of one register: its value and Pset.
struct RegSnapshot {
  Value value;
  std::vector<ProcId> pset;  // ascending
};

// The touched registers of one snapshot, ascending by id. Registers are
// grouped into blocks by id / kBlockIds; each block is a sorted array
// behind a shared pointer, so consecutive snapshots share every block no
// op changed and copying a snapshot copies one pointer per block. Writes
// (upsert, erase) copy a shared block first.
class RegSnapshots {
 public:
  using Entry = std::pair<RegId, RegSnapshot>;
  static constexpr RegId kBlockIds = 64;

  class const_iterator {
   public:
    const_iterator() = default;
    const Entry& operator*() const {
      return (*owner_->blocks_[block_].entries)[entry_];
    }
    const Entry* operator->() const { return &**this; }
    const_iterator& operator++();
    bool operator==(const const_iterator& o) const {
      return block_ == o.block_ && entry_ == o.entry_;
    }

   private:
    friend class RegSnapshots;
    const_iterator(const RegSnapshots* owner, std::size_t block)
        : owner_(owner), block_(block) {}
    const RegSnapshots* owner_ = nullptr;
    std::size_t block_ = 0;
    std::size_t entry_ = 0;
  };

  const_iterator begin() const { return {this, 0}; }
  const_iterator end() const { return {this, blocks_.size()}; }
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  // The snapshot of register r, or nullptr if r is absent.
  const RegSnapshot* find(RegId r) const;
  // The snapshot of register r, inserted (nil, empty Pset) if absent.
  RegSnapshot& upsert(RegId r);
  // Removes register r; false if it was absent.
  bool erase(RegId r);

 private:
  struct Block {
    RegId key;  // id / kBlockIds of every entry
    std::shared_ptr<std::vector<Entry>> entries;  // sorted, non-empty
  };
  // Index of the first block whose key is >= key.
  std::size_t lower_block(RegId key) const;
  // The block's entries, copied first if another snapshot shares them.
  static std::vector<Entry>& own(Block& block);

  std::vector<Block> blocks_;  // ascending by key
  std::size_t size_ = 0;
};

// End-of-round snapshot of the whole configuration.
struct RoundSnapshot {
  std::vector<ProcSnapshot> procs;  // indexed by ProcId
  RegSnapshots regs;                // touched registers only
};

// A complete adversary-structured run: its rounds and per-round snapshots.
// rounds[k] and snapshots[k] describe round k+1; snapshots[k] is the state
// at the END of that round. An extra snapshot at index -1 conceptually
// (round 0 = initial state) is stored as `initial`.
struct RunLog {
  int n = 0;
  std::vector<RoundRecord> rounds;
  RoundSnapshot initial;
  std::vector<RoundSnapshot> snapshots;
  bool all_terminated = false;

  // Convenience: snapshot at end of round r (r == 0 -> initial).
  const RoundSnapshot& at(int r) const {
    return r == 0 ? initial : snapshots[static_cast<std::size_t>(r - 1)];
  }
  int num_rounds() const { return static_cast<int>(rounds.size()); }
};

}  // namespace llsc

#endif  // LLSC_CORE_ROUND_RECORD_H_
