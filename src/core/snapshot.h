// End-of-round snapshots for the (All,A)-run and (S,A)-run drivers, and the
// per-process history hash that stands in for the paper's state(p, r).
//
// A simulated process is a deterministic coroutine: its state after round r
// is a pure function of the sequence of operation results and coin-toss
// outcomes delivered to it. Toss outcomes are themselves a pure function of
// (process, toss index) via the pre-committed assignment, so hashing the
// issued operations and their results (plus the toss count, recorded
// separately in ProcSnapshot) pins state(p, r) down exactly — equal hashes
// and toss counts imply equal states.
//
// A round changes few registers: only an executed op changes a register's
// value or Pset (and a crash recovery's link invalidation, which drops one
// process from every Pset). SnapshotRecorder therefore keeps the previous
// snapshot's registers and re-reads only those this round's ops named;
// the new snapshot shares every other register block with the previous
// one (RegSnapshots, core/round_record.h). It never re-sorts the memory's
// touched set.
#ifndef LLSC_CORE_SNAPSHOT_H_
#define LLSC_CORE_SNAPSHOT_H_

#include <cstdint>
#include <vector>

#include "core/round_record.h"
#include "runtime/system.h"

namespace llsc {

// Running-hash update for one executed operation (issued op + its result).
std::size_t combine_op_into_history(std::size_t h, const OpRecord& rec);

class SnapshotRecorder {
 public:
  explicit SnapshotRecorder(const System& sys);

  // Folds an executed op into its process's history hash and marks its
  // register for re-reading.
  void note(const OpRecord& op);
  // Re-reads every register at the next take(): links were invalidated
  // outside any op.
  void rescan_all() { rescan_ = true; }

  // Snapshot of every process and every touched register, now.
  RoundSnapshot take();

 private:
  const System& sys_;
  std::vector<std::size_t> hist_;
  // The last snapshot's registers; take() hands out copies that share
  // its blocks, and the next round's writes copy only the blocks they hit.
  RegSnapshots regs_;
  std::vector<RegId> dirty_;
  bool rescan_ = true;
};

}  // namespace llsc

#endif  // LLSC_CORE_SNAPSHOT_H_
