#include "core/adversary.h"

#include <algorithm>
#include <optional>

#include "core/snapshot.h"
#include "util/check.h"

namespace llsc {

RunLog run_adversary(System& sys, const AdversaryOptions& options) {
  const int n = sys.num_processes();
  RunLog log;
  log.n = n;
  std::optional<SnapshotRecorder> snaps;
  if (options.record_snapshots) {
    snaps.emplace(sys);
    log.initial = snaps->take();
  }

  for (int round = 1; round <= options.max_rounds; ++round) {
    // all_halted, not all_done: with injected crash-stops (hw/fault.h)
    // the remaining rounds would otherwise be empty spins to max_rounds.
    if (sys.all_halted()) break;

    RoundRecord rec;
    rec.round = round;

    // Phase 1: local coin tosses until termination or a pending op. A
    // process whose crash point is reached halts here, before its op is
    // partitioned (crashes happen only at op boundaries). A crashed
    // process whose RecoverySpec still owes it a restart rejoins at the
    // top of the round — the earliest op boundary after its crash, which
    // is also where the hw workers respawn it.
    for (ProcId p = 0; p < n; ++p) {
      Process& proc = sys.process(p);
      if (proc.crashed()) {
        if (!sys.maybe_recover(p)) continue;
        // An amnesiac restart drops p's links from every register.
        if (snaps) snaps->rescan_all();
      }
      if (proc.halted()) continue;
      const bool was_live = true;
      sys.advance_through_tosses(p);
      if (was_live && proc.done()) rec.terminated_in_phase1.push_back(p);
      if (!proc.done()) sys.maybe_crash(p);
    }

    // Partition live processes by the group of their next operation.
    for (ProcId p = 0; p < n; ++p) {
      const Process& proc = sys.process(p);
      if (proc.halted()) continue;
      LLSC_CHECK(proc.step_kind() == StepKind::kOp,
                 "phase 1 must leave a pending shared-memory op");
      switch (op_group(proc.pending_op().kind)) {
        case OpGroup::kLoad:
          rec.g_load.push_back(p);
          break;
        case OpGroup::kMove:
          rec.g_move.push_back(p);
          break;
        case OpGroup::kSwap:
          rec.g_swap.push_back(p);
          break;
        case OpGroup::kStoreConditional:
          rec.g_sc.push_back(p);
          break;
      }
    }

    rec.ops.reserve(rec.g_load.size() + rec.g_move.size() +
                    rec.g_swap.size() + rec.g_sc.size());
    const auto execute = [&](ProcId p) {
      OpRecord op = sys.execute_pending_op(p);
      if (snaps) snaps->note(op);
      rec.ops.push_back(std::move(op));
    };

    // Phase 2: loads, in id order.
    for (const ProcId p : rec.g_load) execute(p);

    // Phase 3: moves, in secretive-complete-schedule order.
    for (const ProcId p : rec.g_move) {
      const PendingOp& op = sys.process(p).pending_op();
      rec.move_set.push_back(MoveOp{.proc = p, .src = op.src, .dst = op.reg});
    }
    rec.sigma = options.secretive_moves
                    ? secretive_complete_schedule(rec.move_set)
                    : rec.g_move;  // ablation: id order
    for (const ProcId p : rec.sigma) execute(p);

    // Phase 4: swaps, in id order.
    for (const ProcId p : rec.g_swap) execute(p);

    // Phase 5: SCs, in id order.
    for (const ProcId p : rec.g_sc) execute(p);

    log.rounds.push_back(std::move(rec));
    if (snaps) log.snapshots.push_back(snaps->take());
  }

  log.all_terminated = sys.all_done();
  return log;
}

}  // namespace llsc
