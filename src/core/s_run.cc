#include "core/s_run.h"

#include <algorithm>
#include <optional>

#include "core/snapshot.h"
#include "util/check.h"

namespace llsc {

RunLog run_s_run(System& sys, const RunLog& all_log, const UpTracker& up,
                 const ProcSet& s, const SRunOptions& options) {
  const int n = sys.num_processes();
  LLSC_EXPECTS(n == all_log.n, "system size differs from the (All,A)-run");
  LLSC_EXPECTS(up.num_rounds() >= all_log.num_rounds(),
               "UP tracker does not cover the whole (All,A)-run");

  RunLog log;
  log.n = n;
  std::optional<SnapshotRecorder> snaps;
  if (options.record_snapshots) {
    snaps.emplace(sys);
    log.initial = snaps->take();
  }

  UpCover cover(up, s);
  // S_r, ascending. UP(p, ·) only grows, so a process that leaves S_r
  // never returns: each round only filters the previous round's members.
  std::vector<ProcId> s_r;
  for (ProcId p = 0; p < n; ++p) {
    if (cover.process(p, 0)) s_r.push_back(p);
  }
  // The operation group of each process in the All-run's current round
  // (kNone if it took no step); the S-run marks its movers in `moving`.
  constexpr signed char kNone = -1;
  std::vector<signed char> all_group(static_cast<std::size_t>(n), kNone);
  std::vector<char> moving(static_cast<std::size_t>(n), 0);

  for (int round = 1; round <= all_log.num_rounds(); ++round) {
    const RoundRecord& all_rec =
        all_log.rounds[static_cast<std::size_t>(round - 1)];
    RoundRecord rec;
    rec.round = round;

    // S_r: processes whose knowledge entering round r stays within S.
    if (round > 1) {
      std::erase_if(s_r,
                    [&](ProcId p) { return !cover.process(p, round - 1); });
    }
    std::fill(all_group.begin(), all_group.end(), kNone);
    const auto mark = [&](const std::vector<ProcId>& group, OpGroup g) {
      for (const ProcId p : group) {
        all_group[static_cast<std::size_t>(p)] = static_cast<signed char>(g);
      }
    };
    mark(all_rec.g_load, OpGroup::kLoad);
    mark(all_rec.g_move, OpGroup::kMove);
    mark(all_rec.g_swap, OpGroup::kSwap);
    mark(all_rec.g_sc, OpGroup::kStoreConditional);

    // Phase 1: tosses for S_r members, in id order.
    for (const ProcId p : s_r) {
      Process& proc = sys.process(p);
      if (proc.done()) continue;
      sys.advance_through_tosses(p);
      if (proc.done()) rec.terminated_in_phase1.push_back(p);
    }

    // Partition the live members of S_r.
    for (const ProcId p : s_r) {
      const Process& proc = sys.process(p);
      if (proc.done()) continue;
      LLSC_CHECK(proc.step_kind() == StepKind::kOp);
      const OpGroup group = op_group(proc.pending_op().kind);
      if (options.verify_claims) {
        // Claim A.2(3): a scheduled process performs the same kind of
        // operation as in the (All,A)-run's round r. For movers this is
        // Claim A.3 too: S_{2,r} ⊆ G_{2,r}, so restricting sigma_r is
        // well defined.
        LLSC_CHECK(all_group[static_cast<std::size_t>(p)] ==
                       static_cast<signed char>(group),
                   "Claim A.2 violated: operation group differs between "
                   "(All,A)-run and (S,A)-run");
      }
      switch (group) {
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

    // Phase 2: loads, id order.
    for (const ProcId p : rec.g_load) execute(p);

    // Phase 3: moves, in the order sigma_r | S_{2,r}.
    for (const ProcId p : rec.g_move) {
      const PendingOp& op = sys.process(p).pending_op();
      rec.move_set.push_back(MoveOp{.proc = p, .src = op.src, .dst = op.reg});
      moving[static_cast<std::size_t>(p)] = 1;
    }
    // Each marked mover once, in sigma_r's order. Movers absent from
    // sigma_r (possible only when verify_claims is off and the claim
    // fails) are appended so the run still progresses.
    const auto place = [&](ProcId p) {
      char& m = moving[static_cast<std::size_t>(p)];
      if (m == 1) {
        rec.sigma.push_back(p);
        m = 0;
      }
    };
    for (const ProcId p : all_rec.sigma) place(p);
    for (const ProcId p : rec.g_move) place(p);
    for (const ProcId p : rec.sigma) execute(p);

    // Phase 4: swaps, id order.
    for (const ProcId p : rec.g_swap) execute(p);

    // Phase 5: SCs, id order.
    for (const ProcId p : rec.g_sc) execute(p);

    log.rounds.push_back(std::move(rec));
    if (snaps) log.snapshots.push_back(snaps->take());
  }

  log.all_terminated = sys.all_done();
  return log;
}

}  // namespace llsc
