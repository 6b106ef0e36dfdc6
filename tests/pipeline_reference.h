// Test-only oracle for the Theorem 6.1 pipeline: the original UpTracker,
// end-of-round snapshot, Fig. 2 adversary and Fig. 3 (S,A)-run drivers,
// kept verbatim apart from living in namespace llsc::ref. The tracker
// copies every process's UP set and the whole register map each round;
// snapshots re-read every touched register into a std::map; the (S,A)-run
// re-tests UP(p, r-1) ⊆ S for every process every round. Slow, but
// obviously faithful to the paper's wording.
//
// The production code must agree with these bit for bit: the same round
// records, the same snapshots (procs, register values, Psets), the same UP
// sets and Lemma 5.1 maxima. The expect_same_* helpers below compare them.
#ifndef LLSC_TESTS_PIPELINE_REFERENCE_H_
#define LLSC_TESTS_PIPELINE_REFERENCE_H_

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <unordered_set>
#include <vector>

#include "core/adversary.h"
#include "core/proc_set.h"
#include "core/round_record.h"
#include "core/s_run.h"
#include "core/snapshot.h"
#include "core/up_tracker.h"
#include "runtime/system.h"
#include "util/check.h"

namespace llsc {
namespace ref {

// End-of-round snapshot of the whole configuration.
struct RoundSnapshot {
  std::vector<ProcSnapshot> procs;    // indexed by ProcId
  std::map<RegId, RegSnapshot> regs;  // touched registers only
};

struct RunLog {
  int n = 0;
  std::vector<RoundRecord> rounds;
  RoundSnapshot initial;
  std::vector<RoundSnapshot> snapshots;
  bool all_terminated = false;

  const RoundSnapshot& at(int r) const {
    return r == 0 ? initial : snapshots[static_cast<std::size_t>(r - 1)];
  }
  int num_rounds() const { return static_cast<int>(rounds.size()); }
};

class UpTracker {
 public:
  explicit UpTracker(int n) : n_(n), empty_(n) {
    // Round 0: UP(p, 0) = {p}, UP(R, 0) = {} for every register.
    std::vector<ProcSet> procs;
    procs.reserve(static_cast<std::size_t>(n));
    for (ProcId p = 0; p < n; ++p) procs.push_back(ProcSet::singleton(n, p));
    proc_up_.push_back(std::move(procs));
    reg_up_.emplace_back();
  }

  static UpTracker over(const RunLog& log) {
    UpTracker tracker(log.n);
    for (const RoundRecord& rec : log.rounds) tracker.advance(rec);
    return tracker;
  }

  void advance(const RoundRecord& rec) {
    const std::vector<ProcSet>& prev_proc = proc_up_.back();
    const std::map<RegId, ProcSet>& prev_reg = reg_up_.back();

    // Classify this round's operations per register.
    struct RegEvents {
      ProcId successful_sc = -1;
      std::vector<ProcId> swappers;  // in execution order
      bool moved_into = false;
    };
    std::map<RegId, RegEvents> events;
    for (const OpRecord& op : rec.ops) {
      switch (op.op.kind) {
        case OpKind::kSC:
          if (op.result.flag) {
            LLSC_CHECK(events[op.op.reg].successful_sc == -1,
                       "at most one SC per register can succeed per round");
            events[op.op.reg].successful_sc = op.proc;
          }
          break;
        case OpKind::kSwap:
          events[op.op.reg].swappers.push_back(op.proc);
          break;
        case OpKind::kMove:
          events[op.op.reg].moved_into = true;
          break;
        case OpKind::kLL:
        case OpKind::kValidate:
          break;
        case OpKind::kRmw:
          LLSC_UNREACHABLE("the adversary never schedules RMW steps");
      }
    }

    // The move analysis of sigma_r with respect to (G_{2,r}, f_r).
    const MoveAnalysis moves(rec.move_set, rec.sigma);

    // UP-of-source ∪ UPs-of-movers for a register some move targeted.
    const auto move_influx = [&](RegId r) {
      ProcSet s = reg_at(prev_reg, moves.source(r));
      for (const ProcId q : moves.movers(r)) {
        s.unite(prev_proc[static_cast<std::size_t>(q)]);
      }
      return s;
    };

    // --- register update rules ---
    std::map<RegId, ProcSet> new_reg = prev_reg;
    for (const auto& [r, ev] : events) {
      if (ev.successful_sc != -1) {
        new_reg[r] = prev_proc[static_cast<std::size_t>(ev.successful_sc)];
      } else if (!ev.swappers.empty()) {
        new_reg[r] =
            prev_proc[static_cast<std::size_t>(ev.swappers.back())];
      } else if (ev.moved_into) {
        new_reg[r] = move_influx(r);
      }
    }

    // --- process update rules ---
    std::vector<ProcSet> new_proc = prev_proc;
    for (const OpRecord& op : rec.ops) {
      ProcSet& up = new_proc[static_cast<std::size_t>(op.proc)];
      const RegId r = op.op.reg;
      switch (op.op.kind) {
        case OpKind::kLL:
        case OpKind::kValidate:
          up.unite(reg_at(prev_reg, r));
          break;
        case OpKind::kMove:
          break;
        case OpKind::kSwap: {
          const auto& swappers = events.at(r).swappers;
          if (swappers.front() == op.proc) {
            if (!events.at(r).moved_into) {
              up.unite(reg_at(prev_reg, r));
            } else {
              up.unite(move_influx(r));
            }
          } else {
            const auto it =
                std::find(swappers.begin(), swappers.end(), op.proc);
            LLSC_CHECK(it != swappers.end() && it != swappers.begin());
            up.unite(prev_proc[static_cast<std::size_t>(*(it - 1))]);
          }
          break;
        }
        case OpKind::kSC:
          if (op.result.flag) {
            up.unite(reg_at(prev_reg, r));
          } else {
            up.unite(reg_at(new_reg, r));
          }
          break;
        case OpKind::kRmw:
          LLSC_UNREACHABLE("the adversary never schedules RMW steps");
      }
    }

    proc_up_.push_back(std::move(new_proc));
    reg_up_.push_back(std::move(new_reg));
  }

  int num_rounds() const { return static_cast<int>(proc_up_.size()) - 1; }

  const ProcSet& up_process(ProcId p, int r) const {
    LLSC_EXPECTS(r >= 0 && r <= num_rounds(), "round out of range");
    LLSC_EXPECTS(p >= 0 && p < n_, "process out of range");
    return proc_up_[static_cast<std::size_t>(r)][static_cast<std::size_t>(p)];
  }

  const ProcSet& up_register(RegId reg, int r) const {
    LLSC_EXPECTS(r >= 0 && r <= num_rounds(), "round out of range");
    return reg_at(reg_up_[static_cast<std::size_t>(r)], reg);
  }

  // The registers round r's map holds (test access, not in the original).
  std::vector<RegId> registers_at(int r) const {
    std::vector<RegId> out;
    for (const auto& [reg, _] : reg_up_[static_cast<std::size_t>(r)]) {
      out.push_back(reg);
    }
    return out;
  }

  std::size_t max_up_size(int r) const {
    LLSC_EXPECTS(r >= 0 && r <= num_rounds(), "round out of range");
    std::size_t best = 0;
    for (const ProcSet& s : proc_up_[static_cast<std::size_t>(r)]) {
      best = std::max(best, s.count());
    }
    for (const auto& [_, s] : reg_up_[static_cast<std::size_t>(r)]) {
      best = std::max(best, s.count());
    }
    return best;
  }

  bool lemma51_holds() const {
    for (int r = 0; r <= num_rounds(); ++r) {
      if (max_up_size(r) > llsc::UpTracker::lemma51_bound(r)) return false;
    }
    return true;
  }

 private:
  const ProcSet& reg_at(const std::map<RegId, ProcSet>& regs,
                        RegId r) const {
    const auto it = regs.find(r);
    return it == regs.end() ? empty_ : it->second;
  }

  int n_;
  ProcSet empty_;
  std::vector<std::vector<ProcSet>> proc_up_;
  std::vector<std::map<RegId, ProcSet>> reg_up_;
};

inline RoundSnapshot take_snapshot(
    const System& sys, const std::vector<std::size_t>& history_hashes) {
  RoundSnapshot snap;
  const int n = sys.num_processes();
  snap.procs.resize(static_cast<std::size_t>(n));
  for (ProcId p = 0; p < n; ++p) {
    const Process& proc = sys.process(p);
    ProcSnapshot& ps = snap.procs[static_cast<std::size_t>(p)];
    ps.num_tosses = proc.num_tosses();
    ps.shared_ops = proc.shared_ops();
    ps.history_hash = history_hashes[static_cast<std::size_t>(p)];
    ps.done = proc.done();
    if (ps.done) ps.result = proc.result();
  }
  for (const RegId r : sys.memory().touched_registers()) {
    RegSnapshot rs;
    rs.value = sys.memory().peek_value(r);
    const auto& pset = sys.memory().peek_pset(r);
    rs.pset.assign(pset.begin(), pset.end());
    snap.regs.emplace(r, std::move(rs));
  }
  return snap;
}

inline RunLog run_adversary(System& sys, const AdversaryOptions& options = {}) {
  const int n = sys.num_processes();
  RunLog log;
  log.n = n;
  std::vector<std::size_t> hist(static_cast<std::size_t>(n), 0);
  if (options.record_snapshots) log.initial = take_snapshot(sys, hist);

  for (int round = 1; round <= options.max_rounds; ++round) {
    if (sys.all_halted()) break;

    RoundRecord rec;
    rec.round = round;

    for (ProcId p = 0; p < n; ++p) {
      Process& proc = sys.process(p);
      if (proc.crashed() && !sys.maybe_recover(p)) continue;
      if (proc.halted()) continue;
      const bool was_live = true;
      sys.advance_through_tosses(p);
      if (was_live && proc.done()) rec.terminated_in_phase1.push_back(p);
      if (!proc.done()) sys.maybe_crash(p);
    }

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

    const auto execute = [&](ProcId p) {
      const OpRecord op = sys.execute_pending_op(p);
      hist[static_cast<std::size_t>(p)] =
          combine_op_into_history(hist[static_cast<std::size_t>(p)], op);
      rec.ops.push_back(op);
    };

    for (const ProcId p : rec.g_load) execute(p);

    for (const ProcId p : rec.g_move) {
      const PendingOp& op = sys.process(p).pending_op();
      rec.move_set.push_back(MoveOp{.proc = p, .src = op.src, .dst = op.reg});
    }
    rec.sigma = options.secretive_moves
                    ? secretive_complete_schedule(rec.move_set)
                    : rec.g_move;
    for (const ProcId p : rec.sigma) execute(p);

    for (const ProcId p : rec.g_swap) execute(p);

    for (const ProcId p : rec.g_sc) execute(p);

    log.rounds.push_back(std::move(rec));
    if (options.record_snapshots) {
      log.snapshots.push_back(take_snapshot(sys, hist));
    }
  }

  log.all_terminated = sys.all_done();
  return log;
}

namespace internal {

inline int all_run_group(const RoundRecord& rec, ProcId p) {
  const auto in = [p](const std::vector<ProcId>& v) {
    return std::find(v.begin(), v.end(), p) != v.end();
  };
  if (in(rec.g_load)) return static_cast<int>(OpGroup::kLoad);
  if (in(rec.g_move)) return static_cast<int>(OpGroup::kMove);
  if (in(rec.g_swap)) return static_cast<int>(OpGroup::kSwap);
  if (in(rec.g_sc)) return static_cast<int>(OpGroup::kStoreConditional);
  return -1;
}

}  // namespace internal

inline RunLog run_s_run(System& sys, const RunLog& all_log,
                        const UpTracker& up, const ProcSet& s,
                        const SRunOptions& options = {}) {
  const int n = sys.num_processes();
  LLSC_EXPECTS(n == all_log.n, "system size differs from the (All,A)-run");
  LLSC_EXPECTS(up.num_rounds() >= all_log.num_rounds(),
               "UP tracker does not cover the whole (All,A)-run");

  RunLog log;
  log.n = n;
  std::vector<std::size_t> hist(static_cast<std::size_t>(n), 0);
  if (options.record_snapshots) log.initial = take_snapshot(sys, hist);

  for (int round = 1; round <= all_log.num_rounds(); ++round) {
    const RoundRecord& all_rec =
        all_log.rounds[static_cast<std::size_t>(round - 1)];
    RoundRecord rec;
    rec.round = round;

    std::vector<ProcId> s_r;
    for (ProcId p = 0; p < n; ++p) {
      if (up.up_process(p, round - 1).subset_of(s)) s_r.push_back(p);
    }

    for (const ProcId p : s_r) {
      Process& proc = sys.process(p);
      if (proc.done()) continue;
      sys.advance_through_tosses(p);
      if (proc.done()) rec.terminated_in_phase1.push_back(p);
    }

    for (const ProcId p : s_r) {
      const Process& proc = sys.process(p);
      if (proc.done()) continue;
      LLSC_CHECK(proc.step_kind() == StepKind::kOp);
      const OpGroup group = op_group(proc.pending_op().kind);
      if (options.verify_claims) {
        LLSC_CHECK(internal::all_run_group(all_rec, p) ==
                       static_cast<int>(group),
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

    const auto execute = [&](ProcId p) {
      const OpRecord op = sys.execute_pending_op(p);
      hist[static_cast<std::size_t>(p)] =
          combine_op_into_history(hist[static_cast<std::size_t>(p)], op);
      rec.ops.push_back(op);
    };

    for (const ProcId p : rec.g_load) execute(p);

    std::unordered_set<ProcId> move_members(rec.g_move.begin(),
                                            rec.g_move.end());
    if (options.verify_claims) {
      const std::unordered_set<ProcId> all_movers(all_rec.g_move.begin(),
                                                  all_rec.g_move.end());
      for (const ProcId p : rec.g_move) {
        LLSC_CHECK(all_movers.contains(p),
                   "Claim A.3 violated: S-run mover absent from sigma_r");
      }
    }
    for (const ProcId p : rec.g_move) {
      const PendingOp& op = sys.process(p).pending_op();
      rec.move_set.push_back(MoveOp{.proc = p, .src = op.src, .dst = op.reg});
    }
    rec.sigma = restrict_schedule(all_rec.sigma, move_members);
    for (const ProcId p : rec.g_move) {
      if (std::find(rec.sigma.begin(), rec.sigma.end(), p) ==
          rec.sigma.end()) {
        rec.sigma.push_back(p);
      }
    }
    for (const ProcId p : rec.sigma) execute(p);

    for (const ProcId p : rec.g_swap) execute(p);

    for (const ProcId p : rec.g_sc) execute(p);

    log.rounds.push_back(std::move(rec));
    if (options.record_snapshots) {
      log.snapshots.push_back(take_snapshot(sys, hist));
    }
  }

  log.all_terminated = sys.all_done();
  return log;
}

}  // namespace ref

// --- comparisons of the production pipeline against the oracle ---

inline void expect_same_op(const OpRecord& got, const OpRecord& want,
                           const std::string& label, std::size_t i) {
  EXPECT_EQ(got.proc, want.proc) << label << " op " << i;
  EXPECT_EQ(got.op.kind, want.op.kind) << label << " op " << i;
  EXPECT_EQ(got.op.reg, want.op.reg) << label << " op " << i;
  EXPECT_EQ(got.op.src, want.op.src) << label << " op " << i;
  EXPECT_TRUE(got.op.arg == want.op.arg) << label << " op " << i;
  EXPECT_EQ(got.result.flag, want.result.flag) << label << " op " << i;
  EXPECT_TRUE(got.result.value == want.result.value) << label << " op " << i;
  EXPECT_EQ(got.step_index, want.step_index) << label << " op " << i;
}

inline void expect_same_round(const RoundRecord& got, const RoundRecord& want,
                              const std::string& label) {
  EXPECT_EQ(got.round, want.round) << label;
  EXPECT_EQ(got.g_load, want.g_load) << label;
  EXPECT_EQ(got.g_move, want.g_move) << label;
  EXPECT_EQ(got.g_swap, want.g_swap) << label;
  EXPECT_EQ(got.g_sc, want.g_sc) << label;
  EXPECT_EQ(got.move_set, want.move_set) << label;
  EXPECT_EQ(got.sigma, want.sigma) << label;
  EXPECT_EQ(got.terminated_in_phase1, want.terminated_in_phase1) << label;
  ASSERT_EQ(got.ops.size(), want.ops.size()) << label;
  for (std::size_t i = 0; i < got.ops.size(); ++i) {
    expect_same_op(got.ops[i], want.ops[i], label, i);
  }
}

inline void expect_same_snapshot(const RoundSnapshot& got,
                                 const ref::RoundSnapshot& want,
                                 const std::string& label) {
  ASSERT_EQ(got.procs.size(), want.procs.size()) << label;
  for (std::size_t p = 0; p < got.procs.size(); ++p) {
    const ProcSnapshot& a = got.procs[p];
    const ProcSnapshot& b = want.procs[p];
    EXPECT_EQ(a.num_tosses, b.num_tosses) << label << " p" << p;
    EXPECT_EQ(a.shared_ops, b.shared_ops) << label << " p" << p;
    EXPECT_EQ(a.history_hash, b.history_hash) << label << " p" << p;
    EXPECT_EQ(a.done, b.done) << label << " p" << p;
    EXPECT_TRUE(a.result == b.result) << label << " p" << p;
  }
  ASSERT_EQ(got.regs.size(), want.regs.size()) << label;
  auto it = want.regs.begin();
  for (const auto& [reg, rs] : got.regs) {
    EXPECT_EQ(reg, it->first) << label;
    EXPECT_TRUE(rs.value == it->second.value) << label << " R" << reg;
    EXPECT_EQ(rs.pset, it->second.pset) << label << " R" << reg;
    ++it;
  }
}

// Same rounds and same snapshots, round by round.
inline void expect_same_log(const RunLog& got, const ref::RunLog& want,
                            const std::string& label) {
  EXPECT_EQ(got.n, want.n) << label;
  EXPECT_EQ(got.all_terminated, want.all_terminated) << label;
  ASSERT_EQ(got.num_rounds(), want.num_rounds()) << label;
  ASSERT_EQ(got.snapshots.size(), want.snapshots.size()) << label;
  for (int r = 0; r < got.num_rounds(); ++r) {
    expect_same_round(got.rounds[static_cast<std::size_t>(r)],
                      want.rounds[static_cast<std::size_t>(r)],
                      label + " round " + std::to_string(r + 1));
  }
  if (got.snapshots.empty()) return;
  for (int r = 0; r <= got.num_rounds(); ++r) {
    expect_same_snapshot(got.at(r), want.at(r),
                         label + " snapshot " + std::to_string(r));
  }
}

// Every UP(p, r), every UP(R, r) for a register the oracle's map holds or
// some op names, every max_up_size(r), and lemma51_holds().
inline void expect_same_up(const UpTracker& got, const ref::UpTracker& want,
                           const RunLog& log, const std::string& label) {
  ASSERT_EQ(got.num_rounds(), want.num_rounds()) << label;
  std::set<RegId> named;
  for (const RoundRecord& rec : log.rounds) {
    for (const OpRecord& op : rec.ops) {
      named.insert(op.op.reg);
      if (op.op.kind == OpKind::kMove) named.insert(op.op.src);
    }
  }
  for (int r = 0; r <= got.num_rounds(); ++r) {
    const std::string at = label + " r" + std::to_string(r);
    for (ProcId p = 0; p < log.n; ++p) {
      ASSERT_EQ(got.up_process(p, r), want.up_process(p, r))
          << at << " p" << p;
    }
    std::set<RegId> regs = named;
    for (const RegId reg : want.registers_at(r)) regs.insert(reg);
    for (const RegId reg : regs) {
      ASSERT_EQ(got.up_register(reg, r), want.up_register(reg, r))
          << at << " R" << reg;
    }
    EXPECT_EQ(got.max_up_size(r), want.max_up_size(r)) << at;
  }
  EXPECT_EQ(got.lemma51_holds(), want.lemma51_holds()) << label;
}

}  // namespace llsc

#endif  // LLSC_TESTS_PIPELINE_REFERENCE_H_
