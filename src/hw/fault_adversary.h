// Adversarial fault placement: the FaultStrategy implementations.
//
// PR 3's injector is oblivious — every spurious SC/VL failure is a pure
// hash of (seed, proc, op-index). The paper's Fig. 2 adversary is not: it
// watches what every process could have *learned* and aims its failures
// at the most knowledgeable ones, which is exactly what drives the
// Omega(log n) rounds of Theorem 6.1 (knowledge at most quadruples per
// round, Lemma 5.1). This file gives the fault layer that capability:
//
//   * ObliviousStrategy — the PR 3 hash roll, optionally capped by a
//     fault budget. With the budget un-hit it is bit-for-bit the inline
//     path (same salt, same roll), which is tested.
//   * BurstStrategy — correlated failure windows: every SC/VL whose
//     per-process executed-op index k satisfies k % period < len fails
//     (budget permitting). Models correlated reservation loss (cache-line
//     migration storms) rather than independent coin flips.
//   * AdaptiveStrategy — the online adversary. It maintains the same
//     knowledge bookkeeping as core/up_tracker (know(p) per process,
//     know(r) per register, unions on LL/SC/swap/move exactly as in
//     Section 5.3) plus which LL links are live, and spends its entire
//     budget failing SCs/VLs of the *most knowledgeable* live-link
//     process. The target is sticky: it is re-picked only when the
//     current target stops being an argmax, so the budget concentrates
//     on one victim the way the paper's adversary starves one winner.
//   * TraceReplayStrategy — pure (proc, op-index) lookup of a recorded
//     DecisionTrace. This is the replay half of the record/replay
//     contract: every strategy above appends its decisions to a trace;
//     serializing that trace into the plan (fault.cc) and re-running
//     replays the adversarial schedule bit-for-bit on either substrate,
//     because the lookup is as pure as the oblivious hash.
//
// Threading: decide()/observe() arrive on the thread carrying each process
// on the hw backend. The recording strategies serialize on one mutex; the
// serialized order under that lock is the observed history the decisions
// are deterministic in (on the simulator that order is the deterministic
// schedule, so recorded traces are reproducible; on the hw backend the
// trace is the ground truth and replay is what reproduces it).
//
// This translation unit is compiled into llsc_core, not llsc_hw: the
// FaultInjector constructor (header-inline, used by the serial estimator
// in core/lower_bound.cc) calls make_fault_strategy, and llsc_core cannot
// link llsc_hw. See src/core/CMakeLists.txt.
#ifndef LLSC_HW_FAULT_ADVERSARY_H_
#define LLSC_HW_FAULT_ADVERSARY_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/proc_set.h"
#include "hw/fault.h"
#include "memory/op.h"

namespace llsc {

// Budget accounting + decision recording shared by the adversarial
// strategies. All mutable state sits behind one mutex (see file comment).
class RecordingFaultStrategy : public FaultStrategy {
 public:
  // `budget_required`: when true a fault_budget of 0 means "inject
  // nothing" (the adaptive adversary has no rate to fall back on); when
  // false it means "uncapped" (the PR 3 oblivious semantics).
  RecordingFaultStrategy(const FaultPlan& plan, bool budget_required);

  void snapshot_trace(DecisionTrace* out) const override;

  // Decisions recorded so far (quiescent or test use).
  std::size_t decisions_recorded() const;

 protected:
  // Callers hold mu_.
  bool budget_left() const {
    return unlimited_ || budget_remaining_ > 0;
  }
  // Record one decision and spend one unit of budget. Callers hold mu_
  // and have checked budget_left().
  void record(ProcId p, std::uint64_t k, bool is_vl, std::uint64_t score);

  mutable std::mutex mu_;

 private:
  bool unlimited_ = false;
  std::uint64_t budget_remaining_ = 0;
  DecisionTrace trace_;
};

// The PR 3 hash roll behind the strategy seam, budget-capped. With
// fault_budget == 0 (uncapped) its decisions are bit-for-bit the inline
// oblivious path's.
class ObliviousStrategy final : public RecordingFaultStrategy {
 public:
  explicit ObliviousStrategy(const FaultPlan& plan);

  bool decide(ProcId p, std::uint64_t k, const PendingOp& op,
              std::uint64_t h) override;

 private:
  double sc_rate_;
  double vl_rate_;
};

// Correlated failure windows over the per-process executed-op index.
class BurstStrategy final : public RecordingFaultStrategy {
 public:
  explicit BurstStrategy(const FaultPlan& plan);

  bool decide(ProcId p, std::uint64_t k, const PendingOp& op,
              std::uint64_t h) override;

 private:
  std::uint32_t len_;
  std::uint32_t period_;
};

// Section 5.3 knowledge bookkeeping behind its own seam: know(p) per
// process, know(r) per register, unions on LL/SC/swap/move exactly as in
// core/up_tracker, plus which LL links are live. The model is OBJECT-
// AGNOSTIC — it sees raw shared-memory ops, so the same instance accounts
// for a wakeup run, a TAS run, or a leader-election run identically; that
// is what keeps the adaptive adversary's budget accounting uniform across
// workloads. observe() is virtual — the per-object knowledge hook: a
// workload whose object semantics leak more information than the raw op
// stream (say, a response that names another process) can subclass and
// teach the adversary that extra knowledge, while the budget/targeting
// logic in AdaptiveStrategy stays untouched.
//
// Not internally synchronized: the owning strategy's mutex guards it (the
// strategy serializes decide/observe anyway, see the file comment).
class KnowledgeModel {
 public:
  explicit KnowledgeModel(int num_processes);
  virtual ~KnowledgeModel() = default;

  // The hook point: fold one executed op into the knowledge state.
  // Default = the Section 5.3 register/process rules for all six op kinds.
  virtual void observe(ProcId p, const PendingOp& op, const OpResult& result);

  // An amnesiac rejoin: p knows only itself and holds no live links (its
  // dead predecessor's reservations were invalidated, not adopted).
  void on_amnesia(ProcId p);

  int num_processes() const { return n_; }
  bool has_live_link(ProcId p, RegId reg) const;
  std::size_t knowledge(ProcId p) const;  // |know(p)|
  std::size_t max_knowledge() const;
  // Lowest process id attaining max_knowledge().
  ProcId argmax_knowledge() const;

 protected:
  // Building blocks for subclass hooks.
  const ProcSet& reg_knowledge(RegId reg);
  void learn_from(ProcId p, RegId reg);  // know(p) |= know(reg)
  void publish(ProcId p, RegId reg);     // know(reg) = know(p)
  void invalidate_links(RegId reg);      // everyone's link on reg dies
  void set_reg_knowledge(RegId reg, ProcSet s);
  void link(ProcId p, RegId reg);
  void unlink(ProcId p, RegId reg);

 private:
  const int n_;
  std::vector<ProcSet> know_;                    // know(p), Section 5.3
  std::unordered_map<RegId, ProcSet> reg_know_;  // know(r)
  std::vector<std::unordered_set<RegId>> live_links_;
};

// The online Fig. 2-style adversary: fail the most knowledgeable process.
class AdaptiveStrategy final : public RecordingFaultStrategy {
 public:
  AdaptiveStrategy(const FaultPlan& plan, int num_processes);
  // Injects a custom knowledge model (the per-object hook). The default
  // constructor — and make_fault_strategy — install the object-agnostic
  // base model, whose decisions are byte-stable with the pre-seam
  // implementation (pinned by the E13 trace regression test).
  AdaptiveStrategy(const FaultPlan& plan, int num_processes,
                   std::unique_ptr<KnowledgeModel> model);

  bool decide(ProcId p, std::uint64_t k, const PendingOp& op,
              std::uint64_t h) override;
  void observe(ProcId p, std::uint64_t k, const PendingOp& op,
               const OpResult& result) override;
  // Amnesia resets p's knowledge via KnowledgeModel::on_amnesia; a
  // pause-and-resume recovery keeps everything — the frame survived.
  void on_recovery(ProcId p, bool amnesia) override;

  // Test introspection (quiescent use).
  std::size_t knowledge(ProcId p) const;
  ProcId current_target() const;

 private:
  void retarget();  // sticky argmax |know(p)|; callers hold mu_.

  std::unique_ptr<KnowledgeModel> model_;
  ProcId target_ = -1;
};

// Pure replay of a recorded DecisionTrace: p's op k fails iff (p, k) is
// in the trace. Lock-free (the lookup structure is immutable after
// construction); snapshot_trace echoes the input trace, so a replayed
// run re-serializes to the same artifact.
class TraceReplayStrategy final : public FaultStrategy {
 public:
  TraceReplayStrategy(const FaultPlan& plan, int num_processes);

  bool decide(ProcId p, std::uint64_t k, const PendingOp& op,
              std::uint64_t h) override;
  void snapshot_trace(DecisionTrace* out) const override;

 private:
  std::vector<std::unordered_set<std::uint64_t>> fail_at_;  // per proc: {k}
  DecisionTrace trace_;
};

}  // namespace llsc

#endif  // LLSC_HW_FAULT_ADVERSARY_H_
