#include "core/up_tracker.h"

#include <algorithm>

#include "util/check.h"

namespace llsc {

UpTracker::UpTracker(int n) : n_(n) {
  // Round 0: UP(p, 0) = {p}, UP(R, 0) = {} for every register.
  add(ProcSet(n));
  std::vector<SetId> procs;
  procs.reserve(static_cast<std::size_t>(n));
  for (ProcId p = 0; p < n; ++p) procs.push_back(add(ProcSet::singleton(n, p)));
  proc_ids_.push_back(std::move(procs));
  reg_ids_.emplace_back();
  max_sizes_.push_back(n > 0 ? 1 : 0);
}

UpTracker UpTracker::over(const RunLog& log) {
  UpTracker tracker(log.n);
  for (const RoundRecord& rec : log.rounds) tracker.advance(rec);
  return tracker;
}

UpTracker::SetId UpTracker::add(ProcSet s) {
  sizes_.push_back(static_cast<std::uint32_t>(s.count()));
  pool_.push_back(std::move(s));
  return static_cast<SetId>(pool_.size() - 1);
}

UpTracker::SetId UpTracker::unite(SetId a, SetId b) {
  if (a == b || b == kEmpty) return a;
  if (a == kEmpty) return b;
  // A larger set is never a subset of a smaller one.
  if (sizes_[b] <= sizes_[a] && pool_[b].subset_of(pool_[a])) return a;
  if (sizes_[a] <= sizes_[b] && pool_[a].subset_of(pool_[b])) return b;
  ProcSet u = pool_[a];
  u.unite(pool_[b]);
  return add(std::move(u));
}

UpTracker::SetId UpTracker::reg_id(const std::vector<SetId>& ids,
                                   RegId reg) const {
  const auto it = slots_.find(reg);
  return it != slots_.end() && it->second < ids.size() ? ids[it->second]
                                                       : kEmpty;
}

void UpTracker::advance(const RoundRecord& rec) {
  // Classify this round's operations per register. Each register with an
  // event gets a slot (once, ever) and its events sit at that slot.
  touched_.clear();
  const auto event = [&](RegId reg) -> RegEvents& {
    const auto [it, fresh] =
        slots_.try_emplace(reg, static_cast<std::uint32_t>(slots_.size()));
    if (fresh) events_.emplace_back();
    RegEvents& ev = events_[it->second];
    if (ev.reg != reg) {
      ev = RegEvents{.reg = reg};
      touched_.push_back(it->second);
    }
    return ev;
  };
  for (const OpRecord& op : rec.ops) {
    switch (op.op.kind) {
      case OpKind::kSC:
        if (op.result.flag) {
          RegEvents& ev = event(op.op.reg);
          LLSC_CHECK(ev.successful_sc == -1,
                     "at most one SC per register can succeed per round");
          ev.successful_sc = op.proc;
        }
        break;
      case OpKind::kSwap:
        event(op.op.reg).last_swapper = op.proc;
        break;
      case OpKind::kMove:
        event(op.op.reg).moved_into = true;
        break;
      case OpKind::kLL:
      case OpKind::kValidate:
        break;
      case OpKind::kRmw:
        LLSC_UNREACHABLE("the adversary never schedules RMW steps");
    }
  }

  const std::size_t r = proc_ids_.size() - 1;
  std::vector<SetId> new_proc = proc_ids_[r];
  std::vector<SetId> new_reg = reg_ids_[r];
  new_reg.resize(slots_.size(), kEmpty);
  const std::vector<SetId>& prev_proc = proc_ids_[r];
  const std::vector<SetId>& prev_reg = reg_ids_[r];
  const auto of_proc = [&](ProcId q) {
    return prev_proc[static_cast<std::size_t>(q)];
  };

  // The move analysis of sigma_r with respect to (G_{2,r}, f_r).
  const MoveAnalysis moves(rec.move_set, rec.sigma);
  const auto move_influx = [&](RegId reg, RegEvents& ev) {
    if (!ev.has_influx) {
      SetId s = reg_id(prev_reg, moves.source(reg));
      for (const ProcId q : moves.movers(reg)) s = unite(s, of_proc(q));
      ev.influx = s;
      ev.has_influx = true;
    }
    return ev.influx;
  };

  // --- register update rules ---
  for (const std::uint32_t slot : touched_) {
    RegEvents& ev = events_[slot];
    const RegId reg = ev.reg;
    SetId& up = new_reg[slot];
    if (ev.successful_sc != -1) {
      // Rule 1: the successful SC's writer determines the value.
      up = of_proc(ev.successful_sc);
    } else if (ev.last_swapper != -1) {
      // Rule 2: the last swapper determines the value.
      up = of_proc(ev.last_swapper);
    } else if (ev.moved_into) {
      // Rule 3: the moved-in source value, enabled by the movers.
      up = move_influx(reg, ev);
    }
    // Rule 4 (no change) is the default: new_reg started as prev_reg.
  }

  // --- process update rules ---
  for (const OpRecord& op : rec.ops) {
    SetId& up = new_proc[static_cast<std::size_t>(op.proc)];
    const RegId reg = op.op.reg;
    switch (op.op.kind) {
      case OpKind::kLL:
      case OpKind::kValidate:
        // Rule 1: loads in Phase 2 observe end-of-round-(r-1) values.
        up = unite(up, reg_id(prev_reg, reg));
        break;
      case OpKind::kMove:
        // Rule 2: move returns only an ack; no information gained.
        break;
      case OpKind::kSwap: {
        RegEvents& ev = events_[slots_.at(reg)];
        if (ev.prev_swapper == -1) {
          if (!ev.moved_into) {
            // Rule 3: the first swapper reads the end-of-(r-1) value.
            up = unite(up, reg_id(prev_reg, reg));
          } else {
            // Rule 4: the first swapper reads what the moves brought in.
            up = unite(up, move_influx(reg, ev));
          }
        } else {
          // Rule 5: a later swapper reads what the previous swapper wrote.
          up = unite(up, of_proc(ev.prev_swapper));
        }
        ev.prev_swapper = op.proc;
        break;
      }
      case OpKind::kSC:
        if (op.result.flag) {
          // Rule 6: a successful SC returns the end-of-(r-1) value.
          up = unite(up, reg_id(prev_reg, reg));
        } else {
          // Rule 7: an unsuccessful SC may observe this round's new value.
          up = unite(up, reg_id(new_reg, reg));
        }
        break;
      case OpKind::kRmw:
        LLSC_UNREACHABLE("the adversary never schedules RMW steps");
    }
  }
  // Rule 8 (no operation -> unchanged) is the default via the copy.

  std::size_t best = 0;
  for (const SetId id : new_proc) best = std::max<std::size_t>(best, sizes_[id]);
  for (const SetId id : new_reg) best = std::max<std::size_t>(best, sizes_[id]);
  max_sizes_.push_back(best);
  // Retire this round's events: a slot is live only while ev.reg matches.
  for (const std::uint32_t slot : touched_) events_[slot].reg = kNoReg;
  proc_ids_.push_back(std::move(new_proc));
  reg_ids_.push_back(std::move(new_reg));
}

UpTracker::SetId UpTracker::process_set(ProcId p, int r) const {
  LLSC_EXPECTS(r >= 0 && r <= num_rounds(), "round out of range");
  LLSC_EXPECTS(p >= 0 && p < n_, "process out of range");
  return proc_ids_[static_cast<std::size_t>(r)][static_cast<std::size_t>(p)];
}

UpTracker::SetId UpTracker::register_set(RegId reg, int r) const {
  LLSC_EXPECTS(r >= 0 && r <= num_rounds(), "round out of range");
  return reg_id(reg_ids_[static_cast<std::size_t>(r)], reg);
}

std::size_t UpTracker::max_up_size(int r) const {
  LLSC_EXPECTS(r >= 0 && r <= num_rounds(), "round out of range");
  return max_sizes_[static_cast<std::size_t>(r)];
}

std::size_t UpTracker::lemma51_bound(int r) {
  std::size_t bound = 1;
  for (int i = 0; i < r; ++i) {
    if (bound > (~std::size_t{0}) / 4) return ~std::size_t{0};
    bound *= 4;
  }
  return bound;
}

bool UpTracker::lemma51_holds() const {
  for (int r = 0; r <= num_rounds(); ++r) {
    if (max_up_size(r) > lemma51_bound(r)) return false;
  }
  return true;
}

bool UpCover::covered(UpTracker::SetId id) {
  if (id >= memo_.size()) memo_.resize(up_.num_sets(), -1);
  signed char& m = memo_[id];
  if (m < 0) m = up_.set(id).subset_of(s_) ? 1 : 0;
  return m == 1;
}

}  // namespace llsc
