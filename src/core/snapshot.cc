#include "core/snapshot.h"

#include <algorithm>

#include "util/rng.h"

namespace llsc {

std::size_t combine_op_into_history(std::size_t h, const OpRecord& rec) {
  h = mix64(h ^ static_cast<std::size_t>(rec.op.kind));
  h = mix64(h ^ rec.op.reg);
  h = mix64(h ^ rec.op.src);
  h = mix64(h ^ rec.op.arg.hash());
  h = mix64(h ^ (rec.result.flag ? 0x51u : 0xA3u));
  h = mix64(h ^ rec.result.value.hash());
  return h;
}

SnapshotRecorder::SnapshotRecorder(const System& sys)
    : sys_(sys), hist_(static_cast<std::size_t>(sys.num_processes()), 0) {}

void SnapshotRecorder::note(const OpRecord& op) {
  std::size_t& h = hist_[static_cast<std::size_t>(op.proc)];
  h = combine_op_into_history(h, op);
  // validate never changes a register; every other op may (a move changes
  // only its destination, op.reg).
  if (op.op.kind != OpKind::kValidate) dirty_.push_back(op.op.reg);
}

RoundSnapshot SnapshotRecorder::take() {
  RoundSnapshot snap;
  const int n = sys_.num_processes();
  snap.procs.resize(static_cast<std::size_t>(n));
  for (ProcId p = 0; p < n; ++p) {
    const Process& proc = sys_.process(p);
    ProcSnapshot& ps = snap.procs[static_cast<std::size_t>(p)];
    ps.num_tosses = proc.num_tosses();
    ps.shared_ops = proc.shared_ops();
    ps.history_hash = hist_[static_cast<std::size_t>(p)];
    ps.done = proc.done();
    if (ps.done) ps.result = proc.result();
  }

  const SharedMemory& mem = sys_.memory();
  const auto read = [&](RegId r) {
    RegSnapshot& rs = regs_.upsert(r);
    rs.value = mem.peek_value(r);
    const auto& pset = mem.peek_pset(r);
    rs.pset.assign(pset.begin(), pset.end());
  };
  if (rescan_) {
    regs_ = RegSnapshots{};
    for (const RegId r : mem.touched_registers()) read(r);
    rescan_ = false;
  } else {
    std::sort(dirty_.begin(), dirty_.end());
    dirty_.erase(std::unique(dirty_.begin(), dirty_.end()), dirty_.end());
    for (const RegId r : dirty_) {
      // An injected SC failure is a read-only probe: r may be untouched.
      if (mem.is_touched(r)) read(r);
    }
  }
  dirty_.clear();
  snap.regs = regs_;
  return snap;
}

}  // namespace llsc
