#include "memory/shared_memory.h"

#include <algorithm>

#include "util/check.h"
#include "util/rng.h"
#include "util/str.h"

namespace llsc {

std::string Register::to_string() const {
  std::vector<std::string> ps;
  ps.reserve(pset.size());
  for (const ProcId p : pset) ps.push_back("p" + std::to_string(p));
  return "(" + value.to_string() + ", {" + join(ps, ",") + "})";
}

std::uint64_t MemoryOpCounts::total() const {
  std::uint64_t sum = 0;
  for (const auto c : by_kind) sum += c;
  return sum;
}

Value SharedMemory::ll(ProcId p, RegId r) {
  ++counts_[OpKind::kLL];
  Register& R = reg(r);
  R.pset.insert(p);
  return R.value;
}

OpResult SharedMemory::sc(ProcId p, RegId r, Value v) {
  ++counts_[OpKind::kSC];
  Register& R = reg(r);
  if (R.pset.contains(p)) {
    note_write(r, v);
    Value prev = R.value;
    R.value = std::move(v);
    R.pset.clear();
    return OpResult{.flag = true, .value = std::move(prev)};
  }
  return OpResult{.flag = false, .value = R.value};
}

OpResult SharedMemory::validate(ProcId p, RegId r) const {
  // validate never mutates register state, hence the const qualifier; the
  // op counter is mutable bookkeeping.
  const_cast<MemoryOpCounts&>(counts_)[OpKind::kValidate]++;
  const Register* R = find(r);
  if (R == nullptr) return OpResult{.flag = false, .value = Value{}};
  return OpResult{.flag = R->pset.contains(p), .value = R->value};
}

Value SharedMemory::swap(ProcId p, RegId r, Value v) {
  (void)p;  // swap's effect does not depend on the invoker
  ++counts_[OpKind::kSwap];
  note_write(r, v);
  Register& R = reg(r);
  Value prev = R.value;
  R.value = std::move(v);
  R.pset.clear();
  return prev;
}

void SharedMemory::move(ProcId p, RegId src, RegId dst) {
  (void)p;
  ++counts_[OpKind::kMove];
  // Read the source before materializing the destination: reg(dst) may
  // rehash the map and invalidate references.
  Value v = src == dst ? reg(src).value : (find(src) ? find(src)->value
                                                     : Value{});
  note_write(dst, v);
  Register& D = reg(dst);
  D.value = std::move(v);
  D.pset.clear();
}

Value SharedMemory::rmw(ProcId p, RegId r, const RmwFunction& f) {
  (void)p;
  ++counts_[OpKind::kRmw];
  Register& R = reg(r);
  Value next = f.apply(R.value);
  note_write(r, next);
  Value prev = std::move(R.value);
  R.value = std::move(next);
  R.pset.clear();
  return prev;
}

OpResult SharedMemory::apply(ProcId p, const PendingOp& op) {
  switch (op.kind) {
    case OpKind::kLL:
      return OpResult{.flag = true, .value = ll(p, op.reg)};
    case OpKind::kSC:
      return sc(p, op.reg, op.arg);
    case OpKind::kValidate:
      return validate(p, op.reg);
    case OpKind::kSwap:
      return OpResult{.flag = true, .value = swap(p, op.reg, op.arg)};
    case OpKind::kMove:
      move(p, op.src, op.reg);
      return OpResult{.flag = true, .value = Value{}};
    case OpKind::kRmw:
      LLSC_EXPECTS(op.rmw != nullptr, "RMW op without a function");
      return OpResult{.flag = true, .value = rmw(p, op.reg, *op.rmw)};
  }
  LLSC_UNREACHABLE("bad OpKind");
}

void SharedMemory::invalidate_links(ProcId p) {
  for (auto& [r, R] : regs_) R.pset.erase(p);
}

const Value& SharedMemory::peek_value(RegId r) const {
  static const Value kNil;
  const Register* R = find(r);
  return R == nullptr ? kNil : R->value;
}

bool SharedMemory::peek_pset_contains(RegId r, ProcId p) const {
  const Register* R = find(r);
  return R != nullptr && R->pset.contains(p);
}

std::size_t SharedMemory::peek_pset_size(RegId r) const {
  const Register* R = find(r);
  return R == nullptr ? 0 : R->pset.size();
}

const std::set<ProcId>& SharedMemory::peek_pset(RegId r) const {
  static const std::set<ProcId> kEmpty;
  const Register* R = find(r);
  return R == nullptr ? kEmpty : R->pset;
}

std::vector<RegId> SharedMemory::touched_registers() const {
  std::vector<RegId> out;
  out.reserve(regs_.size());
  for (const auto& [id, _] : regs_) out.push_back(id);
  std::sort(out.begin(), out.end());
  return out;
}

std::size_t SharedMemory::state_hash() const {
  // Order-independent combination over registers (the map iteration order is
  // unspecified): XOR of per-register hashes, each mixed with the id.
  std::size_t acc = 0;
  for (const auto& [id, R] : regs_) {
    std::size_t h = mix64(id);
    h = mix64(h ^ R.value.hash());
    for (const ProcId p : R.pset) {
      h = mix64(h ^ static_cast<std::size_t>(p) ^ 0x9E3779B97F4A7C15ULL);
    }
    acc ^= h;
  }
  return acc;
}

void SharedMemory::note_write(RegId r, const Value& v) {
  ++width_.writes_inspected;
  const std::size_t bits = v.encoded_bits();
  if (bits > width_.max_bits) width_.max_bits = bits;
  if (storage_ == StoragePolicy::kBoxed) {
    ++width_.boxed_installs;
    // Boxed hw installs a fresh node and retires the predecessor (the
    // very first install retires the register's initial node, which was
    // never charged to allocation) — so both counters advance together.
    ++reclaim_.nodes_allocated;
    ++reclaim_.nodes_retired;
    return;
  }
  const bool was_demoted = demoted_.contains(r);
  const bool fits = value_fits_inline(v);
  if (!fits) {
    ++width_.overflow_events;
    demoted_.insert(r);
  }
  if (fits && !was_demoted) {
    ++width_.inline_installs;
  } else {
    ++width_.boxed_installs;
    // A node-path install allocates; it retires a node only when the
    // register already held one (demoted before this install). The first
    // demoting install replaces an inline word — nothing to retire.
    ++reclaim_.nodes_allocated;
    if (was_demoted) ++reclaim_.nodes_retired;
  }
}

ReclaimStats SharedMemory::reclaim_stats() const {
  ReclaimStats s = reclaim_;
  s.policy = reclaim_policy_;
  return s;
}

RegisterWidthStats SharedMemory::width_stats() const {
  RegisterWidthStats s = width_;
  s.policy = storage_;
  s.boxed_fallback_registers = demoted_.size();
  attribute_boxed_fallbacks(
      groups_, std::vector<RegId>(demoted_.begin(), demoted_.end()), s);
  return s;
}

Register& SharedMemory::reg(RegId r) { return regs_[r]; }

const Register* SharedMemory::find(RegId r) const {
  const auto it = regs_.find(r);
  return it == regs_.end() ? nullptr : &it->second;
}

}  // namespace llsc
