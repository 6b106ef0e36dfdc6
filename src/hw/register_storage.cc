#include "hw/register_storage.h"

#include <algorithm>
#include <utility>

#include "util/check.h"

namespace llsc {

RegisterStorage::RegisterStorage(std::size_t num_registers, int num_threads,
                                 const BackoffOptions& backoff,
                                 ReclaimPolicy reclaim, int reclaim_slots)
    : regs_(num_registers),
      backoff_options_(backoff),
      reclaimer_(make_reclaimer(
          reclaim, reclaim_slots > 0 ? reclaim_slots : num_threads)) {
  // A Node* must leave bit 0 clear for the inline-word discriminator.
  static_assert(alignof(Node) >= 2);
  LLSC_EXPECTS(num_registers >= 1, "need at least one register");
  LLSC_EXPECTS(num_threads >= 1, "need at least one thread slot");
  ctxs_.reserve(static_cast<std::size_t>(num_threads));
  for (int t = 0; t < num_threads; ++t) {
    auto c = std::make_unique<ThreadCtx>();
    c->link.assign(num_registers, 0);
    c->backoff = Backoff(backoff_options_);
    ctxs_.push_back(std::move(c));
  }
}

RegisterStorage::~RegisterStorage() {
  // Quiescent teardown: free live boxed heads here; the Reclaimer's
  // destructor frees everything still on its retired lists.
  for (auto& r : regs_) {
    const std::uint64_t w = r.word.load(std::memory_order_relaxed);
    if (w != 0 && is_node_word(w)) delete as_node(w);
  }
}

RegisterStorage::ThreadCtx& RegisterStorage::ctx(ProcId p) {
  LLSC_EXPECTS(p >= 0 && static_cast<std::size_t>(p) < ctxs_.size(),
               "process id outside this memory's thread slots");
  return *ctxs_[static_cast<std::size_t>(p)];
}

void RegisterStorage::invalidate_links(ProcId p) {
  // Owner-thread private data (see header): a zero link word means "no
  // live link", so every SC/VL of the new incarnation fails until it LLs.
  ThreadCtx& c = ctx(p);
  std::fill(c.link.begin(), c.link.end(), 0);
  // The dead incarnation's reclamation protections die with it: its guard
  // already unwound during the crash, so this reset is idempotent, but a
  // restart must never inherit a protection (or pinned epoch) it did not
  // take itself.
  reclaimer_->release(reclaimer_->slot_of(p));
}

std::atomic<std::uint64_t>& RegisterStorage::word(RegId r) {
  LLSC_EXPECTS(r < regs_.size(),
               "register id outside this memory's fixed table");
  return regs_[static_cast<std::size_t>(r)].word;
}

const std::atomic<std::uint64_t>& RegisterStorage::word(RegId r) const {
  LLSC_EXPECTS(r < regs_.size(),
               "register id outside this memory's fixed table");
  return regs_[static_cast<std::size_t>(r)].word;
}

RegisterStorage::Node* RegisterStorage::make_node(ThreadCtx& c, Value v,
                                                  std::uint64_t version) {
  ++c.allocated;
  return new Node{std::move(v), version};
}

void RegisterStorage::note_install(ThreadCtx& c, const Value& v,
                                   bool inline_install) {
  note_install_bits(c, v.encoded_bits(), inline_install);
}

void RegisterStorage::note_install_bits(ThreadCtx& c,
                                        std::size_t encoded_bits,
                                        bool inline_install) {
  ++c.writes_inspected;
  if (encoded_bits > c.max_bits) c.max_bits = encoded_bits;
  if (inline_install) {
    ++c.inline_installs;
  } else {
    ++c.boxed_installs;
  }
}

bool RegisterStorage::peek_link_live(RegId r, ProcId p) const {
  const ThreadCtx& c = *ctxs_[static_cast<std::size_t>(p)];
  const std::uint64_t linked = c.link[static_cast<std::size_t>(r)];
  return linked != 0 && peek_version(r) == linked;
}

HwReclaimStats RegisterStorage::reclaim_stats() const {
  HwReclaimStats s = reclaimer_->stats();
  for (const auto& c : ctxs_) {
    s.nodes_allocated += c->allocated;
  }
  return s;
}

HwBackoffStats RegisterStorage::backoff_stats() const {
  HwBackoffStats s;
  s.policy = backoff_options_.policy;
  for (const auto& c : ctxs_) {
    const BackoffStats& b = c->backoff.stats();
    s.cas_failures += b.cas_failures;
    s.cas_successes += b.cas_successes;
    s.spin_pauses += b.spin_pauses;
    s.yields += b.yields;
  }
  return s;
}

RegisterWidthStats RegisterStorage::width_stats() const {
  RegisterWidthStats s;
  s.policy = policy();
  for (const auto& c : ctxs_) {
    s.writes_inspected += c->writes_inspected;
    if (c->max_bits > s.max_bits) s.max_bits = c->max_bits;
    s.overflow_events += c->overflow_events;
    s.inline_installs += c->inline_installs;
    s.boxed_installs += c->boxed_installs;
  }
  return s;
}

// --- BoxedStorage --------------------------------------------------------

BoxedStorage::BoxedStorage(std::size_t num_registers, int num_threads,
                           const BackoffOptions& backoff,
                           ReclaimPolicy reclaim, int reclaim_slots)
    : RegisterStorage(num_registers, num_threads, backoff, reclaim,
                      reclaim_slots) {
  // Registers start as (nil, version 1): a plain nil node per register so
  // operations never see a null head. Initial nodes are not charged to any
  // thread's allocation counter (they predate all operations).
  for (auto& r : regs_) {
    r.word.store(from_node(new Node{Value{}, 1}), std::memory_order_relaxed);
  }
}

Value BoxedStorage::ll(ProcId p, RegId r) {
  ThreadCtx& c = ctx(p);
  Reclaimer::Guard g(*reclaimer_, p);
  Node* cur = as_node(g.acquire(word(r)));
  c.link[static_cast<std::size_t>(r)] = cur->version;
  return cur->value;
}

OpResult BoxedStorage::sc(ProcId p, RegId r, Value v) {
  ThreadCtx& c = ctx(p);
  Reclaimer::Guard g(*reclaimer_, p);
  // The link dies on this SC no matter what (paper: a successful SC
  // clears the whole Pset including the writer; a failed SC means the
  // link was already dead).
  const std::uint64_t linked =
      std::exchange(c.link[static_cast<std::size_t>(r)], 0);
  std::atomic<std::uint64_t>& h = word(r);
  std::uint64_t curw = g.acquire(h);
  Node* cur = as_node(curw);
  if (linked == 0 || cur->version != linked) {
    return OpResult{.flag = false, .value = cur->value};
  }
  Node* fresh = make_node(c, std::move(v), cur->version + 1);
  // Width bits while fresh is still private: once published it may be
  // replaced, retired, and freed by a concurrent writer before we read
  // it (the hazard word protects cur, not fresh).
  const std::size_t fresh_bits = fresh->value.encoded_bits();
  if (h.compare_exchange_strong(curw, from_node(fresh),
                                std::memory_order_acq_rel,
                                std::memory_order_acquire)) {
    Value prev = cur->value;
    g.retire(cur);
    note_install_bits(c, fresh_bits, /*inline_install=*/false);
    return OpResult{.flag = true, .value = std::move(prev)};
  }
  // Lost the race: a concurrent write invalidated the link between our
  // load and the CAS. `curw` was reloaded by the failed CAS; confirm
  // re-protects it (a no-op under epochs) so reporting its value is safe.
  delete fresh;
  --c.allocated;
  curw = g.confirm(h, curw);
  return OpResult{.flag = false, .value = as_node(curw)->value};
}

OpResult BoxedStorage::validate(ProcId p, RegId r) {
  ThreadCtx& c = ctx(p);
  Reclaimer::Guard g(*reclaimer_, p);
  Node* cur = as_node(g.acquire(word(r)));
  const std::uint64_t linked = c.link[static_cast<std::size_t>(r)];
  return OpResult{.flag = linked != 0 && cur->version == linked,
                  .value = cur->value};
}

Value BoxedStorage::install(Reclaimer::Guard& g, ThreadCtx& c, RegId r,
                            Value v) {
  std::atomic<std::uint64_t>& h = word(r);
  Node* fresh = make_node(c, std::move(v), 0);
  const std::size_t fresh_bits = fresh->value.encoded_bits();
  std::uint64_t curw = g.acquire(h);
  c.backoff.begin_op();
  for (;;) {
    fresh->version = as_node(curw)->version + 1;
    if (h.compare_exchange_weak(curw, from_node(fresh),
                                std::memory_order_acq_rel,
                                std::memory_order_acquire)) {
      break;
    }
    c.backoff.on_failure();
    curw = g.confirm(h, curw);
  }
  c.backoff.on_success();
  Node* cur = as_node(curw);
  Value prev = cur->value;
  g.retire(cur);
  note_install_bits(c, fresh_bits, /*inline_install=*/false);
  return prev;
}

Value BoxedStorage::swap(ProcId p, RegId r, Value v) {
  ThreadCtx& c = ctx(p);
  Reclaimer::Guard g(*reclaimer_, p);
  Value prev = install(g, c, r, std::move(v));
  // The install cleared r's Pset; the writer's own link dies with it.
  c.link[static_cast<std::size_t>(r)] = 0;
  return prev;
}

void BoxedStorage::move(ProcId p, RegId src, RegId dst) {
  LLSC_EXPECTS(src != dst, "move(R, R) is excluded from the model");
  ThreadCtx& c = ctx(p);
  Reclaimer::Guard g(*reclaimer_, p);
  // Two linearization points (read src, install into dst) where the
  // paper's move is one step — see docs/hw_backend.md §relaxations.
  Value v = as_node(g.acquire(word(src)))->value;
  (void)install(g, c, dst, std::move(v));
  c.link[static_cast<std::size_t>(dst)] = 0;
}

Value BoxedStorage::rmw(ProcId p, RegId r, const RmwFunction& f) {
  ThreadCtx& c = ctx(p);
  Reclaimer::Guard g(*reclaimer_, p);
  std::atomic<std::uint64_t>& h = word(r);
  c.backoff.begin_op();
  for (;;) {
    std::uint64_t curw = g.acquire(h);
    Node* cur = as_node(curw);
    Node* fresh = make_node(c, f.apply(cur->value), cur->version + 1);
    const std::size_t fresh_bits = fresh->value.encoded_bits();
    if (h.compare_exchange_strong(curw, from_node(fresh),
                                  std::memory_order_acq_rel,
                                  std::memory_order_acquire)) {
      c.backoff.on_success();
      Value prev = cur->value;
      g.retire(cur);
      note_install_bits(c, fresh_bits, /*inline_install=*/false);
      c.link[static_cast<std::size_t>(r)] = 0;
      return prev;
    }
    delete fresh;
    --c.allocated;
    c.backoff.on_failure();
  }
}

Value BoxedStorage::peek_value(RegId r) const {
  return as_node(word(r).load(std::memory_order_acquire))->value;
}

std::uint64_t BoxedStorage::peek_version(RegId r) const {
  return as_node(word(r).load(std::memory_order_acquire))->version;
}

// --- InlineStorage -------------------------------------------------------

InlineStorage::InlineStorage(std::size_t num_registers, int num_threads,
                             const BackoffOptions& backoff,
                             ReclaimPolicy reclaim, int reclaim_slots)
    : RegisterStorage(num_registers, num_threads, backoff, reclaim,
                      reclaim_slots) {
  // Registers start as inline (nil, tag 1) — no allocation at all until a
  // value overflows the word.
  const std::uint64_t nil_word = encode_inline(Value{}, 1);
  for (auto& r : regs_) {
    r.word.store(nil_word, std::memory_order_relaxed);
  }
}

Value InlineStorage::ll(ProcId p, RegId r) {
  ThreadCtx& c = ctx(p);
  Reclaimer::Guard g(*reclaimer_, p);
  const std::uint64_t cur = g.acquire(word(r));
  c.link[static_cast<std::size_t>(r)] = link_of(cur);
  return value_of(cur);
}

OpResult InlineStorage::sc(ProcId p, RegId r, Value v) {
  ThreadCtx& c = ctx(p);
  Reclaimer::Guard g(*reclaimer_, p);
  const std::uint64_t linked =
      std::exchange(c.link[static_cast<std::size_t>(r)], 0);
  std::atomic<std::uint64_t>& h = word(r);
  std::uint64_t cur = g.acquire(h);
  if (linked == 0 || link_of(cur) != linked) {
    return OpResult{.flag = false, .value = value_of(cur)};
  }
  const bool fits = value_fits_inline(v);
  if (!is_node_word(cur) && fits) {
    // The pure bounded-register path: one CAS, no allocation.
    const std::uint64_t fresh =
        encode_inline(v, next_inline_tag(inline_tag(cur)));
    if (h.compare_exchange_strong(cur, fresh, std::memory_order_acq_rel,
                                  std::memory_order_acquire)) {
      Value prev = decode_inline(cur);
      note_install(c, v, /*inline_install=*/true);
      return OpResult{.flag = true, .value = std::move(prev)};
    }
    cur = g.confirm(h, cur);
    return OpResult{.flag = false, .value = value_of(cur)};
  }
  // Demote the register (first even-version node) or replace the node of
  // an already-demoted one.
  Node* fresh = make_node(
      c, std::move(v), is_node_word(cur) ? as_node(cur)->version + 2 : 2);
  const std::size_t fresh_bits = fresh->value.encoded_bits();
  if (h.compare_exchange_strong(cur, from_node(fresh),
                                std::memory_order_acq_rel,
                                std::memory_order_acquire)) {
    Value prev;
    if (is_node_word(cur)) {
      prev = as_node(cur)->value;
      g.retire(as_node(cur));
    } else {
      prev = decode_inline(cur);
    }
    if (!fits) ++c.overflow_events;
    note_install_bits(c, fresh_bits, /*inline_install=*/false);
    return OpResult{.flag = true, .value = std::move(prev)};
  }
  delete fresh;
  --c.allocated;
  cur = g.confirm(h, cur);
  return OpResult{.flag = false, .value = value_of(cur)};
}

OpResult InlineStorage::validate(ProcId p, RegId r) {
  ThreadCtx& c = ctx(p);
  Reclaimer::Guard g(*reclaimer_, p);
  const std::uint64_t cur = g.acquire(word(r));
  const std::uint64_t linked = c.link[static_cast<std::size_t>(r)];
  return OpResult{.flag = linked != 0 && link_of(cur) == linked,
                  .value = value_of(cur)};
}

Value InlineStorage::install(Reclaimer::Guard& g, ThreadCtx& c, RegId r,
                             const Value& v) {
  const bool fits = value_fits_inline(v);
  std::atomic<std::uint64_t>& h = word(r);
  Node* fresh = nullptr;  // allocated lazily, only for the node path
  std::uint64_t cur = g.acquire(h);
  c.backoff.begin_op();
  Value prev;
  bool inline_install = false;
  for (;;) {
    if (!is_node_word(cur) && fits) {
      const std::uint64_t next =
          encode_inline(v, next_inline_tag(inline_tag(cur)));
      if (h.compare_exchange_weak(cur, next, std::memory_order_acq_rel,
                                  std::memory_order_acquire)) {
        prev = decode_inline(cur);
        inline_install = true;
        break;
      }
    } else {
      if (fresh == nullptr) fresh = make_node(c, v, 0);
      fresh->version = is_node_word(cur) ? as_node(cur)->version + 2 : 2;
      if (h.compare_exchange_weak(cur, from_node(fresh),
                                  std::memory_order_acq_rel,
                                  std::memory_order_acquire)) {
        if (is_node_word(cur)) {
          prev = as_node(cur)->value;
          g.retire(as_node(cur));
        } else {
          prev = decode_inline(cur);
        }
        fresh = nullptr;  // the register owns it now
        break;
      }
    }
    c.backoff.on_failure();
    cur = g.confirm(h, cur);
  }
  if (fresh != nullptr) {  // defensive: allocated but won another path
    delete fresh;
    --c.allocated;
  }
  c.backoff.on_success();
  if (!fits) ++c.overflow_events;
  note_install(c, v, inline_install);
  return prev;
}

Value InlineStorage::swap(ProcId p, RegId r, Value v) {
  ThreadCtx& c = ctx(p);
  Reclaimer::Guard g(*reclaimer_, p);
  Value prev = install(g, c, r, v);
  c.link[static_cast<std::size_t>(r)] = 0;
  return prev;
}

void InlineStorage::move(ProcId p, RegId src, RegId dst) {
  LLSC_EXPECTS(src != dst, "move(R, R) is excluded from the model");
  ThreadCtx& c = ctx(p);
  Reclaimer::Guard g(*reclaimer_, p);
  Value v = value_of(g.acquire(word(src)));
  (void)install(g, c, dst, v);
  c.link[static_cast<std::size_t>(dst)] = 0;
}

Value InlineStorage::rmw(ProcId p, RegId r, const RmwFunction& f) {
  ThreadCtx& c = ctx(p);
  Reclaimer::Guard g(*reclaimer_, p);
  std::atomic<std::uint64_t>& h = word(r);
  c.backoff.begin_op();
  std::uint64_t cur = g.acquire(h);
  for (;;) {
    Value curv = value_of(cur);
    Value next = f.apply(curv);
    const bool fits = value_fits_inline(next);
    if (!is_node_word(cur) && fits) {
      const std::uint64_t nw =
          encode_inline(next, next_inline_tag(inline_tag(cur)));
      if (h.compare_exchange_strong(cur, nw, std::memory_order_acq_rel,
                                    std::memory_order_acquire)) {
        c.backoff.on_success();
        note_install(c, next, /*inline_install=*/true);
        c.link[static_cast<std::size_t>(r)] = 0;
        return curv;
      }
      c.backoff.on_failure();
      cur = g.confirm(h, cur);
      continue;
    }
    Node* fresh = make_node(
        c, std::move(next),
        is_node_word(cur) ? as_node(cur)->version + 2 : 2);
    const std::size_t fresh_bits = fresh->value.encoded_bits();
    if (h.compare_exchange_strong(cur, from_node(fresh),
                                  std::memory_order_acq_rel,
                                  std::memory_order_acquire)) {
      c.backoff.on_success();
      if (is_node_word(cur)) g.retire(as_node(cur));
      if (!fits) ++c.overflow_events;
      note_install_bits(c, fresh_bits, /*inline_install=*/false);
      c.link[static_cast<std::size_t>(r)] = 0;
      return curv;
    }
    delete fresh;
    --c.allocated;
    c.backoff.on_failure();
    cur = g.confirm(h, cur);
  }
}

Value InlineStorage::peek_value(RegId r) const {
  return value_of(word(r).load(std::memory_order_acquire));
}

std::uint64_t InlineStorage::peek_version(RegId r) const {
  return link_of(word(r).load(std::memory_order_acquire));
}

RegisterWidthStats InlineStorage::width_stats() const {
  RegisterWidthStats s = RegisterStorage::width_stats();
  // Demotion is sticky, so the demoted-register count is exactly the
  // number of words currently holding a node (quiescent read).
  std::vector<RegId> demoted;
  for (std::size_t r = 0; r < regs_.size(); ++r) {
    const std::uint64_t w = regs_[r].word.load(std::memory_order_acquire);
    if (w != 0 && is_node_word(w)) {
      ++s.boxed_fallback_registers;
      demoted.push_back(static_cast<RegId>(r));
    }
  }
  attribute_boxed_fallbacks(register_groups(), demoted, s);
  return s;
}

// --- factory -------------------------------------------------------------

std::unique_ptr<RegisterStorage> make_register_storage(
    StoragePolicy policy, std::size_t num_registers, int num_threads,
    const BackoffOptions& backoff, ReclaimPolicy reclaim,
    int reclaim_slots) {
  switch (policy) {
    case StoragePolicy::kBoxed:
      return std::make_unique<BoxedStorage>(num_registers, num_threads,
                                            backoff, reclaim, reclaim_slots);
    case StoragePolicy::kInline:
      return std::make_unique<InlineStorage>(num_registers, num_threads,
                                             backoff, reclaim, reclaim_slots);
  }
  LLSC_UNREACHABLE("bad StoragePolicy");
}

}  // namespace llsc
