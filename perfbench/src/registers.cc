// Workload `registers_closed`: a closed loop of N processes on the 1:1
// HwExecutor over the default register storage. No oversubscribed
// scheduler and no simulator code runs here.
//
//   leg 1  read mix: 90% LL;VL, 10% LL;SC increments or RMW increments;
//   leg 2  write mix: the same table with the ratios reversed;
//   leg 3  CombiningUniversal fetch&increment.
//
// Both mixes run over a 256-register table with a quarter of the ops on
// register 0. Reads beside writes show a gain bought in allocation or
// reclamation at the cost of the read path, or the other way round.
//
// The traced run adds the layer ladder: the same op streams timed at each
// rung from a raw std::atomic up to the executor, so the delta between
// adjacent rungs is that layer's own cost.
#include <atomic>
#include <barrier>
#include <memory>
#include <thread>

#include "bench.h"
#include "hw/hw_executor.h"
#include "hw/hw_memory.h"
#include "hw/reclaim.h"
#include "hw/register_storage.h"
#include "objects/arith.h"
#include "universal/combining.h"
#include "util/rng.h"

namespace perfbench {
namespace {

using namespace llsc;

constexpr RegId kRegisters = 256;
constexpr std::size_t kStreamLen = 4096;  // ops per process, cycled
constexpr int kMaxProcs = 8;
constexpr std::uint32_t kRead = 0;   // LL then VL
constexpr std::uint32_t kLlSc = 1;   // LL then one SC of value + 1
constexpr std::uint32_t kRmw = 2;    // RMW increment
constexpr std::uint64_t kReadMixOps = 600000;   // per process per window
constexpr std::uint64_t kWriteMixOps = 300000;  // per process per window
constexpr int kUcOps = 20000;                   // per process per window
constexpr std::uint64_t kLadderOps = 200000;    // per thread per rung

enum Mix { kReadMix = 0, kWriteMix = 1 };

// One process's op stream: register << 2 | kind.
std::vector<std::uint32_t> make_stream(std::uint64_t seed, Mix mix, int p) {
  Rng rng(derive_seed(seed, 10 + static_cast<std::uint64_t>(mix),
                      static_cast<std::uint64_t>(p)));
  std::vector<std::uint32_t> ops(kStreamLen);
  for (std::uint32_t& op : ops) {
    const RegId reg =
        rng.next_below(4) == 0 ? 0 : 1 + rng.next_below(kRegisters - 1);
    const bool write = mix == kReadMix ? rng.next_below(10) == 0
                                       : rng.next_below(10) != 0;
    const std::uint32_t kind =
        !write ? kRead : (rng.next_below(4) == 0 ? kRmw : kLlSc);
    op = static_cast<std::uint32_t>(reg << 2) | kind;
  }
  return ops;
}

struct alignas(64) Tally {
  std::uint64_t sc_attempts = 0;
  std::uint64_t sc_ok = 0;
  std::uint64_t rmw = 0;
  std::uint64_t reads = 0;  // links still valid at VL (kept observable)
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;

  std::uint64_t increments() const { return sc_ok + rmw; }
};

// What one executor run of a mix shares with its process bodies.
struct MixRun {
  const std::vector<std::uint32_t>* streams[kMaxProcs] = {};
  std::uint64_t count = 0;
  int n = 0;
  std::shared_ptr<const RmwFunction> inc;
  std::atomic<int> finished{0};
  Tally tally[kMaxProcs];
};

// A process of the mix: its op stream, then (process 0, once every
// process is done) the sum of the whole table for the increment check.
SimTask mix_body(ProcCtx ctx, MixRun* run) {
  const ProcId p = ctx.id();
  Tally& t = run->tally[p];
  const std::vector<std::uint32_t>& ops = *run->streams[p];
  t.start_ns = now_ns();
  for (std::uint64_t i = 0; i < run->count; ++i) {
    const std::uint32_t op = ops[i % kStreamLen];
    const RegId r = op >> 2;
    const std::uint32_t kind = op & 3;
    if (kind == kRead) {
      (void)co_await ctx.ll(r);
      const VlResult vl = co_await ctx.validate(r);
      t.reads += vl.ok ? 1 : 0;
    } else if (kind == kLlSc) {
      const Value cur = co_await ctx.ll(r);
      const std::uint64_t base = cur.is_nil() ? 0 : cur.as_u64();
      const ScResult sc = co_await ctx.sc(r, Value::of_u64(base + 1));
      ++t.sc_attempts;
      t.sc_ok += sc.ok ? 1 : 0;
    } else {
      (void)co_await ctx.rmw(r, run->inc);
      ++t.rmw;
    }
  }
  t.end_ns = now_ns();
  run->finished.fetch_add(1, std::memory_order_acq_rel);
  while (run->finished.load(std::memory_order_acquire) < run->n) {
    std::this_thread::yield();
  }
  std::uint64_t sum = 0;
  if (p == 0) {
    for (RegId r = 0; r < kRegisters; ++r) {
      const Value v = co_await ctx.ll(r);
      sum += v.is_nil() ? 0 : v.as_u64();
    }
  }
  co_return Value::of_u64(sum);
}

SimTask uc_body(ProcCtx ctx, CombiningUniversal* uc, int ops, bool traced) {
  std::uint64_t sum = 0;
  const std::uint64_t base = static_cast<std::uint64_t>(ctx.id()) << 32;
  for (int k = 0; k < ops; ++k) {
    // Every fourth op is traced, to bound the span volume.
    const bool span = traced && k % 4 == 0;
    const std::uint64_t t0 = span ? now_ns() : 0;
    ObjOp op{"fetch&increment", {}};
    const Value r = co_await uc->execute(ctx, std::move(op));
    if (span) {
      Tracer::instance().record("universal.combining.execute", t0, now_ns(),
                                0, base | static_cast<std::uint64_t>(k));
    }
    sum += r.as_u64();
  }
  co_return Value::of_u64(sum);
}

// The op loop every direct rung shares; `M` adapts one layer's API.
template <typename M>
void run_stream(M& m, ProcId p, const std::vector<std::uint32_t>& ops,
                std::uint64_t count, Tally& t) {
  for (std::uint64_t i = 0; i < count; ++i) {
    const std::uint32_t op = ops[i % kStreamLen];
    const RegId r = op >> 2;
    const std::uint32_t kind = op & 3;
    if (kind == kRead) {
      m.ll(p, r);
      t.reads += m.validate(p, r) ? 1 : 0;
    } else if (kind == kLlSc) {
      ++t.sc_attempts;
      t.sc_ok += m.ll_sc_inc(p, r) ? 1 : 0;
    } else {
      m.rmw_inc(p, r);
      ++t.rmw;
    }
  }
}

struct alignas(64) PaddedAtomic {
  std::atomic<std::uint64_t> v{0};
};

// Rung `atomic`: the floor — a load stands for LL and VL, one CAS for SC.
struct AtomicRung {
  std::vector<PaddedAtomic> words = std::vector<PaddedAtomic>(kRegisters);
  void ll(ProcId, RegId r) {
    (void)words[r].v.load(std::memory_order_acquire);
  }
  bool validate(ProcId, RegId r) {
    return words[r].v.load(std::memory_order_acquire) != ~std::uint64_t{0};
  }
  bool ll_sc_inc(ProcId, RegId r) {
    std::uint64_t cur = words[r].v.load(std::memory_order_acquire);
    return words[r].v.compare_exchange_strong(cur, cur + 1,
                                              std::memory_order_acq_rel);
  }
  void rmw_inc(ProcId, RegId r) {
    words[r].v.fetch_add(1, std::memory_order_acq_rel);
  }
  std::uint64_t value(RegId r) const { return words[r].v.load(); }
};

std::uint64_t as_count(const Value& v) { return v.is_nil() ? 0 : v.as_u64(); }

// Rungs `storage` and `hwmemory`: the same calls on a RegisterStorage or
// on the HwMemory facade in front of one.
template <typename Store>
struct StoreRung {
  Store* store;
  std::shared_ptr<const RmwFunction> inc;
  void ll(ProcId p, RegId r) { (void)store->ll(p, r); }
  bool validate(ProcId p, RegId r) { return store->validate(p, r).flag; }
  bool ll_sc_inc(ProcId p, RegId r) {
    const std::uint64_t base = as_count(store->ll(p, r));
    return store->sc(p, r, Value::of_u64(base + 1)).flag;
  }
  void rmw_inc(ProcId p, RegId r) { (void)store->rmw(p, r, *inc); }
  std::uint64_t value(RegId r) const { return as_count(store->peek_value(r)); }
};

// Rung `apply`: every op as a PendingOp through HwMemory::apply.
struct ApplyRung {
  HwMemory* mem;
  std::shared_ptr<const RmwFunction> inc;
  OpResult run(ProcId p, OpKind kind, RegId r, Value arg = Value{}) {
    PendingOp op;
    op.kind = kind;
    op.reg = r;
    op.arg = std::move(arg);
    if (kind == OpKind::kRmw) op.rmw = inc;
    return mem->apply(p, op);
  }
  void ll(ProcId p, RegId r) { (void)run(p, OpKind::kLL, r); }
  bool validate(ProcId p, RegId r) { return run(p, OpKind::kValidate, r).flag; }
  bool ll_sc_inc(ProcId p, RegId r) {
    const std::uint64_t base = as_count(run(p, OpKind::kLL, r).value);
    return run(p, OpKind::kSC, r, Value::of_u64(base + 1)).flag;
  }
  void rmw_inc(ProcId p, RegId r) { (void)run(p, OpKind::kRmw, r); }
  std::uint64_t value(RegId r) const { return as_count(mem->peek_value(r)); }
};

std::shared_ptr<const RmwFunction> make_inc() {
  return make_rmw("inc", [](const Value& v) {
    return Value::of_u64(as_count(v) + 1);
  });
}

class Registers final : public Workload {
 public:
  Registers(const Config& cfg, Report& report)
      : cfg_(cfg), report_(report), inc_(make_inc()) {
    for (int p = 0; p < cfg.threads; ++p) {
      streams_[kReadMix].push_back(make_stream(cfg.seed, kReadMix, p));
      streams_[kWriteMix].push_back(make_stream(cfg.seed, kWriteMix, p));
    }
    legs_.push_back(Leg{"reg.readmix.ops_per_s", true,
                        [this](bool traced) {
                          return mix_window(kReadMix, kReadMixOps, traced);
                        },
                        {}});
    legs_.push_back(Leg{"reg.writemix.ops_per_s", true,
                        [this](bool traced) {
                          return mix_window(kWriteMix, kWriteMixOps, traced);
                        },
                        {}});
    legs_.push_back(Leg{"uc.ops_per_s", true,
                        [this](bool traced) { return uc_window(traced); },
                        {}});
  }

  std::vector<Leg>& legs() override { return legs_; }

  void layers(Report& report) override {
    ladder(report);
    probe_reclaimer(report);
    const double write_ops = static_cast<double>(write_.ops);
    report.set("hw.reclaim.nodes_per_op",
               write_ops > 0 ? static_cast<double>(write_.nodes) / write_ops
                             : 0.0);
    report.set("hw.reclaim.scans_per_kop",
               write_ops > 0 ? 1000.0 * static_cast<double>(write_.scans) /
                                   write_ops
                             : 0.0);
    report.set("hw.reclaim.high_water",
               static_cast<double>(write_.high_water));
    const std::uint64_t sc_attempts = read_.sc_attempts + write_.sc_attempts;
    report.set("hw.storage.sc_success_ratio",
               sc_attempts == 0
                   ? 0.0
                   : static_cast<double>(read_.sc_ok + write_.sc_ok) /
                         static_cast<double>(sc_attempts));
    const std::uint64_t cas = read_.cas_attempts + write_.cas_attempts;
    report.set("hw.backoff.cas_fail_ratio",
               cas == 0 ? 0.0
                        : static_cast<double>(read_.cas_failures +
                                              write_.cas_failures) /
                              static_cast<double>(cas));
    const double all_ops = static_cast<double>(read_.ops + write_.ops);
    const double spins = static_cast<double>(read_.spins + write_.spins);
    report.set("hw.backoff.spins_per_kop",
               all_ops > 0 ? 1000.0 * spins / all_ops : 0.0);
    const double runs = static_cast<double>(exec_.runs);
    if (exec_.runs > 0) {
      report.set("hw.executor.spawn_us", exec_.spawn_ns / runs / 1e3);
      report.set("hw.executor.start_skew_us", exec_.skew_ns / runs / 1e3);
      report.set("hw.executor.overlap_frac", exec_.overlap / runs);
    }
    const auto times = layer_times(Tracer::instance().spans());
    if (const auto it = times.find("universal.combining.execute");
        it != times.end()) {
      report.set("universal.combining.op_ns.p50",
                 percentile(it->second.total_each_ns, 0.50));
      report.set("universal.combining.op_ns.p99",
                 percentile(it->second.total_each_ns, 0.99));
      report.detail("universal.combining.op_ns.samples",
                    static_cast<double>(it->second.count));
    }
    if (uc_.ops > 0) {
      const double ops = static_cast<double>(uc_.ops);
      report.set("universal.combining.mean_batch",
                 uc_.installs == 0 ? 0.0
                                   : static_cast<double>(uc_.applied) /
                                         static_cast<double>(uc_.installs));
      report.set("universal.combining.adopted_frac",
                 static_cast<double>(uc_.adopted) / ops);
      report.set("universal.combining.shared_ops_per_op",
                 static_cast<double>(uc_.shared_ops) / ops);
    }
  }

 private:
  // Layer counters gathered from the traced windows.
  struct MixLayers {
    std::uint64_t ops = 0;
    std::uint64_t sc_attempts = 0;
    std::uint64_t sc_ok = 0;
    std::uint64_t nodes = 0;
    std::uint64_t scans = 0;
    std::uint64_t high_water = 0;
    std::uint64_t cas_attempts = 0;
    std::uint64_t cas_failures = 0;
    std::uint64_t spins = 0;
  };
  struct ExecLayers {
    std::uint64_t runs = 0;
    double spawn_ns = 0.0;
    double skew_ns = 0.0;
    double overlap = 0.0;
  };
  struct UcLayers {
    std::uint64_t ops = 0;
    std::uint64_t installs = 0;
    std::uint64_t applied = 0;
    std::uint64_t adopted = 0;
    std::uint64_t shared_ops = 0;
  };

  // One executor run of a mix: `count` ops per process on `n` processes.
  // Checks that the table's final sum equals the increments that took
  // effect. `call_ns`/`done_ns` bracket HwExecutor::run.
  HwRunResult run_mix(Mix mix, std::uint64_t count, int n, MixRun& run,
                      std::uint64_t* call_ns, std::uint64_t* done_ns) {
    run.count = count;
    run.n = n;
    run.inc = inc_;
    for (int p = 0; p < n; ++p) {
      run.streams[p] = &streams_[mix][static_cast<std::size_t>(p)];
    }
    HwRunOptions options;
    options.seed = cfg_.seed;
    options.num_registers = kRegisters;
    HwExecutor exec(options);
    const ProcBody body = [&run](ProcCtx ctx, ProcId, int) {
      return mix_body(ctx, &run);
    };
    *call_ns = now_ns();
    HwRunResult r = exec.run(n, body);
    *done_ns = now_ns();
    std::uint64_t increments = 0;
    for (int p = 0; p < n; ++p) increments += run.tally[p].increments();
    const bool ok = r.ok && !r.results.empty() && r.results[0].holds_u64() &&
                    r.results[0].as_u64() == increments;
    report_.check(ok, count * static_cast<std::uint64_t>(n),
                  "register sums differ from the successful SC/RMW count");
    return r;
  }

  double mix_window(Mix mix, std::uint64_t count, bool traced) {
    MixRun run;
    std::uint64_t call_ns = 0, done_ns = 0;
    const HwRunResult r =
        run_mix(mix, count, cfg_.threads, run, &call_ns, &done_ns);
    const double total_ops =
        static_cast<double>(count) * static_cast<double>(cfg_.threads);
    const double us = static_cast<double>(done_ns - call_ns) / 1e3 / total_ops;
    if (!traced) return us;
    Tracer& t = Tracer::instance();
    const std::uint64_t run_id =
        t.record("hw.executor.run", call_ns, done_ns, 0, mix_windows_);
    std::uint64_t first_start = ~std::uint64_t{0}, last_start = 0;
    std::uint64_t first_end = ~std::uint64_t{0}, last_end = 0;
    MixLayers& layer = mix == kReadMix ? read_ : write_;
    for (int p = 0; p < cfg_.threads; ++p) {
      const Tally& tally = run.tally[p];
      t.record("hw.executor.body", tally.start_ns, tally.end_ns, run_id,
               mix_windows_);
      first_start = std::min(first_start, tally.start_ns);
      last_start = std::max(last_start, tally.start_ns);
      first_end = std::min(first_end, tally.end_ns);
      last_end = std::max(last_end, tally.end_ns);
      layer.sc_attempts += tally.sc_attempts;
      layer.sc_ok += tally.sc_ok;
    }
    ++mix_windows_;
    ++exec_.runs;
    exec_.spawn_ns += static_cast<double>(first_start - call_ns);
    exec_.skew_ns += static_cast<double>(last_start - first_start);
    exec_.overlap +=
        first_end > last_start
            ? static_cast<double>(first_end - last_start) /
                  static_cast<double>(last_end - first_start)
            : 0.0;
    layer.ops += static_cast<std::uint64_t>(total_ops);
    layer.nodes += r.reclaim.nodes_allocated;
    layer.scans += r.reclaim.scan_passes;
    layer.high_water = std::max(layer.high_water, r.reclaim.node_high_water);
    layer.cas_attempts += r.backoff.cas_failures + r.backoff.cas_successes;
    layer.cas_failures += r.backoff.cas_failures;
    layer.spins += r.backoff.spin_pauses;
    return us;
  }

  double uc_window(bool traced) {
    CombiningUniversal uc(cfg_.threads, [] {
      return std::make_unique<FetchAddObject>(64, 0);
    });
    HwRunOptions options;
    options.seed = cfg_.seed;
    options.num_registers = static_cast<std::size_t>(uc.register_span());
    options.register_groups = uc.register_groups();
    HwExecutor exec(options);
    const ProcBody body = [&uc, traced](ProcCtx ctx, ProcId, int) {
      return uc_body(ctx, &uc, kUcOps, traced);
    };
    const std::uint64_t total =
        static_cast<std::uint64_t>(kUcOps) *
        static_cast<std::uint64_t>(cfg_.threads);
    const std::uint64_t t0 = now_ns();
    const HwRunResult r = exec.run(cfg_.threads, body);
    const double us = static_cast<double>(now_ns() - t0) / 1e3 /
                      static_cast<double>(total);
    std::uint64_t sum = 0;
    for (const Value& v : r.results) sum += v.holds_u64() ? v.as_u64() : 0;
    report_.check(r.ok && sum == total * (total - 1) / 2, total,
                  "combining fetch&increment responses do not sum to "
                  "T(T-1)/2");
    if (traced) {
      const CombiningStats s = uc.stats();
      uc_.ops += total;
      uc_.installs += s.installs;
      uc_.applied += s.ops_applied;
      uc_.adopted += s.adopted;
      uc_.shared_ops += r.total_shared_ops;
    }
    return us;
  }

  // Runs `threads` copies of a direct rung's op loop from one start
  // gate; returns ns per op per thread and checks the table's sum.
  template <typename Rung>
  double time_rung(Rung& rung, Mix mix, int threads) {
    std::vector<Tally> tallies(static_cast<std::size_t>(threads));
    std::barrier gate(threads + 1);
    std::vector<std::thread> workers;
    for (int p = 0; p < threads; ++p) {
      workers.emplace_back([&, p] {
        gate.arrive_and_wait();
        run_stream(rung, p, streams_[mix][static_cast<std::size_t>(p)],
                   kLadderOps, tallies[static_cast<std::size_t>(p)]);
      });
    }
    const std::uint64_t t0 = now_ns();
    gate.arrive_and_wait();
    for (std::thread& w : workers) w.join();
    const double ns = static_cast<double>(now_ns() - t0) /
                      static_cast<double>(kLadderOps);
    std::uint64_t increments = 0, sum = 0;
    for (const Tally& t : tallies) increments += t.increments();
    for (RegId r = 0; r < kRegisters; ++r) sum += rung.value(r);
    report_.check(sum == increments,
                  kLadderOps * static_cast<std::uint64_t>(threads),
                  "ladder rung lost increments");
    return ns;
  }

  void ladder(Report& report) {
    const int counts[2] = {1, cfg_.threads};
    for (const Mix mix : {kReadMix, kWriteMix}) {
      const char* mix_name = mix == kReadMix ? "read" : "write";
      for (const int n : counts) {
        const std::string suffix =
            std::string(mix_name) + "_" + std::to_string(n) + "t_ns";
        ScopedSpan span("ladder.rungs", static_cast<std::uint64_t>(n));
        {
          AtomicRung rung;
          report.set("ladder.atomic." + suffix, time_rung(rung, mix, n));
        }
        {
          auto store = make_register_storage(default_storage_policy(),
                                             kRegisters, n, BackoffOptions{});
          StoreRung<RegisterStorage> rung{store.get(), inc_};
          report.set("ladder.storage." + suffix, time_rung(rung, mix, n));
        }
        {
          HwMemory mem(kRegisters, n);
          StoreRung<HwMemory> rung{&mem, inc_};
          report.set("ladder.hwmemory." + suffix, time_rung(rung, mix, n));
        }
        {
          HwMemory mem(kRegisters, n);
          ApplyRung rung{&mem, inc_};
          report.set("ladder.apply." + suffix, time_rung(rung, mix, n));
        }
        {
          MixRun run;
          std::uint64_t call_ns = 0, done_ns = 0;
          (void)run_mix(mix, kLadderOps, n, run, &call_ns, &done_ns);
          report.set("ladder.executor." + suffix,
                     static_cast<double>(done_ns - call_ns) /
                         static_cast<double>(kLadderOps));
        }
      }
    }
  }

  // Guard and retire costs of the default Reclaimer, from outside.
  void probe_reclaimer(Report& report) {
    constexpr int kIters = 200000;
    auto rec = make_reclaimer(default_reclaim_policy(), cfg_.threads);
    auto* node = new VersionedNode{Value::of_u64(1), 1};
    std::atomic<std::uint64_t> word{from_node(node)};
    std::uint64_t seen = 0;
    std::uint64_t t0 = 0;
    {
      ScopedSpan span("hw.reclaim.guard_probe");
      t0 = now_ns();
      for (int i = 0; i < kIters; ++i) {
        Reclaimer::Guard g(*rec, 0);
        seen += g.acquire(word) == from_node(node) ? 1 : 0;
      }
    }
    report.set("hw.reclaim.guard_ns",
               static_cast<double>(now_ns() - t0) / kIters);
    report_.check(seen == kIters, kIters, "reclaimer guard load changed");
    std::vector<VersionedNode*> garbage;
    garbage.reserve(kIters);
    for (int i = 0; i < kIters; ++i) {
      garbage.push_back(new VersionedNode{Value::of_u64(2), 2});
    }
    {
      ScopedSpan span("hw.reclaim.retire_probe");
      t0 = now_ns();
      for (VersionedNode* n : garbage) {
        Reclaimer::Guard g(*rec, 0);
        g.retire(n);
      }
    }
    report.set("hw.reclaim.retire_ns",
               static_cast<double>(now_ns() - t0) / kIters);
    rec->quiesce();
    delete node;
  }

  const Config& cfg_;
  Report& report_;
  std::shared_ptr<const RmwFunction> inc_;
  std::vector<std::vector<std::uint32_t>> streams_[2];
  std::vector<Leg> legs_;
  std::uint64_t mix_windows_ = 0;
  MixLayers read_;
  MixLayers write_;
  ExecLayers exec_;
  UcLayers uc_;
};

}  // namespace

std::unique_ptr<Workload> make_registers(const Config& cfg, Report& report) {
  return std::make_unique<Registers>(cfg, report);
}

}  // namespace perfbench
