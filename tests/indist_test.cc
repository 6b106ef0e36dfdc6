// Empirical validation of the Indistinguishability Lemma (Lemma 5.2):
// for every algorithm, toss assignment, and choice of S, any process or
// register X with UP(X, r) ⊆ S sees identical executions in the
// (All,A)-run and the (S,A)-run through round r. Every check also runs
// the original quadratic checker (indist_reference.h) as an oracle, and
// tampered logs show the checker can fail.
#include "core/indistinguishability.h"

#include <gtest/gtest.h>

#include "core/adversary.h"
#include "core/lower_bound.h"
#include "core/s_run.h"
#include "core/up_tracker.h"
#include "runtime/toss.h"
#include "util/rng.h"
#include "indist_reference.h"
#include "wakeup/algorithms.h"

namespace llsc {
namespace {

struct Subject {
  const char* name;
  ProcBody body;
  bool randomized;
};

std::vector<Subject> subjects() {
  return {
      {"tournament", tournament_wakeup(), false},
      {"counter", counter_wakeup(), false},
      {"swap_mix", swap_mix_wakeup(), false},
      {"randomized_tournament", randomized_tournament_wakeup(), true},
      {"random_mix", random_mix_body(10, 6), true},
      {"cheating", cheating_wakeup(2), false},
      {"backoff_counter", backoff_counter_wakeup(), true},
  };
}

// Runs the full pipeline for one (algorithm, n, S, seed) choice and checks
// the lemma.
void check_lemma(const ProcBody& body, int n, const ProcSet& s,
                 std::uint64_t toss_seed, const std::string& label) {
  const auto tosses = std::make_shared<SeededTossAssignment>(toss_seed);

  System all_sys(n, body, tosses);
  AdversaryOptions opts;
  opts.max_rounds = 4000;
  const RunLog all_log = run_adversary(all_sys, opts);
  ASSERT_TRUE(all_log.all_terminated) << label;
  const UpTracker up = UpTracker::over(all_log);

  System s_sys(n, body, tosses);
  const RunLog s_log = run_s_run(s_sys, all_log, up, s);

  const IndistReport report =
      check_against_reference(all_log, s_log, up, s, label);
  EXPECT_TRUE(report.ok) << label << ": " << report.violations.front();
  EXPECT_GT(report.process_checks, 0u) << label;
}

class IndistSweep
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(IndistSweep, LemmaHoldsForSingletonAndRandomSubsets) {
  const int n = std::get<0>(GetParam());
  const int subject_idx = std::get<1>(GetParam());
  const Subject subject = subjects()[static_cast<std::size_t>(subject_idx)];

  Rng rng(static_cast<std::uint64_t>(n) * 31 +
          static_cast<std::uint64_t>(subject_idx));
  // Singleton subsets: S = {p}.
  for (ProcId p = 0; p < std::min(n, 3); ++p) {
    check_lemma(subject.body, n, ProcSet::singleton(n, p), 7,
                std::string(subject.name) + " singleton p" +
                    std::to_string(p));
  }
  // The full set (the (All,A)-run itself must replay exactly).
  check_lemma(subject.body, n, ProcSet::full(n), 7,
              std::string(subject.name) + " full");
  // Random subsets.
  for (int iter = 0; iter < 3; ++iter) {
    ProcSet s(n);
    for (ProcId p = 0; p < n; ++p) {
      if (rng.next_bool()) s.insert(p);
    }
    if (s.empty()) s.insert(0);
    check_lemma(subject.body, n, s, 100 + static_cast<std::uint64_t>(iter),
                std::string(subject.name) + " random subset");
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, IndistSweep,
    ::testing::Combine(::testing::Values(2, 3, 5, 8, 13),
                       ::testing::Values(0, 1, 2, 3, 4, 5, 6)));

TEST(SRun, EmptySMeansNobodySteps) {
  // UP(p, 0) = {p} is never contained in the empty set, so no process is
  // ever scheduled: the (S,A)-run for S = {} is the empty run, and the
  // lemma holds vacuously for processes (registers stay at their initial
  // state in both runs only if nobody wrote them — which is precisely the
  // registers with UP(R, r) = {} ⊆ S).
  const int n = 5;
  System all_sys(n, tournament_wakeup());
  const RunLog all_log = run_adversary(all_sys);
  const UpTracker up = UpTracker::over(all_log);
  System s_sys(n, tournament_wakeup());
  const RunLog s_log = run_s_run(s_sys, all_log, up, ProcSet(n));
  for (ProcId p = 0; p < n; ++p) {
    EXPECT_EQ(s_sys.process(p).shared_ops(), 0u);
    EXPECT_EQ(s_sys.process(p).num_tosses(), 0u);
  }
  const IndistReport report =
      check_against_reference(all_log, s_log, up, ProcSet(n), "empty S");
  EXPECT_TRUE(report.ok)
      << (report.violations.empty() ? "" : report.violations.front());
  EXPECT_EQ(report.process_checks, 0u);
}

TEST(SRun, OnlyMembersOfSTakeSteps) {
  const int n = 8;
  System all_sys(n, tournament_wakeup());
  const RunLog all_log = run_adversary(all_sys);
  const UpTracker up = UpTracker::over(all_log);
  const ProcSet s = ProcSet::of(n, {1, 4, 6});

  System s_sys(n, tournament_wakeup());
  const RunLog s_log = run_s_run(s_sys, all_log, up, s);
  for (ProcId p = 0; p < n; ++p) {
    if (!s.contains(p)) {
      EXPECT_EQ(s_sys.process(p).shared_ops(), 0u)
          << "p" << p << " outside S took a step in the (S,A)-run";
      EXPECT_EQ(s_sys.process(p).num_tosses(), 0u);
    }
  }
}

TEST(SRun, FullSetReproducesAllRunExactly) {
  const int n = 6;
  const auto tosses = std::make_shared<SeededTossAssignment>(11);
  System all_sys(n, randomized_tournament_wakeup(), tosses);
  const RunLog all_log = run_adversary(all_sys);
  const UpTracker up = UpTracker::over(all_log);

  System s_sys(n, randomized_tournament_wakeup(), tosses);
  const RunLog s_log = run_s_run(s_sys, all_log, up, ProcSet::full(n));

  ASSERT_EQ(s_log.num_rounds(), all_log.num_rounds());
  for (int r = 1; r <= all_log.num_rounds(); ++r) {
    const RoundRecord& a = all_log.rounds[static_cast<std::size_t>(r - 1)];
    const RoundRecord& b = s_log.rounds[static_cast<std::size_t>(r - 1)];
    ASSERT_EQ(a.ops.size(), b.ops.size()) << "round " << r;
    for (std::size_t i = 0; i < a.ops.size(); ++i) {
      EXPECT_EQ(a.ops[i].proc, b.ops[i].proc);
      EXPECT_EQ(a.ops[i].op.kind, b.ops[i].op.kind);
      EXPECT_EQ(a.ops[i].op.reg, b.ops[i].op.reg);
      EXPECT_EQ(a.ops[i].result.flag, b.ops[i].result.flag);
      EXPECT_EQ(a.ops[i].result.value, b.ops[i].result.value);
    }
  }
}

TEST(SRun, MoveGroupFollowsRestrictedSigma) {
  const int n = 10;
  System all_sys(n, swap_mix_wakeup());
  const RunLog all_log = run_adversary(all_sys);
  const UpTracker up = UpTracker::over(all_log);
  const ProcSet s = ProcSet::of(n, {0, 2, 3, 7, 9});

  System s_sys(n, swap_mix_wakeup());
  const RunLog s_log = run_s_run(s_sys, all_log, up, s);
  for (int r = 1; r <= s_log.num_rounds(); ++r) {
    const RoundRecord& srec = s_log.rounds[static_cast<std::size_t>(r - 1)];
    const RoundRecord& arec = all_log.rounds[static_cast<std::size_t>(r - 1)];
    // The S-run's sigma must be a subsequence of the All-run's.
    std::size_t ai = 0;
    for (const ProcId p : srec.sigma) {
      while (ai < arec.sigma.size() && arec.sigma[ai] != p) ++ai;
      ASSERT_LT(ai, arec.sigma.size())
          << "S-run mover p" << p << " not in sigma_" << r;
      ++ai;
    }
  }
}

// --- Oracle parity at the benchmark size ---------------------------------

TEST(IndistParity, TournamentAnalysisAt256MatchesReference) {
  const int n = 256;
  WakeupLowerBoundOptions opts;
  opts.always_check_indistinguishability = true;
  const WakeupLowerBoundReport report =
      analyze_wakeup_run(tournament_wakeup(), n, nullptr, opts);
  ASSERT_TRUE(report.s_run_built);

  // Rebuild the analysis's logs (all-zero tosses: the run is deterministic)
  // with S = UP(winner, r) for the winner's op count r.
  System all_sys(n, tournament_wakeup());
  all_sys.set_recording(false);
  const RunLog all_log = run_adversary(all_sys);
  const UpTracker up = UpTracker::over(all_log);
  const int r =
      std::min(static_cast<int>(report.winner_ops), up.num_rounds());
  const ProcSet s = up.up_process(report.winner, r);
  ASSERT_EQ(s.count(), report.s_size);
  System s_sys(n, tournament_wakeup());
  s_sys.set_recording(false);
  const RunLog s_log = run_s_run(s_sys, all_log, up, s);

  const IndistReport want =
      reference_check_indistinguishability(all_log, s_log, up, s);
  EXPECT_TRUE(want.ok);
  EXPECT_GT(want.register_checks, 0u);
  expect_same_report(report.indist, want, "analysis n=256");
}

// --- Detection power: tampered (S,A)-run logs ------------------------------
//
// Each case corrupts one field of one (S,A)-run snapshot and expects the
// checker (and the reference) to report exactly that, word for word.

struct Pipeline {
  RunLog all_log;
  UpTracker up;
  ProcSet s;
  RunLog s_log;
};

Pipeline build_pipeline(int n, const ProcSet& s) {
  System all_sys(n, tournament_wakeup());
  RunLog all_log = run_adversary(all_sys);
  UpTracker up = UpTracker::over(all_log);
  System s_sys(n, tournament_wakeup());
  RunLog s_log = run_s_run(s_sys, all_log, up, s);
  return {std::move(all_log), std::move(up), s, std::move(s_log)};
}

RoundSnapshot& snapshot_at(RunLog& log, int r) {
  return r == 0 ? log.initial : log.snapshots[static_cast<std::size_t>(r - 1)];
}

// A snapshot's register entry, which the test expects to exist, for
// writing.
RegSnapshot& reg_at(RoundSnapshot& snap, RegId reg) {
  EXPECT_NE(snap.regs.find(reg), nullptr)
      << "R" << reg << " missing from the snapshot";
  return snap.regs.upsert(reg);
}

IndistReport check_tampered(const Pipeline& pl) {
  return check_against_reference(pl.all_log, pl.s_log, pl.up, pl.s,
                                 "tampered");
}

std::string round_tag(int r) { return "round " + std::to_string(r) + ": "; }

// The first (round, register) of the (S,A)-run whose register holds a value
// and has a non-empty Pset.
std::pair<int, RegId> pick_linked_register(const Pipeline& pl) {
  for (int r = 1; r <= pl.s_log.num_rounds(); ++r) {
    for (const auto& [reg, snap] : pl.s_log.at(r).regs) {
      if (!snap.value.is_nil() && !snap.pset.empty()) return {r, reg};
    }
  }
  ADD_FAILURE() << "no register with a value and a non-empty Pset";
  return {0, 0};
}

// With S = every process, every process is covered in every round and the
// (S,A)-run replays the (All,A)-run exactly.
class TamperedLog : public ::testing::Test {
 protected:
  static constexpr int kN = 8;
  Pipeline pl_ = build_pipeline(kN, ProcSet::full(kN));
};

TEST_F(TamperedLog, CoveredPsetMembershipFlipIsReported) {
  const auto [r, reg] = pick_linked_register(pl_);
  std::vector<ProcId>& pset = reg_at(snapshot_at(pl_.s_log, r), reg).pset;
  const ProcId dropped = pset.front();
  pset.erase(pset.begin());
  // Also add a covered non-member, so both sides of the merge are exercised.
  ProcId added = 0;
  while (std::binary_search(pset.begin(), pset.end(), added) ||
         added == dropped) {
    ++added;
  }
  ASSERT_LT(added, kN);
  pset.insert(std::lower_bound(pset.begin(), pset.end(), added), added);

  const auto flip = [&](ProcId p) {
    return round_tag(r) + "Pset(R" + std::to_string(reg) + ") membership of p" +
           std::to_string(p) + " differs";
  };
  const IndistReport report = check_tampered(pl_);
  EXPECT_FALSE(report.ok);
  EXPECT_EQ(report.violations,
            (std::vector<std::string>{flip(std::min(dropped, added)),
                                      flip(std::max(dropped, added))}));
}

TEST_F(TamperedLog, RegisterValueChangeIsReported) {
  const auto [r, reg] = pick_linked_register(pl_);
  Value& value = reg_at(snapshot_at(pl_.s_log, r), reg).value;
  const std::string before = value.to_string();
  value = Value::of_u64(987654321);

  const IndistReport report = check_tampered(pl_);
  EXPECT_FALSE(report.ok);
  EXPECT_EQ(report.violations,
            std::vector<std::string>{round_tag(r) + "val(R" +
                                     std::to_string(reg) + ") differs: " +
                                     before + " vs 987654321"});
}

TEST_F(TamperedLog, DroppedRegisterReadsAsNilWithEmptyPset) {
  const auto [r, reg] = pick_linked_register(pl_);
  const RegSnapshot all_reg = *pl_.all_log.at(r).regs.find(reg);
  snapshot_at(pl_.s_log, r).regs.erase(reg);

  std::vector<std::string> expected{round_tag(r) + "val(R" +
                                    std::to_string(reg) + ") differs: " +
                                    all_reg.value.to_string() + " vs nil"};
  for (const ProcId p : all_reg.pset) {
    expected.push_back(round_tag(r) + "Pset(R" + std::to_string(reg) +
                       ") membership of p" + std::to_string(p) + " differs");
  }
  const IndistReport report = check_tampered(pl_);
  EXPECT_FALSE(report.ok);
  EXPECT_EQ(report.violations, expected);
}

TEST_F(TamperedLog, SRunOnlyRegisterIsReportedAfterAllRunRegisters) {
  // Corrupt the largest register the (All,A)-run touched, and add a
  // register only the (S,A)-run touched with a smaller id: its violations
  // still come after those of the (All,A)-run's registers.
  const int r = pl_.s_log.num_rounds();
  RoundSnapshot& snap = snapshot_at(pl_.s_log, r);
  ASSERT_FALSE(snap.regs.empty());
  RegId last = 0;
  for (const auto& [id, _] : snap.regs) last = id;
  RegId fresh = 0;
  while (snap.regs.find(fresh) != nullptr) ++fresh;
  ASSERT_LT(fresh, last) << "the (All,A)-run touched a dense register range";
  const std::string before = reg_at(snap, last).value.to_string();
  reg_at(snap, last).value = Value::of_u64(987654321);
  snap.regs.upsert(fresh) = RegSnapshot{Value::of_u64(5), {0}};

  const std::string fresh_tag = "val(R" + std::to_string(fresh) + ")";
  const IndistReport report = check_tampered(pl_);
  EXPECT_FALSE(report.ok);
  EXPECT_EQ(report.violations,
            (std::vector<std::string>{
                round_tag(r) + "val(R" + std::to_string(last) +
                    ") differs: " + before + " vs 987654321",
                round_tag(r) + fresh_tag + " differs: nil vs 5",
                round_tag(r) + "Pset(R" + std::to_string(fresh) +
                    ") membership of p0 differs"}));
}

TEST_F(TamperedLog, HistoryHashChangeIsReported) {
  const int r = pl_.s_log.num_rounds() / 2;
  snapshot_at(pl_.s_log, r).procs[3].history_hash ^= 1;

  const IndistReport report = check_tampered(pl_);
  EXPECT_FALSE(report.ok);
  EXPECT_EQ(report.violations,
            std::vector<std::string>{round_tag(r) +
                                     "state(p3) differs between runs"});
}

TEST_F(TamperedLog, TossCountChangeIsReported) {
  const int r = pl_.s_log.num_rounds() / 2;
  std::uint64_t& tosses = snapshot_at(pl_.s_log, r).procs[5].num_tosses;
  const std::uint64_t before = tosses;
  ++tosses;

  const IndistReport report = check_tampered(pl_);
  EXPECT_FALSE(report.ok);
  EXPECT_EQ(report.violations,
            std::vector<std::string>{
                round_tag(r) + "numtosses(p5) differ: " +
                std::to_string(before) + " vs " + std::to_string(before + 1)});
}

TEST(TamperedLogUncovered, PsetFlipOfUncoveredProcessIsNotReported) {
  // Lemma 5.2 constrains Pset membership only for processes with
  // UP(p, r) ⊆ S; a process outside S is never covered.
  const int n = 8;
  Pipeline pl = build_pipeline(n, ProcSet::of(n, {1, 4, 6}));
  const IndistReport clean = check_tampered(pl);
  ASSERT_TRUE(clean.ok);

  const ProcId outsider = 2;
  bool flipped = false;
  for (int r = 1; r <= pl.s_log.num_rounds() && !flipped; ++r) {
    for (const auto& [reg, _] : pl.s_log.at(r).regs) {
      if (!pl.up.up_register(reg, r).subset_of(pl.s)) continue;
      auto& pset = reg_at(snapshot_at(pl.s_log, r), reg).pset;
      const auto at = std::lower_bound(pset.begin(), pset.end(), outsider);
      if (at != pset.end() && *at == outsider) {
        pset.erase(at);
      } else {
        pset.insert(at, outsider);
      }
      flipped = true;
      break;
    }
  }
  ASSERT_TRUE(flipped) << "no checked register in the (S,A)-run";

  const IndistReport report = check_tampered(pl);
  EXPECT_TRUE(report.ok)
      << (report.violations.empty() ? "" : report.violations.front());
  EXPECT_EQ(report.process_checks, clean.process_checks);
  EXPECT_EQ(report.register_checks, clean.register_checks);
}

}  // namespace
}  // namespace llsc
