// Test-only oracle for the Lemma 5.2 checker: the original quadratic
// check_indistinguishability, kept verbatim. For every register in every
// round it walks all n processes, re-tests UP(p, r) ⊆ S and binary-searches
// both Psets — O(|regs| · n · log|Pset|) per round, but obviously faithful
// to the lemma's wording. The production checker must return an identical
// IndistReport (same ok, counts, and violation strings in the same order).
//
// It is a template over the run-log and tracker types, so it also runs on
// the pipeline oracle's own logs and tracker (pipeline_reference.h).
#ifndef LLSC_TESTS_INDIST_REFERENCE_H_
#define LLSC_TESTS_INDIST_REFERENCE_H_

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "core/indistinguishability.h"
#include "pipeline_reference.h"
#include "util/check.h"

namespace llsc {
namespace indist_reference {

inline const RegSnapshot* find_reg(const ref::RoundSnapshot& snap, RegId r) {
  const auto it = snap.regs.find(r);
  return it == snap.regs.end() ? nullptr : &it->second;
}

inline const RegSnapshot* find_reg(const RoundSnapshot& snap, RegId r) {
  return snap.regs.find(r);
}

// A register absent from a snapshot is untouched: nil value, empty Pset.
template <typename Snapshot>
const RegSnapshot& reg_or_default(const Snapshot& snap, RegId r) {
  static const RegSnapshot kDefault;
  const RegSnapshot* found = find_reg(snap, r);
  return found == nullptr ? kDefault : *found;
}

inline bool pset_contains(const RegSnapshot& reg, ProcId p) {
  return std::binary_search(reg.pset.begin(), reg.pset.end(), p);
}

}  // namespace indist_reference

template <typename Log, typename Tracker>
IndistReport reference_check_indistinguishability(const Log& all_log,
                                                  const Log& s_log,
                                                  const Tracker& up,
                                                  const ProcSet& s) {
  using indist_reference::find_reg;
  using indist_reference::pset_contains;
  using indist_reference::reg_or_default;
  LLSC_EXPECTS(all_log.n == s_log.n, "run logs describe different systems");
  LLSC_EXPECTS(!all_log.snapshots.empty() || all_log.rounds.empty(),
               "the (All,A)-run log has no snapshots");
  const int n = all_log.n;
  const int rounds = std::min(all_log.num_rounds(), s_log.num_rounds());

  IndistReport report;
  const auto violation = [&](std::string msg) {
    report.ok = false;
    report.violations.push_back(std::move(msg));
  };

  for (int r = 0; r <= rounds; ++r) {
    const auto& all_snap = all_log.at(r);
    const auto& s_snap = s_log.at(r);

    // --- processes: (All,A)-run ≈_p^r (S,A)-run when UP(p, r) ⊆ S ---
    for (ProcId p = 0; p < n; ++p) {
      if (!up.up_process(p, r).subset_of(s)) continue;
      ++report.process_checks;
      const ProcSnapshot& a = all_snap.procs[static_cast<std::size_t>(p)];
      const ProcSnapshot& b = s_snap.procs[static_cast<std::size_t>(p)];
      if (a.num_tosses != b.num_tosses) {
        violation("round " + std::to_string(r) + ": numtosses(p" +
                  std::to_string(p) + ") differ: " +
                  std::to_string(a.num_tosses) + " vs " +
                  std::to_string(b.num_tosses));
      }
      if (a.history_hash != b.history_hash ||
          a.shared_ops != b.shared_ops || a.done != b.done ||
          (a.done && !(a.result == b.result))) {
        violation("round " + std::to_string(r) + ": state(p" +
                  std::to_string(p) + ") differs between runs");
      }
    }

    // --- registers: every register either run touched ---
    std::vector<RegId> regs;
    for (const auto& [id, _] : all_snap.regs) regs.push_back(id);
    for (const auto& [id, _] : s_snap.regs) {
      if (find_reg(all_snap, id) == nullptr) regs.push_back(id);
    }
    for (const RegId reg : regs) {
      if (!up.up_register(reg, r).subset_of(s)) continue;
      ++report.register_checks;
      const RegSnapshot& a = reg_or_default(all_snap, reg);
      const RegSnapshot& b = reg_or_default(s_snap, reg);
      if (!(a.value == b.value)) {
        violation("round " + std::to_string(r) + ": val(R" +
                  std::to_string(reg) + ") differs: " + a.value.to_string() +
                  " vs " + b.value.to_string());
      }
      for (ProcId p = 0; p < n; ++p) {
        if (!up.up_process(p, r).subset_of(s)) continue;
        if (pset_contains(a, p) != pset_contains(b, p)) {
          violation("round " + std::to_string(r) + ": Pset(R" +
                    std::to_string(reg) + ") membership of p" +
                    std::to_string(p) + " differs");
        }
      }
    }
  }
  return report;
}

inline void expect_same_report(const IndistReport& got,
                               const IndistReport& want,
                               const std::string& label) {
  EXPECT_EQ(got.ok, want.ok) << label;
  EXPECT_EQ(got.process_checks, want.process_checks) << label;
  EXPECT_EQ(got.register_checks, want.register_checks) << label;
  EXPECT_EQ(got.violations, want.violations) << label;
}

// Runs both checkers on the same inputs and expects identical reports;
// returns the production checker's report.
inline IndistReport check_against_reference(const RunLog& all_log,
                                            const RunLog& s_log,
                                            const UpTracker& up,
                                            const ProcSet& s,
                                            const std::string& label) {
  const IndistReport got = check_indistinguishability(all_log, s_log, up, s);
  expect_same_report(
      got, reference_check_indistinguishability(all_log, s_log, up, s),
      label);
  return got;
}

}  // namespace llsc

#endif  // LLSC_TESTS_INDIST_REFERENCE_H_
