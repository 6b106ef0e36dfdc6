#include "core/indistinguishability.h"

#include <algorithm>

#include "util/check.h"

namespace llsc {

std::string IndistReport::summary() const {
  return std::string(ok ? "OK" : "VIOLATED") + " (" +
         std::to_string(process_checks) + " process checks, " +
         std::to_string(register_checks) + " register checks, " +
         std::to_string(violations.size()) + " violations)";
}

IndistReport check_indistinguishability(const RunLog& all_log,
                                        const RunLog& s_log,
                                        const UpTracker& up,
                                        const ProcSet& s) {
  LLSC_EXPECTS(all_log.n == s_log.n, "run logs describe different systems");
  LLSC_EXPECTS(!all_log.snapshots.empty() || all_log.rounds.empty(),
               "the (All,A)-run log has no snapshots");
  const int n = all_log.n;
  const int rounds = std::min(all_log.num_rounds(), s_log.num_rounds());
  // A register absent from a snapshot is untouched: nil value, empty Pset.
  static const RegSnapshot kUntouched;

  IndistReport report;
  UpCover cover(up, s);
  // covered[p] holds iff UP(p, r) ⊆ S for the round being checked.
  std::vector<char> covered(static_cast<std::size_t>(n));
  // Violations of registers only the (S,A)-run touched are reported after
  // those of registers the (All,A)-run touched, round by round.
  std::vector<std::string> s_only_violations;

  for (int r = 0; r <= rounds; ++r) {
    const RoundSnapshot& all_snap = all_log.at(r);
    const RoundSnapshot& s_snap = s_log.at(r);
    const std::string round_tag = "round " + std::to_string(r) + ": ";

    // --- processes: (All,A)-run ≈_p^r (S,A)-run when UP(p, r) ⊆ S ---
    for (ProcId p = 0; p < n; ++p) {
      const bool in_s = cover.process(p, r);
      covered[static_cast<std::size_t>(p)] = in_s ? 1 : 0;
      if (!in_s) continue;
      ++report.process_checks;
      const ProcSnapshot& a = all_snap.procs[static_cast<std::size_t>(p)];
      const ProcSnapshot& b = s_snap.procs[static_cast<std::size_t>(p)];
      if (a.num_tosses != b.num_tosses) {
        report.violations.push_back(
            round_tag + "numtosses(p" + std::to_string(p) + ") differ: " +
            std::to_string(a.num_tosses) + " vs " +
            std::to_string(b.num_tosses));
      }
      if (a.history_hash != b.history_hash ||
          a.shared_ops != b.shared_ops || a.done != b.done ||
          (a.done && !(a.result == b.result))) {
        report.violations.push_back(round_tag + "state(p" +
                                    std::to_string(p) +
                                    ") differs between runs");
      }
    }

    // --- registers: a merge-join of the two snapshots' sorted arrays ---
    const auto check_register = [&](RegId reg, const RegSnapshot& a,
                                     const RegSnapshot& b,
                                     std::vector<std::string>& out) {
      if (!cover.reg(reg, r)) return;
      ++report.register_checks;
      if (!(a.value == b.value)) {
        out.push_back(round_tag + "val(R" + std::to_string(reg) +
                      ") differs: " + a.value.to_string() + " vs " +
                      b.value.to_string());
      }
      if (a.pset == b.pset) return;
      // Psets hold distinct process ids in ascending order: walk their
      // symmetric difference in that order, reporting covered processes.
      auto ia = a.pset.begin();
      auto ib = b.pset.begin();
      while (ia != a.pset.end() || ib != b.pset.end()) {
        ProcId p;
        if (ib == b.pset.end() || (ia != a.pset.end() && *ia < *ib)) {
          p = *ia++;
        } else if (ia == a.pset.end() || *ib < *ia) {
          p = *ib++;
        } else {
          ++ia;
          ++ib;
          continue;
        }
        if (covered[static_cast<std::size_t>(p)] != 0) {
          out.push_back(round_tag + "Pset(R" + std::to_string(reg) +
                        ") membership of p" + std::to_string(p) +
                        " differs");
        }
      }
    };
    s_only_violations.clear();
    auto ia = all_snap.regs.begin();
    auto ib = s_snap.regs.begin();
    while (ia != all_snap.regs.end() || ib != s_snap.regs.end()) {
      if (ib == s_snap.regs.end() ||
          (ia != all_snap.regs.end() && ia->first < ib->first)) {
        check_register(ia->first, ia->second, kUntouched, report.violations);
        ++ia;
      } else if (ia == all_snap.regs.end() || ib->first < ia->first) {
        check_register(ib->first, kUntouched, ib->second, s_only_violations);
        ++ib;
      } else {
        check_register(ia->first, ia->second, ib->second, report.violations);
        ++ia;
        ++ib;
      }
    }
    report.violations.insert(report.violations.end(),
                             std::make_move_iterator(s_only_violations.begin()),
                             std::make_move_iterator(s_only_violations.end()));
  }
  report.ok = report.violations.empty();
  return report;
}

}  // namespace llsc
