// Shared pieces of the benchmark: run configuration, the result report,
// and the windowed measurement loop every workload uses.
#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "stats.h"
#include "trace.h"

namespace perfbench {

struct Config {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  // Threads, carriers and MC workers: half the cores of the 4-core host
  // the benchmark was tuned on. With every core busy a neighbour preempts
  // spinning threads and the figures stop repeating.
  static constexpr int threads = 2;
};

class Report {
 public:
  // Counts `units` attempted operations; all of them fail when !ok.
  void check(bool ok, std::uint64_t units, const std::string& what);
  // Sets a metric listed in metrics.h, which also gives its unit.
  void set(const std::string& name, double value) { metrics_[name] = value; }
  // Extra figures printed on the detail line (not gated).
  void detail(const std::string& key, double value) { details_[key] = value; }

  bool correct() const { return failures_.empty(); }
  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }
  const std::vector<std::string>& failures() const { return failures_; }
  const std::map<std::string, double>& metrics() const { return metrics_; }
  const std::map<std::string, double>& details() const { return details_; }

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<std::string> failures_;
  std::map<std::string, double> metrics_;
  std::map<std::string, double> details_;
};

// One measured leg of a workload: each window runs a fixed amount of work
// and returns the leg's figure for that window, in microseconds (time per
// unit of work, or a latency percentile).
struct Leg {
  std::string name;  // the figure's own name, e.g. "reg.readmix.ops_per_s"
  // True when the leg's figure is a throughput (1e6 / value per second).
  bool throughput = true;
  std::function<double(bool traced)> window;
  std::vector<double> values;
};

// Runs the legs' windows round-robin, so a slow stretch of the host hits
// every leg alike, until `seconds` have passed and every leg has at least
// `min_windows` windows.
void run_windows(std::vector<Leg>& legs, double seconds, bool traced,
                 int min_windows = 5);

// A workload: construction plus one warm window per leg is its set-up;
// legs() are then measured; layers() runs the per-layer probes and derives
// the per-layer metrics from its counters and the spans recorded so far.
class Workload {
 public:
  Workload() = default;
  virtual ~Workload() = default;
  // Legs capture `this`.
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  virtual std::vector<Leg>& legs() = 0;
  // One discarded window per leg.
  virtual void warm() {
    for (Leg& leg : legs()) (void)leg.window(false);
  }
  virtual void layers(Report& report) = 0;
  // Output checks that run once after measurement.
  virtual void final_checks(Report& report) { (void)report; }
};

std::unique_ptr<Workload> make_lowerbound(const Config& cfg, Report& report);
std::unique_ptr<Workload> make_registers(const Config& cfg, Report& report);
std::unique_ptr<Workload> make_service(const Config& cfg, Report& report);

// Per-seed, per-stream seed derivation shared by every workload.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream,
                          std::uint64_t index);

double seconds_since(Clock::time_point t0);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
