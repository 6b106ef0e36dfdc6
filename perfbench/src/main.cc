// llsc_perfbench — one named workload per invocation.
//
//   llsc_perfbench --workload <lowerbound|registers_closed|service_open>
//                  --seed <n> --seconds <s> --trace <0|1>
//                  [--trace-out <file>] [--source <id>]
//   llsc_perfbench --list-metrics
//   llsc_perfbench --selftest
//
// Prints a stamp line, a detail line and, last, the result object
// {"correct", "attempted", "failed", "metrics"}. Untraced runs report the
// end-to-end metrics; traced runs report the per-layer metrics, including
// trace_overhead.* (traced value / untraced value, both measured in the
// traced run).
#include <sys/personality.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "hw/backoff.h"
#include "memory/reclaim_policy.h"
#include "memory/storage_policy.h"
#include "metrics.h"
#include "util/rng.h"

extern char** environ;

namespace perfbench {

int run_selftest();  // selftest.cc

void Report::check(bool ok, std::uint64_t units, const std::string& what) {
  attempted_ += units;
  if (ok) return;
  failed_ += units;
  if (failures_.size() < 16) failures_.push_back(what);
}

namespace {

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream,
                          std::uint64_t index) {
  return llsc::mix64(llsc::mix64(seed ^ (stream * 0x9E3779B97F4A7C15ULL)) ^
                     index);
}

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

void run_windows(std::vector<Leg>& legs, double seconds, bool traced,
                 int min_windows) {
  const Clock::time_point t0 = Clock::now();
  for (;;) {
    bool short_of_min = false;
    for (const Leg& leg : legs) {
      short_of_min |= static_cast<int>(leg.values.size()) < min_windows;
    }
    if (!short_of_min && seconds_since(t0) >= seconds) break;
    for (Leg& leg : legs) leg.values.push_back(leg.window(traced));
  }
}

namespace {

double peak_rss_mb() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

// Environment settings that would change what is measured.
std::string forbidden_environment() {
  for (char** e = environ; e != nullptr && *e != nullptr; ++e) {
    const std::string kv = *e;
    const std::string key = kv.substr(0, kv.find('='));
    if (key == "LLSC_STORAGE_POLICY" || key == "LLSC_RECLAIMER" ||
        key.rfind("LLSC_TIMEOUT_", 0) == 0) {
      return key;
    }
  }
  return "";
}

constexpr std::size_t kSourceWidth = 96;

// Address-space layout randomization places the heap, the thread arenas
// and the stacks differently in every process, and several measured paths
// are sensitive to that placement: on the tuning host the service p50 and
// the parallel MC rate each took one of two values per process, 30–40%
// apart. So the run re-executes itself once with randomization off, an
// empty environment and fixed-width arguments: the stack then starts at
// the same place whatever the caller's environment, binary path or seed.
// Returns only when that fails; the run then goes on as it is.
void fix_address_layout(const Config& cfg, const std::string& trace_out,
                        const std::string& source) {
  const int current = personality(0xffffffff);
  if (current == -1 || (current & ADDR_NO_RANDOMIZE) != 0) return;
  if (personality(static_cast<unsigned long>(current) | ADDR_NO_RANDOMIZE) ==
      -1) {
    return;
  }
  char seed[32];
  std::snprintf(seed, sizeof seed, "%020llu",
                static_cast<unsigned long long>(cfg.seed));
  const std::string padded_source =
      source +
      std::string(kSourceWidth - std::min(kSourceWidth, source.size()), ' ');
  std::vector<std::string> args = {
      "llsc_perfbench", "--workload", cfg.workload, "--seed", seed,
      "--seconds", json_number(cfg.seconds), "--trace", cfg.trace ? "1" : "0",
      "--source", padded_source};
  if (!trace_out.empty()) {
    args.push_back("--trace-out");
    args.push_back(trace_out);
  }
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);
  char* envp[] = {nullptr};
  execve("/proc/self/exe", argv.data(), envp);
}

bool address_layout_fixed() {
  const int current = personality(0xffffffff);
  return current != -1 && (current & ADDR_NO_RANDOMIZE) != 0;
}

std::unique_ptr<Workload> make_workload(const Config& cfg, Report& report) {
  if (cfg.workload == "lowerbound") return make_lowerbound(cfg, report);
  if (cfg.workload == "registers_closed") return make_registers(cfg, report);
  if (cfg.workload == "service_open") return make_service(cfg, report);
  return nullptr;
}

constexpr int kSetupReps = 3;

// Construction plus one warm window per leg, kSetupReps times; the
// median is the set-up time and the last workload is kept.
std::unique_ptr<Workload> set_up(const Config& cfg, Report& report,
                                 double* setup_s) {
  std::vector<double> times;
  std::unique_ptr<Workload> w;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    w.reset();
    const Clock::time_point t0 = Clock::now();
    {
      ScopedSpan span("setup", static_cast<std::uint64_t>(rep));
      w = make_workload(cfg, report);
      w->warm();
    }
    times.push_back(seconds_since(t0));
  }
  *setup_s = quartiles(times).median;
  return w;
}

void print_stamp(const Config& cfg, const std::string& source) {
  std::ostringstream o;
  o << "{\"stamp\": {\"workload\": " << json_string(cfg.workload)
    << ", \"seed\": " << cfg.seed
    << ", \"seconds\": " << json_number(cfg.seconds)
    << ", \"trace\": " << (cfg.trace ? 1 : 0)
    << ", \"nproc\": " << std::thread::hardware_concurrency()
    << ", \"threads\": " << cfg.threads
    << ", \"compiler\": " << json_string(PERFBENCH_COMPILER)
    << ", \"build_type\": " << json_string(PERFBENCH_BUILD_TYPE)
    << ", \"source\": " << json_string(source)
    << ", \"address_layout\": "
    << json_string(address_layout_fixed() ? "fixed" : "randomized")
    << ", \"storage\": "
    << json_string(llsc::to_string(llsc::default_storage_policy()))
    << ", \"reclaimer\": "
    << json_string(llsc::to_string(llsc::default_reclaim_policy()))
    << ", \"backoff\": "
    << json_string(llsc::to_string(llsc::BackoffOptions{}.policy)) << "}}";
  std::cout << o.str() << std::endl;
}

void print_metrics_json(const Report& report,
                        const std::vector<MetricSpec>& specs) {
  std::ostringstream o;
  o << "{\"correct\": " << (report.correct() ? "true" : "false")
    << ", \"attempted\": " << report.attempted()
    << ", \"failed\": " << report.failed() << ", \"metrics\": {";
  bool first = true;
  for (const MetricSpec& s : specs) {
    const auto it = report.metrics().find(s.name);
    const double v = it == report.metrics().end() ? 0.0 : it->second;
    o << (first ? "" : ", ") << json_string(s.name) << ": {\"value\": "
      << json_number(v) << ", \"unit\": " << json_string(s.unit) << "}";
    first = false;
  }
  o << "}}";
  std::cout << o.str() << std::endl;
}

void print_details(const Report& report) {
  std::ostringstream o;
  o << "{\"detail\": {";
  bool first = true;
  for (const auto& [k, v] : report.details()) {
    o << (first ? "" : ", ") << json_string(k) << ": " << json_number(v);
    first = false;
  }
  o << "}}";
  std::cout << o.str() << std::endl;
}

// Per-leg window statistics on the detail line, under the leg's own name
// (a throughput in 1/s or a latency in µs).
void detail_legs(Report& report, const std::vector<Leg>& legs,
                 const char* phase) {
  for (const Leg& leg : legs) {
    std::vector<double> v = leg.values;
    if (leg.throughput) {
      for (double& x : v) x = x > 0 ? 1e6 / x : 0.0;
    }
    const Quartiles q = quartiles(v);
    const std::string key = std::string(phase) + leg.name;
    report.detail(key + ".median", q.median);
    report.detail(key + ".q1", q.q1);
    report.detail(key + ".q3", q.q3);
    report.detail(key + ".windows", static_cast<double>(q.count));
  }
}

// The detail line, failed checks on stderr, then the result line.
int finish(const Report& report, const std::vector<MetricSpec>& specs) {
  print_details(report);
  for (const std::string& f : report.failures()) {
    std::cerr << "check failed: " << f << "\n";
  }
  print_metrics_json(report, specs);
  return 0;
}

int run(const Config& cfg, const std::string& trace_out,
        const std::string& source) {
  Report report;
  print_stamp(cfg, source);
  Tracer& tracer = Tracer::instance();
  tracer.set_enabled(false);

  double setup_s = 0.0;
  std::unique_ptr<Workload> w = set_up(cfg, report, &setup_s);
  // A traced run splits its time between an untraced and a traced half.
  const double seconds = cfg.trace ? cfg.seconds / 2 : cfg.seconds;
  run_windows(w->legs(), seconds, /*traced=*/false);
  detail_legs(report, w->legs(), "");
  std::vector<double> untraced;
  for (const Leg& leg : w->legs()) {
    untraced.push_back(quartiles(leg.values).median);
  }

  if (!cfg.trace) {
    w->final_checks(report);
    for (std::size_t i = 0; i < untraced.size(); ++i) {
      report.set(kLegMetrics[i].name, untraced[i]);
    }
    report.set("setup_s", setup_s);
    report.set("peak_rss_mb", peak_rss_mb());
    report.detail("setup_s", setup_s);
    return finish(report, end_to_end_metrics());
  }

  // The traced half re-times set-up on fresh instances but measures on
  // the same workload, so counters gathered by its untraced windows
  // reach the per-layer metrics too.
  const double rss_untraced = peak_rss_mb();
  tracer.set_enabled(true);
  double traced_setup_s = 0.0;
  (void)set_up(cfg, report, &traced_setup_s);
  for (Leg& leg : w->legs()) leg.values.clear();
  run_windows(w->legs(), seconds, /*traced=*/true);
  detail_legs(report, w->legs(), "traced.");
  for (std::size_t i = 0; i < untraced.size(); ++i) {
    const double traced = quartiles(w->legs()[i].values).median;
    report.set(std::string("trace_overhead.") + kLegMetrics[i].name,
               untraced[i] > 0 ? traced / untraced[i] : 0.0);
  }
  report.set("trace_overhead.setup_s",
             setup_s > 0 ? traced_setup_s / setup_s : 0.0);
  w->layers(report);
  report.set("trace_overhead.peak_rss_mb",
             rss_untraced > 0 ? peak_rss_mb() / rss_untraced : 0.0);
  tracer.set_enabled(false);
  w->final_checks(report);

  // Every per-layer metric is printed; one a workload never exercises
  // reads 0. A name outside the table is a bug in the benchmark.
  for (const auto& [name, value] : report.metrics()) {
    bool known = false;
    for (const MetricSpec& s : per_layer_metrics()) known |= s.name == name;
    report.check(known, 0, "unlisted per-layer metric " + name);
  }
  if (!trace_out.empty()) {
    report.check(tracer.write_jsonl(trace_out), 0,
                 "could not write spans to " + trace_out);
    report.detail("trace.spans", static_cast<double>(tracer.spans().size()));
    report.detail("trace.dropped", static_cast<double>(tracer.dropped()));
  }
  return finish(report, per_layer_metrics());
}

void print_metric_list() {
  const auto list = [](const std::vector<MetricSpec>& specs) {
    std::string out = "[";
    for (std::size_t i = 0; i < specs.size(); ++i) {
      out += (i ? ", " : "") + std::string("{\"name\": ") +
             json_string(specs[i].name) + ", \"unit\": " +
             json_string(specs[i].unit) + "}";
    }
    return out + "]";
  };
  std::cout << "{\"end_to_end\": " << list(end_to_end_metrics())
            << ", \"per_layer\": " << list(per_layer_metrics()) << "}"
            << std::endl;
}

int usage() {
  std::cerr << "usage: llsc_perfbench --workload <lowerbound|registers_closed|"
               "service_open> --seed <n> --seconds <s> --trace <0|1> "
               "[--trace-out <file>] [--source <id>]\n"
               "       llsc_perfbench --list-metrics | --selftest\n";
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Config cfg;
  std::string trace_out;
  std::string source = "unknown";
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--list-metrics") {
      print_metric_list();
      return 0;
    }
    if (a == "--selftest") return run_selftest();
    if (i + 1 >= argc) return usage();
    const std::string v = argv[++i];
    char* end = nullptr;
    if (a == "--workload") {
      cfg.workload = v;
      have_workload = true;
    } else if (a == "--seed") {
      cfg.seed = std::strtoull(v.c_str(), &end, 10);
      if (end == nullptr || *end != '\0') return usage();
    } else if (a == "--seconds") {
      cfg.seconds = std::strtod(v.c_str(), &end);
      if (end == nullptr || *end != '\0' || !(cfg.seconds > 0)) return usage();
    } else if (a == "--trace") {
      if (v != "0" && v != "1") return usage();
      cfg.trace = v == "1";
    } else if (a == "--trace-out") {
      trace_out = v;
    } else if (a == "--source") {
      source = v.substr(0, v.find_last_not_of(' ') + 1);
    } else {
      return usage();
    }
  }
  if (!have_workload) return usage();
#ifndef __OPTIMIZE__
  std::cerr << "refusing to measure a build without optimization\n";
  return 3;
#endif
  if (const std::string key = forbidden_environment(); !key.empty()) {
    std::cerr << "refusing to measure with " << key
              << " set: the benchmark measures the defaults\n";
    return 3;
  }
  if (cfg.workload != "lowerbound" && cfg.workload != "registers_closed" &&
      cfg.workload != "service_open") {
    std::cerr << "unknown workload " << cfg.workload << "\n";
    return 2;
  }
  fix_address_layout(cfg, trace_out, source);
  return run(cfg, trace_out, source);
}
