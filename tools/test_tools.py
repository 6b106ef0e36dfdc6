#!/usr/bin/env python3
"""Regression tests for the repo's Python tooling (stdlib unittest only).

Covers the contracts CI depends on:
  * bench_to_csv.py --check — accepts sound benchmark JSON, rejects
    malformed input and rows missing the per-experiment schema fields
    (E10/E11 backoff fingerprint, E12 taxonomy, E13 adversarial-placement
    accounting, E14 storage-policy fingerprint, E15 combining batching
    fingerprint including the zero-batch mean-omitted contract, E16
    service-mode pool shape / offered-served accounting / monotone
    latency percentiles, E18 TAS/leader expected-steps fingerprint with
    the ordered winner-ops accounting and the zero-spec-violations gate,
    E19 reclamation fingerprint with the reclaimed <= retired invariant
    and the boxed-row positive-high-water gate) with a nonzero exit;
  * bench_to_csv.py conversion — emits the expected CSV columns;
  * replay_fault.py — exit codes for missing binaries/keys, the
    custom-scenario and --strategy skip paths, and pass/fail propagation
    from the fault_replay binary (stubbed; the real binary's behavior is
    covered by examples/fault_replay --selftest in ctest/CI).

Run directly (tools/test_tools.py) or via ctest (tools_test).
"""
import json
import os
import stat
import subprocess
import sys
import tempfile
import unittest

TOOLS_DIR = os.path.dirname(os.path.abspath(__file__))
BENCH_TO_CSV = os.path.join(TOOLS_DIR, "bench_to_csv.py")
REPLAY_FAULT = os.path.join(TOOLS_DIR, "replay_fault.py")


def bench_row(name, **counters):
    row = {
        "name": name,
        "real_time": 100.0,
        "cpu_time": 90.0,
        "iterations": 10,
        "time_unit": "ns",
    }
    row.update(counters)
    return row


def bench_doc(*rows):
    return json.dumps({"context": {}, "benchmarks": list(rows)})


def run_bench_to_csv(stdin_text, *args):
    return subprocess.run(
        [sys.executable, BENCH_TO_CSV, *args],
        input=stdin_text, capture_output=True, text=True)


def run_replay_fault(*args):
    return subprocess.run(
        [sys.executable, REPLAY_FAULT, *args],
        capture_output=True, text=True)


E11_GOOD = dict(n_threads=8, policy_id=1, oversubscribed=1,
                hw_ops_per_sec=1e6, cas_failure_rate=0.25)

E13_GOOD = dict(n_threads=4, strategy_id=1, fault_budget=128,
                injected_sc_failures=128, retry_amplification=1.5)

E14_GOOD = dict(n_threads=4, policy_id=1, hw_ops_per_sec=2.5e6,
                overflow_events=0)

E15_GOOD = dict(n_threads=8, policy_id=0, uc_ops_per_sec=5.4e5)

E15_COMBINING_GOOD = dict(E15_GOOD, mean_batch_size=3.3, batches=619)
E16_GOOD = dict(n_threads=2, m_procs=32, oversub_factor=16,
                arrival_rate_hz=100000.0, offered_ops=256, served_ops=256,
                throughput_ops_per_sec=9.1e4, latency_p50_ns=4.2e3,
                latency_p90_ns=1.8e4, latency_p99_ns=2.1e5,
                latency_p999_ns=1.3e6)
E17_GOOD = dict(n_threads=2, m_procs=16, recover=1, storm=4,
                arrival_rate_hz=20000.0, offered_ops=128, served_ops=128,
                throughput_ops_per_sec=1.0e4, availability=1.0,
                mttr_ms=0.6, crashes=4, recoveries=4, in_flight_at_crash=4,
                latency_p50_ns=7.5e5, latency_p90_ns=6.5e6,
                latency_p99_ns=7.7e6, latency_p999_ns=7.9e6)
E18_GOOD = dict(n=16, object_id=0, substrate_id=0, samples=16,
                mean_winner_ops=6.0, mean_max_ops=17.3, min_winner_ops=6,
                log2_n=4.0, spec_violations=0)
E19_GOOD = dict(n_threads=2, reclaimer_id=1, policy_id=0,
                hw_ops_per_sec=9.5e6, nodes_retired=4000,
                nodes_reclaimed=3906, node_high_water=128,
                max_stall_spins=3, scan_passes=61, stalled_peer=0)


class BenchToCsvCheckTest(unittest.TestCase):
    def test_valid_generic_row_passes(self):
        doc = bench_doc(bench_row("BM_Tournament/64", log4_n=3))
        proc = run_bench_to_csv(doc, "--check")
        self.assertEqual(proc.returncode, 0, proc.stderr)
        self.assertIn("ok:", proc.stdout)

    def test_malformed_json_rejected(self):
        proc = run_bench_to_csv('{"benchmarks": [truncated', "--check")
        self.assertEqual(proc.returncode, 1)
        self.assertIn("malformed", proc.stderr)

    def test_empty_input_rejected(self):
        proc = run_bench_to_csv("", "--check")
        self.assertEqual(proc.returncode, 1)

    def test_missing_required_field_rejected(self):
        row = bench_row("BM_X/1")
        del row["iterations"]
        proc = run_bench_to_csv(bench_doc(row), "--check")
        self.assertEqual(proc.returncode, 1)
        self.assertIn("missing field", proc.stderr)

    def test_backoff_row_passes(self):
        # No parks counter: register retry loops never park.
        row = bench_row("BM_HwBackoff_Adaptive/8", **E11_GOOD)
        proc = run_bench_to_csv(bench_doc(row), "--check")
        self.assertEqual(proc.returncode, 0, proc.stderr)

    def test_backoff_row_missing_policy_rejected(self):
        counters = dict(E11_GOOD)
        del counters["policy_id"]
        row = bench_row("BM_HwBackoff_Fixed/8", **counters)
        proc = run_bench_to_csv(bench_doc(row), "--check")
        self.assertEqual(proc.returncode, 1)
        self.assertIn("policy_id", proc.stderr)

    def test_backoff_retired_policy_id_rejected(self):
        # policy_id 2 was adaptive+parking, which no longer exists.
        row = bench_row("BM_HwBackoff_X/8", **dict(E11_GOOD, policy_id=2))
        proc = run_bench_to_csv(bench_doc(row), "--check")
        self.assertEqual(proc.returncode, 1)
        self.assertIn("policy_id", proc.stderr)

    def test_e12_row_missing_taxonomy_rejected(self):
        row = bench_row("BM_E12_Degradation/4", sc_fail_rate=0.5,
                        clean=10, spec_violations=0, crashed=0)  # no hung
        proc = run_bench_to_csv(bench_doc(row), "--check")
        self.assertEqual(proc.returncode, 1)
        self.assertIn("hung", proc.stderr)

    def test_e13_row_passes(self):
        row = bench_row("BM_E13_AdaptiveVsOblivious_Adaptive/4/256/128",
                        **E13_GOOD)
        proc = run_bench_to_csv(bench_doc(row), "--check")
        self.assertEqual(proc.returncode, 0, proc.stderr)

    def test_e13_row_missing_budget_rejected(self):
        counters = dict(E13_GOOD)
        del counters["fault_budget"]
        row = bench_row("BM_E13_AdaptiveVsOblivious_Adaptive/4", **counters)
        proc = run_bench_to_csv(bench_doc(row), "--check")
        self.assertEqual(proc.returncode, 1)
        self.assertIn("fault_budget", proc.stderr)

    def test_e13_unknown_strategy_rejected(self):
        row = bench_row("BM_E13_X/4", **dict(E13_GOOD, strategy_id=7))
        proc = run_bench_to_csv(bench_doc(row), "--check")
        self.assertEqual(proc.returncode, 1)
        self.assertIn("strategy_id", proc.stderr)

    def test_e13_overspent_budget_rejected(self):
        row = bench_row("BM_E13_X/4",
                        **dict(E13_GOOD, injected_sc_failures=129))
        proc = run_bench_to_csv(bench_doc(row), "--check")
        self.assertEqual(proc.returncode, 1)
        self.assertIn("budget", proc.stderr)

    def test_e13_amplification_below_one_rejected(self):
        row = bench_row("BM_E13_X/4",
                        **dict(E13_GOOD, retry_amplification=0.5))
        proc = run_bench_to_csv(bench_doc(row), "--check")
        self.assertEqual(proc.returncode, 1)
        self.assertIn("retry_amplification", proc.stderr)

    def test_e14_row_passes(self):
        row = bench_row("BM_E14_StorageHammer_Inline/4", **E14_GOOD)
        proc = run_bench_to_csv(bench_doc(row), "--check")
        self.assertEqual(proc.returncode, 0, proc.stderr)

    def test_e14_row_missing_policy_rejected(self):
        counters = dict(E14_GOOD)
        del counters["policy_id"]
        row = bench_row("BM_E14_StorageHammer_Inline/4", **counters)
        proc = run_bench_to_csv(bench_doc(row), "--check")
        self.assertEqual(proc.returncode, 1)
        self.assertIn("policy_id", proc.stderr)

    def test_e14_unknown_policy_rejected(self):
        row = bench_row("BM_E14_X/4", **dict(E14_GOOD, policy_id=9))
        proc = run_bench_to_csv(bench_doc(row), "--check")
        self.assertEqual(proc.returncode, 1)
        self.assertIn("policy_id", proc.stderr)

    def test_e14_retired_policy_id_rejected(self):
        # policy_id 2 was inline-strict, which no longer exists.
        row = bench_row("BM_E14_X/4", **dict(E14_GOOD, policy_id=2))
        proc = run_bench_to_csv(bench_doc(row), "--check")
        self.assertEqual(proc.returncode, 1)
        self.assertIn("policy_id", proc.stderr)

    def test_e14_negative_overflow_rejected(self):
        row = bench_row("BM_E14_X/4", **dict(E14_GOOD, overflow_events=-1))
        proc = run_bench_to_csv(bench_doc(row), "--check")
        self.assertEqual(proc.returncode, 1)
        self.assertIn("overflow_events", proc.stderr)

    def test_e15_baseline_row_passes(self):
        # Non-combining contenders carry no batching fingerprint.
        row = bench_row("BM_E15_SingleRegister_Boxed/8/256", **E15_GOOD)
        proc = run_bench_to_csv(bench_doc(row), "--check")
        self.assertEqual(proc.returncode, 0, proc.stderr)

    def test_e15_combining_row_passes(self):
        row = bench_row("BM_E15_Combining_Boxed/8/256", **E15_COMBINING_GOOD)
        proc = run_bench_to_csv(bench_doc(row), "--check")
        self.assertEqual(proc.returncode, 0, proc.stderr)

    def test_e15_row_missing_throughput_rejected(self):
        counters = dict(E15_GOOD)
        del counters["uc_ops_per_sec"]
        row = bench_row("BM_E15_DirectFetchAdd_Boxed/8/256", **counters)
        proc = run_bench_to_csv(bench_doc(row), "--check")
        self.assertEqual(proc.returncode, 1)
        self.assertIn("uc_ops_per_sec", proc.stderr)

    def test_e15_unknown_policy_rejected(self):
        row = bench_row("BM_E15_Combining_Inline/8/256",
                        **dict(E15_COMBINING_GOOD, policy_id=9))
        proc = run_bench_to_csv(bench_doc(row), "--check")
        self.assertEqual(proc.returncode, 1)
        self.assertIn("policy_id", proc.stderr)

    def test_e15_retired_policy_id_rejected(self):
        row = bench_row("BM_E15_SingleRegister_Inline/8/256",
                        **dict(E15_GOOD, policy_id=2))
        proc = run_bench_to_csv(bench_doc(row), "--check")
        self.assertEqual(proc.returncode, 1)
        self.assertIn("policy_id", proc.stderr)

    def test_e15_combining_row_missing_batching_rejected(self):
        # Without mean_batch_size the batching thesis cannot be audited.
        row = bench_row("BM_E15_Combining_Boxed/8/256",
                        **dict(E15_GOOD, batches=619))
        proc = run_bench_to_csv(bench_doc(row), "--check")
        self.assertEqual(proc.returncode, 1)
        self.assertIn("mean_batch_size", proc.stderr)

    def test_e15_combining_batch_below_one_rejected(self):
        row = bench_row("BM_E15_Combining_Boxed/8/256",
                        **dict(E15_COMBINING_GOOD, mean_batch_size=0.5))
        proc = run_bench_to_csv(bench_doc(row), "--check")
        self.assertEqual(proc.returncode, 1)
        self.assertIn("mean_batch_size", proc.stderr)

    def test_e15_combining_mean_over_zero_batches_rejected(self):
        # batches == 0 with mean_batch_size still present is the
        # div-by-zero artifact the zero-batch contract exists to catch.
        row = bench_row("BM_E15_Combining_Boxed/8/256",
                        **dict(E15_COMBINING_GOOD, batches=0))
        proc = run_bench_to_csv(bench_doc(row), "--check")
        self.assertEqual(proc.returncode, 1)
        self.assertIn("batch", proc.stderr)

    def test_e15_combining_zero_batches_without_mean_passes(self):
        # A run where every op was adopted installs no batches; the bench
        # omits mean_batch_size and the row is valid.
        counters = dict(E15_COMBINING_GOOD, batches=0)
        del counters["mean_batch_size"]
        row = bench_row("BM_E15_Combining_Boxed/8/256", **counters)
        proc = run_bench_to_csv(bench_doc(row), "--check")
        self.assertEqual(proc.returncode, 0, proc.stderr)

    def test_e16_row_passes(self):
        row = bench_row("BM_E16_FetchInc/16/100000", **E16_GOOD)
        proc = run_bench_to_csv(bench_doc(row), "--check")
        self.assertEqual(proc.returncode, 0, proc.stderr)

    def test_e16_row_missing_percentile_rejected(self):
        counters = dict(E16_GOOD)
        del counters["latency_p999_ns"]
        row = bench_row("BM_E16_Wakeup/16/100000", **counters)
        proc = run_bench_to_csv(bench_doc(row), "--check")
        self.assertEqual(proc.returncode, 1)
        self.assertIn("latency_p999_ns", proc.stderr)

    def test_e16_non_monotone_percentiles_rejected(self):
        row = bench_row("BM_E16_FetchInc/16/100000",
                        **dict(E16_GOOD, latency_p50_ns=9e6))
        proc = run_bench_to_csv(bench_doc(row), "--check")
        self.assertEqual(proc.returncode, 1)
        self.assertIn("monotone", proc.stderr)

    def test_e16_served_above_offered_rejected(self):
        row = bench_row("BM_E16_Combining/16/100000",
                        **dict(E16_GOOD, served_ops=512))
        proc = run_bench_to_csv(bench_doc(row), "--check")
        self.assertEqual(proc.returncode, 1)
        self.assertIn("served", proc.stderr)

    def test_e16_pool_shape_mismatch_rejected(self):
        row = bench_row("BM_E16_FetchInc/16/100000",
                        **dict(E16_GOOD, m_procs=31))
        proc = run_bench_to_csv(bench_doc(row), "--check")
        self.assertEqual(proc.returncode, 1)
        self.assertIn("pool shape", proc.stderr)

    def test_e17_row_passes(self):
        row = bench_row("BM_E17_CrashStorm_FetchInc/1/4", **E17_GOOD)
        proc = run_bench_to_csv(bench_doc(row), "--check")
        self.assertEqual(proc.returncode, 0, proc.stderr)

    def test_e17_crash_stop_row_passes(self):
        row = bench_row("BM_E17_CrashStorm_Combining/0/12",
                        **dict(E17_GOOD, recover=0, storm=12, crashes=12,
                               recoveries=0, in_flight_at_crash=12,
                               served_ops=80, availability=0.625,
                               mttr_ms=0.0))
        proc = run_bench_to_csv(bench_doc(row), "--check")
        self.assertEqual(proc.returncode, 0, proc.stderr)

    def test_e17_row_missing_availability_rejected(self):
        counters = dict(E17_GOOD)
        del counters["availability"]
        row = bench_row("BM_E17_CrashStorm_FetchInc/1/4", **counters)
        proc = run_bench_to_csv(bench_doc(row), "--check")
        self.assertEqual(proc.returncode, 1)
        self.assertIn("availability", proc.stderr)

    def test_e17_availability_mismatch_rejected(self):
        # availability must equal served/offered: a row claiming full
        # availability while dropping ops is the dishonest-accounting
        # shape the check exists to catch.
        row = bench_row("BM_E17_CrashStorm_FetchInc/0/4",
                        **dict(E17_GOOD, recover=0, recoveries=0,
                               mttr_ms=0.0, served_ops=112,
                               availability=1.0))
        proc = run_bench_to_csv(bench_doc(row), "--check")
        self.assertEqual(proc.returncode, 1)
        self.assertIn("availability", proc.stderr)

    def test_e17_more_recoveries_than_crashes_rejected(self):
        row = bench_row("BM_E17_CrashStorm_FetchInc/1/4",
                        **dict(E17_GOOD, recoveries=5))
        proc = run_bench_to_csv(bench_doc(row), "--check")
        self.assertEqual(proc.returncode, 1)
        self.assertIn("recoveries", proc.stderr)

    def test_e17_in_flight_above_crashes_rejected(self):
        row = bench_row("BM_E17_CrashStorm_FetchInc/1/4",
                        **dict(E17_GOOD, in_flight_at_crash=5))
        proc = run_bench_to_csv(bench_doc(row), "--check")
        self.assertEqual(proc.returncode, 1)
        self.assertIn("in_flight_at_crash", proc.stderr)

    def test_e17_mttr_without_recoveries_rejected(self):
        row = bench_row("BM_E17_CrashStorm_FetchInc/0/4",
                        **dict(E17_GOOD, recover=0, recoveries=0,
                               served_ops=112, availability=0.875))
        proc = run_bench_to_csv(bench_doc(row), "--check")
        self.assertEqual(proc.returncode, 1)
        self.assertIn("mttr_ms", proc.stderr)

    def test_e18_row_passes(self):
        row = bench_row("BM_E18_Tas_Sim/16", **E18_GOOD)
        proc = run_bench_to_csv(bench_doc(row), "--check")
        self.assertEqual(proc.returncode, 0, proc.stderr)

    def test_e18_row_missing_accounting_rejected(self):
        counters = dict(E18_GOOD)
        del counters["min_winner_ops"]
        row = bench_row("BM_E18_Leader_Hw/4", **counters)
        proc = run_bench_to_csv(bench_doc(row), "--check")
        self.assertEqual(proc.returncode, 1)
        self.assertIn("min_winner_ops", proc.stderr)

    def test_e18_unknown_object_rejected(self):
        row = bench_row("BM_E18_Tas_Sim/16", **dict(E18_GOOD, object_id=7))
        proc = run_bench_to_csv(bench_doc(row), "--check")
        self.assertEqual(proc.returncode, 1)
        self.assertIn("object_id", proc.stderr)

    def test_e18_unknown_substrate_rejected(self):
        row = bench_row("BM_E18_Tas_Sim/16",
                        **dict(E18_GOOD, substrate_id=3))
        proc = run_bench_to_csv(bench_doc(row), "--check")
        self.assertEqual(proc.returncode, 1)
        self.assertIn("substrate_id", proc.stderr)

    def test_e18_unordered_ops_rejected(self):
        # mean above max: the accounting must be min <= mean <= max.
        row = bench_row("BM_E18_Leader_Oversub/32",
                        **dict(E18_GOOD, substrate_id=2, object_id=1,
                               mean_winner_ops=20.0))
        proc = run_bench_to_csv(bench_doc(row), "--check")
        self.assertEqual(proc.returncode, 1)
        self.assertIn("not ordered", proc.stderr)

    def test_e18_lost_winner_rejected(self):
        row = bench_row("BM_E18_Tas_Hw/8",
                        **dict(E18_GOOD, substrate_id=1, spec_violations=1))
        proc = run_bench_to_csv(bench_doc(row), "--check")
        self.assertEqual(proc.returncode, 1)
        self.assertIn("winner", proc.stderr)

    def test_e19_row_passes(self):
        row = bench_row("BM_E19_Hammer_Hazard/2/2000", **E19_GOOD)
        proc = run_bench_to_csv(bench_doc(row), "--check")
        self.assertEqual(proc.returncode, 0, proc.stderr)

    def test_e19_row_missing_accounting_rejected(self):
        counters = dict(E19_GOOD)
        del counters["node_high_water"]
        row = bench_row("BM_E19_Hammer_Epoch/1/2000", **counters)
        proc = run_bench_to_csv(bench_doc(row), "--check")
        self.assertEqual(proc.returncode, 1)
        self.assertIn("node_high_water", proc.stderr)

    def test_e19_unknown_reclaimer_rejected(self):
        row = bench_row("BM_E19_Hammer_Epoch/1/2000",
                        **dict(E19_GOOD, reclaimer_id=5))
        proc = run_bench_to_csv(bench_doc(row), "--check")
        self.assertEqual(proc.returncode, 1)
        self.assertIn("reclaimer_id", proc.stderr)

    def test_e19_reclaimed_above_retired_rejected(self):
        # The no-double-free invariant: freeing more than was retired.
        row = bench_row("BM_E19_Oversub_Hazard/2/50",
                        **dict(E19_GOOD, nodes_retired=100,
                               nodes_reclaimed=101))
        proc = run_bench_to_csv(bench_doc(row), "--check")
        self.assertEqual(proc.returncode, 1)
        self.assertIn("more nodes than were retired", proc.stderr)

    def test_e19_boxed_zero_high_water_rejected(self):
        # A boxed run that retired nodes must have seen a positive peak.
        row = bench_row("BM_E19_Hammer_Epoch_StalledPeer/2/2000",
                        **dict(E19_GOOD, reclaimer_id=0, stalled_peer=1,
                               node_high_water=0))
        proc = run_bench_to_csv(bench_doc(row), "--check")
        self.assertEqual(proc.returncode, 1)
        self.assertIn("zero node_high_water", proc.stderr)


class BenchToCsvConvertTest(unittest.TestCase):
    def test_csv_has_expected_columns(self):
        doc = bench_doc(
            bench_row("BM_E13_AdaptiveVsOblivious_Adaptive/4/256/128",
                      **E13_GOOD))
        proc = run_bench_to_csv(doc)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        lines = proc.stdout.strip().splitlines()
        self.assertEqual(len(lines), 2)
        header = lines[0].split(",")
        for col in ("name", "arg", "threads", "time_ns", "cpu_ns",
                    "iterations", "strategy_id", "fault_budget",
                    "injected_sc_failures", "retry_amplification"):
            self.assertIn(col, header)
        values = dict(zip(header, lines[1].split(",")))
        self.assertEqual(values["name"], "BM_E13_AdaptiveVsOblivious_Adaptive")
        self.assertEqual(values["arg"], "4/256/128")
        self.assertEqual(values["threads"], "4")  # n_threads surfaced


def artifact(scenario="fixed_ll_sc", plan=None, **overrides):
    doc = {
        "scenario": scenario,
        "n": 4,
        "toss_seed": 42,
        "max_rounds": 4096,
        "status": "clean",
        "proc_ops": [16, 16, 16, 16],
        "plan": plan if plan is not None else {"seed": 7},
    }
    doc.update(overrides)
    return doc


class ReplayFaultTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.addCleanup(self.tmp.cleanup)

    def write_artifact(self, name, doc):
        path = os.path.join(self.tmp.name, name)
        with open(path, "w", encoding="utf-8") as f:
            json.dump(doc, f)
        return path

    def write_stub_binary(self, exit_code):
        path = os.path.join(self.tmp.name, "fault_replay_stub")
        with open(path, "w", encoding="utf-8") as f:
            f.write(f"#!/bin/sh\nexit {exit_code}\n")
        os.chmod(path, os.stat(path).st_mode | stat.S_IXUSR)
        return path

    def test_missing_binary_is_usage_error(self):
        art = self.write_artifact("a.json", artifact())
        proc = run_replay_fault("--binary", "/nonexistent/fault_replay", art)
        self.assertEqual(proc.returncode, 2)
        self.assertIn("binary not found", proc.stderr)

    def test_artifact_missing_keys_is_usage_error(self):
        doc = artifact()
        del doc["proc_ops"]
        art = self.write_artifact("a.json", doc)
        proc = run_replay_fault("--binary", self.write_stub_binary(0), art)
        self.assertEqual(proc.returncode, 2)
        self.assertIn("missing key", proc.stderr)

    def test_custom_scenario_is_skipped(self):
        art = self.write_artifact("a.json", artifact(scenario="custom"))
        proc = run_replay_fault("--binary", self.write_stub_binary(1), art)
        # The failing stub is never invoked: the artifact is skipped.
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        self.assertIn("SKIP", proc.stdout)

    def test_strategy_filter_skips_other_plans(self):
        oblivious = self.write_artifact("obl.json", artifact())
        adaptive = self.write_artifact(
            "ada.json",
            artifact(plan={"seed": 7, "strategy": "adaptive",
                           "fault_budget": 6}))
        stub = self.write_stub_binary(0)
        proc = run_replay_fault("--binary", stub, "--strategy", "adaptive",
                                oblivious, adaptive)
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        self.assertIn("SKIP", proc.stdout)
        self.assertIn("filtered out", proc.stdout)
        self.assertIn("1/1 artifacts reproduced", proc.stdout)
        # Plans without the optional "strategy" key are oblivious.
        proc = run_replay_fault("--binary", stub, "--strategy", "oblivious",
                                oblivious, adaptive)
        self.assertEqual(proc.returncode, 0)
        self.assertIn("1/1 artifacts reproduced", proc.stdout)

    def test_stub_success_reports_ok(self):
        art = self.write_artifact("a.json", artifact())
        proc = run_replay_fault("--binary", self.write_stub_binary(0), art)
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        self.assertIn("OK", proc.stdout)
        self.assertIn("1/1 artifacts reproduced", proc.stdout)

    def test_stub_failure_propagates(self):
        art = self.write_artifact("a.json", artifact())
        proc = run_replay_fault("--binary", self.write_stub_binary(1), art)
        self.assertEqual(proc.returncode, 1)
        self.assertIn("FAIL", proc.stdout)

    def test_non_object_artifact_fails_readably(self):
        path = os.path.join(self.tmp.name, "list.json")
        with open(path, "w", encoding="utf-8") as f:
            f.write("[1, 2, 3]")
        proc = run_replay_fault("--binary", self.write_stub_binary(0), path)
        self.assertEqual(proc.returncode, 2)
        self.assertIn("expected a JSON object", proc.stderr)

    def test_wrong_field_type_names_the_field(self):
        art = self.write_artifact("a.json", artifact(n="four"))
        proc = run_replay_fault("--binary", self.write_stub_binary(0), art)
        self.assertEqual(proc.returncode, 2)
        self.assertIn("'n'", proc.stderr)

    def test_malformed_recovery_names_the_field(self):
        # A truncated recovery object must fail with the missing field,
        # not a KeyError traceback.
        bad = artifact(plan={"seed": 7, "crashes": [
            {"proc": 1, "after_ops": 3, "recovery": {"max_restarts": 1}}]})
        art = self.write_artifact("a.json", bad)
        proc = run_replay_fault("--binary", self.write_stub_binary(0), art)
        self.assertEqual(proc.returncode, 2)
        self.assertIn("delay_units", proc.stderr)

    def test_pre_recovery_and_recovery_artifacts_replay(self):
        # Crash entries without the optional "recovery" object (old
        # schema) and with a complete one must both reach the binary.
        old = artifact(plan={"seed": 7, "crashes": [
            {"proc": 1, "after_ops": 3}]})
        new = artifact(plan={"seed": 7, "crashes": [
            {"proc": 1, "after_ops": 3,
             "recovery": {"delay_units": 8, "max_restarts": 1,
                          "amnesia": True}}]})
        stub = self.write_stub_binary(0)
        proc = run_replay_fault("--binary", stub,
                                self.write_artifact("old.json", old),
                                self.write_artifact("new.json", new))
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        self.assertIn("2/2 artifacts reproduced", proc.stdout)


if __name__ == "__main__":
    unittest.main()
