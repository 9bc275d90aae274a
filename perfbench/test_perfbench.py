#!/usr/bin/env python3
"""Tests of the benchmark itself.

    python3 perfbench/test_perfbench.py            # everything (~3 min)
    python3 perfbench/test_perfbench.py ChecksTest # output checks only

ChecksTest shows that every output check behind cell_ok_ratio can fail: a
doctored report counts as a failed cell. SamePathTest proves the
benchmark's per-cell reports are, byte for byte, the --json artifacts of
the three shipped commands it mirrors, at the same seed and horizon.
"""
import copy
import json
import os
import re
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import evaluate  # noqa: E402
import run  # noqa: E402


def engine_cell(scenario, scheduler, offered=100, dropped=10, ooo=0):
    return {"scenario": scenario, "scheduler": scheduler, "seed": 7,
            "report": {"scenario": scenario, "scheduler": scheduler,
                       "offered": offered, "delivered": offered - dropped,
                       "dropped": dropped, "in_flight_at_end": 0,
                       "out_of_order": ooo, "flow_migrations": 3,
                       "extra": {"aggressive_migrations": 2}}}


def cluster_row(dispatcher, cross_ooo=0):
    shards = [{"offered": 50, "delivered": 45, "dropped": 5,
               "in_flight_at_end": 0, "out_of_order": 0} for _ in range(2)]
    return {"schema": "laps-cluster-v1", "dispatcher": dispatcher,
            "offered": 100, "delivered": 90, "dropped": 10,
            "intra_np_out_of_order": 0, "cluster_out_of_order": cross_ooo,
            "cross_np_out_of_order": cross_ooo, "cross_np_migrations": 4,
            "shards": shards}


def artifact(tool, reports):
    return json.dumps({"schema": "x", "tool": tool, "reports": reports},
                      indent=2) + "\n"


class ChecksTest(unittest.TestCase):
    ENGINE = [engine_cell("auck1", "AFS", ooo=5),
              engine_cell("auck1", "StaticHash"),
              engine_cell("auck1", "LAPS top-4", ooo=1),
              engine_cell("auck2", "AFS", offered=80, ooo=2),
              engine_cell("auck2", "StaticHash", offered=80)]
    CLUSTER = [cluster_row("Pass"), cluster_row("RoundRobin", cross_ooo=9),
               cluster_row("RSS"), cluster_row("Affinity")]

    def failed_cells(self, tool, reference, doctored):
        """Failed cell keys when `doctored` is checked as pass 1 after
        `reference`."""
        passes = [(len(reference), artifact(tool, reference)),
                  (len(reference), artifact(tool, doctored))]
        attempted, failed, failures = evaluate.check_passes(passes)
        self.assertEqual(attempted, 2 * len(reference))
        self.assertEqual(failed, len(failures))
        return sorted(failures)

    def doctor_engine(self, index, edit):
        cells = copy.deepcopy(self.ENGINE)
        edit(cells[index])
        return self.failed_cells("fig9_topk_migration", self.ENGINE, cells)

    def doctor_cluster(self, index, edit):
        rows = copy.deepcopy(self.CLUSTER)
        edit(rows[index])
        return self.failed_cells("fig_cluster_dispatch", self.CLUSTER, rows)

    def test_untouched_passes_have_no_failed_cell(self):
        self.assertEqual(self.doctor_engine(0, lambda c: None), [])
        self.assertEqual(self.doctor_cluster(0, lambda r: None), [])

    def test_any_byte_change_fails_the_cell(self):
        # A traced pass is checked exactly like this second pass.
        def edit(c):
            c["report"]["flow_migrations"] += 1
        self.assertEqual(self.doctor_engine(2, edit), ["1/auck1/LAPS top-4"])

    def test_lost_packet_fails_the_cell(self):
        def edit(c):
            c["report"]["delivered"] -= 1
        # Also differs from pass 0, but it is one failed cell.
        self.assertEqual(self.doctor_engine(0, edit), ["1/auck1/AFS"])

    def test_packets_left_in_flight_fail_the_cell(self):
        def edit(c):
            c["report"]["in_flight_at_end"] = 1
        self.assertEqual(self.doctor_engine(3, edit), ["1/auck2/AFS"])

    def test_offered_mismatch_fails_every_cell_of_the_scenario(self):
        def edit(c):
            c["report"]["offered"] += 1
            c["report"]["dropped"] += 1
        self.assertEqual(self.doctor_engine(4, edit),
                         ["1/auck2/AFS", "1/auck2/StaticHash"])

    def test_reordering_hash_cell_fails(self):
        def edit(c):
            c["report"]["out_of_order"] = 1
        self.assertEqual(self.doctor_engine(1, edit), ["1/auck1/StaticHash"])

    def test_cell_that_threw_fails(self):
        def edit(c):
            c["error"] = {"kind": "exception", "message": "boom"}
        self.assertEqual(self.doctor_engine(2, edit), ["1/auck1/LAPS top-4"])

    def test_missing_cell_fails(self):
        passes = [(len(self.ENGINE), artifact("x", self.ENGINE)),
                  (len(self.ENGINE), artifact("x", self.ENGINE[:-1]))]
        attempted, failed, _ = evaluate.check_passes(passes)
        self.assertEqual((attempted, failed), (10, 1))

    def test_reordering_inside_a_shard_fails_the_row(self):
        def edit(r):
            r["shards"][1]["out_of_order"] = 2
        self.assertEqual(self.doctor_cluster(0, edit), ["1/Pass"])

    def test_cross_np_reordering_fails_rss_and_affinity_only(self):
        def edit(r):
            r["cross_np_out_of_order"] = 1
            r["cluster_out_of_order"] = 1
        self.assertEqual(self.doctor_cluster(2, edit), ["1/RSS"])
        self.assertEqual(self.doctor_cluster(3, edit), ["1/Affinity"])
        # RoundRobin reorders by design: only the byte change fails it.
        rows = copy.deepcopy(self.CLUSTER)
        passes = [(4, artifact("fig_cluster_dispatch", rows))]
        self.assertEqual(evaluate.check_passes(passes)[1], 0)

    def test_cluster_conservation_fails_the_row(self):
        def edit(r):
            r["shards"][0]["in_flight_at_end"] = 3
        self.assertEqual(self.doctor_cluster(1, edit), ["1/RoundRobin"])

    def test_cluster_rows_must_agree_on_offered(self):
        def edit(r):
            r["offered"] += 1
            r["dropped"] += 1
            r["shards"][0]["offered"] += 1
            r["shards"][0]["dropped"] += 1
        self.assertEqual(self.doctor_cluster(1, edit),
                         ["1/Affinity", "1/Pass", "1/RSS", "1/RoundRobin"])

    def test_simulated_metrics_use_the_subject_cells(self):
        text = artifact("fig9_topk_migration", self.ENGINE)
        m = evaluate.simulated_metrics("laps_replay", text)
        self.assertAlmostEqual(m["drop_pct"], 10.0)
        self.assertAlmostEqual(m["ooo_pct"], 100.0 / 90)
        self.assertAlmostEqual(m["migr_per_kpkt"], 1000.0 * 3 / 90)
        m = evaluate.simulated_metrics("paper_online", text)
        self.assertAlmostEqual(m["ooo_pct"], 100.0 * 8 / (3 * 90 + 2 * 70))


class BenchmarkJsonTest(unittest.TestCase):
    def test_committed_file_matches_the_definitions(self):
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
            self.assertEqual(json.load(f), run.benchmark_json())

    def test_definitions_keep_the_contract(self):
        doc = run.benchmark_json()
        self.assertEqual(list(doc), ["command", "paths", "run_seconds",
                                     "workloads", "end_to_end", "per_layer"])
        name = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
        unit = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
        names = [w["name"] for w in doc["workloads"]]
        self.assertTrue(2 <= len(names) <= 8)
        for w in doc["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)
        for m in doc["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertTrue(0 < m["bound"] <= 0.25)
        for m in doc["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
        for m in doc["end_to_end"] + doc["per_layer"]:
            names.append(m["name"])
            self.assertRegex(m["unit"], unit)
            self.assertIn(m["better"], ("higher", "lower"))
        for n in names:
            self.assertRegex(n, name)
        self.assertEqual(len(names), len(set(names)))
        setup = [m for m in doc["end_to_end"] if m["name"] == "setup_s"][0]
        self.assertEqual((setup["unit"], setup["better"]), ("s", "lower"))
        self.assertEqual(setup["bound"],
                         max(m["bound"] for m in doc["end_to_end"]))


class SamePathTest(unittest.TestCase):
    """Benchmark cells == shipped command artifacts, byte for byte."""

    COMMANDS = {
        "paper_online": ["fig7_scheduler_comparison", "--scenarios=T1,T5",
                         "--jobs=1"],
        "laps_replay": ["fig9_topk_migration", "--traces=auck1,auck2"],
        "cluster_dispatch": ["fig_cluster_dispatch", "--scheduler=hash"],
    }

    @classmethod
    def setUpClass(cls):
        cls.binary = run.build()
        targets = [c[0] for c in cls.COMMANDS.values()]
        subprocess.run(["cmake", "--build", run.BUILD_DIR, "-j", "4",
                        "--target"] + targets, check=True,
                       capture_output=True)

    def test_reports_match_the_shipped_commands(self):
        for workload, command in self.COMMANDS.items():
            with self.subTest(workload=workload), \
                    tempfile.TemporaryDirectory() as tmp:
                subprocess.run([self.binary, "--workload=" + workload,
                                "--out=" + tmp, "--seconds=0.001"],
                               check=True, stderr=subprocess.DEVNULL)
                shipped = os.path.join(tmp, "shipped.json")
                subprocess.run([os.path.join(run.BUILD_DIR, command[0])]
                               + command[1:] + ["--json=" + shipped],
                               check=True, stdout=subprocess.DEVNULL,
                               stderr=subprocess.DEVNULL)
                with open(os.path.join(tmp, "pass-0.json")) as f:
                    ours = [raw for raw, _ in evaluate.split_reports(f.read())]
                with open(shipped) as f:
                    theirs = [raw for raw, _ in
                              evaluate.split_reports(f.read())]
                self.assertGreater(len(ours), 0)
                self.assertEqual(ours, theirs)

    def test_traced_run_reports_every_layer_metric(self):
        summary, _, failures = run.run_workload(
            self.binary, "cluster_dispatch", None, 0.001, 1)
        self.assertEqual(failures, {})
        self.assertTrue(summary["correct"])
        self.assertEqual(list(summary["metrics"]),
                         [n for n, _, _ in run.PER_LAYER])
        # The layer sweep times what the cells leave idle: no time is 0.
        for name, unit, _ in run.PER_LAYER:
            if unit in ("ns", "s", "ms", "ns/pkt"):
                self.assertNotEqual(summary["metrics"][name]["value"], 0.0,
                                    name)

    def test_unoptimized_build_is_refused(self):
        build = os.path.join(run.ROOT, ".bench_build", "perfbench-debug")
        subprocess.run(["cmake", "-S", HERE, "-B", build,
                        "-DCMAKE_BUILD_TYPE=Debug"], check=True,
                       capture_output=True)
        subprocess.run(["cmake", "--build", build, "-j", "4", "--target",
                        "perfbench_run"], check=True, capture_output=True)
        with tempfile.TemporaryDirectory() as tmp:
            proc = subprocess.run(
                [os.path.join(build, "perfbench_run"),
                 "--workload=cluster_dispatch", "--out=" + tmp],
                capture_output=True, text=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertIn("refusing to time", proc.stderr)


if __name__ == "__main__":
    unittest.main()
