#!/usr/bin/env python3
"""Self-tests for the perfbench benchmark. Run from the repository root:

    python3 perfbench/selftest.py              # fault_campaign only
    python3 perfbench/selftest.py --all        # every workload (slow)

1. Every metric name run.py prints appears in BENCHMARK.json (with the
   same unit), and each mode prints exactly its section's metrics.
2. Every exact per-layer count repeats bit for bit across two traced
   passes.
3. The correctness check flags a deliberately perturbed reference row
   of each workload, and passes the unperturbed reference.
"""

import sys

sys.dont_write_bytecode = True

import json  # noqa: E402
import os  # noqa: E402
import subprocess  # noqa: E402
import unittest  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import refcheck  # noqa: E402
import run as bench  # noqa: E402

# Per-layer counts that must repeat bit for bit for the same code.
EXACT = [
    "report.points", "workload.ops", "sim.events", "sim.allocs_per_event",
    "net.msgs", "net.msgs_per_kinstr", "net.link_wait_ticks", "mem.reads",
    "mem.read_frac_flc", "mem.read_frac_slc", "mem.read_frac_local",
    "mem.read_frac_hop2", "mem.read_frac_hop3", "mem.local_serve_frac",
    "proto.engine_wait_ticks", "proto.dnode_util", "proto.retries",
    "proto.failovers", "core.instructions", "core.mem_stall_frac",
    "core.sync_frac",
]
WORKLOADS = ["fault_campaign"]


def run_bench(workload, trace):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", "7", "--seconds", "1", "--trace", str(trace)],
        stdout=subprocess.PIPE, check=True, text=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def spec():
    with open("BENCHMARK.json", encoding="utf-8") as f:
        return json.load(f)


class MetricNames(unittest.TestCase):
    def check_mode(self, trace, section):
        listed = {m["name"]: m["unit"] for m in spec()[section]}
        for w in WORKLOADS:
            res = run_bench(w, trace)
            self.assertEqual(set(res), {"correct", "attempted", "failed",
                                        "metrics"})
            self.assertTrue(res["correct"], w)
            self.assertEqual(res["failed"], 0, w)
            for name, m in res["metrics"].items():
                self.assertIn(name, listed, "%s printed by %s" % (name, w))
                self.assertEqual(m["unit"], listed[name], name)
            self.assertEqual(set(res["metrics"]), set(listed), w)
            if trace:
                self.assertEqual(res["metrics"]["check.ops_failed"]["value"],
                                 0, w)

    def test_end_to_end_names(self):
        self.check_mode(0, "end_to_end")

    def test_per_layer_names(self):
        self.check_mode(1, "per_layer")

    def test_exact_names_are_listed(self):
        listed = {m["name"] for m in spec()["per_layer"]}
        self.assertLessEqual(set(EXACT), listed)


class ExactCounts(unittest.TestCase):
    def test_two_traced_passes_agree(self):
        env = bench.clean_env(os.path.abspath(bench.BUILD_ROOT))
        targets = bench.build(env)
        workdir = os.path.abspath(os.path.join(bench.BUILD_ROOT,
                                               "perfbench-selftest"))
        os.makedirs(workdir, exist_ok=True)
        spans = os.path.join(workdir, "spans.json")
        for w in WORKLOADS:
            passes = [bench.harness_json(
                targets, ["trace", w, str(seed), spans], env, workdir)
                for seed in (3, 4)]
            for name in EXACT:
                self.assertEqual(passes[0]["metrics"][name],
                                 passes[1]["metrics"][name],
                                 "%s on %s" % (name, w))
            self.assertEqual(passes[0]["unexpected"], 0, w)
            with open(spans, encoding="utf-8") as f:
                names = {s["name"] for s in json.load(f)}
            self.assertLessEqual(
                {"point", "build", "run", "stream", "driver.queue",
                 "driver.mesh", "driver.mesh_degraded", "driver.cache"},
                names)


def perturb_digit(line):
    """@p line with its last digit changed."""
    for i in range(len(line) - 1, -1, -1):
        if line[i].isdigit():
            d = "0" if line[i] != "0" else "1"
            return line[:i] + d + line[i + 1:]
    raise ValueError("no digit in " + line)


class PerturbedReference(unittest.TestCase):
    def read(self, name):
        with open(os.path.join(refcheck.REF_DIR, name),
                  encoding="utf-8") as f:
            return f.read()

    def perturb_line(self, text, pred):
        lines = text.split("\n")
        for i, line in enumerate(lines):
            if pred(line):
                lines[i] = perturb_digit(line)
                return "\n".join(lines)
        self.fail("no line to perturb")

    def test_fig6_summary_cell(self):
        ref = refcheck.reference("fig6_sweep")
        self.assertEqual(len(ref), 49)
        text = self.read("fig6_sweep.txt")
        self.assertEqual(refcheck.count_failed(
            ref, refcheck.fig6_points(text)), 0)
        bad = self.perturb_line(text, lambda l: l.startswith("| radix"))
        self.assertEqual(refcheck.count_failed(
            ref, refcheck.fig6_points(bad)), 1)

    def test_fig6_bar(self):
        ref = refcheck.reference("fig6_sweep")
        bad = self.perturb_line(self.read("fig6_sweep.txt"),
                                lambda l: l.startswith("  COMA75"))
        self.assertEqual(refcheck.count_failed(
            ref, refcheck.fig6_points(bad)), 1)

    def test_fault_table_row(self):
        ref = refcheck.reference("fault_campaign")
        self.assertEqual(len(ref), 50)
        table = self.read("fault_campaign.txt")
        js = self.read("fault_campaign.json")
        self.assertEqual(refcheck.count_failed(
            ref, refcheck.fault_points(table, js)), 0)
        bad = self.perturb_line(table, lambda l: "dnode_death" in l)
        self.assertEqual(refcheck.count_failed(
            ref, refcheck.fault_points(bad, js)), 1)

    def test_fault_json_row(self):
        ref = refcheck.reference("fault_campaign")
        bad = self.perturb_line(self.read("fault_campaign.json"),
                                lambda l: "\"partition\"" in l)
        self.assertEqual(refcheck.count_failed(
            ref, refcheck.fault_points(self.read("fault_campaign.txt"),
                                       bad)), 1)

    def test_wedge_completing_is_a_failure(self):
        ref = refcheck.reference("fault_campaign")
        table = self.read("fault_campaign.txt")
        bad = "\n".join(
            l.replace("watchdog: phase 'init' s", "yes" + " " * 21)
            if "wedge" in l else l for l in table.split("\n"))
        self.assertNotEqual(bad, table)
        self.assertEqual(refcheck.count_failed(
            ref, refcheck.fault_points(bad,
                                       self.read("fault_campaign.json"))),
            1)

    def test_missing_output_fails_every_point(self):
        for w in ("fig6_sweep", "fault_campaign"):
            ref = refcheck.reference(w)
            self.assertEqual(refcheck.count_failed(ref, {}), len(ref), w)


if __name__ == "__main__":
    if "--all" in sys.argv:
        sys.argv.remove("--all")
        WORKLOADS[:] = ["fig6_sweep", "fault_campaign"]
    unittest.main()
