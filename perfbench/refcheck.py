"""Correctness check of the timed programs' output against the stored
seed references in perfbench/ref/.

Each workload's output is split into points (one simulated run each):
a Figure 6 bar plus its summary cell, or one bench_faults scenario
(table row plus BENCH_faults.json row). A point whose rendering
differs from the reference, or that is missing, is a failed operation. The fault campaign's wedge row is compared like any
other: its reference holds the intended watchdog outcome.
"""

import json
import os

REF_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "ref")


def fig6_points(text):
    """Map (app, column) -> (bar line, summary cell) of a Figure 6
    report."""
    bars = {}
    summary = {}
    app = None
    in_summary = False
    for line in text.splitlines():
        if line.startswith("Fig 6 — "):
            app = line[len("Fig 6 — "):].split(" (vs")[0]
            bars[app] = []
        elif line.startswith("Summary"):
            in_summary = True
            app = None
        elif in_summary and line.startswith("| "):
            cells = [c.strip() for c in line.strip().strip("|").split("|")]
            if cells[0] != "app":
                summary[cells[0]] = cells[1:]
        elif app is not None and " |" in line and line.startswith("  "):
            bars[app].append(line.rstrip())
    points = {}
    for app, rows in bars.items():
        cells = summary.get(app, [])
        for i, bar in enumerate(rows):
            points[(app, i)] = (bar, cells[i] if i < len(cells) else None)
    for app, cells in summary.items():
        for i in range(len(bars.get(app, [])), len(cells)):
            points[(app, i)] = (None, cells[i])
    return points


def fault_points(table_text, json_text):
    """Map scenario index -> (table row, JSON row) of a bench_faults
    run."""
    rows = []
    header_seen = False
    for line in table_text.splitlines():
        if not line.startswith("| "):
            continue
        if not header_seen:
            header_seen = True
            continue
        rows.append(line.rstrip())
    try:
        records = json.loads(json_text) if json_text else []
    except ValueError:
        records = []
    points = {}
    for i in range(max(len(rows), len(records))):
        points[i] = (
            rows[i] if i < len(rows) else None,
            json.dumps(records[i], sort_keys=True)
            if i < len(records) else None,
        )
    return points


def count_failed(ref, out):
    """Reference points that are missing or differ in @p out, plus
    points @p out has that the reference does not (capped at the
    reference's size)."""
    failed = sum(1 for k, v in ref.items() if out.get(k) != v)
    failed += sum(1 for k in out if k not in ref)
    return min(failed, len(ref))


def _read(name):
    with open(os.path.join(REF_DIR, name), encoding="utf-8") as f:
        return f.read()


def reference(workload):
    """Points of @p workload's stored seed output."""
    if workload == "fig6_sweep":
        return fig6_points(_read("fig6_sweep.txt"))
    if workload == "fault_campaign":
        return fault_points(_read("fault_campaign.txt"),
                            _read("fault_campaign.json"))
    raise ValueError("unknown workload " + workload)


def output_points(workload, stdout, workdir):
    """Points of one run's output (@p workdir holds files it wrote)."""
    if workload == "fig6_sweep":
        return fig6_points(stdout)
    path = os.path.join(workdir, "BENCH_faults.json")
    js = ""
    if os.path.exists(path):
        with open(path, encoding="utf-8") as f:
            js = f.read()
    return fault_points(stdout, js)
