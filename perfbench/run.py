#!/usr/bin/env python3
"""perfbench: the repository benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload fig6_sweep --seed 1 \\
        --seconds 45 --trace 0

It builds the repository and the benchmark harness into .bench_build/,
times the unmodified user-facing program of the workload, checks its
output against perfbench/ref/, and prints one JSON result as the last
line of stdout. --trace 0 reports the end-to-end metrics; --trace 1
runs the program once untraced plus the harness's traced pass and
reports the per-layer metrics. Metric names and units come from
BENCHMARK.json. See perfbench/README.md.
"""

import sys

sys.dont_write_bytecode = True

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import refcheck  # noqa: E402

BUILD_ROOT = ".bench_build"
# The arguments of each workload's program. Each program uses its own
# fixed seed.
WORKLOADS = {
    "fig6_sweep": [],
    "fault_campaign": [],
}
# Files a checkout must hold for the benchmark to build its programs.
REQUIRED = ["CMakeLists.txt", "src/CMakeLists.txt",
            "bench/bench_fig6_exec_time.cc", "bench/bench_faults.cc",
            "perfbench/CMakeLists.txt",
            "perfbench/harness.cc", "BENCHMARK.json"]
# One program run may take at most this long.
PROGRAM_TIMEOUT_S = 120
# Repetitions of a workload's set-up in one run: at least SETUP_REPS,
# and at least SETUP_MIN_S seconds in total.
SETUP_REPS = 7
SETUP_MIN_S = 1.0


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def fail(msg, code=2):
    log(msg)
    sys.exit(code)


def clean_env(tmpdir):
    """The environment for every child: no PIMDSM_* knobs (the
    programs run their default serial configuration) and temporary
    files inside the build tree."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("PIMDSM_")}
    env["TMPDIR"] = tmpdir
    return env


def nproc():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def source_digest():
    """SHA-256 over the files that make up the timed programs, so a
    result names the code it measured even without git metadata."""
    h = hashlib.sha256()
    roots = ["CMakeLists.txt", "src", "bench", "examples", "perfbench"]
    files = []
    for r in roots:
        if os.path.isfile(r):
            files.append(r)
        for d, dirs, names in os.walk(r):
            dirs.sort()
            files.extend(os.path.join(d, n) for n in sorted(names))
    for path in files:
        h.update(path.encode())
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:16]


def git_commit():
    if not os.path.isdir(".git"):
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def build(env):
    """Configure and build the timed programs and the harness; returns
    the target map. Builds the tier-1 way (-Werror on); if that fails
    on this compiler, builds again with -DPIMDSM_WERROR=OFF."""
    logpath = os.path.join(BUILD_ROOT, "perfbench-build.log")
    for werror in ("ON", "OFF"):
        bdir = os.path.join(BUILD_ROOT, "perfbench" if werror == "ON"
                            else "perfbench-nowerror")
        failed_marker = os.path.join(bdir, "BUILD_FAILED")
        if os.path.exists(failed_marker):
            continue
        with open(logpath, "a", encoding="utf-8") as lf:
            steps = []
            if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
                steps.append(["cmake", "-S", "perfbench", "-B", bdir,
                              "-DCMAKE_BUILD_TYPE=RelWithDebInfo",
                              "-DPIMDSM_WERROR=" + werror])
            steps.append(["cmake", "--build", bdir, "-j", str(nproc()),
                          "--target", "perfbench_all"])
            ok = True
            for cmd in steps:
                lf.write("$ " + " ".join(cmd) + "\n")
                lf.flush()
                if subprocess.run(cmd, stdout=lf, stderr=lf,
                                  env=env).returncode != 0:
                    ok = False
                    break
        if ok:
            targets = {}
            path = os.path.join(bdir, "perfbench_targets.txt")
            with open(path, encoding="utf-8") as f:
                for line in f:
                    k, _, v = line.strip().partition("=")
                    if k:
                        targets[k] = v
            return targets
        os.makedirs(bdir, exist_ok=True)
        with open(failed_marker, "w", encoding="utf-8") as f:
            f.write("see " + logpath + "\n")
        log("build with PIMDSM_WERROR=%s failed (see %s)" % (werror,
                                                             logpath))
    fail("could not build the benchmark", 1)


def run_program(cmd, workdir, env):
    """Run @p cmd to completion in @p workdir. Returns (wall_s, cpu_s,
    peak_rss_mb, exit_code, stdout)."""
    out_path = os.path.join(workdir, "stdout.txt")
    err_path = os.path.join(workdir, "stderr.txt")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        p = subprocess.Popen(cmd, cwd=workdir, stdout=out, stderr=err,
                             env=env)
        killer = threading.Timer(PROGRAM_TIMEOUT_S, p.kill)
        killer.start()
        try:
            _, status, ru = os.wait4(p.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
    with open(out_path, encoding="utf-8", errors="replace") as f:
        stdout = f.read()
    return (wall, ru.ru_utime + ru.ru_stime, ru.ru_maxrss / 1024.0,
            os.waitstatus_to_exitcode(status), stdout)


def timed_runs(workload, targets, seconds, env, workdir):
    """Run the workload's program back to back while another run still
    fits in @p seconds (at least once), checking each run's output.
    Returns (runs, attempted, failed)."""
    cmd = [targets[workload]] + WORKLOADS[workload]
    ref = refcheck.reference(workload)
    runs = []
    attempted = failed = 0
    start = time.perf_counter()
    while True:
        json_out = os.path.join(workdir, "BENCH_faults.json")
        if os.path.exists(json_out):
            os.remove(json_out)
        wall, cpu, rss, code, stdout = run_program(cmd, workdir, env)
        runs.append((wall, cpu, rss))
        attempted += len(ref)
        if code != 0:
            log("%s exited with %d" % (cmd[0], code))
            failed += len(ref)
        else:
            out = refcheck.output_points(workload, stdout, workdir)
            failed += refcheck.count_failed(ref, out)
        elapsed = time.perf_counter() - start
        typical = statistics.median(r[0] for r in runs)
        if elapsed + typical > seconds:
            return runs, attempted, failed


def harness_json(targets, args, env, workdir):
    cmd = [targets["harness"]] + args
    err_path = os.path.join(workdir, "harness-stderr.txt")
    with open(err_path, "wb") as err:
        p = subprocess.run(cmd, cwd=workdir, stdout=subprocess.PIPE,
                           stderr=err, env=env, timeout=170)
    if p.returncode != 0:
        fail("harness %s failed with %d (see %s)"
             % (" ".join(args), p.returncode, err_path), 1)
    return json.loads(p.stdout.decode().strip().splitlines()[-1])


def file_digest(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()[:16]


def event_total(workload, targets, env, workdir, traced=None):
    """The exact simulated-event total of @p workload, counted by the
    harness for this build and cached per harness binary (the count
    repeats bit for bit). @p traced stores a traced pass's count."""
    cache_dir = os.path.join(BUILD_ROOT, "perfbench-cache")
    os.makedirs(cache_dir, exist_ok=True)
    path = os.path.join(cache_dir, "events-%s-%s.json" % (
        workload, file_digest(targets["harness"])))
    if traced is not None:
        events = traced
    elif os.path.exists(path):
        with open(path, encoding="utf-8") as f:
            return json.load(f)["events"]
    else:
        counted = harness_json(targets, ["count", workload], env, workdir)
        events = counted["events"]
    with open(path, "w", encoding="utf-8") as f:
        json.dump({"events": events}, f)
    return events


def setup_seconds(workload, targets, env, workdir):
    """Median of several in-process set-ups of every point."""
    got = harness_json(targets, ["setup", workload, str(SETUP_REPS),
                                 str(SETUP_MIN_S)], env, workdir)
    return statistics.median(got["setup_s"])


def load_metric_units():
    with open("BENCHMARK.json", encoding="utf-8") as f:
        spec = json.load(f)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def with_units(values, units):
    missing = sorted(set(units) - set(values))
    extra = sorted(set(values) - set(units))
    if missing or extra:
        fail("metric set does not match BENCHMARK.json: missing %s, "
             "extra %s" % (missing, extra), 1)
    return {k: {"value": values[k], "unit": units[k]}
            for k in sorted(values)}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=45)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    missing = [p for p in REQUIRED if not os.path.exists(p)]
    if missing:
        fail("not the root of a pimdsm checkout (missing %s)"
             % ", ".join(missing))
    e2e_units, layer_units = load_metric_units()

    load_start = os.getloadavg()
    tmpdir = os.path.abspath(os.path.join(BUILD_ROOT, "tmp"))
    workdir = os.path.abspath(os.path.join(
        BUILD_ROOT, "perfbench-work", args.workload))
    for d in (tmpdir, workdir):
        os.makedirs(d, exist_ok=True)
    env = clean_env(tmpdir)

    targets = build(env)
    for k in WORKLOADS:
        targets[k] = os.path.abspath(targets[k])
    targets["harness"] = os.path.abspath(targets["harness"])

    fingerprint = {
        "nproc": nproc(),
        "cpu": cpu_model(),
        "compiler": targets.get("compiler"),
        "build_type": targets.get("build_type"),
        "werror": targets.get("werror"),
        "commit": git_commit(),
        "source_digest": source_digest(),
        "loadavg_start": list(load_start),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }

    if args.trace == 0:
        setup_s = setup_seconds(args.workload, targets, env, workdir)
        runs, attempted, failed = timed_runs(
            args.workload, targets, args.seconds, env, workdir)
        events = event_total(args.workload, targets, env, workdir)
        wall = statistics.median(r[0] for r in runs)
        values = {
            "wall_s": wall,
            "cpu_s": statistics.median(r[1] for r in runs),
            "peak_rss_mb": statistics.median(r[2] for r in runs),
            "events_per_s": events / wall,
            "setup_s": setup_s,
        }
        metrics = with_units(values, e2e_units)
        fingerprint["runs"] = len(runs)
        fingerprint["wall_s_each"] = [r[0] for r in runs]
        fingerprint["events"] = events
    else:
        runs, attempted, failed = timed_runs(
            args.workload, targets, 0, env, workdir)
        untraced_wall = runs[0][0]
        trace_dir = os.path.join(BUILD_ROOT, "perfbench-traces")
        os.makedirs(trace_dir, exist_ok=True)
        spans = os.path.abspath(os.path.join(
            trace_dir, "%s-seed%d.json" % (args.workload, args.seed)))
        traced = harness_json(
            targets, ["trace", args.workload, str(args.seed), spans],
            env, workdir)
        values = dict(traced["metrics"])
        values["check.ops_failed"] = failed
        values["check.trace_overhead_frac"] = (
            traced["traced_run_s"] / untraced_wall - 1.0)
        event_total(args.workload, targets, env, workdir,
                    traced=values["sim.events"])
        if traced["unexpected"]:
            log("traced pass: %d points ended unexpectedly"
                % traced["unexpected"])
            failed = min(attempted, failed + traced["unexpected"])
        metrics = with_units(values, layer_units)
        fingerprint["spans"] = os.path.relpath(spans)
        fingerprint["untraced_wall_s"] = untraced_wall

    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    results_dir = os.path.join(BUILD_ROOT, "perfbench-results")
    os.makedirs(results_dir, exist_ok=True)
    with open(os.path.join(results_dir, "%s-seed%d-trace%d.json" % (
            args.workload, args.seed, args.trace)), "w",
            encoding="utf-8") as f:
        json.dump({"host": fingerprint, "result": result}, f, indent=1)
    print("perfbench host: " + json.dumps(fingerprint, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    shutil.rmtree(tmpdir, ignore_errors=True)


if __name__ == "__main__":
    main()
