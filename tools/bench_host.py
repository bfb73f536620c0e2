#!/usr/bin/env python3
"""Append one host-time trajectory record to BENCH_host.json.

    python3 tools/bench_host.py --parent HEAD~1 --pairs 10 \\
        --workload steady-thumbnail --workload burst-pybbs --seed 1 \\
        --seconds 30

Runs perfbench/run.py (--trace 0) on a parent checkout and on this
checkout for --pairs alternating pairs per workload: even pairs run
the parent first, odd pairs the change first, so slow drift of the
host hits both sides alike. The parent is a git revision (--parent),
exported with `git archive` into a temporary directory. Each side
builds its own hostbench into <checkout>/.bench_build.

The record holds the commits, run.py's host descriptor, and for each
workload and side the median, Q1 and Q3 (statistics.quantiles,
inclusive method) of sim_req_per_host_s, setup_s and rss_p99_mb, the
raw per-run values, how many pairs the change won on
sim_req_per_host_s, whether every run's simulated metrics
(sim_p50_ms, sim_p99_ms, sim_goodput_rps) were identical, and the
number of failed operations. Progress goes to stderr; the appended
record is printed on stdout.
"""

import argparse
import datetime
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HOST_METRICS = ("sim_req_per_host_s", "setup_s", "rss_p99_mb")
SIM_METRICS = ("sim_p50_ms", "sim_p99_ms", "sim_goodput_rps")
HOST_KEYS = ("cpu", "nproc", "os", "compiler", "build_type")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def git(*args, cwd=ROOT):
    return subprocess.run(["git", *args], cwd=cwd, check=True,
                          capture_output=True, text=True).stdout.strip()


def export_revision(rev, dest):
    """Write the tree of @p rev into @p dest (no .git)."""
    archive = subprocess.run(["git", "archive", rev], cwd=ROOT,
                             check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive,
                   check=True)


def run_once(checkout, workload, seed, seconds):
    """One run.py invocation; returns (metrics, host, failed)."""
    env = dict(os.environ, CARGO_TARGET_DIR=str(checkout / ".bench_build"))
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, env=env, text=True,
                          stdout=subprocess.PIPE)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} failed in {checkout}")
    host = {}
    for line in lines[:-1]:
        key, sep, value = line.removeprefix("# ").partition(": ")
        if line.startswith("# ") and sep and key in HOST_KEYS:
            host[key] = value.strip()
    result = json.loads(lines[-1])
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    return metrics, host, result["failed"]


def summary(values):
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def bench_workload(parent, change, workload, seed, seconds, pairs):
    runs = {"parent": [], "change": []}
    failed = 0
    host = {}
    for i in range(pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            checkout = parent if side == "parent" else change
            metrics, host, bad = run_once(checkout, workload, seed, seconds)
            runs[side].append(metrics)
            failed += bad
            log(f"bench_host: {workload} seed {seed} pair {i + 1}/{pairs} "
                f"{side}: {metrics['sim_req_per_host_s']:.1f} req/s, "
                f"rss {metrics['rss_p99_mb']:.2f} MB")
    entry = {"workload": workload, "seed": seed, "seconds": seconds,
             "pairs": pairs}
    for side, side_runs in runs.items():
        entry[side] = {
            m: dict(summary([r[m] for r in side_runs]),
                    runs=[r[m] for r in side_runs])
            for m in HOST_METRICS}
    entry["change_wins"] = sum(
        c["sim_req_per_host_s"] > p["sim_req_per_host_s"]
        for p, c in zip(runs["parent"], runs["change"]))
    first = runs["parent"][0]
    entry["sim_identical"] = all(
        r[m] == first[m] for side in runs.values() for r in side
        for m in SIM_METRICS)
    entry["failed"] = failed
    return entry, host


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--parent", required=True,
                    help="git revision of the parent")
    ap.add_argument("--workload", action="append", required=True)
    ap.add_argument("--seed", type=int, action="append",
                    help="repeatable; default 1")
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--pairs", type=int, default=10)
    args = ap.parse_args()
    if args.pairs < 2:
        ap.error("--pairs must be at least 2 (quartiles need two runs)")
    parent_rev = git("rev-parse", args.parent)
    record = {
        "date": datetime.datetime.now(datetime.timezone.utc)
                .strftime("%Y-%m-%dT%H:%M:%SZ"),
        "commit": git("rev-parse", "HEAD"),
        "dirty": bool(git("status", "--porcelain", "--untracked-files=no")),
        "parent": parent_rev,
        "host": {},
        "command": "python3 perfbench/run.py --workload W --seed S "
                   f"--seconds {args.seconds:g} --trace 0",
        "workloads": [],
    }
    parent = Path(tempfile.mkdtemp(prefix="bench_host_parent_"))
    try:
        export_revision(parent_rev, parent)
        for seed in args.seed or [1]:
            for workload in args.workload:
                entry, host = bench_workload(parent, ROOT, workload, seed,
                                             args.seconds, args.pairs)
                record["host"] = host
                record["workloads"].append(entry)
    finally:
        shutil.rmtree(parent, ignore_errors=True)

    out = ROOT / "BENCH_host.json"
    history = json.loads(out.read_text()) if out.exists() else []
    history.append(record)
    out.write_text(json.dumps(history, indent=1) + "\n")
    print(json.dumps(record, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
