#!/usr/bin/env python3
"""Steadiness study: run the benchmark on several seeds per workload.

    python3 perfbench/study.py --runs 10 --sets 2 \
        --write perfbench/STEADINESS.md

Runs perfbench/run.py --trace 0 once per (set, workload, seed), with
seeds first-seed .. first-seed+runs-1 in every set; a set runs every
workload before the next set starts. For every end-to-end metric it
reports, per set, the median, first and third quartile
(statistics.quantiles(values, n=4)) and the spread (Q3 - Q1) / median
next to the metric's bound in BENCHMARK.json, and how far each later
set's median moved from the first set's in the metric's worse
direction. --write also stores the tables and every run's raw values
as Markdown.
"""

import argparse
import datetime
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload, seed, seconds):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    wall = time.monotonic() - t0
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    header = [l[2:] for l in lines if l.startswith("# ")]
    return json.loads(lines[-1]), header, wall


def spread_row(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--first-seed", type=int, default=101)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--workloads", default="")
    ap.add_argument("--write", default="")
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    workloads = ([w for w in args.workloads.split(",") if w] or
                 [w["name"] for w in spec["workloads"]])
    seeds = range(args.first_seed, args.first_seed + args.runs)

    # raw[set][workload][metric] -> values in seed order
    raw, header, walls, times = [], [], [], []
    ok = True
    for s in range(args.sets):
        start = datetime.datetime.now(datetime.timezone.utc)
        raw.append({})
        for w in workloads:
            values = {name: [] for name in metrics}
            for seed in seeds:
                result, header, wall = run_once(w, seed, seconds)
                walls.append(wall)
                ok = ok and result["correct"]
                for name in metrics:
                    values[name].append(result["metrics"][name]["value"])
                print(f"set {s + 1} {w} seed {seed}: " + ", ".join(
                    f"{n}={v[-1]:.6g}" for n, v in values.items()) +
                    f" ({wall:.1f} s)", flush=True)
            raw[s][w] = values
        end = datetime.datetime.now(datetime.timezone.utc)
        times.append(f"{start:%H:%M}-{end:%H:%M} UTC")

    out = []
    for s, sets in enumerate(raw):
        out += [f"### Set {s + 1} ({times[s]})", "",
                "| workload | metric | median | Q1 | Q3 | spread | bound |",
                "|---|---|---|---|---|---|---|"]
        for w, values in sets.items():
            for name, v in values.items():
                med, q1, q3, spread = spread_row(v)
                bound = metrics[name]["bound"]
                flag = ("" if spread < bound / 3 or name == "setup_s"
                        else " (!)")
                if spread > bound and name != "setup_s":
                    flag = " (over bound)"
                out.append(f"| {w} | {name} | {med:.6g} | {q1:.6g} | "
                           f"{q3:.6g} | {spread:.4f}{flag} | {bound} |")
        out.append("")
    if len(raw) > 1:
        out += ["### Later sets against set 1", "",
                "Change of the median in the metric's worse direction "
                "(negative: it got better).", "",
                "| workload | metric | " + " | ".join(
                    f"set {s + 1}" for s in range(1, len(raw))) +
                " | bound |",
                "|---|---|" + "---|" * (len(raw) - 1) + "---|"]
        for w in workloads:
            for name, m in metrics.items():
                base = statistics.median(raw[0][w][name])
                cells = []
                for later in raw[1:]:
                    med = statistics.median(later[w][name])
                    worse = (med - base) / base
                    if m["better"] == "higher":
                        worse = -worse
                    mark = " (over bound)" if worse > m["bound"] else ""
                    cells.append(f"{worse:+.4f}{mark}")
                out.append(f"| {w} | {name} | " + " | ".join(cells) +
                           f" | {m['bound']} |")
        out.append("")
    out.append(f"All runs correct: {ok}. Wall time per run: median "
               f"{statistics.median(walls):.1f} s, max {max(walls):.1f} s "
               "(build already done).")
    print("\n".join(out))

    if args.write:
        host = [h for h in header
                if h.split(":")[0] in ("cpu", "nproc", "os", "compiler",
                                       "build_type", "git_commit")]
        doc = [
            "# Steadiness study",
            "",
            f"Produced by `python3 perfbench/study.py --runs {args.runs} "
            f"--sets {args.sets} --first-seed {args.first_seed} "
            f"--seconds {seconds}` on "
            f"{datetime.date.today().isoformat()}: one run of "
            "`perfbench/run.py --trace 0` per set, workload and seed, "
            f"seeds {seeds.start}..{seeds.stop - 1} in every set, run "
            "one after another on one host, a 4-vCPU VM that shares "
            "its machine with other tenants.",
            "",
            "Host:",
            "",
        ] + [f"- {h}" for h in host] + [
            "",
            "Spread is (Q3 - Q1) / median, with the quartiles of "
            "`statistics.quantiles(values, n=4)`. The benchmark aims "
            "for every spread below a third of its bound (setup_s "
            "excepted, which has the largest bound); `(!)` marks one "
            "that is not, `(over bound)` one above its bound.",
            "",
            "## Results",
            "",
        ] + out + ["", "## Raw values", ""]
        for s, sets in enumerate(raw):
            for w, values in sets.items():
                doc += [f"### Set {s + 1}, {w}", ""]
                for name, v in values.items():
                    doc.append(f"- {name}: " +
                               ", ".join(f"{x:.6g}" for x in v))
                doc.append("")
        Path(args.write).write_text("\n".join(doc))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
