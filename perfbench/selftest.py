#!/usr/bin/env python3
"""Short-mode self-test of the benchmark.

    python3 perfbench/selftest.py

Runs perfbench/run.py --short on every workload of BENCHMARK.json,
untraced and traced. Each run must print a parseable JSON result as
its last line, with exactly the keys correct/attempted/failed/metrics.
That result must be correct, and it must hold every end-to-end
(--trace 0) or per-layer (--trace 1) metric of BENCHMARK.json with
its unit. The report lines must print every metric with its unit.
Traced runs must also write host-time spans and a sim-time trace that
parse as Chrome trace-event JSON. Last, run.py must fail without
printing a result in a directory that holds only BENCHMARK.json and
perfbench/. Exits 0 when every check passes.
"""

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRATCH = ROOT / ".bench_out" / "selftest"


def run(cwd, workload, trace, timeout=900, env=None, extra=()):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", "1", "--seconds", "1", "--trace", str(trace),
           "--short", *extra]
    return subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True,
                          timeout=timeout, env=env)


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = []

    def check(ok, what):
        print(("ok   " if ok else "FAIL ") + what, flush=True)
        if not ok:
            failures.append(what)

    shutil.rmtree(SCRATCH, ignore_errors=True)
    SCRATCH.mkdir(parents=True)
    for w in spec["workloads"]:
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            tag = f"{w['name']} --trace {trace}"
            sim_trace = SCRATCH / f"simtrace-{w['name']}.json"
            extra = ("--sim-trace-out", str(sim_trace)) if trace else ()
            proc = run(ROOT, w["name"], trace, extra=extra)
            check(proc.returncode == 0, f"{tag}: exit code 0")
            lines = proc.stdout.strip().splitlines()
            try:
                result = json.loads(lines[-1])
            except (IndexError, ValueError):
                check(False, f"{tag}: last line parses as JSON")
                continue
            check(sorted(result) ==
                  ["attempted", "correct", "failed", "metrics"],
                  f"{tag}: result has exactly the four keys")
            check(result["correct"] is True and result["failed"] == 0,
                  f"{tag}: correct, 0 failed")
            check(isinstance(result["attempted"], int) and
                  result["attempted"] >= 1, f"{tag}: attempted >= 1")
            report = "\n".join(lines[:-1])
            want = {m["name"]: m["unit"] for m in spec[group]}
            got = result["metrics"]
            check(sorted(got) == sorted(want),
                  f"{tag}: exactly the {len(want)} {group} metrics")
            for name, unit in want.items():
                m = got.get(name, {})
                ok = (m.get("unit") == unit and
                      isinstance(m.get("value"), (int, float)) and
                      math.isfinite(m["value"]) and
                      f"# {name} = " in report and
                      f" {unit}" in report.split(f"# {name} = ", 1)[-1]
                      .split("\n", 1)[0])
                if not ok:
                    check(False, f"{tag}: {name} printed in {unit}")
            if group == "end_to_end":
                check(all(got[n]["value"] > 0 for n in want),
                      f"{tag}: every end-to-end metric is positive")
            else:
                spans = (ROOT / ".bench_out" /
                         f"hostspans-{w['name']}-seed1.json")
                for path in (spans, sim_trace):
                    try:
                        events = json.loads(path.read_text())
                        ok = bool(events["traceEvents"])
                    except (OSError, ValueError, KeyError):
                        ok = False
                    check(ok, f"{tag}: {path.name} parses, has events")

    # A directory with only BENCHMARK.json and the benchmark's files
    # cannot build the simulator: run.py must fail, printing nothing.
    bare = SCRATCH / "bare"
    bare.mkdir()
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in spec["paths"]:
        shutil.copytree(ROOT / path, bare / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    env = {k: v for k, v in os.environ.items()
           if k != "CARGO_TARGET_DIR"}
    proc = run(bare, spec["workloads"][0]["name"], 0, timeout=180,
               env=env)
    check(proc.returncode != 0 and not proc.stdout.strip(),
          "bare directory: non-zero exit, no result printed")
    shutil.rmtree(SCRATCH, ignore_errors=True)

    print(f"selftest: {len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
