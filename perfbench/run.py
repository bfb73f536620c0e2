#!/usr/bin/env python3
"""Host-time benchmark of the BeeHive simulator: one command.

    python3 perfbench/run.py --workload burst-pybbs --seed 1 \
        --seconds 30 --trace 0

Run from the root of a checkout. It builds perfbench/hostbench from
source into $CARGO_TARGET_DIR (default .bench_build), runs the named
workload for about --seconds of timed host work, checks the outputs
and prints, as the last line of stdout, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics from untraced repetitions.
--trace 1 runs traced and untraced repetitions alternately and
reports the per-layer metrics; it also writes the host-time spans to
.bench_out/hostspans-<workload>-seed<seed>.json (Chrome trace-event
JSON). Lines before the last one are a '#'-prefixed header and
report. See perfbench/README.md for the workloads and metrics.
"""

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"

WORKLOADS = ("burst-pybbs", "steady-thumbnail", "storm-pybbs")

# A second seed, kept out of tuning, for held-out checks of later
# claims (choosing-metrics: a claim must also hold on a seed not used
# while the change was written).
HELD_OUT_SEED = 7919

# End-to-end metrics (--trace 0): name -> unit.
END_TO_END = {
    "sim_req_per_host_s": "req/s",
    "setup_s": "s",
    "rss_p99_mb": "MB",
    "sim_p50_ms": "ms",
    "sim_p99_ms": "ms",
    "sim_goodput_rps": "req/s",
}

# Per-layer metrics (--trace 1): name -> (unit, the end-to-end
# metric it should move, the workloads where it should move it).
# "none" predicts no change anywhere unless that layer changes.
ALL = "all"
BURST, STEADY, STORM = WORKLOADS
PER_LAYER = {
    "setup.testbed_s": ("s", "setup_s", ALL),
    "setup.profiling_s": ("s", "setup_s", STORM),
    "sim.events_dispatched": ("count", "sim_req_per_host_s", ALL),
    "sim.events_scheduled": ("count", "sim_req_per_host_s", ALL),
    "sim.events_cancelled": ("count", "sim_req_per_host_s", ALL),
    "sim.host_ns_per_event": ("ns", "sim_req_per_host_s", ALL),
    "sim.queue_ns_per_op": ("ns", "sim_req_per_host_s", STEADY),
    "vm.ic_hit_rate": ("ratio", "sim_req_per_host_s", f"{BURST},{STEADY}"),
    "vm.heap_objects_allocated": ("count", "sim_req_per_host_s",
                                  f"{BURST},{STEADY}"),
    "vm.heap_bytes_allocated": ("bytes", "sim_req_per_host_s",
                                f"{BURST},{STEADY}"),
    "vm.interp_ns_per_instr": ("ns", "sim_req_per_host_s",
                               f"{BURST},{STEADY}"),
    "vm.dispatch_ns": ("ns", "sim_req_per_host_s", f"{BURST},{STEADY}"),
    "gc.collections": ("count", "sim_p99_ms", STEADY),
    "gc.bytes_copied": ("bytes", "sim_req_per_host_s", STEADY),
    "gc.pause_p50_ms": ("ms", "sim_p99_ms", STEADY),
    "core.local": ("count", "sim_p99_ms", BURST),
    "core.offloaded": ("count", "sim_p99_ms", BURST),
    "core.shadows": ("count", "sim_p99_ms", BURST),
    "core.fallbacks_served": ("count", "sim_p99_ms", BURST),
    "core.retries": ("count", "sim_goodput_rps", STORM),
    "core.deadline_expirations": ("count", "sim_goodput_rps", STORM),
    "core.local_fallbacks": ("count", "sim_p99_ms", STORM),
    "core.recoveries": ("count", "sim_goodput_rps", STORM),
    "core.breaker_ejections": ("count", "sim_p99_ms", STORM),
    "core.degradations": ("count", "sim_goodput_rps", STORM),
    "cloud.cold_boots": ("count", "rss_p99_mb", f"{BURST},{STORM}"),
    "cloud.warm_boots": ("count", "sim_req_per_host_s", f"{BURST},{STORM}"),
    "cloud.restore_boots": ("count", "rss_p99_mb", f"{BURST},{STORM}"),
    "cloud.instances": ("count", "rss_p99_mb", f"{BURST},{STORM}"),
    "process.peak_rss_mb": ("MB", "rss_p99_mb", f"{BURST},{STORM}"),
    "process.minor_faults": ("count", "sim_req_per_host_s",
                             f"{BURST},{STORM}"),
    "process.sys_frac": ("ratio", "sim_req_per_host_s", f"{BURST},{STORM}"),
    "proxy.requests_routed": ("count", "sim_p99_ms", BURST),
    "proxy.offload_requests": ("count", "sim_p99_ms", BURST),
    "proxy.shadow_writes": ("count", "sim_p99_ms", BURST),
    "proxy.read_retries": ("count", "sim_goodput_rps", STORM),
    "proxy.dup_writes_suppressed": ("count", "sim_goodput_rps", STORM),
    "db.resets": ("count", "sim_goodput_rps", STORM),
    "snapshot.manifests_synthesized": ("count", "setup_s", STORM),
    "snapshot.restores_planned": ("count", "sim_p99_ms", STORM),
    "snapshot.evictions": ("count", "sim_p99_ms", STORM),
    "snapshot.corruptions": ("count", "sim_p99_ms", STORM),
    "chaos.total": ("count", "none", STORM),
    "chaos.net_drops": ("count", "none", STORM),
    "chaos.db_resets": ("count", "none", STORM),
    "chaos.boot_crashes": ("count", "none", STORM),
    "chaos.restore_crashes": ("count", "none", STORM),
    "chaos.invoke_crashes": ("count", "none", STORM),
    "chaos.throttles": ("count", "none", STORM),
    "cp.queue_ms": ("ms", "sim_p50_ms", STEADY),
    "cp.exec_ms": ("ms", "sim_p50_ms", STEADY),
    "cp.offload_ms": ("ms", "sim_p99_ms", f"{BURST},{STORM}"),
    "cp.boot_ms": ("ms", "sim_p99_ms", BURST),
    "cp.fetch_ms": ("ms", "sim_p99_ms", BURST),
    "cp.native_ms": ("ms", "sim_p50_ms", BURST),
    "cp.sync_ms": ("ms", "sim_p99_ms", BURST),
    "cp.db_ms": ("ms", "sim_p50_ms", STORM),
    "cp.gc_ms": ("ms", "sim_p99_ms", STEADY),
    "cp.net_ms": ("ms", "sim_p50_ms", BURST),
    "host.core_slowdown": ("ratio", "none", ALL),
    "host.wall_req_per_s": ("req/s", "sim_req_per_host_s", ALL),
    "telemetry.overhead_frac": ("ratio", "none", ALL),
    "telemetry.span_violations": ("count", "none", ALL),
}

# hostbench's core probe (CoreProbe), in ns per kernel iteration, on
# the reference host: a 4-vCPU Xeon VM at 2.0 GHz nominal, built with
# gcc 12 in Release. Host times are scaled by probe / this value, so
# they read as seconds of a core running at the reference speed.
REFERENCE_PROBE_NS = 4.0
HOSTBENCH_TIMEOUT = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    d = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    return d if d.is_absolute() else ROOT / d


def build():
    """Configure once and build hostbench; output goes to stderr."""
    out = build_dir()
    if not (out / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(BENCH_DIR), "-B", str(out),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(out / "CMakeFiles", ignore_errors=True)
            (out / "CMakeCache.txt").unlink(missing_ok=True)
            return None
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", str(out), "--target", "hostbench",
           "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        return None
    return out / "hostbench"


def host_header(binary_info, seed):
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = "none (not a git checkout)"
    try:
        r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                           capture_output=True, text=True, timeout=10)
        if r.returncode == 0:
            commit = r.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return [
        f"cpu: {cpu}",
        f"nproc: {os.cpu_count()}",
        f"os: {platform.system()} {platform.release()}",
        f"compiler: {binary_info.get('compiler', '?')}",
        f"build_type: {binary_info.get('build_type', '?')}",
        f"git_commit: {commit}",
        f"seed: {seed}  held_out_seed: {HELD_OUT_SEED}",
    ]


def sim_signature(rep):
    """Everything a repetition's simulation decides (no host time)."""
    keys = ("issued", "completed", "samples", "p50_ms", "p99_ms",
            "goodput_rps", "events")
    return ({k: rep[k] for k in keys}, rep["layers"])


class Checks:
    def __init__(self):
        self.attempted = 0
        self.failed = []

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed.append(what)


def positive(x):
    return isinstance(x, (int, float)) and math.isfinite(x) and x > 0


def slowdown(probe_ns):
    """How much slower than the reference the core ran (> 0)."""
    return probe_ns / REFERENCE_PROBE_NS


def scaled_timed_s(rep):
    """A repetition's timed host seconds at the reference core speed."""
    return rep["timed_s"] / slowdown(rep["probe_ns"])


def aggregate(records, trace, checks):
    untraced = [r for r in records if r["record"] == "untraced"]
    traced = [r for r in records if r["record"] == "traced"]
    setups = [r for r in records if r["record"] == "setup"]
    process = next(r for r in records if r["record"] == "process")

    if trace:
        checks.check(bool(traced), "no traced repetition ran")
    reps = untraced + traced
    for r in records:
        if "root_selected" not in r:
            continue
        checks.check(r["root_selected"],
                     "the profiler did not select the handler as a root")
    for r in reps:
        checks.check(r["completed"] == r["issued"],
                     f"{r['record']} rep {r['rep']}: "
                     f"{r['issued'] - r['completed']} requests dropped")
        checks.check(r["samples"] * 0.01 >= 10,
                     f"p99 has fewer than 10 samples beyond it "
                     f"({r['samples']} samples)")
    first = sim_signature(untraced[0])
    for r in reps[1:]:
        checks.check(sim_signature(r) == first,
                     f"{r['record']} rep {r['rep']}: simulated results "
                     f"differ from untraced rep 0")
    u0 = untraced[0]
    if not trace:
        # Host times at the reference core speed: each repetition by
        # the probe over its own timed phase, each set-up by the probe
        # right before and after it.
        timed = sum(scaled_timed_s(r) for r in untraced)
        metrics = {
            "sim_req_per_host_s":
                sum(r["completed"] for r in untraced) / timed,
            "setup_s": statistics.median(
                (r["testbed_s"] + r["profiling_s"]) / slowdown(r["probe_ns"])
                for r in setups),
            "rss_p99_mb": statistics.median(
                r["rss_p99_mb"] for r in untraced),
            "sim_p50_ms": u0["p50_ms"],
            "sim_p99_ms": u0["p99_ms"],
            "sim_goodput_rps": u0["goodput_rps"],
        }
        for name, value in metrics.items():
            checks.check(positive(value), f"{name} is not positive")
        units = END_TO_END
    else:
        t0 = traced[0]
        kernels = next(r for r in records if r["record"] == "kernels")
        tel = t0["telemetry"]
        checks.check(process["host_span_violations"] == 0,
                     "host-time spans do not nest")
        checks.check(tel["telemetry.span_violations"] == 0,
                     "sim-time spans are not well formed")
        checks.check(tel["telemetry.path_sum_mismatches"] == 0,
                     "a critical path does not sum to its latency")
        checks.check(tel["telemetry.paths_analyzed"] >= t0["completed"],
                     "a completed request has no complete span tree")
        checks.check(tel["telemetry.spans_dropped"] == 0,
                     "the span buffer wrapped")
        u_timed = sum(scaled_timed_s(r) for r in untraced)
        t_timed = sum(scaled_timed_s(r) for r in traced)
        u_events = sum(r["events"] for r in untraced)
        t_events = sum(r["events"] for r in traced)
        cpu = sum(r["user_s"] + r["sys_s"] for r in untraced)
        metrics = {
            "setup.testbed_s": statistics.median(
                r["testbed_s"] for r in untraced),
            "setup.profiling_s": statistics.median(
                r["profiling_s"] for r in untraced),
            "sim.host_ns_per_event": u_timed / u_events * 1e9,
            "sim.queue_ns_per_op": kernels["values"]["sim.queue_ns_per_op"],
            "vm.interp_ns_per_instr":
                kernels["values"]["vm.interp_ns_per_instr"],
            "vm.dispatch_ns": t0["dispatch_ns"],
            "process.peak_rss_mb": process["peak_rss_mb"],
            "process.minor_faults": statistics.median(
                r["minor_faults"] for r in untraced),
            "process.sys_frac":
                sum(r["sys_s"] for r in untraced) / cpu if cpu else 0.0,
            "host.core_slowdown": statistics.median(
                slowdown(r["probe_ns"]) for r in untraced),
            "host.wall_req_per_s": sum(r["completed"] for r in untraced) /
                sum(r["timed_s"] for r in untraced),
            "telemetry.overhead_frac":
                (t_timed / t_events) / (u_timed / u_events) - 1.0,
            "telemetry.span_violations": tel["telemetry.span_violations"],
        }
        # Layer counters and critical-path means come straight from
        # the traced repetition, under their per-layer names.
        metrics.update(t0["layers"])
        metrics.update({k: v for k, v in tel.items()
                        if k.startswith("cp.")})
        units = {name: spec[0] for name, spec in PER_LAYER.items()}
    missing = set(units) - set(metrics)
    checks.check(not missing, f"metrics not produced: {sorted(missing)}")
    return {name: {"value": metrics[name], "unit": units[name]}
            for name in units if name in metrics}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--short", action="store_true",
                    help="shortened simulated runs (self-test only)")
    ap.add_argument("--sim-trace-out", default="",
                    help="--trace 1: also write the sim-time Chrome "
                         "trace of the first traced repetition here")
    args = ap.parse_args()

    binary = build()
    if binary is None or not binary.exists():
        log("run.py: building hostbench failed")
        return 1

    out_dir = ROOT / ".bench_out"
    cmd = [str(binary), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds)]
    if args.trace:
        out_dir.mkdir(exist_ok=True)
        spans = out_dir / f"hostspans-{args.workload}-seed{args.seed}.json"
        cmd += ["--traced", "--spans-out", str(spans)]
        if args.sim_trace_out:
            cmd += ["--sim-trace-out", args.sim_trace_out]
    if args.short:
        cmd.append("--short")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=HOSTBENCH_TIMEOUT)
    except subprocess.TimeoutExpired:
        log(f"run.py: hostbench exceeded {HOSTBENCH_TIMEOUT} s")
        return 1
    if proc.returncode != 0:
        log(f"run.py: hostbench exited with {proc.returncode}")
        return 1
    records = [json.loads(line) for line in proc.stdout.splitlines()
               if line.startswith("{")]
    build_info = next((r for r in records if r["record"] == "build"), {})

    checks = Checks()
    metrics = aggregate(records, args.trace, checks)
    reps = [r for r in records if r["record"] in ("untraced", "traced")]
    issued = sum(r["issued"] for r in reps)
    dropped = sum(r["issued"] - r["completed"] for r in reps)

    report = host_header(build_info, args.seed)
    report.append(f"workload: {args.workload}  trace: {args.trace}  "
                  f"repetitions: {len(reps)}")
    u0 = next(r for r in reps if r["record"] == "untraced")
    report.append(f"requests: issued {issued} completed "
                  f"{issued - dropped} dropped {dropped}; latency "
                  f"samples per repetition {u0['samples']} "
                  f"(p99 has {int(u0['samples'] * 0.01)} beyond it)")
    if not args.trace:
        wall = (sum(r["completed"] for r in reps) /
                sum(r["timed_s"] for r in reps))
        probe = statistics.median(r["probe_ns"] for r in reps)
        report.append(f"unscaled wall clock: {wall:.6g} req/s; core probe "
                      f"{probe:.4g} ns/iteration, reference "
                      f"{REFERENCE_PROBE_NS} (slowdown "
                      f"{slowdown(probe):.3f})")
    for name, m in metrics.items():
        line = f"{name} = {m['value']:.6g} {m['unit']}"
        if args.trace:
            _, moves, where = PER_LAYER[name]
            line += f"   [predicted to move {moves} on {where}]"
        report.append(line)
    report.append(f"checks: {checks.attempted} run, "
                  f"{len(checks.failed)} failed")
    for what in checks.failed:
        report.append(f"FAILED: {what}")
    for line in report:
        print("# " + line)

    failed = dropped + len(checks.failed)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": issued + checks.attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
