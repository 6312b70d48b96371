"""The grossen benchmark: one command, every metric by name and unit.

    python3 perfbench/run.py --workload qexp --seed 1 --seconds 10 --trace 0

Workloads (see README.md next to this file): qexp, classify, units.

A run starts fresh single-threaded worker processes (worker.py) one after
another, never two at once:

- SETUP_PROBES processes that only set up, so that set-up time is a median;
- passes over the same seeded inputs, each in its own fresh process:
  PASSES[workload] of them, and more while less than --seconds of op
  time has been measured.

Set-up and op times are rescaled to a reference machine speed, measured
while they run (speed.py), so that other tenants of the machine do not
move them; the raw sums of op times are in the metadata.

With --trace 0 the last stdout line holds the end-to-end metrics; with
--trace 1 it holds the per-layer metrics of one traced pass, plus
trace.overhead_ratio against untraced passes of the same inputs.  The
line before it holds run metadata.  Exit status 0 means every output was
checked and correct; 1 means a check failed; 2 means the benchmark could
not run (for example, no program next to it).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src", "grossen")
SETUP_PROBES = 3
# Passes per run, each over the same inputs: an op's time is its fastest
# over them.  A classify pass (about 40-50 s) takes a run's whole budget.
PASSES = {"qexp": 2, "units": 2, "classify": 1}
# Workloads whose latency quantiles are taken over whole passes: the five
# classify ops are not alike, and each one's time moves with the order.
PASS_LATENCY = frozenset({"classify"})
RUN_LIMIT_S = 170.0


class BenchError(Exception):
    """The benchmark itself cannot run."""


def spawn(args, mode: str, trace: int, deadline: float, trace_out=None) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--mode", mode, "--trace", str(trace)]
    if args.short:
        cmd.append("--short")
    if args.refs:
        cmd += ["--refs", args.refs]
    if trace_out:
        cmd += ["--trace-out", trace_out]
    env = dict(os.environ, PYTHONHASHSEED="0")
    spawned_at = time.monotonic()
    cmd += ["--spawned-at", repr(spawned_at)]
    remaining = deadline - spawned_at
    if remaining <= 0:
        raise BenchError("no time left for another worker")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=remaining)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} worker did not finish in time") from exc
    if proc.returncode != 0:
        raise BenchError(f"{mode} worker exited {proc.returncode}:\n"
                         f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_passes(args, trace: int, deadline: float, passes_min: int,
               budget: float, trace_out=None) -> list[dict]:
    """At least passes_min passes, then more while less than `budget`
    seconds of op time has been measured."""
    passes: list[dict] = []
    while (len(passes) < passes_min
           or sum(p["wall_s"] for p in passes) < budget):
        passes.append(spawn(args, "pass", trace, deadline, trace_out))
    return passes


def quantile(values, q: float) -> float:
    if len(values) == 1:
        return values[0]
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[round(q * 100) - 1]


def end_to_end(workload, passes, setups) -> dict:
    """Every pass ran the same ops in the same order from a fresh process,
    so op i's time is taken as its fastest over the passes: interference
    from other work on the machine only ever adds time."""
    per_op = [min(times) for times in zip(*(p["latencies"] for p in passes))]
    wall = sum(per_op)
    samples = ([p["wall_s"] for p in passes] if workload in PASS_LATENCY
               else per_op)
    passed = sum(p["passed"] for p in passes)
    attempted = sum(p["attempted"] for p in passes)
    return {
        "wall_s": (wall, "s"),
        "ops_per_s": (passed / len(passes) / wall, "1/s"),
        "op_p50_s": (quantile(samples, 0.5), "s"),
        "op_p90_s": (quantile(samples, 0.9), "s"),
        "pass_ratio": (passed / attempted, "ratio"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in passes), "MB"),
    }


def git_commit():
    """HEAD of the checkout, or None where it is not a git repository."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def metadata(args) -> dict:
    import hashlib
    import importlib.metadata as im

    digest = hashlib.sha256()
    lines = 0
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py"):
            with open(os.path.join(SRC, name), "rb") as fh:
                data = fh.read()
            digest.update(name.encode() + b"\0" + data)
            lines += data.count(b"\n")

    def version(pkg):
        try:
            return im.version(pkg)
        except im.PackageNotFoundError:
            return None

    return {
        "git_commit": git_commit(),
        "src_sha256": digest.hexdigest(),
        "src_grossen_lines": lines,
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "sympy": version("sympy"),
        "mpmath": version("mpmath"),
        "seed": args.seed,
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "short": args.short,
        "GROSSEN_PRECISION_BITS": os.environ.get("GROSSEN_PRECISION_BITS",
                                                 "unset (256)"),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("qexp", "classify", "units"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--short", action="store_true",
                    help="draw a few cheap inputs only (the benchmark's own test)")
    ap.add_argument("--refs", default=None,
                    help="reference directory instead of perfbench/refs")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "__init__.py")):
        print(f"error: no program to benchmark at {SRC}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_LIMIT_S
    meta = metadata(args)
    try:
        if args.trace:
            plain = run_passes(args, 0, deadline, 1, 0)
            out_dir = os.path.join(ROOT, ".bench_out")
            os.makedirs(out_dir, exist_ok=True)
            trace_out = os.path.join(
                out_dir, f"trace-{args.workload}-seed{args.seed}.bin.gz")
            traced = run_passes(args, 1, deadline, 1, 0, trace_out)
            passes = plain + traced
            metrics = dict(traced[0]["layers"])
            metrics["trace.overhead_ratio"] = (
                traced[0]["raw_wall_s"]
                / statistics.median(p["raw_wall_s"] for p in plain),
                "ratio")
            meta["trace_file"] = os.path.relpath(trace_out, ROOT)
        else:
            setups = [spawn(args, "setup", 0, deadline)["setup_s"]
                      for _ in range(SETUP_PROBES)]
            passes = run_passes(args, 0, deadline, PASSES[args.workload],
                                args.seconds)
            metrics = end_to_end(args.workload, passes,
                                 setups + [p["setup_s"] for p in passes])
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    meta.update(passes=len(passes),
                latency_samples=(len(passes) if args.workload in PASS_LATENCY
                                 else len(passes[0]["latencies"])),
                capped_ops=sum(p["capped"] for p in passes),
                raw_wall_s=[p["raw_wall_s"] for p in passes],
                speed_probes=sum(p["probes"] for p in passes),
                errors=[e for p in passes for e in p["errors"]][:10])
    print(json.dumps({"meta": meta}, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
