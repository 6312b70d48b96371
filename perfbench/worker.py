"""One workload process: set-up, timed operations, untimed checks.

    python3 perfbench/worker.py --workload qexp --seed 1 --mode pass

Started by run.py, one fresh process per set-up probe or pass.  It prints
one JSON object on its last stdout line.  `--spawned-at` is the parent's
time.monotonic() just before it started this process; set-up time runs
from there to the first timed operation (process start, `import grossen`,
input generation).  Without tracing, set-up and op times are rescaled
to the reference machine speed that speed.py measures while they run;
the raw sum of op times is reported as well.  With `--trace 1` the
process wraps the program's layers (tracer.py) and reports per-layer
counts and raw times of its ops.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

# Functions whose .calls and .s are reported; .self_s is added for the
# ones listed in SELF_TIMED.
SPAN_METRICS = (
    "quadfield.ideal_mul", "quadfield.is_principal",
    "valuefield.alg_mul", "grossenchar.evaluate",
    "cmform.q_expansion", "cmform.hecke_verify",
    "cmform.ideals_of_norm_up_to",
    "survey.theorem2_tables", "survey.survey_quadratic_modulus",
    "survey.survey_higher_order", "survey.nonexistence_search_r4",
    "classgroup.enumerate_discriminants", "classgroup.class_structure",
    "classgroup.class_group",
    "valuefield.check_Q1", "valuefield.check_R1",
    "valuefield.rationality_field", "valuefield.value_field_degree",
    "grossenchar.build", "resunits.units_structure", "resunits.dlog",
    "chargroup.enumerate_eta", "chargroup.solve_character_conditions",
    "abelian.enumerate_solutions", "cli.main",
)
SELF_TIMED = ("cmform.q_expansion",)
FAILED_COUNTED = ("resunits.units_structure", "resunits.dlog")
LAYERS = ("quadfield", "abelian", "classgroup", "resunits", "chargroup",
          "grossenchar", "valuefield", "cmform", "survey", "cli", "bench")


def layer_metrics(tracer, cache_before, cache_after) -> dict:
    """Per-layer metrics of a traced pass: name -> (value, unit)."""
    out = {}
    for name in SPAN_METRICS:
        calls, secs, self_s, failed = tracer.stats(name)
        out[f"{name}.calls"] = (calls, "count")
        out[f"{name}.s"] = (secs, "s")
        if name in SELF_TIMED:
            out[f"{name}.self_s"] = (self_s, "s")
        if name in FAILED_COUNTED:
            out[f"{name}.failed"] = (failed, "count")
    out["quadfield.ideal_new.calls"] = (tracer.stats("quadfield.ideal_new")[0],
                                        "count")
    calls, _, _, failed = tracer.stats("grossenchar.build")
    out["grossenchar.build.yield"] = (
        (calls - failed) / calls if calls else 0.0, "ratio")
    hits = cache_after.hits - cache_before.hits
    misses = cache_after.misses - cache_before.misses
    out["classgroup.class_group.hit_ratio"] = (
        hits / (hits + misses) if hits + misses else 0.0, "ratio")
    per_layer = tracer.layer_self_s()
    for layer in LAYERS:
        out[f"{layer}.self_s"] = (per_layer.get(layer, 0.0), "s")
    out["trace.self_sum_mismatches"] = (tracer.self_sum_mismatches, "count")
    out["trace.spans"] = (len(tracer.span_name), "count")
    return out


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "pass"), required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--short", action="store_true")
    ap.add_argument("--spawned-at", type=float, default=None)
    ap.add_argument("--refs", default=None)
    ap.add_argument("--trace-out", default=None)
    args = ap.parse_args()
    spawned_at = args.spawned_at if args.spawned_at is not None else time.monotonic()
    perf = time.perf_counter

    import speed
    # Untraced processes rescale set-up and op times to the reference
    # machine speed; a traced pass reports raw times, so that no probe
    # lands in a span.
    probe = None if args.trace else speed.SpeedProbe()
    if probe:
        probe.start()
    probed_from = perf()

    import grossen
    import workloads
    if args.refs:
        workloads.REFS = args.refs
    wl = workloads.WORKLOADS[args.workload]
    inputs = wl.setup(args.seed, args.short)
    tracer = None
    if args.trace:
        import tracer as tracer_mod
        tracer = tracer_mod.Tracer()
        tracer_mod.install(tracer, grossen)
    setup_s = time.monotonic() - spawned_at
    if probe:
        setup_s = ((setup_s - probe.handler_s)
                   / probe.slowdown(probed_from, perf()))
    if args.mode == "setup":
        if probe:
            probe.stop()
        print(json.dumps({"setup_s": setup_s, "ops": len(inputs)}))
        return 0

    from grossen.classgroup import _class_group
    cache_before = _class_group.cache_info()
    raw, windows, errors = [], [], []
    passed = failed = capped = 0
    for i, inp in enumerate(inputs):
        frame = tracer.begin_op(i) if tracer else None
        h0 = probe.handler_s if probe else 0.0
        t0 = perf()
        out = workloads.run_op(wl, inp)
        t1 = perf()
        if tracer:
            tracer.end_op(frame)
        raw.append(t1 - t0 - ((probe.handler_s - h0) if probe else 0.0))
        windows.append((t0, t1))
        if out.capped:
            capped += 1
            continue
        reason = out.error or wl.check(inp, out.value)
        if reason is None:
            passed += 1
        else:
            failed += 1
            errors.append(reason)
    cache_after = _class_group.cache_info()
    latencies = raw
    if probe:
        probe.stop()
        latencies = [dt / probe.slowdown(t0, t1)
                     for dt, (t0, t1) in zip(raw, windows)]
    result = {
        "setup_s": setup_s,
        "wall_s": sum(latencies),
        "raw_wall_s": sum(raw),
        "latencies": latencies,
        "probes": len(probe.took) if probe else 0,
        "attempted": len(inputs),
        "passed": passed,
        "failed": failed,
        "capped": capped,
        "errors": errors[:5],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer:
        result["layers"] = layer_metrics(tracer, cache_before, cache_after)
        if args.trace_out:
            tracer.dump(args.trace_out)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
