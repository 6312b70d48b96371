"""The benchmark's own test: short draws of every workload.

    python3 -m pytest -q perfbench/test_perfbench.py

Checks that every end-to-end and per-layer metric named in BENCHMARK.json
is emitted with its unit, that a corrupted reference turns into failed
operations, that the benchmark refuses to run without the program, and
how speed.py turns probe times into an op's slowdown.
About a minute on two cores.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    BENCH = json.load(_fh)
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def run(*extra, cwd=ROOT, script=os.path.join(HERE, "run.py")):
    proc = subprocess.run([sys.executable, script, *extra], cwd=cwd,
                          capture_output=True, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    return proc, (json.loads(lines[-1]) if lines else None)


def short(workload, trace, *extra):
    return run("--workload", workload, "--seed", "7", "--seconds", "1",
               "--trace", str(trace), "--short", *extra)


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_is_emitted_with_its_unit(workload, trace, section):
    proc, result = short(workload, trace)
    assert proc.returncode == 0, proc.stderr
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in BENCH[section]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == want
    for value in result["metrics"].values():
        assert isinstance(value["value"], (int, float))
    if trace:
        assert result["metrics"]["trace.self_sum_mismatches"]["value"] == 0
        assert result["metrics"]["bench.self_s"]["value"] > 0


@pytest.mark.parametrize("workload,corrupt", [
    ("classify", "tables/quade3.json"),
    ("qexp", "witnesses.json"),
])
def test_corrupted_reference_fails_ops(tmp_path, workload, corrupt):
    refs = tmp_path / "refs"
    shutil.copytree(os.path.join(HERE, "refs"), refs)
    path = refs / corrupt
    if corrupt.endswith("witnesses.json"):
        data = json.loads(path.read_text())
        for w in data["witnesses"]:
            w["digest"] = "0" * 64
        path.write_text(json.dumps(data))
    else:
        path.write_text(path.read_text().replace("1", "2", 1))
    proc, result = short(workload, 0, "--refs", str(refs))
    assert proc.returncode == 1
    assert result["correct"] is False
    assert result["failed"] > 0
    assert result["metrics"]["pass_ratio"]["value"] < 1


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc, result = run("--workload", "qexp", "--seed", "1", "--seconds", "1",
                       "--trace", "0", cwd=tmp_path,
                       script=str(tmp_path / "perfbench" / "run.py"))
    assert proc.returncode != 0
    assert result is None


def test_slowdown_is_the_trimmed_mean_probe_time_around_an_op():
    sys.path.insert(0, HERE)
    import speed

    probe = speed.SpeedProbe()
    assert probe.slowdown(0.0, 1.0) == 1.0
    probe.at = [0.05 * i for i in range(100)]
    probe.took = [speed.REF_S * (2 if 1.0 <= t <= 2.0 else 1) for t in probe.at]
    probe.took[30] = 100 * speed.REF_S      # one probe descheduled: trimmed
    assert probe.slowdown(1.2, 1.8) == pytest.approx(2.0)
    # A short op takes the probes of MIN_WINDOW_S around it.
    assert probe.slowdown(3.0, 3.01) == pytest.approx(1.0)
