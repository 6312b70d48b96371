"""Regenerate the correctness references under perfbench/refs/.

    python3 perfbench/capture_refs.py

Writes, from the program in src/ of this checkout:

- refs/tables/<name>.json: the output of `grossen table <name>` for the five
  classification tables, byte for byte;
- refs/fields.json: the units workload's field lists (exponent-2 and
  exponent-3 discriminants down to -5460, class number one, the dyadic
  test fields), frozen so that set-up does not run the sweep;
- refs/witnesses.json: one entry per classification witness at ell = 1
  (67 on the reference commit) with its serialized character record, the
  SHA-256 digest of its q-expansion coefficients to B = 2000, and the
  median of COST_ROUNDS timings of q_expansion plus hecke_verify.  Each
  round is a fresh process that runs every witness once, in a shuffled
  order, as the qexp workload's passes do, and rescales each time to the
  reference machine speed (speed.py) as the workload does.  The cost
  only matches witnesses to cost levels in the qexp draw.

Run it only when the program's outputs are meant to change; the benchmark
treats any difference from these files as a failed operation.
"""

from __future__ import annotations

import json
import os
import random
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

from grossen.classgroup import enumerate_discriminants  # noqa: E402
from grossen.cli import main as cli_main  # noqa: E402
from grossen.cmform import hecke_verify, q_expansion  # noqa: E402
from grossen.grossenchar import from_record  # noqa: E402
from grossen.survey import EXP2_BOUND, H1_DISCS, all_rows  # noqa: E402
from grossen.verify import DYADIC_FIELDS, DYADIC_MAX_N  # noqa: E402

from speed import SpeedProbe  # noqa: E402
from workloads import QEXP_BOUND, TABLES, coeff_digest  # noqa: E402

COST_ROUNDS = 5


def main() -> int:
    refs = os.path.join(HERE, "refs")
    for name in TABLES:
        path = os.path.join(refs, "tables", f"{name}.json")
        if cli_main(["table", name, "-o", path]) != 0:
            raise SystemExit(f"table {name} failed")
    fields = {"exp2": enumerate_discriminants(EXP2_BOUND, exponent=2),
              "exp3": enumerate_discriminants(EXP2_BOUND, exponent=3),
              "h1": list(H1_DISCS),
              "dyadic": [D for D, _ in DYADIC_FIELDS],
              "dyadic_max_n": DYADIC_MAX_N}
    with open(os.path.join(refs, "fields.json"), "w") as fh:
        json.dump(fields, fh, sort_keys=True)
        fh.write("\n")
    witnesses = []
    for row in all_rows(1):
        psi = from_record(row.witness, check=False)
        form = q_expansion(psi, QEXP_BOUND)
        if not hecke_verify(form)["ok"]:
            raise SystemExit(f"hecke_verify failed for {row.delta_E}")
        witnesses.append({"delta_E": row.delta_E,
                          "provenance": row.provenance,
                          "record": row.witness,
                          "digest": coeff_digest(form)})
    path = os.path.join(refs, "witnesses.json")
    write_witnesses(path, witnesses)
    costs = [[] for _ in witnesses]
    for r in range(COST_ROUNDS):
        proc = subprocess.run(
            [sys.executable, __file__, "--cost-round", str(r)],
            capture_output=True, text=True, check=True,
            env=dict(os.environ, PYTHONHASHSEED="0"))
        for cs, c in zip(costs, json.loads(proc.stdout)):
            cs.append(c)
    for w, cs in zip(witnesses, costs):
        w["cost_s"] = round(statistics.median(cs), 3)
    write_witnesses(path, witnesses)
    return 0


def write_witnesses(path: str, witnesses: list) -> None:
    with open(path, "w") as fh:
        json.dump({"bound": QEXP_BOUND, "witnesses": witnesses}, fh,
                  indent=1, sort_keys=True)
        fh.write("\n")


def cost_round(r: int) -> list[float]:
    with open(os.path.join(HERE, "refs", "witnesses.json")) as fh:
        wits = json.load(fh)["witnesses"]
    psis = [from_record(w["record"], check=False) for w in wits]
    order = list(range(len(wits)))
    random.Random(r).shuffle(order)
    out = [0.0] * len(wits)
    probe = SpeedProbe()
    probe.start()
    for i in order:
        h0 = probe.handler_s
        t0 = time.perf_counter()
        hecke_verify(q_expansion(psis[i], QEXP_BOUND))
        t1 = time.perf_counter()
        out[i] = (t0, t1, t1 - t0 - (probe.handler_s - h0))
    probe.stop()
    return [dt / probe.slowdown(t0, t1) for t0, t1, dt in out]


if __name__ == "__main__":
    if sys.argv[1:2] == ["--cost-round"]:
        print(json.dumps(cost_round(int(sys.argv[2]))))
        raise SystemExit(0)
    raise SystemExit(main())
