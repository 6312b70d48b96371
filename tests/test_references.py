"""The committed references of the benchmark, reproduced byte for byte.

`grossen table <name>` must print exactly perfbench/refs/tables/<name>.json,
and each witness of perfbench/refs/witnesses.json must rebuild from its
record to q-expansion coefficients with the stored SHA-256 digest.  The
references are only read here.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from grossen.cli import _alg, main
from grossen.cmform import q_expansion
from grossen.grossenchar import from_record

REFS = Path(__file__).resolve().parents[1] / "perfbench" / "refs"
TABLES = ("deg2", "deg3", "quadodd", "quadeven", "quade3")


def _digest(form) -> str:
    """SHA-256 of a_1..a_B serialized as `grossen qexp` serializes them."""
    coeffs = [[str(n), _alg(form.coeffs[n])] for n in range(1, form.bound + 1)]
    return hashlib.sha256(
        json.dumps(coeffs, separators=(",", ":")).encode()).hexdigest()


def test_tables_and_witnesses_match_the_references(capsys):
    for name in TABLES:
        assert main(["table", name]) == 0
        assert capsys.readouterr().out == (REFS / "tables" / f"{name}.json"
                                           ).read_text(), name
    ref = json.loads((REFS / "witnesses.json").read_text())
    assert len(ref["witnesses"]) == 67
    for entry in ref["witnesses"]:
        psi = from_record(entry["record"], check=False)
        assert _digest(q_expansion(psi, ref["bound"])) == entry["digest"], (
            entry["delta_E"], entry["provenance"])
