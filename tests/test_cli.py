"""Command-line interface: JSON output, parsing, exit codes, stability."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import grossen
from grossen import cli
from grossen.cli import main, parse_element, parse_ideal
from grossen.quadfield import FieldE, QIdeal


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_classgroup_output(capsys):
    code, out, err = run(capsys, "classgroup", "-d", "-5460")
    assert code == 0 and err == ""
    obj = json.loads(out)
    assert obj["class_number"] == "16"
    assert obj["elementary_divisors"] == ["2", "2", "2", "2"]
    assert out.endswith("\n")


def test_classgroup_rejects_nonfundamental(capsys):
    code, out, err = run(capsys, "classgroup", "-d", "-5")
    assert code == 2
    assert out == ""
    assert err.strip()


def test_classgroup_rejects_positive(capsys):
    code, _, err = run(capsys, "classgroup", "-d", "5")
    assert code == 2 and err.strip()


def test_argparse_error_is_exit_2(capsys):
    code, _, _ = run(capsys, "classgroup")          # missing -d
    assert code == 2
    code, _, _ = run(capsys, "nonsense")
    assert code == 2


def test_units_output(capsys):
    code, out, _ = run(capsys, "units", "-d", "-15", "-m", "s")
    assert code == 0
    obj = json.loads(out)
    assert int(obj["order"]) == 8
    total = 1
    for f in obj["factors"]:
        total *= int(f["order"])
    assert total == 8


def test_chars_output(capsys):
    code, out, _ = run(capsys, "chars", "-d", "-15", "-m", "s")
    assert code == 0
    obj = json.loads(out)
    assert int(obj["count"]) == len(obj["characters"]) > 0


def test_parse_element_grammar():
    f4 = FieldE(-4)
    i = f4.element(2, 1)                  # i = w + 2 at disc -4
    assert i * i == f4.element(-1)
    assert parse_element(f4, "2(1+i)") == f4.element(2) * (f4.one + i)
    # i exists only at disc -4; w and s everywhere
    f15 = FieldE(-15)
    assert parse_element(f15, "w") == f15.omega
    assert parse_element(f15, "s") == f15.sqrt_disc
    assert parse_element(f15, "3w+1") == f15.omega * 3 + 1
    assert parse_element(f15, "(1+w)(1-w)") == (f15.one + f15.omega) * (
        f15.one - f15.omega)
    with pytest.raises(Exception):
        parse_element(f15, "i")           # no i outside disc -4
    with pytest.raises(Exception):
        parse_element(f15, "2 +")


def test_parse_ideal_hnf_triple():
    f15 = FieldE(-15)
    assert parse_ideal(f15, "3,0") == QIdeal.from_hnf(f15, 3, 0)
    assert parse_ideal(f15, "15,0") == QIdeal.from_element(f15.sqrt_disc) * 1
    assert parse_ideal(f15, "s") == QIdeal.from_element(f15.sqrt_disc)


def test_gross_build_and_eval_roundtrip(tmp_path, capsys):
    rec = tmp_path / "w15.json"
    code, out, _ = run(capsys, "gross", "build", "-d", "-15", "-m", "s",
                       "--order", "2", "-o", str(rec))
    assert code == 0
    stored = json.loads(rec.read_text())
    assert stored["level"] == "225"
    assert stored["rationality"]["degree"] == "2"
    assert stored["rationality"]["disc"] == "5"

    code, out, _ = run(capsys, "gross", "eval", "--record", str(rec),
                       "--ideal", "7")
    assert code == 0
    obj = json.loads(out)
    assert obj["value"] == [["0", "0", ["0"], "-7"]]
    assert float(obj["numeric"]["re"]) == -7.0
    assert float(obj["numeric"]["im"]) == 0.0

    # ramified ideal shares a factor with the modulus: value is zero
    code, out, _ = run(capsys, "gross", "eval", "--record", str(rec),
                       "--ideal", "3,0")
    assert code == 0
    obj = json.loads(out)
    assert obj["value"] == []


def test_gross_build_no_character_is_exit_1(capsys):
    code, out, err = run(capsys, "gross", "build", "-d", "-15", "-m", "s",
                         "--order", "5")
    assert code == 1
    assert out == ""
    assert err.strip()


def test_gross_eval_missing_record_is_exit_2(capsys, tmp_path):
    code, _, err = run(capsys, "gross", "eval", "--record",
                       str(tmp_path / "absent.json"), "--ideal", "7")
    assert code == 2 and err.strip()


_RECORDS = {
    # an order-4 character mod p2^3 at D = -4, as `gross build` writes it
    "good": {"character": {
        "disc": "-4", "ell": "1", "eta_exps": ["1"], "eta_orders": ["4"],
        "gen_orders": [], "generators": [], "level": "32",
        "modulus": {"a": "2", "b": "1", "scale": "2"}, "roots": [],
        "weight": "2"}},
    "list": [1, 2],
    "number": 5,
    "text_modulus": {"disc": "-4", "modulus": "x"},
    "zero_scale": {"disc": "-4",
                   "modulus": {"a": "2", "b": "1", "scale": "1/0"}},
}


# A malformed HNF triple or an unwritable -o is a usage error (exit 2); a
# malformed record is a failed construction (exit 1).  The triples given
# to `gross eval` fail after the good record has loaded.
@pytest.mark.parametrize("argv, code", [
    *[((cmd, "-d", "-4", "-m", triple), 2)
      for cmd in ("units", "chars", "qexp") for triple in ("0,0", "2,1,1/0")],
    *[(("gross", "eval", "--record", "{tmp}/good.json", "--ideal", triple), 2)
      for triple in ("0,0", "2,1,1/0")],
    *[(("gross", "eval", "--record", f"{{tmp}}/{name}.json", "--ideal", "7"),
       1) for name in ("list", "number", "text_modulus", "zero_scale")],
    (("units", "-d", "-4", "-m", "2,1", "-o", "{tmp}/absent/x.json"), 2),
])
def test_bad_input_is_one_error_line(tmp_path, capsys, argv, code):
    for name, rec in _RECORDS.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(rec))
    got, out, err = run(capsys, *(a.format(tmp=tmp_path) for a in argv))
    assert got == code and out == ""
    assert err.startswith("error:") and len(err.splitlines()) == 1
    assert "Traceback" not in err
    if code == 1:
        assert "bad character record" in err


def test_qexp_known_coefficients(capsys):
    code, out, _ = run(capsys, "qexp", "-d", "-4", "-m", "2(1+i)",
                       "-B", "10")
    assert code == 0
    obj = json.loads(out)
    assert obj["header"]["level"] == "32"
    assert obj["header"]["weight"] == "2"
    assert obj["header"]["value_degree"] == "1"
    coeffs = dict((c[0], c[1]) for c in obj["coeffs"])
    assert coeffs["1"] == [["0", "0", [], "1"]]
    assert coeffs["2"] == []
    assert coeffs["3"] == []
    assert coeffs["5"] == [["0", "0", [], "-2"]]
    assert coeffs["9"] == [["0", "0", [], "-3"]]


@pytest.mark.parametrize("bound", ["0", "-3"])
def test_qexp_nonpositive_bound_is_exit_2(capsys, bound):
    code, out, err = run(capsys, "qexp", "-d", "-4", "-m", "2(1+i)",
                         "-B", bound)
    assert code == 2 and out == ""
    assert err == "error: the norm bound must be positive\n"


@pytest.mark.parametrize("bound, code, message", [
    ("0", 2, "error: the norm bound must be positive\n"),
    ("-3", 2, "error: the norm bound must be positive\n"),
    ("10", 1, "error: cannot compute the value field: "),
    ("20000", 1, "error: cannot compute the value field: "),
])
def test_qexp_refuses_before_expanding(capsys, monkeypatch, bound, code,
                                       message):
    # D = -47 (Cl = C5) has no value-field formula for the header: that
    # refusal (exit 1) and a bad bound (exit 2, which wins) both come
    # before any coefficient is computed, whatever the bound
    def expand(*args):
        raise AssertionError("q_expansion ran before the refusal")

    monkeypatch.setattr(cli, "q_expansion", expand)
    got, out, err = run(capsys, "qexp", "-d", "-47", "-m", "s", "-B", bound)
    assert got == code and out == ""
    assert err.startswith(message) and len(err.splitlines()) == 1


@pytest.mark.parametrize("command", [("gross", "build"), ("qexp",)])
@pytest.mark.parametrize("flags, message", [
    (("-l", "0"), "error: ell must be a positive integer\n"),
    (("-l", "-3"), "error: ell must be a positive integer\n"),
    (("--order", "0"), "error: the order must be a positive integer\n"),
    (("--order", "-4"), "error: the order must be a positive integer\n"),
])
@pytest.mark.parametrize("modulus", ["4", "1"])
def test_nonpositive_ell_or_order_is_exit_2(capsys, monkeypatch, command,
                                            flags, message, modulus):
    # refused before any character is searched for, at a modulus with
    # characters (4) and at one without (1)
    def search(*args, **kwargs):
        raise AssertionError("a character was searched for")

    monkeypatch.setattr(cli, "first_character", search)
    code, out, err = run(capsys, *command, "-d", "-4", "-m", modulus, *flags)
    assert code == 2 and out == "" and err == message


@pytest.mark.parametrize("modulus, flags", [
    ("4", ("-l", "0")),
    ("4", ("--order", "0")),
    ("1", ()),                  # no compatible character at (1) either
])
def test_qexp_bad_bound_wins(capsys, modulus, flags):
    code, out, err = run(capsys, "qexp", "-d", "-4", "-m", modulus, "-B", "0",
                         *flags)
    assert code == 2 and out == ""
    assert err == "error: the norm bound must be positive\n"


def test_chars_order_0_is_an_empty_list(capsys):
    code, out, err = run(capsys, "chars", "-d", "-4", "-m", "4",
                         "--order", "0")
    assert code == 0 and err == ""
    obj = json.loads(out)
    assert obj["count"] == "0" and obj["characters"] == []


def test_table_quadodd_and_byte_stability(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert run(capsys, "table", "quadodd", "-o", str(a))[0] == 0
    assert run(capsys, "table", "quadodd", "-o", str(b))[0] == 0
    assert a.read_bytes() == b.read_bytes()
    rows = json.loads(a.read_text())["rows"]
    assert len(rows) == 11
    got = {int(r["delta_E"]): int(r["delta_K"]) for r in rows}
    assert got[-15] == 5 and got[-403] == 13 and got[-267] == 89


def _run_module(cwd, *argv):
    """`python -m grossen *argv` in cwd, away from the checkout, finding
    the package under test through an absolute PYTHONPATH entry."""
    src = str(Path(grossen.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-m", "grossen", *argv],
                          capture_output=True, text=True, cwd=cwd, env=env,
                          timeout=60)


def test_module_entry_point(tmp_path):
    res = _run_module(tmp_path, "classgroup", "-d", "-4")
    assert res.returncode == 0
    assert json.loads(res.stdout)["class_number"] == "1"


@pytest.mark.parametrize("argv", [
    ("gross", "build", "-d", "-679", "-m", "s"),     # Cl = C18
    ("gross", "build", "-d", "-47", "-m", "s"),      # Cl = C5
    ("qexp", "-d", "-47", "-m", "s", "-B", "10"),
])
def test_unsupported_value_field_is_one_error_line(tmp_path, argv):
    # a class group of order 5 or 18 has no value-field formula: a failed
    # construction, reported as one line and exit 1, not a traceback
    res = _run_module(tmp_path, *argv)
    assert res.returncode == 1 and res.stdout == ""
    assert res.stderr.startswith("error:") and len(res.stderr.splitlines()) == 1
    assert "Traceback" not in res.stderr


@pytest.mark.parametrize("command", ["units", "chars"])
def test_unit_group_above_the_cap_is_one_error_line(tmp_path, command):
    # (o/7^4) at D = -4 is above TABLE_CAP and no structured case covers
    # it: a failed construction, exit 1, not a RuntimeError traceback
    res = _run_module(tmp_path, command, "-d", "-4", "-m", "2401")
    assert res.returncode == 1 and res.stdout == ""
    assert res.stderr.startswith("error:") and len(res.stderr.splitlines()) == 1
    assert "too large" in res.stderr and "Traceback" not in res.stderr


@pytest.mark.parametrize("command", ["units", "chars"])
def test_inert_dyadic_level_above_the_search_is_one_error_line(tmp_path,
                                                               command):
    # (32768) = p2^15 at D = -3, one level above the inert dyadic search
    res = _run_module(tmp_path, command, "-d", "-3", "-m", "32768")
    assert res.returncode == 1 and res.stdout == ""
    assert res.stderr.startswith("error:") and len(res.stderr.splitlines()) == 1
    assert "p2^15" in res.stderr and "Traceback" not in res.stderr


@pytest.mark.parametrize("bits", ["0", "-5", "abc"])
@pytest.mark.parametrize("argv", [
    ("qexp", "-d", "-4", "-m", "2(1+i)", "-B", "5"),
    ("gross", "eval", "--record", "w15.json", "--ideal", "7"),
    ("verify", "all"),
])
def test_bad_precision_is_one_error_line(tmp_path, monkeypatch, capsys, bits,
                                         argv):
    # a precision of 0 bits or less never ended (mpf_div looped) and a
    # non-integer one was a traceback; both are refused as usage errors
    assert main(["gross", "build", "-d", "-15", "-m", "s", "--order", "2",
                 "-o", str(tmp_path / "w15.json")]) == 0
    monkeypatch.setenv("GROSSEN_PRECISION_BITS", bits)
    res = _run_module(tmp_path, *argv)
    assert res.returncode == 2 and res.stdout == ""
    assert res.stderr == ("error: GROSSEN_PRECISION_BITS must be a positive "
                          f"integer, not {bits!r}\n")


@pytest.mark.parametrize("argv", [
    ("units", "-d", "-4", "-m", "65"),
    ("qexp", "-d", "-4", "-m", "2(1+i)", "-B", "0"),
    ("gross", "build", "-d", "-15", "-m", "s"),
])
def test_precision_is_read_only_to_embed(tmp_path, monkeypatch, argv):
    # no embedding, no reading of the variable: the same bytes as unset,
    # and a bad bound still wins with its own message
    monkeypatch.delenv("GROSSEN_PRECISION_BITS", raising=False)
    want = _run_module(tmp_path, *argv)
    monkeypatch.setenv("GROSSEN_PRECISION_BITS", "abc")
    got = _run_module(tmp_path, *argv)
    assert (got.returncode, got.stdout, got.stderr) == (
        want.returncode, want.stdout, want.stderr)


def test_precision_accepts_positive_integers(capsys, monkeypatch):
    from grossen.valuefield import _precision_bits

    monkeypatch.delenv("GROSSEN_PRECISION_BITS", raising=False)
    assert _precision_bits() == 256
    for bits in range(1, 17):
        monkeypatch.setenv("GROSSEN_PRECISION_BITS", str(bits))
        assert _precision_bits() == bits
    code, out, err = run(capsys, "qexp", "-d", "-4", "-m", "2(1+i)", "-B", "5")
    assert code == 0 and err == ""
    assert json.loads(out)["coeffs"][4] == ["5", [["0", "0", [], "-2"]]]


def test_every_exported_name_resolves():
    for name in grossen.__all__:
        assert getattr(grossen, name, None) is not None, name


# Runs each argv through cli.main in one process and prints, as JSON, the
# exit codes and stdout and whether sympy was ever imported; with "block"
# every `import sympy` raises ImportError.
_NO_SYMPY_CHILD = """
import contextlib, io, json, sys
if sys.argv[1] == "block":
    sys.modules["sympy"] = None
import grossen.cli
after_import = "sympy" in sys.modules and sys.modules["sympy"] is not None
out = []
for argv in json.loads(sys.argv[2]):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = grossen.cli.main(argv)
    out.append([code, buf.getvalue()])
imported = "sympy" in sys.modules and sys.modules["sympy"] is not None
print(json.dumps({"after_import": after_import, "imported": imported,
                  "runs": out}))
"""

_NO_SYMPY_ARGVS = [
    *(["table", name] for name in
      ("deg2", "deg3", "quadodd", "quadeven", "quade3")),
    ["qexp", "-d", "-23", "-m", "23,0,1", "-B", "30"],
    ["qexp", "-d", "-15", "-m", "15,0,1", "-B", "30"],
    ["units", "-d", "-3", "-m", "243"],
    ["units", "-d", "-7", "-m", "343"],
    ["units", "-d", "-1155", "-m", "105"],
    ["chars", "-d", "-15", "-m", "s"],
    ["chars", "-d", "-23", "-m", "125"],
    ["gross", "build", "-d", "-883", "-m", "883,0,1"],
    ["gross", "build", "-d", "-23", "-m", "23,0,1"],
    ["gross", "build", "-d", "-24", "-m", "6,0,4"],
    ["classgroup", "-d", "-5460"],
    ["classgroup", "-d", "-4027"],
    ["classgroup", "-d", "-3"],
]


def test_cli_runs_without_sympy(tmp_path):
    """sympy is only the tests' oracle: with every `import sympy` made to
    fail, the five tables and the other subcommands exit 0 with the same
    bytes as a normal run, and a normal run never imports sympy."""
    src = str(Path(grossen.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    results = {}
    for mode in ("block", "normal"):
        res = subprocess.run(
            [sys.executable, "-c", _NO_SYMPY_CHILD, mode,
             json.dumps(_NO_SYMPY_ARGVS)],
            capture_output=True, text=True, cwd=tmp_path, env=env,
            timeout=300)
        assert res.returncode == 0, res.stderr
        results[mode] = json.loads(res.stdout.splitlines()[-1])
    blocked, normal = results["block"], results["normal"]
    assert not normal["after_import"] and not normal["imported"]
    for argv, (code, out), want in zip(_NO_SYMPY_ARGVS, blocked["runs"],
                                       normal["runs"]):
        assert code == 0, argv
        assert out.strip(), argv
        assert [code, out] == want, argv


_VERIFY_IMPORT_CHILD = """
import contextlib, io, json, sys
import grossen.cli
after_import = "grossen.verify" in sys.modules
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert grossen.cli.main(argv) == 0, argv
print(json.dumps([after_import, "grossen.verify" in sys.modules]))
"""


def test_cli_imports_the_verify_battery_only_to_verify(tmp_path):
    """`import grossen.cli` and the subcommands other than `verify` leave
    grossen.verify unimported."""
    src = str(Path(grossen.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    argvs = [["table", "quade3"], ["classgroup", "-d", "-5460"],
             ["units", "-d", "-7", "-m", "343"],
             ["qexp", "-d", "-23", "-m", "23,0,1", "-B", "30"]]
    res = subprocess.run([sys.executable, "-c", _VERIFY_IMPORT_CHILD,
                          json.dumps(argvs)],
                         capture_output=True, text=True, cwd=tmp_path,
                         env=env, timeout=300)
    assert res.returncode == 0, res.stderr
    assert json.loads(res.stdout.splitlines()[-1]) == [False, False]


def test_verify_prints_the_battery_it_imports(capsys, monkeypatch):
    from grossen import verify

    results = [verify.CheckResult("alpha", True, "3 of 3", 1.25),
               verify.CheckResult("beta", False, "bad row -15", 0.04)]
    monkeypatch.setattr(verify, "run_all", lambda: results)
    code, out, err = run(capsys, "verify", "all")
    assert code == 1 and err == ""
    assert out.splitlines() == [
        "PASS  alpha                        1.2s  3 of 3",
        "FAIL  beta                         0.0s  bad row -15",
        "1/2 checks passed"]
