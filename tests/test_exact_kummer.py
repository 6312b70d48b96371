"""Exact Kummer root tests: the (R1), (Q1) and value-degree verdicts against
those of the former numeric root lifts, at two working precisions, and the
sign of the square roots in E(zeta_r)."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from math import gcd
from pathlib import Path

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import grossen
from grossen import valuefield
from grossen.chargroup import enumerate_eta
from grossen.classgroup import class_group
from grossen.grossenchar import (IncompatibleCharacterError,
                                 NoSuchCharacterError, build, from_record,
                                 minimal_conductor)
from grossen.numeric import embed_many, precision_bits
from grossen.quadfield import FieldE, QIdeal, kronecker
from grossen.survey import survey_higher_order
from grossen.valuefield import (ValueAlgebra, _cyclotomic_coeffs,
                                _field_zeta_rule, check_Q1,
                                check_R1, is_square, quartic_nth_power_root,
                                value_field_degree)

VERDICTS = json.loads(
    (Path(__file__).parent / "data" / "kummer_verdicts.json").read_text())


@pytest.fixture(params=[64, 1024])
def precision(request, monkeypatch):
    monkeypatch.setenv("GROSSEN_PRECISION_BITS", str(request.param))
    return request.param


def test_r1_verdicts(precision):
    assert len(VERDICTS["r1"]) == 112
    for want in VERDICTS["r1"]:
        got = check_R1(FieldE(want["disc"]), 1, want["r"])
        assert (got.holds, list(got.witnesses)) == \
            (want["holds"], want["witnesses"]), want


def _r1_witnesses_over_every_shift(field, ell, r):
    """The earlier (R1) search, the oracle of the cut one: every k < r,
    the least k with zeta**k theta**ell a square in E(zeta_r)."""
    cg = class_group(field, coprime_to=abs(field.disc))
    alg = ValueAlgebra(field, r)
    out = []
    for theta, n in zip(cg.thetas, cg.orders):
        gamma0 = alg.from_quad(theta ** ell)
        out.append(next(
            (k for k in range(r) if quartic_nth_power_root(
                field, r, alg.zeta_pow(k) * gamma0, n) is not None), None))
    return tuple(out)


def test_r1_tries_one_shift_per_class_mod_gcd(monkeypatch):
    calls = []

    def counted(field, r, gamma, n):
        calls.append(n)
        return quartic_nth_power_root(field, r, gamma, n)

    discs = sorted({want["disc"] for want in VERDICTS["r1"]})
    assert len(discs) == 56
    shifts = Counter()
    for D in discs:
        field = FieldE(D)
        orders = class_group(field, coprime_to=abs(D)).orders
        for r in (4, 6):
            for ell in (1, 3, 5):
                want = _r1_witnesses_over_every_shift(field, ell, r)
                calls.clear()
                monkeypatch.setattr(valuefield, "quartic_nth_power_root",
                                    counted)
                got = check_R1(field, ell, r)
                monkeypatch.undo()
                assert got.witnesses == want, (D, ell, r)
                assert got.holds == all(k is not None for k in want)
                # a generator stops at its witness, or tries every class
                # of k mod gcd(n, r)
                assert len(calls) == sum(
                    gcd(n, r) if k is None else k + 1
                    for n, k in zip(orders, want)), (D, ell, r)
                shifts.update(want)
    # witnesses 0, 1 and None all occur, so a search cut to k = 0 or one
    # that keeps going past its witness would be seen
    assert {0, 1, None} <= shifts.keys()


def test_q1_verdicts(precision):
    for want in VERDICTS["q1"]:
        got = check_Q1(FieldE(want["disc"]), want["ell"])
        assert got.holds == want["holds"], want


def test_row_value_degrees_and_roots(precision):
    assert len(VERDICTS["rows"]) == 67
    for want in VERDICTS["rows"]:
        psi = from_record(want["record"], check=False)
        assert value_field_degree(psi) == want["value_degree"], want["disc"]
        got = [[[[a, b, list(cs)], str(c)] for (a, b, cs), c in v.coords]
               for v in psi._gen_values]
        assert got == want["gen_values"], want["disc"]


# fields with class groups C2, C2^2, C3, C4 and, for r = 4 and r = 6, the
# fields inside Q(zeta_r) left out
ROOT_CASES = [(D, r) for D in (-7, -15, -20, -23, -24, -39, -84, -420)
              for r in (3, 4, 6) if r % abs(D) != 0]
RATIONALS = st.fractions(min_value=-40, max_value=40, max_denominator=12)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(ROOT_CASES), st.lists(RATIONALS, min_size=4,
                                             max_size=4))
def test_square_root_is_principal(case, coords):
    D, r = case
    field = FieldE(D)
    alg = ValueAlgebra(field, r, [])
    delta = alg._wrap(dict(zip([(0, 0, ()), (1, 0, ()), (0, 1, ()),
                                (1, 1, ())], coords)))
    if delta.is_zero:
        assert quartic_nth_power_root(field, r, delta, 2) is None
        return
    root = quartic_nth_power_root(field, r, delta * delta, 2)
    assert root in (delta, -delta)
    with mpmath.workprec(200):
        value = embed_many(root.algebra, [root])[0]
        tol = mpmath.mpf(2) ** -150 * (1 + abs(value))
        assert value.real > tol or (abs(value.real) <= tol
                                    and value.imag > 0)


def test_root_requires_square_and_quartic_field():
    field = FieldE(-20)
    alg = ValueAlgebra(field, 4, [])
    gamma = alg.from_quad(field.element(3, 1))
    with pytest.raises(ValueError):
        quartic_nth_power_root(field, 4, gamma, 3)
    with pytest.raises(ValueError):
        quartic_nth_power_root(field, 6, gamma, 2)
    over = ValueAlgebra(FieldE(-4), 4, [])
    with pytest.raises(ValueError):
        quartic_nth_power_root(FieldE(-4), 4, over.one, 2)
    # -1 = i**2 and 5 = (i sqrt(-5))**2 are squares; 3 is not
    assert quartic_nth_power_root(field, 4, alg.scalar(-1), 2) \
        == alg.zeta_pow(1)
    assert quartic_nth_power_root(field, 4, alg.scalar(5), 2) is not None
    assert quartic_nth_power_root(field, 4, alg.scalar(3), 2) is None
    assert quartic_nth_power_root(field, 4, alg.scalar(Fraction(9, 4)), 2) \
        == alg.scalar(Fraction(3, 2))


# planted roots for each branch of the integer square root, over E and
# over E(zeta_r) = E(sqrt t) with t = -3 (r = 3, 6) or t = -4 (r = 4)
PLANT_CASES = [(D, r) for D in (-4, -7, -20, -23, -84) for r in (3, 4, 6)
               if r % abs(D) != 0]
BIG = Fraction(10 ** 40 + 1, 3 ** 60)


def _planted_coefficients(field):
    return (field.element(3, 2) / 5, field.element(Fraction(-7, 4)),
            field.sqrt_disc / 3, field.element(BIG, -BIG / 7))


def _root_squares_back(field, r, gamma, planted):
    root = quartic_nth_power_root(field, r, gamma, 2)
    assert root is not None and root * root == gamma
    assert root in (planted, -planted)


@pytest.mark.parametrize("D, r", PLANT_CASES)
def test_planted_quartic_roots(D, r):
    field = FieldE(D)
    alg = ValueAlgebra(field, r, [])
    (c0, _), (c1, _) = alg._zeta_rule
    t = int(c1 * c1 + 4 * c0)
    sqrt_t = alg.zeta_pow(1) * 2 - alg.scalar(c1)
    assert sqrt_t * sqrt_t == alg.scalar(t)
    for c in _planted_coefficients(field):
        e = alg.from_quad(c)
        # y = 0 and x = c**2 a square in E
        _root_squares_back(field, r, e * e, e)
        # y = 0 and x/t = c**2 a square: the root c sqrt(t)
        assert not is_square(field, c * c * t)
        _root_squares_back(field, r, e * e * t, e * sqrt_t)
        # y != 0
        delta = e + alg.from_quad(field.element(1, -2) / c) * sqrt_t
        _root_squares_back(field, r, delta * delta, delta)
    big = alg._wrap({(0, 0, ()): BIG, (1, 0, ()): -BIG / 11,
                     (0, 1, ()): Fraction(5, 3 ** 41), (1, 1, ()): BIG * 7})
    _root_squares_back(field, r, big * big, big)
    # the norm 4 - t of 2 + sqrt(t) is no square in E, so no root
    assert not is_square(field, field.element(4 - t))
    assert quartic_nth_power_root(field, r, alg.scalar(2) + sqrt_t, 2) is None
    if r == 4:
        # i has norm 1, but neither (0 +- 1)/2 is a square in E: no root
        assert quartic_nth_power_root(field, r, alg.zeta_pow(1), 2) is None


@pytest.mark.parametrize("D", [-4, -7, -15, -20, -84])
def test_planted_squares_in_E(D):
    field = FieldE(D)
    for c in _planted_coefficients(field):
        assert is_square(field, c * c)
        assert is_square(field, c * c * D)
    assert is_square(field, field.element(Fraction(9, 4)))
    assert is_square(field, field.element(Fraction(9 * D, 4)))
    assert not is_square(field, field.element(2))
    # the norm 4 - D of 2 + sqrt(D) is no square
    assert not is_square(field, field.sqrt_disc + 2)
    if D == -4:
        # i has norm 1, but 2(X + s) is no square: no root in Q(i)
        assert not is_square(field, field.element(2, 1))


EXP2_TO_300 = [-15, -20, -24, -35, -40, -51, -52, -84, -88, -91, -115, -120,
               -123, -132, -148, -168, -187, -195, -228, -232, -235, -267,
               -280]


def test_guards_survive_optimize(tmp_path):
    src = str(Path(grossen.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    code = (
        "from grossen.quadfield import FieldE\n"
        "from grossen.valuefield import check_R1\n"
        "assert False, 'asserts are not stripped'\n"
        "try:\n"
        "    check_R1(FieldE(-4), 1, 4)\n"
        "except ValueError:\n"
        "    pass\n"
        "else:\n"
        "    raise SystemExit('no ValueError for E inside Q(zeta_4)')\n"
        "if not check_R1(FieldE(-20), 1, 4).holds:\n"
        "    raise SystemExit('check_R1 fails at -20')\n"
        "from grossen.classgroup import enumerate_discriminants\n"
        "from grossen.survey import survey_h1\n"
        "from grossen.verify import H1_D1_LEVELS\n"
        f"if enumerate_discriminants(300, exponent=2) != {EXP2_TO_300}:\n"
        "    raise SystemExit('wrong exponent-2 sweep')\n"
        "rows = survey_h1(1, 1)\n"
        "if {r.delta_E: r.level for r in rows} != H1_D1_LEVELS:\n"
        "    raise SystemExit('wrong h1-d1 rows')\n"
        "for call in (lambda: survey_h1(2, 1), lambda: survey_h1(1, 4),\n"
        "             lambda: enumerate_discriminants(300, exponent=0)):\n"
        "    try:\n"
        "        call()\n"
        "    except ValueError:\n"
        "        continue\n"
        "    raise SystemExit('an argument check is gone')\n"
        # the theta series of one witness with a radical and one without
        "import json\n"
        "from grossen.cmform import (coefficient_field_probe, hecke_verify,\n"
        "                            q_expansion)\n"
        "from grossen.grossenchar import from_record\n"
        "kinds = {}\n"
        "for row in json.load(open(VERDICTS))['rows']:\n"
        "    psi = from_record(row['record'])\n"
        "    kinds.setdefault(bool(psi.algebra.ns), psi)\n"
        "    if len(kinds) == 2:\n"
        "        break\n"
        "if set(kinds) != {True, False}:\n"
        "    raise SystemExit('no witness of each kind')\n"
        "for psi in kinds.values():\n"
        "    f = q_expansion(psi, 50)\n"
        "    if not hecke_verify(f)['ok']:\n"
        "        raise SystemExit(f'hecke_verify fails at {psi.field.disc}')\n"
        "for call in (lambda: coefficient_field_probe(f),\n"
        "             lambda: psi.algebra.one ** -1):\n"
        "    try:\n"
        "        call()\n"
        "    except ValueError:\n"
        "        continue\n"
        "    raise SystemExit('a guard of the theta series is gone')\n"
        # unit groups: a dlog round trip above the old table cap, and
        # guards that were asserts
        "from grossen.quadfield import QIdeal\n"
        "from grossen.resunits import ideal_coset_reps, units_structure\n"
        "f = FieldE(-11)\n"
        "S = units_structure(f, QIdeal.primes_over(f, 2)[0] ** 10)\n"
        "z = f.element(3, 8)\n"
        "if S.ring.reduce(S.rebuild(S.dlog(z))) != S.ring.reduce(z):\n"
        "    raise SystemExit('rebuild(dlog(z)) != z mod p2**10')\n"
        "from grossen.abelian import enumerate_solutions\n"
        "from grossen.chargroup import GroupChar\n"
        "p3 = QIdeal.primes_over(f, 3)[0]\n"
        "for call in (lambda: ideal_coset_reps(p3 * p3, p3),\n"
        "             lambda: GroupChar(S, (0,)),\n"
        "             lambda: enumerate_solutions([[1]], [0], 6, [4])):\n"
        "    try:\n"
        "        call()\n"
        "    except ValueError:\n"
        "        continue\n"
        "    raise SystemExit('a guard of the unit groups is gone')\n")
    verdicts = Path(__file__).parent / "data" / "kummer_verdicts.json"
    res = subprocess.run([sys.executable, "-O", "-c",
                          f"VERDICTS = {str(verdicts)!r}\n" + code],
                         capture_output=True, text=True, cwd=tmp_path,
                         env=env)
    assert res.returncode == 0, res.stdout + res.stderr


# -- the presentation of E(zeta_r) -------------------------------------------

def _numeric_zeta_rule(field, r):
    """The earlier rule, the oracle of the exact one: the factor of Phi_r
    over E with roots exp(2 pi i k / r), chi_E(k) = 1, multiplied out at
    4x the working precision, each coefficient snapped to the nearest
    (p + q sqrt D) with denominators <= 4 and certified by
    f conj(f) = Phi_r."""
    def snap(x):
        scaled = mpmath.floor(x * (1 << 200) + mpmath.mpf("0.5"))
        return Fraction(int(scaled), 1 << 200).limit_denominator(4)

    D = field.disc
    ks = [k for k in range(1, r + 1)
          if gcd(k, r) == 1 and kronecker(D, k) == 1]
    with mpmath.workprec(4 * precision_bits()):
        poly = [mpmath.mpc(1)]
        for k in ks:
            root = mpmath.exp(2j * mpmath.pi * k / r)
            new = [mpmath.mpc(0)] * (len(poly) + 1)
            for i, c in enumerate(poly):
                new[i + 1] += c
                new[i] -= root * c
            poly = new
        sq = mpmath.sqrt(abs(D))
        coeffs = [field.element(snap(mpmath.re(c)) - snap(mpmath.im(c) / sq) * D,
                                2 * snap(mpmath.im(c) / sq))
                  for c in poly[:-1]]
    f = coeffs + [field.one]
    g = [c.conj() for c in coeffs] + [field.one]
    prod = [field.zero] * (len(f) + len(g) - 1)
    for i, ci in enumerate(f):
        for j, cj in enumerate(g):
            prod[i + j] = prod[i + j] + ci * cj
    assert prod == [field.element(c) for c in _cyclotomic_coeffs(r)]
    return [(-c.x, -c.y) for c in coeffs]


ZETA_RULE_CASES = [(D, abs(D) * k)
                   for D in (-3, -4, -7, -8, -11, -15, -19, -20, -23, -24)
                   for k in range(1, 9)]


def _zeta_rule_mismatches():
    # the uncached rule: a patched _gauss_sum is read, and no rule built
    # from it is left in the cache
    out = []
    for D, r in ZETA_RULE_CASES:
        field = FieldE(D)
        try:
            got = _field_zeta_rule.__wrapped__(field, r)
        except ArithmeticError:
            got = None
        if got != tuple(_numeric_zeta_rule(field, r)):
            out.append((D, r))
    return out


def test_exact_zeta_rule_matches_the_numeric_recognition():
    assert len(ZETA_RULE_CASES) == 80
    assert _zeta_rule_mismatches() == []


def test_zeta_rule_with_the_conjugate_gauss_sum_is_caught(monkeypatch):
    # -sqrt(D) reads each coefficient off the conjugate basis: the factor
    # of the roots exp(2 pi i k / r) with chi_E(k) = -1
    gauss = valuefield._gauss_sum
    monkeypatch.setattr(valuefield, "_gauss_sum",
                        lambda D, r: [-c for c in gauss(D, r)])
    assert _zeta_rule_mismatches() == ZETA_RULE_CASES


def _quartic_root_degree(psi):
    """The earlier r in {4, 6} branch of value_field_degree: 2 or 4 as
    zeta**k theta**ell, eta(theta) = zeta**k, has a square root in the
    quartic field E(zeta_r) or not."""
    field, r = psi.field, psi.eta.order
    alg = ValueAlgebra(field, r, [])
    theta = psi.cg.thetas[0]
    k = psi.eta.angle(theta) * r
    assert k.denominator == 1
    gamma = alg.zeta_pow(int(k)) * alg.from_quad(theta ** psi.ell)
    return 2 if quartic_nth_power_root(field, r, gamma, 2) is not None else 4


def test_quartic_value_degree_is_the_build_root_test():
    """Every order-r character, r in {4, 6}, at the moduli of the
    higher-order sweep over its fields with class group C2: the minimal
    conductor, times p_3 for r = 6.  Those include the characters that
    survey_higher_order builds, and the degree-4 ones at 8 | Delta."""
    survey = survey_higher_order()
    degrees, moduli = Counter(), set()
    for D, r in survey.r1:
        field = FieldE(D)
        if class_group(field, coprime_to=abs(D)).orders != (2,):
            continue
        m = minimal_conductor(field)
        if r == 6:
            m = QIdeal.primes_over(field, 3)[0] * m
        moduli.add((m, r))
        for eta in enumerate_eta(field, m, order_equals=r):
            try:
                psi = build(field, m, 1, eta, check=False)
            except (IncompatibleCharacterError, NoSuchCharacterError):
                continue
            got = value_field_degree(psi)
            assert got == _quartic_root_degree(psi), (D, r, eta.exps)
            degrees[got] += 1
    for row in survey.rows:
        psi = from_record(row.witness, check=False)
        assert (psi.modulus, psi.eta.order) in moduli
    assert degrees == {2: 18, 4: 8}
