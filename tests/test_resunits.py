"""Unit groups of residue rings and the dyadic tower structure."""

from __future__ import annotations

import json
import random
from math import gcd, prod
from pathlib import Path

import pytest

from grossen import survey
from grossen.quadfield import FieldE, QIdeal, _primes_over
from grossen.resunits import (DlogEngine, IntUnitGroup, ResidueRing,
                              _int_local, _local_units, dyadic_case,
                              dyadic_structure, ideal_coset_reps,
                              invariant_factors, torsion_meet, two_rank,
                              unit_count, units_structure)
from grossen.verify import DYADIC_FIELDS, DYADIC_MAX_N

FACTORS = Path(__file__).parent / "data" / "units_factors.json"


def _moduli_sample(field):
    out = [QIdeal.from_element(field.element(n)) for n in (2, 3, 4, 5, 6)]
    for p in (2, 3, 5, 7):
        out.append(QIdeal.primes_over(field, p)[0])
    out.append(QIdeal.primes_over(field, 2)[0]
               * QIdeal.primes_over(field, 3)[0])
    return out


def test_unit_count_matches_enumeration():
    for d in (-3, -4, -7, -15, -20, -24):
        field = FieldE(d)
        for m in _moduli_sample(field):
            if m.norm() > 600:
                continue
            ring = ResidueRing(field, m)
            assert unit_count(m) == sum(1 for _ in ring.unit_reps())


def test_units_structure_orders_and_dlog():
    rng = random.Random(9)
    for d in (-7, -15, -20, -24):
        field = FieldE(d)
        for m in _moduli_sample(field):
            if m.norm() > 400:
                continue
            S = units_structure(field, m)
            total = 1
            for o in S.orders:
                total *= o
            assert total == unit_count(m)
            ring = ResidueRing(field, m)
            units = list(ring.unit_reps())
            for _ in range(10):
                z = ring.elem(rng.choice(units))
                vec = S.dlog(z)
                assert all(0 <= e < o for e, o in zip(vec, S.orders))
                back = S.rebuild(vec)
                assert ring.reduce(back) == ring.reduce(z)
            assert all(e == 0 for e in S.dlog(field.one))


def test_units_structure_is_a_homomorphism():
    field = FieldE(-15)
    m = QIdeal.from_element(field.element(6))
    S = units_structure(field, m)
    ring = ResidueRing(field, m)
    rng = random.Random(10)
    units = list(ring.unit_reps())
    for _ in range(20):
        z1, z2 = ring.elem(rng.choice(units)), ring.elem(rng.choice(units))
        v1, v2 = S.dlog(z1), S.dlog(z2)
        v12 = S.dlog(z1 * z2)
        assert v12 == tuple((a + b) % o
                            for a, b, o in zip(v1, v2, S.orders))


def test_torsion_meet():
    f4 = FieldE(-4)
    p2 = QIdeal.primes_over(f4, 2)[0]
    # mod p2 every root of unity is congruent to 1
    assert len(torsion_meet(f4, p2)) == 4
    # mod (2) = p2**2 only +-1 survive
    two = QIdeal.from_element(f4.element(2))
    assert sorted(u.x for u in torsion_meet(f4, two)) == [-1, 1]
    # mod p2**3 only 1 survives
    assert [u for u in torsion_meet(f4, p2 ** 3)] == [f4.one]


def test_int_unit_group():
    for m in (1, 2, 8, 15, 16, 36, 240):
        G = IntUnitGroup(m)
        total = 1
        for _, o in G.factors:
            total *= o
        phi = sum(1 for a in range(1, m + 1) if gcd(a, m) == 1)
        assert total == phi
        for a in (x for x in range(1, m) if gcd(x, m) == 1):
            vec = G.dlog(a)
            acc = 1
            for (g, _), e in zip(G.factors, vec):
                acc = acc * pow(g, e, m) % m
            assert acc == a % m


def test_two_rank_and_invariant_factors():
    assert two_rank((4, 2, 3)) == 2
    assert two_rank((5, 3)) == 0
    assert invariant_factors((2, 3)) == (6,)
    assert invariant_factors((4, 6, 5)) == (2, 60)
    assert invariant_factors(()) == ()


def test_dyadic_case():
    assert dyadic_case(FieldE(-7)) == "split"
    assert dyadic_case(FieldE(-23)) == "split"
    assert dyadic_case(FieldE(-11)) == "inert"
    assert dyadic_case(FieldE(-4)) == "ram4"
    assert dyadic_case(FieldE(-20)) == "ram4"
    assert dyadic_case(FieldE(-8)) == "ram8"
    assert dyadic_case(FieldE(-24)) == "ram8"


def test_dyadic_structure_small_levels():
    for d in (-7, -11, -4, -8):
        field = FieldE(d)
        for n in range(1, 7):
            rep = dyadic_structure(field, n)
            assert rep.certified
            assert rep.two_rank == rep.two_rank_formula
            if rep.enumerated is not None:
                assert rep.matches_enumeration


def test_dyadic_five_square_truth():
    # by exhaustive squaring: 5 is a square mod p2**n exactly for n <= 4
    for d in (-8, -24):
        field = FieldE(d)
        got = [dyadic_structure(field, n).five_square for n in range(1, 13)]
        assert got == [True] * 4 + [False] * 8


def test_dyadic_minus_one_and_three():
    # -1 and 3 are squares mod p2**3 but not from level 4 on (8 || disc)
    for d in (-8, -24):
        field = FieldE(d)
        rep3 = dyadic_structure(field, 3)
        assert rep3.minus_one_square and rep3.three_square
        for n in range(4, 9):
            rep = dyadic_structure(field, n)
            assert not rep.minus_one_square
            assert not rep.three_square


def test_ideal_coset_reps():
    field = FieldE(-15)
    p3 = QIdeal.primes_over(field, 3)[0]
    reps = ideal_coset_reps(p3, p3 * p3)
    assert len(reps) == 3
    ring = ResidueRing(field, p3 * p3)
    seen = set()
    for r in reps:
        assert p3.contains(r)
        seen.add(ring.reduce(r))
    assert len(seen) == 3


def test_generators_are_unchanged():
    """The generators and orders of units_structure are an output: the
    dyadic towers and a fixed set of mixed moduli, as recorded."""
    rows = json.loads(FACTORS.read_text())["rows"]
    towers = [(D, [[2, 0, n]]) for D, _ in DYADIC_FIELDS
              for n in range(1, DYADIC_MAX_N + 1)]
    assert [(r["disc"], r["modulus"]) for r in rows[:len(towers)]] == towers
    assert len(rows) == 499
    for row in rows:
        field = FieldE(row["disc"])
        m = QIdeal.unit_ideal(field)
        for p, i, e in row["modulus"]:
            m = m * QIdeal.primes_over(field, p)[i] ** e
        S = units_structure(field, m)
        got = [[str(g.x), str(g.y), o] for g, o in S.factors]
        assert got == row["factors"], (row["disc"], row["modulus"])


def test_orders_come_from_the_local_groups():
    """orders and total_order are read before the global generators are
    built, and agree with them, on the recorded moduli."""
    for row in json.loads(FACTORS.read_text())["rows"]:
        field = FieldE(row["disc"])
        m = QIdeal.unit_ideal(field)
        for p, i, e in row["modulus"]:
            m = m * QIdeal.primes_over(field, p)[i] ** e
        S = units_structure(field, m)
        assert "factors" not in vars(S)
        orders, total = S.orders, S.total_order
        assert orders == tuple(o for _, o in S.factors)
        assert total == prod(orders) == unit_count(m)


def test_trivial_span_answers_only_the_identity():
    field = FieldE(-7)
    ring = ResidueRing(field, QIdeal.primes_over(field, 3)[0])
    for engine in (DlogEngine(ring, [], []),
                   DlogEngine(ring, [ring.one], [1])):
        want = () if not engine.orders else (0,)
        assert engine.dlog(ring.one) == want
        for rep in ring.unit_reps():
            if rep != ring.one:
                assert engine.dlog(rep) is None


def test_engine_rejects_dependent_generators():
    field = FieldE(-7)
    ring = ResidueRing(field, QIdeal.primes_over(field, 3)[0] ** 2)
    g = ring.reduce_xy(2, 0)        # order 6 mod 9
    with pytest.raises(ArithmeticError):
        DlogEngine(ring, [g, ring.pow(g, 3)], [6, 2])


def test_clear_memo_forgets_local_unit_groups():
    field = FieldE(-11)
    units_structure(field, QIdeal.primes_over(field, 3)[0] ** 2)
    IntUnitGroup(45).dlog(2)
    assert _local_units.cache_info().currsize > 0
    assert _int_local.cache_info().currsize > 0
    survey.clear_memo()
    assert _local_units.cache_info().currsize == 0
    assert _int_local.cache_info().currsize == 0


@pytest.mark.parametrize("disc, p, e", [(-7, 3, 2), (-7, 2, 3), (-4, 2, 4)])
def test_local_logs_are_memoized_for_units_only(disc, p, e):
    """Every residue of a generic, an integer and a dyadic local group:
    a unit's log is kept and rebuilds the unit, a non-unit's None is not
    kept, and clear_memo forgets the group with its logs."""
    field = FieldE(disc)
    prime = QIdeal.primes_over(field, p)[0]
    loc = _local_units(field, prime, e)
    ring = loc.ring
    for rep in ring.reps():
        vec = loc.dlog(rep)
        assert loc.dlog(rep) == vec
        if ring.is_unit(rep):
            assert loc._logs[rep] is vec
            acc = ring.one
            for g, x in zip(loc.gens, vec):
                acc = ring.mul(acc, ring.pow(g, x))
            assert acc == rep
        else:
            assert vec is None and rep not in loc._logs
    survey.clear_memo()
    assert _local_units(field, prime, e) is not loc


def test_clear_memo_forgets_primes_over():
    field = FieldE(-15)
    primes = QIdeal.primes_over(field, 2)
    primes.append(None)                 # a fresh list: the memo is intact
    assert QIdeal.primes_over(field, 2) == primes[:-1]
    assert _primes_over.cache_info().currsize > 0
    survey.clear_memo()
    assert _primes_over.cache_info().currsize == 0


def test_local_unit_groups_are_shared():
    field = FieldE(-15)
    p2 = QIdeal.primes_over(field, 2)[0]
    p3 = QIdeal.primes_over(field, 3)[0]
    a = units_structure(field, p2 ** 3 * p3)
    b = units_structure(field, p2 ** 3 * QIdeal.primes_over(field, 7)[0])
    assert a.locals_[0] is b.locals_[0]


def test_argument_checks_raise():
    field = FieldE(-15)
    p3 = QIdeal.primes_over(field, 3)[0]
    with pytest.raises(ValueError):
        ideal_coset_reps(p3 * p3, p3)
    with pytest.raises(ValueError):
        IntUnitGroup(0)
    S = units_structure(field, QIdeal.primes_over(field, 2)[0] * p3 * p3)
    for non_unit in (3, field.element(0, 1) * 3, 6):
        with pytest.raises(ValueError):
            S.dlog(non_unit)
