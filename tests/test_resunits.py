"""Unit groups of residue rings and the dyadic tower structure."""

from __future__ import annotations

import hashlib
import json
import random
from collections import Counter
from math import gcd, prod
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grossen import resunits, survey
from grossen.abelian import extend_span, hnf_2x2, smith_normal_form
from grossen.classgroup import enumerate_discriminants
from grossen.quadfield import FieldE, QIdeal, _primes_over, _primes_up_to
from grossen.resunits import (INERT_DYADIC_MAX_N, TORSION_TABLE_CAP,
                              DlogEngine, IntUnitGroup, ResidueRing,
                              UnitGroupTooLarge, _dyadic_local, _factor,
                              _int_local, _local_units, _verify_certificate,
                              dyadic_case, dyadic_structure, ideal_coset_reps,
                              invariant_factors, torsion_meet, two_rank,
                              unit_count, units_structure)
from grossen.verify import DYADIC_FIELDS, DYADIC_MAX_N

FACTORS = Path(__file__).parent / "data" / "units_factors.json"
# SHA-256 of the generators on the moduli where P and its conjugate both
# divide m (the test below), captured at commit 3928d87.
SPLIT_PAIR_DIGEST = (
    "4e3154ee159d5177e2e9f43da333652c47ae4fb6ae1ad6411c595a8529a6edbf")


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
            ring = ResidueRing(field, m, m.factor().items())
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
            ring = ResidueRing(field, m, m.factor().items())
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
    ring = ResidueRing(field, m, m.factor().items())
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


def _regrouped_invariant_factors(orders):
    """Invariant factors regrouped prime by prime: the i-th largest factor
    takes the i-th largest power of each prime over the orders."""
    by_prime: dict[int, list[int]] = {}
    for o in orders:
        for p, e in resunits._factor(o):
            by_prime.setdefault(p, []).append(p ** e)
    width = max((len(v) for v in by_prime.values()), default=0)
    out = [1] * width
    for powers in by_prime.values():
        for i, q in enumerate(sorted(powers, reverse=True)):
            out[i] *= q
    return tuple(sorted(out))


def test_invariant_factors_match_the_prime_regrouping():
    rng = random.Random(30)
    cases = [(), (1,), (1, 1, 1)]
    cases += [tuple(rng.randint(1, 120) for _ in range(rng.randint(0, 6)))
              for _ in range(2000)]
    for orders in cases:
        assert invariant_factors(orders) == _regrouped_invariant_factors(
            orders), orders


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
    ring = ResidueRing(field, p3 * p3, [(p3, 2)])
    seen = set()
    for r in reps:
        assert p3.contains(r)
        seen.add(ring.reduce(r))
    assert len(seen) == 3


def test_ideal_coset_reps_on_random_nested_pairs():
    """One representative per coset of larger/smaller: each in the larger
    ideal, distinct mod the smaller one, as many as the index; split
    P conj(P) and rational integers among the factors."""
    rng = random.Random(20231)
    fields = [FieldE(D) for D in (-3, -4, -7, -15, -20, -23, -24, -56, -84)]
    checked = split = 0
    for _ in range(150):
        field = rng.choice(fields)
        primes = [P for p in (2, 3, 5, 7) for P in QIdeal.primes_over(field, p)]
        larger, extra = (prod((rng.choice(primes) for _ in range(rng.randrange(k))),
                              start=QIdeal.unit_ideal(field))
                         for k in (3, 4))
        if rng.randrange(3) == 0:
            p = rng.choice((2, 3, 5, 7))
            extra = extra * QIdeal.from_element(field.element(p))
            split += field.chi(p) == 1
        smaller = larger * extra
        reps = ideal_coset_reps(larger, smaller)
        ring = ResidueRing(field, smaller, smaller.factor().items())
        assert all(larger.contains(t) for t in reps)
        assert len({ring.reduce(t) for t in reps}) == len(reps)
        assert len(reps) == smaller.norm() // larger.norm()
        checked += 1
    assert checked == 150 and split > 5


def test_rational_injectivity_matches_the_membership_loop():
    """rational_injective against the earlier test: no a - 1 in m for
    odd 1 < a < kmod, each decided by QIdeal.contains."""
    kmods = {"ram4": 4, "ram8": 8}
    for D, case in DYADIC_FIELDS:
        field = FieldE(D)
        p2 = QIdeal.primes_over(field, 2)[0]
        for n in range(1, DYADIC_MAX_N + 1):
            m = p2 ** n
            kmod = kmods.get(case, 2 ** n)
            want = not any(m.contains(field.element(a - 1))
                           for a in range(3, kmod, 2))
            assert dyadic_structure(field, n).rational_injective == want


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


def test_generators_where_p_and_its_conjugate_divide_m(monkeypatch):
    """The generators and orders of units_structure over the moduli
    P^a Pbar^b (c), a = 1..3, b = 1..2, c in (1, 3, 4, 9), for the first
    five primes p < 44 that split in each of eleven fields: the global
    lifts there come from _split_one, which the recorded rows never
    reach."""
    calls = []
    split_one = resunits._split_one
    monkeypatch.setattr(resunits, "_split_one",
                        lambda *args: calls.append(args) or split_one(*args))
    digest = hashlib.sha256()
    count = 0
    for d in (-3, -4, -7, -8, -11, -15, -19, -20, -23, -24, -31):
        field = FieldE(d)
        for p in [p for p in _primes_up_to(43) if field.chi(p) == 1][:5]:
            P, Pbar = QIdeal.primes_over(field, p)
            for a in range(1, 4):
                for b in range(1, 3):
                    for c in (1, 3, 4, 9):
                        m = (P ** a * Pbar ** b
                             * QIdeal.from_element(field.element(c)))
                        got = [[str(g.x), str(g.y), o]
                               for g, o in units_structure(field, m).factors]
                        digest.update(json.dumps(
                            [d, m.a, m.b, str(m.scale), got]).encode())
                        count += 1
    assert count == 1320 and calls
    assert digest.hexdigest() == SPLIT_PAIR_DIGEST


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
    p3 = QIdeal.primes_over(field, 3)[0]
    ring = ResidueRing(field, p3, [(p3, 1)])
    for engine in (DlogEngine(ring, [], []),
                   DlogEngine(ring, [ring.one], [1])):
        want = () if not engine.orders else (0,)
        assert engine.dlog(ring.one) == want
        for rep in ring.unit_reps():
            if rep != ring.one:
                assert engine.dlog(rep) is None


def test_engine_rejects_dependent_generators():
    field = FieldE(-7)
    p3 = QIdeal.primes_over(field, 3)[0]
    ring = ResidueRing(field, p3 ** 2, [(p3, 2)])
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


def test_small_cyclic_logs_come_from_the_index():
    """Every odd prime power p^e <= TORSION_TABLE_CAP: the index gives the
    Pohlig-Hellman log of every residue, None at the non-units.  Above
    the cap and at p = 2 the engine takes its logs by Pohlig-Hellman and
    builds no index."""
    survey.clear_memo()
    checked = 0
    for pe in range(3, TORSION_TABLE_CAP + 1, 2):
        if len(_factor(pe)) != 1:
            continue
        (p, e), = _factor(pe)
        assert _int_local(p, e)[0] == pe
        engine = _int_local(p, e)[2]
        assert engine._index is None        # filled on the first log
        for a in range(pe):
            want = DlogEngine.dlog(engine, a)
            assert (want is None) == (a % p == 0)
            assert engine.dlog(a) == want, (pe, a)
        assert len(engine._index) == pe
        checked += 1
    assert checked == 188         # 171 odd primes and 17 higher powers
    # 1031 is the least odd prime power above the cap
    assert all(len(_factor(n)) > 1 for n in range(TORSION_TABLE_CAP + 1,
                                                   1031, 2))
    for p, e in ((1031, 1), (2, 10)):
        engine = _int_local(p, e)[2]
        assert engine.dlog(3) is not None
        assert getattr(engine, "_index", None) is None
    survey.clear_memo()


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


# -- the residue-ring kernels and searches against their plain forms --------


def _modulus(field, spec):
    m = QIdeal.unit_ideal(field)
    for p, i, e in spec:
        m = m * QIdeal.primes_over(field, p)[i] ** e
    return m


# (disc, ((p, index of the prime over p, exponent), ...)): scale one
# (split and ramified primes, coprime products) and scale above one (inert
# primes, P times its conjugate, a ramified square)
KERNEL_MODULI = (
    (-7, ((2, 0, 5),)), (-7, ((2, 0, 3), (11, 1, 1))), (-4, ((5, 0, 2),)),
    (-15, ((3, 0, 1), (5, 0, 1))), (-20, ((2, 0, 1), (7, 1, 2))),
    (-7, ((3, 0, 2),)), (-7, ((2, 0, 2), (2, 1, 3))), (-4, ((2, 0, 5),)),
    (-11, ((2, 0, 4), (3, 0, 1))), (-15, ((3, 0, 2), (2, 1, 1))),
)
RINGS = [ResidueRing(FieldE(D), m, m.factor().items())
         for D, spec in KERNEL_MODULI
         for m in [_modulus(FieldE(D), spec)]]


def _plain_mul(ring, r1, r2):
    (x1, y1), (x2, y2) = r1, r2
    return ring.reduce_xy(x1 * x2 - y1 * y2 * ring._nw,
                          x1 * y2 + y1 * x2 + y1 * y2 * ring._d)


def _plain_pow(ring, rep, e):
    out, base = ring.one, rep
    while e:
        if e & 1:
            out = _plain_mul(ring, out, base)
        base = _plain_mul(ring, base, base)
        e >>= 1
    return out


def test_kernel_moduli_have_both_scales():
    assert {ring.s == 1 for ring in RINGS} == {True, False}


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(RINGS), st.integers(-10 ** 6, 10 ** 6),
       st.integers(-10 ** 6, 10 ** 6), st.integers(-10 ** 6, 10 ** 6),
       st.integers(-10 ** 6, 10 ** 6), st.integers(0, 5000))
def test_mul_and_pow_match_the_plain_reduction(ring, x1, y1, x2, y2, e):
    r1, r2 = (x1, y1), (x2, y2)
    assert ring.mul(r1, r2) == _plain_mul(ring, r1, r2)
    assert ring.pow(r1, e) == _plain_pow(ring, r1, e)
    red = ring.reduce_xy(x1, y1)
    assert ring.pow(red, e) == _plain_pow(ring, red, e)


def _plain_inert_dyadic_gens(ring, disc, n, total):
    """The inert dyadic search with a discrete log per candidate."""
    g3 = ring.pow(ring.reduce_xy(0, 1), 4 ** (n - 1))
    m1 = ring.reduce_xy(-1, 0)
    w = ring.reduce_xy(3 - 2 * disc, 4)
    five = ring.reduce_xy(5, 0)
    orders = [3, 2, 2 ** (n - 1), 2 ** (n - 2)]
    for x in range(ring.sa):
        z = ring.reduce_xy(x, 1)
        if not ring.is_unit(z):
            continue
        u = ring.pow(z, 3)
        if ring.pow(u, 2 ** (n - 2)) == ring.one:
            continue
        if DlogEngine(ring, [u], [2 ** (n - 1)]).dlog(five) is None:
            continue
        gens = [g3, m1, u, w]
        if _verify_certificate(ring, gens, orders, total):
            return [g for g, o in zip(gens, orders) if o > 1]
    raise AssertionError("no generators")


@pytest.mark.parametrize("disc", [D for D, case in DYADIC_FIELDS
                                  if case == "inert"])
def test_inert_dyadic_search_matches_a_log_per_candidate(disc):
    field = FieldE(disc)
    p2 = QIdeal.primes_over(field, 2)[0]
    for n in range(2, INERT_DYADIC_MAX_N + 1):
        ring = ResidueRing(field, p2 ** n, [(p2, n)])
        total = 3 * 4 ** (n - 1)
        loc = _dyadic_local(field, n, ring, 4, total)
        assert loc.gens == _plain_inert_dyadic_gens(ring, disc, n, total), n


def test_inert_dyadic_level_above_the_search_is_refused():
    field = FieldE(-3)
    p2 = QIdeal.primes_over(field, 2)[0]
    with pytest.raises(UnitGroupTooLarge):
        units_structure(field, p2 ** (INERT_DYADIC_MAX_N + 1))


@pytest.mark.parametrize("disc", [-3, -4, -7, -11, -15])
def test_residue_field_generator_is_the_first_of_the_full_scan(disc):
    field = FieldE(disc)
    inert = [p for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43,
                         47, 53, 59) if field.chi(p) == -1]
    assert len(inert) >= 6
    for p in inert:
        prime = QIdeal.primes_over(field, p)[0]
        ring = ResidueRing(field, prime, [(prime, 1)])
        total = p * p - 1
        first = next(rep for rep in ring.reps() if ring.is_unit(rep)
                     and ring.order_of(rep, total) == total)
        assert _local_units(field, prime, 1).gens == [first], p


@pytest.mark.parametrize("disc, spec", [
    # the norms of the prime powers are pairwise coprime
    (-7, ((2, 0, 3), (3, 0, 1), (11, 1, 1))),
    (-15, ((2, 0, 2), (3, 0, 2), (5, 0, 1))),
    (-4, ((2, 0, 5), (5, 1, 2), (3, 0, 1))),
    (-11, ((2, 0, 3), (5, 1, 1))),
    # P and its conjugate both divide m
    (-7, ((2, 0, 2), (2, 1, 3))),
    (-15, ((2, 0, 1), (2, 1, 2), (17, 0, 1))),
    (-20, ((3, 0, 2), (3, 1, 1), (2, 0, 1))),
])
def test_lifts_are_the_local_generator_and_one_elsewhere(disc, spec):
    field = FieldE(disc)
    S = units_structure(field, _modulus(field, spec))
    assert len(S.locals_) == len(S.primes) > 1
    lifts = iter(S.factors)
    for i, loc in enumerate(S.locals_):
        for g, o in zip(loc.gens, loc.orders):
            lifted, order = next(lifts)
            assert order == o
            for j, (prime, e) in enumerate(S.primes):
                want = loc.ring.elem(g) if j == i else field.one
                assert (prime ** e).contains(lifted - want), (i, j)
    assert next(lifts, None) is None


def _reference_closure(ring, total):
    """The generators and orders the generic branch of _local_units must
    pick, from a set closure of the units in coordinate order with the
    relation rows read from absolute-order extend_span tables, each row
    the first vector found."""
    closure, rows, kept, kept_orders = {ring.one}, [], [], []
    span, built = {ring.one: ()}, 0
    for g in ring.unit_reps():
        if len(closure) == total:
            break
        if g in closure:
            continue
        power, r = g, 1
        while power not in closure:
            power, r = ring.mul(power, g), r + 1
        while power not in span:
            span = extend_span(span, kept[built], kept_orders[built],
                               ring.mul)
            built += 1
        rel = span[power] + (0,) * (len(kept) - len(span[power]))
        for prev in rows:
            prev.append(0)
        rows.append([-e for e in rel] + [r])
        kept.append(g)
        n, acc = r, power
        while acc != ring.one:
            acc, n = ring.mul(acc, g), n + 1
        kept_orders.append(n)
        extended = set(closure)
        for el in closure:
            for _ in range(1, r):
                el = ring.mul(el, g)
                extended.add(el)
        closure = extended
    assert len(closure) == total
    diag, vinv = smith_normal_form(rows)
    gens, orders = [], []
    for j, row in enumerate(vinv):
        if diag[j][j] > 1:
            acc = ring.one
            for g, e, n in zip(kept, row, kept_orders):
                acc = ring.mul(acc, ring.pow(g, e % n))
            gens.append(acc)
            orders.append(diag[j][j])
    return gens, orders


def test_local_unit_picks_match_the_reference_closure(monkeypatch):
    """Every local group that reaches the closure (P inert or ramified,
    e >= 2, norm of P^e up to 3000, and the ramified dyadic towers to
    p2^INERT_DYADIC_MAX_N) over the first 20 exponent-2 and exponent-3
    fields, the class-number-one fields and the dyadic test fields: the
    same generators and orders as the set-closure reference."""
    generic = []
    real = resunits.decompose_from_generators

    def recording(*args):
        generic.append(args)
        return real(*args)

    monkeypatch.setattr(resunits, "decompose_from_generators", recording)
    discs = (enumerate_discriminants(survey.EXP2_BOUND, 2)[:20]
             + enumerate_discriminants(survey.EXP3_BOUND, 3)[:20]
             + list(survey.H1_DISCS) + [D for D, _ in DYADIC_FIELDS])
    cases = []
    for D in dict.fromkeys(discs):
        field = FieldE(D)
        for p in _primes_up_to(3000):
            if field.chi(p) == 1:
                continue
            prime = QIdeal.primes_over(field, p)[0]
            q = int(prime.norm())
            top = INERT_DYADIC_MAX_N if q == 2 else 1
            # at e = 1, o/P is a residue field or Z/p: no closure
            e = 2
            while e <= top or q ** e <= 3000:
                cases.append((field, prime, e))
                e += 1
    compared = 0
    for field, prime, e in cases:
        generic.clear()
        loc = _local_units.__wrapped__(field, prime, e)
        if generic:
            total = prod(loc.orders)
            assert (loc.gens, loc.orders) == \
                _reference_closure(loc.ring, total), (field.disc, prime, e)
            compared += 1
    assert compared > 300


# -- the closed-form unit test against the earlier HNF one --------------------

CLASS_NUMBER_ONE = (-3, -4, -7, -8, -11, -19, -43, -67, -163)


def _hnf_is_unit(ring, rep):
    """The earlier ResidueRing.is_unit, the oracle of the closed form:
    x + y*w is a unit iff m + (x + y*w) is the whole ring, read off the
    HNF of the four rows that span that lattice."""
    x, y = rep
    a, c, d = hnf_2x2([(ring.sa, 0), (ring.sb, ring.s), (x, y),
                       (-y * ring._nw, x + y * ring._d)])
    return a == 1 and d == 1


def _unit_test_mismatches(ring, reps):
    return [rep for rep in reps
            if ring.is_unit(rep) != _hnf_is_unit(ring, rep)]


def test_closed_form_unit_test_matches_the_hnf():
    from grossen.cmform import ideals_of_norm_up_to

    kinds = Counter()
    for D in CLASS_NUMBER_ONE:
        field = FieldE(D)
        for _, m in ideals_of_norm_up_to(field, 500):
            ring = ResidueRing(field, m, m.factor().items())
            assert _unit_test_mismatches(ring, ring.reps()) == [], (D, m)
            primes = m.factor()
            for P in primes:
                chi = field.chi(P._prime_over()[0])
                kinds[{1: "split", -1: "inert", 0: "ramified"}[chi]] += 1
                if chi == 1 and P.conj() in primes:
                    kinds["split pair"] += 1
    assert min(kinds[k] for k in ("split", "inert", "ramified",
                                  "split pair")) > 100, kinds
    # the dyadic towers: every residue up to norm 2**12, above it the
    # first 2**10 residues and 2**12 drawn ones
    rng = random.Random(20251)
    for D, _ in DYADIC_FIELDS:
        field = FieldE(D)
        p2 = QIdeal.primes_over(field, 2)[0]
        for n in range(1, DYADIC_MAX_N + 1):
            ring = ResidueRing(field, p2 ** n, [(p2, n)])
            if ring.s * ring.sa <= 1 << 12:
                reps = list(ring.reps())
            else:
                reps = [rep for rep, _ in zip(ring.reps(), range(1 << 10))]
                reps += [(rng.randrange(ring.sa), rng.randrange(ring.s))
                         for _ in range(1 << 12)]
            assert _unit_test_mismatches(ring, reps) == [], (D, n)


def test_ring_rejects_factors_that_miss_a_prime():
    """is_unit reads the primes of `factors`, so a list that leaves one
    out, or has a wrong exponent, is refused."""
    field = FieldE(-7)                     # 2 splits, 3 is inert
    m = QIdeal.from_element(field.element(12))
    factors = m.factor()
    assert len(factors) == 3
    ResidueRing(field, m, factors.items())
    for P in factors:
        with pytest.raises(ValueError):
            ResidueRing(field, m, [(Q, e) for Q, e in factors.items()
                                   if Q != P])
        with pytest.raises(ValueError):
            ResidueRing(field, m, [(Q, e + (Q == P)) for Q, e
                                   in factors.items()])
