"""Integer linear algebra and abelian-group decomposition."""

from __future__ import annotations

import random
from itertools import product
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from grossen import abelian
from grossen.abelian import (decompose_from_generators, enumerate_solutions,
                             extend_span, hnf_2x2, smith_normal_form,
                             solve_congruence_system, xgcd)
from grossen.resunits import IntUnitGroup, invariant_factors


def mat_mul(a, b):
    n, k, m = len(a), len(b), len(b[0]) if b else 0
    return [[sum(a[i][t] * b[t][j] for t in range(k)) for j in range(m)]
            for i in range(n)]


def test_xgcd_identity():
    rng = random.Random(1)
    for _ in range(200):
        a = rng.randint(-10 ** 6, 10 ** 6)
        b = rng.randint(-10 ** 6, 10 ** 6)
        g, s, t = xgcd(a, b)
        assert g >= 0
        assert s * a + t * b == g
        assert a % g == 0 and b % g == 0 if g else (a == b == 0)


def test_xgcd_edge_cases():
    assert xgcd(0, 0) == (0, 1, 0)
    g, s, t = xgcd(0, -7)
    assert g == 7 and t * (-7) == 7
    g, s, t = xgcd(12, 18)
    assert g == 6


def test_smith_normal_form_random():
    # D against sympy's Smith form; W = V^-1 unimodular, and A and D*W
    # (= U*A) span the same row lattice, the same Hermite form
    from sympy import Matrix
    from sympy.matrices.normalforms import (hermite_normal_form,
                                            smith_normal_form as sympy_snf)
    rng = random.Random(2)
    for _ in range(100):
        n = rng.randint(1, 4)
        m = rng.randint(1, 4)
        a = [[rng.randint(-9, 9) for _ in range(m)] for _ in range(n)]
        d, w = smith_normal_form(a)
        diag = [d[i][i] for i in range(min(n, m))]
        for i in range(n):
            for j in range(m):
                if i != j:
                    assert d[i][j] == 0
        for x, y in zip(diag, diag[1:]):
            assert x >= 0 and y >= 0
            if x:
                assert y % x == 0
        want = sympy_snf(Matrix(a))
        assert diag == [abs(want[i, i]) for i in range(min(n, m))]
        assert Matrix(w).det() in (1, -1)
        assert (hermite_normal_form(Matrix(a).T)
                == hermite_normal_form(Matrix(mat_mul(d, w)).T))


def test_hnf_2x2():
    # lattice spanned by (2, 0), (1, 3), (4, 6)
    a, c, d = hnf_2x2([(2, 0), (1, 3), (4, 6)])
    assert d == 3 and a > 0 and 0 <= c < a
    # membership: every generator lies in Z(a,0) + Z(c,d)
    for (x, y) in [(2, 0), (1, 3), (4, 6)]:
        assert y % d == 0
        assert (x - (y // d) * c) % a == 0
    assert hnf_2x2([(0, 0)]) == (0, 0, 0)
    assert hnf_2x2([(-5, 0)]) == (5, 0, 0)


def _box_products(gens, orders, n):
    """prod g_j^e_j mod n over the box 0 <= e_j < o_j, one per vector."""
    out = []
    for vec in product(*(range(o) for o in orders)):
        acc = 1 % n
        for g, e in zip(gens, vec):
            acc = acc * pow(g, e, n) % n
        out.append(acc)
    return out


def _units(n):
    return [a for a in range(n) if gcd(a, n) == 1]


def test_decompose_mod_n_units():
    # (Z/36)^x is C2 x C6; each group is recovered from redundant generators
    for n in (36, 45, 63, 100, 105):
        units = _units(n)
        gens, orders = decompose_from_generators(1, units,
                                                 lambda x, y: x * y % n)
        assert all(o > 1 for o in orders)
        if n == 36:
            assert (gens, orders) == ([19, 5], [2, 6])
        # the box products are distinct and make up the whole group
        box = _box_products(gens, orders, n)
        assert len(set(box)) == len(box)
        assert sorted(box) == units


def test_decompose_stops_at_the_order():
    # stopping at |(Z/45)^x| = 24 reads fewer candidates, same result
    seen = []

    def scan():
        for a in _units(45):
            seen.append(a)
            yield a

    mul = (lambda x, y: x * y % 45)
    assert decompose_from_generators(1, scan(), mul, 24) == \
        decompose_from_generators(1, _units(45), mul)
    assert len(seen) < len(_units(45))
    with pytest.raises(ArithmeticError, match="not the 48 expected"):
        decompose_from_generators(1, _units(45), mul, 48)


def test_decompose_refuses_a_non_unit_at_the_order():
    # 3 is not a unit mod 45: its powers never reach the span, and the
    # order bounds how long to wait for them
    with pytest.raises(ArithmeticError, match="not in a group of order 24"):
        decompose_from_generators(1, [2, 3], lambda x, y: x * y % 45, 24)


def test_decompose_trivial_group():
    assert decompose_from_generators(1, [], lambda x, y: x * y % 5) == ([], [])
    assert decompose_from_generators(1, [1, 1], lambda x, y: x * y % 5) == \
        ([], [])
    assert decompose_from_generators(1, [], lambda x, y: x * y % 5, 1) == \
        ([], [])


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_decompose_matches_int_unit_group(data):
    """Random generating subsets of (Z/n)^x, n < 2000, give the invariant
    factors of the classical generators."""
    n = data.draw(st.integers(1, 1999))
    units = _units(n)
    G = IntUnitGroup(n)
    extra = data.draw(st.lists(st.sampled_from(units), max_size=6))
    gens = data.draw(st.permutations(extra + [g for g, _ in G.factors]))
    order = data.draw(st.sampled_from((None, G.order)))
    got, orders = decompose_from_generators(1 % n, gens,
                                            lambda x, y: x * y % n, order)
    assert invariant_factors(orders) == invariant_factors(G.orders)
    for g, o in zip(got, orders):
        assert pow(g, o, n) == 1 % n


def test_extend_span_keeps_the_first_vector():
    # Z/12 under addition: span of 4, then of 6 taken to n = 4 (> its order)
    add = (lambda x, y: (x + y) % 12)
    base = {0: ()}
    t1 = extend_span(base, 4, 3, add)
    assert base == {0: ()}
    assert list(t1.items()) == [(0, (0,)), (4, (1,)), (8, (2,))]
    t2 = extend_span(t1, 6, 4, add)
    assert list(t2.items()) == [
        (0, (0, 0)), (4, (1, 0)), (8, (2, 0)),
        (6, (0, 1)), (10, (1, 1)), (2, (2, 1)),
    ]


def _subgroup_dlog(identity, gens, orders, mul, target):
    """The exponent vector of target over gens at their absolute orders,
    from a table rebuilt from the identity: the first vector found."""
    table = {identity: ()}
    for g, n in zip(gens, orders):
        if target in table:
            break
        table = extend_span(table, g, n, mul)
    vec = table[target]
    return list(vec) + [0] * (len(gens) - len(vec))


def _reference_relations(identity, gens, mul):
    """The relation rows of decompose_from_generators as computed with a
    fresh _subgroup_dlog table per kept generator."""
    closure, rows, kept, orders = {identity}, [], [], []
    for g in gens:
        if g in closure:
            continue
        power, r = g, 1
        while power not in closure:
            power, r = mul(power, g), r + 1
        rel = _subgroup_dlog(identity, kept, orders, mul, power)
        for prev in rows:
            prev.append(0)
        rows.append([-e for e in rel] + [r])
        kept.append(g)
        n, acc = r, power
        while acc != identity:
            acc, n = mul(acc, g), n + 1
        orders.append(n)
        extended = set(closure)
        for el in closure:
            for _ in range(1, r):
                el = mul(el, g)
                extended.add(el)
        closure = extended
    return rows


def _span_size(identity, gens, mul):
    span = {identity}
    for g in gens:
        while True:
            more = span | {mul(x, g) for x in span}
            if len(more) == len(span):
                break
            span = more
    return len(span)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_decompose_relations_match_the_subgroup_dlog_reference(data):
    """Random subgroups of Z/m1 x Z/m2 x Z/m3: the relation rows read off
    the relative-order table are those of an absolute-order table rebuilt
    from the identity per generator.  With `order` the size of the span,
    the generator that completes it gets the same row although its last
    coset is never built."""
    ms = data.draw(st.lists(st.integers(1, 12), min_size=3, max_size=3))
    gens = data.draw(st.lists(
        st.tuples(*(st.integers(0, m - 1) for m in ms)), max_size=6))
    identity = (0, 0, 0)

    def add(x, y):
        return tuple((a + b) % m for a, b, m in zip(x, y, ms))

    order = data.draw(st.sampled_from(
        (None, _span_size(identity, gens, add))))

    seen = []

    def recording(a):
        seen.append([list(row) for row in a])
        return smith_normal_form(a)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(abelian, "smith_normal_form", recording)
        got, orders = decompose_from_generators(identity, gens, add, order)
    assert seen == [_reference_relations(identity, gens, add)]
    for g, o in zip(got, orders):
        acc = identity
        for _ in range(o):
            acc = add(acc, g)
        assert acc == identity


@pytest.mark.parametrize("wrong, message", [
    ([12, 2], "order not dividing 2"),
    ([2, 24], "multiply to 48"),
])
def test_decompose_rejects_a_wrong_smith_diagonal(monkeypatch, wrong,
                                                  message):
    # (Z/45)^x is C2 x C12
    real = smith_normal_form

    def faulty(a):
        d, w = real(a)
        assert [d[i][i] for i in range(len(d))] == [2, 12]
        d[0][0], d[1][1] = wrong
        return d, w

    monkeypatch.setattr(abelian, "smith_normal_form", faulty)
    with pytest.raises(ArithmeticError, match=message):
        decompose_from_generators(1, _units(45), lambda x, y: x * y % 45)


def test_solve_congruence_system():
    # 2x + 4y = 6 (mod 8) has solutions; check the affine description
    res = solve_congruence_system([[2, 4]], [6], 8)
    assert res is not None
    x0, basis = res
    assert (2 * x0[0] + 4 * x0[1]) % 8 == 6
    for b in basis:
        assert (2 * b[0] + 4 * b[1]) % 8 == 0
    # 2x = 1 (mod 8) is insoluble
    assert solve_congruence_system([[2]], [1], 8) is None


def test_enumerate_solutions_matches_brute_force():
    # x + 2y = 3 (mod 6) with x mod 6, y mod 3
    got = set(enumerate_solutions([[1, 2]], [3], 6, [6, 3]))
    want = {(x, y) for x in range(6) for y in range(3)
            if (x + 2 * y) % 6 == 3}
    assert got == want


# the brute force walks every x with 0 <= x_j < c_j
BRUTE_FORCE_CAP = 256


@st.composite
def congruence_systems(draw):
    """(A, b, R, component moduli).  Column j is a multiple of R / c_j, so
    x_j is read mod c_j.  Half the draws are small, R <= 36, k <= 3
    unknowns and n <= 3 equations, with each c_j any divisor of R.  The
    other half take the shapes the character conditions take, R <= 162,
    k <= 6, n <= 8, with the c_j multiplying to at most BRUTE_FORCE_CAP.
    Half the right-hand sides are A x for a drawn x, half are arbitrary."""
    if draw(st.booleans()):
        R = draw(st.integers(1, 36))
        k = draw(st.integers(1, 3))
        n = draw(st.integers(1, 3))
        room = R ** k
    else:
        R = draw(st.integers(1, 162))
        k = draw(st.integers(1, 6))
        n = draw(st.integers(1, 8))
        room = BRUTE_FORCE_CAP
    comps: list[int] = []
    for _ in range(k):
        c = draw(st.sampled_from([c for c in range(1, min(R, room) + 1)
                                  if R % c == 0]))
        comps.append(c)
        room //= c
    coeffs = [[R // c * draw(st.integers(0, c - 1)) for c in comps]
              for _ in range(n)]
    if draw(st.booleans()):
        x = [draw(st.integers(0, c - 1)) for c in comps]
        rhs = [sum(a * y for a, y in zip(row, x)) % R for row in coeffs]
    else:
        rhs = [draw(st.integers(0, R - 1)) for _ in range(n)]
    return coeffs, rhs, R, comps


@settings(max_examples=800, deadline=None)
@given(congruence_systems())
@example(([[2, 4]], [6], 8, [8, 8]))
@example(([[2], [4]], [1, 2], 8, [8]))                  # insoluble
@example(([[3, 6, 0], [9, 0, 18]], [3, 9], 27, [27, 27, 27]))
@example(([[6, 4], [3, 8]], [2, 5], 12, [12, 12]))
@example(([[3, 0], [0, 3]], [0, 6], 9, [9, 3]))
@example(([[10, 15, 6]], [1], 30, [30, 30, 30]))
# consistent on the diagonal, not on the row past it
@example(([[1], [1]], [0, 1], 2, [2]))
# a pivot sharing the factor 3 with R: 6y = 3 is solved as 2y = 1 mod 3
@example(([[6]], [3], 9, [9]))
# R = 1: one solution and an empty basis, so no step leads back to it
@example(([[1, 0], [0, 0]], [0, 1], 1, [1, 1]))
def test_enumerate_solutions_matches_brute_force_property(system):
    coeffs, rhs, R, comps = system
    want = sorted(x for x in product(*(range(c) for c in comps))
                  if all((sum(a * y for a, y in zip(row, x)) - b) % R == 0
                         for row, b in zip(coeffs, rhs)))
    assert enumerate_solutions(coeffs, rhs, R, comps) == want
    res = solve_congruence_system(coeffs, rhs, R)
    assert (res is None) == (not want)


def test_enumerate_solutions_without_equations_returns_every_vector():
    assert enumerate_solutions([], [], 6, [2, 3]) == list(
        product(range(2), range(3)))
    assert enumerate_solutions([], [], 1, []) == [()]


def test_argument_checks_raise():
    # a component modulus must divide the modulus and annihilate its column
    with pytest.raises(ValueError, match="does not divide"):
        enumerate_solutions([[1]], [0], 6, [4])
    with pytest.raises(ValueError, match="not well-defined"):
        enumerate_solutions([[1, 1]], [0], 6, [6, 3])
