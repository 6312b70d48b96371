"""Integer linear algebra and abelian-group decomposition."""

from __future__ import annotations

import random

import pytest

from grossen.abelian import (CyclicDecomposition, decompose_from_generators,
                             enumerate_solutions, hnf_2x2, identity_matrix,
                             mat_mul, smith_normal_form,
                             solve_congruence_system, unimodular_inverse,
                             xgcd)


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
    rng = random.Random(2)
    for _ in range(30):
        n = rng.randint(1, 4)
        m = rng.randint(1, 4)
        a = [[rng.randint(-9, 9) for _ in range(m)] for _ in range(n)]
        u, d, v = smith_normal_form(a)
        assert mat_mul(mat_mul(u, a), v) == d
        diag = [d[i][i] for i in range(min(n, m))]
        for i in range(n):
            for j in range(m):
                if i != j:
                    assert d[i][j] == 0
        for x, y in zip(diag, diag[1:]):
            assert x >= 0 and y >= 0
            if x:
                assert y % x == 0
        # U and V unimodular: integer inverses exist
        assert mat_mul(u, unimodular_inverse(u)) == identity_matrix(n)
        assert mat_mul(v, unimodular_inverse(v)) == identity_matrix(m)


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


def test_decompose_mod_n_units():
    # (Z/36)^x is C6 x C2; recover it from redundant generators
    def mul(x, y):
        return (x * y) % 36

    gens = [a for a in range(1, 36) if a % 2 and a % 3]
    dec = decompose_from_generators(1, gens, mul)
    assert isinstance(dec, CyclicDecomposition)
    assert dec.order == 12
    assert sorted(dec.orders) in ([2, 6], [6, 2], [12]) or dec.orders == [6, 2]
    # dlog inverts the exponent map on every element
    for el in dec.elements():
        vec = dec.dlog(el)
        acc = 1
        for g, e in zip(dec.generators, vec):
            acc = (acc * pow(g, e, 36)) % 36
        assert acc == el


def test_decompose_trivial_group():
    dec = decompose_from_generators(1, [], lambda x, y: (x * y) % 5)
    assert dec.order == 1
    assert dec.dlog(1) == ()


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


def test_argument_checks_raise():
    with pytest.raises(ValueError, match="singular"):
        unimodular_inverse([[1, 2], [2, 4]])
    with pytest.raises(ValueError, match="not unimodular"):
        unimodular_inverse([[2, 0], [0, 1]])
    # a component modulus must divide the modulus and annihilate its column
    with pytest.raises(ValueError, match="does not divide"):
        enumerate_solutions([[1]], [0], 6, [4])
    with pytest.raises(ValueError, match="not well-defined"):
        enumerate_solutions([[1, 1]], [0], 6, [6, 3])
