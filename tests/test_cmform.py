"""q-expansions of the attached newforms and the eigenform identity suite."""

from __future__ import annotations

import dataclasses
from hashlib import sha256
from math import gcd

import pytest
import sympy

from grossen import cmform
from grossen.chargroup import enumerate_eta
from grossen.cmform import (_prime_pool, coefficient_field_probe,
                            hecke_verify, ideals_of_norm_up_to, q_expansion)
from grossen.grossenchar import (IncompatibleCharacterError,
                                 NoSuchCharacterError, build, evaluate,
                                 minimal_conductor)
from grossen.numeric import embed_many
from grossen.quadfield import FieldE, QIdeal, kronecker
from grossen.valuefield import AlgebraElement


def _witness(disc, ell=1, order=None):
    field = FieldE(disc)
    m = minimal_conductor(field)
    for eta in enumerate_eta(field, m, order_equals=order):
        try:
            return build(field, m, ell, eta)
        except (IncompatibleCharacterError, NoSuchCharacterError):
            continue
    raise RuntimeError("no witness character")


@pytest.fixture(scope="module")
def form4():
    return q_expansion(_witness(-4), 400)


@pytest.fixture(scope="module")
def form15():
    return q_expansion(_witness(-15, order=2), 400)


def test_ideal_counts_match_character_sum():
    # the number of integral ideals of norm n is sum_{d | n} chi(d)
    for disc in (-4, -15, -23):
        field = FieldE(disc)
        counts = {}
        for norm, _ in ideals_of_norm_up_to(field, 150):
            counts[norm] = counts.get(norm, 0) + 1
        for n in range(1, 151):
            want = sum(kronecker(disc, d) for d in range(1, n + 1) if n % d == 0)
            assert counts.get(n, 0) == want


def test_ideal_walk_order_is_pinned():
    # the order among ideals of equal norm is the order in which the
    # order-4 searches meet the moduli; the digest pins the whole sequence
    h = sha256()
    for disc in (-3, -4, -7, -8, -15, -20, -23, -24, -84, -163, -232, -5460):
        field = FieldE(disc)
        for B in (1, 2, 9, 50, 400, 2000):
            h.update(repr([(n, I.a, I.b, I.scale) for n, I
                           in ideals_of_norm_up_to(field, B)]).encode())
    assert h.hexdigest()[:16] == "f3651d74d56c95d9"


def test_known_rational_form(form4):
    # weight-2 level-32 rational eigenform values
    alg = form4.psi.algebra
    assert form4.level == 32
    assert form4.weight == 2
    assert form4.coeffs[1] == alg.one
    assert form4.coeffs[2].is_zero and form4.coeffs[3].is_zero
    assert form4.coeffs[5] == alg.scalar(-2)
    assert form4.coeffs[9] == alg.scalar(-3)
    assert form4.coeffs[13] == alg.scalar(6)
    assert form4.coeffs[25] == alg.scalar(-1)
    assert form4.coeffs[45] == alg.scalar(6)     # a5 * a9
    assert form4.coeffs[49] == alg.scalar(-7)


def test_inert_primes_vanish(form15):
    field = form15.psi.field
    import sympy
    for p in sympy.primerange(2, 400):
        if field.chi(p) == -1:
            assert form15.coeffs[p].is_zero


def test_hecke_verify_passes(form4, form15):
    for f in (form4, form15):
        res = hecke_verify(f)
        assert res["ok"], res["failures"][:5]
        assert res["reality"] and res["ramanujan"]
        assert res["max_imag"] < 1e-9
        assert res["checks"] > 100


def test_hecke_verify_detects_corruption(form4):
    alg = form4.psi.algebra
    coeffs = list(form4.coeffs)
    coeffs[5] = coeffs[5] + alg.one          # break a5
    broken = dataclasses.replace(form4, coeffs=tuple(coeffs))
    res = hecke_verify(broken)
    assert not res["ok"]
    kinds = {f[0] for f in res["failures"]}
    assert "mult" in kinds or "recursion" in kinds


def test_coefficient_field_probe(form4, form15):
    deg, real = coefficient_field_probe(form4)
    assert (deg, real) == (1, True)
    deg15, real15 = coefficient_field_probe(form15)
    assert (deg15, real15) == (2, True)


def test_coefficient_field_probe_sees_a_planted_degree(form4, form15):
    """The first probed a_p replaced by an element of another degree:
    w (degree 2) in the rational form, w + b (degree 4) in the quadratic
    one.  Neither is real, and the mirror follows the planted
    coefficients, so the reality flag drops."""
    for f, want in ((form4, 2), (form15, 4)):
        alg = f.psi.algebra
        p = next(p for p in sympy.primerange(2, f.bound) if f.level % p
                 and f.psi.field.chi(p) == 1 and not f.coeffs[p].is_zero)
        w = alg.monomial(1, 0)
        planted = w if not alg.ns else w + alg.beta(0)
        assert planted.degree() == want
        coeffs = list(f.coeffs)
        coeffs[p] = planted
        broken = dataclasses.replace(f, coeffs=tuple(coeffs))
        assert coefficient_field_probe(broken) == (want, False)


# -- the integer walk against the sum of evaluate over ideals ----------------

@pytest.mark.parametrize("disc, order, dim, den", [
    (-4, None, 2, 1),       # rational values
    (-15, 2, 4, 2),         # order 2, a quadratic radical
    (-23, 2, 6, 4),         # a cubic radical: dimension 6
    (-20, 4, 4, 2),         # r = 4 without radicals, values over 2
])
def test_q_expansion_matches_sum_over_ideals(disc, order, dim, den):
    B = 300
    psi = _witness(disc, order=order)
    alg = psi.algebra
    assert alg.dim == dim
    # the largest denominator of a prime value, so that the walk's
    # denominators are exercised where the row says so
    assert max(evaluate(psi, P).den
               for _, P in _prime_pool(psi.field, B)) == den
    want = [alg.zero] * (B + 1)
    for norm, ideal in ideals_of_norm_up_to(psi.field, B):
        want[norm] = want[norm] + evaluate(psi, ideal)
    f = q_expansion(psi, B)
    assert f.coeffs == tuple(want)
    assert all(c.den > 0 and (c.den == 1 or gcd(c.den, *c.nums) == 1)
               for c in f.coeffs)
    assert f.complex_coeffs == tuple(embed_many(alg, f.coeffs))


def test_q_expansion_leaves_the_mirror_to_its_first_read(monkeypatch):
    psi = _witness(-15, order=2)
    want = q_expansion(psi, 100)

    def refuse(alg, xs):
        raise RuntimeError("q_expansion embedded its coefficients")

    monkeypatch.setattr(cmform, "embed_many", refuse)
    f = q_expansion(psi, 100)
    assert f.coeffs == want.coeffs
    monkeypatch.undo()
    assert f.complex_coeffs == want.complex_coeffs


def test_a_replaced_form_mirrors_its_own_coefficients(form15):
    alg = form15.psi.algebra
    mirror = form15.complex_coeffs          # read, so it is kept
    coeffs = list(form15.coeffs)
    coeffs[2] = alg.monomial(1, 0)          # w, not real
    other = dataclasses.replace(form15, coeffs=tuple(coeffs))
    assert other.complex_coeffs == tuple(embed_many(alg, coeffs))
    assert other.complex_coeffs[2] != mirror[2]
    assert other.complex_coeffs[3:] == mirror[3:]


@pytest.mark.parametrize("bound", [0, -1])
def test_q_expansion_rejects_nonpositive_bound(bound):
    with pytest.raises(ValueError, match="norm bound must be positive"):
        q_expansion(_witness(-4), bound)


@pytest.mark.parametrize("disc", [-3, -4, -7, -8, -15, -20, -23, -84, -5460])
@pytest.mark.parametrize("bound", [1, 2, 4, 9, 50, 400])
def test_prime_pool_matches_primerange(disc, bound):
    field = FieldE(disc)
    want = tuple((q, P) for p in sympy.primerange(2, bound + 1)
                 for P in QIdeal.primes_over(field, p)
                 if (q := int(P.norm())) <= bound)
    assert _prime_pool(field, bound) == want


# -- faults the integer hecke_verify must report ------------------------------

def _with(f, n, c):
    """f with a_n replaced by c."""
    coeffs = list(f.coeffs)
    coeffs[n] = c
    return dataclasses.replace(f, coeffs=tuple(coeffs))


def test_hecke_verify_doubled_coprime_product(form4):
    # a_65 = a_5 a_13 is the only coprime product check that reads a_65
    broken = _with(form4, 65, form4.coeffs[65] * 2)
    assert hecke_verify(broken)["failures"] == [("mult", 5, 13)]


def test_hecke_verify_broken_prime_square(form4):
    # 17 splits in Q(i); 289 > 400 / 2 enters no coprime product check
    alg = form4.psi.algebra
    broken = _with(form4, 289, form4.coeffs[289] + alg.one)
    assert hecke_verify(broken)["failures"] == [("recursion", 17, 1)]


def test_hecke_verify_nonzero_inert_prime(form4):
    # 211 is inert in Q(i) and too large for products or recursions
    assert form4.psi.field.chi(211) == -1
    broken = _with(form4, 211, form4.psi.algebra.one)
    assert hecke_verify(broken)["failures"] == [("inert", 211)]


@pytest.mark.parametrize("fixture, n, pair", [
    ("form4", 65, (5, 13)),
    ("form15", 98, (2, 49)),    # a_98 has denominator 2
])
def test_hecke_verify_catches_a_changed_denominator(fixture, n, pair, request):
    f = request.getfixturevalue(fixture)
    c = f.coeffs[n]
    assert not c.is_zero
    broken = _with(f, n, AlgebraElement(c.algebra, c.nums, 3 * c.den))
    assert hecke_verify(broken)["failures"] == [("mult", *pair)]

