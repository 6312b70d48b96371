"""The integer number theory of the package against sympy as the oracle:
factorization, primality, next prime, smallest primitive roots,
cyclotomic polynomials, integer cube roots, the cube test, the real
cyclotomic cubics and exact cubic field discriminants."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st
from sympy.polys.numberfields.basis import round_two

from grossen.quadfield import (_MR_BOUND, FieldE, _factorint, _is_prime,
                               _next_prime, _primes_up_to)
from grossen.resunits import _primitive_root
from grossen.valuefield import (_cyclotomic_coeffs, _from_sqrt_basis, _icbrt,
                                _rat_sqrt, _real_cyclotomic_cubic,
                                cubic_field_disc, dedekind_maximal, is_cube)

# the largest integer the five tables, `units` and `verify all` factor
LARGEST_FACTORED = 651127351875


def test_factorint_and_is_prime_up_to_1e5():
    primes = set(_primes_up_to(10 ** 5))
    assert primes == set(sympy.primerange(2, 10 ** 5 + 1))
    for n in range(1, 10 ** 5 + 1):
        assert _factorint(n) == sympy.factorint(n), n
        assert _is_prime(n) == (n in primes), n


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 10 ** 13 - 1))
@example(LARGEST_FACTORED)
@example(999983 * 1000003)              # two primes above the trial bound
@example(1031 ** 2 * 1033)              # a square of a prime above it
@example(1000003 ** 2)
@example(2 ** 43 - 1)
def test_factorint_matches_sympy(n):
    got = _factorint(n)
    assert got == sympy.factorint(n)
    assert list(got) == sorted(got)     # ascending, as callers iterate
    assert _is_prime(n) == sympy.isprime(n)


@pytest.mark.parametrize("n", [
    3215031751,                         # strong pseudoprime to 2, 3, 5, 7
    3825123056546413051,                # ... to every prime base up to 23
    318665857834031151167461,           # ... to the first 12 prime bases
    1000003 ** 3, 2 ** 61 - 1, 10 ** 24 + 7,
])
def test_is_prime_large(n):
    assert _is_prime(n) == sympy.isprime(n)
    assert _factorint(n) == sympy.factorint(n)


def test_size_limit_is_a_value_error():
    # the deterministic Miller-Rabin bound of the first 13 prime bases
    assert _MR_BOUND == 3317044064679887385961981
    assert _is_prime(_MR_BOUND - 2) == sympy.isprime(_MR_BOUND - 2)
    for n in (_MR_BOUND, _MR_BOUND + 1, 10 ** 40):
        with pytest.raises(ValueError, match="not below"):
            _factorint(n)
        with pytest.raises(ValueError, match="not below"):
            _is_prime(n)
    with pytest.raises(ValueError):
        _factorint(0)


@settings(max_examples=200, deadline=None)
@given(st.integers(-5, 10 ** 15))
@example(2)
@example(3)
@example(1021)                          # the last trial-division prime
def test_next_prime_matches_sympy(n):
    assert _next_prime(n) == sympy.nextprime(n)


def test_next_prime_walk():
    p, got = 1, []
    while p < 20000:
        p = _next_prime(p)
        got.append(p)
    assert got == list(sympy.primerange(2, got[-1] + 1))


def test_smallest_primitive_root_of_odd_prime_powers():
    for p in sympy.primerange(3, 10 ** 4):
        pe = p
        while pe < 10 ** 4:
            assert _primitive_root(pe) == sympy.primitive_root(pe), pe
            pe *= p


def test_cyclotomic_coeffs_match_sympy():
    x = sympy.Symbol("x")
    for r in range(1, 101):
        poly = sympy.Poly(sympy.cyclotomic_poly(r, x), x)
        want = tuple(int(c) for c in reversed(poly.all_coeffs()))
        assert _cyclotomic_coeffs(r) == want, r


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 10 ** 40))
@example(0)
@example(1)
@example(7)
@example(8)
@example(10 ** 39)
@example(10 ** 39 - 1)
@example((10 ** 13 + 1) ** 3)
@example((10 ** 13 + 1) ** 3 - 1)
def test_icbrt_matches_sympy(n):
    assert _icbrt(n) == sympy.integer_nthroot(n, 3)[0]


def _sympy_is_cube(field, gamma):
    """The cube test as it was written on sympy: integer_nthroot of the
    norm and the rational roots of s**3 - 3cs - Tr(gamma)."""
    if gamma == field.zero:
        return True
    norm = Fraction(gamma.norm())
    cn, exact_n = sympy.integer_nthroot(norm.numerator, 3)
    cd, exact_d = sympy.integer_nthroot(norm.denominator, 3)
    if not (exact_n and exact_d):
        return False
    c = Fraction(int(cn), int(cd))
    cubic = sympy.Poly([1, 0, -3 * c, -gamma.trace()], sympy.Symbol("s"),
                       domain=sympy.QQ)
    for root in cubic.ground_roots():
        s = Fraction(int(root.p), int(root.q))
        v = _rat_sqrt((s * s - 4 * c) / (4 * field.disc))
        if v is None:
            continue
        for cand in (_from_sqrt_basis(field, s / 2, v),
                     _from_sqrt_basis(field, s / 2, -v)):
            if cand * cand * cand == gamma:
                return True
    return False


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([-3, -4, -7, -23, -31, -59, -83, -107, -883]),
       st.integers(-40, 40), st.integers(-40, 40), st.integers(1, 12),
       st.sampled_from([1, 2, 3]), st.integers(-3, 3))
def test_is_cube_matches_the_sympy_path(d, x, y, den, power, t):
    field = FieldE(d)
    base = field.element(Fraction(x, den), Fraction(y, den))
    gamma = base ** power
    if t:                               # not a cube times a cube
        gamma = gamma * field.element(t, 1)
    assert is_cube(field, gamma) == _sympy_is_cube(field, gamma)
    if base != field.zero:
        assert is_cube(field, base ** 3)


def test_real_cyclotomic_cubic_matches_minimal_polynomial():
    x = sympy.Symbol("x")
    for r in (7, 9, 14, 18):
        mp = sympy.minimal_polynomial(2 * sympy.cos(2 * sympy.pi / r), x)
        want = tuple(int(c) for c in sympy.Poly(mp, x).all_coeffs())
        K = _real_cyclotomic_cubic(r)
        assert K.poly == want
        assert K.disc == int(round_two(sympy.Poly(mp, x))[1])


def _round_two_disc(coeffs):
    x = sympy.Symbol("x")
    return int(round_two(sympy.Poly(list(coeffs), x))[1])


def _irreducible(coeffs):
    return sympy.Poly(list(coeffs), sympy.Symbol("x")).is_irreducible


def test_cubic_field_disc_counterexamples_of_one_strip_per_prime():
    # p^2 divides the index of Z[x]/(f): one p^2 per prime is not enough
    assert cubic_field_disc((1, 0, -63, -18)) == 6885
    assert cubic_field_disc((1, 0, -84, -48)) == 36072
    for coeffs in ((1, 0, -63, -18), (1, 0, -84, -48)):
        assert _round_two_disc(coeffs) == cubic_field_disc(coeffs)


def test_cubic_field_disc_matches_round_two():
    """2000 random irreducible totally real cubics: half from the family
    x^3 - 3cx - q that rationality_field builds, half general, with
    coefficients drawn so that squares often divide the discriminant."""
    rng = random.Random(20240917)
    done = 0
    while done < 2000:
        if done % 2:
            coeffs = (1, 0, -3 * rng.randrange(1, 200),
                      -rng.randrange(1, 400))
        else:
            k = rng.choice([1, 2, 3, 4, 6, 9])
            coeffs = (1, k * rng.randrange(-20, 21), k * rng.randrange(-60, 1),
                      k * rng.randrange(-60, 61))
        disc = int(sympy.discriminant(sympy.Poly(list(coeffs),
                                                  sympy.Symbol("x"))))
        if disc <= 0 or not _irreducible(coeffs):
            continue
        got = cubic_field_disc(coeffs)
        assert got == _round_two_disc(coeffs), coeffs
        # Z[x]/(f) is maximal at 2 iff its index, sqrt(disc / got), is odd
        assert dedekind_maximal(coeffs, 2) == (disc // got % 4 != 0)
        done += 1
