"""Imaginary quadratic fields, elements, and ideal arithmetic."""

from __future__ import annotations

import random
from fractions import Fraction
from math import lcm

import pytest
import sympy
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from grossen.abelian import hnf_2x2
from grossen.classgroup import class_group
from grossen.quadfield import (FieldE, QIdeal, QuadElem, _reduce_link, fd,
                               is_fundamental, kronecker)


def test_kronecker_euler_criterion():
    # against Euler's criterion at odd primes not dividing a
    for p in sympy.primerange(3, 60):
        for a in range(-30, 31):
            if a % p == 0:
                continue
            want = 1 if pow(a % p, (p - 1) // 2, p) == 1 else -1
            assert kronecker(a, p) == want


def test_kronecker_multiplicative():
    rng = random.Random(3)
    for _ in range(200):
        a = rng.randint(-50, 50)
        m = rng.randint(1, 40)
        n = rng.randint(1, 40)
        assert kronecker(a, m * n) == kronecker(a, m) * kronecker(a, n)


def _sympy_kronecker(a: int, n: int) -> int:
    """Kronecker symbol with sympy's Jacobi symbol at the odd part of n."""
    if n == 0:
        return 1 if a in (1, -1) else 0
    sign = -1 if n < 0 and a < 0 else 1
    n = abs(n)
    twos = (n & -n).bit_length() - 1
    n >>= twos
    if twos:
        if a % 2 == 0:
            return 0
        if a % 8 in (3, 5) and twos % 2 == 1:
            sign = -sign
    if n == 1:
        return sign
    return sign * int(sympy.jacobi_symbol(a % n, n))


def test_kronecker_matches_sympy_jacobi():
    for a in range(-200, 201):
        for n in range(-200, 201):
            assert kronecker(a, n) == _sympy_kronecker(a, n), (a, n)


def test_kronecker_at_two():
    # (a/2) is 0 for even a, 1 for a = +-1 mod 8, -1 for a = +-3 mod 8
    assert kronecker(2, 2) == 0
    assert kronecker(7, 2) == 1
    assert kronecker(3, 2) == -1
    assert kronecker(-1, 2) == 1


def test_is_fundamental():
    negatives = [d for d in range(-1, -30, -1) if is_fundamental(d)]
    assert negatives == [-3, -4, -7, -8, -11, -15, -19, -20, -23, -24]
    positives = [d for d in range(2, 30) if is_fundamental(d)]
    assert positives == [5, 8, 12, 13, 17, 21, 24, 28, 29]
    assert not is_fundamental(-9)
    assert not is_fundamental(-12)


def test_fd():
    assert fd(-1) == -4
    assert fd(-2) == -8
    assert fd(-3) == -3
    assert fd(-12) == -3
    assert fd(18) == 8
    assert fd(5) == 5


def test_omega_satisfies_its_minimal_polynomial():
    for d in (-3, -4, -7, -8, -15, -20, -23, -24):
        f = FieldE(d)
        w = f.omega
        assert w * w - f.omega_trace * w + f.omega_norm == f.zero
        s = f.sqrt_disc
        assert s * s == f.element(d)


def test_element_arithmetic():
    f = FieldE(-15)
    rng = random.Random(4)
    for _ in range(50):
        a = f.element(Fraction(rng.randint(-9, 9), rng.randint(1, 5)),
                      Fraction(rng.randint(-9, 9), rng.randint(1, 5)))
        b = f.element(rng.randint(-9, 9), rng.randint(-9, 9))
        assert (a + b) - b == a
        assert a * b == b * a
        if b != f.zero:
            assert (a / b) * b == a
        assert a * a.conj() == f.element(a.norm())
        assert a + a.conj() == f.element(a.trace())
    assert f.one ** 0 == f.one
    assert (f.omega ** 3) == f.omega * f.omega * f.omega


def test_norm_trace_integrality():
    f = FieldE(-20)
    v = f.omega + 10     # sqrt(-5)
    assert v.norm() == 5
    assert v.trace() == 0
    assert v.is_integral
    assert not (v / 2).is_integral


def test_roots_of_unity():
    assert len(FieldE(-3).roots_of_unity()) == 6
    assert len(FieldE(-4).roots_of_unity()) == 4
    assert len(FieldE(-7).roots_of_unity()) == 2
    for u in FieldE(-3).roots_of_unity():
        assert u ** 6 == FieldE(-3).one
        assert u.norm() == 1


def test_principal_ideal_norm():
    f = FieldE(-23)
    rng = random.Random(5)
    for _ in range(30):
        a = f.element(rng.randint(-9, 9), rng.randint(-9, 9))
        if a == f.zero:
            continue
        assert QIdeal.from_element(a).norm() == abs(a.norm())


def test_ideal_product_norm_multiplicative():
    f = FieldE(-15)
    p3 = QIdeal.primes_over(f, 3)[0]
    p5 = QIdeal.primes_over(f, 5)[0]
    p2 = QIdeal.primes_over(f, 2)[0]
    assert (p3 * p5).norm() == 15
    assert (p2 * p2 * p3).norm() == 12
    assert (p2 * p2.conj()).norm() == 4
    # a * conj(a) = (N(a))
    assert p2 * p2.conj() == QIdeal.from_element(f.element(2))


def test_primes_over_splitting():
    f = FieldE(-15)         # chi(2) = 1 split, chi(7) = -1 inert, 3 ramified
    assert len(QIdeal.primes_over(f, 2)) == 2
    assert len(QIdeal.primes_over(f, 7)) == 1
    assert QIdeal.primes_over(f, 7)[0].norm() == 49
    ram = QIdeal.primes_over(f, 3)
    assert len(ram) == 1 and ram[0].norm() == 3
    assert ram[0] * ram[0] == QIdeal.from_element(f.element(3))


def test_factor_roundtrip():
    f = FieldE(-24)
    rng = random.Random(6)
    for _ in range(20):
        a = f.element(rng.randint(-20, 20), rng.randint(-20, 20))
        if a == f.zero:
            continue
        ideal = QIdeal.from_element(a)
        fac = ideal.factor()
        prod = QIdeal.unit_ideal(f)
        for p, e in fac.items():
            prod = prod * p ** e
        assert prod == ideal


def test_is_principal():
    f = FieldE(-15)         # class group C2
    p2 = QIdeal.primes_over(f, 2)[0]
    assert p2.is_principal() is None
    gen = (p2 * p2).is_principal()
    assert gen is not None
    assert QIdeal.from_element(gen) == p2 * p2
    # principal by construction
    a = f.element(3, 2)
    gen2 = QIdeal.from_element(a).is_principal()
    assert gen2 is not None
    assert abs(gen2.norm()) == abs(a.norm())


@pytest.mark.parametrize("disc", [-3, -4, -23, -47, -679, -5460])
def test_is_principal_on_prime_powers(disc):
    """p**n for n <= 20 over the primes below 30: a generator exactly when
    the class-group dlog vanishes, and it generates p**n."""
    field = FieldE(disc)
    cg = class_group(field)
    for p in sympy.primerange(2, 30):
        for prime in QIdeal.primes_over(field, p):
            power = QIdeal.unit_ideal(field)
            for _ in range(20):
                power = power * prime
                gen = power.is_principal()
                assert (gen is not None) == (not any(cg.dlog(power)))
                if gen is not None:
                    assert QIdeal.from_element(gen) == power


def _unfused_is_principal(ideal):
    """is_principal with the reduction loop inline, as it was before the
    loop moved into _reduce_link: the reference for that move."""
    a, b = ideal.a, ideal.b
    d, nw = ideal.field.disc, ideal.field.omega_norm
    x, y, den = 1, 0, 1
    while True:
        b -= a * ((2 * b + d + a) // (2 * a))
        c = (b * b + b * d + nw) // a
        if c >= a:
            break
        x, y, den = x * b - y * nw, x + y * (b + d), den * c
        a, b = c, -b - d
    if a != 1:
        return None
    n = {-3: 6, -4: 4}.get(d, 2)
    ux, uy = (2, 1) if n > 2 else (-1, 0)
    x, y = x // den, y // den
    best = (y, x)
    for _ in range(n - 1):
        x, y = x * ux - y * uy * nw, x * uy + y * ux + y * uy * d
        best = max(best, (y, x))
    y, x = best
    return QuadElem(ideal.field, x * ideal.scale, y * ideal.scale)


@pytest.mark.parametrize("disc", [-3, -4, -23, -47, -679, -5460])
def test_reduce_link_and_is_principal_on_prime_powers(disc):
    """p**n for n <= 20 over the primes below 30, times 1 and 3: the link
    times the end ideal J is the primitive part, the form of J is reduced,
    and is_principal is the inline loop's."""
    field = FieldE(disc)
    d, nw = disc, field.omega_norm
    for p in sympy.primerange(2, 30):
        for prime in QIdeal.primes_over(field, p):
            power = QIdeal.unit_ideal(field)
            for _ in range(20):
                power = power * prime
                for ideal in (power, power * 3):
                    a, b, x, y, den = _reduce_link(ideal.a, ideal.b, d, nw)
                    B, c = -(2 * b + d), (b * b + b * d + nw) // a
                    assert -a < B <= a <= c and (B >= 0 or a < c)
                    J = QIdeal.from_hnf(field, a, b)
                    link = QIdeal.from_element(
                        field.element(Fraction(x, den), Fraction(y, den)))
                    assert link * J == QIdeal(field, ideal.a, ideal.b, 1)
                    assert ideal.is_principal() == _unfused_is_principal(ideal)


def test_valuation_and_divides():
    f = FieldE(-4)
    p2 = QIdeal.primes_over(f, 2)[0]
    two = QIdeal.from_element(f.element(2))
    assert two.valuation(p2) == 2
    assert p2.divides(two)
    assert not two.divides(p2)
    assert (p2 ** 3).valuation(p2) == 3


def test_contains():
    f = FieldE(-7)
    p2 = QIdeal.primes_over(f, 2)[0]
    assert p2.contains(f.element(2))
    assert not p2.contains(f.one)


def test_fractional_inverse():
    f = FieldE(-20)
    p2 = QIdeal.primes_over(f, 2)[0]
    assert p2 * p2.inverse() == QIdeal.unit_ideal(f)
    assert (p2 / p2) == QIdeal.unit_ideal(f)
    assert p2 ** -2 == (p2 ** 2).inverse()


def test_from_generators():
    f = FieldE(-23)
    p2 = QIdeal.primes_over(f, 2)[0]
    a, b = p2.basis()
    assert QIdeal.from_generators(f, [a, b]) == p2
    assert QIdeal.from_generators(f, [a, b, a + b]) == p2


def test_from_hnf_rejects_non_ideal():
    f = FieldE(-7)
    with pytest.raises((AssertionError, ValueError)):
        QIdeal.from_hnf(f, 3, 1)    # 3 does not divide N(1 + w) here


# -- the principal HNF on integer rows against QuadElem products -------------

PRINCIPAL_DISCS = (-3, -4, -7, -8, -15, -20, -23, -84, -679, -5460)
BIG = 10 ** 6


def _principal_by_products(elem):
    """The earlier from_element, the oracle of the integer rows: the HNF
    of den*elem and den*elem*w formed as QuadElem products, scaled back
    by 1/den."""
    den = lcm(elem.x.denominator, elem.y.denominator)
    g = elem * den
    rows = [(int(h.x), int(h.y)) for h in (g, g * elem.field.omega)]
    a, c, d = hnf_2x2(rows)
    return QIdeal(elem.field, a // d, (c // d) % (a // d), Fraction(d, den))


@st.composite
def nonzero_elements(draw):
    field = FieldE(draw(st.sampled_from(PRINCIPAL_DISCS)))
    kind = draw(st.sampled_from(("integral", "common factor", "unit",
                                 "fractional")))
    if kind == "unit":
        return draw(st.sampled_from(field.roots_of_unity()))
    if kind == "fractional":
        x, y = (draw(st.fractions(-BIG, BIG, max_denominator=720))
                for _ in range(2))
    else:
        g = 1 if kind == "integral" else draw(st.integers(2, 999))
        x, y = (g * draw(st.integers(-BIG // g, BIG // g)) for _ in range(2))
    assume(x or y)
    return field.element(x, y)


@settings(max_examples=400, deadline=None)
@given(nonzero_elements(), st.integers(0, 5))
def test_principal_hnf_matches_the_products(elem, k):
    got, want = QIdeal.from_element(elem), _principal_by_products(elem)
    assert got == want
    assert hash(got) == hash(want) and str(got) == str(want)
    if elem.is_integral:
        assert QIdeal.from_generators(elem.field, [elem]) == want
    # an associate generates the same ideal
    units = elem.field.roots_of_unity()
    assert QIdeal.from_element(units[k % len(units)] * elem) == got


# -- the one-step principal HNF against the general HNF ----------------------

ONE_STEP_DISCS = (-3, -4, -7, -8, -15, -20, -23, -163, -5460)


@st.composite
def integral_elements(draw):
    """Integral nonzero elements, with negative coordinates, y = 0,
    common factors g > 1 and units among them."""
    field = FieldE(draw(st.sampled_from(ONE_STEP_DISCS)))
    kind = draw(st.sampled_from(("primitive", "rational", "common factor",
                                 "unit")))
    if kind == "unit":
        return draw(st.sampled_from(field.roots_of_unity()))
    g = 1 if kind == "primitive" else draw(st.integers(2, 999))
    x = draw(st.integers(-BIG, BIG))
    y = 0 if kind == "rational" else draw(st.integers(-BIG, BIG))
    assume(x or y)
    return field.element(g * x, g * y)


@settings(max_examples=500, deadline=None)
@given(integral_elements())
@example(FieldE(-4).element(-6))
@example(FieldE(-3).element(2, 1))
@example(FieldE(-163).element(-12, -18))
@example(FieldE(-5460).element(1, -1))
def test_one_step_principal_hnf_matches_the_generator_hnf(elem):
    assert QIdeal.from_element(elem) == \
        QIdeal.from_generators(elem.field, [elem])


@settings(max_examples=300, deadline=None)
@given(integral_elements(), st.integers(2, 720))
def test_fractional_principal_ideal_is_the_scaled_one(elem, den):
    # as before the one-step HNF: the generator HNF of den*elem scaled by
    # 1/den, for den the least integer making den*elem integral
    elem = elem.field.element(Fraction(elem.x, den), Fraction(elem.y, den))
    den = lcm(elem.x.denominator, elem.y.denominator)
    ide = QIdeal.from_generators(elem.field, [elem * den])
    want = QIdeal(elem.field, ide.a, ide.b, Fraction(ide.scale, den))
    assert QIdeal.from_element(elem) == want
