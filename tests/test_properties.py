"""Property tests for the integer ideal arithmetic and factorization, the
structure-constant value-algebra product, the cached-power embedding,
evaluation, the norm-only ideal enumerator, the discrete-log engine and the
reduced character solve, each against the plain path it replaces."""

from __future__ import annotations

import dataclasses
import os
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import gcd, isqrt, lcm
from unittest import mock

import mpmath
import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath.libmp import (from_int, mpc_add, mpc_mul, mpc_mul_mpf, mpc_zero,
                          mpf_div, mpf_pos, round_nearest)

from grossen.chargroup import (GroupChar, _angle_at, _angle_weights,
                               enumerate_eta, solve_character_conditions)
from grossen.classgroup import _composer, class_group
from grossen.cmform import hecke_verify, ideals_of_norm_up_to, q_expansion
from grossen.grossenchar import (IncompatibleCharacterError,
                                 NoSuchCharacterError, _class_reduction,
                                 _rational_value, _shares_prime, build,
                                 evaluate, minimal_conductor)
from grossen.quadfield import (FieldE, QIdeal, _class_key, _hnf_product,
                               _sqrt_mod_prime, kronecker)
from grossen.resunits import (DlogEngine, IntUnitGroup, ResidueRing,
                              _IntegersMod, _unit_count, unit_count,
                              units_structure)
from grossen.numeric import _factors, embed_many, precision_bits

from test_valuefield import _FractionNormalForm

# class groups: trivial, C2, C3, C4, C6, C2^2, C2^3, C2^4
DISCS = (-3, -4, -7, -8, -15, -20, -23, -24, -39, -56, -84, -87, -104, -420,
         -5460)

FIELDS = st.sampled_from(DISCS).map(FieldE)


@st.composite
def fields_and_ideals(draw, count):
    """A field and `count` integral ideals of it: each generated by one or
    two small elements, times a small integer scale."""
    field = draw(FIELDS)
    pairs = st.tuples(st.integers(-12, 12), st.integers(-12, 12)).filter(any)
    ideals = []
    for _ in range(count):
        elems = draw(st.lists(pairs, min_size=1, max_size=2))
        ideal = QIdeal.from_generators(
            field, [field.element(x, y) for x, y in elems])
        ideals.append(ideal * draw(st.integers(1, 3)))
    return field, ideals


def _generator_product(i: QIdeal, j: QIdeal) -> QIdeal:
    """The product as the ideal generated by the four basis products."""
    return QIdeal.from_generators(
        i.field, [x * y for x in i.basis() for y in j.basis()])


@settings(max_examples=300, deadline=None)
@given(fields_and_ideals(3))
def test_ideal_product_matches_generator_hnf(data):
    field, (i, j, k) = data
    ij = i * j
    assert ij == _generator_product(i, j)
    assert ij == j * i
    assert ij * k == i * (j * k)
    assert ij.norm() == i.norm() * j.norm()
    # class composition shares the integer product
    d, nw = field.disc, field.omega_norm
    key_i, key_j = _class_key(i.a, i.b, d, nw), _class_key(j.a, j.b, d, nw)
    assert _composer(d)(key_i, key_j) == _class_key(ij.a, ij.b, d, nw)


def _textbook_reduce(a: int, B: int, c: int) -> tuple[int, int, int]:
    """The reduced form equivalent to the positive definite form
    (a, B, c): swap while a > c, translate B into (-a, a], then make B
    nonnegative when B = -a or a = c (H. Cohen, GTM 138, Alg. 5.4.2)."""
    while True:
        if a > c:
            a, B, c = c, -B, a
            continue
        if B > a or B <= -a:
            r = B % (2 * a)
            if r > a:
                r -= 2 * a
            c = c + (r * r - B * B) // (4 * a)
            B = r
            continue
        break
    if B == -a or (a == c and B < 0):
        B = -B
    return a, B, c


def _forms():
    """Primitive positive definite forms (a, B, c), among them the
    boundary cases a = c and |B| = a."""
    small = st.integers(1, 60)
    general = st.tuples(small, st.integers(-120, 120), small)
    a_eq_c = st.tuples(small, st.integers(-120, 120)).map(
        lambda t: (t[0], t[1], t[0]))
    b_eq_a = st.tuples(small, st.sampled_from((1, -1)), small).map(
        lambda t: (t[0], t[1] * t[0], t[2]))
    return st.one_of(general, a_eq_c, b_eq_a).filter(
        lambda f: f[1] * f[1] < 4 * f[0] * f[2]
        and gcd(gcd(f[0], f[1]), f[2]) == 1)


@settings(max_examples=500, deadline=None)
@given(_forms(), st.integers(-3, 3))
@example((2, -1, 2), 0)
@example((3, -3, 5), 1)
@example((1, 1, 1), 0)
def test_class_key_is_the_textbook_reduction(form, shift):
    # the ideal Z*a + Z*(b + w) of (a, B, c), B = -(2b + d), with b moved
    # by shift*a: its key is the ideal of the textbook reduced form
    a, B, c = form
    d = B * B - 4 * a * c
    nw = (d * d - d) // 4
    b = (-B - d) // 2 + shift * a
    ra, rB, _ = _textbook_reduce(a, B, c)
    assert _class_key(a, b, d, nw) == (ra, (-rB - d) // 2 % ra)


SCALES = st.sampled_from((1, 2, 3, 12, Fraction(6, 2), Fraction(1, 2),
                          Fraction(2, 3), Fraction(5, 4)))


def _same(x, y) -> bool:
    return x == y and hash(x) == hash(y) and str(x) == str(y)


@settings(max_examples=300, deadline=None)
@given(fields_and_ideals(2), st.lists(SCALES, min_size=3, max_size=3))
def test_integral_scales_match_fraction_formulas(data, scales):
    # each ideal once with an int or Fraction scale of the same value
    field, ideals = data
    s1, s2, q = scales
    i = QIdeal(field, ideals[0].a, ideals[0].b, Fraction(ideals[0].scale) * s1)
    j = ideals[1] * s2
    for x in (i, j):
        # the constructor itself makes an integral Fraction scale an int
        assert (type(x.scale) is int) == (Fraction(x.scale).denominator == 1)
        assert _same(x.norm(), Fraction(x.scale) ** 2 * x.a)
        c = x.conj()
        assert _same(x.inverse(), QIdeal(field, c.a, c.b,
                                          Fraction(c.scale) / x.norm()))
        assert _same(x * q, QIdeal(field, x.a, x.b, Fraction(x.scale) * q))
        gen = x.is_principal()
        prim = QIdeal(field, x.a, x.b, Fraction(1)).is_principal()
        assert (gen is None) == (prim is None)
        if gen is not None:
            assert _same(gen, prim * Fraction(x.scale))
    a, b, e = _hnf_product(i.a, i.b, j.a, j.b, field.disc)
    want = QIdeal(field, a, b, Fraction(i.scale) * Fraction(j.scale) * e)
    for ij in (i * j, j * i):
        assert _same(ij, want) and _same(ij.norm(), want.norm())
        # the scale is an int exactly where it is integral
        assert (type(ij.scale) is int) == (want.scale.denominator == 1)


def _fraction_is_principal(ideal: QIdeal):
    """Generator search on Fraction elements with QIdeal.contains, keeping
    the candidate of largest (y, x)."""
    field, a = ideal.field, ideal.a
    dd = -field.disc
    prim = QIdeal(field, ideal.a, ideal.b, Fraction(1))
    cands = []
    ymax = isqrt(4 * a // dd)
    for y in range(-ymax, ymax + 1):
        rest = 4 * a - dd * y * y
        u = isqrt(rest)
        if u * u != rest:
            continue
        for uu in ({u, -u} if u else {0}):
            if (uu - y * field.disc) % 2:
                continue
            cand = field.element((uu - y * field.disc) // 2, y)
            if cand.norm() == a and prim.contains(cand):
                cands.append(cand)
    if not cands:
        return None
    return max(cands, key=lambda e: (e.y, e.x)) * ideal.scale


@settings(max_examples=300, deadline=None)
@given(fields_and_ideals(1), st.sampled_from((1, 2, Fraction(1, 3))))
def test_is_principal_matches_fraction_path(data, scale):
    field, (ideal,) = data
    ideal = ideal * scale
    gen = ideal.is_principal()
    assert gen == _fraction_is_principal(ideal)
    assert (gen is None) == any(class_group(field).dlog(ideal))
    if gen is not None:
        assert QIdeal.from_element(gen) == ideal


# -- factorization ---------------------------------------------------------

SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23)

ODD_PRIMES = tuple(sympy.primerange(3, 10 ** 4))


@settings(max_examples=400, deadline=None)
@given(st.one_of(st.sampled_from(ODD_PRIMES),
                 st.sampled_from([q for q in ODD_PRIMES if q % 8 == 1])),
       st.integers(-10 ** 6, 10 ** 6),
       st.sampled_from(("any", "multiple", "square")))
@example(17, 3, "square")   # p = 1 mod 8: more than one Tonelli-Shanks round
@example(7, -2, "multiple")
@example(9857, 5, "any")
def test_sqrt_mod_prime_matches_sympy(p, x, kind):
    """The Tonelli-Shanks root with its negative gives all the roots of
    sqrt_mod, for odd p < 10**4, p = 1 mod 8 and p | a included."""
    a = {"any": x, "multiple": x * p, "square": x * x}[kind]
    s = _sqrt_mod_prime(a, p)
    want = sympy.sqrt_mod(a, p, all_roots=True)
    assert ([] if s is None else sorted({s, (p - s) % p})) == want


def _division_valuation(ideal: QIdeal, prime: QIdeal) -> int:
    """v_prime by dividing out prime until the quotient is not integral."""
    if not ideal.is_integral:
        d = ideal.scale.denominator
        return (_division_valuation(ideal * d, prime)
                - _division_valuation(QIdeal.unit_ideal(ideal.field) * d,
                                      prime))
    v = 0
    while (ideal / prime).is_integral:
        ideal = ideal / prime
        v += 1
    return v


def _division_factor(ideal: QIdeal) -> dict[QIdeal, int]:
    """Every prime over a prime factor of s.numerator * s.denominator * a,
    with its valuation by division: these are all the candidates, unlike
    the factors of the norm, where the exponents of two primes over one
    rational prime can cancel."""
    s = ideal.scale
    out = {}
    for p in sympy.factorint(s.numerator * s.denominator * ideal.a):
        for pr in QIdeal.primes_over(ideal.field, p):
            v = _division_valuation(ideal, pr)
            if v:
                out[pr] = v
    return out


@st.composite
def prime_power_products(draw):
    """A field and a product of split, inert and ramified prime powers,
    times an integer or a unit fraction."""
    field = draw(FIELDS)
    m = QIdeal.unit_ideal(field)
    for p in draw(st.lists(st.sampled_from(SMALL_PRIMES), max_size=4)):
        prime = draw(st.sampled_from(QIdeal.primes_over(field, p)))
        m = m * prime ** draw(st.integers(1, 4))
    scale = draw(st.sampled_from((1, 2, 3, 4, 6, 12, 25, Fraction(1, 2),
                                  Fraction(1, 3), Fraction(1, 10))))
    return field, m * scale


# (2/3) * (Z9 + Zw) = P2^2 * (3, w) / (3, 2 + w) over D = -8: its norm 4
# hides both primes over 3
_CANCELLING_NORM = (FieldE(-8), QIdeal(FieldE(-8), 9, 0, Fraction(2, 3)))


@settings(max_examples=300, deadline=None)
@given(prime_power_products(), st.sampled_from(SMALL_PRIMES))
@example(_CANCELLING_NORM, 3)
def test_factor_matches_division(fm, p):
    field, m = fm
    fac = m.factor()
    assert fac == _division_factor(m)
    for prime in QIdeal.primes_over(field, p):
        assert m.valuation(prime) == _division_valuation(m, prime)
    back = QIdeal.unit_ideal(field)
    for prime, e in fac.items():
        back = back * prime ** e
    assert back == m
    if m.is_integral:
        assert unit_count(m) == _unit_count(_division_factor(m).items())


def test_valuation_rejects_a_non_prime():
    field = FieldE(-20)
    m = QIdeal.primes_over(field, 3)[0] ** 2
    for not_prime in (QIdeal.unit_ideal(field), m,
                      QIdeal.unit_ideal(field) * 3,     # 3 splits in E
                      QIdeal.unit_ideal(field) * Fraction(1, 7)):
        try:
            m.valuation(not_prime)
        except ValueError:
            continue
        raise AssertionError(f"valuation at {not_prime!r} did not raise")


# (disc, prime whose first ideal enlarges the minimal conductor, its
# exponent, ell, order of eta) -> algebra made by build:
CHARACTERS = (
    (-15, None, 0, 1, 2),    # r = 2, radical of order 2
    (-23, None, 0, 1, 2),    # r = 2, radical of order 3
    (-39, None, 0, 1, 2),    # r = 2, radical of order 4
    (-24, None, 0, 1, 4),    # r = 4, radical of order 2
    (-4, 7, 1, 1, 8),        # over E: Q(zeta_8)
    (-3, 5, 2, 1, 30),       # over E: Q(zeta_30)
    (-20, 5, 1, 1, 20),      # over E: Q(zeta_20), radical of order 2
)


@lru_cache(maxsize=None)
def _character(disc, p, k, ell, order):
    field = FieldE(disc)
    m = minimal_conductor(field)
    if p is not None:
        m = m * QIdeal.primes_over(field, p)[0] ** k
    for eta in enumerate_eta(field, m, order_equals=order):
        try:
            return build(field, m, ell, eta)
        except (IncompatibleCharacterError, NoSuchCharacterError):
            continue
    raise LookupError("no character")


def test_character_algebras_cover_radicals_and_over_field():
    kinds = {(a.over_field, bool(a.ns))
             for a in (_character(*spec).algebra for spec in CHARACTERS)}
    assert kinds == {(False, True), (True, False), (True, True)}


@st.composite
def algebra_elements(draw, alg):
    """Random rational combinations of the algebra's normal-form basis."""
    basis = [(a, b, cs) for a in range(2) for b in range(alg.phi)
             for cs in product(*(range(n) for n in alg.ns))]
    terms = draw(st.lists(st.tuples(st.sampled_from(basis),
                                    st.integers(-9, 9), st.integers(1, 4)),
                          max_size=6))
    acc: dict = {}
    for key, num, den in terms:
        acc[key] = acc.get(key, 0) + Fraction(num, den)
    return alg._wrap(acc)


def _plain_product(x, y):
    """The sorted rational coordinates of x * y, reducing every monomial pair
    through the independent Fraction normal form of test_valuefield."""
    oracle = _FractionNormalForm(x.algebra)
    acc: dict = {}
    for k1, c1 in x.coords:
        for k2, c2 in y.coords:
            key = (k1[0] + k2[0], k1[1] + k2[1],
                   tuple(a + b for a, b in zip(k1[2], k2[2])))
            oracle.reduce_into(acc, key, c1 * c2)
    return tuple(sorted((k, c) for k, c in acc.items() if c))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_memoized_algebra_product(data):
    """The structure-constant product against the Fraction reduction, and
    associativity and commutativity."""
    alg = _character(*data.draw(st.sampled_from(CHARACTERS))).algebra
    x, y, z = (data.draw(algebra_elements(alg)) for _ in range(3))
    xy = x * y
    assert xy.coords == _plain_product(x, y)
    assert xy * z == x * (y * z)
    assert (xy * z).coords == (x * (y * z)).coords
    assert xy == y * x and hash(xy) == hash(y * x)
    assert x * (y + z) == xy + x * z
    assert (x - y) + y == x


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_degree_is_the_rank_of_the_powers(data):
    """x.degree() against the sympy rank of the coordinates of 1, x, ...,
    x**dim, which span Q[x]; zero and scalars included."""
    alg = _character(*data.draw(st.sampled_from(CHARACTERS))).algebra
    x = data.draw(st.one_of(
        algebra_elements(alg), st.just(alg.zero),
        st.fractions(max_denominator=5).map(alg.scalar)))
    rows = [[Fraction(n, p.den) for n in p.nums]
            for p in (x ** k for k in range(alg.dim + 1))]
    assert x.degree() == sympy.Matrix(rows).rank()


def _images(alg):
    """w, z and each b_i at the distinguished embedding, at the working
    precision: (d + i sqrt|d|)/2, exp(2 pi i / r) and the principal n_i-th
    root of the radicand there."""
    with mpmath.workprec(precision_bits()):
        d = alg.field.disc
        w = (d + mpmath.mpc(0, 1) * mpmath.sqrt(abs(d))) / 2
        z = mpmath.exp(2j * mpmath.pi / alg.r)
        emb = {"w": w, "z": z}
        for i, n in enumerate(alg.ns):
            val = mpmath.mpc(0)
            for (a, b, _), c in alg.radicands[i].items():
                val += mpmath.mpf(c) * w ** a * z ** b
            emb[f"b{i}"] = (mpmath.power(val, mpmath.mpf(1) / n)
                            if val != 0 else mpmath.mpc(0))
        return emb


def _per_term_embedding(x, emb):
    """The value at emb as a sum over the sorted coordinates, every power
    recomputed per term."""
    with mpmath.workprec(precision_bits()):
        total = mpmath.mpc(0)
        for (a, b, cs), c in x.coords:
            term = mpmath.mpf(c.numerator) / c.denominator
            term = term * emb["w"] ** a * emb["z"] ** b
            for i, e in enumerate(cs):
                if e:
                    term = term * emb[f"b{i}"] ** e
            total += term
        return total


def _mpc_add_embedding(alg, xs):
    """embed_many's sums as one mpc_add chain per element from mpc_zero,
    each zero element a fresh mpc, as before the sums were split into
    their real and imaginary mpf_add chains."""
    prec, rnd = precision_bits(), round_nearest
    factors = _factors(alg, prec)
    out = []
    for x in xs:
        total = mpc_zero
        for i, n in enumerate(x.nums):
            if n:
                g = gcd(n, x.den)
                first, rest = factors[i]
                term = mpc_mul_mpf(
                    first, mpf_div(mpf_pos(from_int(n // g), prec, rnd),
                                   from_int(x.den // g), prec, rnd),
                    prec, rnd)
                for f in rest:
                    term = mpc_mul(term, f, prec, rnd)
                total = mpc_add(total, term, prec, rnd)
        out.append(mpmath.mp.make_mpc(total))
    return out


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_embedding_matches_per_term_sum(data):
    alg = _character(*data.draw(st.sampled_from(CHARACTERS))).algebra
    xs = [data.draw(algebra_elements(alg)) for _ in range(3)]
    xs += [xs[0] * xs[1], alg.zero]
    bits = data.draw(st.sampled_from((24, 256, 1024)))
    with mock.patch.dict(os.environ, {"GROSSEN_PRECISION_BITS": str(bits)}):
        emb = _images(alg)
        want = [_per_term_embedding(x, emb) for x in xs]
        assert embed_many(alg, xs) == want     # mpc == is bit for bit
        assert [embed_many(alg, [x])[0] for x in xs] == want
        # the raw tuples, also against the one mpc_add chain per element
        assert ([c._mpc_ for c in embed_many(alg, xs)]
                == [c._mpc_ for c in _mpc_add_embedding(alg, xs)])


def test_theta_series_embedding_matches_per_term_sum():
    psi = _character(-20, 5, 1, 1, 20)
    f = q_expansion(psi, 300)
    emb = _images(psi.algebra)
    assert list(f.complex_coeffs) == [_per_term_embedding(c, emb)
                                      for c in f.coeffs]


def _object_numeric_checks(f):
    """max_imag and the Ramanujan failures of hecke_verify, computed with
    mpf/mpc objects as the libmp-tuple code replaced them."""
    failures = []
    with mpmath.workprec(precision_bits()):
        max_imag = float(max((abs(mpmath.im(c))
                              for c in f.complex_coeffs[1:f.bound + 1]),
                             default=0))
        for p in sympy.primerange(2, f.bound + 1):
            if f.level % p == 0:
                continue
            bound = 2 * mpmath.mpf(p) ** (mpmath.mpf(f.weight - 1) / 2) + 1e-6
            if abs(f.complex_coeffs[p]) > bound:
                failures.append(("ramanujan", p))
    return max_imag, failures


def _assert_reference_report(f):
    """hecke_verify(f) equals the report with the object-based numeric
    checks: the exact failures first, then Ramanujan, then reality."""
    report = hecke_verify(f)
    max_imag, ramanujan = _object_numeric_checks(f)
    failures = [x for x in report["failures"]
                if x[0] not in ("ramanujan", "reality")] + ramanujan
    if max_imag >= 1e-9:
        failures.append(("reality", max_imag))
    want = {"ok": not failures, "checks": report["checks"],
            "failures": failures, "max_imag": max_imag,
            "reality": max_imag < 1e-9, "ramanujan": not ramanujan}
    assert repr(report) == repr(want)
    return report


@pytest.mark.parametrize("bits", (24, 256, 1024))
def test_hecke_numeric_checks_match_object_arithmetic(bits, monkeypatch):
    monkeypatch.setenv("GROSSEN_PRECISION_BITS", str(bits))
    for spec in CHARACTERS:
        _assert_reference_report(q_expansion(_character(*spec), 150))


@pytest.mark.parametrize("bits", (24, 256, 1024))
def test_hecke_numeric_checks_on_planted_values(bits, monkeypatch):
    """a_p exactly at and just above the Ramanujan bound, and a coefficient
    with a nonzero imaginary part."""
    monkeypatch.setenv("GROSSEN_PRECISION_BITS", str(bits))
    f = q_expansion(_character(-15, None, 0, 1, 2), 150)
    p_at, p_above, p_negative = [p for p in sympy.primerange(2, 150)
                                 if f.level % p][:3]
    coeffs = list(f.complex_coeffs)
    with mpmath.workprec(bits):
        def bound(p):
            return 2 * mpmath.mpf(p) ** (mpmath.mpf(f.weight - 1) / 2) + 1e-6

        def ulps_above(x, k):
            return x + mpmath.ldexp(abs(x), k - bits)

        coeffs[p_at] = mpmath.mpc(bound(p_at))
        coeffs[p_above] = mpmath.mpc(ulps_above(bound(p_above), 2))
        coeffs[p_negative] = mpmath.mpc(-ulps_above(bound(p_negative), 2))
        coeffs[10] = coeffs[10] + mpmath.mpc(0, 1e-3)
    planted = dataclasses.replace(f)
    planted.__dict__["complex_coeffs"] = tuple(coeffs)
    report = _assert_reference_report(planted)
    assert report["failures"][-3:] == [("ramanujan", p_above),
                                       ("ramanujan", p_negative),
                                       ("reality", report["max_imag"])]
    assert ("ramanujan", p_at) not in report["failures"]
    assert report["max_imag"] > 1e-9 and not report["ramanujan"]


@lru_cache(maxsize=None)
def _primes_off_level(spec):
    psi = _character(*spec)
    return tuple(P for p in sympy.primerange(2, 80) if psi.level % p
                 for P in QIdeal.primes_over(psi.field, p))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_evaluate_is_multiplicative(data):
    spec = data.draw(st.sampled_from(CHARACTERS))
    psi = _character(*spec)
    primes = _primes_off_level(spec)
    p1, p2 = (data.draw(st.sampled_from(primes)) for _ in range(2))
    v1, v2 = evaluate(psi, p1), evaluate(psi, p2)
    assert evaluate(psi, p1 * p2) == v1 * v2
    assert evaluate(psi, p1) == v1      # again, from the class cache


def _reference_evaluate(psi, a):
    """psi(a) by the path the reduced-ideal table replaced: a class-group
    dlog of a, the product with its reducer, a generator search on that
    product and the Fraction angle of eta, per ideal."""
    field = psi.field
    if not a.is_integral:
        den = a.scale.denominator
        if gcd(den, int(psi.modulus.norm())) != 1:
            raise ValueError("fractional ideal is not coprime to the modulus")
        num = a * QIdeal.from_element(field.element(den))
        return _reference_evaluate(psi, num) * _rational_value(psi, den, -1)
    if (gcd(int(a.norm()), int(psi.modulus.norm())) != 1
            and _shares_prime(a, psi.modulus)):
        return psi.algebra.zero
    reducer, class_value = _class_reduction(psi, tuple(psi.cg.dlog(a)))
    alpha = (a if reducer is None else a * reducer).is_principal()
    k = int(psi.eta.angle(alpha) * psi.r)
    val = psi.algebra.zeta_pow(k) * psi.algebra.from_quad(alpha ** psi.ell)
    return val if class_value is None else val * class_value


@lru_cache(maxsize=None)
def _character_at(disc, ell):
    """The first character of weight parameter ell mod k times the
    minimal conductor, for the least k in 1..5 that has one."""
    field = FieldE(disc)
    for k in range(1, 6):
        m = minimal_conductor(field) * k
        for eta in enumerate_eta(field, m):
            try:
                return build(field, m, ell, eta)
            except (IncompatibleCharacterError, NoSuchCharacterError):
                continue
    raise LookupError("no character")


# class groups trivial (units of order 6 and 4), C3, C4 and C5, at ell 1, 3
EVAL_CHARACTERS = tuple(
    (_character_at, (disc, ell))
    for disc in (-3, -4, -23, -56, -47) for ell in (1, 3)
) + tuple((_character, spec) for spec in CHARACTERS)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(EVAL_CHARACTERS), st.data())
def test_evaluate_matches_the_per_ideal_class_path(spec, data):
    """evaluate against _reference_evaluate on integral ideals, primitive
    or not, on ideals that meet the modulus and on fractional ideals, in
    lowest terms; a fractional ideal whose denominator meets the modulus
    raises on both paths."""
    make, args = spec
    psi = make(*args)
    field = psi.field
    pairs = st.tuples(st.integers(-12, 12), st.integers(-12, 12)).filter(any)
    elems = data.draw(st.lists(pairs, min_size=1, max_size=2))
    a = QIdeal.from_generators(field, [field.element(x, y) for x, y in elems])
    a = a * data.draw(st.integers(1, 3))
    if data.draw(st.integers(0, 3)) == 0:      # one ideal in four meets m
        a = a * psi.modulus
    a = a * Fraction(1, data.draw(st.sampled_from((1, 1, 2, 3, 5, 7))))
    try:
        want = _reference_evaluate(psi, a)
    except ValueError:
        with pytest.raises(ValueError):
            evaluate(psi, a)
        return
    got = evaluate(psi, a)
    assert (got.nums, got.den) == (want.nums, want.den)


@settings(max_examples=40, deadline=None)
@given(FIELDS, st.integers(1, 300))
def test_norm_enumerator_matches_ideals(field, bound):
    items = list(ideals_of_norm_up_to(field, bound))
    assert [n for n, _ in items] == sorted(n for n, _ in items)
    ideals = Counter()
    distinct = set()
    for n, ideal in items:
        assert ideal.is_integral and ideal.norm() == n
        ideals[n] += 1
        distinct.add(ideal)
    assert len(distinct) == len(items)
    for n in range(1, bound + 1):
        want = sum(kronecker(field.disc, d)
                   for d in range(1, n + 1) if n % d == 0)
        assert ideals[n] == want


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(1, 60), max_size=5), st.data())
def test_angle_matches_fraction_sum(orders, data):
    """The integer dot product over the order of the character against the
    sum of one Fraction per coordinate."""
    exps = [data.draw(st.integers(0, o - 1)) for o in orders]
    vec = [data.draw(st.integers(0, o - 1)) for o in orders]
    want = Fraction(0)
    for o, c, e in zip(orders, exps, vec):
        want += Fraction(c * e, o)
    assert _angle_at(_angle_weights(orders, exps), vec) == want % 1


# -- discrete logs ---------------------------------------------------------

# prime-power factors of moduli: (p, exponent) with small local groups, so
# the generic generator scan stays quick
LOCAL_POWERS = ((2, 1), (2, 2), (2, 3), (2, 5), (3, 1), (3, 2), (3, 3), (5, 1),
                (5, 2), (7, 1), (7, 2), (11, 1), (13, 1), (31, 1))


@st.composite
def unit_moduli(draw):
    """A field and a product of one to three prime powers over distinct
    rational primes."""
    field = draw(FIELDS)
    picks = draw(st.lists(st.sampled_from(LOCAL_POWERS), min_size=1,
                          max_size=3, unique_by=lambda pe: pe[0]))
    m = QIdeal.unit_ideal(field)
    for p, e in picks:
        m = m * draw(st.sampled_from(QIdeal.primes_over(field, p))) ** e
    return field, m


def _unit(data, field, ring):
    """A drawn x + y*w, moved along x to the next unit modulo the ring."""
    x, y = data.draw(st.integers(-60, 60)), data.draw(st.integers(-60, 60))
    for k in range(ring.sa):
        z = field.element(x + k, y)
        if ring.is_unit(ring.reduce(z)):
            return z
    return field.one


@settings(max_examples=150, deadline=None)
@given(unit_moduli(), st.data())
def test_dlog_inverts_rebuild(fm, data):
    field, m = fm
    S = units_structure(field, m)
    vec = tuple(data.draw(st.integers(0, o - 1)) for o in S.orders)
    assert S.dlog(S.rebuild(vec)) == vec
    z = _unit(data, field, S.ring)
    assert S.ring.reduce(S.rebuild(S.dlog(z))) == S.ring.reduce(z)


def _dlog_by_elements(S, z):
    """UnitsStructure.dlog the plain way: z as a field element, reduced
    modulo each local factor on its own."""
    if isinstance(z, int):
        z = S.field.element(z)
    out = []
    for loc in S.locals_:
        vec = loc.dlog(loc.ring.reduce(z))
        if vec is None:
            raise ValueError("not a unit modulo m")
        out.extend(vec)
    return tuple(out)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as exc:
        return ("ValueError", str(exc))


@settings(max_examples=150, deadline=None)
@given(unit_moduli(), st.data())
@example((FieldE(-4), QIdeal.unit_ideal(FieldE(-4))), None)
def test_dlog_reads_coordinates_once(fm, data):
    """The vector, or the ValueError, of dlog on ints and on field
    elements (units, non-units, non-integral) is the plain route's."""
    field, m = fm
    S = units_structure(field, m)
    if data is None:
        # no local factor: nothing is reduced, so nothing is refused
        zs = [7, field.element(Fraction(1, 2), 1)]
    else:
        coord = st.integers(-60, 60)
        half = st.sampled_from((Fraction(1, 2), Fraction(-5, 3)))
        zs = [data.draw(coord), data.draw(coord) * int(m.norm()),
              _unit(data, field, S.ring),
              field.element(data.draw(coord), data.draw(coord)),
              field.element(data.draw(half), data.draw(coord)),
              field.element(data.draw(coord), data.draw(half))]
    for z in zs:
        assert _outcome(S.dlog, z) == _outcome(_dlog_by_elements, S, z)


@settings(max_examples=20, deadline=None)
@given(st.sampled_from((-3, -11, -19, -35, -43)), st.integers(10, 12),
       st.data())
def test_dlog_round_trips_above_the_old_table_cap(disc, n, data):
    """2 inert, p2**n with n = 10..12: unit groups of order 3 * 4**(n-1),
    where logs used to stop at the exhaustive-table cap."""
    field = FieldE(disc)
    S = units_structure(field, QIdeal.primes_over(field, 2)[0] ** n)
    assert S.total_order == 3 * 4 ** (n - 1)
    vec = tuple(data.draw(st.integers(0, o - 1)) for o in S.orders)
    assert S.dlog(S.rebuild(vec)) == vec
    z = _unit(data, field, S.ring)
    assert S.ring.reduce(S.rebuild(S.dlog(z))) == S.ring.reduce(z)


# odd prime powers, among them ones whose group order has a prime factor
# above the engine's torsion-table cap (1031 | 2063 - 1, 2003 | 4007 - 1,
# and 2063 itself at 2063**2), which take the baby-step giant-step path
ODD_PRIME_POWERS = (3, 9, 27, 5, 125, 7, 49, 343, 11, 1331, 13, 2063, 4007,
                    65537, 101 ** 2, 2063 ** 2)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(ODD_PRIME_POWERS), st.integers(1, 10 ** 6))
def test_int_dlog_matches_sympy(pe, a):
    if a % pe == 0 or sympy.gcd(a, pe) != 1:
        a = 1 + a * pe
    G = IntUnitGroup(pe)
    ((g, o),) = G.factors
    assert G.dlog(a) == (sympy.discrete_log(pe, a % pe, g),)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 20000), st.integers(0, 10 ** 6))
def test_int_dlog_inverts_rebuild(modulus, a):
    G = IntUnitGroup(modulus)
    a = 1 + a * modulus if sympy.gcd(a, modulus) != 1 else a
    vec = G.dlog(a)
    assert all(0 <= e < o for e, o in zip(vec, G.orders))
    acc = 1
    for (g, _), e in zip(G.factors, vec):
        acc = acc * pow(g, e, modulus)
    assert acc % modulus == a % modulus


def _cyclic_scan(mul, one, u, h):
    """The exponent of h in <u> by walking the powers of u, and the order
    of u."""
    acc, k, found = one, 0, None
    while True:
        if acc == h and found is None:
            found = k
        acc, k = mul(acc, u), k + 1
        if acc == one:
            return found, k


@settings(max_examples=200, deadline=None)
@given(unit_moduli(), st.booleans(), st.data())
def test_engine_membership_matches_a_scan(fm, trivial, data):
    """Over a cyclic subgroup <u>, including u = 1, the engine answers None
    exactly when h is not a power of u, and the exponent otherwise."""
    field, m = fm
    ring = ResidueRing(field, m, m.factor().items())
    u = ring.one if trivial else ring.reduce(_unit(data, field, ring))
    h = ring.reduce(_unit(data, field, ring))
    for target in (h, ring.mul(u, u), ring.one):
        want, order = _cyclic_scan(ring.mul, ring.one, u, target)
        got = DlogEngine(ring, [u], [order]).dlog(target)
        assert got == (None if want is None else (want,))


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 3000), st.integers(1, 3000), st.integers(1, 3000))
def test_int_engine_membership_matches_a_scan(modulus, u, h):
    if sympy.gcd(u, modulus) != 1 or sympy.gcd(h, modulus) != 1:
        return
    grp = _IntegersMod(modulus)
    u, h = u % modulus, h % modulus
    want, order = _cyclic_scan(grp.mul, grp.one, u, h)
    assert DlogEngine(grp, [u], [order]).dlog(h) == (
        None if want is None else (want,))


# -- the reduced character solve --------------------------------------------


@settings(max_examples=120, deadline=None)
@given(unit_moduli(), st.data())
def test_reduced_solve_matches_filtered_solve(fm, data):
    """With order_divides = n the solve runs over gcd(o_i, n); it gives the
    unreduced solutions of order dividing n, in the same order."""
    field, m = fm
    S = units_structure(field, m)
    if S.total_order > 3000:
        return
    # conditions taken from a character of small order, some of them
    # perturbed so that insoluble systems occur too
    x = GroupChar(S, tuple(data.draw(st.integers(0, o - 1))
                           for o in S.orders))
    x = x ** (x.order // gcd(x.order,
                             data.draw(st.sampled_from((1, 2, 4, 12)))))
    conds = []
    for _ in range(data.draw(st.integers(1, 3))):
        z = _unit(data, field, S.ring)
        shift = data.draw(st.sampled_from((0, 0, Fraction(1, 2),
                                           Fraction(1, 4), Fraction(1, 3))))
        conds.append((z, (x.angle(z) + shift) % 1))
    full = solve_character_conditions(S, conds)
    for n in (2, 3, 4, 6, 12):
        got = solve_character_conditions(S, conds, order_divides=n)
        assert [c.exps for c in got] == [c.exps for c in full
                                         if n % c.order == 0]


def _restriction_conditions(field, M):
    """eta restricts to chi_E, on the generators of (Z/lcm(|D|, M))^x."""
    return [(g, Fraction(0) if field.chi(g) == 1 else Fraction(1, 2))
            for g, _ in IntUnitGroup(lcm(abs(field.disc), M)).factors]


def _plus_minus_i(S, conds, z):
    return [bool(solve_character_conditions(S, conds + [(z, t)],
                                            order_divides=4))
            for t in (Fraction(1, 4), Fraction(3, 4))]


def test_plus_i_solvable_iff_minus_i_at_minus_20():
    """The order-4 search asks only for eta(theta) = i; on the moduli of
    the positive control both values are asked and agree."""
    field = FieldE(-20)
    dd = QIdeal.from_element(field.sqrt_disc)
    answers = {}
    for _, mp in ideals_of_norm_up_to(field, 100 // int(dd.norm())):
        m = dd * mp
        M = int(m.norm())
        theta = class_group(field, coprime_to=M).thetas[0]
        S = units_structure(field, m)
        plus, minus = _plus_minus_i(S, _restriction_conditions(field, M),
                                    theta)
        assert plus == minus
        answers[M] = plus
    assert answers[40] and answers[80]
    assert not all(answers.values())


@settings(max_examples=100, deadline=None)
@given(unit_moduli(), st.data())
def test_plus_i_solvable_iff_minus_i(fm, data):
    """On multiples of (sqrt D), where chi_E extends, at a random unit z:
    about one draw in ten is solvable."""
    field, m = fm
    m = QIdeal.from_element(field.sqrt_disc) * m
    S = units_structure(field, m)
    z = _unit(data, field, S.ring)
    conds = _restriction_conditions(field, int(m.norm()))
    plus, minus = _plus_minus_i(S, conds, z)
    assert plus == minus
