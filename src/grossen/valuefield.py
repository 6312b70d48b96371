"""Exact value algebra for character values, and rationality-field logic.

Values of the ideal characters built here live in a presented commutative
algebra over Q with generators w (the quadratic integer), z (a root of
unity of order r) and radicals b_i with b_i^{n_i} equal to a prescribed
element.  Identities (Hecke relations, multiplicativity) hold by
construction in the algebra even when it has zero divisors; questions
about field degrees are always answered by exact Kummer-style power
tests, never by the algebra dimension.
"""

from __future__ import annotations

import operator
import os
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import gcd, isqrt, lcm

import mpmath
from mpmath.libmp import (from_int, fzero, mpc_mul, mpc_mul_mpf, mpc_zero,
                          mpf_add, mpf_div, mpf_pos, round_nearest)

from .abelian import _power
from .classgroup import class_group
from .quadfield import FieldE, QuadElem, _factorint, _pow_xy, fd, kronecker


def _precision_bits() -> int:
    """The embeddings' precision: GROSSEN_PRECISION_BITS (default 256)."""
    raw = os.environ.get("GROSSEN_PRECISION_BITS", "256")
    try:
        if int(raw) > 0:
            return int(raw)
    except ValueError:
        pass
    raise ValueError("GROSSEN_PRECISION_BITS must be a positive integer, "
                     f"not {raw!r}")


@lru_cache(maxsize=None)
def _cyclotomic_coeffs(r: int) -> tuple[int, ...]:
    """The coefficients of the r-th cyclotomic polynomial, low to high,
    kept per r until clear_value_algebras(): x^r - 1 divided exactly by
    Phi_d for every d | r, d < r."""
    poly = [-1] + [0] * (r - 1) + [1]
    for d in range(1, r):
        if r % d == 0:
            den = _cyclotomic_coeffs(d)
            m = len(den) - 1
            quot = [0] * (len(poly) - m)
            for i in range(len(quot) - 1, -1, -1):
                c = quot[i] = poly[i + m]
                if c:
                    for j, dj in enumerate(den):
                        poly[i + j] -= c * dj
            if any(poly[:m]):
                raise ArithmeticError(f"Phi_{d} does not divide x^{r} - 1")
            poly = quot
    return tuple(poly)


def _gauss_sum(D: int, r: int) -> list[int]:
    """sqrt(D) on 1, t, ..., t**(r - 1) for t = exp(2 pi i / r), |D| | r:
    the Gauss sum sum_a chi_D(a) t**(a r/|D|), which is sqrt(D) on the
    principal branch, i sqrt|D| for D < 0 (L. C. Washington, Cyclotomic
    Fields, GTM 83, ch. 4; K. Ireland and M. Rosen, A Classical
    Introduction to Modern Number Theory, GTM 84, ch. 6)."""
    vec = [0] * r
    step = r // abs(D)
    for a in range(1, abs(D)):
        vec[a * step] = kronecker(D, a)
    return vec


def _field_zeta_rule(field: FieldE, r: int) -> list[tuple[int, int]]:
    """For E inside Q(zeta_r): z**(phi(r)/2) on 1, z, z**2, ..., as integer
    (x, y) w-coords, low to high; that is, minus the coefficients of
    f = prod (x - t**k) over 0 < k < r prime to r with chi_E(k) = 1, the
    factor of Phi_r over E with the root t = exp(2 pi i / r).

    f is multiplied out exactly in Z[t]/(t**r - 1), where t**k is a
    rotation.  Each coefficient, reduced mod Phi_r, lies in E and is read
    off the basis 1, sqrt(D), with sqrt(D) the Gauss sum of _gauss_sum:
    where t goes to exp(2 pi i / r), sqrt(D) goes to i sqrt|D|.  The
    coefficients are algebraic integers of E, so their w-coords are
    integers; a coefficient that is not raises ArithmeticError."""
    D = field.disc
    if r % abs(D) != 0:
        raise ValueError("E is not a subfield of Q(zeta_r)")
    cyclotomic = _cyclotomic_coeffs(r)
    m = len(cyclotomic) - 1

    def reduced(v: list[int]) -> list[int]:
        v = list(v)
        for i in range(r - 1, m - 1, -1):
            if c := v[i]:
                for j, cj in enumerate(cyclotomic):
                    v[i - m + j] -= c * cj
        return v[:m]

    poly = [[1] + [0] * (r - 1)]
    for k in range(1, r):
        if gcd(k, r) == 1 and kronecker(D, k) == 1:
            # poly * (x - t**k)
            poly = [[0] * r] + poly
            for i in range(len(poly) - 1):
                c = poly[i + 1]
                poly[i] = [a - b for a, b in zip(poly[i], c[-k:] + c[:-k])]
    g = reduced(_gauss_sum(D, r))
    j = next(i for i in range(1, m) if g[i])
    rule = []
    for c in map(reduced, poly[:-1]):
        q = Fraction(c[j], g[j])
        p = c[0] - q * g[0]
        if any(ci != q * gi for ci, gi in zip(c[1:], g[1:])):
            raise ArithmeticError("cyclotomic factor has a coefficient "
                                  "outside E")
        # -(p + q sqrt D) = (q D - p) - 2q w
        x, y = q * D - p, -2 * q
        if x.denominator != 1 or y.denominator != 1:
            raise ArithmeticError("cyclotomic factor has a coefficient "
                                  "outside the integers of E")
        rule.append((int(x), int(y)))
    return rule


# ---------------------------------------------------------------------------
# presented value algebra

Monomial = tuple[int, int, tuple[int, ...]]


class AlgebraElement:
    """Exact element: integer coordinates ``nums`` on the algebra's monomial
    basis over one positive denominator ``den``, in lowest terms.
    Immutable by convention: no operation changes an element."""

    __slots__ = ("algebra", "nums", "den")

    def __init__(self, algebra: ValueAlgebra, nums: tuple[int, ...],
                 den: int = 1):
        self.algebra = algebra
        self.nums = nums
        self.den = den

    @property
    def coords(self) -> tuple[tuple[Monomial, Fraction], ...]:
        """The nonzero rational coordinates, sorted by monomial."""
        basis, den = self.algebra.basis, self.den
        return tuple((basis[i], Fraction(n, den))
                     for i, n in enumerate(self.nums) if n)

    def _combine(self, other: AlgebraElement, sign: int) -> AlgebraElement:
        alg = self.algebra
        if other.algebra is not alg:
            raise ValueError("elements of different algebras")
        d1, d2 = self.den, other.den
        if d1 == d2:
            nums = [a + sign * b for a, b in zip(self.nums, other.nums)]
        else:
            den = lcm(d1, d2)
            m1, m2 = den // d1, sign * (den // d2)
            nums = [a * m1 + b * m2 for a, b in zip(self.nums, other.nums)]
            d1 = den
        return alg._element(nums, d1)

    def __add__(self, other: AlgebraElement) -> AlgebraElement:
        return self._combine(other, 1)

    def __sub__(self, other: AlgebraElement) -> AlgebraElement:
        return self._combine(other, -1)

    def __neg__(self) -> AlgebraElement:
        return AlgebraElement(self.algebra, tuple(-n for n in self.nums),
                              self.den)

    def __mul__(self, other) -> AlgebraElement:
        alg = self.algebra
        if isinstance(other, (int, Fraction)):
            return alg._element([n * other.numerator for n in self.nums],
                                self.den * other.denominator)
        if other.algebra is not alg:
            raise ValueError("elements of different algebras")
        acc = alg._product(self.nums, alg._sparse(other.nums))
        return alg._element(acc, self.den * other.den)

    __rmul__ = __mul__

    def __pow__(self, e: int) -> AlgebraElement:
        if e < 0:
            raise ValueError("negative powers are not defined")
        return _power(self.algebra.one, self, e, operator.mul)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = self.algebra.scalar(other)
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        # elements of two algebras are equal when the bases and the
        # coordinates agree, which keeps __hash__ consistent
        return ((other.algebra is self.algebra
                 or other.algebra.basis == self.algebra.basis)
                and self.den == other.den and self.nums == other.nums)

    def __hash__(self) -> int:
        return hash((self.nums, self.den))

    def __repr__(self) -> str:
        return f"AlgebraElement({self.coords!r})"

    @property
    def is_zero(self) -> bool:
        return not any(self.nums)

    def degree(self) -> int:
        """The degree of the minimal polynomial over Q: the length of the
        first linear dependence among 1, x, x**2, ... (H. Cohen, A Course
        in Computational Algebraic Number Theory, GTM 138, 2.2).  The
        powers are eliminated fraction-free on their integer numerators,
        whose denominators do not change which powers are dependent."""
        alg = self.algebra
        right = alg._sparse(self.nums)
        rows: list[tuple[int, list[int]]] = []      # (pivot, row)
        power = list(alg.one.nums)
        while True:
            v = power
            for j, row in rows:
                if v[j]:
                    c, e = row[j], v[j]
                    v = [c * a - e * b for a, b in zip(v, row)]
            g = gcd(*v)
            if not g:
                return len(rows)
            v = [a // g for a in v]
            rows.append((next(j for j, a in enumerate(v) if a), v))
            power = alg._product(power, right)

    def embed(self) -> mpmath.mpc:
        """The value at the distinguished embedding."""
        return self.algebra.embed_many((self,))[0]


class ValueAlgebra:
    """Q-algebra Q[w, z, b_1..b_g] with w quadratic, z an r-th root of
    unity, and b_i^{n_i} = gamma_i for prescribed gamma_i free of b's.

    When E sits inside Q(zeta_r), z is presented by the factor of the
    cyclotomic polynomial over E whose roots contain exp(2 pi i / r) at
    the distinguished embedding: the ring is then the honest field
    E(zeta_r) = Q(zeta_r), and in particular z**(r/w) equals the
    canonical root of unity of E, so values do not depend on the choice
    of ideal generators.

    The basis is the sorted tuple of monomials w**a z**b b**cs with a < 2,
    b < phi and cs_i < n_i (index 0 is the unit).  Products go through a
    table of integer structure constants, built once from the normal form
    of every monomial product (H. Cohen, A Course in Computational
    Algebraic Number Theory, GTM 138, 4.2).

    The normal form runs on ints: w**2 = d w - N(w) with the integer
    N(w) = (d**2 - d)/4, the rule for z**phi has integer coefficients
    (those of a factor of Phi_r over the integers of E), and each
    radicand {(a, b, cs): c} must be integral, as eta(theta) theta**ell is."""

    def __init__(self, field: FieldE, r: int,
                 radicals: list[tuple[int, dict]] = ()):  # noqa: B006
        self.field = field
        self.r = max(int(r), 1)
        self.over_field = self.r % abs(field.disc) == 0
        cyclotomic = _cyclotomic_coeffs(self.r)
        if self.over_field:
            self.phi = (len(cyclotomic) - 1) // 2
            # rule[j] = E-coefficient of z**j in z**phi, as (x, y) w-coords
            self._zeta_rule = _field_zeta_rule(field, self.r)
        else:
            self.phi = len(cyclotomic) - 1
            # z**phi = -(c_0 + c_1 z + ... + c_{phi-1} z**(phi-1))
            self._zeta_rule = [(-c, 0) for c in cyclotomic[:-1]]
        self.ns: tuple[int, ...] = tuple(n for n, _ in radicals)
        pad = (0,) * len(radicals)
        self.radicands: list[dict[Monomial, int]] = []
        for n, gamma in radicals:
            if n < 1:
                raise ValueError("radical orders must be positive")
            fixed: dict[Monomial, int] = {}
            for (a, b, cs), c in gamma.items():
                if any(cs):
                    raise ValueError("radicand must be free of radicals")
                c = Fraction(c)
                if c.denominator != 1:
                    raise ValueError("radicands must be integral")
                fixed[(a, b, pad)] = fixed.get((a, b, pad), 0) + c.numerator
            self.radicands.append(fixed)
        self.basis: tuple[Monomial, ...] = tuple(product(
            range(2), range(self.phi),
            product(*(range(n) for n in self.ns))))
        self.dim = len(self.basis)
        self._index = {m: i for i, m in enumerate(self.basis)}
        self._w_index = self._index[(1, 0, pad)]
        self._embed_cache: dict[int, tuple[dict, list[tuple]]] = {}
        self._zeta_memo: list[dict[tuple[int, int], int]] = []
        self._zeta_pows: dict[int, AlgebraElement] = {}
        self._table = self._structure_constants()

    # -- construction helpers

    def _structure_constants(self) -> list[list[tuple[tuple[int, int], ...]]]:
        """table[i][j] = ((k, c), ...), e_i e_j = sum c e_k for ints c."""
        normal: dict[Monomial, tuple[tuple[int, int], ...]] = {}
        index = self._index
        table = []
        for k1 in self.basis:
            row = []
            for k2 in self.basis:
                key = (k1[0] + k2[0], k1[1] + k2[1],
                       tuple(a + b for a, b in zip(k1[2], k2[2])))
                nf = normal.get(key)
                if nf is None:
                    acc: dict[Monomial, int] = {}
                    self._reduce_into(acc, key, 1)
                    nf = normal[key] = tuple(sorted(
                        (index[m], c) for m, c in acc.items() if c))
                row.append(nf)
            table.append(row)
        return table

    @staticmethod
    def _sparse(nums) -> list[tuple[int, int]]:
        """The nonzero coordinates as (index, num) pairs."""
        return [(j, b) for j, b in enumerate(nums) if b]

    def _product(self, nums, right: list[tuple[int, int]]) -> list[int]:
        """The numerators of x y over den(x) den(y), for x with numerators
        nums and y with the nonzero numerators right: the sum of
        x_i y_j c_ijk e_k over the structure constants c_ijk."""
        table = self._table
        acc = [0] * self.dim
        for i, a in enumerate(nums):
            if a:
                row = table[i]
                for j, b in right:
                    ab = a * b
                    for k, c in row[j]:
                        acc[k] += ab * c
        return acc

    def _element(self, nums, den: int) -> AlgebraElement:
        """The element nums / den (den > 0), brought to lowest terms."""
        if den != 1:
            g = gcd(den, *nums)
            if g != 1:
                nums = [n // g for n in nums]
                den //= g
        return AlgebraElement(self, tuple(nums), den)

    def _wrap(self, acc: dict[Monomial, int | Fraction]) -> AlgebraElement:
        """The element with the given rational coordinates (ints or
        Fractions) on basis monomials."""
        den = lcm(*(c.denominator for c in acc.values()))
        nums = [0] * self.dim
        for key, c in acc.items():
            nums[self._index[key]] += c.numerator * (den // c.denominator)
        return self._element(nums, den)

    @property
    def zero(self) -> AlgebraElement:
        return AlgebraElement(self, (0,) * self.dim)

    @property
    def one(self) -> AlgebraElement:
        return self.scalar(1)

    def scalar(self, c) -> AlgebraElement:
        if type(c) is not int:
            c = Fraction(c)
        nums = [0] * self.dim
        nums[0] = c.numerator
        return AlgebraElement(self, tuple(nums), c.denominator)

    def monomial(self, a: int, b: int, cs: tuple[int, ...] = None) -> AlgebraElement:
        """w**a z**b b**cs in normal form, on integer coordinates."""
        if cs is None:
            cs = (0,) * len(self.ns)
        acc: dict[Monomial, int] = {}
        self._reduce_into(acc, (a, b, tuple(cs)), 1)
        return self._wrap(acc)

    def omega(self) -> AlgebraElement:
        return self.monomial(1, 0)

    def zeta_pow(self, k: int) -> AlgebraElement:
        k %= self.r
        out = self._zeta_pows.get(k)
        if out is None:
            out = self._zeta_pows[k] = self.monomial(0, k)
        return out

    def beta(self, i: int) -> AlgebraElement:
        cs = [0] * len(self.ns)
        cs[i] = 1
        return self.monomial(0, 0, tuple(cs))

    def from_quad(self, x: QuadElem) -> AlgebraElement:
        return self._wrap({self.basis[0]: x.x,
                           self.basis[self._w_index]: x.y})

    # -- normal form

    def _zeta_reduced(self, b: int) -> dict[tuple[int, int], int]:
        """z**b in the basis w**a z**j with j < phi, memoized per power; the
        coefficients are ints, as those of the rule for z**phi are."""
        if b < self.phi:
            return {(0, b): 1}
        cache = self._zeta_memo
        d, nw = self.field.disc, self.field.omega_norm
        while len(cache) <= b - self.phi:
            k = self.phi + len(cache)
            cur: dict[tuple[int, int], int] = {}
            if k == self.phi:
                for j, (cx, cy) in enumerate(self._zeta_rule):
                    if cx:
                        cur[(0, j)] = cx
                    if cy:
                        cur[(1, j)] = cy
            else:
                base = cache[0]
                for (a1, j1), c in cache[-1].items():
                    if j1 + 1 < self.phi:
                        key = (a1, j1 + 1)
                        cur[key] = cur.get(key, 0) + c
                        continue
                    for (a2, j2), c2 in base.items():
                        cc = c * c2
                        if a1 + a2 < 2:
                            key = (a1 + a2, j2)
                            cur[key] = cur.get(key, 0) + cc
                        else:
                            # w**2 = d w - N(w), N(w) = (d*d - d)/4
                            cur[(1, j2)] = cur.get((1, j2), 0) + cc * d
                            cur[(0, j2)] = cur.get((0, j2), 0) - cc * nw
            cache.append({key: v for key, v in cur.items() if v})
        return cache[b - self.phi]

    def _reduce_into(self, acc: dict[Monomial, int], key: Monomial,
                     coeff: int) -> None:
        """Add the integer coeff times the normal form of the monomial key,
        which has integer coefficients, to acc."""
        if not coeff:
            return
        a, b, cs = key
        if a >= 2:
            # w**2 = Tr(w) w - N(w) = d*w - (d*d - d)/4
            field = self.field
            self._reduce_into(acc, (a - 1, b, cs), coeff * field.disc)
            self._reduce_into(acc, (a - 2, b, cs), -coeff * field.omega_norm)
            return
        if b >= self.phi:
            for (za, zj), zc in self._zeta_reduced(b).items():
                self._reduce_into(acc, (a + za, zj, cs), coeff * zc)
            return
        for i, n in enumerate(self.ns):
            if cs[i] >= n:
                lowered = list(cs)
                lowered[i] -= n
                for gkey, gc in self.radicands[i].items():
                    merged = (a + gkey[0], b + gkey[1],
                              tuple(x + y for x, y in zip(lowered, gkey[2])))
                    self._reduce_into(acc, merged, coeff * gc)
                return
        acc[key] = acc.get(key, 0) + coeff

    # -- the complex embedding

    def _embedding(self, prec: int) -> tuple[dict, list[tuple]]:
        """(images, factors) at prec bits, computed once per precision: w
        goes to (d + i sqrt|d|)/2, z to exp(2 pi i / r) and each b_i to
        the principal n_i-th root of its radicand there; factors holds,
        per basis monomial, its first factor w**a and the rest, z**b and
        b_i**e (e > 0), as mpmath `_mpc_` tuples."""
        hit = self._embed_cache.get(prec)
        if hit is None:
            with mpmath.workprec(prec):
                d = self.field.disc
                w = (d + mpmath.mpc(0, 1) * mpmath.sqrt(abs(d))) / 2
                z = mpmath.exp(2j * mpmath.pi / self.r)
                emb = {"w": w, "z": z}
                for i, n in enumerate(self.ns):
                    val = mpmath.mpc(0)
                    for (a, b, _), c in self.radicands[i].items():
                        val += (mpmath.mpf(c.numerator) / c.denominator
                                * w ** a * z ** b)
                    emb[f"b{i}"] = (mpmath.power(val, mpmath.mpf(1) / n)
                                    if val != 0 else mpmath.mpc(0))
                factors = [((w ** a)._mpc_,
                            ((z ** b)._mpc_,
                             *((emb[f"b{i}"] ** e)._mpc_
                               for i, e in enumerate(cs) if e)))
                           for a, b, cs in self.basis]
            hit = self._embed_cache[prec] = (emb, factors)
        return hit

    def embed_many(self, xs) -> list:
        """The values of the elements xs at the distinguished embedding, in
        one working precision.  A value is the sum, in basis order, of the
        terms num/den * w**a * z**b * b_1**e_1 * ..., each coordinate
        num/den in lowest terms, multiplied in that order.

        The sums run on mpmath's raw tuples: each step is the libmp call
        that the mpf/mpc operators make, at the same precision and
        rounding, so the values are bit for bit those of the object
        arithmetic.  A sum of mpc terms is the two mpf_add chains that
        mpc_add makes, real and imaginary; only the totals are wrapped as
        mpc, and every zero element gets the one zero mpc."""
        prec = _precision_bits()
        factors = self._embedding(prec)[1]
        rnd = round_nearest
        make_mpc = mpmath.mp.make_mpc
        zero = make_mpc(mpc_zero)
        # a term depends only on (basis index, num, den): computed once
        terms: dict[tuple[int, int, int], tuple] = {}
        out = []
        for x in xs:
            if not any(x.nums):
                out.append(zero)
                continue
            re = im = fzero
            den = x.den
            for i, n in enumerate(x.nums):
                if not n:
                    continue
                term = terms.get(key := (i, n, den))
                if term is None:
                    g = gcd(n, den)
                    first, rest = factors[i]
                    # mpf(n // g) / (den // g) * first * rest[0] * ...
                    term = mpc_mul_mpf(
                        first,
                        mpf_div(mpf_pos(from_int(n // g), prec, rnd),
                                from_int(den // g), prec, rnd),
                        prec, rnd)
                    for f in rest:
                        term = mpc_mul(term, f, prec, rnd)
                    terms[key] = term
                re = mpf_add(re, term[0], prec, rnd)
                im = mpf_add(im, term[1], prec, rnd)
            out.append(make_mpc((re, im)))
        return out


def clear_value_algebras() -> None:
    """Forget the memoized cyclotomic polynomials, for timing a cold
    computation."""
    _cyclotomic_coeffs.cache_clear()


# ---------------------------------------------------------------------------
# exact power tests

# Square roots run on integers: an element of E is a triple (A, B, N) of
# integers with N > 0, standing for (A + B sqrt(d)) / N.

def _exact_isqrt(n: int) -> int | None:
    """The square root of n if n is the square of an integer, else None."""
    if n < 0:
        return None
    s = isqrt(n)
    return s if s * s == n else None


def _triple(gamma: QuadElem) -> tuple[int, int, int]:
    """gamma = x + y*w as a triple; w = (d + sqrt d)/2."""
    x, y = gamma.x, gamma.y
    den = lcm(x.denominator, y.denominator)
    X = x.numerator * (den // x.denominator)
    Y = y.numerator * (den // y.denominator)
    return 2 * X + Y * gamma.field.disc, Y, 2 * den


def _sqrt_in_E(A: int, B: int, N: int, d: int) -> tuple[int, int, int] | None:
    """A root in E of (A + B sqrt d)/N, as a triple, or None.

    It is sqrt(X + Y sqrt d)/N for the integers X = AN, Y = BN, and a
    root of an element of Z[sqrt d] is integral, so it is (a + b sqrt d)/2
    with integers a, b: a**2 + d b**2 = 4X and ab = 2Y.  Y = 0 gives
    b = 0 or a = 0.  Otherwise a**2 - d b**2 = 4s with s**2 = X**2 - d Y**2,
    s > 0 as d < 0, so a**2 = 2(X + s) (H. Cohen, A Course in
    Computational Algebraic Number Theory, GTM 138)."""
    X, Y = A * N, B * N
    if Y == 0:
        a = _exact_isqrt(4 * X)
        if a is not None:
            return a, 0, 2 * N
        b = None if 4 * X % d else _exact_isqrt(4 * X // d)
        return None if b is None else (0, b, 2 * N)
    s = _exact_isqrt(X * X - d * Y * Y)
    a = None if s is None else _exact_isqrt(2 * (X + s))
    if not a or 2 * Y % a:
        return None
    b = 2 * Y // a
    return (a, b, 2 * N) if a * a + d * b * b == 4 * X else None


def _sqrt_over_E(x: tuple[int, int, int], y: tuple[int, int, int],
                 t: int, d: int):
    """(u, v), E-triples with (u + v sqrt t)**2 = x + y sqrt t, or None,
    for E-triples x, y over one denominator and an integer t < 0 that is
    no square in E.

    A root has u**2 + t v**2 = x and 2uv = y, so y = 0 gives sqrt(x) or
    sqrt(x/t) sqrt(t); otherwise u**2 - t v**2 = +-s with
    s**2 = x**2 - t y**2, so u**2 = (x +- s)/2 and v = y/(2u).  Such a
    pair squares back exactly: u**2 + t y**2/(4u**2) = x follows from
    s**2 = x**2 - t y**2."""
    (x0, x1, N), (y0, y1, _) = x, y
    if y0 == 0 and y1 == 0:
        u = _sqrt_in_E(x0, x1, N, d)
        if u is not None:
            return u, (0, 0, 1)
        v = _sqrt_in_E(-x0, -x1, -N * t, d)
        return None if v is None else ((0, 0, 1), v)
    s = _sqrt_in_E(x0 * x0 + d * x1 * x1 - t * (y0 * y0 + d * y1 * y1),
                   2 * (x0 * x1 - t * y0 * y1), N * N, d)
    if s is None:
        return None
    s0, s1, sN = s
    for sign in (1, -1):
        u = _sqrt_in_E(x0 * sN + sign * s0 * N, x1 * sN + sign * s1 * N,
                       2 * N * sN, d)
        if u is not None and (u[0] or u[1]):
            u0, u1, uN = u
            # v = y conj(u) / (2 N(u))
            c0, c1 = uN * u0, -uN * u1
            return u, (y0 * c0 + d * y1 * c1, y0 * c1 + y1 * c0,
                       2 * N * (u0 * u0 - d * u1 * u1))
    return None


def is_square(field: FieldE, gamma: QuadElem) -> bool:
    """Exact test for gamma in (E^x)^2 (or gamma = 0)."""
    return _sqrt_in_E(*_triple(gamma), field.disc) is not None


def _icbrt(n: int) -> int:
    """The integer cube root floor(n^(1/3)) of n >= 0, by Newton's method
    on integers from a start above the root."""
    if n < 2:
        return n
    x = 1 << -(-n.bit_length() // 3)
    while True:
        y = (2 * x + n // (x * x)) // 3
        if y >= x:
            return x
        x = y


def _depressed_cubic_int_roots(p: int, q: int) -> set[int]:
    """The integer roots of u^3 + p u + q, by bisection on each integer
    range where the cubic is monotone: all of Z when p >= 0, else split
    at +-sqrt(-p/3).  An integer root divides q, or is 0 or +-sqrt(-p)
    when q = 0, so it lies within 1 + |p| + |q|."""
    def f(u):
        return u * u * u + p * u + q
    bound = 1 + abs(p) + abs(q)
    if p >= 0:
        pieces = [(-bound, bound, 1)]
    else:
        t = isqrt(-p // 3)                  # floor(sqrt(-p/3))
        tc = t if 3 * t * t == -p else t + 1  # ceil(sqrt(-p/3))
        pieces = [(-bound, -tc, 1), (-t, t, -1), (tc, bound, 1)]
    roots = set()
    for lo, hi, sign in pieces:
        if lo > hi:
            continue
        # the smallest u of the piece with sign * f(u) >= 0
        while lo < hi:
            mid = (lo + hi) // 2
            if sign * f(mid) >= 0:
                hi = mid
            else:
                lo = mid + 1
        if f(lo) == 0:
            roots.add(lo)
    return roots


def is_cube(field: FieldE, gamma: QuadElem) -> bool:
    """Exact test for gamma in (E^x)^3 (or gamma = 0), on integers.

    gamma is a cube exactly when X + Y w = den**3 gamma is, den the
    denominator of its coordinates; a cube root delta of that algebraic
    integer is integral, with N(delta) = c for c**3 = N(X + Y w) (_icbrt)
    and s = Tr(delta) an integer root of s**3 - 3cs - Tr(X + Y w)
    (_depressed_cubic_int_roots).  So delta = ((s -+ v d)/2, +-v) in
    w-coordinates, d v**2 = s**2 - 4c with s - v d even, and each such
    candidate is verified by cubing."""
    if gamma == field.zero:
        return True
    d, nw, x, y = field.disc, field.omega_norm, gamma.x, gamma.y
    den3 = lcm(x.denominator, y.denominator) ** 3
    X = x.numerator * (den3 // x.denominator)
    Y = y.numerator * (den3 // y.denominator)
    c = _icbrt(norm := X * X + X * Y * d + Y * Y * nw)
    if c ** 3 != norm:
        return False
    for s in _depressed_cubic_int_roots(-3 * c, -2 * X - Y * d):
        q, rem = divmod(s * s - 4 * c, d)
        v = None if rem else _exact_isqrt(q)
        if v is None or (s - v * d) % 2:
            continue
        u = (s - v * d) // 2
        if (_pow_xy(u, v, 3, d, nw) == (X, Y)
                or _pow_xy(u + v * d, -v, 3, d, nw) == (X, Y)):
            return True
    return False


def _sign_of_sum(a: int, A: int, b: int, B: int) -> int:
    """Sign of a sqrt(A) + b sqrt(B) for integers a, b and A, B >= 0, by
    comparing the squares of the two terms."""
    sa = (a > 0) - (a < 0) if A else 0
    sb = (b > 0) - (b < 0) if B else 0
    if sa == sb or sb == 0:
        return sa
    if sa == 0:
        return sb
    diff = a * a * A - b * b * B
    return sa if diff > 0 else sb if diff < 0 else 0


def quartic_nth_power_root(field: FieldE, r: int,
                           gamma: AlgebraElement, n: int) -> AlgebraElement | None:
    """A root delta in E(zeta_r) with delta^n = gamma, or None; n = 2 only.

    With z**2 = c0 + c1 z, E(zeta_r) = E(sqrt t) for t = c1**2 + 4 c0 and
    sqrt(t) = 2z - c1, so the root is a square root over E, taken on
    integers (_sqrt_over_E).  Of the two roots the one returned is the
    principal square root at the distinguished embedding (Re > 0, or
    Re = 0 and Im > 0), decided exactly.
    """
    alg = gamma.algebra
    if n != 2:
        raise ValueError("only square roots (n = 2) are supported")
    if alg.r != r or alg.phi != 2 or alg.ns or alg.over_field:
        raise ValueError("need the quartic field E(zeta_r) without radicals")
    if gamma.is_zero:
        return None
    (c0, _), (c1, _) = alg._zeta_rule
    t, d = c1 * c1 + 4 * c0, field.disc
    keys = ((0, 0, ()), (1, 0, ()), (0, 1, ()), (1, 1, ()))
    n0, n1, n2, n3 = (gamma.nums[alg._index[k]] for k in keys)
    # gamma = X + Y z with den X = n0 + n1 w, den Y = n2 + n3 w, so
    # gamma = (X + c1 Y/2) + (Y/2) sqrt t; 2 den Y = Y0 + n3 sqrt d
    Y0, N = 2 * n2 + n3 * d, 4 * gamma.den
    root = _sqrt_over_E((4 * n0 + 2 * n1 * d + c1 * Y0, 2 * n1 + c1 * n3, N),
                        (Y0, n3, N), t, d)
    if root is None:
        return None
    (u0, u1, uN), (v0, v1, vN) = root
    # at the distinguished embedding sqrt(d) -> i sqrt|d| and
    # sqrt(t) -> i sqrt|t|, since Im exp(2 pi i / r) > 0; over the
    # denominator uN vN > 0, Re = u0 vN - v1 uN sqrt(|d t|) and
    # Im = u1 vN sqrt|d| + v0 uN sqrt|t|
    re = _sign_of_sum(u0 * vN, 1, -v1 * uN, d * t)
    im = _sign_of_sum(u1 * vN, -d, v0 * uN, -t)
    if re < 0 or (re == 0 and im < 0):
        u0, u1, v0, v1 = -u0, -u1, -v0, -v1
    # u + v sqrt(t) = (u - c1 v) + 2v z; (A + B sqrt d) = (A - Bd) + 2B w
    low0, low1 = u0 * vN - c1 * v0 * uN, u1 * vN - c1 * v1 * uN
    high0, high1 = 2 * v0 * uN, 2 * v1 * uN
    nums = [0] * alg.dim
    for k, c in zip(keys, (low0 - low1 * d, 2 * low1,
                           high0 - high1 * d, 2 * high1)):
        nums[alg._index[k]] = c
    return alg._element(nums, uN * vN)


# ---------------------------------------------------------------------------
# conditions (Q1) and (R1)

@dataclass(frozen=True)
class Q1Result:
    holds: bool
    signs: tuple[int, ...] | None


def check_Q1_data(field: FieldE, thetas: list[QuadElem],
                  orders: list[int], ell: int) -> Q1Result:
    g = len(thetas)
    if g < 2:
        raise ValueError("Q1 not applicable")
    gammas = [t ** ell for t in thetas]
    if all(n == 2 for n in orders):
        for signs in product([1, -1], repeat=g - 1):
            eps = (1,) + signs
            if all(is_square(field, gammas[i] * gammas[j] * (eps[i] * eps[j]))
                   for i in range(g) for j in range(i + 1, g)):
                return Q1Result(True, eps)
        return Q1Result(False, None)
    if all(n == 3 for n in orders):
        # -1 is a cube, so signs are irrelevant; field equality of cubic
        # radical extensions tests gamma_i gamma_j or gamma_i gamma_j^2
        ok = all(
            is_cube(field, gammas[i] * gammas[j])
            or is_cube(field, gammas[i] * gammas[j] * gammas[j])
            for i in range(g) for j in range(i + 1, g))
        return Q1Result(ok, (1,) * g if ok else None)
    raise ValueError("unsupported generator orders for Q1")


def check_Q1(field: FieldE, ell: int) -> Q1Result:
    cg = class_group(field, coprime_to=abs(field.disc))
    if len(cg.orders) < 2:
        raise ValueError("Q1 not applicable")
    return check_Q1_data(field, list(cg.thetas), list(cg.orders), ell)


@dataclass(frozen=True)
class R1Result:
    holds: bool
    witnesses: tuple[int | None, ...]


def check_R1(field: FieldE, ell: int, r: int) -> R1Result:
    """For each class-group generator, search zeta in mu_{E(zeta_r)} with
    (zeta theta^ell)^{1/n} in E(zeta_r)."""
    if r not in (4, 6):
        raise ValueError("R1 is defined for r in {4, 6}")
    if r % abs(field.disc) == 0:
        raise ValueError("R1 needs E(zeta_r) to be a quartic field")
    cg = class_group(field, coprime_to=abs(field.disc))
    if not cg.orders:
        raise ValueError("R1 needs a nontrivial class group")
    alg = ValueAlgebra(field, r)
    witnesses: list[int | None] = []
    for theta, n in zip(cg.thetas, cg.orders):
        gamma0 = alg.from_quad(theta ** ell)
        found = None
        for k in range(r):
            if quartic_nth_power_root(field, r, alg.zeta_pow(k) * gamma0, n) is not None:
                found = k
                break
        witnesses.append(found)
    return R1Result(all(w is not None for w in witnesses), tuple(witnesses))


# ---------------------------------------------------------------------------
# value-field degree and the rationality field

def _cyclotomic_degree_over_E(field: FieldE, r: int) -> int:
    phi = len(_cyclotomic_coeffs(r)) - 1
    if r % abs(field.disc) == 0:
        return phi // 2
    return phi


def _radical_rank(field: FieldE, gammas: list[QuadElem], n: int) -> int:
    """F_n-rank of the classes of gammas in E^x/(E^x)^n, for n in {2, 3}."""
    is_power = {2: is_square, 3: is_cube}[n]
    total = n ** len(gammas)
    trivial = 1     # the zero exponent vector
    for exps in product(range(n), repeat=len(gammas)):
        if not any(exps):
            continue
        p = field.one
        for gamma, e in zip(gammas, exps):
            if e:
                p = p * gamma ** e
        if is_power(field, p):
            trivial += 1
    size = total // trivial
    rank = 0
    while n ** rank < size:
        rank += 1
    if trivial * size != total or n ** rank != size:
        raise ValueError(f"{n}-th power classes do not form a subgroup")
    return rank


def value_field_degree(psi) -> int:
    """[L : E] for the value field L of psi, by exact Kummer tests."""
    field = psi.field
    r = psi.eta.order
    d0 = _cyclotomic_degree_over_E(field, r)
    ns = list(psi.cg.orders)
    if not ns:
        return d0
    thetas = list(psi.cg.thetas)
    ell = psi.ell
    if all(n == 2 for n in ns):
        if r <= 2:
            gammas = [psi.eta.sign(t) * t ** ell for t in thetas]
            return d0 * 2 ** _radical_rank(field, gammas, 2)
        if r in (4, 6) and len(ns) == 1:
            # build adjoins the radical exactly when eta(theta) theta**ell
            # has no square root in the quartic field E(zeta_r)
            return d0 * 2 ** len(psi.algebra.ns)
        raise ValueError("unsupported degree configuration")
    if all(n == 3 for n in ns) and r <= 2:
        gammas = [psi.eta.sign(t) * t ** ell for t in thetas]
        return d0 * 3 ** _radical_rank(field, gammas, 3)
    raise ValueError("unsupported degree configuration")


@dataclass(frozen=True)
class RationalityField:
    """The totally real field K with L = EK, by degree, a monic integer
    defining polynomial, and the exact field discriminant."""

    degree: int
    poly: tuple[int, ...]
    disc: int


def _quad_field(D: int) -> RationalityField:
    if D <= 1 or fd(D) != D:
        raise ValueError(f"{D} is not a real fundamental discriminant")
    if D % 4 == 0:
        return RationalityField(2, (1, 0, -D // 4), D)
    return RationalityField(2, (1, -1, -(D - 1) // 4), D)


def _poly_disc(coeffs: tuple[int, ...]) -> int:
    """The discriminant of the cubic (a, b, c, d), high to low, or of the
    binary cubic form a x^3 + b x^2 y + c x y^2 + d y^3."""
    a, b, c, d = coeffs
    return (b * b * c * c - 4 * a * c ** 3 - 4 * b ** 3 * d
            - 27 * a * a * d * d + 18 * a * b * c * d)


def _poly_gcd_mod(f: list[int], g: list[int], p: int) -> list[int]:
    """The monic gcd of two polynomials mod the prime p, low to high,
    f nonzero mod p."""
    f, g = [x % p for x in f], [x % p for x in g]
    while g and g[-1] == 0:
        g.pop()
    while g:
        inv = pow(g[-1], -1, p)
        while f and len(f) >= len(g):
            k, shift = f[-1] * inv % p, len(f) - len(g)
            for i, gi in enumerate(g):
                f[shift + i] = (f[shift + i] - k * gi) % p
            while f and f[-1] == 0:
                f.pop()
        f, g = g, f
    inv = pow(f[-1], -1, p)
    return [x * inv % p for x in f]


def _multiple_root(f: list[int], p: int) -> int | None:
    """The multiple root r (0 <= r < p) of f mod p, None if f is
    squarefree mod p; f, low to high, has degree 2 or 3 mod p, so at most
    one root is multiple.  The root is read off gcd(f, f'): (x - r) or
    (x - r)^2; where f' = 0 mod p, f = A x^p + D = A (x + D/A)^p."""
    f = [x % p for x in f]
    while f[-1] == 0:
        f.pop()
    df = [i * f[i] % p for i in range(1, len(f))]
    if not any(df):
        return -f[0] * pow(f[-1], -1, p) % p
    g = _poly_gcd_mod(f, df, p)
    if len(g) == 1:
        return None
    if len(g) == 2:
        return -g[0] % p
    # (x - r)^2 = x^2 - 2r x + r^2, and r^2 = r mod 2
    return g[0] if p == 2 else -g[1] * pow(2, -1, p) % p


def _p_overorder(F: tuple[int, int, int, int],
                 p: int) -> tuple[int, int, int, int] | None:
    """The binary cubic form of an order containing the order of F with
    index p, or None when the order of F is maximal at p (M. Bhargava,
    A. Shankar and J. Tsimerman, On the Davenport-Heilbronn theorems and
    second order terms, Invent. Math. 193 (2013), sect. 3; K. Belabas, A
    fast algorithm to compute cubic fields, Math. Comp. 66 (1997)).

    F = 0 mod p gives F/p.  Otherwise the order is not maximal at p
    exactly when F has a multiple root mod p and, with that root moved to
    (1:0) by SL_2(Z), p^2 | a; then (a/p^2, b/p, c, p d) is the form of
    the larger order."""
    if all(x % p == 0 for x in F):
        return tuple(x // p for x in F)
    a, b, c, d = F
    if a % p or b % p:
        r = _multiple_root([d, c, b, a], p)
        if r is None:
            return None
        # F'(X, Y) = F(rX - Y, X), so F'(1, 0) = F(r, 1)
        a, b, c, d = (((a * r + b) * r + c) * r + d,
                      -((3 * a * r + 2 * b) * r + c), 3 * a * r + b, -a)
    if a % (p * p):
        return None
    return a // (p * p), b // p, c, p * d


def cubic_field_disc(coeffs: tuple[int, ...]) -> int:
    """Field discriminant of the totally real cubic field defined by a
    monic integer cubic, exactly: at each prime p with p^2 | disc(f), the
    binary cubic form (1, b, c, d) of Z[x]/(f) is enlarged to its p-maximal
    order (_p_overorder), each step dividing the discriminant by p^2 or
    p^4; disc(f) divided by all of that is the field discriminant."""
    d = _poly_disc(coeffs)
    if d <= 0:
        raise ValueError("cubic is not totally real")
    out = d
    for p, e in _factorint(d).items():
        if e < 2:
            continue
        F = tuple(coeffs)
        while _poly_disc(F) % (p * p) == 0:
            G = _p_overorder(F, p)
            if G is None:
                break
            F = G
        out //= d // _poly_disc(F)
    if out % 4 not in (0, 1):
        raise ArithmeticError(f"{out} is not a discriminant")
    return out


def _real_cyclotomic_cubic(r: int) -> RationalityField:
    """Q(cos(2 pi / r)) for phi(r) = 6, by the minimal polynomial P of
    y = 2 cos(2 pi / r): Phi_r(x) = x^3 P(x + 1/x), as Phi_r is palindromic
    and x^k + x^-k is the Dickson polynomial D_k(y) (D_1 = y,
    D_2 = y^2 - 2, D_3 = y^3 - 3y)."""
    phi = _cyclotomic_coeffs(r)
    if len(phi) != 7:
        raise ArithmeticError("2 cos(2 pi / r) is not a cubic integer")
    # x^-3 Phi_r = phi_3 + phi_4 D_1 + phi_5 D_2 + phi_6 D_3
    coeffs = (phi[6], phi[5], phi[4] - 3 * phi[6], phi[3] - 2 * phi[5])
    return RationalityField(3, coeffs, cubic_field_disc(coeffs))


def rationality_field(psi) -> RationalityField:
    """The rationality field K of the associated newform: the unique
    totally real index-2 subfield of the value field."""
    field = psi.field
    d = value_field_degree(psi)
    r = psi.eta.order
    ns = list(psi.cg.orders)
    if d == 1:
        return RationalityField(1, (1, 0), 1)
    if d == 2:
        if ns and all(n == 2 for n in ns) and r <= 2:
            # L = E(sqrt(gamma)); K = Q(sqrt(Tr gamma + 2 N(t)^ell))
            if len(ns) != 1:
                raise ArithmeticError("degree 2 from more than one radical")
            theta = psi.cg.thetas[0]
            nt = psi.cg.basis[0].norm()
            gamma = psi.eta.sign(theta) * theta ** psi.ell
            radicand = gamma.trace() + 2 * nt ** psi.ell
            if radicand <= 0 or radicand.denominator != 1:
                raise ArithmeticError("radicand is not a positive integer")
            return _quad_field(fd(int(radicand)))
        if r % abs(field.disc) == 0:
            # L = Q(zeta_r): K is its real quadratic subfield
            if len(_cyclotomic_coeffs(r)) - 1 != 4:
                raise ArithmeticError("Q(zeta_r) is not quartic")
            rad = {8: 2, 12: 3}[r]
            return _quad_field(fd(rad))
        if r == 4:
            return _quad_field(fd(abs(field.disc)))
        if r == 6:
            return _quad_field(fd(3 * abs(field.disc)))
        raise ValueError("unsupported degree configuration")
    if d == 3:
        if ns and all(n == 3 for n in ns):
            theta = psi.cg.thetas[0]
            nt = int(psi.cg.basis[0].norm())
            sign = psi.eta.sign(theta)
            tr = sign * (theta ** psi.ell).trace()
            if tr.denominator != 1:
                raise ArithmeticError("trace is not an integer")
            q = abs(int(tr))
            coeffs = (1, 0, -3 * nt ** psi.ell, -q)
            return RationalityField(3, coeffs, cubic_field_disc(coeffs))
        if r % abs(field.disc) == 0 and len(_cyclotomic_coeffs(r)) - 1 == 6:
            return _real_cyclotomic_cubic(r)
        raise ValueError("unsupported degree configuration")
    raise ValueError("unsupported degree")
