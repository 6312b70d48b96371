"""Imaginary quadratic fields, their elements, and fractional ideals.

A field is fixed by a negative fundamental discriminant D.  Elements are
written over the integral basis (1, w) with w = (D + sqrt(D)) / 2, so
Tr(w) = D and N(w) = (D^2 - D) / 4, with exact rational coordinates, kept
as int where integral so that integral arithmetic stays in integers.

A fractional ideal is stored as scale * (Z*a + Z*(b + w)) with a > 0,
0 <= b < a, a | N(b + w), and a positive rational scale, an int where it
is integral, so that products and norms of integral ideals stay in
integers.  That shape is closed under multiplication, conjugation, and
inversion, and makes norms, membership, and divisibility one-line checks.

The small-integer number theory the package needs (a prime sieve,
factorization, primality, the next prime) is kept here, on ints.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt, lcm

from .abelian import _multiplicity, _power, hnf_2x2, xgcd

# Miller-Rabin with the first 13 primes as bases is exact below this bound
# (J. Sorenson and J. Webster, Strong pseudoprimes to twelve prime bases,
# Math. Comp. 86 (2017)); factorization and primality refuse larger n.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3317044064679887385961981
# Trial division runs over the primes below this bound.
_TRIAL_BOUND = 1 << 10


def _primes_up_to(n: int) -> list[int]:
    """The primes p <= n, by a sieve of Eratosthenes."""
    if n < 2:
        return []
    sieve = bytearray([1]) * (n + 1)
    sieve[0] = sieve[1] = 0
    for p in range(2, isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p::p] = bytes(len(range(p * p, n + 1, p)))
    return [p for p, flag in enumerate(sieve) if flag]


_TRIAL_PRIMES = _primes_up_to(_TRIAL_BOUND)


class SizeLimitError(ValueError):
    """An integer at or above _MR_BOUND, where factoring and primality
    are refused."""


def _check_size(n: int) -> None:
    if n >= _MR_BOUND:
        raise SizeLimitError(
            f"{n} is not below {_MR_BOUND}, the bound up to which "
            "primality is decided exactly")


def _is_prime(n: int) -> bool:
    """Whether n is prime, by deterministic Miller-Rabin; ValueError at
    and above _MR_BOUND."""
    if n < 2:
        return False
    _check_size(n)
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    if n < 43 * 43:
        return True
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _next_prime(n: int) -> int:
    """The smallest prime larger than n."""
    if n < 2:
        return 2
    m = (n + 1) | 1
    while not _is_prime(m):
        m += 2
    return m


def _pollard_brent(n: int) -> int:
    """A proper factor of the composite n with no prime factor below
    _TRIAL_BOUND: Pollard's rho in Brent's form, x -> x^2 + c with
    c = 1, 2, ... until one cycle gives a proper gcd (R. P. Brent, An
    improved Monte Carlo factorization algorithm, BIT 20 (1980))."""
    c = 0
    while True:
        c += 1
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                g = gcd(q, n)
                k += 128
            r *= 2
        if g == n:          # the batch overshot: step it one by one
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(x - ys, n)
        if g != n:
            return g


def _factorint(n: int) -> dict[int, int]:
    """The factorization {prime: exponent} of the integer n >= 1, primes
    ascending: trial division by the primes below _TRIAL_BOUND, then
    Pollard-Brent on the cofactor, whose prime factors Miller-Rabin
    certifies.  ValueError at and above _MR_BOUND, before any work."""
    if n < 1:
        raise ValueError(f"cannot factor {n}")
    _check_size(n)
    out: dict[int, int] = {}
    for p in _TRIAL_PRIMES:
        if p * p > n:
            break
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out[p] = e
    rest = [n] if n > 1 else []
    while rest:
        m = rest.pop()
        if m < _TRIAL_BOUND * _TRIAL_BOUND or _is_prime(m):
            out[m] = out.get(m, 0) + 1
        else:
            f = _pollard_brent(m)
            rest += [f, m // f]
    return dict(sorted(out.items()))


def kronecker(a: int, n: int) -> int:
    """Kronecker symbol (a / n), defined for all integers n."""
    if n == 0:
        return 1 if a in (1, -1) else 0
    sign = 1
    if n < 0:
        n = -n
        if a < 0:
            sign = -1
    twos = 0
    while n % 2 == 0:
        n //= 2
        twos += 1
    if twos:
        if a % 2 == 0:
            return 0
        if a % 8 in (3, 5) and twos % 2 == 1:
            sign = -sign
    # Jacobi symbol (a / n) for odd n > 0, by quadratic reciprocity
    a %= n
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                sign = -sign
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            sign = -sign
        a %= n
    return sign if n == 1 else 0


def _coord(v) -> int | Fraction:
    """An exact coordinate: an int where v is integral, else a Fraction."""
    if type(v) is int:
        return v
    v = Fraction(v)
    return v.numerator if v.denominator == 1 else v


def _pow_xy(x, y, e: int, d: int, nw: int):
    """(x + y*w)**e for e >= 0 on exact coordinates, by square and
    multiply with w*w = d*w - nw; integer coordinates stay ints."""
    ox, oy = 1, 0
    while True:
        if e & 1:
            ox, oy = ox * x - oy * y * nw, ox * y + oy * x + oy * y * d
        e >>= 1
        if not e:
            return ox, oy
        x, y = x * x - y * y * nw, (2 * x + y * d) * y


def _hnf_product(a1: int, b1: int, a2: int, b2: int,
                 disc: int) -> tuple[int, int, int]:
    """The product of the ideals Z*a1 + Z*(b1 + w) and Z*a2 + Z*(b2 + w)
    of the maximal order of discriminant `disc`, as (a, b, e) with
    product = e*(Z*a + Z*(b + w)) and 0 <= b < a.

    The product lattice is spanned by four integer vectors over the basis
    (1, w), using w*w = disc*w - (disc*disc - disc)/4.  Two extended-gcd
    folds of the three vectors with a w-component give the vector (x, e)
    of smallest w-component e; (a1*a2, 0) only contributes to the
    covolume, which fixes a = a1*a2 / e**2 because the norm is
    multiplicative.
    """
    e, xe = a1, a1 * b2
    for x, y in ((a2 * b1, a2), (b1 * b2 - (disc * disc - disc) // 4,
                                 b1 + b2 + disc)):
        g, u, v = xgcd(e, y)
        xe = u * xe + v * x
        e = g
    a = (a1 * a2) // (e * e)
    return a, (xe // e) % a, e


def is_fundamental(d: int) -> bool:
    """True if d is a fundamental discriminant (1 counts, 0 does not)."""
    if d == 0:
        return False
    if d == 1:
        return True
    if d % 4 == 1:
        return _is_squarefree(d)
    if d % 4 == 0:
        m = d // 4
        return m % 4 in (2, 3) and _is_squarefree(m)
    return False


def _is_squarefree(n: int) -> bool:
    return all(e == 1 for e in _factorint(abs(n)).values())


def fd(d: int) -> int:
    """The fundamental discriminant with d = f^2 * fd(d); sign is preserved."""
    if d == 0:
        raise ValueError("0 has no fundamental discriminant")
    core = 1
    for p, e in _factorint(abs(d)).items():
        if e % 2:
            core *= p
    if d < 0:
        core = -core
    return core if core % 4 == 1 else 4 * core


@dataclass(frozen=True)
class FieldE:
    """The imaginary quadratic field of fundamental discriminant `disc` < 0."""

    disc: int

    def __post_init__(self) -> None:
        if self.disc >= 0 or not is_fundamental(self.disc):
            raise ValueError(f"{self.disc} is not a negative fundamental discriminant")

    @property
    def omega_trace(self) -> int:
        return self.disc

    @property
    def omega_norm(self) -> int:
        return (self.disc * self.disc - self.disc) // 4

    def element(self, x, y=0) -> QuadElem:
        return QuadElem(self, _coord(x), _coord(y))

    @property
    def zero(self) -> QuadElem:
        return self.element(0)

    @property
    def one(self) -> QuadElem:
        return self.element(1)

    @property
    def omega(self) -> QuadElem:
        return self.element(0, 1)

    @property
    def sqrt_disc(self) -> QuadElem:
        # sqrt(D) = 2w - D.
        return self.element(-self.disc, 2)

    def roots_of_unity(self) -> list[QuadElem]:
        """The unit group: +-1, plus the extra roots for disc -4 and -3."""
        if self.disc == -4:
            i = self.element(2, 1)
            return [self.one, i, -self.one, -i]
        if self.disc == -3:
            z = self.element(2, 1)  # primitive 6th root (1 + sqrt(-3)) / 2
            out = [self.one]
            for _ in range(5):
                out.append(out[-1] * z)
            return out
        return [self.one, -self.one]

    def chi(self, n: int) -> int:
        """The quadratic character attached to the field, (disc / n)."""
        return kronecker(self.disc, n)


@dataclass(frozen=True)
class QuadElem:
    """x + y*w with exact rational coordinates (int where integral)."""

    field: FieldE
    x: int | Fraction
    y: int | Fraction

    def _coerce(self, other) -> QuadElem | None:
        if isinstance(other, QuadElem):
            return other if other.field == self.field else None
        if isinstance(other, (int, Fraction)):
            return QuadElem(self.field, _coord(other), 0)
        return None

    def __add__(self, other) -> QuadElem:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QuadElem(self.field, self.x + o.x, self.y + o.y)

    __radd__ = __add__

    def __sub__(self, other) -> QuadElem:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QuadElem(self.field, self.x - o.x, self.y - o.y)

    def __rsub__(self, other) -> QuadElem:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self) -> QuadElem:
        return QuadElem(self.field, -self.x, -self.y)

    def __mul__(self, other) -> QuadElem:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        d = self.field.disc
        nw = self.field.omega_norm
        x = self.x * o.x - self.y * o.y * nw
        y = self.x * o.y + self.y * o.x + self.y * o.y * d
        return QuadElem(self.field, x, y)

    __rmul__ = __mul__

    def __truediv__(self, other) -> QuadElem:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        n = o.norm()
        if n == 0:
            raise ZeroDivisionError("division by zero element")
        num = self * o.conj()
        return QuadElem(self.field, _coord(Fraction(num.x, n)),
                        _coord(Fraction(num.y, n)))

    def __rtruediv__(self, other) -> QuadElem:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __pow__(self, e: int) -> QuadElem:
        if e < 0:
            return (self.field.one / self) ** (-e)
        x, y = _pow_xy(self.x, self.y, e, self.field.disc,
                       self.field.omega_norm)
        return QuadElem(self.field, _coord(x), _coord(y))

    def conj(self) -> QuadElem:
        # w + wbar = D, so conj(x + y*w) = (x + y*D) - y*w.
        return QuadElem(self.field, self.x + self.y * self.field.disc, -self.y)

    def norm(self) -> Fraction:
        d = self.field.disc
        return self.x * self.x + self.x * self.y * d + self.y * self.y * self.field.omega_norm

    def trace(self) -> Fraction:
        return 2 * self.x + self.y * self.field.disc

    @property
    def is_integral(self) -> bool:
        return self.x.denominator == 1 and self.y.denominator == 1

    def __repr__(self) -> str:
        return f"({self.x} + {self.y}*w | D={self.field.disc})"


@dataclass(frozen=True)
class QIdeal:
    """Fractional ideal scale * (Z*a + Z*(b + w)); the scale is an int
    where it is integral."""

    field: FieldE
    a: int
    b: int
    scale: int | Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "scale", _coord(self.scale))
        a, b = self.a, self.b
        if a <= 0 or not (0 <= b < a) or self.scale <= 0:
            raise ValueError("ideal basis not in reduced form")
        # N(b + w) = b^2 + b*D + (D^2 - D)/4
        if (b * b + b * self.field.disc + self.field.omega_norm) % a:
            raise ValueError("lattice is not an ideal: a must divide N(b + w)")

    @classmethod
    def unit_ideal(cls, field: FieldE) -> QIdeal:
        return cls(field, 1, 0, 1)

    @classmethod
    def from_hnf(cls, field: FieldE, a: int, b: int, scale=1) -> QIdeal:
        if a <= 0:
            raise ValueError("the HNF needs a positive a")
        return cls(field, a, b % a, scale)

    @classmethod
    def from_element(cls, elem: QuadElem) -> QIdeal:
        """The principal fractional ideal (elem), in one step.

        With den the least integer making den*elem integral, write
        den*elem = g*beta for beta = x + y*w primitive.  Then (beta) is a
        primitive ideal of norm n = N(beta), so it is Z*n + Z*(b + w),
        and y*(b + w) - beta = y*b - x lies in Z*n: b = x/y mod n, where
        y is invertible since n = x**2 mod y and gcd(x, y) = 1.  The
        ideal is (g/den)*(Z*n + Z*(b + w))."""
        if not (elem.x or elem.y):
            raise ValueError("zero element generates no fractional ideal")
        field = elem.field
        den = lcm(elem.x.denominator, elem.y.denominator)
        x, y = int(elem.x * den), int(elem.y * den)
        g = gcd(x, y)
        x, y = x // g, y // g
        n = x * x + x * y * field.disc + y * y * field.omega_norm
        b = x * pow(y, -1, n) % n if n > 1 else 0
        return cls(field, n, b, g if den == 1 else Fraction(g, den))

    @classmethod
    def from_generators(cls, field: FieldE, elems: list[QuadElem]) -> QIdeal:
        """The integral ideal generated by integral elements: the HNF of
        the rows of each g = x + y*w and g*w = -y N(w) + (x + y D) w."""
        rows: list[tuple[int, int]] = []
        nw, disc = field.omega_norm, field.disc
        for g in elems:
            if not g.is_integral:
                raise ValueError("generators must be integral")
            x, y = int(g.x), int(g.y)
            rows += [(x, y), (-y * nw, x + y * disc)]
        a, c, d = hnf_2x2(rows)
        if d == 0:
            raise ValueError("generators span no full lattice")
        if a % d or c % d:
            raise ArithmeticError("generated lattice is not an ideal")
        return cls(field, a // d, (c // d) % (a // d), d)

    # Arithmetic ---------------------------------------------------------

    def norm(self) -> int | Fraction:
        return self.scale * self.scale * self.a

    def conj(self) -> QIdeal:
        bb = (-(self.b + self.field.disc)) % self.a
        return QIdeal(self.field, self.a, bb, self.scale)

    def __mul__(self, other) -> QIdeal:
        if isinstance(other, QIdeal):
            if other.field != self.field:
                raise ValueError("ideals of different fields")
            a, b, e = _hnf_product(self.a, self.b, other.a, other.b,
                                   self.field.disc)
            return QIdeal(self.field, a, b, self.scale * other.scale * e)
        if isinstance(other, QuadElem):
            return self * QIdeal.from_element(other)
        if isinstance(other, (int, Fraction)) and other > 0:
            return QIdeal(self.field, self.a, self.b, self.scale * other)
        return NotImplemented

    __rmul__ = __mul__

    def inverse(self) -> QIdeal:
        c = self.conj()
        return QIdeal(c.field, c.a, c.b, Fraction(c.scale, self.norm()))

    def __truediv__(self, other: QIdeal) -> QIdeal:
        return self * other.inverse()

    def __pow__(self, e: int) -> QIdeal:
        if e < 0:
            return self.inverse() ** (-e)
        return _power(QIdeal.unit_ideal(self.field), self, e, operator.mul)

    # Membership and divisibility ---------------------------------------

    def contains(self, elem: QuadElem) -> bool:
        scale = Fraction(self.scale)
        beta = elem.y / scale
        if beta.denominator != 1:
            return False
        alpha = (elem.x / scale - beta * self.b) / self.a
        return alpha.denominator == 1

    @property
    def is_integral(self) -> bool:
        return self.scale.denominator == 1

    def divides(self, other: QIdeal) -> bool:
        return (other / self).is_integral

    def basis(self) -> tuple[QuadElem, QuadElem]:
        return (
            self.field.element(self.scale * self.a),
            self.field.element(self.scale * self.b, self.scale),
        )

    # Primes and factorization ------------------------------------------

    @classmethod
    def primes_over(cls, field: FieldE, p: int) -> list[QIdeal]:
        """The prime ideals above the rational prime p, memoized per
        (field, p) until survey.clear_memo().

        Split: two ideals (smaller b first).  Ramified: one.  Inert: (p).
        """
        return list(_primes_over(field, p))

    def _prime_over(self) -> tuple[int, int]:
        """(p, chi_E(p)) for a prime ideal over the rational prime p."""
        if self.a == 1 and self.scale.denominator == 1:
            p = self.scale.numerator            # inert: (p)
        elif self.scale == 1:
            p = self.a                          # split or ramified: (p, b + w)
        else:
            p = 0
        chi = self.field.chi(p) if p > 1 else None
        if chi is None or (chi == -1) != (self.a == 1) or not _is_prime(p):
            raise ValueError(f"{self!r} is not a prime ideal")
        return p, chi

    def valuation(self, prime: QIdeal) -> int:
        """v_prime(self) for a prime ideal; works for fractional ideals.

        An integral ideal is s*I with I = Z*a + Z*(b + w) primitive: no
        rational prime divides I, so (p) = P*conj(P) never does, and the
        valuation is read off the integers s, a, b.  Inert P = (p):
        v_p(s).  Ramified: 2*v_p(s) + v_p(a).  Split P = (p, b_P + w):
        I lies in P or in conj(P) when p | a, in P exactly when b + w does,
        so v_p(s) + v_p(a) if b = b_P mod p, else v_p(s).
        """
        if not self.is_integral:
            d = self.scale.denominator
            pd = QIdeal.from_element(self.field.element(d))
            return (self * d).valuation(prime) - pd.valuation(prime)
        p, chi = prime._prime_over()
        v = _multiplicity(p, self.scale.numerator)
        if chi == -1:
            return v
        va = _multiplicity(p, self.a)
        if chi == 0:
            return 2 * v + va
        return v + (va if (self.b - prime.b) % p == 0 else 0)

    def factor(self) -> dict[QIdeal, int]:
        """Prime factorization; negative exponents for true denominators."""
        if not self.is_integral:
            d = self.scale.denominator
            fnum = (self * d).factor()
            fden = QIdeal.from_element(self.field.element(d)).factor()
            out = dict(fnum)
            for pr, e in fden.items():
                out[pr] = out.get(pr, 0) - e
            return {pr: e for pr, e in out.items() if e != 0}
        out: dict[QIdeal, int] = {}
        for p in _factorint(self.scale.numerator * self.a):
            for pr in QIdeal.primes_over(self.field, p):
                v = self.valuation(pr)
                if v:
                    out[pr] = v
        return out

    def is_principal(self) -> QuadElem | None:
        """A generator if the ideal is principal, else None.

        The primitive part is principal iff its reduction (_reduce_link)
        ends at norm 1, when the link generates it.  Returns the scaled
        generator of largest (y, x), a deterministic associate choice.
        """
        d = self.field.disc
        nw = self.field.omega_norm
        a, _, x, y, den = _reduce_link(self.a, self.b, d, nw)
        if a != 1:
            return None
        # the associates: powers of the unit 2 + w (a root of unity of
        # order 4 at D = -4 and 6 at D = -3), else of -1
        n = {-3: 6, -4: 4}.get(d, 2)
        ux, uy = (2, 1) if n > 2 else (-1, 0)
        x, y = x // den, y // den
        best = (y, x)
        for _ in range(n - 1):
            x, y = x * ux - y * uy * nw, x * uy + y * ux + y * uy * d
            best = max(best, (y, x))
        y, x = best
        return QuadElem(self.field, x * self.scale, y * self.scale)

    def __repr__(self) -> str:
        return f"{self.scale}*(Z{self.a} + Z({self.b}+w) | D={self.field.disc})"


def _reduce_link(a: int, b: int, d: int,
                 nw: int) -> tuple[int, int, int, int, int]:
    """Reduce the primitive ideal I = Z*a + Z*(b + w) of discriminant d,
    N(w) = nw, as its binary form (a, B, c), B = -(2b + d), reduces,
    keeping the element that links each step: with b moved by a multiple
    of a until -a < B <= a, and c = N(b + w)/a, a step is taken while
    c < a, or c = a and B < 0 (then it only flips the sign of B), by
    Z*a + Z*(b + w) = ((b + w)/c) * (Z*c + Z*(-b - d + w)).  Returns
    (a', b', x, y, den) with I = ((x + y*w)/den) * J for the end ideal
    J = Z*a' + Z*(b' + w), the ideal of the unique reduced form in the
    class of I (H. Cohen, A Course in Computational Algebraic Number
    Theory, GTM 138, 5.2-5.4)."""
    x, y, den = 1, 0, 1         # the product of the links, (x + y*w)/den
    while True:
        b -= a * ((2 * b + d + a) // (2 * a))
        c = (b * b + b * d + nw) // a
        if c > a or (c == a and 2 * b + d <= 0):
            return a, b, x, y, den
        x, y, den = x * b - y * nw, x + y * (b + d), den * c
        a, b = c, -b - d


def _class_key(a: int, b: int, d: int, nw: int) -> tuple[int, int]:
    """The ideal class of Z*a + Z*(b + w) as the HNF (a', b') of the end
    of its reduction: equal keys exactly for equal classes."""
    a, b = _reduce_link(a, b, d, nw)[:2]
    return a, b % a


def _sqrt_mod_prime(a: int, p: int) -> int | None:
    """A square root of a modulo the odd prime p, None if a is not a
    square mod p; the other root is p minus it (Tonelli-Shanks, H. Cohen,
    A Course in Computational Algebraic Number Theory, GTM 138, Alg.
    1.5.1)."""
    a %= p
    if a == 0:
        return 0
    if pow(a, (p - 1) // 2, p) != 1:
        return None
    if p % 4 == 3:
        return pow(a, (p + 1) // 4, p)
    q, e = p - 1, 0
    while q % 2 == 0:
        q //= 2
        e += 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    # invariants: x**2 = a*t, y has order 2**e, t has order 2**m, m < e
    y, x, t = pow(z, q, p), pow(a, (q + 1) // 2, p), pow(a, q, p)
    while t != 1:
        m, t2 = 0, t
        while t2 != 1:
            t2 = t2 * t2 % p
            m += 1
        b = pow(y, 1 << (e - m - 1), p)
        y = b * b % p
        x, t, e = x * b % p, t * y % p, m
    return x


def _prime_ideals(field: FieldE, p: int, chi: int) -> tuple[QIdeal, ...]:
    """The prime ideals above the rational prime p with chi = chi_E(p),
    split ones by increasing b; p is taken to be prime."""
    if chi == -1:
        return (QIdeal(field, 1, 0, p),)
    if p == 2:
        bs = [b for b in range(2) if field.element(b, 1).norm() % 2 == 0]
    else:
        d = field.disc
        s = _sqrt_mod_prime(d, p)
        roots = () if s is None else (s, p - s)
        inv2 = (p + 1) // 2
        bs = sorted({(r - d) * inv2 % p for r in roots})
    out = tuple(QIdeal(field, p, b, 1) for b in bs)
    if len(out) != (2 if chi == 1 else 1):
        raise ArithmeticError(f"wrong number of primes over {p}")
    return out


@lru_cache(maxsize=None)
def _primes_over(field: FieldE, p: int) -> tuple[QIdeal, ...]:
    if not _is_prime(p):
        raise ValueError(f"{p} is not prime")
    return _prime_ideals(field, p, field.chi(p))
