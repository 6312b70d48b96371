"""Ideal class groups of imaginary quadratic fields via binary quadratic forms.

A class of fractional ideals of E corresponds to an SL_2(Z)-class of
primitive positive definite binary quadratic forms of discriminant Delta_E,
and each class contains a unique reduced form.  Reduced forms give a
canonical set of class representatives, which we use both to count classes
and to build explicit generator/discrete-log data for the class group.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import gcd, isqrt, prod
from operator import mul

from sympy import nextprime, primefactors, primerange

from .abelian import _power, decompose_from_generators, extend_span
from .quadfield import FieldE, QIdeal, _hnf_product, is_fundamental


@lru_cache(maxsize=None)
def _field(disc: int) -> FieldE:
    return FieldE(disc)


@dataclass(frozen=True)
class BinaryQF:
    """Primitive positive definite integral form a*x^2 + b*x*y + c*y^2."""

    a: int
    b: int
    c: int

    def __post_init__(self) -> None:
        if self.a <= 0 or self.disc >= 0:
            raise ValueError("form must be positive definite")
        if gcd(gcd(self.a, self.b), self.c) != 1:
            raise ValueError("form must be primitive")

    @property
    def disc(self) -> int:
        return self.b * self.b - 4 * self.a * self.c

    def is_reduced(self) -> bool:
        # |b| <= a <= c, with b >= 0 if |b| == a or a == c.
        if not (abs(self.b) <= self.a <= self.c):
            return False
        if (abs(self.b) == self.a or self.a == self.c) and self.b < 0:
            return False
        return True

    def reduce(self) -> BinaryQF:
        a, b, c = self.a, self.b, self.c
        while True:
            if a > c:
                a, b, c = c, -b, a
                continue
            if b > a or b <= -a:
                # Translate b into (-a, a].
                r = b % (2 * a)
                if r > a:
                    r -= 2 * a
                c = c + (r * r - b * b) // (4 * a)
                b = r
                continue
            break
        if (b == -a) or (a == c and b < 0):
            b = -b
        return BinaryQF(a, b, c)

    def __mul__(self, other: BinaryQF) -> BinaryQF:
        """Composition of form classes via the ideal dictionary, in integers.

        Each form corresponds to the lattice Z*a + Z*(b + w) with
        w = (D + sqrt(D))/2; the product lattice in Hermite form is
        e*(Z*a' + Z*(b' + w)), and the scale e drops out of the class.
        """
        if not isinstance(other, BinaryQF):
            return NotImplemented
        d = self.disc
        if d != other.disc:
            raise ValueError("forms must share a discriminant")
        b1 = ((-self.b - d) // 2) % self.a
        b2 = ((-other.b - d) // 2) % other.a
        ap, bp, _ = _hnf_product(self.a, b1, other.a, b2, d)
        cp = (bp * bp + bp * d + (d * d - d) // 4) // ap
        return BinaryQF(ap, -(2 * bp + d), cp).reduce()

    def inverse(self) -> BinaryQF:
        return BinaryQF(self.a, -self.b, self.c).reduce()


def identity_form(disc: int) -> BinaryQF:
    b = disc % 2
    return BinaryQF(1, b, (b * b - disc) // 4)


def form_of_ideal(ideal: QIdeal) -> BinaryQF:
    """Form class of an ideal; the scale drops out, so any representative works."""
    field = ideal.field
    a = ideal.a
    b_coef = -(2 * ideal.b + field.disc)
    c = field.element(ideal.b, 1).norm()
    if c.denominator != 1 or int(c) % a != 0:
        raise ValueError(f"{ideal!r} is not an integral HNF ideal")
    form = BinaryQF(a, b_coef, int(c) // a)
    if form.disc != field.disc:
        raise ArithmeticError("form discriminant differs from the field's")
    return form


@lru_cache(maxsize=None)
def reduced_forms(disc: int) -> list[BinaryQF]:
    """All reduced primitive forms of discriminant disc, sorted by (a, b)."""
    if disc >= 0 or disc % 4 not in (0, 1):
        raise ValueError("need a negative discriminant = 0 or 1 mod 4")
    forms = []
    b_max = isqrt(-disc // 3)
    for b in range(-b_max, b_max + 1):
        if (b - disc) % 2 != 0:
            continue
        ac4 = b * b - disc
        if ac4 % 4 != 0:
            continue
        ac = ac4 // 4
        for a in range(max(1, abs(b)), isqrt(ac) + 1):
            if ac % a != 0:
                continue
            c = ac // a
            try:
                form = BinaryQF(a, b, c)
            except ValueError:
                continue
            if form.is_reduced():
                forms.append(form)
    return sorted(forms, key=lambda f: (f.a, f.b))


class ClassNumberMismatch(ArithmeticError):
    """The relation lattice of the split-prime classes and the count of
    reduced forms give different class numbers."""


def class_number(disc: int) -> int:
    return len(reduced_forms(disc))


def class_structure(field: FieldE) -> tuple[int, tuple[int, ...]]:
    """Class number and elementary divisors (largest first) of Cl(E).

    Generated by classes of prime ideals over the non-inert primes up to the
    reduction bound floor(sqrt(|Delta|/3)): every reduced form's leading
    coefficient factors into such primes.
    """
    return _class_structure(field.disc)


@lru_cache(maxsize=None)
def _class_structure(disc: int) -> tuple[int, tuple[int, ...]]:
    field = _field(disc)
    identity = identity_form(disc)
    gens = []
    for p in _small_split_primes(field):
        prime = QIdeal.primes_over(field, p)[0]
        gens.append(form_of_ideal(prime).reduce())
    _, orders = decompose_from_generators(identity, gens, mul)
    h = prod(orders)
    if h != class_number(disc):
        raise ClassNumberMismatch(
            f"relation lattice order {h} disagrees with the form count "
            f"{class_number(disc)} at disc {disc}")
    return h, tuple(sorted(orders, reverse=True))


def _small_split_primes(field: FieldE) -> list[int]:
    bound = isqrt(-field.disc // 3)
    return [p for p in primerange(2, bound + 1) if field.chi(p) != -1]


@dataclass(frozen=True)
class ClassGroup:
    """Explicit class group data: split-prime generators matching Cl(E).

    basis[i] is a split prime ideal whose class has order ``orders[i]``, the
    classes together giving an internal direct sum Cl(E) = prod <basis[i]>.
    thetas[i] generates basis[i] ** orders[i].  ``dlog`` sends a reduced form
    to its exponent vector.
    """

    field: FieldE
    orders: tuple[int, ...]
    basis: tuple[QIdeal, ...]
    thetas: tuple
    _dlog_table: dict[BinaryQF, tuple[int, ...]]

    @property
    def order(self) -> int:
        return prod(self.orders)

    def dlog(self, ideal: QIdeal) -> tuple[int, ...]:
        form = form_of_ideal(ideal).reduce()
        return self._dlog_table[form]

    def is_principal_class(self, ideal: QIdeal) -> bool:
        return all(e == 0 for e in self.dlog(ideal))


def class_group(field: FieldE, coprime_to: int = 1) -> ClassGroup:
    """Class group with split prime ideal generators avoiding ``coprime_to``.

    Generators are chosen deterministically: scan split primes in increasing
    order, keeping a prime whose class has the required order and generates a
    subgroup independent of the ones already kept.  Only the primes of
    ``coprime_to`` matter, so the cache is keyed on its radical.
    """
    if coprime_to > 1:
        coprime_to = prod(primefactors(coprime_to))
    return _class_group(field.disc, coprime_to)


@lru_cache(maxsize=None)
def _class_group(disc: int, coprime_to: int) -> ClassGroup:
    field = _field(disc)
    h, divisors = class_structure(field)
    chosen: list[QIdeal] = []
    table = _search_basis(field, divisors, coprime_to, chosen,
                          {identity_form(disc): ()})
    if table is None:
        raise RuntimeError("no split-prime generating set found")

    thetas = []
    for ideal, order in zip(chosen, divisors):
        power = ideal ** order
        theta = power.is_principal()
        if theta is None:
            raise ArithmeticError(
                f"basis ideal to the power {order} is not principal "
                f"at disc {disc}")
        thetas.append(theta)

    if len(table) != h:
        raise ClassNumberMismatch(
            f"dlog table has {len(table)} classes, not {h}, at disc {disc}")
    return ClassGroup(field, divisors, tuple(chosen), tuple(thetas), table)


def _search_basis(field, divisors, coprime_to, chosen, table):
    """Pick a split prime per divisor so the generated subgroups direct-sum.

    `table` sends each form of the span of the chosen classes to its
    exponent vector; returns the table of the whole basis, or None.
    """
    idx = len(chosen)
    if idx == len(divisors):
        return table
    want = divisors[idx]
    identity = identity_form(field.disc)
    p = 1
    for _ in range(2000):
        p = nextprime(p)
        if coprime_to % p == 0 or field.chi(p) != 1:
            continue
        prime = QIdeal.primes_over(field, p)[0]
        base = form_of_ideal(prime).reduce()
        # The class must have absolute order exactly `want` and meet the
        # current subgroup trivially, so the sum stays direct.
        power = identity
        ok = True
        for j in range(1, want + 1):
            power = power * base
            if j < want and power in table:
                ok = False
                break
        if not ok or power != identity:
            continue
        span = extend_span(table, base, want, mul)
        if len(span) != len(table) * want:
            raise ArithmeticError("generated subgroups do not direct-sum")
        chosen.append(prime)
        found = _search_basis(field, divisors, coprime_to, chosen, span)
        if found is not None:
            return found
        chosen.pop()
    return None


def _has_exponent(disc: int, exponent: int) -> bool:
    """Whether the form class group of disc has exactly this exponent.

    Read off the reduced forms: every prime factor of h must divide the
    exponent e, every class must satisfy f**e = 1, and for each prime
    p | e some class must have f**(e/p) != 1.  For e = 2 this says every
    reduced form is ambiguous.
    """
    forms = reduced_forms(disc)
    rest = len(forms)
    g = gcd(rest, exponent)
    while g > 1:
        rest //= g
        g = gcd(rest, exponent)
    if rest != 1:
        return False
    identity = identity_form(disc)
    if any(_power(identity, f, exponent, mul) != identity for f in forms):
        return False
    return all(any(_power(identity, f, exponent // p, mul) != identity
                   for f in forms)
               for p in primefactors(exponent))


def enumerate_discriminants(bound: int, exponent: int | None = None) -> list[int]:
    """Fundamental discriminants -bound <= d < 0, optionally filtered so the
    class group has the given exponent."""
    if exponent is not None and exponent < 1:
        raise ValueError("the exponent must be a positive integer")
    return [d for d in range(-3, -bound - 1, -1) if is_fundamental(d)
            and (exponent is None or _has_exponent(d, exponent))]
