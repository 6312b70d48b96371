"""Ideal class groups of imaginary quadratic fields via binary quadratic forms.

A class of fractional ideals of E corresponds to an SL_2(Z)-class of
primitive positive definite binary quadratic forms of discriminant Delta_E,
and each class contains a unique reduced form.  Reduced forms give a
canonical set of class representatives, which we use both to count classes
and to build explicit generator/discrete-log data for the class group.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt

from .abelian import decompose_from_generators
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
    assert c.denominator == 1 and int(c) % a == 0
    form = BinaryQF(a, b_coef, int(c) // a)
    assert form.disc == field.disc
    return form


def ideal_of_form(field: FieldE, form: BinaryQF) -> QIdeal:
    if form.disc != field.disc:
        raise ValueError("form discriminant does not match the field")
    b = ((-form.b - field.disc) // 2) % form.a
    return QIdeal(field, form.a, b, Fraction(1))


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
    decomp = decompose_from_generators(identity, gens, lambda f, g: (f * g))
    h = decomp.order
    assert h == class_number(disc), "relation lattice disagrees with form count"
    divisors = tuple(sorted((o for o in decomp.orders if o > 1), reverse=True))
    return h, divisors


def _small_split_primes(field: FieldE) -> list[int]:
    from sympy import primerange

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
        n = 1
        for o in self.orders:
            n *= o
        return n

    def dlog(self, ideal: QIdeal) -> tuple[int, ...]:
        form = form_of_ideal(ideal).reduce()
        return self._dlog_table[form]

    def is_principal_class(self, ideal: QIdeal) -> bool:
        return all(e == 0 for e in self.dlog(ideal))


def class_group(field: FieldE, coprime_to: int = 1) -> ClassGroup:
    """Class group with split prime ideal generators avoiding ``coprime_to``.

    Generators are chosen deterministically: scan split primes in increasing
    order, keeping a prime whose class has the required order and generates a
    subgroup independent of the ones already kept.
    """
    return _class_group(field.disc, coprime_to)


@lru_cache(maxsize=None)
def _class_group(disc: int, coprime_to: int) -> ClassGroup:
    field = _field(disc)
    h, divisors = class_structure(field)
    if h == 1:
        return ClassGroup(field, (), (), (), {identity_form(field.disc): ()})

    identity = identity_form(field.disc)
    chosen: list[QIdeal] = []
    chosen_forms: list[BinaryQF] = []
    if not _search_basis(field, divisors, 0, [], chosen, chosen_forms,
                         coprime_to, identity):
        raise RuntimeError("no split-prime generating set found")

    thetas = []
    for ideal, order in zip(chosen, divisors):
        power = ideal ** order
        theta = power.is_principal()
        assert theta is not None
        thetas.append(theta)

    table: dict[BinaryQF, tuple[int, ...]] = {}
    _fill_dlog(identity, chosen_forms, divisors, 0, identity, (), table)
    assert len(table) == h
    return ClassGroup(field, tuple(divisors), tuple(chosen),
                      tuple(thetas), table)


def _search_basis(field, divisors, idx, sub_forms, chosen, chosen_forms,
                  coprime_to, identity):
    """Pick a split prime per divisor so the generated subgroups direct-sum."""
    if idx == len(divisors):
        return True
    want = divisors[idx]
    current = set(sub_forms) if sub_forms else {identity}
    from sympy import nextprime

    p = 1
    for _ in range(2000):
        p = nextprime(p)
        if coprime_to % p == 0 or field.chi(p) != 1:
            continue
        prime = QIdeal.primes_over(field, p)[0]
        base = form_of_ideal(prime).reduce()
        # The class must have absolute order exactly `want` and meet the
        # current subgroup trivially, so the sum stays direct.
        powers = [identity]
        ok = True
        for j in range(1, want + 1):
            powers.append(powers[-1] * base)
            if j < want and powers[-1] in current:
                ok = False
                break
        if not ok or powers[want] != identity:
            continue
        new_sub = {f * g for f in current for g in powers[:want]}
        assert len(new_sub) == len(current) * want
        chosen.append(prime)
        chosen_forms.append(base)
        if _search_basis(field, divisors, idx + 1, new_sub, chosen,
                         chosen_forms, coprime_to, identity):
            return True
        chosen.pop()
        chosen_forms.pop()
    return False


def _fill_dlog(identity, gens, orders, idx, acc, expo, table):
    if idx == len(gens):
        table[acc] = expo
        return
    cur = acc
    for e in range(orders[idx]):
        _fill_dlog(identity, gens, orders, idx + 1, cur, expo + (e,), table)
        cur = cur * gens[idx]


def enumerate_discriminants(bound: int, exponent: int | None = None) -> list[int]:
    """Fundamental discriminants -bound <= d < 0, optionally filtered so the
    class group has the given exponent."""
    out = []
    for d in range(-3, -bound - 1, -1):
        if not is_fundamental(d):
            continue
        if exponent is None:
            out.append(d)
            continue
        _, divisors = class_structure(FieldE(d))
        ex = divisors[0] if divisors else 1
        if ex == exponent:
            out.append(d)
    return out
