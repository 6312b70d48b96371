"""Ideal class groups of imaginary quadratic fields via reduced ideals.

A class of fractional ideals of E corresponds to an SL_2(Z)-class of
primitive positive definite binary quadratic forms of discriminant Delta_E,
and each class contains a unique reduced form.  A class is kept as the
pair (a, b) of the ideal Z*a + Z*(b + w) of that form, the end of the
ideal's reduction (quadfield._class_key); composition is the ideal product
followed by that reduction.  The reduced ideals count the classes and key
the explicit generator/discrete-log data of the class group.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import gcd, isqrt, prod

from .abelian import _power, decompose_from_generators, extend_span
from .quadfield import (FieldE, QIdeal, _class_key, _factorint, _hnf_product,
                        _next_prime, _primes_up_to, is_fundamental)

IDENTITY = (1, 0)


def _key(ideal: QIdeal) -> tuple[int, int]:
    """The class of an ideal; the scale drops out."""
    field = ideal.field
    return _class_key(ideal.a, ideal.b, field.disc, field.omega_norm)


def _composer(disc: int):
    """Composition of the classes (a, b) of discriminant disc."""
    nw = (disc * disc - disc) // 4

    def mul(i: tuple[int, int], j: tuple[int, int]) -> tuple[int, int]:
        a, b, _ = _hnf_product(*i, *j, disc)
        return _class_key(a, b, disc, nw)
    return mul


@lru_cache(maxsize=None)
def reduced_ideals(disc: int) -> tuple[tuple[int, int], ...]:
    """The ideals Z*a + Z*(b + w), as (a, b), of the reduced primitive
    forms (a, B, c) of discriminant disc, B = -(2b + disc), sorted by
    (a, B)."""
    if disc >= 0 or disc % 4 not in (0, 1):
        raise ValueError("need a negative discriminant = 0 or 1 mod 4")
    forms = []
    b_max = isqrt(-disc // 3)
    for B in range(-b_max, b_max + 1):
        if (B - disc) % 2 != 0:
            continue
        ac = (B * B - disc) // 4
        for a in range(max(1, abs(B)), isqrt(ac) + 1):
            c, r = divmod(ac, a)
            # |B| <= a <= c here; reduced asks B >= 0 if |B| = a or a = c
            if r or gcd(gcd(a, B), c) != 1 or (B < 0 and a in (-B, c)):
                continue
            forms.append((a, B))
    return tuple((a, (-B - disc) // 2 % a) for a, B in sorted(forms))


class ClassNumberMismatch(ArithmeticError):
    """The relation lattice of the split-prime classes and the count of
    reduced ideals give different class numbers."""


def class_number(disc: int) -> int:
    return len(reduced_ideals(disc))


def class_structure(field: FieldE) -> tuple[int, tuple[int, ...]]:
    """Class number and elementary divisors (largest first) of Cl(E).

    Generated by classes of prime ideals over the non-inert primes up to the
    reduction bound floor(sqrt(|Delta|/3)): every reduced ideal's norm
    factors into such primes.
    """
    return _class_structure(field.disc)


@lru_cache(maxsize=None)
def _class_structure(disc: int) -> tuple[int, tuple[int, ...]]:
    field = FieldE(disc)
    gens = [_key(QIdeal.primes_over(field, p)[0])
            for p in _small_split_primes(field)]
    _, orders = decompose_from_generators(IDENTITY, gens, _composer(disc))
    h = prod(orders)
    if h != class_number(disc):
        raise ClassNumberMismatch(
            f"relation lattice order {h} disagrees with the form count "
            f"{class_number(disc)} at disc {disc}")
    return h, tuple(sorted(orders, reverse=True))


def _small_split_primes(field: FieldE) -> list[int]:
    bound = isqrt(-field.disc // 3)
    return [p for p in _primes_up_to(bound) if field.chi(p) != -1]


@dataclass(frozen=True)
class ClassGroup:
    """Explicit class group data: split-prime generators matching Cl(E).

    basis[i] is a split prime ideal whose class has order ``orders[i]``, the
    classes together giving an internal direct sum Cl(E) = prod <basis[i]>.
    thetas[i] generates basis[i] ** orders[i].  ``dlog`` sends an ideal to
    the exponent vector of its class, which ``_dlog_table`` holds per
    reduced ideal (a, b).
    """

    field: FieldE
    orders: tuple[int, ...]
    basis: tuple[QIdeal, ...]
    thetas: tuple
    _dlog_table: dict[tuple[int, int], tuple[int, ...]]

    @property
    def order(self) -> int:
        return prod(self.orders)

    def dlog(self, ideal: QIdeal) -> tuple[int, ...]:
        return self._dlog_table[_key(ideal)]


def class_group(field: FieldE, coprime_to: int = 1) -> ClassGroup:
    """Class group with split prime ideal generators avoiding ``coprime_to``.

    Generators are chosen deterministically: scan split primes in increasing
    order, keeping a prime whose class has the required order and generates a
    subgroup independent of the ones already kept.  Only the primes of
    ``coprime_to`` matter, so the cache is keyed on its radical.
    """
    if coprime_to > 1:
        coprime_to = prod(_factorint(coprime_to))
    return _class_group(field.disc, coprime_to)


@lru_cache(maxsize=None)
def _class_group(disc: int, coprime_to: int) -> ClassGroup:
    field = FieldE(disc)
    h, divisors = class_structure(field)
    chosen: list[QIdeal] = []
    table = _search_basis(field, divisors, coprime_to, chosen,
                          {IDENTITY: ()})
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

    `table` sends each class of the span of the chosen classes to its
    exponent vector; returns the table of the whole basis, or None.
    """
    idx = len(chosen)
    if idx == len(divisors):
        return table
    want = divisors[idx]
    mul = _composer(field.disc)
    p = 1
    for _ in range(2000):
        p = _next_prime(p)
        if coprime_to % p == 0 or field.chi(p) != 1:
            continue
        prime = QIdeal.primes_over(field, p)[0]
        base = _key(prime)
        # The class must have absolute order exactly `want` and meet the
        # current subgroup trivially, so the sum stays direct.
        power = IDENTITY
        ok = True
        for j in range(1, want + 1):
            power = mul(power, base)
            if j < want and power in table:
                ok = False
                break
        if not ok or power != IDENTITY:
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


@lru_cache(maxsize=None)
def _class_numbers(bound: int) -> tuple[int, ...]:
    """h(d) at index -d for every discriminant -bound <= d < 0 (0 where
    d is not 0 or 1 mod 4), from one pass over the reduced primitive
    forms (a, B, c): |B| <= a <= c, B >= 0 when |B| = a or a = c, and
    4ac - B^2 <= bound.  For fixed (a, B) the discriminants step by 4a
    in c, and the form is primitive iff gcd(a, B) and c are coprime."""
    counts = [0] * (bound + 1)
    a = 1
    while 3 * a * a <= bound:
        for B in range(1 - a, a + 1):
            g = gcd(a, B)
            # c = a is reduced only for B >= 0
            c0 = a if B >= 0 else a + 1
            n0 = 4 * a * c0 - B * B
            step = 4 * a
            if g == 1:
                for n in range(n0, bound + 1, step):
                    counts[n] += 1
            else:
                c = c0
                for n in range(n0, bound + 1, step):
                    if gcd(g, c) == 1:
                        counts[n] += 1
                    c += 1
        a += 1
    return tuple(counts)


def _has_exponent(disc: int, exponent: int) -> bool:
    """Whether the class group of disc, whose order has no prime factor
    outside the exponent e, has exactly this exponent.

    Read off the reduced ideals: every class must satisfy f**e = 1, and
    for each prime p | e some class must have f**(e/p) != 1.  For e = 2
    this says every reduced form is ambiguous.
    """
    classes = reduced_ideals(disc)
    mul = _composer(disc)
    if any(_power(IDENTITY, f, exponent, mul) != IDENTITY for f in classes):
        return False
    return all(any(_power(IDENTITY, f, exponent // p, mul) != IDENTITY
                   for f in classes)
               for p in _factorint(exponent))


def _divides_a_power_of(h: int, e: int) -> bool:
    """Whether every prime factor of h divides e."""
    g = gcd(h, e)
    while g > 1:
        h //= g
        g = gcd(h, e)
    return h == 1


def enumerate_discriminants(bound: int, exponent: int) -> list[int]:
    """Fundamental discriminants -bound <= d < 0 whose class group has the
    given exponent.

    The class numbers of the whole range come from one sieve
    (_class_numbers).  Exponent 2 is decided by Gauss's genus theory: for
    fundamental d with t distinct prime factors, Cl/Cl^2 has order
    2^(t-1) (Cox, Primes of the Form x^2 + ny^2, section 3, Thm 3.15), so
    Cl has exponent 2 iff h(d) = 2^(t-1) > 1.  Any other exponent runs the
    exact test on the reduced ideals, only where every prime factor of
    h(d) divides the exponent."""
    if exponent < 1:
        raise ValueError("the exponent must be a positive integer")
    hs = _class_numbers(bound)
    return [d for d in range(-3, -bound - 1, -1)
            if hs[-d] and _divides_a_power_of(hs[-d], exponent)
            and is_fundamental(d)
            and (hs[-d] > 1 and hs[-d] == 2 ** (len(_factorint(-d)) - 1)
                 if exponent == 2 else _has_exponent(d, exponent))]
