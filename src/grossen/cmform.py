"""Theta series of Hecke characters: exact q-expansions and eigenform checks.

The form attached to psi is f = sum_a psi(a) q^{N(a)} over integral ideals.
Coefficients are kept exactly in the value algebra; the complex mirror
that the float checks of grossen.numeric read (reality and the Ramanujan
bound) is computed on first read, at the precision then in force.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import accumulate, islice
from math import gcd, isqrt, lcm
from typing import Iterator

from .grossenchar import Grossenchar, evaluate
from .numeric import (REALITY_TOLERANCE, embed_many, max_imag,
                      ramanujan_failures)
from .quadfield import FieldE, QIdeal, _prime_ideals, _primes_up_to
from .valuefield import AlgebraElement


@lru_cache(maxsize=None)
def _prime_pool(field: FieldE, B: int) -> tuple[tuple[int, QIdeal], ...]:
    """(norm, prime) for every prime ideal of norm <= B, by rational prime;
    kept per field and bound."""
    pool = []
    for p in _primes_up_to(B):
        chi = field.chi(p)
        if chi == -1 and p * p > B:
            continue
        q = p * p if chi == -1 else p
        pool.extend((q, P) for P in _prime_ideals(field, p, chi))
    return tuple(pool)


def _walk(field: FieldE, B: int, root, factor, mul, visit) -> None:
    """One depth-first walk over the integral ideals of norm <= B.

    Each ideal but the unit ideal is its parent times a pool prime P, the
    parent's last prime or a later one in pool order, so every ideal is
    met once.  Its value is mul(parent's value, factor(P)), root at the
    unit ideal, and visit(norm, value) sees it before its subtree.  A
    subtree is cut where mul returns None, and the primes from index j on
    where even the least of their norms, tail_min[j], does not fit."""
    pool = [(q, factor(P)) for q, P in _prime_pool(field, B)]
    tail_min = [*accumulate((q for q, _ in reversed(pool)), min,
                            initial=B + 1)][::-1]

    def walk(start: int, norm: int, value) -> None:
        for j in range(start, len(pool)):
            if norm * tail_min[j] > B:
                break
            q, f = pool[j]
            nn, child = norm * q, value
            while nn <= B:
                child = mul(child, f)
                if child is None:
                    break
                visit(nn, child)
                if nn * tail_min[j + 1] <= B:
                    walk(j + 1, nn, child)
                nn *= q

    visit(1, root)
    walk(0, 1, root)


def ideals_of_norm_up_to(field: FieldE,
                         B: int) -> Iterator[tuple[int, QIdeal]]:
    """An iterator over (norm, ideal) for every integral ideal of norm
    <= B, by norm; B is checked on the call.

    The ideals come from the one walk of _walk, as products of pool
    primes; a stable sort by norm then orders them, ties in walk order."""
    if B < 1:
        raise ValueError("the norm bound must be positive")
    items: list[tuple[int, QIdeal]] = []
    _walk(field, B, QIdeal.unit_ideal(field), lambda P: P, operator.mul,
          lambda norm, ideal: items.append((norm, ideal)))
    items.sort(key=lambda t: t[0])
    return iter(items)


@dataclass(frozen=True)
class CMForm:
    """q-expansion record of the newform attached to psi.

    coeffs[n] is a_n in the value algebra (index 0 unused, a_1 = 1).
    """

    psi: Grossenchar
    bound: int
    coeffs: tuple[AlgebraElement, ...]

    @property
    def level(self) -> int:
        return self.psi.level

    @property
    def weight(self) -> int:
        return self.psi.weight

    def a(self, n: int) -> AlgebraElement:
        return self.coeffs[n]

    @cached_property
    def complex_coeffs(self) -> tuple:
        """coeffs at the distinguished embedding, computed on first read."""
        return tuple(embed_many(self.psi.algebra, self.coeffs))


def q_expansion(psi: Grossenchar, B: int = 2000) -> CMForm:
    """Assemble a_n = sum_{N(a) = n} psi(a) exactly for n <= B.

    The one walk of _walk carries psi of each ideal as integer numerators
    over a denominator, its parent's value times psi of its last prime,
    and adds it into an integer sum for its norm; a subtree is cut where
    the value is zero, as psi vanishes on every ideal in it."""
    if B < 1:
        raise ValueError("the norm bound must be positive")
    alg = psi.algebra
    product = alg._product

    def factor(P: QIdeal):
        x = evaluate(psi, P)
        return alg._sparse(x.nums), x.den

    def mul(value, f):
        (nums, den), (right, rden) = value, f
        acc = product(nums, right)
        if not any(acc):
            return None
        d = den * rden
        if d != 1:
            g = gcd(d, *acc)
            if g != 1:
                acc = [c // g for c in acc]
                d //= g
        return acc, d

    sums: list = [None] * (B + 1)

    def add(n: int, value) -> None:
        s = sums[n]
        if s is None:
            sums[n] = value
            return
        (x, dx), (y, dy) = s, value
        if dx == dy:
            sums[n] = ([a + b for a, b in zip(x, y)], dx)
        else:
            m = lcm(dx, dy)
            m1, m2 = m // dx, m // dy
            sums[n] = ([a * m1 + b * m2 for a, b in zip(x, y)], m)

    _walk(psi.field, B, (alg.one.nums, 1), factor, mul, add)
    zero = alg.zero
    coeffs = tuple(zero if s is None else alg._element(*s) for s in sums)
    return CMForm(psi, B, coeffs)


def hecke_verify(f: CMForm) -> dict:
    """Exact eigenform identity checks on the stored coefficients.

    Verifies a_1 = 1, coprime multiplicativity, the prime-power recursion
    (with the p | N degeneration), vanishing at inert primes, plus the
    numeric reality and Ramanujan bounds at the distinguished embedding.
    Returns a report dict; failures carry their witness (m, n) or (p, j).
    """
    alg = f.psi.algebra
    field = f.psi.field
    B = f.bound
    k = f.weight
    level = f.level
    failures: list[tuple] = []
    checks = 0

    if f.coeffs[1] != alg.one:
        failures.append(("a1",))
    checks += 1

    # coprime multiplicativity: a_m a_n = a_{mn} for all coprime pairs,
    # the product as numerators over den_m den_n, compared with a_{mn} by
    # cross-multiplying the denominators
    coeffs = f.coeffs
    zero = [c.is_zero for c in coeffs]
    for m in range(2, isqrt(B) + 1):
        am = coeffs[m]
        for n in range(m + 1, B // m + 1):
            if gcd(m, n) != 1:
                continue
            checks += 1
            if zero[m] or zero[n]:
                ok = zero[m * n]
            else:
                an, amn = coeffs[n], coeffs[m * n]
                acc = alg._product(am.nums, alg._sparse(an.nums))
                dp, dmn = am.den * an.den, amn.den
                ok = all(x * dmn == y * dp for x, y in zip(acc, amn.nums))
            if not ok:
                failures.append(("mult", m, n))

    # prime powers: a_{p^{j+1}} = a_p a_{p^j} - p^{k-1} a_{p^{j-1}} off the
    # level (the nebentypus is trivial here), a_p a_{p^j} on it
    primes = _primes_up_to(B)
    for p in primes:
        if p * p > B:
            break
        scale = alg.scalar(p ** (k - 1))
        j = 1
        while p ** (j + 1) <= B:
            checks += 1
            lhs = coeffs[p ** (j + 1)]
            rhs = coeffs[p] * coeffs[p ** j]
            if level % p != 0:
                rhs = rhs - scale * coeffs[p ** (j - 1)]
            if lhs != rhs:
                failures.append(("recursion", p, j))
            j += 1

    # CM vanishing at inert primes
    for p in primes:
        if field.chi(p) == -1:
            checks += 1
            if not zero[p]:
                failures.append(("inert", p))

    off_level = [p for p in primes if level % p]
    checks += len(off_level)
    ramanujan = ramanujan_failures(f.complex_coeffs, off_level, k)
    failures.extend(("ramanujan", p) for p in ramanujan)
    imag = max_imag(f.complex_coeffs[:B + 1])
    reality = imag < REALITY_TOLERANCE
    if not reality:
        failures.append(("reality", imag))
    return {
        "ok": not failures,
        "checks": checks,
        "failures": failures,
        "max_imag": imag,
        "reality": reality,
        "ramanujan": not ramanujan,
    }


def coefficient_field_probe(f: CMForm) -> tuple[int, bool]:
    """(a lower bound for [Q({a_n}) : Q], reality flag).

    The bound is the largest degree of the minimal polynomial of a_p over
    five split primes p off the level with a_p nonzero: the number of
    distinct values of a_p under the complex embeddings of the value
    algebra, which is a product of number fields.  Q(a_p) may be a proper
    subfield of Q({a_n}): at D = -120 the bound is 2 for a form whose
    coefficient field has degree 8.
    """
    if f.bound < 100:
        raise ValueError("the degree probe needs coefficients to 100")
    field = f.psi.field
    aps = (f.coeffs[p] for p in _primes_up_to(f.bound)
           if f.level % p and field.chi(p) == 1 and not f.coeffs[p].is_zero)
    best = max((ap.degree() for ap in islice(aps, 5)), default=1)
    return best, max_imag(f.complex_coeffs) < REALITY_TOLERANCE
