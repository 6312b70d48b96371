"""Theta series of Hecke characters: exact q-expansions and eigenform checks.

The form attached to psi is f = sum_a psi(a) q^{N(a)} over integral ideals.
Coefficients are kept exactly in the value algebra; a parallel complex
mirror at the distinguished embedding supports the numeric checks
(reality and the Ramanujan bound).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import islice
from math import gcd, isqrt, lcm

from mpmath.libmp import (from_float, from_int, fzero, mpc_abs, mpf_abs, mpf_add,
                          mpf_cmp, mpf_div, mpf_mul_int, mpf_pos, mpf_pow,
                          round_nearest, to_float)

from .grossenchar import Grossenchar, evaluate
from .quadfield import FieldE, QIdeal, _prime_ideals, _primes_up_to
from .valuefield import AlgebraElement, _precision_bits


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


def _tail_min(pool, B: int) -> list[int]:
    """tail_min[j] is the least prime norm from pool index j on (B + 1
    past the end): no later prime fits once norm * tail_min[j] > B."""
    tail_min = [B + 1] * (len(pool) + 1)
    for j in range(len(pool) - 1, -1, -1):
        tail_min[j] = min(pool[j][0], tail_min[j + 1])
    return tail_min


def _factorizations(field: FieldE, B: int):
    """The prime pool and every integral ideal of norm <= B as
    (norm, factorization), sorted by norm; a factorization is a tuple of
    (pool index, exponent).  Only norms are multiplied: no ideal is built."""
    pool = _prime_pool(field, B)
    tail_min = _tail_min(pool, B)
    items: list[tuple[int, tuple[tuple[int, int], ...]]] = []

    def rec(start: int, norm: int, fac: tuple) -> None:
        items.append((norm, fac))
        for j in range(start, len(pool)):
            if norm * tail_min[j] > B:
                break
            q = pool[j][0]
            e, nn = 1, norm * q
            while nn <= B:
                rec(j + 1, nn, fac + ((j, e),))
                e += 1
                nn *= q

    rec(0, 1, ())
    items.sort(key=lambda t: t[0])
    return pool, items


def ideals_of_norm_up_to(field: FieldE, B: int):
    """Yield (norm, ideal) for every integral ideal of norm <= B, by norm."""
    if B < 1:
        raise ValueError("the norm bound must be positive")
    pool, items = _factorizations(field, B)
    for norm, fac in items:
        ideal = QIdeal.unit_ideal(field)
        for j, e in fac:
            ideal = ideal * pool[j][1] ** e
        yield norm, ideal


@dataclass(frozen=True)
class CMForm:
    """q-expansion record of the newform attached to psi.

    coeffs[n] is a_n in the value algebra (index 0 unused, a_1 = 1);
    complex_coeffs mirrors it at the distinguished embedding.
    """

    psi: Grossenchar
    level: int
    weight: int
    bound: int
    coeffs: tuple[AlgebraElement, ...]
    complex_coeffs: tuple

    def a(self, n: int) -> AlgebraElement:
        return self.coeffs[n]


def q_expansion(psi: Grossenchar, B: int = 2000) -> CMForm:
    """Assemble a_n = sum_{N(a) = n} psi(a) exactly for n <= B.

    One depth-first walk over the tree of _factorizations carries psi of
    each ideal as integer numerators over a denominator, the value of its
    parent times that of its last prime power, and adds it into an
    integer sum for its norm; a subtree is cut where the value is zero,
    as psi vanishes on every ideal in it."""
    if B < 1:
        raise ValueError("the norm bound must be positive")
    alg = psi.algebra
    product = alg._product
    pool = _prime_pool(psi.field, B)
    tail_min = _tail_min(pool, B)
    # per pool prime, psi of its powers of norm <= B up to the first zero,
    # as (nonzero numerators, den)
    powers = []
    for q, P in pool:
        v = x = evaluate(psi, P)
        row = []
        nn = q
        while not x.is_zero:
            row.append((alg._sparse(x.nums), x.den))
            nn *= q
            if nn > B:
                break
            x = x * v
        powers.append(row)
    sums: list = [None] * (B + 1)
    sums[1] = (alg.one.nums, 1)

    def walk(start: int, norm: int, nums, den: int) -> None:
        for j in range(start, len(pool)):
            if norm * tail_min[j] > B:
                break
            q = pool[j][0]
            nn = norm * q
            for right, rden in powers[j]:
                if nn > B:
                    break
                acc = product(nums, right)
                if not any(acc):
                    break
                d = den * rden
                if d != 1:
                    g = gcd(d, *acc)
                    if g != 1:
                        acc = [c // g for c in acc]
                        d //= g
                s = sums[nn]
                if s is None:
                    sums[nn] = (acc, d)
                elif s[1] == d:
                    sums[nn] = ([x + y for x, y in zip(s[0], acc)], d)
                else:
                    m = lcm(s[1], d)
                    m1, m2 = m // s[1], m // d
                    sums[nn] = ([x * m1 + y * m2 for x, y in zip(s[0], acc)],
                                m)
                if nn * tail_min[j + 1] <= B:
                    walk(j + 1, nn, acc, d)
                nn *= q

    walk(0, 1, sums[1][0], 1)
    zero = alg.zero
    coeffs = tuple(zero if s is None else alg._element(*s) for s in sums)
    return CMForm(psi, psi.level, psi.weight, B, coeffs,
                  tuple(alg.embed_many(coeffs)))


def _max_imag(complex_coeffs, prec: int) -> float:
    """max |Im c| over complex_coeffs[1:] as a float (0.0 when empty); the
    float is taken of the largest mpf, as float is monotone.  Zero parts
    are skipped: |0| never beats the running maximum."""
    best = fzero
    for c in complex_coeffs[1:]:
        im = c._mpc_[1]
        if im == fzero:
            continue
        v = mpf_abs(im, prec, round_nearest)
        if mpf_cmp(v, best) > 0:
            best = v
    return to_float(best, rnd=round_nearest)


@lru_cache(maxsize=None)
def _ramanujan_bound(p: int, k: int, prec: int) -> tuple:
    """2 * p**((k - 1)/2) + 1e-6 as an mpf tuple at prec bits, by the libmp
    calls of the same mpf expression."""
    rnd = round_nearest
    half = mpf_div(mpf_pos(from_int(k - 1), prec, rnd), from_int(2), prec, rnd)
    power = mpf_pow(mpf_pos(from_int(p), prec, rnd), half, prec, rnd)
    return mpf_add(mpf_mul_int(power, 2, prec, rnd), from_float(1e-6),
                   prec, rnd)


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
            if f.level % p != 0:
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

    prec = _precision_bits()
    max_imag = _max_imag(f.complex_coeffs[:B + 1], prec)
    ramanujan_ok = True
    for p in primes:
        if f.level % p == 0:
            continue
        checks += 1
        if mpf_cmp(mpc_abs(f.complex_coeffs[p]._mpc_, prec, round_nearest),
                   _ramanujan_bound(p, k, prec)) > 0:
            ramanujan_ok = False
            failures.append(("ramanujan", p))

    reality = max_imag < 1e-9
    if not reality:
        failures.append(("reality", max_imag))
    return {
        "ok": not failures,
        "checks": checks,
        "failures": failures,
        "max_imag": max_imag,
        "reality": reality,
        "ramanujan": ramanujan_ok,
    }


def coefficient_field_probe(f: CMForm) -> tuple[int, bool]:
    """(degree of Q({a_n}), reality flag).

    The degree is the largest degree of the minimal polynomial of a_p over
    five split primes p off the level with a_p nonzero: the number of
    distinct values of a_p under the complex embeddings of the value
    algebra, which is a product of number fields.
    """
    if f.bound < 100:
        raise ValueError("the degree probe needs coefficients to 100")
    field = f.psi.field
    aps = (f.coeffs[p] for p in _primes_up_to(f.bound)
           if f.level % p and field.chi(p) == 1 and not f.coeffs[p].is_zero)
    best = max((ap.degree() for ap in islice(aps, 5)), default=1)
    return best, _max_imag(f.complex_coeffs, _precision_bits()) < 1e-9
