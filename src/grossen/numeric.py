"""Floating point, in one module: the distinguished complex embedding of the
value algebras at the precision GROSSEN_PRECISION_BITS, and what is read
off it.  No yes/no decision of the package rests on these numbers.
"""

from __future__ import annotations

import os
import weakref
from functools import lru_cache
from math import gcd

import mpmath
from mpmath.libmp import (from_int, fzero, mpc_abs, mpc_mul, mpc_mul_mpf,
                          mpc_zero, mpf_abs, mpf_add, mpf_cmp, mpf_div,
                          mpf_pos, round_nearest, to_float, to_str)

REALITY_TOLERANCE = 1e-9    # a form is real when max |Im a_n| is below it
DIGITS = 30                 # significant digits printed by `gross eval`

_FACTORS = weakref.WeakKeyDictionary()  # algebra -> {precision: factors}


def precision_bits() -> int:
    """The embeddings' precision: GROSSEN_PRECISION_BITS (default 256)."""
    raw = os.environ.get("GROSSEN_PRECISION_BITS", "256")
    try:
        if int(raw) > 0:
            return int(raw)
    except ValueError:
        pass
    raise ValueError("GROSSEN_PRECISION_BITS must be a positive integer, "
                     f"not {raw!r}")


def _factors(alg, prec: int) -> list[tuple]:
    """Per basis monomial w**a z**b b**cs of alg, as `_mpc_` tuples at prec
    bits, its first factor w**a and the rest, z**b and b_i**e (e > 0):
    w goes to (d + i sqrt|d|)/2, z to exp(2 pi i / r) and each b_i to the
    principal n_i-th root of its radicand there."""
    per_prec = _FACTORS.setdefault(alg, {})
    if prec not in per_prec:
        with mpmath.workprec(prec):
            d = alg.field.disc
            w = (d + mpmath.mpc(0, 1) * mpmath.sqrt(abs(d))) / 2
            z = mpmath.exp(2j * mpmath.pi / alg.r)
            bs = []
            for n, radicand in zip(alg.ns, alg.radicands):
                val = sum((mpmath.mpf(c) * w ** a * z ** b
                           for (a, b, _), c in radicand.items()),
                          mpmath.mpc(0))
                bs.append(mpmath.power(val, mpmath.mpf(1) / n)
                          if val != 0 else val)
            per_prec[prec] = [
                ((w ** a)._mpc_,
                 ((z ** b)._mpc_,
                  *((bs[i] ** e)._mpc_ for i, e in enumerate(cs) if e)))
                for a, b, cs in alg.basis]
    return per_prec[prec]


def embed_many(alg, xs) -> list:
    """The values of the elements xs of alg at the distinguished embedding:
    each the sum, in basis order, of the terms num/den * w**a * z**b *
    b_1**e_1 * ..., num/den in lowest terms, multiplied in that order.

    Each step is the libmp call that the mpf/mpc operators make, at the
    same precision and rounding, so the values are bit for bit those of
    the object arithmetic; a sum is mpc_add's two mpf_add chains, real and
    imaginary, and every zero element gets the one zero mpc."""
    prec = precision_bits()
    factors = _factors(alg, prec)
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


def numeric_record(x) -> dict[str, str]:
    """{"re", "im"} of x at the distinguished embedding, DIGITS significant
    digits each, whatever mpmath's global state."""
    re, im = embed_many(x.algebra, (x,))[0]._mpc_
    return {"re": to_str(re, DIGITS), "im": to_str(im, DIGITS)}


def max_imag(values) -> float:
    """max |Im c| over values[1:] as a float (0.0 when none is nonzero);
    rounding is monotone, so this is the float of the largest mpf."""
    prec = precision_bits()
    return max((to_float(mpf_abs(im, prec, round_nearest), rnd=round_nearest)
                for c in values[1:] if (im := c._mpc_[1]) != fzero),
               default=0.0)


@lru_cache(maxsize=None)
def _ramanujan_bound(p: int, k: int, prec: int) -> tuple:
    """2 * p**((k - 1)/2) + 1e-6 as an mpf tuple at prec bits."""
    with mpmath.workprec(prec):
        return (2 * mpmath.mpf(p) ** (mpmath.mpf(k - 1) / 2) + 1e-6)._mpf_


def ramanujan_failures(values, primes, k: int) -> list[int]:
    """The primes p, in order, with |values[p]| above the weight-k bound
    2 p^((k - 1)/2) + 1e-6."""
    prec = precision_bits()
    return [p for p in primes
            if mpf_cmp(mpc_abs(values[p]._mpc_, prec, round_nearest),
                       _ramanujan_bound(p, k, prec)) > 0]
