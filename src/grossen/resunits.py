"""Unit groups of residue rings o_E/m as explicit finite abelian groups.

The unit group is assembled over the prime-power factors of m.  Scale-one
prime powers give rings isomorphic to Z/p^e, whose generators are the
classical ones.  Inert primes at exponent one give the cyclic group of a
quadratic residue field.  Everything else is handled either by a prescribed
generator tuple verified by an order/kernel certificate (the dyadic inert
and 8||D cases, where the shape is known in closed form) or by
decompose_from_generators over the units in coordinate order: one table of
the span of the units kept so far, which stops before the last coset once
it holds the whole group.  Every discrete log, in o_E/m and in Z/M, goes
through one Pohlig-Hellman engine over the fixed generators, except in a
small cyclic (Z/p^e)^x, whose engine reads it from an index of the
generator's powers.

A certificate for generators g_i with orders m_i consists of: each g_i has
exact order m_i; the product of the m_i equals the elementary unit count
N(p)^(e-1)(N(p)-1); and for each prime q dividing the order, no nonzero
vector with entries in {0, m_i/q, 2m_i/q, ...} multiplies to 1.  The last
condition forces the kernel of the product map to contain no element of
prime order, so the map from the direct sum is an isomorphism.  The
engine's q-torsion lookup is exactly that check.
"""

from __future__ import annotations

from array import array
from collections.abc import Iterable
from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import gcd, isqrt, lcm, prod

from .abelian import (decompose_from_generators, extend_span,
                      smith_normal_form, xgcd)
from .quadfield import FieldE, QIdeal, QuadElem, _factorint

# Exhaustive closures (the generic unit closure, the enumeration oracle of
# dyadic_structure) stop at this group order.  Discrete logs have no cap.
TABLE_CAP = 1 << 18
# A cyclic l-torsion with more elements than this is searched by
# baby-step giant-step instead of a full lookup table; an odd (Z/p^e)^x
# with p^e up to this bound takes its logs from a full index.
TORSION_TABLE_CAP = 1 << 10
# The inert dyadic generator search runs up to o/p2^n with this n.
INERT_DYADIC_MAX_N = 14


@lru_cache(maxsize=None)
def _factor(n: int) -> tuple[tuple[int, int], ...]:
    """Prime factorisation of a positive integer, ascending."""
    return tuple(_factorint(n).items())


class ResidueRing:
    """The quotient ring o_E/m with canonical representatives.

    m = s*(Z*a + Z*(b + w)) with integer s, so representatives are x + y*w
    with 0 <= y < s and 0 <= x < s*a.  `factors` is the factorization
    of m as (P, e) pairs, which callers already hold; since is_unit reads
    its primes, a list whose norms do not multiply to N(m), one missing
    a prime or with a wrong exponent, is refused.
    """

    def __init__(self, field: FieldE, modulus: QIdeal,
                 factors: Iterable[tuple[QIdeal, int]]):
        if not modulus.is_integral:
            raise ValueError("modulus must be an integral ideal")
        factors = tuple(factors)
        if prod(int(P.norm()) ** e for P, e in factors) != modulus.norm():
            raise ValueError("factors do not match the norm of the modulus")
        self.field = field
        self.modulus = modulus
        self.s = int(modulus.scale)
        self.sa = self.s * modulus.a
        self.sb = self.s * modulus.b
        self._d = field.disc
        self._nw = field.omega_norm
        self.one = self.reduce_xy(1, 0)
        # (p, b) for each prime P = (p, b + w) dividing m, (p, None) for
        # each inert P = (p)
        self._prime_tests = tuple(
            (int(P.scale), None) if P.a == 1 else (P.a, P.b)
            for P, _ in factors)

    def reduce_xy(self, x: int, y: int) -> tuple[int, int]:
        yr = y % self.s if self.s > 1 else 0
        k = (y - yr) // self.s if self.s > 1 else y
        return ((x - k * self.sb) % self.sa, yr)

    def reduce(self, elem: QuadElem | int) -> tuple[int, int]:
        if isinstance(elem, int):
            return self.reduce_xy(elem, 0)
        if elem.x.denominator != 1 or elem.y.denominator != 1:
            raise ValueError("element is not integral")
        return self.reduce_xy(int(elem.x), int(elem.y))

    def elem(self, rep: tuple[int, int]) -> QuadElem:
        return self.field.element(rep[0], rep[1])

    def mul(self, r1: tuple[int, int], r2: tuple[int, int]) -> tuple[int, int]:
        x1, y1 = r1
        x2, y2 = r2
        k, y = divmod(x1 * y2 + y1 * x2 + y1 * y2 * self._d, self.s)
        return ((x1 * x2 - y1 * y2 * self._nw - k * self.sb) % self.sa, y)

    def pow(self, rep: tuple[int, int], e: int) -> tuple[int, int]:
        """rep^e by square-and-multiply, with mul written out on locals."""
        s, sa, sb, d, nw = self.s, self.sa, self.sb, self._d, self._nw
        ox, oy = self.one
        bx, by = rep
        while e:
            if e & 1:
                k, y = divmod(ox * by + oy * bx + oy * by * d, s)
                ox, oy = (ox * bx - oy * by * nw - k * sb) % sa, y
            e >>= 1
            if e:
                k, y = divmod((2 * bx + by * d) * by, s)
                bx, by = (bx * bx - by * by * nw - k * sb) % sa, y
        return (ox, oy)

    def is_unit(self, rep: tuple[int, int]) -> bool:
        """Whether x + y*w is a unit mod m, for any integer pair (x, y):
        it is unless it lies in a prime P | m.  For P = (p, b + w), where
        w = -b mod P, x + y*w lies in P iff p | x - y*b; for inert
        P = (p), iff p | x and p | y."""
        x, y = rep
        for p, b in self._prime_tests:
            if ((x - y * b) % p == 0 if b is not None
                    else x % p == 0 and y % p == 0):
                return False
        return True

    def order_of(self, rep: tuple[int, int], group_order: int) -> int:
        o = group_order
        for q, _ in _factor(group_order):
            while o % q == 0 and self.pow(rep, o // q) == self.one:
                o //= q
        return o

    def reps(self):
        for y in range(self.s):
            for x in range(self.sa):
                yield (x, y)

    def unit_reps(self):
        for r in self.reps():
            if self.is_unit(r):
                yield r


def _unit_count(factorisation) -> int:
    n = 1
    for prime, e in factorisation:
        q = int(prime.norm())
        n *= q ** (e - 1) * (q - 1)
    return n


def unit_count(modulus: QIdeal) -> int:
    """|(o_E/m)^x| from the multiplicative formula over prime factors."""
    return _unit_count(modulus.factor().items())


# Discrete logs -------------------------------------------------------------


class _IntegersMod:
    """Z/m as a multiplicative group for the engine: residues are ints."""

    def __init__(self, m: int):
        self.m = m
        self.one = 1 % m

    def mul(self, a: int, b: int) -> int:
        return a * b % self.m

    def pow(self, a: int, e: int) -> int:
        return pow(a, e, self.m)


class DlogEngine:
    """Discrete logs against independent generators g_i of exact orders m_i.

    Pohlig-Hellman over the basis: with N = lcm(m_i), each prime l | N is
    handled on the projection h -> h^(N/l^a), digit by digit from the
    l-torsion <g_i^(N/l^a * l^(e_i - 1))>, and the l-parts are combined by
    CRT.  `group` supplies `one`, `mul` and `pow`, and elements are given
    in its reduced form.  Everything but the element is precomputed, and no
    table grows with the group order.  Raises ArithmeticError if the
    generators are not independent.
    """

    def __init__(self, group, gens, orders):
        self.group = group
        self.gens = list(gens)
        self.orders = list(orders)
        n = lcm(*self.orders) if self.orders else 1
        self._parts = [_PrimePart(group, self.gens, self.orders, n, ell, a)
                       for ell, a in _factor(n)]

    def dlog(self, h) -> tuple[int, ...] | None:
        """The exponent vector x, 0 <= x_i < m_i, with prod g_i^x_i = h;
        None when h is not in the span of the generators."""
        x = [0] * len(self.orders)
        for part in self._parts:
            digits = part.solve(h)
            if digits is None:
                return None
            for i, coef, y in zip(part.idx, part.crt, digits):
                x[i] += coef * y
        grp = self.group
        acc = grp.one
        for i, (g, m) in enumerate(zip(self.gens, self.orders)):
            x[i] %= m
            acc = grp.mul(acc, grp.pow(g, x[i]))
        return tuple(x) if acc == h else None


class _IndexedCyclicEngine(DlogEngine):
    """The engine of a cyclic (Z/p^e)^x, p odd, p^e <= TORSION_TABLE_CAP,
    that answers logs from an index of the generator's powers:
    index[g^k mod p^e] = k, and -1 at the non-units.  The index is an
    array('i') of p^e entries, filled on the first log."""

    _index = None

    def dlog(self, h: int) -> tuple[int, ...] | None:
        index = self._index
        if index is None:
            m = self.group.m
            index = self._index = array("i", [-1]) * m
            g, acc = self.gens[0], 1
            for k in range(self.orders[0]):
                index[acc] = k
                acc = acc * g % m
        k = index[h]
        return None if k < 0 else (k,)


class _PrimePart:
    """The l-part of a DlogEngine: generators i with l | m_i, projected to
    gamma_i = g_i^c of order l^e_i, c = N/l^a."""

    def __init__(self, group, gens, orders, n, ell, a):
        self.group = group
        self.c = n // ell ** a
        self.idx = [i for i, m in enumerate(orders) if m % ell == 0]
        exps = []
        self.crt = []
        inv_steps = []          # gamma_i^(-l^t), t = 0 .. e_i - 1
        taus = []
        for i in self.idx:
            m, e = orders[i], 0
            while m % ell == 0:
                m //= ell
                e += 1
            exps.append(e)
            # 1 mod l^e and 0 mod the rest of m_i
            self.crt.append(m * pow(m, -1, ell ** e))
            gamma = group.pow(gens[i], self.c)
            step = group.pow(gamma, ell ** e - 1)
            steps = [step]
            for _ in range(e - 1):
                steps.append(group.pow(steps[-1], ell))
            inv_steps.append(steps)
            taus.append(group.pow(gamma, ell ** (e - 1)))
        self.lookup = _TorsionLookup(group, taus, ell)
        # per level k = 1 .. a: the power l^(a - k) that projects r into
        # the l-torsion, and (j, l^t, gamma_j^(-l^t)) for each generator j
        # with a digit at this level, at position t = e_j - a + k - 1 >= 0;
        # a generator with no digit there contributes nothing in the span
        self.levels = [
            (ell ** (a - k),
             [(j, ell ** t, inv_steps[j][t]) for j, e in enumerate(exps)
              if (t := e - a + k - 1) >= 0])
            for k in range(1, a + 1)]

    def solve(self, h) -> list[int] | None:
        """y_i = x_i mod l^e_i for the projection of h, or None."""
        grp = self.group
        r = grp.pow(h, self.c)
        y = [0] * len(self.idx)
        for shift, digits_at in self.levels:
            # the last level (shift 1) reads r itself and leaves it unused
            digits = self.lookup.find(r if shift == 1 else grp.pow(r, shift))
            if digits is None:
                return None
            for j, weight, inv in digits_at:
                d = digits[j]
                if d:
                    y[j] += d * weight
                    if shift != 1:
                        r = grp.mul(r, grp.pow(inv, d))
        return y


class _TorsionLookup:
    """Digit vectors d with prod tau_j^d_j = s, 0 <= d_j < l, over
    independent tau_j of order l: one table of all l^r elements, or for a
    single large l a baby-step table of ~sqrt(l) elements and as many giant
    steps."""

    def __init__(self, group, taus, ell):
        self.group = group
        r = len(taus)
        step = ell
        if r == 1 and ell > TORSION_TABLE_CAP:
            step = isqrt(ell - 1) + 1
        table = {group.one: ()}
        for tau in taus:
            table = extend_span(table, tau, step, group.mul)
        if len(table) != step ** r:
            raise ArithmeticError("generators are not independent")
        self.table = table
        self.giants = []        # (off, tau^-off) for off = step, 2 step, ...
        if step < ell:
            jump = group.pow(taus[0], ell - step)
            acc = group.one
            for off in range(step, ell, step):
                acc = group.mul(acc, jump)
                self.giants.append((off, acc))

    def find(self, s) -> tuple[int, ...] | None:
        hit = self.table.get(s)
        if hit is not None or not self.giants:
            return hit
        for off, g in self.giants:
            hit = self.table.get(self.group.mul(s, g))
            if hit is not None:
                return (off + hit[0],)
        return None


# Local unit groups --------------------------------------------------------


class LocalUnits:
    """Unit group of o_E/p^e with generators, orders, and a dlog.

    Where o_E/p^e is Z/p^e, logs are taken on the integer residue.  Every
    LocalUnits is built from certified generators.
    """

    def __init__(self, ring: ResidueRing, gens: list[tuple[int, int]],
                 orders: list[int], int_part: tuple | None = None):
        self.ring = ring
        self.gens = gens
        self.orders = orders
        # (p^e, engine of (Z/p^e)^x) when o_E/p^e is Z/p^e
        self._int_part = int_part
        self._engine: DlogEngine | None = None
        # verified logs by residue; non-units are never stored
        self._logs: dict[tuple[int, int], tuple[int, ...]] = {}

    def dlog(self, rep: tuple[int, int]) -> tuple[int, ...] | None:
        """The exponent vector of a residue, None for a non-unit (the
        generators span the whole unit group)."""
        vec = self._logs.get(rep)
        if vec is not None:
            return vec
        if self._int_part is not None:
            pe, engine = self._int_part
            vec = engine.dlog(rep[0] % pe)
        else:
            if self._engine is None:
                self._engine = DlogEngine(self.ring, self.gens, self.orders)
            vec = self._engine.dlog(rep)
        if vec is not None:
            self._logs[rep] = vec
        return vec


def _verify_certificate(ring: ResidueRing, gens, orders, total: int) -> bool:
    """Prove that the direct sum of <g_i> with the stated orders is the
    whole unit group; see the module docstring."""
    if prod(orders) != total:
        return False
    for g, o in zip(gens, orders):
        if ring.pow(g, o) != ring.one or ring.order_of(g, o) != o:
            return False
    try:
        DlogEngine(ring, gens, orders)
    except ArithmeticError:
        return False
    return True


@lru_cache(maxsize=None)
def _local_units(field: FieldE, prime: QIdeal, e: int) -> LocalUnits:
    """The local unit group of o_E/prime^e, shared by every modulus that has
    this prime-power factor until survey.clear_memo()."""
    power = prime ** e
    ring = ResidueRing(field, power, [(prime, e)])
    q = int(prime.norm())
    p = _factor(q)[0][0]
    total = q ** (e - 1) * (q - 1)

    if total == 1:
        return LocalUnits(ring, [], [])

    if ring.s == 1:
        # o_E/p^e is Z/p^e: split primes at any exponent, or exponent one.
        pe, local, engine = _int_local(p, e)
        return LocalUnits(ring, [ring.reduce_xy(g, 0) for g, _ in local],
                          [o for _, o in local], (pe, engine))

    if e == 1 and q == p * p:
        # Residue field F_{p^2}: cyclic, smallest generator by scan.  The
        # reps with y = 0 lie in F_p^x, of order p - 1 < p^2 - 1, and
        # every rep with y != 0 is a unit.
        for y in range(1, ring.s):
            for x in range(ring.sa):
                if ring.order_of((x, y), total) == total:
                    return LocalUnits(ring, [(x, y)], [total])
        raise RuntimeError("no generator found in residue field")

    if p == 2:
        loc = _dyadic_local(field, e, ring, q, total)
        if loc is not None:
            return loc

    if total > TABLE_CAP:
        raise UnitGroupTooLarge("unit group too large for exhaustive closure")
    # Here s > 1, so P is the only prime over p: x + y*w is a unit iff p
    # does not divide its norm x^2 + d*x*y + N(w)*y^2.  Units in
    # coordinate order, each kept when it enlarges the span.
    d, nw = field.disc, field.omega_norm
    units = ((x, y) for y in range(ring.s) for x in range(ring.sa)
             if (x * x + d * x * y + nw * y * y) % p)
    gens, orders = decompose_from_generators(ring.one, units, ring.mul, total)
    return LocalUnits(ring, gens, orders)


def _dyadic_local(field: FieldE, n: int, ring: ResidueRing, q: int,
                  total: int) -> LocalUnits | None:
    """Prescribed generators for the inert and 8||D dyadic cases."""
    disc = field.disc
    if q == 4:
        # 2 inert.  C_3 x <-1> x C_{2^(n-1)} x C_{2^(n-2)} for n >= 2,
        # with the rational 5 sitting inside the third factor at index 2
        # and 3 + 2*sqrt(disc) generating the last.
        if n == 1:
            return LocalUnits(ring, [ring.reduce_xy(0, 1)], [3])
        if n > INERT_DYADIC_MAX_N:
            raise UnitGroupTooLarge(
                f"unit group mod p2^{n} too large: inert dyadic generators "
                f"are searched up to p2^{INERT_DYADIC_MAX_N}")
        g3 = ring.pow(ring.reduce_xy(0, 1), 4 ** (n - 1))
        m1 = ring.reduce_xy(-1, 0)
        w = ring.reduce_xy(3 - 2 * disc, 4)  # 3 + 2*sqrt(disc)
        orders = [3, 2, 2 ** (n - 1), 2 ** (n - 2)]
        for x in range(ring.sa):
            # y = 1 is odd, so z is not in P = (2): every z is a unit
            u = ring.pow(ring.reduce_xy(x, 1), 3)
            # u lies in the 2-part, of exponent 2^(n-1): its order is
            # 2^(n-1) exactly when u^(2^(n-2)) != 1
            if ring.pow(u, 2 ** (n - 2)) == ring.one:
                continue
            # 2 is inert, so Z/2^n embeds in o/2^n as the reps x + 0*w,
            # and there <5> is the residues = 1 mod 4.  5 has order
            # 2^(n-2) and <u> is cyclic of order 2^(n-1), so 5 lies in
            # <u> iff <u^2> = <5>, iff u^2 is rational and = 1 mod 4
            x2, y2 = ring.mul(u, u)
            if y2 or x2 % 4 != 1:
                continue
            gens = [g3, m1, u, w]
            if _verify_certificate(ring, gens, orders, total):
                return _prescribed(ring, gens, orders)
        raise RuntimeError("inert dyadic generator search failed")
    if disc % 8 == 0:
        # 8 || disc: <-1> x C_{2^(r-2)} x C_{2^s}, generated by -1, 5,
        # and 1 + sqrt(d) with d = disc/4; holds for n >= 4.
        if n < 4:
            return None
        r, s = (n + 1) // 2, n // 2
        gens = [
            ring.reduce_xy(-1, 0),
            ring.reduce_xy(5, 0),
            ring.reduce_xy(-disc // 2 + 1, 1),  # 1 + (w - disc/2)
        ]
        orders = [2, 2 ** (r - 2), 2 ** s]
        if _verify_certificate(ring, gens, orders, total):
            return _prescribed(ring, gens, orders)
        raise RuntimeError("prescribed dyadic generators failed certification")
    return None


def _prescribed(ring, gens, orders) -> LocalUnits:
    keep = [(g, o) for g, o in zip(gens, orders) if o > 1]
    return LocalUnits(ring, [g for g, _ in keep], [o for _, o in keep])


# Global structure ---------------------------------------------------------


class UnitGroupTooLarge(RuntimeError):
    """A local unit group above TABLE_CAP that no structured case covers,
    or an inert dyadic level above INERT_DYADIC_MAX_N."""


class UnitsStructure:
    """(o_E/m)^x as a direct product of cyclic groups with global data.

    The orders and logs come from the local groups alone; the global
    generators (`factors`, CRT lifts of the local ones) and `torsion_meet`
    are built on first use: dlog and solve_character_conditions never
    read them.
    """

    def __init__(self, field: FieldE, modulus: QIdeal,
                 primes: list[tuple[QIdeal, int]]):
        self.field = field
        self.modulus = modulus
        self.ring = ResidueRing(field, modulus, primes)
        self.primes = primes
        self.locals_ = [_local_units(field, prime, e) for prime, e in primes]
        self.orders = tuple(o for loc in self.locals_ for o in loc.orders)
        self.total_order = prod(self.orders)
        if self.total_order != _unit_count(primes):
            raise ArithmeticError(
                f"local orders multiply to {self.total_order}, not "
                f"|(o/m)^x| = {_unit_count(primes)}")

    @cached_property
    def torsion_meet(self) -> list[QuadElem]:
        """Roots of unity congruent to 1 mod m."""
        return torsion_meet(self.field, self.modulus)

    @cached_property
    def factors(self) -> list[tuple[QuadElem, int]]:
        """Global generators with their orders: each local generator g
        lifted to u + (1 - u)*g, with u in its own prime power P^e and
        1 - u in the rest of m.  Where Q = N(P^e) is prime to the norm R
        of the rest, u = Q*(Q^-1 mod R); otherwise (P and its conjugate
        both divide m) u comes from _split_one."""
        ring = self.ring
        norm = int(self.modulus.norm())
        out: list[tuple[QuadElem, int]] = []
        for i, loc in enumerate(self.locals_):
            if not loc.orders:
                continue
            prime, e = self.primes[i]
            qn = int(prime.norm()) ** e
            rn = norm // qn
            if gcd(qn, rn) == 1:
                u = (qn * pow(qn, -1, rn), 0)
            else:
                rest = QIdeal.unit_ideal(self.field)
                for j, (pj, ej) in enumerate(self.primes):
                    if j != i:
                        rest = rest * pj ** ej
                u = ring.reduce(_split_one(self.field, prime ** e, rest))
            v = ring.reduce_xy(1 - u[0], -u[1])
            for g, o in zip(loc.gens, loc.orders):
                vx, vy = ring.mul(v, g)
                out.append((ring.elem(ring.reduce_xy(u[0] + vx, u[1] + vy)),
                            o))
        return out

    def dlog(self, z: QuadElem | int) -> tuple[int, ...]:
        if not self.locals_:
            return ()
        if isinstance(z, int):
            return self.dlog_xy(z, 0)
        x, y = z.x, z.y
        if x.denominator != 1 or y.denominator != 1:
            raise ValueError("element is not integral")
        return self.dlog_xy(int(x), int(y))

    def dlog_xy(self, x: int, y: int) -> tuple[int, ...]:
        """The exponent vector of the unit x + y*w, given by its integer
        coordinates; ValueError for a non-unit."""
        out: list[int] = []
        for loc in self.locals_:
            vec = loc.dlog(loc.ring.reduce_xy(x, y))
            if vec is None:
                raise ValueError("not a unit modulo m")
            out.extend(vec)
        return tuple(out)

    def rebuild(self, vec) -> QuadElem:
        acc = self.ring.one
        for (g, _), e in zip(self.factors, vec):
            acc = self.ring.mul(acc, self.ring.pow(self.ring.reduce(g), e))
        return self.ring.elem(acc)


def units_structure(field: FieldE, modulus: QIdeal) -> UnitsStructure:
    """The unit group of o/m."""
    if not modulus.is_integral:
        raise ValueError("modulus must be integral")
    fac = sorted(
        modulus.factor().items(),
        key=lambda it: (int(it[0].norm()), it[0].b, int(it[0].scale)),
    )
    return UnitsStructure(field, modulus, fac)


def torsion_meet(field: FieldE, modulus: QIdeal) -> list[QuadElem]:
    """Roots of unity congruent to 1 mod m."""
    return [
        u for u in field.roots_of_unity()
        if modulus.contains(u - field.one)
    ]


def _split_one(field: FieldE, q: QIdeal, r: QIdeal) -> QuadElem:
    """u with u in q and 1 - u in r, for coprime integral ideals.

    Over the basis e1 = s a, e2 = s (b + w) of q, u = i e1 + j e2 has
    1 - u in r = s'(Z a' + Z (b' + w)) iff R = s'a' divides both j s a'
    and e1 i + s (b - b') j - 1.  So j = t R/gcd(s a', R), and i and t
    come from two xgcds.  u is unique mod q r."""
    s = int(q.scale)
    e1, R = s * q.a, int(r.scale) * r.a
    step = R // gcd(s * r.a, R)
    g, x, y = xgcd(e1, s * (q.b - r.b) * step)
    h, c, _ = xgcd(g, R)
    if h != 1:
        raise ValueError("ideals are not coprime")
    i, j = c * x, c * y * step
    u = field.element(e1 * i + s * q.b * j, s * j)
    if not (q.contains(u) and r.contains(field.one - u)):
        raise ArithmeticError("split of 1 is not in q + r")
    return u


# Rational side ------------------------------------------------------------


def _primitive_root(pe: int) -> int:
    """The smallest primitive root modulo the power pe of an odd prime p:
    g is one iff g is a primitive root mod p and pe = p or
    g^(p-1) != 1 mod p^2."""
    p = _factor(pe)[0][0]
    qs = [q for q, _ in _factor(p - 1)]
    for g in range(2, pe):
        if (g % p and all(pow(g, (p - 1) // q, p) != 1 for q in qs)
                and (pe == p or pow(g, p - 1, p * p) != 1)):
            return g
    raise ArithmeticError(f"no primitive root modulo {pe}")


@lru_cache(maxsize=None)
def _int_local(pp: int, e: int):
    """(pp^e, ((generator, order), ...), engine) for (Z/pp^e)^x, shared
    by every modulus and IntUnitGroup until survey.clear_memo(); the
    engine of an odd pp^e <= TORSION_TABLE_CAP is indexed."""
    pe = pp ** e
    engine_type = DlogEngine
    if pp == 2:
        local = (() if e == 1 else ((3, 2),) if e == 2
                 else ((pe - 1, 2), (5, pe // 4)))
    else:
        local = ((_primitive_root(pe), pe // pp * (pp - 1)),)
        if pe <= TORSION_TABLE_CAP:
            engine_type = _IndexedCyclicEngine
    engine = engine_type(_IntegersMod(pe), [g for g, _ in local],
                         [o for _, o in local])
    return pe, local, engine


class IntUnitGroup:
    """(Z/MZ)^x with deterministic generators and discrete logs."""

    def __init__(self, modulus: int):
        if modulus <= 0:
            raise ValueError("modulus must be positive")
        self.modulus = modulus
        self.components = [_int_local(pp, e) for pp, e in _factor(modulus)]
        factors: list[tuple[int, int]] = []
        phi = 1
        for pe, local, _ in self.components:
            rest = modulus // pe
            phi *= pe - pe // _factor(pe)[0][0]
            for g, o in local:
                # the CRT lift: g mod pe, 1 mod the rest of the modulus
                lifted = 1 + rest * ((g - 1) * pow(rest, -1, pe) % pe)
                factors.append((lifted % modulus, o))
        self.factors = factors
        self.orders = tuple(o for _, o in factors)
        self.order = prod(self.orders) if factors else 1
        if self.order != phi:
            raise ArithmeticError(
                f"generator orders multiply to {self.order}, not "
                f"phi({modulus}) = {phi}")

    def dlog(self, a: int) -> tuple[int, ...]:
        a %= self.modulus
        if gcd(a, self.modulus) != 1:
            raise ValueError("not a unit")
        out: list[int] = []
        for pe, _, engine in self.components:
            vec = engine.dlog(a % pe)
            if vec is None:
                raise ArithmeticError(f"{a} mod {pe} is not in the span of "
                                      "the generators")
            out.extend(vec)
        return tuple(out)


# Dyadic reporting ---------------------------------------------------------


def two_rank(orders) -> int:
    return sum(1 for o in orders if o % 2 == 0)


def invariant_factors(orders) -> tuple[int, ...]:
    """Canonical invariant factors (ascending divisibility) of a direct sum
    of cyclic groups with the given orders: the diagonal entries > 1 of
    the Smith form of diag(orders)."""
    k = len(orders)
    d, _ = smith_normal_form([[o if i == j else 0 for j in range(k)]
                              for i, o in enumerate(orders)])
    return tuple(d[i][i] for i in range(k) if d[i][i] > 1)


@dataclass
class DyadicReport:
    """Verification data for the unit group mod p_2^n."""

    field: FieldE
    n: int
    case: str
    orders: tuple[int, ...]
    enumerated: tuple[int, ...] | None
    matches_enumeration: bool | None
    two_rank: int
    two_rank_formula: int
    rational_injective: bool
    five_square: bool | None
    minus_one_square: bool | None
    three_square: bool | None


def dyadic_case(field: FieldE) -> str:
    c = field.chi(2)
    if c == 1:
        return "split"
    if c == -1:
        return "inert"
    return "ram4" if field.disc % 8 != 0 else "ram8"


def dyadic_structure(field: FieldE, n: int) -> DyadicReport:
    case = dyadic_case(field)
    p2 = QIdeal.primes_over(field, 2)[0]
    S = units_structure(field, p2 ** n)
    orders = S.orders
    ring = S.ring

    e = 2 if case in ("ram4", "ram8") else 1
    f = 2 if case == "inert" else 1
    formula = -((1 - n) // 2) * f if n < 2 * e + 1 else e * f + 1

    enumerated = None
    matches = None
    if S.total_order <= TABLE_CAP:
        enumerated = tuple(decompose_from_generators(
            ring.one, ring.unit_reps(), ring.mul, S.total_order)[1])
        matches = invariant_factors(orders) == tuple(sorted(enumerated))

    # Injectivity of the rational unit group the shape claims refer to:
    # (Z/2^n)^x for unramified 2, (Z/4)^x for 4||D, (Z/8)^x for 8||D.
    # It fails when a - 1 is in m for an odd 1 < a < kmod; the rational
    # integers in m are the multiples of s a.
    kmod = 2 ** n if case in ("split", "inert") else (4 if case == "ram4" else 8)
    injective = lcm(2, ring.sa) > kmod - 2

    five = minus_one = three = None
    if case == "ram8" and S.total_order <= TABLE_CAP:
        squares = {ring.mul(u, u) for u in ring.unit_reps()}
        five = ring.reduce(5) in squares
        minus_one = ring.reduce(-1) in squares
        three = ring.reduce(3) in squares

    return DyadicReport(
        field, n, case, orders,
        enumerated, matches,
        two_rank(orders), formula,
        injective, five, minus_one, three,
    )


# Lattice cosets -----------------------------------------------------------


def ideal_coset_reps(larger: QIdeal, smaller: QIdeal) -> list[QuadElem]:
    """Representatives of larger/smaller for nested integral ideals.

    Over the basis e1 = s a, e2 = s (b + w) of the larger ideal the
    smaller one has the triangular basis alpha e1, beta e1 + gamma e2 with
    alpha = s'a'/(s a) and gamma = s'/s, so the i e1 + j e2 with
    0 <= i < alpha and 0 <= j < gamma are one per coset."""
    if not larger.divides(smaller):
        raise ValueError("smaller must be contained in larger")
    s, s2 = int(larger.scale), int(smaller.scale)
    sa, sb = s * larger.a, s * larger.b
    return [larger.field.element(i * sa + j * sb, j * s)
            for i in range(s2 * smaller.a // sa) for j in range(s2 // s)]
