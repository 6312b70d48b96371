"""Unit groups of residue rings o_E/m as explicit finite abelian groups.

The unit group is assembled over the prime-power factors of m.  Scale-one
prime powers give rings isomorphic to Z/p^e, where integer discrete logs
apply directly.  Inert primes at exponent one give the cyclic group of a
quadratic residue field.  Everything else is handled either by a prescribed
generator tuple verified by an order/kernel certificate (the dyadic inert
and 8||D cases, where the shape is known in closed form) or by a generic
greedy generator scan with an exhaustive discrete-log table.

A certificate for generators g_i with orders m_i consists of: each g_i has
exact order m_i; the product of the m_i equals the elementary unit count
N(p)^(e-1)(N(p)-1); and for each prime q dividing the order, no nonzero
vector with entries in {0, m_i/q, 2m_i/q, ...} multiplies to 1.  The last
condition forces the kernel of the product map to contain no element of
prime order, so the map from the direct sum is an isomorphism.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product as iproduct
from math import prod

import sympy
from sympy.ntheory import discrete_log, primitive_root
from sympy.ntheory.modular import crt

from .abelian import decompose_from_generators, mat_vec, smith_normal_form, unimodular_inverse
from .quadfield import FieldE, QIdeal, QuadElem

TABLE_CAP = 1 << 18


class ResidueRing:
    """The quotient ring o_E/m with canonical representatives.

    m = s*(Z*a + Z*(b + w)) with integer s, so representatives are x + y*w
    with 0 <= y < s and 0 <= x < s*a.
    """

    def __init__(self, field: FieldE, modulus: QIdeal):
        if not modulus.is_integral:
            raise ValueError("modulus must be an integral ideal")
        self.field = field
        self.modulus = modulus
        self.s = int(modulus.scale)
        self.sa = self.s * modulus.a
        self.sb = self.s * modulus.b
        self.size = self.s * self.sa
        self._d = field.disc
        self._nw = field.omega_norm
        self.one = self.reduce_xy(1, 0)
        self.zero = self.reduce_xy(0, 0)

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
        return self.reduce_xy(
            x1 * x2 - y1 * y2 * self._nw,
            x1 * y2 + y1 * x2 + y1 * y2 * self._d,
        )

    def pow(self, rep: tuple[int, int], e: int) -> tuple[int, int]:
        out = self.one
        base = rep
        while e:
            if e & 1:
                out = self.mul(out, base)
            base = self.mul(base, base)
            e >>= 1
        return out

    def is_unit(self, rep: tuple[int, int]) -> bool:
        from .abelian import hnf_2x2

        x, y = rep
        a, c, d = hnf_2x2(
            [
                (self.sa, 0),
                (self.sb, self.s),
                (x, y),
                (-y * self._nw, x + y * self._d),
            ]
        )
        return a == 1 and d == 1

    def order_of(self, rep: tuple[int, int], group_order: int) -> int:
        o = group_order
        for q in sympy.factorint(group_order):
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

    def count_units(self) -> int:
        return sum(1 for _ in self.unit_reps())


def unit_count(modulus: QIdeal) -> int:
    """|(o_E/m)^x| from the multiplicative formula over prime factors."""
    n = 1
    for prime, e in modulus.factor().items():
        q = int(prime.norm())
        n *= q ** (e - 1) * (q - 1)
    return n


# Local unit groups --------------------------------------------------------


class LocalUnits:
    """Unit group of o_E/p^e with generators, orders, and a dlog."""

    def __init__(self, ring: ResidueRing, prime: QIdeal, e: int,
                 gens: list[tuple[int, int]], orders: list[int], kind: str):
        self.ring = ring
        self.prime = prime
        self.e = e
        self.gens = gens
        self.orders = orders
        self.kind = kind
        self.order = prod(orders) if orders else 1
        self.certified = False
        self._table: dict | None = None
        self._int_modulus: int | None = None
        self._int_gen: int | None = None

    def dlog(self, rep: tuple[int, int]) -> tuple[int, ...]:
        if not self.orders:
            return ()
        if self.kind == "cyclic-int":
            val = rep[0] % self._int_modulus
            if self._int_modulus == 4:
                return (0 if val == 1 else 1,)
            return (int(discrete_log(self._int_modulus, val, self._int_gen)),)
        if self.kind == "two-split":
            return _dlog_mod_2e(self._int_modulus, rep[0])
        if self._table is None:
            if self.order > TABLE_CAP:
                raise RuntimeError("unit group too large for discrete logs")
            self._table = _mixed_radix_table(self.ring, self.gens, self.orders)
        return self._table[rep]


def _dlog_mod_2e(m: int, val: int) -> tuple[int, int]:
    """Write val = (-1)^s * 5^t mod 2^e (e >= 3)."""
    val %= m
    s = 0 if val % 4 == 1 else 1
    if s:
        val = (-val) % m
    q = m // 4  # order of 5
    t = 0
    step = 1
    inv5 = pow(5, -1, m)
    cur = val
    while step < q:
        if pow(cur, q // (2 * step), m) != 1:
            t += step
            cur = (cur * pow(inv5, step, m)) % m
        step *= 2
    assert pow(5, t, m) == val or q == 1
    return (s, t)


def _mixed_radix_table(ring: ResidueRing, gens, orders) -> dict:
    table = {ring.one: tuple(0 for _ in gens)}
    for idx, (g, n) in enumerate(zip(gens, orders)):
        for rep, vec in list(table.items()):
            acc = rep
            for j in range(1, n):
                acc = ring.mul(acc, g)
                nv = list(vec)
                nv[idx] = j
                table[acc] = tuple(nv)
    assert len(table) == prod(orders)
    return table


def _verify_certificate(ring: ResidueRing, gens, orders, total: int) -> bool:
    """Prove that the direct sum of <g_i> with the stated orders is the
    whole unit group; see the module docstring."""
    for g, o in zip(gens, orders):
        if ring.pow(g, o) != ring.one:
            return False
        for q in sympy.factorint(o):
            if ring.pow(g, o // q) == ring.one:
                return False
    if prod(orders) != total:
        return False
    for q in sympy.factorint(total):
        choices = []
        for o in orders:
            if o % q == 0:
                choices.append([0] + [(o // q) * j for j in range(1, q)])
            else:
                choices.append([0])
        for vec in iproduct(*choices):
            if all(v == 0 for v in vec):
                continue
            acc = ring.one
            for g, v in zip(gens, vec):
                if v:
                    acc = ring.mul(acc, ring.pow(g, v))
            if acc == ring.one:
                return False
    return True


def _greedy_generators(ring: ResidueRing, total: int) -> list[tuple[int, int]]:
    """Deterministic generating set: scan representatives in coordinate
    order, keeping each unit that enlarges the generated subgroup."""
    if total > TABLE_CAP:
        raise RuntimeError("unit group too large for exhaustive closure")
    gens: list[tuple[int, int]] = []
    closure = {ring.one}
    for rep in ring.reps():
        if len(closure) == total:
            break
        if rep in closure or not ring.is_unit(rep):
            continue
        gens.append(rep)
        # <closure, rep> is the union of cosets closure * rep^j.
        extended = set(closure)
        acc = rep
        while acc not in closure:
            extended.update(ring.mul(el, acc) for el in closure)
            acc = ring.mul(acc, rep)
        closure = extended
    assert len(closure) == total
    return gens


def _local_units(field: FieldE, prime: QIdeal, e: int) -> LocalUnits:
    power = prime ** e
    ring = ResidueRing(field, power)
    q = int(prime.norm())
    p = q if sympy.isprime(q) else sympy.primefactors(q)[0]
    total = q ** (e - 1) * (q - 1)

    if total == 1:
        loc = LocalUnits(ring, prime, e, [], [], "trivial")
        loc.certified = True
        return loc

    if ring.s == 1:
        # o_E/p^e is Z/p^e: split primes at any exponent, or exponent one.
        m = p ** e if q == p else q
        if p == 2:
            if m == 4:
                loc = LocalUnits(ring, prime, e, [ring.reduce_xy(3, 0)], [2],
                                 "cyclic-int")
                loc._int_modulus = 4
                loc.certified = True
                return loc
            loc = LocalUnits(
                ring, prime, e,
                [ring.reduce_xy(m - 1, 0), ring.reduce_xy(5, 0)],
                [2, m // 4],
                "two-split",
            )
            loc._int_modulus = m
            loc.certified = True
            return loc
        g = int(primitive_root(m))
        loc = LocalUnits(ring, prime, e, [ring.reduce_xy(g, 0)], [total],
                         "cyclic-int")
        loc._int_modulus = m
        loc._int_gen = g
        loc.certified = True
        return loc

    if e == 1 and q == p * p:
        # Residue field F_{p^2}: cyclic, smallest generator by scan.
        for rep in ring.reps():
            if not ring.is_unit(rep):
                continue
            if ring.order_of(rep, total) == total:
                loc = LocalUnits(ring, prime, e, [rep], [total], "fq")
                loc.certified = True
                return loc
        raise RuntimeError("no generator found in residue field")

    if p == 2:
        loc = _dyadic_local(field, prime, e, ring, q, total)
        if loc is not None:
            return loc

    gens = _greedy_generators(ring, total)
    decomp = decompose_from_generators(ring.one, gens, ring.mul)
    assert decomp.order == total
    loc = LocalUnits(ring, prime, e, list(decomp.generators),
                     list(decomp.orders), "table")
    loc._table = {rep: vec for rep, vec in decomp._dlog.items()}
    loc.certified = True
    return loc


def _dyadic_local(field: FieldE, prime: QIdeal, e: int, ring: ResidueRing,
                  q: int, total: int) -> LocalUnits | None:
    """Prescribed generators for the inert and 8||D dyadic cases."""
    disc = field.disc
    n = e
    if q == 4:
        # 2 inert.  C_3 x <-1> x C_{2^(n-1)} x C_{2^(n-2)} for n >= 2,
        # with the rational 5 sitting inside the third factor at index 2
        # and 3 + 2*sqrt(disc) generating the last.
        if n == 1:
            loc = LocalUnits(ring, prime, e, [ring.reduce_xy(0, 1)], [3], "fq")
            loc.certified = True
            return loc
        if n > 14:
            raise RuntimeError("dyadic exponent out of supported range")
        g3 = ring.pow(ring.reduce_xy(0, 1), 4 ** (n - 1))
        m1 = ring.reduce_xy(-1, 0)
        w = ring.reduce_xy(3 - 2 * disc, 4)  # 3 + 2*sqrt(disc)
        five = ring.reduce_xy(5, 0)
        orders = [3, 2, 2 ** (n - 1), 2 ** (n - 2)]
        for x in range(ring.sa):
            z = ring.reduce_xy(x, 1)
            if not ring.is_unit(z):
                continue
            u = ring.pow(z, 3)
            if ring.order_of(u, total) != 2 ** (n - 1):
                continue
            if not _in_cyclic(ring, u, 2 ** (n - 1), five):
                continue
            gens = [g3, m1, u, w]
            if _verify_certificate(ring, gens, orders, total):
                loc = _prescribed(ring, prime, e, gens, orders, "dyadic-inert")
                return loc
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
            return _prescribed(ring, prime, e, gens, orders, "dyadic-ram8")
        raise RuntimeError("prescribed dyadic generators failed certification")
    return None


def _prescribed(ring, prime, e, gens, orders, kind) -> LocalUnits:
    keep = [(g, o) for g, o in zip(gens, orders) if o > 1]
    loc = LocalUnits(ring, prime, e, [g for g, _ in keep],
                     [o for _, o in keep], kind)
    loc.certified = True
    return loc


def _in_cyclic(ring: ResidueRing, gen: tuple[int, int], order: int,
               target: tuple[int, int]) -> bool:
    acc = ring.one
    for _ in range(order):
        if acc == target:
            return True
        acc = ring.mul(acc, gen)
    return False


# Global structure ---------------------------------------------------------


@dataclass
class UnitsStructure:
    """(o_E/m)^x as a direct product of cyclic groups with global data."""

    field: FieldE
    modulus: QIdeal
    ring: ResidueRing
    locals_: list[LocalUnits]
    factors: list[tuple[QuadElem, int]]
    total_order: int
    torsion_meet: list[QuadElem]

    @property
    def orders(self) -> tuple[int, ...]:
        return tuple(o for _, o in self.factors)

    def dlog(self, z: QuadElem | int) -> tuple[int, ...]:
        if isinstance(z, int):
            z = self.field.element(z)
        rep = self.ring.reduce(z)
        if not self.ring.is_unit(rep):
            raise ValueError("not a unit modulo m")
        out: list[int] = []
        for loc in self.locals_:
            out.extend(loc.dlog(loc.ring.reduce(z)))
        return tuple(out)

    def rebuild(self, vec) -> QuadElem:
        acc = self.ring.one
        for (g, _), e in zip(self.factors, vec):
            acc = self.ring.mul(acc, self.ring.pow(self.ring.reduce(g), e))
        return self.ring.elem(acc)


def units_structure(field: FieldE, modulus: QIdeal) -> UnitsStructure:
    if not modulus.is_integral:
        raise ValueError("modulus must be integral")
    ring = ResidueRing(field, modulus)
    fac = sorted(
        modulus.factor().items(),
        key=lambda it: (int(it[0].norm()), it[0].b, int(it[0].scale)),
    )
    locs = [_local_units(field, prime, e) for prime, e in fac]

    factors: list[tuple[QuadElem, int]] = []
    for i, loc in enumerate(locs):
        if not loc.orders:
            continue
        if len(locs) == 1:
            u = field.zero
        else:
            qi = fac[i][0] ** fac[i][1]
            rest = QIdeal.unit_ideal(field)
            for j, (prime, e) in enumerate(fac):
                if j != i:
                    rest = rest * prime ** e
            u = _split_one(field, qi, rest)
        v = field.one - u
        for g, o in zip(loc.gens, loc.orders):
            lifted = u + v * loc.ring.elem(g)
            gl = ring.elem(ring.reduce(lifted))
            factors.append((gl, o))

    total = prod(o for _, o in factors) if factors else 1
    assert total == unit_count(modulus)
    return UnitsStructure(field, modulus, ring, locs, factors, total,
                          torsion_meet(field, modulus))


def torsion_meet(field: FieldE, modulus: QIdeal) -> list[QuadElem]:
    """Roots of unity congruent to 1 mod m."""
    return [
        u for u in field.roots_of_unity()
        if modulus.contains(u - field.one)
    ]


def _split_one(field: FieldE, q: QIdeal, r: QIdeal) -> QuadElem:
    """u with u in q and 1 - u in r, for coprime integral ideals."""
    bq = _basis_rows(q)
    br = _basis_rows(r)
    mat = [
        [bq[0][0], bq[1][0], br[0][0], br[1][0]],
        [bq[0][1], bq[1][1], br[0][1], br[1][1]],
    ]
    u_, d, v = smith_normal_form(mat)
    t = mat_vec(u_, [1, 0])
    y = []
    for i in range(2):
        di = d[i][i]
        assert di != 0 and t[i] % di == 0, "ideals are not coprime"
        y.append(t[i] // di)
    x = mat_vec(v, y + [0, 0])
    u = field.element(
        x[0] * bq[0][0] + x[1] * bq[1][0],
        x[0] * bq[0][1] + x[1] * bq[1][1],
    )
    assert q.contains(u) and r.contains(field.one - u)
    return u


def _basis_rows(ideal: QIdeal) -> list[tuple[int, int]]:
    s = int(ideal.scale)
    return [(s * ideal.a, 0), (s * ideal.b, s)]


# Rational side ------------------------------------------------------------


class IntUnitGroup:
    """(Z/MZ)^x with deterministic generators and discrete logs."""

    def __init__(self, modulus: int):
        if modulus <= 0:
            raise ValueError("modulus must be positive")
        self.modulus = modulus
        self.components: list[tuple[int, list[tuple[int, int]]]] = []
        factors: list[tuple[int, int]] = []
        for pp, e in sorted(sympy.factorint(modulus).items()):
            pe = pp ** e
            local: list[tuple[int, int]] = []
            if pp == 2:
                if e == 2:
                    local = [(3, 2)]
                elif e >= 3:
                    local = [(pe - 1, 2), (5, pe // 4)]
            else:
                local = [(int(primitive_root(pe)), pe // pp * (pp - 1))]
            self.components.append((pe, local))
            for g, o in local:
                if modulus == pe:
                    lifted = g % modulus
                else:
                    lifted = int(crt([pe, modulus // pe], [g, 1])[0])
                factors.append((lifted, o))
        self.factors = factors
        self.orders = tuple(o for _, o in factors)
        self.order = prod(self.orders) if factors else 1
        assert self.order == int(sympy.totient(modulus))

    def dlog(self, a: int) -> tuple[int, ...]:
        from math import gcd

        a %= self.modulus
        if gcd(a, self.modulus) != 1:
            raise ValueError("not a unit")
        out: list[int] = []
        for pe, local in self.components:
            v = a % pe
            if not local:
                continue
            if pe % 2 == 0:
                if pe == 4:
                    out.append(0 if v == 1 else 1)
                else:
                    out.extend(_dlog_mod_2e(pe, v))
            else:
                g, _ = local[0]
                out.append(int(discrete_log(pe, v, g)))
        return tuple(out)


# Dyadic reporting ---------------------------------------------------------


def two_rank(orders) -> int:
    return sum(1 for o in orders if o % 2 == 0)


def invariant_factors(orders) -> tuple[int, ...]:
    """Canonical invariant factors (ascending divisibility) of a direct sum
    of cyclic groups with the given orders."""
    by_prime: dict[int, list[int]] = {}
    for o in orders:
        for p, e in sympy.factorint(o).items():
            by_prime.setdefault(p, []).append(e)
    if not by_prime:
        return ()
    width = max(len(v) for v in by_prime.values())
    out = []
    for i in range(width):
        f = 1
        for p, exps in by_prime.items():
            exps_sorted = sorted(exps, reverse=True)
            if i < len(exps_sorted):
                f *= p ** exps_sorted[i]
        out.append(f)
    return tuple(sorted(out))


@dataclass
class DyadicReport:
    """Verification data for the unit group mod p_2^n."""

    field: FieldE
    n: int
    case: str
    orders: tuple[int, ...]
    certified: bool
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
        gens = _greedy_generators(ring, S.total_order)
        decomp = decompose_from_generators(ring.one, gens, ring.mul)
        enumerated = tuple(decomp.orders)
        matches = invariant_factors(orders) == tuple(sorted(enumerated))

    # Injectivity of the rational unit group the shape claims refer to:
    # (Z/2^n)^x for unramified 2, (Z/4)^x for 4||D, (Z/8)^x for 8||D.
    kmod = 2 ** n if case in ("split", "inert") else (4 if case == "ram4" else 8)
    injective = True
    for a in range(3, kmod, 2):
        if (p2 ** n).contains(field.element(a - 1)):
            injective = False
            break

    five = minus_one = three = None
    if case == "ram8" and S.total_order <= TABLE_CAP:
        squares = {ring.mul(u, u) for u in ring.unit_reps()}
        five = ring.reduce(5) in squares
        minus_one = ring.reduce(-1) in squares
        three = ring.reduce(3) in squares

    return DyadicReport(
        field, n, case, orders,
        all(loc.certified for loc in S.locals_),
        enumerated, matches,
        two_rank(orders), formula,
        injective, five, minus_one, three,
    )


# Lattice cosets -----------------------------------------------------------


def ideal_coset_reps(larger: QIdeal, smaller: QIdeal) -> list[QuadElem]:
    """Representatives of larger/smaller for nested integral lattices."""
    assert larger.divides(smaller), "smaller must be contained in larger"
    bl = _basis_rows(larger)
    bs = _basis_rows(smaller)
    # T with B_small = T * B_large (integral since smaller is a sublattice).
    det = bl[0][0] * bl[1][1] - bl[0][1] * bl[1][0]
    t_rows = []
    for row in bs:
        c0 = row[0] * bl[1][1] - row[1] * bl[1][0]
        c1 = -row[0] * bl[0][1] + row[1] * bl[0][0]
        assert c0 % det == 0 and c1 % det == 0
        t_rows.append([c0 // det, c1 // det])
    u_, d, v = smith_normal_form(t_rows)
    vinv = unimodular_inverse(v)
    d1, d2 = d[0][0], d[1][1]
    reps = []
    for i in range(d1):
        for j in range(d2):
            x0 = vinv[0][0] * i + vinv[1][0] * j
            x1 = vinv[0][1] * i + vinv[1][1] * j
            reps.append(
                larger.field.element(
                    x0 * bl[0][0] + x1 * bl[1][0],
                    x0 * bl[0][1] + x1 * bl[1][1],
                )
            )
    assert len(reps) == d1 * d2 == int(smaller.norm() / larger.norm())
    return reps
