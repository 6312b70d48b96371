"""Characters of residue-ring unit groups with exact root-of-unity values.

A character is an exponent vector against a fixed cyclic decomposition; its
values are angle fractions t in [0, 1) standing for exp(2*pi*i*t).  All
character arithmetic is Fraction arithmetic on angles, so comparisons used
by the classification sweeps are exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm

from .abelian import enumerate_solutions
from .quadfield import FieldE, QIdeal, QuadElem, kronecker
from .resunits import (
    IntUnitGroup,
    UnitsStructure,
    ideal_coset_reps,
    units_structure,
)


def _char_order(orders, exps) -> int:
    n = 1
    for o, c in zip(orders, exps):
        n = lcm(n, o // gcd(o, c))
    return n


def _angle_weights(orders, exps) -> tuple[int, tuple[int, ...]]:
    """(r, (c * r / o, ...)) for r the order of the character: the angle at
    a log vector is the weighted sum of its entries over r, mod 1.  Each
    weight is an integer, since zeta_o^c is an r-th root of unity."""
    r = _char_order(orders, exps)
    return r, tuple(c * r // o for o, c in zip(orders, exps))


def _angle_at(weights: tuple[int, tuple[int, ...]], vec) -> Fraction:
    """sum c * e / o mod 1 for the _angle_weights of (orders, exps), as one
    integer sum over the order r of the character."""
    r, ws = weights
    return Fraction(sum(w * e for w, e in zip(ws, vec)) % r, r)


@dataclass(frozen=True)
class GroupChar:
    """Character of a unit group, (o_E/m)^x or (Z/QZ)^x, given by exponents
    against its cyclic generators."""

    structure: UnitsStructure | IntUnitGroup
    exps: tuple[int, ...]

    def __post_init__(self) -> None:
        orders = self.structure.orders
        if len(self.exps) != len(orders) or not all(
                0 <= c < o for c, o in zip(self.exps, orders)):
            raise ValueError(f"exponents {self.exps} do not fit the unit "
                             f"orders {orders}")

    @property
    def order(self) -> int:
        return _char_order(self.structure.orders, self.exps)

    @cached_property
    def _weights(self) -> tuple[int, tuple[int, ...]]:
        return _angle_weights(self.structure.orders, self.exps)

    def angle(self, z: QuadElem | int) -> Fraction:
        """The value at z as an exact angle in [0, 1)."""
        return _angle_at(self._weights, self.structure.dlog(z))

    def sign(self, z: QuadElem | int) -> int:
        """The value +1 or -1 at z."""
        t = self.angle(z)
        if t == 0:
            return 1
        if t == Fraction(1, 2):
            return -1
        raise ValueError("value is not +-1")

    def __mul__(self, other: GroupChar) -> GroupChar:
        if self.structure is not other.structure:
            raise ValueError("characters of different unit groups")
        return type(self)(
            self.structure,
            tuple((a + b) % o for a, b, o in
                  zip(self.exps, other.exps, self.structure.orders)),
        )

    def __pow__(self, k: int) -> GroupChar:
        return type(self)(
            self.structure,
            tuple((c * k) % o for c, o in
                  zip(self.exps, self.structure.orders)),
        )


@dataclass(frozen=True)
class DirichletChar(GroupChar):
    """Character of (Z/QZ)^x, a GroupChar on an IntUnitGroup."""

    @property
    def group(self) -> IntUnitGroup:
        return self.structure

    @property
    def modulus(self) -> int:
        return self.structure.modulus


def dirichlet_from_kronecker(disc: int, modulus: int | None = None) -> DirichletChar:
    """The quadratic character a -> (disc/a) as a character mod |disc|."""
    if modulus is None:
        modulus = abs(disc)
    G = IntUnitGroup(modulus)
    exps = []
    for (g, o) in G.factors:
        v = kronecker(disc, g)
        if v == 1:
            exps.append(0)
        else:
            if o % 2:
                raise ValueError("character does not live on this group")
            exps.append(o // 2)
    return DirichletChar(G, tuple(exps))


def restrict_to_Z(eta: GroupChar) -> DirichletChar:
    """The Dirichlet character a -> eta(a mod m), mod M = N(m)."""
    G = IntUnitGroup(int(eta.structure.modulus.norm()))
    exps = []
    for (g, o) in G.factors:
        t = eta.angle(g)
        c = t * o
        if c.denominator != 1:
            raise ArithmeticError("restriction not well-defined")
        exps.append(int(c) % o)
    return DirichletChar(G, tuple(exps))


def solve_character_conditions(
    S: UnitsStructure,
    conditions: list[tuple[QuadElem | int, Fraction]],
    order_divides: int | None = None,
) -> list[GroupChar]:
    """All characters with prescribed values: angle(z) = t for each (z, t).

    Conditions are linear in the exponent vector; solutions are enumerated
    exactly over the component moduli and returned in sorted order.  With
    order_divides = n, the exponent x_i mod o_i of a character of order
    dividing n is (o_i/g_i)*y_i with g_i = gcd(o_i, n), so the system is
    solved for y_i mod g_i; x_i grows with y_i, so the order is the same.
    """
    orders = S.orders
    mods = orders if order_divides is None else tuple(
        gcd(o, order_divides) for o in orders)
    R = lcm(*mods)
    coeffs: list[list[int]] = []
    rhs: list[int] = []
    for z, t in conditions:
        # a condition reads sum (R/g_i)*e_i*y_i = t*R mod R; no character
        # of these orders takes the value t when t*R is not an integer,
        # and the conditions after it are never logged
        coeffs.append([(R // g) * e % R for g, e in zip(mods, S.dlog(z))])
        if R % t.denominator:
            return []
        rhs.append(t.numerator * (R // t.denominator) % R)
    sols = enumerate_solutions(coeffs, rhs, R, list(mods))
    return [GroupChar(S, tuple(o // g * y
                               for o, g, y in zip(orders, mods, sol)))
            for sol in sols]


def _chi_e_conditions(field: FieldE, M: int
                      ) -> list[tuple[QuadElem | int, Fraction]]:
    """The conditions (g, angle of chi_E(g)) on the generators g of
    (Z/LZ)^x, L = lcm(|disc|, M), that a character mod an ideal of norm M
    restricts to chi_E."""
    L = lcm(abs(field.disc), M)
    conditions: list[tuple[QuadElem | int, Fraction]] = []
    for g, _ in IntUnitGroup(L).factors:
        chi = field.chi(g)
        if chi == 0:
            raise ArithmeticError(f"generator {g} of (Z/{L})^x is not prime "
                                  "to the discriminant")
        conditions.append((g, Fraction(0) if chi == 1 else Fraction(1, 2)))
    return conditions


def enumerate_eta(
    field: FieldE,
    modulus: QIdeal,
    order_divides: int | None = None,
    order_equals: int | None = None,
    structure: UnitsStructure | None = None,
) -> list[GroupChar]:
    """Characters of (o_E/m)^x whose rational restriction is chi_E.

    The restriction condition is tested on generators of (Z/LZ)^x with
    L = lcm(|disc|, N(m)), which pins both characters on their common
    domain.  Triviality on the roots of unity congruent to 1 mod m needs
    no condition: those reduce to the identity residue.
    """
    S = structure if structure is not None else units_structure(field, modulus)
    conditions = _chi_e_conditions(field, int(modulus.norm()))
    div = order_divides
    if order_equals is not None:
        div = order_equals if div is None else gcd(div, order_equals)
    out = solve_character_conditions(S, conditions, div)
    if order_equals is not None:
        out = [eta for eta in out if eta.order == order_equals]
    return out


def factors_through(eta: GroupChar, smaller: QIdeal) -> bool:
    """Whether eta is trivial on the kernel of (o/m)^x -> (o/m')^x."""
    S = eta.structure
    m = S.modulus
    for t in ideal_coset_reps(smaller, m):
        z = S.field.one + t
        rep = S.ring.reduce(z)
        if S.ring.is_unit(rep) and eta.angle(z) != 0:
            return False
    return True


def conductor_of(eta: GroupChar) -> QIdeal:
    """The smallest divisor of m through which eta factors, removing the
    primes of m in the order of units_structure."""
    cur = eta.structure.modulus
    for prime, _ in eta.structure.primes:
        while cur.valuation(prime) > 0:
            cand = cur / prime
            if not factors_through(eta, cand):
                break
            cur = cand
    return cur
