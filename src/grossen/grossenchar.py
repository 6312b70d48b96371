"""Algebraic Hecke characters on the ideals of an imaginary quadratic field.

A character psi here is determined by a modulus m, a weight parameter ell,
and a character eta of the residue units (o/m)^x: on principal ideals
coprime to m,

    psi((alpha)) = eta(alpha) * alpha**ell,

and the extension to all coprime ideals is pinned down by choosing, for
each class-group generator t_i of order n_i, a root beta_i of the exact
radicand eta(theta_i) theta_i**ell where (theta_i) = t_i**n_i.  Values
live in an exact presented algebra (see valuefield.ValueAlgebra), so all
identities between values are verified with rational arithmetic.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from math import gcd

from .chargroup import (GroupChar, _chi_e_conditions, conductor_of,
                        enumerate_eta)
from .classgroup import ClassGroup, class_group
from .quadfield import FieldE, QIdeal, _next_prime, _pow_xy, _reduce_link
from .resunits import units_structure
from .valuefield import (AlgebraElement, ValueAlgebra,
                         quartic_nth_power_root, value_field_degree)


class GrossencharError(Exception):
    """Base error for character construction."""


class NoSuchCharacterError(GrossencharError):
    """The existence condition fails: some root of unity is congruent to
    1 mod m but its ell-th power is not 1."""


class IncompatibleCharacterError(GrossencharError):
    """eta cannot be the unit-character of any character with this ell."""


@dataclass(eq=False)
class Grossenchar:
    field: FieldE
    modulus: QIdeal
    ell: int
    eta: GroupChar
    cg: ClassGroup
    roots: tuple[int, ...]
    algebra: ValueAlgebra
    _gen_values: tuple[AlgebraElement, ...] = dc_field(repr=False, default=())
    # class key (a, b) of the reduced ideal J -> (generator mu of J R_j,
    # class value of j, {k: rows of zeta**k times it}), one entry per
    # class, filled by evaluate
    _reduced: dict = dc_field(repr=False, default_factory=dict)

    @property
    def level(self) -> int:
        return abs(self.field.disc) * int(self.modulus.norm())

    @property
    def weight(self) -> int:
        return self.ell + 1

    @property
    def r(self) -> int:
        return self.algebra.r

    def __call__(self, a: QIdeal) -> AlgebraElement:
        return evaluate(self, a)


def minimal_conductor(field: FieldE) -> QIdeal:
    """The smallest modulus admitting a unit-character restricting to the
    field character: (sqrt d) for odd d, with an extra dyadic factor when
    2 ramifies."""
    base = QIdeal.from_element(field.sqrt_disc)
    d = field.disc
    if d % 2 != 0:
        return base
    if d % 8 == 4:
        p2 = QIdeal.primes_over(field, 2)[0]
        return p2 * base
    return QIdeal.from_element(field.element(2)) * base


def build(field: FieldE, modulus: QIdeal, ell: int, eta: GroupChar,
          roots: tuple[int, ...] | None = None,
          check: bool = True) -> Grossenchar:
    """Construct the character, verifying existence and compatibility.

    Raises NoSuchCharacterError when no character of weight parameter ell
    exists mod m at all, and IncompatibleCharacterError when eta fails
    eta(u) u**ell = 1 on the unit group or does not restrict to the field
    character.
    """
    if ell <= 0:
        raise ValueError("ell must be a positive integer")
    S = eta.structure
    if S.modulus != modulus:
        raise ValueError("eta is not a character mod the given modulus")

    for u in S.torsion_meet:
        if u ** ell != field.one:
            raise NoSuchCharacterError(
                f"no Grössencharacter for (m, ell) = "
                f"({modulus!r}, {ell})")

    units = field.roots_of_unity()
    w = len(units)
    gen = units[1]
    if (eta.angle(gen) + Fraction(ell, w)) % 1 != 0:
        raise IncompatibleCharacterError(
            "eta(u) u**ell != 1 on the unit group")

    if any(eta.angle(g) != t
           for g, t in _chi_e_conditions(field, int(modulus.norm()))):
        raise IncompatibleCharacterError(
            "eta does not restrict to the field character")

    cg = class_group(field, coprime_to=int(modulus.norm()))
    r = eta.order
    if roots is None:
        roots = (0,) * len(cg.orders)
    roots = tuple(int(s) for s in roots)
    if len(roots) != len(cg.orders):
        raise ValueError("one root choice per class-group generator")
    for s, n in zip(roots, cg.orders):
        if s and (r % n != 0 or not 0 <= s < n):
            raise ValueError("root choices require n | r and 0 <= s < n")

    tmp = ValueAlgebra(field, r)
    radicals = []
    inline: dict[int, dict] = {}
    for i, (theta, n) in enumerate(zip(cg.thetas, cg.orders)):
        gamma = tmp.zeta_pow(int(eta.angle(theta) * r)) \
            * tmp.from_quad(theta ** ell)
        root = None
        if n == 2 and tmp.phi == 2 and not tmp.over_field:
            # the radical may collapse into E(zeta_r); adjoining it then
            # would create zero divisors, so use the root directly
            root = quartic_nth_power_root(field, r, gamma, 2)
        if root is not None:
            inline[i] = dict(root.coords)
        else:
            radicals.append((n, dict(gamma.coords)))
    algebra = ValueAlgebra(field, r, radicals) if radicals else tmp

    gen_values = []
    pad = (0,) * len(algebra.ns)
    bidx = 0
    for i, (n, s) in enumerate(zip(cg.orders, roots)):
        if i in inline:
            v = algebra._wrap({(a, b, pad): c
                               for (a, b, _), c in inline[i].items()})
        else:
            v = algebra.beta(bidx)
            bidx += 1
        if s:
            v = algebra.zeta_pow((r // n) * s) * v
        gen_values.append(v)

    psi = Grossenchar(field, modulus, ell, eta, cg, roots, algebra,
                      tuple(gen_values))
    if check:
        _self_check(psi)
    return psi


def first_character(field: FieldE, m: QIdeal, ell: int,
                    order: int | None = None,
                    want_deg: int | None = None) -> Grossenchar | None:
    """The first character mod m, in the order of enumerate_eta over the
    unit characters of exact order ``order`` (any if None), that exists,
    is compatible and, if asked, has value degree ``want_deg`` over E;
    None if there is none."""
    for eta in enumerate_eta(field, m, order_equals=order):
        try:
            psi = build(field, m, ell, eta)
        except (IncompatibleCharacterError, NoSuchCharacterError):
            continue
        if want_deg is None or value_field_degree(psi) == want_deg:
            return psi
    return None


def _self_check(psi: Grossenchar) -> None:
    """Exact well-definedness spot check: 25 principal round trips and 25
    multiplicativity instances, each prime valued once.  Both run on
    integer coordinates: a round trip compares psi((alpha)) with
    _principal_value, a product psi(P1) psi(P2) is compared with
    psi(P1 P2) across the two denominators."""
    rng = random.Random(987654321)
    field, S, alg = psi.field, psi.eta.structure, psi.algebra
    rows: dict[int, tuple] = {}
    done = 0
    while done < 25:
        x, y = rng.randrange(-30, 31), rng.randrange(-30, 31)
        # N(x + y*w) = 0 only at x = y = 0
        if not (x or y) or not S.ring.is_unit((x, y)):
            continue
        lhs = evaluate(psi, QIdeal.from_element(field.element(x, y)))
        if lhs.den != 1 or lhs.nums != _principal_value(psi, x, y, rows):
            raise ArithmeticError("principal round trip failed")
        done += 1
    primes = []
    p = 2
    while len(primes) < 12:
        if psi.level % p != 0:
            primes.extend(QIdeal.primes_over(field, p))
        p = _next_prime(p)
    values = {P: evaluate(psi, P) for P in primes}
    sparse = {P: alg._sparse(v.nums) for P, v in values.items()}
    for _ in range(25):
        p1, p2 = rng.choice(primes), rng.choice(primes)
        lhs, v1 = evaluate(psi, p1 * p2), values[p1]
        den = v1.den * values[p2].den
        if any(n * den != c * lhs.den for n, c in
               zip(lhs.nums, alg._product(v1.nums, sparse[p2]))):
            raise ArithmeticError("multiplicativity failed")


def _principal_value(psi: Grossenchar, x: int, y: int,
                     rows: dict[int, tuple]) -> tuple[int, ...]:
    """The integer coordinates of eta(alpha) alpha**ell for the unit
    alpha = x + y*w mod m: X rows[k][0] + Y rows[k][1] for
    alpha**ell = X + Y w (quadfield._pow_xy) and eta(alpha) = zeta**k,
    k the weighted sum of alpha's unit log, where rows[k] holds the
    normal forms of zeta**k and w zeta**k (_value_rows of the trivial
    class), filled on first use."""
    r, weights = psi.eta._weights
    k = sum(c * e for c, e in
            zip(weights, psi.eta.structure.dlog_xy(x, y))) % r
    row = rows.get(k)
    if row is None:
        row = rows[k] = _value_rows(psi, k, None)
    X, Y = _pow_xy(x, y, psi.ell, psi.field.disc, psi.field.omega_norm)
    return tuple(X * u + Y * v for u, v in zip(row[0], row[1]))


def _rational_value(psi: Grossenchar, q: int, power: int = 1) -> AlgebraElement:
    """psi((q))**power for a positive rational integer q coprime to m;
    power may be negative."""
    ang = psi.eta.angle(q)
    k = int(ang * psi.r) * power % psi.r
    return psi.algebra.zeta_pow(k) * Fraction(q) ** (psi.ell * power)


def _shares_prime(a: QIdeal, m: QIdeal) -> bool:
    """Whether two integral ideals have a common prime factor.  The norm
    gcd alone cannot decide this when a rational prime splits and only one
    of the conjugate primes divides m."""
    s = QIdeal.from_generators(a.field, [*a.basis(), *m.basis()])
    return s.norm() != 1


def evaluate(psi: Grossenchar, a: QIdeal) -> AlgebraElement:
    """The value psi(a), zero for integral ideals sharing a factor with m.

    An integral ideal a coprime to m is s * lam * J: s its scale and
    lam the link from its primitive part to the end J of that part's
    reduction (quadfield._reduce_link), the reduced ideal of the class j
    of a.  With mu a generator of J R_j for the reducer R_j of
    _class_reduction, alpha = s lam mu generates a R_j, and psi(a) is
    eta(alpha) alpha**ell times the class value of j.  Per character,
    each class gets mu, that value and, per k, the rows of zeta**k and
    w zeta**k times it, once; then psi(a) = X row_0 + Y row_1 for
    alpha**ell = X + Y w, with eta(alpha) = zeta**k.  Any associate of
    alpha gives the same value, since build checks eta(u) u**ell = 1 on
    the units.

    alpha stays a pair of integer coordinates throughout: its log comes
    from UnitsStructure.dlog_xy, and alpha**ell from quadfield._pow_xy
    (alpha itself at ell = 1).
    """
    field = psi.field
    if not a.is_integral:
        den = a.scale.denominator
        num = a * QIdeal.from_element(field.element(den))
        if gcd(den, int(psi.modulus.norm())) != 1:
            raise ValueError("fractional ideal is not coprime to the modulus")
        return evaluate(psi, num) * _rational_value(psi, den, -1)
    if (gcd(a.norm(), int(psi.modulus.norm())) != 1
            and _shares_prime(a, psi.modulus)):
        return psi.algebra.zero
    d, nw = field.disc, field.omega_norm
    ja, jb, x, y, den = _reduce_link(a.a, a.b, d, nw)
    key = (ja, jb % ja)
    entry = psi._reduced.get(key)
    if entry is None:
        entry = psi._reduced[key] = _reduced_entry(psi, *key)
    (mx, my), class_value, rows = entry
    s = a.scale
    ax, ay = s * (x * mx - y * my * nw), s * (x * my + y * mx + y * my * d)
    if ax % den or ay % den:
        raise ArithmeticError("generator not divisible by the link "
                              "denominator")
    ax, ay = ax // den, ay // den
    r, weights = psi.eta._weights
    k = sum(c * e for c, e in zip(weights,
                                  psi.eta.structure.dlog_xy(ax, ay))) % r
    row = rows.get(k)
    if row is None:
        row = rows[k] = _value_rows(psi, k, class_value)
    X, Y = (ax, ay) if psi.ell == 1 else _pow_xy(ax, ay, psi.ell, d, nw)
    row0, row1, rden = row
    return psi.algebra._element([X * u + Y * v for u, v in zip(row0, row1)],
                                rden)


def _reduced_entry(psi: Grossenchar, a: int, b: int):
    """For the reduced ideal J = Z*a + Z*(b + w) of the class j, (a, b)
    its key in the class table: a generator mu of J R_j as integer
    coordinates, the class value of j (None for j = 0) and an empty table
    of value rows."""
    J = QIdeal(psi.field, a, b, 1)
    reducer, class_value = _class_reduction(psi, psi.cg._dlog_table[a, b])
    mu = (J if reducer is None else J * reducer).is_principal()
    if mu is None:
        raise ArithmeticError("class decomposition failed")
    return (mu.x, mu.y), class_value, {}


def _value_rows(psi: Grossenchar, k: int, class_value):
    """The numerators of v = zeta**k * class_value and of w v over one
    denominator, den(class_value), not in lowest terms: the integer
    normal forms of zeta**k and w zeta**k, times class_value's
    numerators through the structure constants."""
    alg = psi.algebra
    rows = alg.monomial(0, k).nums, alg.monomial(1, k).nums
    if class_value is None:
        return (*rows, 1)
    right = alg._sparse(class_value.nums)
    return (*(alg._product(row, right) for row in rows), class_value.den)


def _class_reduction(psi: Grossenchar, j: tuple[int, ...]):
    """For the class exponents j of an ideal a: the ideal prod conj(t_i)**j_i,
    which makes a principal, and the value prod beta_i**j_i
    psi((N t_i))**(-j_i) that accounts for it; None for j = 0."""
    if not any(j):
        return None, None
    reducer = QIdeal.unit_ideal(psi.field)
    value = psi.algebra.one
    for i, (t, ji) in enumerate(zip(psi.cg.basis, j)):
        if ji:
            reducer = reducer * t.conj() ** ji
            value = value * psi._gen_values[i] ** ji
            value = value * _rational_value(psi, int(t.norm()), -ji)
    return reducer, value


# ---------------------------------------------------------------------------
# conductor

def conductor(psi: Grossenchar) -> QIdeal:
    return conductor_of(psi.eta)


# ---------------------------------------------------------------------------
# serialization

def _hnf_record(ideal: QIdeal) -> dict:
    return {"a": str(ideal.a), "b": str(ideal.b), "scale": str(ideal.scale)}


def _hnf_load(field: FieldE, rec: dict) -> QIdeal:
    return QIdeal.from_hnf(field, int(rec["a"]), int(rec["b"]),
                           Fraction(rec["scale"]))


def record(psi: Grossenchar) -> dict:
    """A JSON-ready description sufficient to rebuild psi exactly."""
    return {
        "disc": str(psi.field.disc),
        "modulus": _hnf_record(psi.modulus),
        "ell": str(psi.ell),
        "eta_exps": [str(e) for e in psi.eta.exps],
        "eta_orders": [str(o) for o in psi.eta.structure.orders],
        "generators": [_hnf_record(t) for t in psi.cg.basis],
        "gen_orders": [str(n) for n in psi.cg.orders],
        "roots": [str(s) for s in psi.roots],
        "level": str(psi.level),
        "weight": str(psi.weight),
    }


def from_record(rec: dict, check: bool = True) -> Grossenchar:
    field = FieldE(int(rec["disc"]))
    modulus = _hnf_load(field, rec["modulus"])
    S = units_structure(field, modulus)
    orders = tuple(int(o) for o in rec["eta_orders"])
    if S.orders != orders:
        raise ValueError("record does not match the computed unit structure")
    eta = GroupChar(S, tuple(int(e) for e in rec["eta_exps"]))
    psi = build(field, modulus, int(rec["ell"]), eta,
                roots=tuple(int(s) for s in rec["roots"]), check=check)
    stored = [(int(g["a"]), int(g["b"])) for g in rec["generators"]]
    if [(t.a, t.b) for t in psi.cg.basis] != stored:
        raise ValueError("record does not match the computed class basis")
    return psi
