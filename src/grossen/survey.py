"""Classification sweeps: which totally real fields K arise for CM forms.

Three families of constructions cover the full classification at the
weight parameter ell = 1 (weight 2): class-number-one recipes (degrees
1, 2, 3), quadratic-modulus-character sweeps over the exponent-2 and
exponent-3 discriminant lists, and higher-order modulus characters on
exponent-2 fields.  At odd ell > 1 the families run as well, but nothing
shows their rows complete, and at ell = 3 theorem2_tables raises
ArithmeticError (no degree-2 class-number-one witness at disc -3) and
deg3_pairs ValueError (the exponent-3 sweep needs ell prime to 3).

Negative results are certified by exact criteria (Q1, residue sign
clashes) or by bounded exhaustive searches that are reported as bounded
evidence, never as proof.  Each order-4 search asks
solve_character_conditions once per modulus, on unit groups whose local
factors every modulus shares.  No table reads the searches: they are
certified on first read of ``HigherOrderSurvey.searches``.

Each family is a functools cache, one entry per call form (every caller
in the package passes the arguments positionally), and returns immutable
tuples of frozen rows; nothing numeric is kept, so the results do not
depend on the embedding precision.  ``clear_memo`` empties every cache in
the package, for timing a cold computation.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property
from types import MappingProxyType

from .chargroup import _chi_e_conditions, solve_character_conditions
from .classgroup import (class_group, class_structure,
                         enumerate_discriminants)
from .cmform import ideals_of_norm_up_to
from .grossenchar import first_character, minimal_conductor, record
from .quadfield import FieldE, QIdeal, fd
from .resunits import units_structure
from .valuefield import check_Q1, check_R1, rationality_field

H1_DISCS = (-3, -4, -7, -8, -11, -19, -43, -67, -163)
# (D, q, r): the cubic class-number-one witnesses, order-r characters
# mod (q)
H1_D3_RECIPES = ((-7, 7, 14), (-3, 27, 18))
EXP2_BOUND = 5460
EXP3_BOUND = 4027
# norm bound of the order-4 nonexistence searches
SEARCH_BOUND = 10 ** 4


@dataclass(frozen=True)
class TableRow:
    """One classification row: the pair (K, E) with its witness character."""

    delta_E: int
    delta_K: int
    degree: int
    level: int
    provenance: str
    poly: tuple[int, ...] | None = None
    hcf: bool = False
    witness: dict | None = None


@dataclass(frozen=True)
class Rejection:
    delta_E: int
    reason: str                 # "Q1" or "ramified-sign"
    detail: tuple = ()


@dataclass(frozen=True)
class SearchReport:
    """Bounded-search evidence that no order-4 modulus character works."""

    delta_E: int
    r: int
    bound: int
    moduli_checked: int
    found: tuple = ()

    @property
    def nonexistence(self) -> bool:
        return not self.found


@dataclass(frozen=True)
class HigherOrderSurvey:
    """The rows of the higher-order family, its (R1) results, and the
    fields where order-4 characters are certified absent up to
    SEARCH_BOUND: certified on first read of ``searches``, which keeps the
    reports as long as the survey is cached."""

    rows: tuple[TableRow, ...]
    r1: MappingProxyType        # (delta_E, r) -> R1Result, read-only
    search_discs: tuple[int, ...]

    @cached_property
    def searches(self) -> tuple[SearchReport, ...]:
        return tuple(nonexistence_search_r4(FieldE(D), SEARCH_BOUND)
                     for D in self.search_discs)


def clear_memo() -> None:
    """Forget every entry of every cache (anything with ``cache_clear``)
    in a loaded module of this package: the cached families and the
    local unit groups, class groups, prime ideals and cyclotomic
    polynomials that they share."""
    prefix = __package__ + "."
    for name, module in list(sys.modules.items()):
        if name.startswith(prefix):
            for obj in vars(module).values():
                if callable(getattr(obj, "cache_clear", None)):
                    obj.cache_clear()


def _witness_row(field: FieldE, m: QIdeal, ell: int, provenance: str,
                 order: int | None = None, want_deg: int | None = None
                 ) -> TableRow:
    psi = first_character(field, m, ell, order=order, want_deg=want_deg)
    if psi is None:
        raise ArithmeticError(
            f"no {provenance} witness at disc {field.disc}, modulus norm "
            f"{int(m.norm())}, ell {ell}")
    K = rationality_field(psi)
    h = psi.cg.order
    hcf = bool(K.degree == 2 and h == 2
               and K.disc * fd(psi.field.disc * K.disc) == psi.field.disc)
    return TableRow(psi.field.disc, K.disc, K.degree, psi.level, provenance,
                    K.poly if K.degree == 3 else None, hcf, record(psi))


def _d1_modulus(field: FieldE) -> QIdeal:
    if field.disc == -3:
        return QIdeal.from_element(field.element(3))
    if field.disc == -4:
        return QIdeal.primes_over(field, 2)[0] ** 3
    return minimal_conductor(field)


def _d2_recipes(field: FieldE) -> list[tuple[QIdeal, int]]:
    D = field.disc
    if D == -3:
        return [(QIdeal.from_element(field.element(11) * field.sqrt_disc), 12)]
    if D == -4:
        p2c = QIdeal.primes_over(field, 2)[0] ** 3
        return [(QIdeal.from_element(field.element(7)) * p2c, 8),
                (QIdeal.from_element(field.element(11)) * p2c, 12)]
    base = minimal_conductor(field)
    if D == -8:
        m4 = base
    elif D in (-11, -19):
        m4 = QIdeal.from_element(field.element(5)) * base
    else:
        m4 = QIdeal.from_element(field.element(3)) * base
    if D in (-7, -8):
        m6 = QIdeal.from_element(field.element(5)) * base
    else:
        m6 = QIdeal.from_element(field.element(2)) * base
    return [(m4, 4), (m6, 6)]


@cache
def survey_h1(ell: int = 1, d: int = 1) -> tuple[TableRow, ...]:
    """Class-number-one constructions with value degree d over E."""
    if ell % 2 != 1 or d not in (1, 2, 3):
        raise ValueError("need odd ell and d in (1, 2, 3)")
    rows: list[TableRow] = []
    if d == 1:
        for D in H1_DISCS:
            field = FieldE(D)
            rows.append(_witness_row(field, _d1_modulus(field), ell, "h1-d1",
                                     want_deg=1))
    elif d == 2:
        for D in H1_DISCS:
            field = FieldE(D)
            for m, r in _d2_recipes(field):
                rows.append(_witness_row(field, m, ell, "h1-d2", order=r,
                                         want_deg=2))
    else:
        for D, q, r in H1_D3_RECIPES:
            field = FieldE(D)
            m = QIdeal.from_element(field.element(q))
            rows.append(_witness_row(field, m, ell, "h1-d3", order=r,
                                     want_deg=3))
    return tuple(rows)


@cache
def _exponent_discs(exponent: int) -> tuple[int, ...]:
    """The exponent-2 list to EXP2_BOUND or the exponent-3 list to
    EXP3_BOUND, computed once for every sweep that reads it."""
    bound = EXP2_BOUND if exponent == 2 else EXP3_BOUND
    return tuple(enumerate_discriminants(bound, exponent=exponent))


@cache
def survey_quadratic_modulus(exponent: int = 2, ell: int = 1
                             ) -> tuple[tuple[TableRow, ...],
                                        tuple[Rejection, ...]]:
    """Sweep the full exponent-2 or exponent-3 discriminant list with a
    quadratic character mod the minimal conductor."""
    if exponent not in (2, 3) or ell % 2 != 1:
        raise ValueError("need exponent 2 or 3 and odd ell")
    if exponent == 3 and ell % 3 == 0:
        raise ValueError("the exponent-3 sweep needs ell prime to 3")
    rows: list[TableRow] = []
    rejections: list[Rejection] = []
    for D in _exponent_discs(exponent):
        field = FieldE(D)
        _, orders = class_structure(field)
        if len(orders) >= 2:
            if check_Q1(field, ell).holds:
                # a matched sign assignment eta(theta_i) = eps_i would be
                # needed, which no sweep builds
                raise ArithmeticError(
                    f"(Q1) holds at the noncyclic disc {D}, ell {ell}")
            rejections.append(Rejection(D, "Q1", (ell,)))
            continue
        if exponent == 2 and D % 8 == 4:
            # 4 || Delta: no quadratic character mod the minimal
            # conductor restricts to chi_E, the dyadic signs clash
            rejections.append(Rejection(D, "ramified-sign"))
            continue
        rows.append(_witness_row(field, minimal_conductor(field), ell,
                                 f"quadmod-e{exponent}", order=2))
    return tuple(rows), tuple(rejections)


def nonexistence_search_r4(field: FieldE, bound: int) -> SearchReport:
    """Search all moduli m with N(m) <= bound for an order-4 character
    eta with eta restricting to chi_E and eta(theta) = +-i.

    Any such eta needs the ramified part (sqrt Delta) inside m, so only
    the multiples m = (sqrt Delta) * m' are scanned, in the order of
    N(m').  Each asks solve_character_conditions on the unit group of o/m
    for the characters of order dividing 4 with eta(theta) = i that
    restrict to chi_E.  eta -> eta^-1 keeps chi_E (real) and the order,
    and sends eta(theta) = i to -i, so one solve answers both values.
    theta comes first: with no component of order divisible by 4 its
    angle 1/4 ends the solve before any generator is logged.  Returns
    the (empty, if the claim holds) list of hits together with the
    number of moduli checked.
    """
    dd = QIdeal.from_element(field.sqrt_disc)
    nd = int(dd.norm())
    if bound < nd:
        raise ValueError("the norm bound is below the norm of (sqrt D)")
    moduli = list(ideals_of_norm_up_to(field, bound // nd))
    found: list[tuple[int, Fraction]] = []
    for norm, mp in moduli:
        M = nd * norm
        theta = class_group(field, coprime_to=M).thetas[0]
        conds = [(theta, Fraction(1, 4))] + _chi_e_conditions(field, M)
        if solve_character_conditions(units_structure(field, dd * mp), conds,
                                      order_divides=4):
            found.extend([(M, Fraction(1, 4)), (M, Fraction(3, 4))])
    return SearchReport(field.disc, 4, bound, len(moduli), tuple(found))


@cache
def survey_higher_order(ell: int = 1) -> HigherOrderSurvey:
    """Order-4 and order-6 modulus characters over the exponent-2 list.

    Runs the root condition (R1) for r in {4, 6} on every field, then
    builds the characters where it holds: r = 4 with 4 || Delta at the
    minimal conductor, r = 6 at p_3 times the minimal conductor.  For
    r = 4 with 8 | Delta no compatible character exists at any modulus;
    that is certified up to SEARCH_BOUND on first read of ``searches``.
    """
    if ell % 2 != 1:
        raise ValueError("need odd ell")
    r1 = {}
    for D in _exponent_discs(2):
        field = FieldE(D)
        for r in (4, 6):
            r1[(D, r)] = check_R1(field, ell, r)
    rows: list[TableRow] = []
    search_discs: list[int] = []
    for (D, r), res in sorted(r1.items()):
        if not res.holds:
            continue
        field = FieldE(D)
        _, orders = class_structure(field)
        if orders != (2,):
            raise ArithmeticError(
                f"(R1) holds for r = {r} at disc {D}, ell {ell}, with class "
                f"group orders {orders}, not (2,)")
        if r == 4:
            if D % 8 == 4:
                rows.append(_witness_row(field, minimal_conductor(field), ell,
                                         "highord-r4", order=4, want_deg=2))
            else:
                search_discs.append(D)
        else:
            p3 = QIdeal.primes_over(field, 3)[0]
            m = p3 * minimal_conductor(field)
            rows.append(_witness_row(field, m, ell, "highord-r6", order=6,
                                     want_deg=2))
    return HigherOrderSurvey(tuple(rows), MappingProxyType(r1),
                             tuple(search_discs))


def theorem2_tables(ell: int = 1) -> dict[int, tuple[int, ...]]:
    """The degree-2 classification at weight ell + 1, full at ell = 1:
    {delta_K: tuple of delta_E, descending}, deduplicated across the three
    degree-2 families.  At ell > 1 it holds what the families find, which
    nothing shows complete; at ell = 3 it raises ArithmeticError, as the
    class-number-one family has no degree-2 witness at disc -3.  deg3_pairs gives the cubic pairs; the order-4 searches of
    the higher-order family run to SEARCH_BOUND on first read of its
    ``searches``, which no table reads."""
    d2_rows = (survey_h1(ell, 2) + survey_quadratic_modulus(2, ell)[0]
               + survey_higher_order(ell).rows)
    by_K: dict[int, set[int]] = {}
    for row in d2_rows:
        if row.degree != 2:
            raise ArithmeticError(f"degree-{row.degree} row in a degree-2 family")
        by_K.setdefault(row.delta_K, set()).add(row.delta_E)
    return {K: tuple(sorted(Ds, reverse=True))
            for K, Ds in sorted(by_K.items())}


def deg3_pairs(ell: int = 1) -> list[tuple[int, int]]:
    """Sorted, deduplicated (delta_K, delta_E) pairs of the cubic families."""
    rows = survey_h1(ell, 3) + survey_quadratic_modulus(3, ell)[0]
    pairs = sorted({(row.delta_K, row.delta_E) for row in rows})
    if any(K <= 0 or D >= 0 for K, D in pairs):
        raise ArithmeticError("a cubic pair is not (real K, imaginary E)")
    return pairs


def all_rows(ell: int = 1) -> list[TableRow]:
    """Every emitted classification row across the three families."""
    rows = [*survey_h1(ell, 1), *survey_h1(ell, 2), *survey_h1(ell, 3),
            *survey_quadratic_modulus(2, ell)[0]]
    if ell % 3 != 0:
        rows.extend(survey_quadratic_modulus(3, ell)[0])
    rows.extend(survey_higher_order(ell).rows)
    return rows
