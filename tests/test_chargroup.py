"""Characters of residue unit groups and their rational restrictions."""

from __future__ import annotations

from fractions import Fraction
from hashlib import sha256
from math import gcd

import pytest

from grossen.chargroup import (DirichletChar, conductor_of,
                               dirichlet_from_kronecker, enumerate_eta,
                               factors_through, restrict_to_Z,
                               solve_character_conditions)
from grossen.cmform import ideals_of_norm_up_to
from grossen.quadfield import FieldE, QIdeal, kronecker
from grossen.resunits import IntUnitGroup, units_structure


def dirichlet_conductor(chi) -> int:
    """The least Q' | Q with chi trivial on every unit a = 1 mod Q'."""
    m = chi.modulus
    return min(q for q in range(1, m + 1) if m % q == 0
               and all(chi.angle(a) == 0 for a in range(1, m, q)
                       if gcd(a, m) == 1))


def test_dirichlet_from_kronecker():
    chi = dirichlet_from_kronecker(-4)
    assert chi.order == 2
    assert dirichlet_conductor(chi) == 4
    for a in range(1, 40):
        if a % 2:
            assert chi.sign(a) == kronecker(-4, a)
    chi15 = dirichlet_from_kronecker(-15)
    assert dirichlet_conductor(chi15) == 15
    for a in range(1, 40):
        if gcd(a, 15) == 1:
            assert chi15.sign(a) == kronecker(-15, a)


def test_dirichlet_at_larger_modulus():
    # induced to modulus 20: same values on units, conductor still 4
    chi = dirichlet_from_kronecker(-4, modulus=20)
    assert chi.modulus == 20
    assert dirichlet_conductor(chi) == 4
    for a in range(1, 40):
        if gcd(a, 20) == 1:
            assert chi.sign(a) == kronecker(-4, a)


def test_dirichlet_char_checks_its_exponents():
    # the unit orders mod 15 are (2, 4), so 2 does not fit the first
    assert IntUnitGroup(15).orders == (2, 4)
    with pytest.raises(ValueError):
        DirichletChar(IntUnitGroup(15), (2, 0))
    assert DirichletChar(IntUnitGroup(15), (1, 3)).order == 4


def test_group_char_operations():
    field = FieldE(-15)
    m = QIdeal.from_element(field.sqrt_disc)
    etas = enumerate_eta(field, m)
    assert etas
    eta = etas[0]
    assert (eta * eta).order == eta.order // gcd(eta.order, 2)
    assert (eta ** 0).order == 1
    assert (eta ** eta.order).order == 1
    assert eta ** 2 == eta * eta


def test_no_conditions_give_every_character():
    # 7 is inert in E = Q(sqrt(-15)): (o/7)^x is cyclic of order 48
    field = FieldE(-15)
    S = units_structure(field, QIdeal.primes_over(field, 7)[0])
    chars = solve_character_conditions(S, [])
    assert S.total_order == 48
    assert len({eta.exps for eta in chars}) == len(chars) == 48


def test_enumerate_eta_restricts_to_field_character():
    field = FieldE(-15)
    m = QIdeal.from_element(field.sqrt_disc)
    for eta in enumerate_eta(field, m):
        chi = restrict_to_Z(eta)
        for a in range(1, 30):
            if gcd(a, 15) == 1:
                assert chi.sign(a) == field.chi(a)
        # angle on a rational unit matches the restriction
        assert eta.angle(field.element(2)) == chi.angle(2)


def test_enumerate_eta_order_filter():
    field = FieldE(-20)
    from grossen.grossenchar import minimal_conductor
    m = minimal_conductor(field)
    all_etas = enumerate_eta(field, m)
    quartic = enumerate_eta(field, m, order_equals=4)
    assert quartic and all(e.order == 4 for e in quartic)
    assert len(quartic) <= len(all_etas)
    divides = enumerate_eta(field, m, order_divides=4)
    assert all(4 % e.order == 0 for e in divides)
    assert {e.exps for e in quartic} <= {e.exps for e in divides}


def test_enumerate_eta_solution_sets_are_pinned():
    # every modulus of norm up to the bound, by norm, under four order
    # filters; the digest pins the sorted exponent vectors of each set
    grid = [(-3, 200), (-4, 200), (-7, 150), (-8, 150), (-15, 120),
            (-20, 100), (-23, 100), (-24, 100), (-39, 80), (-84, 60),
            (-163, 60), (-420, 40)]
    filters = [{}, {"order_equals": 2}, {"order_divides": 6},
               {"order_equals": 12}]
    h = sha256()
    count = 0
    for disc, bound in grid:
        field = FieldE(disc)
        for _, m in ideals_of_norm_up_to(field, bound):
            for f in filters:
                exps = sorted(eta.exps for eta in enumerate_eta(field, m, **f))
                count += len(exps)
                h.update(repr((disc, m.a, m.b, m.scale, sorted(f.items()),
                               exps)).encode())
    assert count == 669
    assert h.hexdigest()[:16] == "8a2d84c79fb14f6f"


def test_eta_trivial_on_meeting_torsion():
    field = FieldE(-4)
    p2 = QIdeal.primes_over(field, 2)[0]
    m = p2 ** 3
    S = units_structure(field, m)
    for eta in enumerate_eta(field, m, structure=S):
        for u in S.torsion_meet:
            assert eta.angle(u) == Fraction(0)


def test_conductor_of():
    field = FieldE(-15)
    m = QIdeal.from_element(field.sqrt_disc)
    p2 = QIdeal.primes_over(field, 2)[0]
    big = p2 * m
    for eta in enumerate_eta(field, m):
        assert conductor_of(eta).divides(m) or m.divides(conductor_of(eta))
    # a character genuinely living mod m, viewed mod p2*m, factors through m
    inflated = enumerate_eta(field, big)
    assert any(factors_through(eta, m) for eta in inflated)
