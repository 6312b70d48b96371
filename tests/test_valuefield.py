"""Value algebras, radical tests, and rationality-field computation."""

from __future__ import annotations

import random
from fractions import Fraction

import mpmath
import pytest
import sympy
from sympy.polys.numberfields.basis import round_two

from grossen.chargroup import enumerate_eta
from grossen.classgroup import class_group
from grossen.grossenchar import build, minimal_conductor
from grossen.quadfield import FieldE
from grossen.valuefield import (check_Q1, check_R1, cubic_field_disc,
                                dedekind_maximal, is_cube, is_square,
                                rationality_field, value_field_degree)

CUBICS = {
    # delta_E -> (monic cubic, field discriminant)
    -23: ((1, 0, -6, -3), 621),
    -31: ((1, 0, -6, -1), 837),
    -59: ((1, 0, -9, -7), 1593),
    -83: ((1, 0, -9, -5), 2241),
    -107: ((1, 0, -9, -1), 321),
    -139: ((1, 0, -15, -19), 3753),
    -211: ((1, 0, -15, -17), 5697),
    -283: ((1, 0, -21, -33), 7641),
    -307: ((1, 0, -21, -12), 8289),
    -331: ((1, 0, -15, -13), 993),
    -379: ((1, 0, -15, -11), 10233),
    -499: ((1, 0, -15, -1), 13473),
    -547: ((1, 0, -33, -56), 14769),
    -643: ((1, 0, -21, -27), 1929),
    -883: ((1, 0, -39, -29), 23841),
    -907: ((1, 0, -39, -25), 24489),
}


def _sympy_field_disc(coeffs):
    x = sympy.symbols("x")
    poly = sum(c * x ** (len(coeffs) - 1 - i) for i, c in enumerate(coeffs))
    return int(round_two(sympy.Poly(poly, x))[1])


def test_cubic_field_disc_against_maximal_order():
    for coeffs, want in CUBICS.values():
        assert cubic_field_disc(coeffs) == want
        assert _sympy_field_disc(coeffs) == want
    # the two cyclic cubics of conductors 7 and 9
    assert _sympy_field_disc((1, -1, -2, 1)) == 49
    assert _sympy_field_disc((1, 0, -3, 1)) == 81


def test_cubic_field_disc_nonmaximal_equation_order():
    # x**3 - 7x - 2 has polynomial disc 1264 = 2**4 * 79 but the equation
    # order has index 2, so the field disc is 316
    assert cubic_field_disc((1, 0, -7, -2)) == 316
    assert _sympy_field_disc((1, 0, -7, -2)) == 316


def test_dedekind_maximal():
    # x**3 - x - 1 has square-free disc -23: maximal at every prime
    assert dedekind_maximal((1, 0, -1, -1), 23)
    # x**3 - 7x - 2: index 2, caught at p = 2
    assert not dedekind_maximal((1, 0, -7, -2), 2)


def test_is_square():
    f15 = FieldE(-15)
    f4 = FieldE(-4)
    assert is_square(f4, f4.element(-1))
    assert not is_square(f15, f15.element(-1))
    assert is_square(f15, f15.element(-15))       # (sqrt disc)**2
    assert not is_square(f15, f15.element(2))
    assert is_square(f15, f15.element(4))
    rng = random.Random(11)
    for _ in range(20):
        g = f15.element(rng.randint(-9, 9), rng.randint(-9, 9))
        if g == f15.zero:
            continue
        assert is_square(f15, g * g)


def test_is_cube():
    f7 = FieldE(-7)
    assert is_cube(f7, f7.element(8))
    assert is_cube(f7, f7.element(-27))
    assert not is_cube(f7, f7.element(2))
    rng = random.Random(12)
    for _ in range(20):
        g = f7.element(rng.randint(-6, 6), rng.randint(-6, 6))
        if g == f7.zero:
            continue
        assert is_cube(f7, g ** 3)
    assert not is_cube(f7, f7.omega)
    assert is_cube(f7, (f7.element(3, 2) / 5) ** 3)


def test_is_cube_norm_cube_but_not_cube():
    # h(-23) = 3: theta generates t**3 for a nonprincipal t, so N(theta)
    # = N(t)**3 is a cube while theta is not
    f23 = FieldE(-23)
    theta = class_group(f23).thetas[0]
    assert theta.norm() == 8
    assert not is_cube(f23, theta)
    assert is_cube(f23, theta ** 3)


def test_check_Q1():
    # the compatibility test only applies to noncyclic class groups
    with pytest.raises(ValueError):
        check_Q1(FieldE(-15), 1)
    assert not check_Q1(FieldE(-84), 1).holds
    # exponent-3 field unreachable even doubling the weight
    assert not check_Q1(FieldE(-4027), 1).holds
    assert not check_Q1(FieldE(-4027), 2).holds


def test_check_Q1_data_positive():
    from grossen.valuefield import check_Q1_data
    field = FieldE(-84)
    # duplicated generators make every pairwise product a square
    a = field.element(5, 2)
    res = check_Q1_data(field, [a, a], [2, 2], 1)
    assert res.holds and res.signs is not None


def test_check_R1():
    for d in (-20, -52, -148):
        assert check_R1(FieldE(d), 1, 4).holds


@pytest.fixture(scope="module")
def psi15():
    field = FieldE(-15)
    m = minimal_conductor(field)
    for eta in enumerate_eta(field, m, order_equals=2):
        return build(field, m, 1, eta)
    raise RuntimeError("no witness character")


def test_value_field_degree(psi15):
    assert value_field_degree(psi15) == 2


def test_rationality_field(psi15):
    R = rationality_field(psi15)
    assert R.degree == 2
    assert R.disc == 5
    # the recorded polynomial is x**2 - x - 1 or an integral model of disc 5
    x = sympy.symbols("x")
    poly = sum(c * x ** (len(R.poly) - 1 - i) for i, c in enumerate(R.poly))
    assert int(sympy.discriminant(sympy.Poly(poly, x))) in (5, 20)


def test_algebra_arithmetic(psi15):
    alg = psi15.algebra
    one = alg.one
    w = alg.omega()
    assert w * w == alg.scalar(psi15.field.omega_trace) * w - alg.scalar(
        psi15.field.omega_norm) * one
    z = alg.zeta_pow(1)
    r = psi15.r
    acc = one
    for _ in range(r):
        acc = acc * z
    assert acc == one
    assert (w - w).is_zero
    assert alg.scalar(Fraction(3, 2)) + alg.scalar(Fraction(1, 2)) == alg.scalar(2)


def test_algebra_embedding_matches_complex(psi15):
    alg = psi15.algebra
    w = psi15.field.omega
    with mpmath.workprec(120):
        got = alg.from_quad(w).embed()
        d = psi15.field.disc
        want = complex(d / 2, abs(d) ** 0.5 / 2)      # w with Im sqrt(D) > 0
        assert abs(complex(got) - want) < 1e-20


def test_radical_free_algebra_is_shared_until_clear_memo():
    from grossen import survey
    from grossen.grossenchar import first_character
    from grossen.valuefield import _cyclotomic_coeffs, _radical_free

    field = FieldE(-7)          # class number 1: no radicals
    psi = first_character(field, minimal_conductor(field), 1)
    alg = _radical_free(field, psi.r)
    assert psi.algebra is alg and alg.ns == ()
    assert _cyclotomic_coeffs(12) == (1, 0, -1, 0, 1)
    survey.clear_memo()
    assert _radical_free.cache_info().currsize == 0
    assert _cyclotomic_coeffs.cache_info().currsize == 0
    assert _radical_free(field, psi.r) is not alg
