"""Value algebras, radical tests, and rationality-field computation."""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import product

import mpmath
import pytest
import sympy
from sympy.polys.numberfields.basis import round_two

from grossen.chargroup import enumerate_eta
from grossen.classgroup import class_group
from grossen.grossenchar import build, minimal_conductor
from grossen.quadfield import FieldE
from grossen.valuefield import (_p_overorder, check_Q1, check_R1,
                                cubic_field_disc, is_cube, is_square,
                                rationality_field, value_field_degree,
                                ValueAlgebra)

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
    assert _p_overorder((1, 0, -1, -1), 23) is None
    # x**3 - 7x - 2: index 2, caught at p = 2
    assert _p_overorder((1, 0, -7, -2), 2) is not None


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


def test_is_cube_planted_cases():
    """Cases that no table, witness or unit workload reaches: gamma = 0,
    cubes at D = -3, where each has three cube roots in E, and at D = -4,
    where every unit is a cube, and cubes and non-cubes with
    denominators, whose coordinates must be scaled by a cube."""
    f3, f4, f7 = FieldE(-3), FieldE(-4), FieldE(-7)
    assert is_cube(f3, f3.zero) and is_cube(f7, f7.zero)
    zeta3 = f3.omega + 1        # w = (-3 + sqrt(-3))/2, so w + 1 = zeta_3
    assert zeta3 ** 3 == f3.one
    for x, y in ((1, 1), (2, -1), (-3, 5), (4, 7)):
        delta = f3.element(x, y)
        roots = {delta * zeta3 ** k for k in range(3)}
        assert len(roots) == 3 and all(r ** 3 == delta ** 3 for r in roots)
        assert is_cube(f3, delta ** 3) and is_cube(f3, -delta ** 3)
        assert not is_cube(f3, zeta3 * delta ** 3)
        assert is_cube(f3, (delta / 2) ** 3)
    i = f4.omega + 2            # w = (-4 + sqrt(-4))/2 = -2 + i
    for x, y in ((1, 1), (3, -2), (-5, 4)):
        delta = f4.element(x, y)
        for u in (i, -i, f4.one, -f4.one):
            assert is_cube(f4, u * delta ** 3)
        assert not is_cube(f4, (1 + i) * delta ** 3)
    half = (1 + i) / 2          # its cube (-1 + i)/4 has denominator 4
    assert (half ** 3).y == Fraction(1, 4)
    assert is_cube(f4, half ** 3)
    assert is_cube(f7, ((3 + 2 * f7.omega) / 5) ** 3)
    assert is_cube(f7, ((1 + f7.omega) / 2) ** 3)
    for gamma in (f7.element(Fraction(1, 2)), (3 + 2 * f7.omega) / 5,
                  f7.element(Fraction(1, 4), Fraction(3, 4))):
        assert not is_cube(f7, gamma)


def test_is_cube_norm_cube_but_not_cube():
    # h(-23) = 3: theta generates t**3 for a nonprincipal t, so N(theta)
    # = N(t)**3 is a cube while theta is not
    f23 = FieldE(-23)
    theta = class_group(f23).thetas[0]
    assert theta.norm() == 8
    assert not is_cube(f23, theta)
    assert is_cube(f23, theta ** 3)


def test_value_algebra_refuses_a_radicand_with_a_denominator():
    with pytest.raises(ValueError, match="radicands must be integral"):
        ValueAlgebra(FieldE(-15), 2, [(2, {(0, 0, (0,)): Fraction(1, 2)})])
    alg = ValueAlgebra(FieldE(-15), 2, [(2, {(0, 0, (0,)): Fraction(6, 3),
                                             (1, 1, (0,)): -5})])
    assert alg.radicands == [{(0, 0, (0,)): 2, (1, 1, (0,)): -5}]
    assert all(type(c) is int for c in alg.radicands[0].values())


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


def test_cyclotomic_coeffs_are_kept_until_clear_memo():
    from grossen import survey
    from grossen.grossenchar import first_character
    from grossen.valuefield import _cyclotomic_coeffs

    field = FieldE(-7)          # class number 1: no radicals
    psi = first_character(field, minimal_conductor(field), 1)
    assert psi.algebra.ns == ()
    assert _cyclotomic_coeffs(12) == (1, 0, -1, 0, 1)
    assert _cyclotomic_coeffs.cache_info().currsize > 0
    survey.clear_memo()
    assert _cyclotomic_coeffs.cache_info().currsize == 0


# -- the integer normal form against the earlier Fraction one ----------------

class _FractionNormalForm:
    """The earlier normal form of ValueAlgebra, kept as the oracle of the
    integer one: every coefficient a Fraction, starting from Fraction(1),
    with w**2 = d w - (d*d - d)/4 as a Fraction, and the rule for z**phi
    and the radicands read as Fractions."""

    def __init__(self, alg):
        self.alg = alg
        self.rule = [(Fraction(x), Fraction(y)) for x, y in alg._zeta_rule]
        self.radicands = [{key: Fraction(c) for key, c in rad.items()}
                          for rad in alg.radicands]
        self.memo = []

    def zeta_reduced(self, b):
        phi, d = self.alg.phi, self.alg.field.disc
        if b < phi:
            return {(0, b): Fraction(1)}
        cache = self.memo
        while len(cache) <= b - phi:
            cur = {}
            if not cache:
                for j, (cx, cy) in enumerate(self.rule):
                    if cx:
                        cur[(0, j)] = cx
                    if cy:
                        cur[(1, j)] = cy
            else:
                base = cache[0]
                for (a1, j1), c in cache[-1].items():
                    if j1 + 1 < phi:
                        key = (a1, j1 + 1)
                        cur[key] = cur.get(key, Fraction(0)) + c
                        continue
                    for (a2, j2), c2 in base.items():
                        cc = c * c2
                        if a1 + a2 < 2:
                            key = (a1 + a2, j2)
                            cur[key] = cur.get(key, Fraction(0)) + cc
                        else:
                            cur[(1, j2)] = cur.get((1, j2),
                                                   Fraction(0)) + cc * d
                            low = cc * Fraction(-(d * d - d), 4)
                            cur[(0, j2)] = cur.get((0, j2),
                                                   Fraction(0)) + low
            cache.append({key: v for key, v in cur.items() if v})
        return cache[b - phi]

    def reduce_into(self, acc, key, coeff):
        if coeff == 0:
            return
        a, b, cs = key
        d = self.alg.field.disc
        if a >= 2:
            rest = (a - 2, b, cs)
            self.reduce_into(acc, (rest[0] + 1, b, cs), coeff * d)
            self.reduce_into(acc, rest, coeff * Fraction(-(d * d - d), 4))
            return
        if b >= self.alg.phi:
            for (za, zj), zc in self.zeta_reduced(b).items():
                self.reduce_into(acc, (a + za, zj, cs), coeff * zc)
            return
        for i, n in enumerate(self.alg.ns):
            if cs[i] >= n:
                lowered = list(cs)
                lowered[i] -= n
                for gkey, gc in self.radicands[i].items():
                    merged = (a + gkey[0], b + gkey[1],
                              tuple(x + y for x, y in zip(lowered, gkey[2])))
                    self.reduce_into(acc, merged, coeff * gc)
                return
        acc[key] = acc.get(key, Fraction(0)) + coeff

    def coords(self, key):
        acc = {}
        self.reduce_into(acc, key, Fraction(1))
        return tuple(sorted((k, c) for k, c in acc.items() if c))

    def table(self):
        """The structure constants as Fractions, each monomial product's
        row computed once."""
        alg = self.alg
        keys = [[(k1[0] + k2[0], k1[1] + k2[1],
                  tuple(a + b for a, b in zip(k1[2], k2[2])))
                 for k2 in alg.basis] for k1 in alg.basis]
        normal = {key: tuple(sorted((alg._index[m], c)
                                    for m, c in self.coords(key)))
                  for key in {key for row in keys for key in row}}
        return [[normal[key] for key in row] for row in keys]


def _normal_form_mismatches(alg):
    """What of the algebra differs from the Fraction oracle: the structure
    constants (a Fraction equals an int only where it is one),
    zeta_pow(k) for every k < r, and monomials with w, z and radical
    exponents past their normal range."""
    oracle = _FractionNormalForm(alg)
    out = []
    if alg._table != oracle.table():
        out.append("table")
    pad = (0,) * len(alg.ns)
    for k in range(alg.r):
        if alg.zeta_pow(k).coords != oracle.coords((0, k, pad)):
            out.append(("zeta_pow", k))
    bs = sorted({0, 1, alg.phi - 1, alg.phi, alg.r - 1, alg.r + 1} - {-1})
    for a in range(4):
        for b in bs:
            for cs in product(*(range(n + 2) for n in alg.ns)):
                if alg.monomial(a, b, cs).coords != oracle.coords((a, b, cs)):
                    out.append(("monomial", a, b, cs))
    return out


def _table_and_witness_algebras(monkeypatch, capsys):
    """Every value algebra that the five `grossen table` outputs and the
    rebuilt 67 classification witnesses of `verify all` construct."""
    from grossen import cli, survey
    from grossen.grossenchar import from_record

    built = []
    init = ValueAlgebra.__init__

    def recording(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self)

    monkeypatch.setattr(ValueAlgebra, "__init__", recording)
    survey.clear_memo()
    for name in ("deg2", "deg3", "quadodd", "quadeven", "quade3"):
        assert cli.main(["table", name]) == 0
    rows = survey.all_rows(1)
    assert len(rows) == 67
    for row in rows:
        from_record(row.witness, check=False)
    capsys.readouterr()
    survey.clear_memo()
    monkeypatch.undo()
    return built


def test_integer_normal_form_matches_the_fraction_one(monkeypatch, capsys):
    from grossen.classgroup import enumerate_discriminants
    from grossen.survey import EXP2_BOUND

    # the radical-free algebras of the zeta-rule cases, r = |D| k
    zeta_rule_algebras = [ValueAlgebra(FieldE(D), abs(D) * k)
                          for D in (-3, -4, -7, -8, -11, -15, -19, -20, -23,
                                    -24)
                          for k in range(1, 9)]
    # the quartic E(zeta_r), r = 4, 6, over the exponent-2 fields
    exp2 = enumerate_discriminants(EXP2_BOUND, exponent=2)
    assert len(exp2) == 56
    quartic_algebras = [ValueAlgebra(FieldE(D), r)
                        for D in exp2 for r in (4, 6)]
    for alg in zeta_rule_algebras + quartic_algebras:
        assert _normal_form_mismatches(alg) == [], (alg.field.disc, alg.r,
                                                    alg.ns)
    # every algebra of the five tables and the 67 witnesses
    built = _table_and_witness_algebras(monkeypatch, capsys)
    assert len(built) > 250
    assert any(alg.ns for alg in built) and any(alg.over_field
                                                for alg in built)
    for alg in built:
        assert _normal_form_mismatches(alg) == [], (alg.field.disc, alg.r,
                                                    alg.ns)
