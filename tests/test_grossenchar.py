"""Construction, evaluation, and serialization of unitary characters."""

from __future__ import annotations

import hashlib

import mpmath
import pytest
import sympy

from grossen import grossenchar
from grossen.chargroup import enumerate_eta
from grossen.cmform import q_expansion
from grossen.grossenchar import (GrossencharError, IncompatibleCharacterError,
                                 NoSuchCharacterError, build, conductor,
                                 evaluate, from_record,
                                 minimal_conductor, record)
from grossen.numeric import embed_many
from grossen.quadfield import FieldE, QIdeal


def _witness(disc, ell=1, order=None):
    field = FieldE(disc)
    m = minimal_conductor(field)
    for eta in enumerate_eta(field, m, order_equals=order):
        try:
            return build(field, m, ell, eta)
        except (IncompatibleCharacterError, NoSuchCharacterError):
            continue
    raise RuntimeError("no witness character")


@pytest.fixture(scope="module")
def psi15():
    return _witness(-15, order=2)


def test_minimal_conductor_norms():
    assert minimal_conductor(FieldE(-15)).norm() == 15
    assert minimal_conductor(FieldE(-7)).norm() == 7
    assert minimal_conductor(FieldE(-4)).norm() == 8
    assert minimal_conductor(FieldE(-20)).norm() == 40
    assert minimal_conductor(FieldE(-8)).norm() == 32
    assert minimal_conductor(FieldE(-24)).norm() == 96


def test_level_and_weight(psi15):
    assert psi15.weight == 2
    assert psi15.level == 15 * 15
    assert psi15.ell == 1


def test_value_on_shifted_principal(psi15):
    # alpha = 1 mod m forces psi((alpha)) = alpha**ell
    field = psi15.field
    alpha = field.one + field.sqrt_disc
    val = evaluate(psi15, QIdeal.from_element(alpha))
    assert val == psi15.algebra.from_quad(alpha)


def test_value_on_rational_prime(psi15):
    # 7 is inert in the rational sense chi(7) = -1: psi((7)) = -7
    field = psi15.field
    val = evaluate(psi15, QIdeal.from_element(field.element(7)))
    assert val == psi15.algebra.scalar(-7)


def test_multiplicativity(psi15):
    field = psi15.field
    p2 = QIdeal.primes_over(field, 2)[0]
    p7 = QIdeal.primes_over(field, 7)[0]
    lhs = evaluate(psi15, p2 * p7)
    rhs = evaluate(psi15, p2) * evaluate(psi15, p7)
    assert lhs == rhs


def test_unitary_size(psi15):
    # |psi(P)|**2 = N(P) at the distinguished embedding
    field = psi15.field
    p2 = QIdeal.primes_over(field, 2)[0]
    with mpmath.workprec(120):
        v = embed_many(psi15.algebra, [evaluate(psi15, p2)])[0]
        assert abs(abs(v) ** 2 - 2) < 1e-25


def test_non_coprime_ideal_vanishes(psi15):
    field = psi15.field
    p3 = QIdeal.primes_over(field, 3)[0]
    assert evaluate(psi15, p3).is_zero


def test_call_matches_evaluate(psi15):
    field = psi15.field
    p2 = QIdeal.primes_over(field, 2)[0]
    assert psi15(p2) == evaluate(psi15, p2)


def test_record_roundtrip(psi15):
    rec = record(psi15)
    psi2 = from_record(rec)
    field = psi2.field
    assert psi2.level == psi15.level
    for p in (2, 7, 11, 13):
        for P in QIdeal.primes_over(field, p):
            assert evaluate(psi2, P) == evaluate(psi15, P)


def test_record_is_json_friendly(psi15):
    import json
    rec = record(psi15)
    json.dumps(rec)    # no exotic types anywhere


def test_conductor_primitive(psi15):
    assert conductor(psi15) == psi15.modulus


def test_extend_to_conductor(psi15):
    # a character built mod p2 * m that agrees with psi has conductor m
    field = psi15.field
    p2 = QIdeal.primes_over(field, 2)[0]
    big = p2 * psi15.modulus
    inflated = None
    for eta in enumerate_eta(field, big):
        try:
            cand = build(field, big, 1, eta)
        except (IncompatibleCharacterError, NoSuchCharacterError):
            continue
        if conductor(cand) == psi15.modulus:
            inflated = cand
            break
    assert inflated is not None


def test_no_character_when_torsion_obstructs():
    # mod sqrt(-3) the cube roots of unity are congruent to 1, so ell = 1
    # admits no character at all
    field = FieldE(-3)
    m = QIdeal.from_element(field.sqrt_disc)
    etas = enumerate_eta(field, m)
    assert etas
    with pytest.raises(NoSuchCharacterError):
        build(field, m, 1, etas[0])


def test_incompatible_eta_rejected():
    # mod p2**3 at disc -4 half the restricting characters clash with the
    # global unit i; build must reject exactly those
    field = FieldE(-4)
    m = minimal_conductor(field)
    outcomes = {"ok": 0, "reject": 0}
    for eta in enumerate_eta(field, m):
        try:
            build(field, m, 1, eta)
            outcomes["ok"] += 1
        except IncompatibleCharacterError:
            outcomes["reject"] += 1
    assert outcomes["ok"] >= 1
    assert outcomes["reject"] >= 1


def test_build_rejects_bad_ell(psi15):
    field = psi15.field
    m = psi15.modulus
    with pytest.raises(ValueError):
        build(field, m, 0, psi15.eta)


# -- the self-check catches wrong values ------------------------------------

def _build_args(disc, ell=1):
    """(field, modulus, ell, eta) of the first character mod the minimal
    conductor that builds with its self-check."""
    field = FieldE(disc)
    m = minimal_conductor(field)
    for eta in enumerate_eta(field, m):
        try:
            build(field, m, ell, eta)
        except (IncompatibleCharacterError, NoSuchCharacterError):
            continue
        return field, m, ell, eta
    raise RuntimeError("no character builds")


def _is_nonprincipal_split_prime(a):
    return (a.scale == 1 and a.field.chi(a.a) == 1 and sympy.isprime(a.a)
            and a.is_principal() is None)


@pytest.mark.parametrize("disc", [-15, -23])
@pytest.mark.parametrize("fault", ["double", "conjugate"])
def test_self_check_catches_a_wrong_prime_value(monkeypatch, disc, fault):
    # the first non-principal split prime the check values gets a wrong
    # value; it is never a principal ideal of the round trips, so only the
    # multiplicativity half can see it
    args = _build_args(disc)
    real = grossenchar.evaluate
    target = []

    def faulty(psi, a):
        if not target and _is_nonprincipal_split_prime(a):
            target.append(a)
        if target and a == target[0]:
            if fault == "double":
                return real(psi, a) * 2
            return real(psi, a.conj())
        return real(psi, a)

    monkeypatch.setattr(grossenchar, "evaluate", faulty)
    with pytest.raises(ArithmeticError, match="multiplicativity failed"):
        build(*args, check=True)
    assert target
    if fault == "conjugate":
        psi = build(*args, check=False)
        assert real(psi, target[0]) != real(psi, target[0].conj())


@pytest.mark.parametrize("disc", [-15, -23, -47, -56])
@pytest.mark.parametrize("principal", [True, False])
def test_self_check_catches_a_wrong_cached_generator(monkeypatch, disc,
                                                     principal):
    # evaluate's table entry of one reduced ideal J, the principal J = o
    # or the first other one, gets its generator mu times c, a rational
    # prime off the level: every ideal that reduces to J then has a wrong
    # value, which the round trips or the multiplicativity half must see
    field, m, ell, eta = args = _build_args(disc)
    level = abs(disc) * m.norm()
    c = next(p for p in sympy.primerange(3, 100) if level % p)
    real = grossenchar._reduced_entry
    target = []

    def faulty(psi, a, b):
        (mx, my), class_value, rows = real(psi, a, b)
        if not target and (a == 1) == principal:
            target.append((a, b))
            mx, my = c * mx, c * my
        return (mx, my), class_value, rows

    monkeypatch.setattr(grossenchar, "_reduced_entry", faulty)
    match = ("principal round trip failed" if principal
             else "multiplicativity failed")
    with pytest.raises(ArithmeticError, match=match):
        build(*args, check=True)
    assert target


def test_self_check_catches_a_wrong_principal_value(monkeypatch):
    args = _build_args(-15)
    real = grossenchar.evaluate

    def faulty(psi, a):
        value = real(psi, a)
        if a.is_principal() is not None:
            return value + psi.algebra.one
        return value

    monkeypatch.setattr(grossenchar, "evaluate", faulty)
    with pytest.raises(ArithmeticError, match="principal round trip failed"):
        build(*args, check=True)


# -- the self-check checks the same instances --------------------------------

# (count, sha256) of the ideals handed to evaluate during one checked build
# of the _build_args character, each written "a,b,scale" and joined by ";"
_CHECKED_IDEALS = {
    -15: (62, "a04f4c9a91b2688b41f44e2f898676a4498ee483a3c8e8e3fd8e9e8ef84b9cc6"),
    -23: (63, "40c9bd517a28a32b5b735efd21ea07a1567ba599cbffec7e39bdcc09c9bacbfe"),
    -4: (63, "d38ef8c64961367ce8c0a8107723cd6ae01d6140917924b297125af52a342596"),
}


@pytest.mark.parametrize("disc", sorted(_CHECKED_IDEALS))
def test_self_check_hands_evaluate_the_same_ideals(monkeypatch, disc):
    args = _build_args(disc)
    real = grossenchar.evaluate
    seen = []

    def recording(psi, a):
        seen.append(f"{a.a},{a.b},{a.scale}")
        return real(psi, a)

    monkeypatch.setattr(grossenchar, "evaluate", recording)
    build(*args, check=True)
    digest = hashlib.sha256(";".join(seen).encode()).hexdigest()
    assert (len(seen), digest) == _CHECKED_IDEALS[disc]


@pytest.mark.parametrize("disc, ell", [(-15, 1), (-23, 1), (-4, 1), (-4, 3),
                                       (-23, 5)])
def test_round_trip_side_matches_the_object_formula(monkeypatch, disc, ell):
    # every drawn alpha: the integer right side against
    # zeta**angle(alpha) * alpha**ell formed from QuadElem and algebra
    # products
    args = _build_args(disc, ell)
    real = grossenchar._principal_value
    drawn = []

    def recording(psi, x, y, rows):
        got = real(psi, x, y, rows)
        drawn.append((psi, x, y, got))
        return got

    monkeypatch.setattr(grossenchar, "_principal_value", recording)
    build(*args, check=True)
    assert len(drawn) == 25
    for psi, x, y, got in drawn:
        alpha = psi.field.element(x, y)
        alg = psi.algebra
        want = (alg.zeta_pow(int(psi.eta.angle(alpha) * psi.r))
                * alg.from_quad(alpha ** psi.ell))
        assert want.den == 1 and got == want.nums


@pytest.mark.parametrize("disc", [-15, -35, -91])
def test_reduced_table_holds_one_entry_per_class(disc):
    # h = 2 with a reduced form a = c: its two middle-coefficient signs
    # end one class, so they share one entry
    psi = _witness(disc, order=2)
    q_expansion(psi, 300)
    assert psi.cg.order == 2
    assert len(psi._reduced) <= psi.cg.order
