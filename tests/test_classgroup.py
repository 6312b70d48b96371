"""Form class groups: composition, structure, discriminant sweeps."""

from __future__ import annotations

import random
import time
from math import gcd

import pytest

from grossen.classgroup import (_class_group, class_group, class_number,
                                class_structure, enumerate_discriminants,
                                form_of_ideal, identity_form, reduced_forms)
from grossen.quadfield import FieldE, QIdeal, is_fundamental


def ideal_of_form(field, form):
    """The ideal Z*a + Z*(b + w) of a form (a, B, c), B = -(2b + D)."""
    assert form.disc == field.disc
    return QIdeal(field, form.a, ((-form.b - field.disc) // 2) % form.a, 1)


def test_reduced_forms_small_discs():
    assert [(f.a, f.b, f.c) for f in reduced_forms(-23)] == [
        (1, 1, 6), (2, -1, 3), (2, 1, 3)]
    assert len(reduced_forms(-3)) == 1
    assert len(reduced_forms(-4)) == 1


def test_class_number_known_values():
    known = {-3: 1, -4: 1, -7: 1, -8: 1, -11: 1, -15: 2, -19: 1, -20: 2,
             -23: 3, -24: 2, -47: 5, -71: 7, -163: 1, -5460: 16}
    for d, h in known.items():
        assert class_number(d) == h


def test_composition_group_laws():
    rng = random.Random(7)
    for d in (-23, -47, -71, -84, -120, -231):
        forms = reduced_forms(d)
        e = identity_form(d)
        for f in forms:
            assert (f * e) == f
            assert (f * f.inverse()) == e
        for _ in range(20):
            f1, f2, f3 = (rng.choice(forms) for _ in range(3))
            assert f1 * f2 == f2 * f1
            assert (f1 * f2) * f3 == f1 * (f2 * f3)


def test_composition_matches_ideal_route():
    # regression: the integer composition agrees with multiplying the
    # corresponding ideals and reading the product form back off
    rng = random.Random(8)
    for d in (-15, -23, -84, -231, -419, -715, -1155, -4027, -5460):
        field = FieldE(d)
        forms = reduced_forms(d)
        for _ in range(15):
            f1, f2 = rng.choice(forms), rng.choice(forms)
            via_ideals = form_of_ideal(
                ideal_of_form(field, f1) * ideal_of_form(field, f2)).reduce()
            assert f1 * f2 == via_ideals


def test_form_ideal_roundtrip():
    field = FieldE(-47)
    for f in reduced_forms(-47):
        assert form_of_ideal(ideal_of_form(field, f)).reduce() == f


def test_class_structure_consistent_with_counts():
    from grossen.quadfield import is_fundamental
    for d in range(-3, -400, -1):
        if not is_fundamental(d):
            continue
        h, divisors = class_structure(FieldE(d))
        assert h == class_number(d)
        prod = 1
        for m in divisors:
            prod *= m
        assert prod == h
        for x, y in zip(divisors, divisors[1:]):
            assert x % y == 0


def test_class_structure_known_groups():
    assert class_structure(FieldE(-5460)) == (16, (2, 2, 2, 2))
    assert class_structure(FieldE(-3)) == (1, ())
    assert class_structure(FieldE(-47)) == (5, (5,))
    assert class_structure(FieldE(-84)) == (4, (2, 2))


def test_class_group_with_a_large_cyclic_factor():
    # Cl = C18 at -679; the first prime of order 18 lies over 13, and the
    # generator of its 18th power is found by reduction, not by a search
    # over some 8 * 10**8 candidates
    field = FieldE(-679)
    t0 = time.perf_counter()
    cg = _class_group.__wrapped__(field.disc, 1)     # not the memo
    assert time.perf_counter() - t0 < 1
    p13 = QIdeal.primes_over(field, 13)[0]
    assert cg.orders == (18,) and cg.basis == (p13,)
    assert QIdeal.from_element(cg.thetas[0]) == p13 ** 18


def test_class_group_dlog():
    field = FieldE(-47)
    cg = class_group(field)
    assert cg.order == 5
    p2 = QIdeal.primes_over(field, 2)[0]
    vec = cg.dlog(p2)
    assert vec != (0,)
    assert cg.is_principal_class(p2 ** 5)
    assert not cg.is_principal_class(p2)
    assert cg.dlog(QIdeal.from_element(field.element(3, 1))) == (0,)


def test_class_group_coprime_representatives():
    field = FieldE(-15)
    cg = class_group(field, coprime_to=30)
    for g in cg.basis:
        assert gcd(int(g.norm()), 30) == 1


def test_enumerate_discriminants():
    assert enumerate_discriminants(30, exponent=2) == [-15, -20, -24]
    assert enumerate_discriminants(35, exponent=3) == [-23, -31]
    allof = enumerate_discriminants(30)
    assert allof == [-3, -4, -7, -8, -11, -15, -19, -20, -23, -24]


def test_enumerate_discriminants_matches_class_structure():
    # the reduced-form exponent test selects exactly the fields whose
    # relation-lattice structure has that exponent, composite e included
    exponent = {}
    for d in enumerate_discriminants(1500):
        _, divisors = class_structure(FieldE(d))
        exponent[d] = divisors[0] if divisors else 1
    assert exponent[-39] == 4 and class_structure(FieldE(-39))[1] == (4,)
    assert exponent[-87] == 6 and class_structure(FieldE(-87))[1] == (6,)
    assert exponent[-84] == 2 and class_structure(FieldE(-84))[1] == (2, 2)
    for e in range(1, 7):
        assert enumerate_discriminants(1500, exponent=e) == [
            d for d, ex in exponent.items() if ex == e]
    # exponent 2: every reduced form is ambiguous (b = 0, a = b or a = c)
    exp2 = set(enumerate_discriminants(1500, exponent=2))
    for d in exponent:
        ambiguous = all(f.b == 0 or f.a == f.b or f.a == f.c
                        for f in reduced_forms(d))
        assert ambiguous == (d in exp2 or exponent[d] == 1)


def test_enumerate_discriminants_without_exponent():
    assert enumerate_discriminants(1500) == [
        d for d in range(-3, -1501, -1) if is_fundamental(d)]
    for bad in (0, -2):
        with pytest.raises(ValueError):
            enumerate_discriminants(30, exponent=bad)


def test_classgroup_oracle_counts_a_mismatch(monkeypatch):
    from grossen import classgroup
    from grossen.verify import check_classgroup_oracle

    real = classgroup.class_number
    monkeypatch.setattr(classgroup, "class_number",
                        lambda d: real(d) + (d == -23))
    classgroup._class_structure.cache_clear()
    try:
        with pytest.raises(classgroup.ClassNumberMismatch):
            class_structure(FieldE(-23))
        res = check_classgroup_oracle()
    finally:
        classgroup._class_structure.cache_clear()
    assert not res.ok
    assert res.detail.startswith("1666 fields, 1 count mismatches, ")
    assert "exponent-3 16/17" in res.detail


def test_class_group_is_keyed_on_the_radical():
    field = FieldE(-84)
    for m, rad in ((12, 6), (360, 30), (2 ** 5 * 7 ** 2, 14), (11, 11)):
        assert class_group(field, coprime_to=m) is class_group(
            field, coprime_to=rad)
    assert class_group(field, coprime_to=1) is class_group(field)
