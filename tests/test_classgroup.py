"""Ideal class groups: composition, structure, discriminant sweeps."""

from __future__ import annotations

import random
import time
from math import gcd

import pytest

from grossen.abelian import _power
from grossen.classgroup import (_class_group, _class_numbers, _composer,
                                _has_exponent, _key, class_group,
                                class_number, class_structure,
                                enumerate_discriminants, reduced_ideals)
from grossen.quadfield import (FieldE, QIdeal, _class_key, _factorint,
                               is_fundamental)


def form_of_key(d, key):
    """The form (a, B, c), B = -(2b + d) taken in (-a, a], of the ideal
    Z*a + Z*(b + w)."""
    a, b = key
    B = -(2 * b + d) % (2 * a)
    if B > a:
        B -= 2 * a
    return a, B, (B * B - d) // (4 * a)


def inverse(d, key):
    """The class of the conjugate ideal."""
    a, b = key
    return _class_key(a, -(b + d) % a, d, (d * d - d) // 4)


def test_reduced_forms_small_discs():
    assert reduced_ideals(-23) == ((1, 0), (2, 0), (2, 1))
    assert [form_of_key(-23, k) for k in reduced_ideals(-23)] == [
        (1, 1, 6), (2, -1, 3), (2, 1, 3)]
    assert len(reduced_ideals(-3)) == 1
    assert len(reduced_ideals(-4)) == 1


def test_class_number_known_values():
    known = {-3: 1, -4: 1, -7: 1, -8: 1, -11: 1, -15: 2, -19: 1, -20: 2,
             -23: 3, -24: 2, -47: 5, -71: 7, -163: 1, -5460: 16}
    for d, h in known.items():
        assert class_number(d) == h


def test_composition_group_laws():
    rng = random.Random(7)
    for d in (-23, -47, -71, -84, -120, -231):
        classes = reduced_ideals(d)
        mul = _composer(d)
        e = (1, 0)
        for f in classes:
            assert mul(f, e) == f
            assert mul(f, inverse(d, f)) == e
        for _ in range(20):
            f1, f2, f3 = (rng.choice(classes) for _ in range(3))
            assert mul(f1, f2) == mul(f2, f1)
            assert mul(mul(f1, f2), f3) == mul(f1, mul(f2, f3))


def test_composition_matches_ideal_route():
    # regression: the key composition agrees with multiplying the
    # ideals and reading the class key of the product
    rng = random.Random(8)
    for d in (-15, -23, -84, -231, -419, -715, -1155, -4027, -5460):
        field = FieldE(d)
        classes = reduced_ideals(d)
        mul = _composer(d)
        for _ in range(15):
            f1, f2 = rng.choice(classes), rng.choice(classes)
            via_ideals = _key(QIdeal(field, *f1, 1) * QIdeal(field, *f2, 1))
            assert mul(f1, f2) == via_ideals


def test_form_ideal_roundtrip():
    # a reduced ideal is its own key, also times a scale, and its form is
    # reduced: |B| <= a <= c, B >= 0 when |B| = a or a = c
    field = FieldE(-47)
    for k in reduced_ideals(-47):
        assert _key(QIdeal(field, *k, 1)) == k
        assert _key(QIdeal(field, *k, 3)) == k
        a, B, c = form_of_key(-47, k)
        assert abs(B) <= a <= c and (B >= 0 or (-B < a < c))


def test_class_structure_consistent_with_counts():
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
    assert not any(cg.dlog(p2 ** 5))
    assert any(cg.dlog(p2))
    assert cg.dlog(QIdeal.from_element(field.element(3, 1))) == (0,)


def test_class_group_coprime_representatives():
    field = FieldE(-15)
    cg = class_group(field, coprime_to=30)
    for g in cg.basis:
        assert gcd(int(g.norm()), 30) == 1


def test_enumerate_discriminants():
    assert enumerate_discriminants(30, exponent=2) == [-15, -20, -24]
    assert enumerate_discriminants(35, exponent=3) == [-23, -31]


def test_enumerate_discriminants_matches_class_structure():
    # the reduced-form exponent test selects exactly the fields whose
    # relation-lattice structure has that exponent, composite e included
    exponent = {}
    fundamental = [d for d in range(-3, -1501, -1) if is_fundamental(d)]
    for d in fundamental:
        _, divisors = class_structure(FieldE(d))
        exponent[d] = divisors[0] if divisors else 1
    assert exponent[-39] == 4 and class_structure(FieldE(-39))[1] == (4,)
    assert exponent[-87] == 6 and class_structure(FieldE(-87))[1] == (6,)
    assert exponent[-84] == 2 and class_structure(FieldE(-84))[1] == (2, 2)
    for e in range(1, 7):
        assert enumerate_discriminants(1500, exponent=e) == [
            d for d, ex in exponent.items() if ex == e]
    # exponent 2: every reduced form is ambiguous (B = 0, a = B or a = c)
    exp2 = set(enumerate_discriminants(1500, exponent=2))
    for d in exponent:
        forms = [form_of_key(d, k) for k in reduced_ideals(d)]
        ambiguous = all(B == 0 or a == B or a == c for a, B, c in forms)
        assert ambiguous == (d in exp2 or exponent[d] == 1)


def test_class_number_sieve_matches_the_reduced_ideals():
    # one pass over the reduced forms counts h(d) for every discriminant
    # in range, non-fundamental d included; 0 where d = 2, 3 mod 4
    hs = _class_numbers(5460)
    assert len(hs) == 5461
    for n in range(1, 5461):
        d = -n
        want = len(reduced_ideals(d)) if d % 4 in (0, 1) else 0
        assert hs[n] == want, d


def _has_exponent_per_discriminant(d, e):
    """The exponent test as a definition, on one discriminant's reduced
    ideals: h has no prime factor outside e, f**e = 1 for every class f,
    and for each prime p | e some class has f**(e/p) != 1."""
    classes = reduced_ideals(d)
    if any(p not in _factorint(e) for p in _factorint(len(classes))):
        return False
    mul = _composer(d)
    if any(_power((1, 0), f, e, mul) != (1, 0) for f in classes):
        return False
    return all(any(_power((1, 0), f, e // p, mul) != (1, 0) for f in classes)
               for p in _factorint(e))


def test_enumerate_discriminants_matches_the_per_discriminant_definition():
    fundamental = [d for d in range(-3, -2001, -1) if is_fundamental(d)]
    for e in range(1, 7):
        assert enumerate_discriminants(2000, exponent=e) == [
            d for d in fundamental if _has_exponent_per_discriminant(d, e)], e


def test_genus_sweep_matches_the_reduced_form_powering():
    # exponent 2 is read off h(d) = 2^(t-1) > 1 by genus theory; the
    # powering of every reduced form is the oracle, on each fundamental d
    # to -20000, well past -5460, the last exponent-2 field found
    bound = 20000
    want = [d for d in range(-3, -bound - 1, -1)
            if is_fundamental(d) and _has_exponent(d, 2)]
    assert enumerate_discriminants(bound, exponent=2) == want
    assert len(want) == 56 and want[-1] == -5460


def test_enumerate_discriminants_rejects_a_bad_exponent():
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
