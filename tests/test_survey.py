"""Classification sweeps: row shapes, witnesses, and rejection evidence."""

from __future__ import annotations

import dataclasses
import hashlib
import sys
from fractions import Fraction

import pytest

from grossen import cli, grossenchar, resunits, survey, verify
from grossen.chargroup import _chi_e_conditions, solve_character_conditions
from grossen.classgroup import class_group
from grossen.cmform import ideals_of_norm_up_to
from grossen.grossenchar import from_record
from grossen.quadfield import FieldE, QIdeal, is_fundamental
from grossen.resunits import units_structure
from grossen.survey import (_memoized, clear_memo, nonexistence_search_r4,
                            survey_h1, survey_higher_order,
                            survey_quadratic_modulus)
from grossen.valuefield import value_field_degree


def test_h1_d1_rows():
    rows = survey_h1(d=1)
    assert len(rows) == 9
    assert {r.delta_E for r in rows} == {-3, -4, -7, -8, -11, -19, -43,
                                         -67, -163}
    for r in rows:
        assert r.degree == 1
        assert r.delta_K == 1
        assert r.provenance == "h1-d1"
        psi = from_record(r.witness, check=False)
        assert psi.level == r.level
        assert value_field_degree(psi) == 1


def test_h1_d2_rows():
    rows = survey_h1(d=2)
    assert all(r.provenance == "h1-d2" for r in rows)
    assert all(r.degree == 2 for r in rows)
    # every class-number-one field appears at least once
    assert {r.delta_E for r in rows} == {-3, -4, -7, -8, -11, -19, -43,
                                         -67, -163}
    # the real quadratic coefficient fields are fundamental
    for r in rows:
        assert r.delta_K > 1 and is_fundamental(r.delta_K)


def test_h1_d3_rows():
    rows = survey_h1(d=3)
    got = {(r.delta_K, r.delta_E) for r in rows}
    assert got == {(49, -7), (81, -3)}
    for r in rows:
        assert r.degree == 3
        assert r.poly is not None
        assert r.provenance == "h1-d3"


@pytest.fixture(scope="module")
def quadmod2():
    return survey_quadratic_modulus(2)


def test_quadmod_e2_rows(quadmod2):
    rows, rejections = quadmod2
    assert len(rows) == 15
    for r in rows:
        field = FieldE(r.delta_E)
        assert r.provenance == "quadmod-e2"
        assert r.degree == 2
        assert r.hcf
        assert r.delta_K > 1 and is_fundamental(r.delta_K)
        psi = from_record(r.witness, check=False)
        assert psi.level == r.level
        assert value_field_degree(psi) == 2
        # odd-discriminant witnesses live at the minimal conductor (sqrt d)
        if r.delta_E % 2:
            assert r.level == r.delta_E ** 2


def test_quadmod_e2_rejections(quadmod2):
    _, rejections = quadmod2
    reasons = {}
    for rej in rejections:
        reasons.setdefault(rej.reason, []).append(rej.delta_E)
    assert len(reasons["Q1"]) == 38
    assert sorted(reasons["ramified-sign"]) == [-148, -52, -20]
    assert set(reasons) == {"Q1", "ramified-sign"}


def test_quadmod_e3():
    rows, rejections = survey_quadratic_modulus(3)
    assert len(rows) == 16
    assert [r.delta_E for r in rejections] == [-4027]
    for r in rows:
        assert r.degree == 3
        assert r.poly is not None and len(r.poly) == 4
        assert r.poly[0] == 1 and r.poly[1] == 0     # depressed monic cubic


def test_higher_order_survey():
    out = survey_higher_order()
    assert {r.delta_E for r in out.rows} == {-20, -52, -148,
                                             -15, -24, -51, -123, -267}
    for r in out.rows:
        assert r.provenance in ("highord-r4", "highord-r6")
        assert r.degree == 2
    assert {s.delta_E for s in out.searches} == {-24, -40, -88, -232}
    assert all(s.nonexistence for s in out.searches)


def test_every_witness_is_primitive_at_its_modulus():
    # a row's level |Delta_E| N(m) is its level only when m is the
    # conductor of its witness
    rows = verify.witness_rows()
    assert len(rows) == 67
    for row in rows:
        psi = from_record(row.witness, check=False)
        assert grossenchar.conductor(psi) == psi.modulus, (row.delta_K,
                                                           row.delta_E)


def test_tables_leave_the_order4_searches_to_the_first_read(monkeypatch,
                                                            capsys):
    # no table prints the searches, so none runs them; the first read of
    # .searches certifies all four, and forget() drops them with the survey
    clear_memo()
    calls = []
    real = survey.nonexistence_search_r4

    def counting(field, bound=10 ** 4):
        calls.append(field.disc)
        return real(field, bound)

    monkeypatch.setattr(survey, "nonexistence_search_r4", counting)
    for name in ("deg2", "deg3", "quadodd", "quadeven", "quade3"):
        assert cli.main(["table", name]) == 0
    capsys.readouterr()
    assert calls == []
    searches = survey_higher_order().searches
    assert sorted(calls) == [-232, -88, -40, -24]
    assert searches == tuple(real(FieldE(D), 10 ** 4)
                             for D in (-232, -88, -40, -24))
    del calls[:]
    assert survey_higher_order().searches is searches
    assert calls == []
    survey_higher_order.forget()
    assert survey_higher_order().searches == searches
    assert len(calls) == 4


def test_nonexistence_search_positive_control():
    report = nonexistence_search_r4(FieldE(-20), bound=100)
    assert not report.nonexistence
    assert report.found[:2] == ((40, Fraction(1, 4)), (40, Fraction(3, 4)))


def _search_by_unit_structures(field, bound):
    """The order-4 search the plain way: per modulus m = (sqrt D) * m', a
    unit structure of o/m, the conditions of (Z/N(m))^x and theta, and
    every solution enumerated."""
    dd = QIdeal.from_element(field.sqrt_disc)
    nd = int(dd.norm())
    checked, found = 0, []
    for norm, mp in ideals_of_norm_up_to(field, bound // nd):
        M = nd * norm
        S = units_structure(field, dd * mp)
        theta = class_group(field, coprime_to=M).thetas[0]
        conds = _chi_e_conditions(field, M) + [(theta, Fraction(1, 4))]
        checked += 1
        if solve_character_conditions(S, conds, order_divides=4):
            found.extend([(M, Fraction(1, 4)), (M, Fraction(3, 4))])
    return checked, tuple(found)


def _hits(*moduli):
    return tuple((M, Fraction(k, 4)) for M in moduli for k in (1, 3))


def _digest(found):
    return hashlib.sha256(repr(found).encode()).hexdigest()[:16]


# At -20 and -52 every modulus where chi_E extends to an order-4 eta also
# has one with eta(theta) = i; at -24 chi_E extends at 6 of the 24 moduli
# but never with eta(theta) = i, so there theta's row decides.  `found` is
# the report of the earlier per-prime-power search, literally or as the
# _digest of a long one; at -148 the ramified prime 37 lies beyond the
# prime pool of the norms scanned.
@pytest.mark.parametrize("disc, bound, moduli, found", [
    (-24, 10 ** 4, 537, ()),
    (-40, 10 ** 4, 244, ()),
    (-88, 10 ** 4, 78, ()),
    (-232, 10 ** 4, 15, ()),
    (-24, 500, 24, ()),
    (-20, 100, 6, _hits(40, 80)),
    (-20, 2000, 140, "20d9cc0a6386d67f"),
    (-52, 2000, 34, "45ee235c65915d14"),
    (-148, 3000, 9, _hits(296, 592, 1184, 2368, 2664)),
])
def test_nonexistence_search_matches_unit_structures(disc, bound, moduli,
                                                     found):
    field = FieldE(disc)
    report = nonexistence_search_r4(field, bound)
    assert (report.moduli_checked, report.found) == \
        _search_by_unit_structures(field, bound)
    assert report.moduli_checked == moduli
    if isinstance(found, str):
        assert _digest(report.found) == found
    else:
        assert report.found == found


def test_nonexistence_search_refuses_a_bound_below_the_ramified_norm():
    with pytest.raises(ValueError):
        nonexistence_search_r4(FieldE(-20), bound=5)


def test_nonexistence_search_builds_no_global_generators(monkeypatch):
    calls = []
    split_one = resunits._split_one
    monkeypatch.setattr(resunits, "_split_one",
                        lambda *args: calls.append(args) or split_one(*args))
    assert nonexistence_search_r4(FieldE(-20), bound=100).moduli_checked == 6
    assert calls == []


def test_memo_returns_the_same_immutable_results():
    first = survey_h1(d=1)
    assert survey_h1(d=1) is first
    assert isinstance(first, tuple)
    with pytest.raises(dataclasses.FrozenInstanceError):
        first[0].level = 0
    rows, rejections = survey_quadratic_modulus(3)
    assert isinstance(rows, tuple) and isinstance(rejections, tuple)
    assert survey_quadratic_modulus(3) == (rows, rejections)
    out = survey_higher_order()
    assert isinstance(out.rows, tuple) and isinstance(out.searches, tuple)
    with pytest.raises(TypeError):
        out.r1[(-15, 4)] = None


def test_memo_keys_on_normalised_arguments():
    survey_h1(d=1)
    before = survey_h1.cache_info()
    survey_h1(1, 1)
    survey_h1(ell=1, d=1)
    survey_h1(1)
    survey_h1()
    after = survey_h1.cache_info()
    assert after.hits - before.hits == 4
    assert after.misses == before.misses
    assert after.currsize == before.currsize


def test_budget_checks_time_a_cold_fill(monkeypatch):
    # each classification check forgets the memo entries it reads first,
    # so each builds its own families again
    calls = []
    real = grossenchar.build

    def counting(*args, **kwargs):
        calls.append(args[0].disc)
        return real(*args, **kwargs)

    monkeypatch.setattr(grossenchar, "build", counting)
    assert verify.check_deg2_classification().ok
    deg2_builds = len(calls)
    del calls[:]
    assert verify.check_deg3_classification().ok
    assert deg2_builds > 0
    assert -7 in calls and -23 in calls     # h1-d3 and quadmod-e3 witnesses


def test_deg2_check_sweeps_each_discriminant_list_once(monkeypatch):
    # the exponent-2 list feeds two families and is computed once; the
    # check forgets it first, so it is still timed cold
    survey._exponent_discs(2)
    calls = []
    real = survey.enumerate_discriminants

    def counting(bound, exponent=None):
        calls.append((bound, exponent))
        return real(bound, exponent)

    monkeypatch.setattr(survey, "enumerate_discriminants", counting)
    assert verify.check_deg2_classification().ok
    assert calls == [(survey.EXP2_BOUND, 2)]


def test_deg3_check_forgets_only_what_it_times():
    survey_quadratic_modulus(2)
    survey_higher_order()
    assert verify.check_deg3_classification().ok
    before = (survey_quadratic_modulus.cache_info(),
              survey_higher_order.cache_info())
    survey_quadratic_modulus(2)
    survey_higher_order()
    after = (survey_quadratic_modulus.cache_info(),
             survey_higher_order.cache_info())
    for b, a in zip(before, after):
        assert (a.hits, a.misses) == (b.hits + 1, b.misses)


def test_clear_memo_empties_every_cache_of_the_package(capsys):
    assert cli.main(["table", "deg2"]) == 0
    assert cli.main(["qexp", "-d", "-4", "-m", "2(1+i)", "-B", "50"]) == 0
    capsys.readouterr()
    caches = {f"{name}.{attr}": obj
              for name, module in list(sys.modules.items())
              if name.startswith("grossen.")
              for attr, obj in vars(module).items()
              if callable(getattr(obj, "cache_info", None))}
    assert {"grossen.classgroup._class_numbers", "grossen.cmform._prime_pool",
            "grossen.survey.survey_h1"} <= caches.keys()
    assert all(caches[name].cache_info().currsize > 0
               for name in ("grossen.classgroup._class_numbers",
                            "grossen.cmform._prime_pool"))
    clear_memo()
    assert {name: c.cache_info().currsize for name, c in caches.items()
            if c.cache_info().currsize} == {}


def test_memo_forgets_one_entry_or_all(monkeypatch):
    calls = []

    @_memoized
    def scaled(x, k=1):
        calls.append((x, k))
        return x * k

    # clear_memo finds families through the modules of the package
    monkeypatch.setattr(survey, "_scaled", scaled, raising=False)
    assert scaled(2) == scaled(2, k=1) == 2 and scaled(3, 2) == 6
    scaled.forget(x=2)
    assert scaled(2) == 2 and scaled(3, 2) == 6
    assert calls == [(2, 1), (3, 2), (2, 1)]
    assert scaled.cache_info().currsize == 2
    clear_memo()
    assert scaled.cache_info().currsize == 0
    scaled(3, 2)
    assert calls[-1] == (3, 2)
