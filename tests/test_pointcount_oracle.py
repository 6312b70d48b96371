"""An independent oracle for the rational weight-2 rows: point counts.

The nine `h1-d1` rows are the theta series of the CM elliptic curves over
Q, so a_p = p + 1 - #E(F_p) at every prime p of good reduction (Deuring;
Silverman, GTM 151, ch. II and App. A §3).  The curves are typed in below
as Weierstrass models [a1, a2, a3, a4, a6]; each model is checked inside
the tests to have the CM j-invariant of its discriminant and bad reduction
only at primes of the row's level, and #E(F_p) is counted with Legendre
symbols, never through the package's characters.
"""

from __future__ import annotations

from fractions import Fraction

import pytest

from grossen.cmform import q_expansion
from grossen.grossenchar import from_record
from grossen.quadfield import _factorint, _primes_up_to, kronecker
from grossen.survey import survey_h1

BOUND = 600

MODELS = {
    -3: (0, 0, 1, 0, 0),
    -4: (0, 0, 0, -1, 0),
    -7: (1, -1, 0, -2, -1),
    -8: (0, -4, 0, 2, 0),
    -11: (0, -1, 1, -7, 10),
    -19: (0, 0, 1, -38, 90),
    -43: (0, 0, 1, -860, 9707),
    -67: (0, 0, 1, -7370, 243528),
    -163: (0, 0, 1, -2174420, 1234136692),
}

# j of the elliptic curves with CM by the maximal order of Q(sqrt D)
CM_J = {
    -3: 0, -4: 1728, -7: -3375, -8: 8000, -11: -32768, -19: -884736,
    -43: -884736000, -67: -147197952000, -163: -262537412640768000,
}


def _b_invariants(model):
    a1, a2, a3, a4, a6 = model
    b2 = a1 * a1 + 4 * a2
    b4 = 2 * a4 + a1 * a3
    b6 = a3 * a3 + 4 * a6
    b8 = (a1 * a1 * a6 + 4 * a2 * a6 - a1 * a3 * a4 + a2 * a3 * a3
          - a4 * a4)
    return b2, b4, b6, b8


def _discriminant_and_j(model):
    b2, b4, b6, b8 = _b_invariants(model)
    disc = -b2 * b2 * b8 - 8 * b4 ** 3 - 27 * b6 * b6 + 9 * b2 * b4 * b6
    c4 = b2 * b2 - 24 * b4
    return disc, Fraction(c4 ** 3, disc)


def _ap_by_point_count(model, p: int) -> int:
    """p + 1 - #E(F_p) for odd p: completing the square turns the model
    into (2y + a1 x + a3)^2 = 4x^3 + b2 x^2 + 2 b4 x + b6, so each x
    contributes 1 + (f(x) / p) points."""
    b2, b4, b6, _ = _b_invariants(model)
    return -sum(kronecker(((4 * x + b2) * x + 2 * b4) * x + b6, p)
                for x in range(p))


@pytest.fixture(scope="module")
def rational_forms():
    """delta_E -> (level, psi, q-expansion to BOUND) of the h1-d1 rows."""
    out = {}
    for row in survey_h1(1, 1):
        psi = from_record(row.witness, check=False)
        out[row.delta_E] = (row.level, psi, q_expansion(psi, BOUND))
    return out


def _mismatched_primes(form, model) -> list[int]:
    """Odd primes p <= BOUND off the level where a_p is not the point
    count's p + 1 - #E(F_p)."""
    level, psi, f = form
    return [p for p in _primes_up_to(BOUND)
            if p != 2 and level % p
            and f.a(p) != psi.algebra.scalar(_ap_by_point_count(model, p))]


def test_models_are_the_cm_curves_of_the_rows(rational_forms):
    assert sorted(rational_forms) == sorted(MODELS)
    for D, model in MODELS.items():
        disc, j = _discriminant_and_j(model)
        assert j == CM_J[D], D
        level = rational_forms[D][0]
        assert all(level % p == 0 for p in _factorint(abs(disc))), D


def test_rational_rows_match_point_counts(rational_forms):
    for D, model in MODELS.items():
        assert _mismatched_primes(rational_forms[D], model) == [], D


def test_a_quadratic_twist_is_caught(rational_forms):
    # the -1 twist of the -8 curve has the same j = 8000 and the same bad
    # prime, so only the comparison of a_p can tell it apart
    twist = (0, 4, 0, 2, 0)
    disc, j = _discriminant_and_j(twist)
    assert j == CM_J[-8] and set(_factorint(abs(disc))) == {2}
    assert len(_mismatched_primes(rational_forms[-8], twist)) > 0
