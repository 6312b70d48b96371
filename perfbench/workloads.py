"""Inputs, operations and correctness checks of the benchmark workloads.

Each workload turns a seed into a list of prepared inputs (`setup`), runs
one operation per input (`run_op`, the only timed call), and checks each
result against the references in refs/ or against exact invariants
(`check`, untimed).  `check` returns None when the result is right and a
short reason otherwise.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
from fractions import Fraction
from math import gcd

HERE = os.path.dirname(os.path.abspath(__file__))
REFS = os.path.join(HERE, "refs")

QEXP_BOUND = 2000
TABLES = ("deg2", "deg3", "quadodd", "quadeven", "quade3")
# The one exception an operation may raise and still count as a known
# limit rather than a failure: discrete logs above resunits.TABLE_CAP.
CAP_MESSAGE = "unit group too large for discrete logs"


def _frac(q) -> str:
    f = Fraction(q)
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def coeff_digest(form) -> str:
    """SHA-256 of the coefficients a_1..a_B, serialized as `grossen qexp`
    does: [n, [[w-exp, zeta-exp, [radical exps], coefficient], ...]]."""
    coeffs = [[str(n), [[str(a), str(b), [str(e) for e in cs], _frac(c)]
                        for (a, b, cs), c in form.coeffs[n].coords]]
              for n in range(1, form.bound + 1)]
    text = json.dumps(coeffs, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def load_json(name: str):
    with open(os.path.join(REFS, name)) as fh:
        return json.load(fh)


class Outcome:
    """What one operation produced: a value, the documented limit, or an
    unexpected exception."""

    __slots__ = ("value", "capped", "error")

    def __init__(self, value=None, capped=False, error=None):
        self.value, self.capped, self.error = value, capped, error


# -- qexp --------------------------------------------------------------------

def cost_matched(items, k, rng, tol=0.05):
    """k draws, one per cost level: level j is the cost at rank (j + 1/2)
    N / k of `items` (sorted by cost), and the seed picks any item whose
    cost is within `tol` of it.  Which witnesses appear changes with the
    seed; the cost profile of the draw, and with it the work, does not."""
    out = []
    for j in range(k):
        target = items[int((j + 0.5) * len(items) / k)]["cost_s"]
        out.append(rng.choice([w for w in items
                               if abs(w["cost_s"] - target) <= tol * target]))
    return out


class Qexp:
    """Theta series of drawn witnesses: q_expansion to B = 2000, then
    hecke_verify.  `distinct` draws are cost-matched to fixed levels of
    the witnesses' reference costs; `repeats` of them, at fixed levels
    below the top ones, run twice, so ops share fields and even
    characters while the costliest ops are always first runs."""

    name = "qexp"
    sizes = {False: (12, 3), True: (1, 1)}

    def setup(self, seed: int, short: bool):
        from grossen.grossenchar import from_record

        ref = load_json("witnesses.json")
        wits = sorted(ref["witnesses"], key=lambda w: (w["cost_s"], w["digest"]))
        if short:
            wits = wits[:8]
        distinct, repeats = self.sizes[short]
        rng = random.Random(seed)
        drawn = cost_matched(wits, distinct, rng)
        drawn += [drawn[i * distinct // repeats] for i in range(repeats)]
        rng.shuffle(drawn)
        built = {}
        inputs = []
        for w in drawn:
            key = w["digest"]
            if key not in built:
                built[key] = from_record(w["record"], check=False)
            inputs.append((built[key], w))
        return inputs

    def run_op(self, inp):
        from grossen.cmform import hecke_verify, q_expansion

        psi, _ = inp
        form = q_expansion(psi, QEXP_BOUND)
        return form, hecke_verify(form)

    def check(self, inp, value):
        _, w = inp
        form, report = value
        if not (report["ok"] and report["max_imag"] < 1e-9):
            return f"hecke_verify failed at {w['delta_E']}: {report['failures'][:2]}"
        if coeff_digest(form) != w["digest"]:
            return f"coefficient digest differs at {w['delta_E']} ({w['provenance']})"
        return None


# -- classify ----------------------------------------------------------------

class Classify:
    """The five `grossen table` subcommands, cold, in one process, through
    grossen.cli.main, in an order the seed permutes.  Byte-compared with
    refs/tables/<name>.json."""

    name = "classify"

    def setup(self, seed: int, short: bool):
        if short:
            return ["quade3"]
        tables = list(TABLES)
        random.Random(seed).shuffle(tables)
        return tables

    def run_op(self, table):
        from grossen.cli import main

        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = main(["table", table])
        return rc, buf.getvalue()

    def check(self, table, value):
        rc, text = value
        with open(os.path.join(REFS, "tables", f"{table}.json")) as fh:
            want = fh.read()
        if rc != 0:
            return f"table {table} exited {rc}"
        if text != want:
            return f"table {table} differs from the reference"
        return None


# -- units -------------------------------------------------------------------

SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31)
PRIME_POWER_NORM_CAP = 3000
ROUND_TRIPS = 3


class Units:
    """The `units` and `chars` CLI traffic: (field, modulus) pairs drawn
    over the exponent-2, exponent-3 and class-number-one fields in
    proportion to their numbers, with moduli that are products of 1, 2
    or 3 prime-ideal powers in equal numbers, plus the fixed
    dyadic towers p2**n, n = 1..12, over the eight dyadic test fields."""

    name = "units"
    draws = {False: 150, True: 12}

    def setup(self, seed: int, short: bool):
        from grossen.quadfield import FieldE, QIdeal

        fields = load_json("fields.json")
        families = (fields["exp2"], fields["exp3"], fields["h1"])
        n = self.draws[short]
        total = sum(map(len, families))
        # Each family gets its share of the draws, and each share is
        # split evenly over 1, 2 and 3 prime factors: the seed picks the
        # fields, primes and exponents, not how many of each kind.
        plan = [(fam, 1 + j % 3) for fam in families
                for j in range(round(n * len(fam) / total))]
        rng = random.Random(seed)
        cache: dict[int, FieldE] = {}

        def field(D):
            if D not in cache:
                cache[D] = FieldE(D)
            return cache[D]

        inputs = []
        for fam, k in plan:
            f = field(rng.choice(fam))
            m = QIdeal.unit_ideal(f)
            for p in rng.sample(SMALL_PRIMES, k):
                P = rng.choice(QIdeal.primes_over(f, p))
                q = int(P.norm())
                e = rng.randint(1, 3)
                while e > 1 and q ** e > PRIME_POWER_NORM_CAP:
                    e -= 1
                m = m * P ** e
            inputs.append((f, m, rng.randrange(1 << 30)))
        towers = fields["dyadic"]
        max_n = 3 if short else fields["dyadic_max_n"]
        for D in (towers[:2] if short else towers):
            f = field(D)
            p2 = QIdeal.primes_over(f, 2)[0]
            for n in range(1, max_n + 1):
                inputs.append((f, p2 ** n, rng.randrange(1 << 30)))
        rng.shuffle(inputs)
        return inputs

    def run_op(self, inp):
        from grossen.chargroup import enumerate_eta
        from grossen.classgroup import class_group
        from grossen.resunits import units_structure

        f, m, op_seed = inp
        S = units_structure(f, m)
        etas = enumerate_eta(f, m, order_divides=4)
        N = int(m.norm())
        cg = class_group(f, coprime_to=N)
        rng = random.Random(op_seed)
        trips = []
        for _ in range(ROUND_TRIPS):
            vec = tuple(rng.randrange(o) for o in S.orders)
            trips.append((vec, S.dlog(S.rebuild(vec))))
        z = None
        for _ in range(100):
            cand = f.element(rng.randrange(-99, 100), rng.randrange(-99, 100))
            if cand.norm() != 0 and S.ring.is_unit(S.ring.reduce(cand)):
                z = cand
                break
        back = S.rebuild(S.dlog(z)) if z is not None else None
        return S, etas, cg, trips, (z, back)

    def check(self, inp, value):
        from grossen.chargroup import dirichlet_from_kronecker, restrict_to_Z
        from grossen.classgroup import class_structure
        from grossen.resunits import unit_count

        f, m, _ = inp
        S, etas, cg, trips, (z, back) = value
        where = f"disc {f.disc}, modulus {m!r}"
        if S.total_order != unit_count(m):
            return f"total_order != unit_count(m) at {where}"
        for vec, got in trips:
            if got != vec:
                return f"dlog(rebuild(v)) != v at {where}"
        if z is not None and S.ring.reduce(back) != S.ring.reduce(z):
            return f"rebuild(dlog(z)) != z at {where}"
        for eta in etas:
            if 4 % eta.order:
                return f"eta of order {eta.order} at {where}"
            res = restrict_to_Z(eta)
            chi = dirichlet_from_kronecker(f.disc, res.modulus)
            if any(res.angle(g) != chi.angle(g) for g, _ in res.group.factors):
                return f"eta does not restrict to chi_E at {where}"
        h, _ = class_structure(f)
        N = int(m.norm())
        if cg.order != h or any(gcd(int(t.norm()), N) != 1 for t in cg.basis):
            return f"class group coprime to {N} is wrong at {where}"
        return None


WORKLOADS = {w.name: w for w in (Qexp(), Classify(), Units())}


def run_op(workload, inp) -> Outcome:
    try:
        return Outcome(value=workload.run_op(inp))
    except RuntimeError as exc:
        if str(exc) == CAP_MESSAGE:
            return Outcome(capped=True)
        return Outcome(error=f"{type(exc).__name__}: {exc}")
    except Exception as exc:    # counted as a failed op, never dropped
        return Outcome(error=f"{type(exc).__name__}: {exc}")
