"""Command-line front end.

Emits byte-stable JSON: keys sorted, no whitespace, every integer as a
decimal string (rationals as "p/q"), ideals as HNF triples {a, b, scale}.
Exit codes: 0 success, 1 verification mismatch, failed construction or
size refusal (a unit group or an integer too large), 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction
from functools import cache

from .chargroup import enumerate_eta
from .classgroup import class_structure
from .cmform import q_expansion
from .grossenchar import _hnf_record, first_character, from_record, record
from .numeric import numeric_record, precision_bits
from .quadfield import (FieldE, QIdeal, QuadElem, SizeLimitError,
                        is_fundamental)
from .resunits import UnitGroupTooLarge, units_structure
from .survey import deg3_pairs, survey_quadratic_modulus, theorem2_tables
from .valuefield import rationality_field, value_field_degree


class UsageError(Exception):
    """Malformed flags or arguments: exit 2."""


class ComputationError(Exception):
    """Well-formed request with no result (e.g. no such character): exit 1."""


# -- serialization helpers -------------------------------------------------

def _frac(q) -> str:
    f = Fraction(q)
    if f.denominator == 1:
        return str(f.numerator)
    return f"{f.numerator}/{f.denominator}"


def _quad(z: QuadElem) -> dict:
    return {"x": _frac(z.x), "y": _frac(z.y)}


def _alg(v) -> list:
    """Algebra element as [w-exp, zeta-exp, [radical exps], coefficient]."""
    return [[str(a), str(b), [str(e) for e in cs], _frac(c)]
            for (a, b, cs), c in v.coords]


def _emit(obj, path: str | None) -> None:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"
    if path is None:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc}") from exc


# -- input parsing ---------------------------------------------------------

def _field(disc: int) -> FieldE:
    """The field of a validated discriminant."""
    if disc >= 0 or not is_fundamental(disc):
        raise UsageError(f"{disc} is not a negative fundamental discriminant")
    return FieldE(disc)


_TOKEN = re.compile(r"\s*(\d+|[iws()+*-])")


def _tokenize(text: str) -> list[str]:
    out, pos = [], 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            raise UsageError(f"bad element syntax near {text[pos:]!r}")
        out.append(m.group(1))
        pos = m.end()
    return out


class _ElemParser:
    """Products, sums, and juxtaposition over 1, i, w = (D+sqrt D)/2,
    and s = sqrt D.  Example: 2(1+i), 11s, 3*(2+w)."""

    def __init__(self, field: FieldE, tokens: list[str]):
        self.field = field
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> str | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self) -> str | None:
        tok = self.peek()
        self.pos += 1
        return tok

    def atom(self) -> QuadElem:
        tok = self.take()
        if tok == "(":
            v = self.sum()
            if self.take() != ")":
                raise UsageError("expected ')'")
            return v
        if tok is not None and tok.isdigit():
            return self.field.element(int(tok))
        if tok == "w":
            return self.field.omega
        if tok == "s":
            return self.field.sqrt_disc
        if tok == "i":
            if self.field.disc != -4:
                raise UsageError("'i' is only an integer at discriminant -4")
            return self.field.element(2, 1)
        raise UsageError(f"unexpected token {tok!r}")

    def product(self) -> QuadElem:
        v = self.atom()
        while True:
            nxt = self.peek()
            if nxt == "*":
                self.take()
                v = v * self.atom()
            elif nxt is not None and (nxt.isdigit() or nxt in "iws("):
                v = v * self.atom()
            else:
                return v

    def sum(self) -> QuadElem:
        negate = False
        if self.peek() in ("+", "-"):
            negate = self.take() == "-"
        v = self.product()
        if negate:
            v = -v
        while self.peek() in ("+", "-"):
            op = self.take()
            term = self.product()
            v = v - term if op == "-" else v + term
        return v


def parse_element(field: FieldE, text: str) -> QuadElem:
    parser = _ElemParser(field, _tokenize(text))
    v = parser.sum()
    if parser.peek() is not None:
        raise UsageError(f"trailing input {parser.peek()!r}")
    return v


def parse_ideal(field: FieldE, text: str) -> QIdeal:
    """An ideal: either an HNF triple "a,b[,scale]" or a generator
    expression such as "2(1+i)"."""
    text = text.strip()
    if "," in text:
        parts = [p.strip() for p in text.split(",")]
        if len(parts) not in (2, 3):
            raise UsageError("HNF form is a,b or a,b,scale")
        try:
            a, b = int(parts[0]), int(parts[1])
            scale = Fraction(parts[2]) if len(parts) == 3 else Fraction(1)
        except (ValueError, ZeroDivisionError) as exc:
            raise UsageError(f"bad HNF triple {text!r}") from exc
        try:
            return QIdeal.from_hnf(field, a, b, scale)
        except ValueError as exc:
            raise UsageError(f"not an ideal of disc {field.disc}: {exc}") from exc
    elem = parse_element(field, text)
    if elem == field.zero:
        raise UsageError("the zero element generates no ideal")
    return QIdeal.from_element(elem)


def _first_character(field: FieldE, m: QIdeal, ell: int,
                     order: int | None):
    psi = first_character(field, m, ell, order=order)
    if psi is not None:
        return psi
    raise ComputationError(
        f"no compatible character at this modulus (disc {field.disc}, "
        f"norm {int(m.norm())}, ell {ell}, order {order or 'any'})")


def _precision() -> int:
    """The working precision of the embeddings, with a value of
    GROSSEN_PRECISION_BITS that is no positive integer refused (exit 2)."""
    try:
        return precision_bits()
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _exact_field(fn, psi):
    """fn(psi) for fn value_field_degree or rationality_field, with a
    configuration they do not cover reported as a failed construction."""
    try:
        return fn(psi)
    except (ValueError, ArithmeticError) as exc:
        raise ComputationError(f"cannot compute the value field: {exc}") from exc


# -- subcommands -----------------------------------------------------------

def cmd_classgroup(args) -> int:
    field = _field(args.disc)
    h, divisors = class_structure(field)
    _emit({"disc": str(field.disc), "class_number": str(h),
           "elementary_divisors": [str(x) for x in divisors]}, args.output)
    return 0


def _residue_units(args):
    """The field, the integral modulus and the unit group of o/m."""
    field = _field(args.disc)
    m = parse_ideal(field, args.modulus)
    if not m.is_integral:
        raise UsageError("modulus must be an integral ideal")
    return field, m, units_structure(field, m)


def cmd_units(args) -> int:
    field, m, S = _residue_units(args)
    _emit({"disc": str(field.disc), "modulus": _hnf_record(m),
           "order": str(S.total_order),
           "factors": [{"generator": _quad(g), "order": str(o)}
                       for g, o in S.factors]}, args.output)
    return 0


def cmd_chars(args) -> int:
    field, m, S = _residue_units(args)
    chars = enumerate_eta(field, m, order_equals=args.order, structure=S)
    _emit({"disc": str(field.disc), "modulus": _hnf_record(m),
           "unit_orders": [str(o) for o in S.orders],
           "count": str(len(chars)),
           "characters": [{"exps": [str(e) for e in eta.exps],
                           "order": str(eta.order)} for eta in chars]},
          args.output)
    return 0


def _refuse_bad_numbers(args) -> None:
    """The cheap refusals (exit 2) before any work: a non-positive -B
    first, then a non-positive -l or --order."""
    if getattr(args, "bound", 1) < 1:
        raise UsageError("the norm bound must be positive")
    if args.ell < 1:
        raise UsageError("ell must be a positive integer")
    if args.order is not None and args.order < 1:
        raise UsageError("the order must be a positive integer")


def cmd_gross_build(args) -> int:
    _refuse_bad_numbers(args)
    field = _field(args.disc)
    m = parse_ideal(field, args.modulus)
    psi = _first_character(field, m, args.ell, args.order)
    K = _exact_field(rationality_field, psi)
    _emit({"character": record(psi),
           "value_degree": str(_exact_field(value_field_degree, psi)),
           "rationality": {"degree": str(K.degree),
                           "poly": [str(c) for c in K.poly],
                           "disc": str(K.disc)},
           "level": str(psi.level), "weight": str(psi.weight)}, args.output)
    return 0


def cmd_gross_eval(args) -> int:
    try:
        with open(args.record) as fh:
            rec = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise UsageError(f"cannot read character record: {exc}") from exc
    try:
        if "character" in rec:
            rec = rec["character"]
        psi = from_record(rec, check=False)
    except SizeLimitError:
        # a size refusal, not a malformed record: main reports it
        raise
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise ComputationError(f"bad character record: {exc}") from exc
    ideal = parse_ideal(psi.field, args.ideal)
    try:
        value = psi(ideal)
    except ValueError as exc:
        raise ComputationError(f"cannot evaluate there: {exc}") from exc
    _precision()            # refused first, as a usage error
    _emit({"ideal": _hnf_record(ideal), "value": _alg(value),
           "numeric": numeric_record(value)}, args.output)
    return 0


def cmd_qexp(args) -> int:
    _refuse_bad_numbers(args)
    field = _field(args.disc)
    m = parse_ideal(field, args.modulus)
    psi = _first_character(field, m, args.ell, args.order)
    # a value field the header cannot state (exit 1) is refused before
    # the expansion is computed
    header = {"disc": str(field.disc), "modulus": _hnf_record(m),
              "ell": str(args.ell), "level": str(psi.level),
              "weight": str(psi.weight), "zeta_order": str(psi.r),
              "radical_degrees": [str(n) for n in psi.algebra.ns],
              "value_degree": str(_exact_field(value_field_degree, psi))}
    f = q_expansion(psi, args.bound)
    coeffs = [[str(n), _alg(f.coeffs[n])] for n in range(1, args.bound + 1)]
    _emit({"header": header, "coeffs": coeffs}, args.output)
    return 0


def _table_rows(rows):
    out = []
    for row in sorted(rows, key=lambda r: (abs(r.delta_E), r.delta_K)):
        rec = {"delta_E": str(row.delta_E), "delta_K": str(row.delta_K),
               "level": str(row.level), "provenance": row.provenance,
               "hcf": row.hcf, "witness": row.witness}
        if row.poly is not None:
            rec["poly"] = [str(c) for c in row.poly]
        out.append(rec)
    return out


def cmd_table(args) -> int:
    name = args.name
    if name == "deg2":
        deg2 = theorem2_tables()
        rows = [{"delta_K": str(K), "delta_E": [str(D) for D in Ds]}
                for K, Ds in sorted(deg2.items())]
    elif name == "deg3":
        rows = [{"delta_K": str(K), "delta_E": str(D)}
                for K, D in deg3_pairs()]
    elif name in ("quadodd", "quadeven"):
        built, _ = survey_quadratic_modulus(2)
        want_odd = name == "quadodd"
        rows = _table_rows(r for r in built if bool(r.delta_E % 2) == want_odd)
    elif name == "quade3":
        built, _ = survey_quadratic_modulus(3)
        rows = _table_rows(built)
    else:
        raise UsageError(f"unknown table {name!r}")
    _emit({"table": name, "rows": rows}, args.output)
    return 0


def cmd_verify(args) -> int:
    # imported here, so that no other subcommand loads the battery
    from .verify import run_all

    _precision()            # refused first: run_all prints nothing
    results = run_all()
    for r in results:
        status = "PASS" if r.ok else "FAIL"
        print(f"{status}  {r.name:24s} {r.seconds:7.1f}s  {r.detail}")
    passed = sum(r.ok for r in results)
    print(f"{passed}/{len(results)} checks passed")
    return 0 if passed == len(results) else 1


# -- argument wiring -------------------------------------------------------

@cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built once per process: parsing
    reads it and changes nothing in it, and no argument has a mutable
    default or an append action."""
    top = argparse.ArgumentParser(
        prog="grossen",
        description="Exact Grossencharacters and CM-form rationality fields")
    sub = top.add_subparsers(dest="command", required=True)

    def common(p, modulus=False, ell=False, order=False):
        p.add_argument("-d", "--disc", type=int, required=True,
                       help="negative fundamental discriminant")
        if modulus:
            p.add_argument("-m", "--modulus", required=True,
                           help='ideal: "a,b[,scale]" or e.g. "2(1+i)"')
        if ell:
            p.add_argument("-l", "--ell", type=int, default=1,
                           help="weight parameter (weight = ell + 1)")
        if order:
            p.add_argument("--order", type=int, default=None,
                           help="restrict to characters of this exact order")
        p.add_argument("-o", "--output", default=None,
                       help="write JSON here instead of stdout")

    p = sub.add_parser("classgroup", help="class number and structure")
    common(p)
    p.set_defaults(func=cmd_classgroup)

    p = sub.add_parser("units", help="unit group of o/m")
    common(p, modulus=True)
    p.set_defaults(func=cmd_units)

    p = sub.add_parser("chars", help="unit characters restricting to chi")
    common(p, modulus=True, order=True)
    p.set_defaults(func=cmd_chars)

    gross = sub.add_parser("gross", help="build or evaluate a character")
    gsub = gross.add_subparsers(dest="gross_command", required=True)
    p = gsub.add_parser("build", help="construct and serialize")
    common(p, modulus=True, ell=True, order=True)
    p.set_defaults(func=cmd_gross_build)
    p = gsub.add_parser("eval", help="evaluate a serialized character")
    p.add_argument("--record", required=True, help="JSON file from build")
    p.add_argument("--ideal", required=True,
                   help='ideal: "a,b[,scale]" or generator expression')
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_gross_eval)

    p = sub.add_parser("qexp", help="q-expansion of the attached form")
    common(p, modulus=True, ell=True, order=True)
    p.add_argument("-B", "--bound", type=int, default=100,
                   help="number of coefficients")
    p.set_defaults(func=cmd_qexp)

    p = sub.add_parser("table", help="emit a classification table")
    p.add_argument("name",
                   choices=["deg2", "deg3", "quadodd", "quadeven", "quade3"])
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("verify", help="run the verification battery")
    p.add_argument("scope", choices=["all"])
    p.set_defaults(func=cmd_verify)

    return top


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ComputationError, SizeLimitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except UnitGroupTooLarge as exc:
        print(f"error: cannot compute (o/m)^x: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
