"""Batch command-line interface.

Subcommands:
  lseries          L-series values (series + integral routes) for a form
  fe-check         functional-equation residual table
  converse         converse-theorem sweep over (D, chi, phi)
  summation-check  summation-formula term identities (gf / mf / decomp)
  fixtures export  write a bundled fixture in the coefficient JSON schema

Exit codes: 0 pass, 1 check failed, 2 input error, 3 domain/membership
error, 4 numerical error (accuracy not reached, or a value outside the
double-precision range), 5 inconclusive converse sweep (every failing
report is unreliable).  fe-check goes on past an instance that fails its
membership check: that instance is written as an error record (D, chi,
phi, side, error) among the reports, and the exit code is 3 if any
instance raised, else 1 if any report failed, else 0.  Reports are
deterministic for a fixed configuration, at any BLAS thread count: no
matrix product is large enough to start BLAS's threads
(``specials._matmul``).
"""

from __future__ import annotations

import argparse
import cmath
import csv
import json
import math
import sys

from .errors import AccuracyError, DomainError, MembershipError, RangeOverflowError, SchemaError
from .form import FormData, form_from_dict, form_to_dict
from .lseries import classical_value, lseries_integral, lseries_series
from .qseries import FIXTURE_NAMES, fixture, fixture_pair
from .specials import trivial_character
from .testfn import standard_battery
from .verify import (
    _chi_id,
    converse_sweep,
    decomp_identity_check,
    fe_sweep,
    gf_term_check,
    mf_term_check,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INPUT_ERROR = 2
EXIT_DOMAIN_ERROR = 3
EXIT_NUMERICAL_ERROR = 4
EXIT_INCONCLUSIVE = 5


def _battery_from_args(args) -> list:
    if args.battery_count < 1:
        raise SchemaError("battery count must be >= 1")
    tol = getattr(args, "tol", None)
    if tol is not None and tol <= 0:
        raise SchemaError("tolerances must be positive")
    caps = [getattr(args, cap, None) for cap in ("dmax", "dcap")]
    if any(cap is not None and cap < 1 for cap in caps):
        raise SchemaError("the modulus cap must be >= 1")
    try:
        shifts = tuple(float(s) for s in args.shifts.split(",")) if args.shifts else (1,)
    except ValueError as exc:
        raise SchemaError(f"bad shift list {args.shifts!r}") from exc
    return standard_battery(count=args.battery_count, shifts=shifts)


def _load_form(args) -> tuple[FormData, FormData]:
    """(f, g) from --fixture or --input/--companion."""
    if getattr(args, "fixture", None):
        if args.fixture not in FIXTURE_NAMES:
            raise SchemaError(f"unknown fixture {args.fixture!r}")
        return fixture_pair(args.fixture, args.precision)
    if getattr(args, "input", None):
        with open(args.input) as fh:
            payload = json.load(fh)
        f = form_from_dict(payload)
        if getattr(args, "companion", None):
            with open(args.companion) as fh:
                g = form_from_dict(json.load(fh))
        else:
            g = f
            print("note: no --companion given, assuming self-dual data (g = f)",
                  file=sys.stderr)
        return f, g
    raise SchemaError("need --fixture NAME or --input FILE")


def _write_csv(records, stream):
    writer = csv.DictWriter(stream, fieldnames=sorted({k for r in records for k in r}))
    writer.writeheader()
    for r in records:
        writer.writerow(r)


def _emit(records, args) -> None:
    """``records`` as JSON or CSV to --output, or to stdout when that is None or -."""
    if args.format == "csv":
        if args.output in (None, "-"):
            _write_csv(records, sys.stdout)
        else:
            with open(args.output, "w", newline="") as fh:
                _write_csv(records, fh)
    else:
        text = json.dumps(records, indent=2, default=str)
        if args.output in (None, "-"):
            print(text)
        else:
            with open(args.output, "w") as fh:
                fh.write(text + "\n")


def _c2d(z) -> list[float]:
    return [float(z.real), float(z.imag)]


def cmd_lseries(args) -> int:
    f, _ = _load_form(args)
    records = []
    if args.classical:
        if args.s is None:
            raise SchemaError("--classical needs --s")
        try:
            s = complex(args.s)
        except ValueError:
            s = math.nan
        if not cmath.isfinite(s):
            raise SchemaError(f"bad --s {args.s!r}: not a finite complex number")
        lv = classical_value(f, s, tol=args.tol)
        records.append(
            {
                "kind": "classical",
                "s": args.s,
                "value": _c2d(lv.value),
                "trunc_err": lv.trunc_err,
                "n_terms": lv.n_terms,
            }
        )
    else:
        for phi in _battery_from_args(args):
            sv = lseries_series(f, phi)
            iv = lseries_integral(f, phi, args.tol)
            agree = abs(sv.value - iv.value) / max(abs(sv.value), abs(iv.value), 1e-30)
            records.append(
                {
                    "phi": phi.label,
                    "series": _c2d(sv.value),
                    "integral": _c2d(iv.value),
                    "rel_disagreement": agree,
                    "trunc_err": sv.trunc_err,
                    "quad_err": sv.quad_err + iv.quad_err,
                    "n_terms": sv.n_terms,
                }
            )
    _emit(records, args)
    return EXIT_OK


def cmd_fe_check(args) -> int:
    f, g = _load_form(args)
    battery = _battery_from_args(args)
    records = []
    for D, chi, phi, result in fe_sweep(f, g, battery, range(1, args.dmax + 1), args.tol):
        if isinstance(result, MembershipError):
            records.append({"D": D, "chi": _chi_id(chi), "phi": phi.label,
                            "side": result.side, "error": str(result)})
            continue
        for r in result:
            records.append(
                {
                    "D": D,
                    "chi": r.chi_id,
                    "phi": r.phi_id,
                    "equation": r.equation,
                    "lhs": _c2d(r.lhs),
                    "rhs": _c2d(r.rhs),
                    "rel_residual": r.rel_residual,
                    "lhs_err": r.lhs_err,
                    "rhs_err": r.rhs_err,
                    "reliable": r.verdict_reliable,
                    "pass": r.passed,
                }
            )
    _emit(records, args)
    if any("error" in r for r in records):
        return EXIT_DOMAIN_ERROR
    return EXIT_OK if all(r["pass"] for r in records) else EXIT_CHECK_FAILED


def cmd_converse(args) -> int:
    f, g = _load_form(args)
    battery = _battery_from_args(args)
    rep = converse_sweep(f, g, battery, tol=args.tol, dmax=args.dcap)
    record = {
        "verdict": rep.verdict,
        "n_checked": rep.n_checked,
        "unreliable": rep.unreliable_count,
        "worst_rel_residual": rep.worst.rel_residual if rep.worst else None,
        "worst_witness": {
            "chi": rep.worst.chi_id,
            "phi": rep.worst.phi_id,
            "equation": rep.worst.equation,
        }
        if rep.worst
        else None,
        "failures": [
            {"chi": r.chi_id, "phi": r.phi_id, "equation": r.equation, "rel_residual": r.rel_residual}
            for r in rep.failures
        ],
    }
    _emit([record], args)
    if rep.verdict == "inconclusive":
        return EXIT_INCONCLUSIVE
    return EXIT_OK if rep.consistent else EXIT_CHECK_FAILED


SUMMATION_TERMS = ("gf", "mf", "decomp")


def cmd_summation_check(args) -> int:
    terms = args.terms.split(",")
    unknown = [t for t in terms if t not in SUMMATION_TERMS]
    if unknown:
        raise SchemaError(f"unknown terms {unknown}; choose from {', '.join(SUMMATION_TERMS)}")
    battery = _battery_from_args(args)
    phi = battery[min(2, len(battery) - 1)]
    checks = {
        "gf": lambda n: gf_term_check(n, args.k, phi, tol=1e-10),
        "mf": lambda n: mf_term_check(n, args.k, args.level, phi, tol=1e-6),
    }
    records = []
    for n in range(1, args.nmax + 1):
        for term, check in checks.items():
            if term in terms:
                r = check(n)
                records.append({"term": term, "n": n, "k": args.k,
                                "rel_residual": r.rel_residual, "pass": r.passed})
    if "decomp" in terms:
        a_f = {1: 2.0 + 1.0j, 2: -3.0 + 0.5j}
        b = {
            -n: -complex(v).conjugate() * (4.0 * math.pi * n) ** (1 - args.k)
            for n, v in a_f.items()
        }
        g = FormData(
            weight2=2 * (2 - args.k),
            level=1,
            psi=trivial_character(1),
            n0=1,
            a={-1: 1.0, 0: 2.0, 1: 5.0, 2: -1.0},
            b=b,
            growth_C=8.0,
            label="synthetic shadow pair",
            exhaustive=True,
        )
        r = decomp_identity_check(g, a_f, phi, tol=1e-9)
        records.append(
            {"term": "decomp", "k": args.k, "rel_residual": r.rel_residual, "pass": r.passed}
        )
    if not records:
        raise SchemaError("nothing to check: gf and mf need --nmax >= 1")
    _emit(records, args)
    return EXIT_OK if all(r["pass"] for r in records) else EXIT_CHECK_FAILED


def cmd_fixtures_export(args) -> int:
    if args.name not in FIXTURE_NAMES:
        raise SchemaError(f"unknown fixture {args.name!r}")
    _emit(form_to_dict(fixture(args.name, args.precision)), args)
    return EXIT_OK


def _add_common(p: argparse.ArgumentParser, with_form: bool = True) -> None:
    if with_form:
        p.add_argument("--fixture", help=f"bundled fixture: {', '.join(FIXTURE_NAMES)}")
        p.add_argument("--input", help="coefficient JSON file")
        p.add_argument("--companion", help="coefficient JSON for g = f|_k W_N")
        p.add_argument("--precision", type=int, default=768, help="fixture truncation")
    p.add_argument("--battery-count", type=int, default=10)
    p.add_argument("--shifts", default="", help="comma list of power shifts, e.g. 1,2,6")
    p.add_argument("--output", "-o", default=None, help="file or - for stdout")
    p.add_argument("--format", choices=("json", "csv"), default="json")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="maass-lseries", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("lseries", help="L-series values over the battery")
    _add_common(p)
    p.add_argument("--classical", action="store_true", help="Dirichlet-series value")
    p.add_argument("--s", default=None, help="s for --classical")
    p.add_argument("--tol", type=float, default=1e-10,
                   help="tolerance of the integral route and of --classical")
    p.set_defaults(func=cmd_lseries)

    p = sub.add_parser("fe-check", help="functional-equation residuals")
    _add_common(p)
    p.add_argument("--dmax", type=int, default=1, help="largest twisting modulus")
    p.add_argument("--tol", type=float, default=None)
    p.set_defaults(func=cmd_fe_check)

    p = sub.add_parser("converse", help="converse-theorem sweep")
    _add_common(p)
    p.add_argument("--dcap", type=int, default=None, help="cap on the modulus range")
    p.add_argument("--tol", type=float, default=None)
    p.set_defaults(func=cmd_converse)

    p = sub.add_parser("summation-check", help="summation-formula term identities")
    _add_common(p, with_form=False)
    p.add_argument("--terms", default="gf,mf", help="comma list from gf,mf,decomp")
    p.add_argument("--k", type=int, default=12)
    p.add_argument("--nmax", type=int, default=5)
    p.add_argument("--level", type=int, default=1)
    p.set_defaults(func=cmd_summation_check)

    p = sub.add_parser("fixtures", help="fixture utilities")
    fsub = p.add_subparsers(dest="fixtures_command", required=True)
    pe = fsub.add_parser("export", help="write a fixture as coefficient JSON")
    pe.add_argument("--name", required=True)
    pe.add_argument("--precision", type=int, default=64)
    pe.add_argument("--output", "-o", default=None)
    pe.set_defaults(func=cmd_fixtures_export, format="json")

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (SchemaError, FileNotFoundError, json.JSONDecodeError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except (DomainError, MembershipError) as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN_ERROR
    except (AccuracyError, RangeOverflowError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL_ERROR


if __name__ == "__main__":
    sys.exit(main())
