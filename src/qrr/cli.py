"""Batch command-line front end: verify, table, replay, nahm.

Orders on the command line are rationals in q-units (e.g. 100 or 7/2).  Exit
codes: 0 all good, 1 mismatch or failing step, 2 bad input (I/O, parse,
semantic, unknown id, non-positive-definite matrix, or another QrrError), 3
internal invariant violation (a claimed match carrying a fractional or
imaginary residue) or engine fault (any other exception from any command),
141 when the reader closes standard output early (128 + SIGPIPE).
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import os
import sys
import traceback
from fractions import Fraction
from pathlib import Path
from typing import List, Optional, Tuple

from . import corpus
from .errors import ParseError, QrrError, SemanticError
from .identity import IdentitySpec, NahmData, VerifyReport, eval_product, eval_sum, nahm_series, verify
from .parser import parse_file
from .quadform import as_matrix
from .series import QSeries

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_BAD_INPUT = 2
EXIT_INVARIANT = 3
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE: the reader closed standard output

#: JSON schema (draft-07) of one verify report, as published.
REPORT_SCHEMA = {
    "type": "object",
    "required": [
        "identity",
        "status",
        "order",
        "first_mismatch",
        "fractional_residue",
        "imaginary_residue",
        "elapsed_ms",
    ],
    "properties": {
        "identity": {"type": "string"},
        "status": {"enum": ["match", "mismatch", "error"]},
        "order": {"type": ["integer", "string"]},
        "first_mismatch": {
            "type": ["object", "null"],
            "required": ["exp", "lhs", "rhs"],
            "properties": {
                "exp": {"type": ["integer", "string"]},
                "lhs": {"type": "array", "items": {"type": "integer"}},
                "rhs": {"type": "array", "items": {"type": "integer"}},
            },
        },
        "fractional_residue": {"type": "array", "items": {"type": ["integer", "string"]}},
        "imaginary_residue": {"type": "array", "items": {"type": ["integer", "string"]}},
        "elapsed_ms": {"type": "number"},
        "error": {"type": "string"},
    },
}

#: JSON schema (draft-07) of one replay step report.
STEP_SCHEMA = {
    "type": "object",
    "required": ["theorem", "step", "description", "status", "order", "first_divergence"],
    "properties": {
        "theorem": {"type": "string"},
        "step": {"type": "integer", "minimum": 1},
        "description": {"type": "string"},
        "status": {"enum": ["pass", "fail"]},
        "order": {"type": ["integer", "string"]},
        "first_divergence": {"type": ["string", "null"]},
    },
}


def _rational(text: str, what: str) -> Fraction:
    """Fraction(text), or a ValueError that names `what` and says why."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as ex:
        why = "zero denominator" if isinstance(ex, ZeroDivisionError) else ex
        raise ValueError("bad %s %r: %s" % (what, text, why)) from None


def _parse_order(text: str) -> Fraction:
    try:
        order = _rational(text, "order")
    except ValueError as ex:
        raise argparse.ArgumentTypeError(str(ex))
    if order <= 0:
        raise argparse.ArgumentTypeError("order must be positive, got %s" % text)
    return order


def _collect_specs(paths: List[str], bounds: Optional[Tuple[int, ...]]) -> List[IdentitySpec]:
    """Load identity specs from files/directories, or the shipped corpus if
    no paths are given.  Raises on I/O, parse, and semantic errors; a parse
    or semantic error names its file."""
    specs: List[IdentitySpec] = []
    if not paths:
        specs = corpus.load_all()
    for raw in paths:
        p = Path(raw)
        if p.is_dir():
            files = sorted(p.glob("*.id"))
            if not files:
                raise FileNotFoundError("no .id files in directory %s" % p)
        elif p.is_file():
            files = [p]
        else:
            raise FileNotFoundError("no such file or directory: %s" % p)
        for f in files:
            try:
                text = f.read_text(encoding="utf-8")
            except UnicodeDecodeError as ex:
                raise OSError("%s is not UTF-8 text (%s at byte %d)" % (f, ex.reason, ex.start)) from None
            try:
                specs.extend(parse_file(text))
            except (ParseError, SemanticError) as ex:
                ex.args = ("%s: %s" % (f, ex),)  # among several files, name the one that failed
                raise
    if bounds is not None:
        specs = [dataclasses.replace(s, bounds=bounds) for s in specs]
    return specs


def _parse_bounds(text: str) -> Tuple[int, ...]:
    try:
        vals = tuple(int(x) for x in text.split(","))
    except ValueError as ex:
        raise argparse.ArgumentTypeError("bad bounds %r: %s" % (text, ex))
    if any(v < 0 for v in vals):
        raise argparse.ArgumentTypeError("bounds must be nonnegative")
    return vals


def _report_exit(reports: List[VerifyReport]) -> int:
    if any(r.status == "error" for r in reports):
        return EXIT_BAD_INPUT
    if any(
        r.status == "match" and (r.fractional_residue or r.imaginary_residue)
        for r in reports
    ):
        return EXIT_INVARIANT
    if any(r.status != "match" for r in reports):
        return EXIT_MISMATCH
    return EXIT_OK


def cmd_verify(args, out) -> int:
    try:
        specs = _collect_specs(args.paths, args.bounds)
    except OSError as ex:
        print("error: %s" % ex, file=sys.stderr)
        return EXIT_BAD_INPUT
    reports = [verify(s, args.order) for s in specs]
    if args.format == "json":
        json.dump([r.to_json() for r in reports], out, indent=2)
        out.write("\n")
    else:
        for r in reports:
            line = "%-24s %-8s order %-6s %8.1f ms" % (
                r.name, r.status, r.order, r.elapsed_ms,
            )
            if r.first_mismatch is not None:
                e, lhs, rhs = r.first_mismatch
                line += "  first divergence at q^%s: %s vs %s" % (e, lhs, rhs)
            if r.error:
                line += "  (%s)" % r.error
            print(line, file=out)
    return _report_exit(reports)


def _table_rows(spec: IdentitySpec, order: Fraction):
    den, top, lhs, rhs = QSeries._unify(eval_sum(spec, order), eval_product(spec, order))
    for k in range(top + 1):
        e = Fraction(k, den)
        a = lhs.coeff(e)
        b = rhs.coeff(e)
        yield e, a, b


def cmd_table(args, out) -> int:
    try:
        specs = _collect_specs(args.paths, args.bounds)
    except OSError as ex:
        print("error: %s" % ex, file=sys.stderr)
        return EXIT_BAD_INPUT
    for spec in specs:
        rows = list(_table_rows(spec, args.order))
        if args.format == "csv":
            w = csv.writer(out, lineterminator="\n")
            w.writerow(["exponent", "lhs_re", "lhs_im", "rhs_re", "rhs_im"])
            for e, a, b in rows:
                w.writerow([e, a.re, a.im, b.re, b.im])
        elif args.format == "json":
            json.dump(
                {
                    "identity": spec.name,
                    "order": str(args.order),
                    "rows": [
                        [str(e), a.re, a.im, b.re, b.im] for e, a, b in rows
                    ],
                },
                out,
                indent=2,
            )
            out.write("\n")
        else:
            print("# %s" % spec.name, file=out)
            print("%-10s %16s %16s" % ("exponent", "sum", "product"), file=out)
            for e, a, b in rows:
                print("%-10s %16s %16s" % (e, a, b), file=out)
    return EXIT_OK


def cmd_replay(args, out) -> int:
    # the chains and the z-layer they run on load only for this command
    from .replay import REPLAYS, chain_passes

    fn = REPLAYS.get(args.theorem)
    if fn is None:
        print(
            "error: unknown derivation id %r (have %s)"
            % (args.theorem, ", ".join(sorted(REPLAYS))),
            file=sys.stderr,
        )
        return EXIT_BAD_INPUT
    steps = fn(args.order)
    if args.format == "json":
        json.dump([s.to_json() for s in steps], out, indent=2)
        out.write("\n")
    else:
        for s in steps:
            line = "%s step %d/%d %-4s %s" % (
                s.theorem, s.step, len(steps), s.status, s.description,
            )
            if s.divergence is not None:
                line += "  [diverges: %s]" % s.divergence
            print(line, file=out)
    return EXIT_OK if chain_passes(steps) else EXIT_MISMATCH


def cmd_nahm(args, out) -> int:
    try:
        a = as_matrix([[_rational(x, "--A entry") for x in row.split(",")] for row in args.A.split(";")])
        b = [_rational(x, "--B entry") for x in args.B.split(",")] if args.B else [Fraction(0)] * len(a)
        data = NahmData(a=tuple(tuple(r) for r in a), b=tuple(b), c=_rational(args.C, "--C"))
    except ValueError as ex:  # malformed --A/--B/--C
        print("error: %s" % ex, file=sys.stderr)
        return EXIT_BAD_INPUT
    series = nahm_series(data, args.order)
    if args.format == "json":
        json.dump(series.to_json(), out, indent=2)
        out.write("\n")
    else:
        for e, c in series.terms():
            print("%-10s %s" % (e, c), file=out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="qrr", description="Exact q-series identity verification engine."
    )
    sub = ap.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="verify identity files (default: shipped corpus)")
    v.add_argument("paths", nargs="*", help="identity files or directories of *.id files")
    v.add_argument("--order", type=_parse_order, default=Fraction(50))
    v.add_argument("--format", choices=("text", "json"), default="text")
    v.add_argument("--bounds", type=_parse_bounds, default=None,
                   help="comma-separated enumeration bounds overriding each spec")
    v.set_defaults(fn=cmd_verify)

    t = sub.add_parser("table", help="print both sides' coefficients, aligned by exponent")
    t.add_argument("paths", nargs="*")
    t.add_argument("--order", type=_parse_order, default=Fraction(20))
    t.add_argument("--format", choices=("text", "csv", "json"), default="text")
    t.add_argument("--bounds", type=_parse_bounds, default=None)
    t.set_defaults(fn=cmd_table)

    r = sub.add_parser("replay", help="run one machine-checked derivation chain")
    r.add_argument("theorem", help="derivation id: 1.5, 1.6, 1.7 or 1.8")
    r.add_argument("--order", type=_parse_order, default=Fraction(80))
    r.add_argument("--format", choices=("text", "json"), default="text")
    r.set_defaults(fn=cmd_replay)

    n = sub.add_parser("nahm", help="expand a Nahm series for a quadratic form")
    n.add_argument("--A", required=True, help="matrix, rows ;-separated, entries ,-separated")
    n.add_argument("--B", default="", help="linear vector, entries ,-separated (--B=-1,0 if it starts with -)")
    n.add_argument("--C", default="0", help="constant offset (--C=-1/2 if negative)")
    n.add_argument("--order", type=_parse_order, default=Fraction(30))
    n.add_argument("--format", choices=("text", "json"), default="text")
    n.set_defaults(fn=cmd_nahm)
    return ap


def main(argv=None, out=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args, out or sys.stdout)
    except BrokenPipeError:
        if out is None:
            # the interpreter flushes stdout at exit; send that flush nowhere
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except QrrError as ex:
        print("error: %s" % ex, file=sys.stderr)
        return EXIT_BAD_INPUT
    except Exception as ex:  # every rejected input is a QrrError, so this is an engine fault
        traceback.print_exc(file=sys.stderr)
        print("internal error: %s: %s" % (type(ex).__name__, ex), file=sys.stderr)
        return EXIT_INVARIANT


if __name__ == "__main__":
    sys.exit(main())
