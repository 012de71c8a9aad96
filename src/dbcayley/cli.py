"""Command-line front end: build, verify, compare, search, export.

Construction specs are one-line strings (``thm1:k=4,d=3``, ``cor:k=3``);
reports render as JSON (default) or a plain table.  Integer JSON fields
and histogram counts at or above 2**53 are emitted as decimal strings so
arbitrary-precision orders survive consumers with double-width numbers;
``moore_ratio`` is an exact "p/q" string.

Exit codes: 0 success, 1 invariant or diameter failure, 2 usage error,
3 resource refusal (state or arc cap exceeded).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from fractions import Fraction

# dbcayley makes no BLAS call: spare the per-core OpenBLAS pool its idle spinning
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .bounds import compare, optimal_ell
from .cayley import (
    EXPORT_FORMATS,
    GraphReport,
    check_export_cap,
    verify_construction,
    write_graph,
)
from .generators import (
    GeneratorClassOverlapError,
    SpecParseError,
    build,
    parse_spec,
)
from .group import DEFAULT_STATE_CAP, CapExceededError, ParameterError

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3


def _json_number(value: int):
    return value if abs(value) < 2**53 else str(value)


def report_to_dict(report: GraphReport) -> dict:
    """The fixed JSON schema for build/verify reports."""
    v = report.validation
    return {
        "spec": report.spec.canonical(),
        "order": _json_number(report.order),
        "degree": _json_number(report.degree),
        "directed": report.directed,
        "diameter": report.diameter,
        "claimed_diameter": report.claimed_diameter,
        "histogram": (None if report.histogram is None
                      else [_json_number(count) for count in report.histogram]),
        "moore_ratio": str(Fraction(report.moore_ratio)),
        "validation": {
            "ok": v.ok,
            "distinct": v.distinct,
            "identity_free": v.identity_free,
            "symmetric": v.symmetric,
            "size_ok": v.size_ok,
            "expected_size": v.expected_size,
            "actual_size": v.actual_size,
            "problems": list(v.problems),
            "discrepancies": list(report.discrepancies),
        },
    }


def _report_table(report: GraphReport) -> str:
    v = report.validation
    lines = [
        f"spec              {report.spec.canonical()}",
        f"order             {report.order}",
        f"degree            {report.degree}",
        f"directed          {report.directed}",
        f"diameter          {report.diameter if report.diameter is not None else 'not computed'}",
        f"claimed diameter  {report.claimed_diameter}",
        f"moore ratio       {report.moore_ratio}",
        f"validation        {'ok' if v.ok else 'FAILED: ' + '; '.join(v.problems)}",
    ]
    if report.histogram is not None:
        lines.insert(6, f"histogram         {report.histogram}")
    for msg in report.discrepancies:
        lines.append(f"discrepancy       {msg}")
    return "\n".join(lines) + "\n"


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", encoding="ascii") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _render_report(report: GraphReport, fmt: str, out_path: str | None) -> None:
    if fmt == "json":
        _emit(json.dumps(report_to_dict(report), indent=2) + "\n", out_path)
    else:
        _emit(_report_table(report), out_path)


def _cmd_build(args) -> int:
    spec = parse_spec(args.spec)
    report = verify_construction(spec, run_bfs=False)
    _render_report(report, args.format, args.out)
    return EXIT_OK if report.validation.ok else EXIT_FAILURE


def _cmd_verify(args) -> int:
    spec = parse_spec(args.spec)
    report = verify_construction(spec, cap=args.cap)
    _render_report(report, args.format, args.out)
    if report.ok:
        return EXIT_OK
    if args.warn_only:
        for msg in report.discrepancies + report.validation.problems:
            print(f"warning: {msg}", file=sys.stderr)
        return EXIT_OK
    return EXIT_FAILURE


def _cmd_export(args) -> int:
    spec = parse_spec(args.spec)
    gens = build(spec)
    if not args.out:
        try:
            # the export writes bytes past the text layer, so empty it first
            sys.stdout.flush()
            write_graph(gens, args.graph_format, sys.stdout.buffer, cap=args.cap)
            sys.stdout.buffer.flush()
        except BrokenPipeError:
            # the reader stopped early (``| head``), which is not a failure;
            # point stdout at devnull so the flush at exit cannot raise again
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK
    # refuse before the --out file is created or truncated
    check_export_cap(gens, args.cap)
    with open(args.out, "wb") as handle:
        write_graph(gens, args.graph_format, handle, cap=args.cap)
    return EXIT_OK


def _cmd_compare(args) -> int:
    d_hi = args.d_hi if args.d_hi is not None else args.d_lo
    if d_hi < args.d_lo:
        raise ParameterError(f"empty degree range {args.d_lo}..{d_hi}")
    directed = not args.undirected
    rows = [compare(d, args.k, directed) for d in range(args.d_lo, d_hi + 1)]
    previous_winner = None
    payload = []
    for row in rows:
        crossover = previous_winner is not None and row.winner != previous_winner
        previous_winner = row.winner
        entry = {
            "k": row.k,
            "d": row.d,
            "directed": row.directed,
            row.our_name: _json_number(row.our_order) if row.our_order is not None else None,
            **{name: _json_number(val) for name, val in row.competitor_orders.items()},
            "winner": row.winner,
            "crossover": crossover,
        }
        payload.append(entry)
    if args.format == "json":
        _emit(json.dumps(payload, indent=2) + "\n", args.out)
    else:
        names = [rows[0].our_name] + sorted(
            {name for row in rows for name in row.competitor_orders}
        )
        header = f"{'d':>6} " + " ".join(f"{n:>22}" for n in names) + "  winner"
        lines = [header]
        for row, entry in zip(rows, payload):
            cells = []
            for name in names:
                value = row.our_order if name == row.our_name else row.competitor_orders.get(name)
                cells.append(f"{value if value is not None else '-':>22}")
            mark = " *" if entry["crossover"] else ""
            lines.append(f"{row.d:>6} " + " ".join(cells) + f"  {row.winner}{mark}")
        _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def _cmd_search(args) -> int:
    result = optimal_ell(args.k, args.t, args.r)
    if args.format == "json":
        payload = {
            "k": args.k,
            "t": args.t,
            "r": args.r,
            "ell": result.ell,
            "m": result.m,
            "degree": _json_number(result.degree),
            "ell_star": result.ell_star,
            "candidates": [
                {"ell": e, "m": m, "degree": _json_number(deg)}
                for e, m, deg in result.candidates
            ],
        }
        _emit(json.dumps(payload, indent=2) + "\n", args.out)
    else:
        lines = [
            f"optimal ell for k={args.k}, t={args.t}, r={args.r}",
            f"  ell={result.ell}  m={result.m}  degree={result.degree}",
            f"  continuous prediction ell* = {result.ell_star:.4f}",
            "  candidates:",
        ]
        for e, m, deg in result.candidates:
            lines.append(f"    ell={e:<4} m={m:<4} degree={deg}")
        _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


# built once per process: one process may call main many times
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dbcayley",
        description="Build, verify and compare shift-group Cayley (di)graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_output(p, cap_help=None):
        p.add_argument("--out", default=None, help="write output to this path")
        if cap_help is not None:
            p.add_argument(
                "--cap",
                type=int,
                default=DEFAULT_STATE_CAP,
                help=f"{cap_help} (default {DEFAULT_STATE_CAP})",
            )

    def add_common(p, cap_help=None):
        p.add_argument("--format", choices=("json", "table"), default="json")
        add_output(p, cap_help)

    p_build = sub.add_parser("build", help="build and validate a generator set (no BFS)")
    p_build.add_argument("spec", help="construction spec, e.g. thm1:k=4,d=3 or cor:k=3")
    add_common(p_build)
    p_build.set_defaults(func=_cmd_build)

    p_verify = sub.add_parser("verify", help="full BFS verification of a construction")
    p_verify.add_argument("spec")
    p_verify.add_argument(
        "--warn-only",
        action="store_true",
        help="report invariant failures as warnings instead of exit 1",
    )
    add_common(p_verify, cap_help="dense state cap")
    p_verify.set_defaults(func=_cmd_verify)

    p_export = sub.add_parser("export", help="write an explicit graph encoding")
    p_export.add_argument("spec")
    p_export.add_argument("graph_format", choices=EXPORT_FORMATS)
    add_output(p_export, cap_help="cap on vertices and on arcs")
    p_export.set_defaults(func=_cmd_export)

    p_compare = sub.add_parser("compare", help="exact order comparison over a degree range")
    p_compare.add_argument("k", type=int)
    p_compare.add_argument("d_lo", type=int)
    p_compare.add_argument("d_hi", type=int, nargs="?", default=None)
    p_compare.add_argument("--undirected", action="store_true")
    add_common(p_compare)
    p_compare.set_defaults(func=_cmd_compare)

    p_search = sub.add_parser("search", help="degree-minimising block length for (k, t, r)")
    p_search.add_argument("k", type=int)
    p_search.add_argument("t", type=int)
    p_search.add_argument("r", type=int)
    add_common(p_search)
    p_search.set_defaults(func=_cmd_search)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CapExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except (SpecParseError, ParameterError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except GeneratorClassOverlapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILURE


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
