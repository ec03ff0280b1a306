"""Command-line front end.

Subcommands mirror the library: gfc, paths, polyomino, cone-verify,
canonical, hilbert, selftest. Results go to stdout (json by default,
csv or text on request), diagnostics to stderr. Exit codes: 0 success,
1 validation error, 2 search-cap refusal, 3 selftest failure.

Counts and determinant values are printed as decimal strings so that
arbitrarily large results survive any JSON consumer; small exponent
entries stay plain numbers.

Each subcommand's handler imports the library modules it runs when it
runs, so a process loads and compiles only those: the parser needs
nothing beyond ``caps``.
"""

from __future__ import annotations

import argparse
import json
import sys
from itertools import chain, starmap

from .caps import GFC_METHODS, SearchCapExceeded, check_volume


class CliError(Exception):
    """Validation problem; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CliError(message)


def _int_list(text: str) -> tuple[int, ...]:
    try:
        values = tuple(int(x) for x in text.split(","))
    except ValueError:
        raise CliError(f"expected a comma-separated integer list, got {text!r}") from None
    return values


def _nonnegative_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a nonnegative integer, got {text!r}")
    return value


def build_parser() -> _Parser:
    parser = _Parser(prog="fusscat", description=__doc__.splitlines()[0])
    parser.add_argument("--format", choices=("json", "csv", "text"), default="json")
    parser.add_argument("--max-volume", type=_nonnegative_int, default=None,
                        help="cap on enumeration volume estimates")
    sub = parser.add_subparsers(dest="command", required=True)

    s = sub.add_parser("gfc", help="generalized Fuss-Catalan bracket")
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--t", type=int, required=True)
    s.add_argument("--p", type=int, required=True)
    s.add_argument("--method", choices=("all",) + GFC_METHODS, default="all")

    s = sub.add_parser("paths", help="bounded monotone path counting")
    s.add_argument("--a", type=_int_list, required=True)
    s.add_argument("--b", type=_int_list, default=None)
    s.add_argument("--method", choices=("dp", "det", "enumerate"), default="dp")

    s = sub.add_parser("polyomino", help="staircase polyomino data")
    s.add_argument("--u", type=_int_list, required=True)
    s.add_argument("--r", type=_int_list, required=True)
    s.add_argument("--render", action="store_true")

    s = sub.add_parser("cone-verify", help="certify a staircase cone's halfspaces")
    s.add_argument("--u", type=_int_list, required=True)
    s.add_argument("--r", type=_int_list, required=True)

    s = sub.add_parser("canonical", help="canonical-module generators")
    s.add_argument("--n", type=int)
    s.add_argument("--t", type=int)
    s.add_argument("--p", type=int)
    s.add_argument("--u", type=_int_list)
    s.add_argument("--r", type=_int_list)
    s.add_argument("--dmax", type=_nonnegative_int, default=None,
                   help="search degree bound (general staircase search)")

    s = sub.add_parser("hilbert", help="Hilbert function and numerator")
    s.add_argument("--u", type=_int_list, required=True)
    s.add_argument("--r", type=_int_list, required=True)
    s.add_argument("--dmax", type=_nonnegative_int, required=True)

    sub.add_parser("selftest", help="replay all reference values")
    return parser


def _spec(args):
    """The StairSpec of --u/--r; a bad one raises ValueError, exit 1."""
    from .polyomino import StairSpec

    return StairSpec(args.u, args.r)


def _run_gfc(args) -> dict:
    from . import brackets

    if args.method == "all":
        values = {m: brackets.gfc(args.n, args.t, args.p, m, args.max_volume)
                  for m in GFC_METHODS}
        agree = len(set(values.values())) == 1
        return {
            "value": str(values["det"]),
            "methods_agree": agree,
            "per_method": {m: str(v) for m, v in values.items()},
        }
    value = brackets.gfc(args.n, args.t, args.p, args.method, args.max_volume)
    return {"value": str(value), "method": args.method}


def _run_paths(args) -> dict:
    from . import paths

    b = args.b if args.b is not None else (0,) * len(args.a)
    bounds = paths.HeightBounds.from_rows(args.a, b)
    if args.method == "dp":
        return {"count": str(paths.count_paths_dp(bounds, args.max_volume)),
                "method": "dp"}
    if args.method == "det":
        return {"count": str(paths.count_paths_det(bounds, args.max_volume)),
                "method": "det"}
    seqs = list(paths.iter_height_sequences(bounds, args.max_volume))
    return {"count": str(len(seqs)), "method": "enumerate", "sequences": seqs}


def _run_polyomino(args) -> dict:
    from . import polyomino

    spec = _spec(args)
    cell_count = spec.cell_count()
    # the cells list holds two integers per cell; the picture, A_p - 1 rows
    # of B_p - 1 characters and a newline, adds (A_p - 1) * B_p
    estimate, what = 2 * cell_count, "polyomino cell list"
    if args.render:
        width, height = spec.ambient_box()
        estimate += (height - 1) * width
        what += " and picture"
    check_volume(estimate, args.max_volume, what=what)
    out = {
        "spec": polyomino.format_stair_spec(spec),
        "cell_count": cell_count,
        "cells": list(spec.cells()),
        "vertex_count": spec.vertex_count(),
        "krull_dim": spec.krull_dim(),
        # column x is the run 1 .. top(x) - 1 and the tops never fall, so
        # each row is a run ending at column B_p - 1: always convex
        "convex": True,
        "inner_interval_count": spec.inner_interval_count(),
    }
    if args.render:
        out["render"] = spec.render()
    return out


def _run_canonical(args) -> dict:
    closed_form = args.n is not None or args.t is not None or args.p is not None
    if closed_form:
        if args.u or args.r:
            raise CliError("give either --n/--t/--p or --u/--r, not a mixture")
        if None in (args.n, args.t, args.p):
            raise CliError("the closed form needs all three of --n, --t, --p")
        if args.dmax is not None:
            raise CliError("--dmax applies to the general search (--u/--r), "
                           "not to the closed form")
        from . import canonical

        gens = canonical.stair_generators(args.n, args.t, args.p, args.max_volume)
        return {
            "n": args.n, "t": args.t, "p": args.p,
            "cm_type": str(len(gens)),
            "generators": [g.as_json_dict() for g in gens],
        }
    if not args.u or not args.r:
        raise CliError("general search needs --u and --r")
    if args.dmax is None:
        raise CliError("general search needs --dmax")
    from . import canonical, polyomino

    spec = _spec(args)
    found = canonical.minimal_generators_search(spec, args.dmax, args.max_volume)
    m = spec.ambient_box()[0]
    return {
        "spec": polyomino.format_stair_spec(spec),
        "degree_max": args.dmax,
        "count": str(len(found)),
        "generators": [{"x": z[:m], "y": z[m:]} for z in found],
    }


def _run_cone_verify(args) -> dict:
    from . import cone

    return cone.verify_h_representation(_spec(args), args.max_volume)


def _run_hilbert(args) -> dict:
    from . import canonical, polyomino

    spec = _spec(args)
    h = canonical.hilbert_numerator(spec, args.dmax, args.max_volume)
    dim = spec.krull_dim()
    return {
        "spec": polyomino.format_stair_spec(spec),
        "dimension": dim,
        "hilbert_function": [str(v) for v in canonical.hilbert_from_numerator(h, dim)],
        "numerator": h,
    }


def _run_selftest(args, out) -> int:
    from . import selftest

    results = selftest.run_all()
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        print(f"{status} criterion {res.number}: {res.name}", file=out)
        if not res.passed:
            print(f"     {res.detail}", file=sys.stderr)
        print(f"     ({res.seconds:.2f}s)", file=sys.stderr)
    failed = [r.number for r in results if not r.passed]
    if failed:
        print(f"selftest FAILED on criteria {failed}", file=sys.stderr)
        return 3
    print(f"selftest passed all {len(results)} criteria", file=out)
    return 0


def _flatten_for_csv(doc: dict, prefix="") -> list[tuple[str, str]]:
    rows = []
    for key, value in doc.items():
        name = f"{prefix}{key}"
        if isinstance(value, dict):
            rows.extend(_flatten_for_csv(value, name + "."))
        elif isinstance(value, list):
            rows.append((name, ";".join(json.dumps(v, separators=(",", ":")) for v in value)))
        else:
            rows.append((name, str(value)))
    return rows


def json_text(value, indent: str = "") -> str:
    """json.dumps(value, indent=2), byte for byte, for a document of
    dicts with str keys, lists, tuples and JSON scalars, at the nesting
    depth that indent marks.

    json.dumps takes its pure-Python encoder whenever indent is set, at
    several calls per item. This joins each container's items with
    str.join and writes a list of plain ints with one map(str), and a
    list of plain-int lists of one length (such as cells) with one
    format template over all rows; the other scalars go to json.dumps.
    """
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = indent + "  "
        items = [f"{json.dumps(k)}: {json_text(v, inner)}" for k, v in value.items()]
        return "{\n" + inner + (",\n" + inner).join(items) + "\n" + indent + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        inner = indent + "  "
        types = set(map(type, value))
        if types == {int}:
            items = map(str, value)
        elif (types <= {list, tuple} and len(lengths := set(map(len, value))) == 1
              and set(map(type, chain.from_iterable(value))) == {int}):
            deeper = inner + "  "
            row = ("[\n" + deeper + (",\n" + deeper).join(["{}"] * lengths.pop())
                   + "\n" + inner + "]")
            items = starmap(row.format, value)
        else:
            items = [json_text(v, inner) for v in value]
        return "[\n" + inner + (",\n" + inner).join(items) + "\n" + indent + "]"
    if type(value) is int:
        return str(value)
    return json.dumps(value)


def _emit(doc: dict, fmt: str, out):
    if fmt == "json":
        out.write(json_text(doc) + "\n")
    elif fmt == "csv":
        print("key,value", file=out)
        for key, value in _flatten_for_csv(doc):
            value = value.replace('"', '""')
            print(f'{key},"{value}"', file=out)
    else:
        for key, value in _flatten_for_csv(doc):
            print(f"{key}: {value}", file=out)


def main(argv=None) -> int:
    out = sys.stdout
    # an exact count can have more digits than str() converts by default
    # (4300 from Python 3.11), so the limit is lifted for this run only
    digits = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    if digits is not None:
        sys.set_int_max_str_digits(0)
    try:
        args = build_parser().parse_args(argv)
        if args.command == "selftest":
            return _run_selftest(args, out)
        handler = {
            "gfc": _run_gfc,
            "paths": _run_paths,
            "polyomino": _run_polyomino,
            "cone-verify": _run_cone_verify,
            "canonical": _run_canonical,
            "hilbert": _run_hilbert,
        }[args.command]
        doc = handler(args)
    except (CliError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SearchCapExceeded as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 2
    else:
        _emit(doc, args.format, out)
        return 0
    finally:
        if digits is not None:
            sys.set_int_max_str_digits(digits)


if __name__ == "__main__":
    sys.exit(main())
