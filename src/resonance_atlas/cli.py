"""Command-line front end.

Subcommands: ``density``, ``resonances``, ``count``, ``jensen``, ``family``,
``verify``.  A plain-text config file (``key = value`` lines, ``#`` comments)
supplies defaults that explicit flags override.  Exit codes: 0 success,
2 usage error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import ast
import functools
import inspect
import math
import operator
import os
import sys

import numpy as np

from . import counting, density, resonances
from .contour import jensen_suite
from .errors import NumericalError

USAGE_ERROR = 2
NUMERICAL_ERROR = 3


_ANGLE_OPS = {ast.Add: operator.add, ast.Sub: operator.sub,
              ast.Mult: operator.mul, ast.Div: operator.truediv}


def _angle_value(node) -> float:
    """Value of a parsed angle: numbers, pi, unary minus and + - * /."""
    if isinstance(node, ast.Constant) and type(node.value) in (int, float):
        return float(node.value)
    if isinstance(node, ast.Name) and node.id == "pi":
        return math.pi
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        return -_angle_value(node.operand)
    if isinstance(node, ast.BinOp) and type(node.op) in _ANGLE_OPS:
        return _ANGLE_OPS[type(node.op)](_angle_value(node.left),
                                         _angle_value(node.right))
    raise ValueError("only numbers, pi, unary minus and + - * / are allowed")


def _parse_angle(text: str) -> float:
    """Angles accept plain radians or expressions in pi: '1.5*pi', 'pi+pi/4'."""
    try:
        return _angle_value(ast.parse(text.strip(), mode="eval").body)
    except (SyntaxError, ValueError, ZeroDivisionError, RecursionError) as exc:
        raise argparse.ArgumentTypeError(f"cannot parse angle {text!r}") from exc


def _parse_sector(text: str):
    parts = text.split(":")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(
            f"sector must look like PHI:THETA, got {text!r}")
    return _parse_angle(parts[0]), _parse_angle(parts[1])


def _radius(text: str) -> float:
    """A count radius: a positive finite float."""
    try:
        return counting.check_radius(float(text))
    except ValueError as exc:  # argparse shows an ArgumentTypeError's message
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _threads(text: str) -> int:
    """A worker count: an integer >= 1."""
    if not (text.strip().isdecimal() and int(text) >= 1):
        raise argparse.ArgumentTypeError(f"worker count must be an integer >= 1, got {text!r}")
    return int(text)


def _default_threads() -> int:
    """The worker count RESONANCE_ATLAS_THREADS sets (``_threads``), or 1
    while it is unset or empty."""
    env = os.environ.get("RESONANCE_ATLAS_THREADS")
    return _threads(env) if env else 1


def _comma_separated(cast):
    """Argument type: a non-empty comma-separated list of ``cast`` values."""
    def parse(text: str) -> list:
        values = [cast(x) for x in text.split(",") if x.strip()]
        if not values:
            raise ValueError(text)
        return values
    parse.__name__ = f"comma-separated {cast.__name__.lstrip('_')}"  # argparse's error names it
    return parse


class _Repeatable(argparse.Action):
    """Repeatable option whose flags replace its default list (config: 'a; b')."""

    def __call__(self, parser, namespace, value, option_string=None):
        got = getattr(namespace, self.dest)  # the default itself until a flag
        setattr(namespace, self.dest,
                [value] if got is self.default else got + [value])


def _read_config(path: str) -> dict:
    values: dict[str, str] = {}
    with open(path) as f:
        for line_no, raw in enumerate(f, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{line_no}: expected 'key = value'")
            key, _, val = line.partition("=")
            values[key.strip().replace("-", "_")] = val.strip()
    return values


def _set_config_defaults(parser: argparse.ArgumentParser, args) -> None:
    """Make each ``--config`` key that names an option of ``args.command`` its
    default, parsed as that option's flag; one file serves every command."""
    try:
        raw = _read_config(args.config)
    except (OSError, ValueError) as exc:
        parser.error(str(exc))
    sub = next(a for a in parser._actions
               if isinstance(a, argparse._SubParsersAction)).choices[args.command]
    options = {a.dest: a for a in sub._actions if a.option_strings and a.nargs != 0}
    keys = [key for key in raw if key in options]
    tokens = []
    for key in keys:
        items = ([s for s in raw[key].split(";") if s.strip()]
                 if isinstance(options[key], _Repeatable) else [raw[key]])
        tokens += [f"{options[key].option_strings[0]}={item.strip()}" for item in items]
    given = sub.parse_args(tokens)
    sub.set_defaults(**{key: getattr(given, key) for key in keys})


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="resonance-atlas",
        description="Resonance densities, step-well resonances, and counting checks")
    parser.add_argument("--config", help="key = value config file")
    sub = parser.add_subparsers(dest="command", required=True)
    threads = _default_threads()

    p = sub.add_parser("density", help="emit an angular-density table")
    p.set_defaults(run=_cmd_density)
    p.add_argument("--d", type=int, default=3)
    p.add_argument("--grid", type=int, default=181, help="number of theta rows")
    p.add_argument("--abs-tol", type=float, default=1e-9)
    p.add_argument("--rel-tol", type=float, default=1e-9)
    p.add_argument("--out")
    p.add_argument("--format", choices=["csv", "json"])

    p = sub.add_parser("resonances", help="solve a step potential")
    p.set_defaults(run=_cmd_resonances)
    p.add_argument("--a", type=float, default=1.0)
    p.add_argument("--v0-re", type=float, default=0.0)
    p.add_argument("--v0-im", type=float, default=0.0)
    p.add_argument("--radius", type=float, help="search radius R")
    p.add_argument("--threads", type=_threads, default=threads)
    p.add_argument("--out")
    p.add_argument("--format", choices=["csv", "json"])

    p = sub.add_parser("count", help="counting report from a resonance file")
    p.set_defaults(run=_cmd_count)
    p.add_argument("--in", dest="infile", help="resonance JSON file")
    p.add_argument("--r-grid", type=_comma_separated(_radius),
                   help="comma-separated radii")
    p.add_argument("--sector", action=_Repeatable, type=_parse_sector,
                   default=[(math.pi, 2.0 * math.pi)],
                   help="PHI:THETA (radians; pi expressions ok); repeatable")
    p.add_argument("--out")
    p.add_argument("--format", choices=["csv", "json"])

    suite = inspect.signature(jensen_suite).parameters
    p = sub.add_parser("jensen", help="run the Jensen-identity residual suite")
    p.set_defaults(run=_cmd_jensen)
    p.add_argument("--cases", type=int, default=suite["cases"].default,
                   help="randomized cases")
    p.add_argument("--seed", type=int, default=suite["seed"].default)

    p = sub.add_parser("family", help="averaged counting over a potential family")
    p.set_defaults(run=_cmd_family)
    p.add_argument("--a", type=float, default=1.0)
    p.add_argument("--v0-re", type=float, default=-20.0)
    p.add_argument("--v0-im", type=float, default=0.0)
    p.add_argument("--v1-re", type=float, default=-12.0)
    p.add_argument("--v1-im", type=float, default=3.0)
    p.add_argument("--r", type=float)
    p.add_argument("--grid-n", type=int, default=5)
    p.add_argument("--bump-radius", type=float, default=0.5)
    p.add_argument("--sector", action=_Repeatable, type=_parse_sector,
                   default=[(math.pi, 2.0 * math.pi), (math.pi, 1.5 * math.pi)])
    p.add_argument("--threads", type=_threads, default=threads)
    p.add_argument("--out")

    p = sub.add_parser("verify", help="run the acceptance suite")
    p.set_defaults(run=_cmd_verify)
    p.add_argument("--threads", type=_threads, default=threads)
    p.add_argument("--only", type=_comma_separated(int),
                   help="comma-separated criterion numbers to run")
    return parser


def _write(args, to_csv, to_json) -> None:
    """Write --out as --format, by default json for a .json name, else csv."""
    fmt = args.format or ("json" if args.out.endswith(".json") else "csv")
    (to_json if fmt == "json" else to_csv)(args.out)


def _cmd_density(args, parser) -> int:
    if args.d < 3 or args.d % 2 == 0:
        parser.error(f"--d must be an odd integer >= 3, got {args.d}")
    if args.out is None:
        parser.error("density requires --out")
    spec = density.QuadratureSpec(abs_tol=args.abs_tol, rel_tol=args.rel_tol)
    table = density.build_density_table(args.d, args.grid, spec)
    _write(args, table.to_csv, table.to_json)
    print(f"wrote {args.grid} rows (d={args.d}, c_d={table.c_d:.12g}) to {args.out}")
    return 0


def _cmd_resonances(args, parser) -> int:
    if args.radius is None or args.radius <= 0:
        parser.error("resonances requires a positive --radius")
    if args.out is None:
        parser.error("resonances requires --out")
    pot = resonances.RadialStepPotential(a=args.a, v0=complex(args.v0_re, args.v0_im))
    rset = resonances.find_resonances(pot, args.radius, threads=args.threads)
    _write(args, rset.to_csv, rset.to_json)
    print(f"found {len(rset.resonances)} resonances (ell_max={rset.ell_max}) "
          f"in |lambda| <= {args.radius}; wrote {args.out}")
    return 0


def _cmd_count(args, parser) -> int:
    if args.infile is None:
        parser.error("count requires --in (a resonance JSON file)")
    rset = resonances.ResonanceSet.from_json(args.infile)
    top = rset.search_radius
    r_grid = args.r_grid or list(np.linspace(top / 4.0, top, 7))
    queries = [counting.SectorQuery(max(r_grid), phi, theta)
               for (phi, theta) in args.sector]
    reports = counting.compare_counts(rset, queries, r_grid)
    if args.out:
        _write(args, functools.partial(counting.reports_to_csv, reports),
               functools.partial(counting.reports_to_json, reports))
    for rep in reports:
        fit = ("" if rep.fit is None
               else f" fit: r^{rep.fit[0]:.3f} x {rep.fit[1]:.4g}")
        print(f"sector ({rep.query.phi:.4f}, {rep.query.theta:.4f}) r={rep.query.r:g}: "
              f"empirical={rep.empirical} predicted={rep.predicted:.2f} "
              f"ratio={rep.ratio:.4f}{fit} {' '.join(rep.flags)}")
    return 0


def _cmd_jensen(args, _parser) -> int:
    listed, sectors, randomized = jensen_suite(args.cases, args.seed)
    failures = 0
    for name, res, lhs in listed:
        ok = res < 1e-6
        failures += not ok
        print(f"{'PASS' if ok else 'FAIL'} jensen {name}: residual={res:.3e} "
              f"(analytic LHS {lhs:.6f})")
    for name, res in sectors:
        ok = res < 1e-6
        failures += not ok
        print(f"{'PASS' if ok else 'FAIL'} sector {name}: residual={res:.3e}")
    worst = max(randomized, default=0.0)
    ok = worst < 1e-6
    failures += not ok
    print(f"{'PASS' if ok else 'FAIL'} jensen randomized x{len(randomized)}: "
          f"worst={worst:.3e}")
    return 0 if failures == 0 else NUMERICAL_ERROR


def _cmd_family(args, parser) -> int:
    if args.r is None or args.r <= 0:
        parser.error("family requires a positive --r")
    exp = counting.FamilyExperiment.on_bump_grid(
        resonances.RadialStepPotential(a=args.a, v0=complex(args.v0_re, args.v0_im)),
        resonances.RadialStepPotential(a=args.a, v0=complex(args.v1_re, args.v1_im)),
        r=args.r, n=args.grid_n, bump_radius=args.bump_radius)
    queries = [counting.SectorQuery(args.r, phi, theta) for (phi, theta) in args.sector]
    print(f"solving {len(exp.active_indices())} of {exp.zs.size} members "
          f"(threads={args.threads})...")
    exp.solve(threads=args.threads)
    for q in queries:
        avg = counting.family_average(exp, q)
        pred = counting.family_prediction(exp, q)
        print(f"sector ({q.phi:.4f}, {q.theta:.4f}): average={avg:.4f} "
              f"prediction={pred:.4f} ratio={avg / pred:.4f}")
    if args.out:
        exp.to_json(args.out, sector_queries=queries)
        print(f"wrote {args.out}")
    return 0


def _cmd_verify(args, parser) -> int:
    from .acceptance import CRITERIA, run_acceptance

    if args.only:
        unknown = sorted(set(args.only) - set(range(1, len(CRITERIA) + 1)))
        if unknown:
            parser.error(f"--only: no criterion {unknown}; the criteria are 1-{len(CRITERIA)}")
    results = run_acceptance(threads=args.threads, only=args.only)
    return 0 if all(r.passed for r in results) else NUMERICAL_ERROR


def main(argv=None) -> int:
    try:
        parser = build_parser()
    except argparse.ArgumentTypeError as exc:  # from _default_threads
        print(f"resonance-atlas: error: RESONANCE_ATLAS_THREADS: {exc}", file=sys.stderr)
        return USAGE_ERROR
    args = parser.parse_args(argv)
    if args.config:
        _set_config_defaults(parser, args)
        args = parser.parse_args(argv)
    try:
        return args.run(args, parser)
    except NumericalError as exc:
        print(f"numerical failure in {args.command}: {exc}", file=sys.stderr)
        return NUMERICAL_ERROR
    except ValueError as exc:
        print(f"invalid value: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
