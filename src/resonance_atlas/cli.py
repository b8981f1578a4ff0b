"""Command-line front end.

Subcommands: ``density``, ``resonances``, ``count``, ``jensen``, ``family``,
``verify``.  A plain-text config file (``key = value`` lines, ``#`` comments)
supplies defaults that explicit flags override.  Exit codes: 0 success,
2 usage error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import ast
import json
import math
import operator
import os
import sys

import numpy as np

from . import counting, density, resonances
from .contour import jensen_suite
from .errors import NumericalError, QuadratureError

USAGE_ERROR = 2
NUMERICAL_ERROR = 3


def _default_threads() -> int:
    env = os.environ.get("RESONANCE_ATLAS_THREADS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            pass
    return 1


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


def _apply_config(args: argparse.Namespace, parser: argparse.ArgumentParser):
    """Fill unset argument slots from the config file, if one was given."""
    if not getattr(args, "config", None):
        return
    try:
        raw = _read_config(args.config)
    except (OSError, ValueError) as exc:
        parser.error(str(exc))
    casts = {
        "d": int, "grid": int, "threads": int, "grid_n": int, "cases": int,
        "seed": int,
        "a": float, "v0_re": float, "v0_im": float, "v1_re": float,
        "v1_im": float, "radius": float, "r": float, "bump_radius": float,
        "abs_tol": float, "rel_tol": float,
        "out": str, "format": str, "infile": str,
        "r_grid": str, "sector": None,
    }
    for key, text in raw.items():
        if not hasattr(args, key):
            continue
        if getattr(args, key) is not None:
            continue  # flags override config
        cast = casts.get(key, str)
        if key == "sector":
            setattr(args, key, [_parse_sector(s) for s in text.split(";") if s.strip()])
        elif cast is not None:
            try:
                setattr(args, key, cast(text))
            except ValueError:
                parser.error(f"config value for {key} is not a valid {cast.__name__}")


def _resolve(args, name, default):
    v = getattr(args, name, None)
    return default if v is None else v


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="resonance-atlas",
        description="Resonance densities, step-well resonances, and counting checks")
    parser.add_argument("--config", help="key = value config file")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("density", help="emit an angular-density table")
    p.add_argument("--d", type=int, default=None)
    p.add_argument("--grid", type=int, default=None, help="number of theta rows")
    p.add_argument("--abs-tol", dest="abs_tol", type=float, default=None)
    p.add_argument("--rel-tol", dest="rel_tol", type=float, default=None)
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=["csv", "json"], default=None)

    p = sub.add_parser("resonances", help="solve a step potential")
    p.add_argument("--a", type=float, default=None)
    p.add_argument("--v0-re", dest="v0_re", type=float, default=None)
    p.add_argument("--v0-im", dest="v0_im", type=float, default=None)
    p.add_argument("--radius", type=float, default=None, help="search radius R")
    p.add_argument("--threads", type=int, default=None)
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=["csv", "json"], default=None)

    p = sub.add_parser("count", help="counting report from a resonance file")
    p.add_argument("--in", dest="infile", default=None, help="resonance JSON file")
    p.add_argument("--r-grid", dest="r_grid", default=None,
                   help="comma-separated radii")
    p.add_argument("--sector", action="append", type=_parse_sector, default=None,
                   help="PHI:THETA (radians; pi expressions ok); repeatable")
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=["csv", "json"], default=None)

    p = sub.add_parser("jensen", help="run the Jensen-identity residual suite")
    p.add_argument("--cases", type=int, default=None, help="randomized cases")
    p.add_argument("--seed", type=int, default=None)

    p = sub.add_parser("family", help="averaged counting over a potential family")
    p.add_argument("--a", type=float, default=None)
    p.add_argument("--v0-re", dest="v0_re", type=float, default=None)
    p.add_argument("--v0-im", dest="v0_im", type=float, default=None)
    p.add_argument("--v1-re", dest="v1_re", type=float, default=None)
    p.add_argument("--v1-im", dest="v1_im", type=float, default=None)
    p.add_argument("--r", type=float, default=None)
    p.add_argument("--grid-n", dest="grid_n", type=int, default=None)
    p.add_argument("--bump-radius", dest="bump_radius", type=float, default=None)
    p.add_argument("--sector", action="append", type=_parse_sector, default=None)
    p.add_argument("--threads", type=int, default=None)
    p.add_argument("--out", default=None)

    p = sub.add_parser("verify", help="run the acceptance suite")
    p.add_argument("--threads", type=int, default=None)
    p.add_argument("--only", default=None,
                   help="comma-separated criterion numbers to run")
    return parser


def _cmd_density(args, parser) -> int:
    d = _resolve(args, "d", 3)
    if d < 3 or d % 2 == 0:
        parser.error(f"--d must be an odd integer >= 3, got {d}")
    n = _resolve(args, "grid", 181)
    out = _resolve(args, "out", None)
    if out is None:
        parser.error("density requires --out")
    fmt = _resolve(args, "format", "json" if str(out).endswith(".json") else "csv")
    spec = density.QuadratureSpec(abs_tol=_resolve(args, "abs_tol", 1e-9),
                                  rel_tol=_resolve(args, "rel_tol", 1e-9))
    table = density.build_density_table(d, n, spec)
    if fmt == "csv":
        table.to_csv(out)
    else:
        table.to_json(out)
    print(f"wrote {n} rows (d={d}, c_d={table.c_d:.12g}) to {out}")
    return 0


def _cmd_resonances(args, parser) -> int:
    a = _resolve(args, "a", 1.0)
    v0 = complex(_resolve(args, "v0_re", 0.0), _resolve(args, "v0_im", 0.0))
    radius = _resolve(args, "radius", None)
    if radius is None or radius <= 0:
        parser.error("resonances requires a positive --radius")
    out = _resolve(args, "out", None)
    if out is None:
        parser.error("resonances requires --out")
    fmt = _resolve(args, "format", "json" if str(out).endswith(".json") else "csv")
    threads = _resolve(args, "threads", _default_threads())
    pot = resonances.RadialStepPotential(a=a, v0=v0)
    rset = resonances.find_resonances(pot, radius, threads=threads)
    if fmt == "csv":
        rset.to_csv(out)
    else:
        rset.to_json(out)
    print(f"found {len(rset.resonances)} resonances (ell_max={rset.ell_max}) "
          f"in |lambda| <= {radius}; wrote {out}")
    return 0


def _cmd_count(args, parser) -> int:
    infile = _resolve(args, "infile", None)
    if infile is None:
        parser.error("count requires --in (a resonance JSON file)")
    rset = resonances.ResonanceSet.from_json(infile)
    grid_text = _resolve(args, "r_grid", None)
    if grid_text:
        r_grid = [float(x) for x in str(grid_text).split(",") if x.strip()]
    else:
        top = rset.search_radius
        r_grid = list(np.linspace(top / 4.0, top, 7))
    sectors = _resolve(args, "sector", None) or [(math.pi, 2.0 * math.pi)]
    queries = [counting.SectorQuery(max(r_grid), phi, theta)
               for (phi, theta) in sectors]
    reports = counting.compare_counts(rset, queries, r_grid)
    out = _resolve(args, "out", None)
    fmt = _resolve(args, "format",
                   "json" if out and str(out).endswith(".json") else "csv")
    if out:
        if fmt == "json":
            counting.reports_to_json(reports, out)
        else:
            counting.reports_to_csv(reports, out)
    for rep in reports:
        fit = ("" if rep.fit is None
               else f" fit: r^{rep.fit[0]:.3f} x {rep.fit[1]:.4g}")
        print(f"sector ({rep.query.phi:.4f}, {rep.query.theta:.4f}) r={rep.query.r:g}: "
              f"empirical={rep.empirical} predicted={rep.predicted:.2f} "
              f"ratio={rep.ratio:.4f}{fit} {' '.join(rep.flags)}")
    return 0


def _cmd_jensen(args, parser) -> int:
    del parser
    given = {key: getattr(args, key) for key in ("cases", "seed")
             if getattr(args, key) is not None}
    listed, sectors, randomized = jensen_suite(**given)
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
    a = _resolve(args, "a", 1.0)
    v0 = complex(_resolve(args, "v0_re", -20.0), _resolve(args, "v0_im", 0.0))
    v1 = complex(_resolve(args, "v1_re", -12.0), _resolve(args, "v1_im", 3.0))
    r = _resolve(args, "r", None)
    if r is None or r <= 0:
        parser.error("family requires a positive --r")
    n = _resolve(args, "grid_n", 5)
    b = _resolve(args, "bump_radius", 0.5)
    threads = _resolve(args, "threads", _default_threads())
    sectors = _resolve(args, "sector", None) or [
        (math.pi, 2.0 * math.pi), (math.pi, 1.5 * math.pi)]
    exp = counting.FamilyExperiment.on_bump_grid(
        resonances.RadialStepPotential(a=a, v0=v0),
        resonances.RadialStepPotential(a=a, v0=v1), r=r, n=n, bump_radius=b)
    print(f"solving {len(exp.active_indices())} of {exp.zs.size} members "
          f"(threads={threads})...")
    exp.solve(threads=threads)
    queries = [counting.SectorQuery(r, phi, theta) for (phi, theta) in sectors]
    for q in queries:
        avg = counting.family_average(exp, q)
        pred = counting.family_prediction(exp, q)
        print(f"sector ({q.phi:.4f}, {q.theta:.4f}): average={avg:.4f} "
              f"prediction={pred:.4f} ratio={avg / pred:.4f}")
    out = _resolve(args, "out", None)
    if out:
        exp.to_json(out, sector_queries=queries)
        print(f"wrote {out}")
    return 0


def _cmd_verify(args, parser) -> int:
    from .acceptance import CRITERIA, run_acceptance

    threads = _resolve(args, "threads", _default_threads())
    only_text = _resolve(args, "only", None)
    only = None
    if only_text:
        only = {int(x) for x in str(only_text).split(",") if x.strip()}
        unknown = sorted(only - set(range(1, len(CRITERIA) + 1)))
        if unknown:
            parser.error(f"--only: no criterion {unknown}; the criteria are 1-{len(CRITERIA)}")
    results = run_acceptance(threads=threads, only=only)
    return 0 if all(r.passed for r in results) else NUMERICAL_ERROR


_COMMANDS = {
    "density": _cmd_density,
    "resonances": _cmd_resonances,
    "count": _cmd_count,
    "jensen": _cmd_jensen,
    "family": _cmd_family,
    "verify": _cmd_verify,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    _apply_config(args, parser)
    try:
        return _COMMANDS[args.command](args, parser)
    except (QuadratureError, NumericalError) as exc:
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
