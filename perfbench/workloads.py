"""The benchmark's workloads.

A workload is a fixed list of operations, each tagged with the stage it is
timed in: ``solve`` (resonance solves), ``density`` (the density-layer
predictions a count is compared with) and ``det`` (ln|det S| evaluations).
A round times each stage's operations in a number of passes; ``prepare``
runs, untimed, before every pass and empties the program's caches, so every
pass does the same work.  The short density and det passes are repeated so
that their medians rest on seconds of measurement, as the solve's does.
The checks run once, after the timed rounds, on the first pass's outputs.

The seed chooses what the checks sample (resonances, channels, a family
member, table rows); the timed inputs are the paper's fixed problems, so
that runs with different seeds time the same work.
"""

from __future__ import annotations

import cmath
import math
import random
from dataclasses import dataclass
from typing import Callable

from resonance_atlas import counting as ct
from resonance_atlas import density as dn
from resonance_atlas import resonances as rs

A = 1.0
V_REF = -20.0
V_FAMILY_END = complex(-12.0, 3.0)
V_NEAR_FREE = -1e-12
PI = math.pi
# the three sectors of the sector-asymptotics criterion
SECTORS = [(PI + PI / 6, PI + PI / 3), (PI, PI + PI / 4), (PI + 3 * PI / 4, 2 * PI)]
# ln|det S| = 0 on the real axis for a real well
UNITARITY_TOL = 1e-8
# slack of r^-3 ln|det S(r e^(i theta))| <= h_3(theta), for r >= 20
GROWTH_SLACK = 0.05
GROWTH_MIN_R = 20.0


STAGES = ("solve", "density", "det")


def _empty_caches(stage: str = "") -> None:
    del stage
    dn._cd_cache.clear()


@dataclass
class Workload:
    ops: list                       # (stage, label, thunk)
    passes: dict                    # stage -> timed passes per round
    check: Callable[[dict], list]   # outputs -> [(name, passed, detail)]
    solved: Callable[[dict], list]  # outputs -> resonance sets of one solve pass
    prepare: Callable[[str], None] = _empty_caches  # before each pass
    pool_workers: int = 0
    # stages reported in raw seconds: the calibration kernel around a pass
    # follows the machine's speed through it only when the pass is short
    # (a few seconds) and runs in this process
    raw_stages: tuple = ()


def _pairs(rset):
    return [(r.ell, r.lam) for r in rset.resonances]


def _prediction_ops(r: float):
    ops = [("density", "predict_total", lambda: ct.predict_total(3, A, r))]
    for i, (phi, theta) in enumerate(SECTORS):
        q = ct.SectorQuery(r, phi, theta)
        ops.append(("density", f"predict_sector_{i}",
                    lambda q=q: ct.predict_sector(3, A, q)))
    # the constant the predictions rest on, in its independent 2-D form at a
    # tolerance that costs a fifth of a second
    ops.append(("density", "weyl_2d_coarse",
                lambda: dn.weyl_constant_2d(3, abs_tol=1e-3)))
    return ops


def _prediction_checks(out, r: float):
    c1 = out["predict_total"] / (A * r) ** 3
    c2 = out["weyl_2d_coarse"]
    sectors = [out[f"predict_sector_{i}"] for i in range(len(SECTORS))]
    return [
        ("weyl_1d_vs_2d_coarse", abs(c1 - c2) <= 1e-3,
         f"c3 = {c1:.9f} (1-D) vs {c2:.9f} (2-D at 1e-3)"),
        ("sector_predictions_inside_total",
         all(0 < s < out["predict_total"] for s in sectors),
         f"sectors {[round(s, 3) for s in sectors]} of {out['predict_total']:.3f}"),
    ]


def _det_points(r: float, radii, n_angles: int, reals):
    upper = [rho * cmath.exp(1j * PI * k / (n_angles + 1))
             for rho in radii for k in range(1, n_angles + 1)]
    return upper + [complex(s * x, 0.0) for x in reals for s in (1, -1)]


# timed passes per round of the solve workloads
SOLVE_PASSES = {"solve": 1, "density": 4, "det": 10}
# ln|det S| points of the solve workloads, up to |lambda| = 20
SOLVE_DET_POINTS = _det_points(20.0, (5.0, 10.0, 15.0, 20.0), 5, (3.0, 7.5, 18.0))


def _det_ops(pot, points, tag: str = "det"):
    return [("det", f"{tag} {lam:.6g}",
             lambda lam=lam: rs.scattering_log_det(pot, lam)) for lam in points]


def _det_checks(out, points):
    """Unitarity on the real axis (all det stages are of real wells) and the
    growth bound above it."""
    worst_real = 0.0
    worst_margin = -math.inf
    for lam in points:
        v = out[f"det {lam:.6g}"]
        if lam.imag == 0.0:
            worst_real = max(worst_real, abs(v))
        elif abs(lam) >= GROWTH_MIN_R:
            theta = cmath.phase(lam)
            margin = v / abs(lam) ** 3 - dn.angular_density_d3_closed(theta)
            worst_margin = max(worst_margin, margin)
    return [("det_growth_bound", worst_margin <= GROWTH_SLACK,
             f"max r^-3 ln|det S| - h3 = {worst_margin:+.4f} (slack {GROWTH_SLACK})"),
            ("det_unitarity", worst_real <= UNITARITY_TOL,
             f"max |ln|det S(x)|| = {worst_real:.2e} (tol {UNITARITY_TOL:g})")]


def _zero_checks(rset, rng: random.Random, n: int, tag: str = "zeros"):
    """mpmath zero check on a seeded sample of distinct resonances."""
    from perfbench import oracle

    distinct = sorted(set(_pairs(rset)), key=lambda p: (p[0], p[1].real, p[1].imag))
    sample = rng.sample(distinct, min(n, len(distinct)))
    pot = rset.potential
    results = [oracle.zero_check(ell, pot.a, pot.v0, lam) for ell, lam in sample]
    bad = [d for ok, d in results if not ok]
    detail = (f"{len(sample)} of {len(distinct)} resonances are zeros of W_ell "
              f"(mpmath, {oracle.DPS} digits)")
    return [(tag, not bad and bool(sample), "; ".join(bad[:2]) if bad else detail)]


def reference_well(seed: int, R: float = 8.0) -> Workload:
    pot = rs.RadialStepPotential(A, V_REF)
    points = SOLVE_DET_POINTS
    ops = ([("solve", "solve", lambda: rs.find_resonances(pot, R))]
           + _prediction_ops(R) + _det_ops(pot, points))
    rng = random.Random(seed)

    def check(out):
        from perfbench import oracle

        rset = out["solve"]
        checks = _zero_checks(rset, rng, 16)
        checks.append(("reflection", *oracle.reflection_check(_pairs(rset))))
        for ell in sorted(rng.sample(range(rset.ell_max + 1), 2)):
            reported = sum(1 for r in rset.resonances if r.ell == ell)
            try:
                counted = oracle.argument_principle_count(
                    ell, A, V_REF, R, rset.tolerances["delta_axis"] / 2)
            except RuntimeError as exc:
                checks.append((f"argument_principle_ell{ell}", False, str(exc)))
                continue
            checks.append((f"argument_principle_ell{ell}", counted == reported,
                           f"mpmath winding {counted}, reported {reported}"))
        return checks + _prediction_checks(out, R) + _det_checks(out, points)

    return Workload(ops, dict(SOLVE_PASSES, solve=3), check,
                    lambda out: [out["solve"]])


def weak_wells(seed: int) -> Workload:
    R_free, R_near = 40.0, 20.0
    free = rs.RadialStepPotential(A, 0.0)
    near = rs.RadialStepPotential(A, V_NEAR_FREE)
    points = SOLVE_DET_POINTS
    ops = ([("solve", "solve_free", lambda: rs.find_resonances(free, R_free)),
            ("solve", "solve_near_free", lambda: rs.find_resonances(near, R_near))]
           + _prediction_ops(R_near) + _det_ops(near, points)
           + _det_ops(free, points, "det_free"))
    rng = random.Random(seed)

    def check(out):
        from perfbench import oracle

        rset = out["solve_near_free"]
        checks = [("free_empty", *oracle.empty_check(_pairs(out["solve_free"])))]
        checks += _zero_checks(rset, rng, 16)
        checks.append(("reflection", *oracle.reflection_check(_pairs(rset))))
        free_dets = [out[f"det_free {lam:.6g}"] for lam in points]
        checks.append(("free_det_zero", all(v == 0.0 for v in free_dets),
                       f"ln|det S| of the free well at {len(points)} points"))
        return checks + _prediction_checks(out, R_near) + _det_checks(out, points)

    return Workload(ops, SOLVE_PASSES, check,
                    lambda out: [out["solve_free"], out["solve_near_free"]],
                    raw_stages=("solve",))


def complex_family(seed: int) -> Workload:
    r, n, workers = 6.0, 3, 2
    base = rs.RadialStepPotential(A, V_REF)
    other = rs.RadialStepPotential(A, V_FAMILY_END)
    state = {}
    queries = [ct.SectorQuery(r, PI, 2 * PI), ct.SectorQuery(r, PI, 1.5 * PI)]
    points = SOLVE_DET_POINTS

    def prepare(stage):
        _empty_caches()
        if stage == "solve":
            state["exp"] = ct.FamilyExperiment.on_bump_grid(base, other, r=r, n=n,
                                                            bump_radius=0.5)

    def solve():
        state["exp"].solve(threads=workers)
        return state["exp"]

    ops = [("solve", "solve", solve)]
    for i, q in enumerate(queries):
        ops.append(("density", f"family_{i}",
                    lambda q=q: (ct.family_average(state["exp"], q),
                                 ct.family_prediction(state["exp"], q))))
    ops.append(("density", "weyl_2d_coarse",
                lambda: dn.weyl_constant_2d(3, abs_tol=1e-3)))
    ops += _det_ops(base, points)
    rng = random.Random(seed)

    def check(out):
        from perfbench import oracle

        exp = out["solve"]
        active = exp.active_indices()
        checks = [("members_solved", sorted(exp.sets) == active,
                   f"{len(exp.sets)} of {len(active)} active members")]
        member = rng.choice(active)
        rset = exp.sets[member]
        v0 = rset.potential.v0
        checks += _zero_checks(rset, rng, 8, f"zeros_member{member}")
        conj = rs.find_resonances(rs.RadialStepPotential(A, v0.conjugate()), r,
                                  threads=workers)
        checks.append((f"conjugation_member{member}",
                       *oracle.conjugation_check(_pairs(rset), _pairs(conj))))
        centre = [i for i in active if exp.zs[i] == 0]
        for i in centre:
            checks.append(("reflection_centre",
                           *oracle.reflection_check(_pairs(exp.sets[i]))))
        c1 = dn.weyl_constant(3)
        checks.append(("weyl_1d_vs_2d_coarse", abs(c1 - out["weyl_2d_coarse"]) <= 1e-3,
                       f"c3 = {c1:.9f} (1-D) vs {out['weyl_2d_coarse']:.9f} (2-D at 1e-3)"))
        avg, pred = out["family_0"]
        checks.append(("family_average_positive", avg > 0 and pred > 0,
                       f"average {avg:.3f}, prediction {pred:.3f}"))
        return checks + _det_checks(out, points)

    return Workload(ops, SOLVE_PASSES, check,
                    lambda out: [out["solve"].sets[i] for i in sorted(out["solve"].sets)],
                    prepare, pool_workers=workers, raw_stages=("solve",))


def asymptotics(seed: int) -> Workload:
    r, R_solve = 40.0, 6.0
    pot = rs.RadialStepPotential(A, V_REF)
    edges = [PI, PI + PI / 8, PI + 3 * PI / 8, PI + 5 * PI / 8, PI + 7 * PI / 8, 2 * PI]
    parts = [ct.SectorQuery(r, lo, hi) for lo, hi in zip(edges, edges[1:])]
    points = _det_points(r, (r / 4, r / 2, 3 * r / 4, r), 7,
                         (0.0625 * r, 0.125 * r, 0.25 * r, 0.5 * r, 0.875 * r))
    # a small solve so that solver changes show here too, at a known size
    ops = [("solve", "solve", lambda: rs.find_resonances(pot, R_solve)),
           ("density", "weyl_1d", lambda: dn.weyl_constant(3)),
           ("density", "weyl_2d", lambda: dn.weyl_constant_2d(3)),
           ("density", "table", lambda: dn.build_density_table(3, 181))]
    for i, q in enumerate(parts):
        ops.append(("density", f"part_{i}", lambda q=q: ct.predict_sector(3, A, q)))
    ops.append(("density", "predict_total", lambda: ct.predict_total(3, A, r)))
    ops += _det_ops(pot, points)
    rng = random.Random(seed)

    def check(out):
        from perfbench import oracle

        table = out["table"]
        inner = range(1, len(table.thetas) - 1)
        closed = max(abs(table.h[i] - dn.angular_density_d3_closed(float(table.thetas[i])))
                     for i in inner)
        checks = [("closed_form_vs_quadrature", closed <= 1e-6,
                   f"max |h - closed form| = {closed:.2e} over {len(inner)} rows")]
        rows = rng.sample(list(inner), 3)
        worst = max(abs(table.h[i] - oracle.density_quadrature(float(table.thetas[i])))
                    for i in rows)
        checks.append(("table_vs_mpmath", worst <= 1e-7,
                       f"max |h - mpmath quadrature| = {worst:.2e} at rows {sorted(rows)}"))
        c1, c2 = out["weyl_1d"], out["weyl_2d"]
        checks.append(("weyl_1d_vs_2d", abs(c1 - c2) <= 1e-5,
                       f"c3 = {c1:.9f} (1-D) vs {c2:.9f} (2-D), |diff| {abs(c1 - c2):.1e}"))
        hp_limit = dn.angular_density_deriv_at_zero(3)
        hp_near = dn.angular_density_deriv(3, 1e-3)
        checks.append(("h_prime_at_0", abs(hp_limit - 4 / 3) <= 1e-14
                       and abs(table.h_prime[0] - 4 / 3) <= 1e-14
                       and abs(hp_near - 4 / 3) <= 1e-2,
                       f"h'(0+) = {hp_limit!r}, table {table.h_prime[0]!r}, "
                       f"h'(1e-3) = {hp_near:.6f}"))
        total = out["predict_total"]
        summed = sum(out[f"part_{i}"] for i in range(len(parts)))
        checks.append(("partition_sums_to_total", abs(summed - total) <= 1e-9 * total,
                       f"sum of {len(parts)} sectors {summed:.12g} vs {total:.12g}"))
        rset = out["solve"]
        checks += _zero_checks(rset, rng, 8)
        checks.append(("reflection", *oracle.reflection_check(_pairs(rset))))
        return checks + _det_checks(out, points)

    return Workload(ops, {"solve": 3, "density": 3, "det": 8},
                    check, lambda out: [out["solve"]])


BUILDERS = {
    "reference_well": reference_well,
    "weak_wells": weak_wells,
    "complex_family": complex_family,
    "asymptotics": asymptotics,
}


def fingerprint(value):
    """A comparable form of an output, for the pass-to-pass identity check."""
    if isinstance(value, rs.ResonanceSet):
        return (value.ell_max, tuple((r.ell, r.lam) for r in value.resonances))
    if isinstance(value, ct.FamilyExperiment):
        return tuple((i, fingerprint(s)) for i, s in sorted(value.sets.items()))
    if isinstance(value, dn.DensityTable):
        return (tuple(value.h), tuple(value.h_prime), value.c_d)
    return value
