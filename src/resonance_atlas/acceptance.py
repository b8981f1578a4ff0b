"""Acceptance suite: every criterion with its pinned tolerance.

Each criterion is a function ``ctx -> (passed, detail)`` of a shared
AcceptanceContext, which caches the expensive artifacts: the reference
resonance set and the family experiment.  The ``CRITERIA`` table holds one
``(name, criterion, budget)`` row per criterion, numbered from 1; a budget
maps the worker count to seconds, or is None.  ``run_criterion(index, ctx)``
is the one runner: it times the criterion, fails it past its budget, turns a
NumericalError it raises into a failure naming the exception, and returns the
CriterionResult.  ``run_acceptance`` runs the criteria in order through it and
prints one PASS/FAIL line each; the CLI ``verify`` subcommand and the pytest
acceptance module both drive this code.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import counting as ct
from . import density as dn
from . import resonances as rs
from .contour import ContourBox, jensen_suite, locate_zeros, winding_count
from .errors import NumericalError

__all__ = ["CriterionResult", "AcceptanceContext", "run_acceptance",
           "run_criterion", "CRITERIA"]

# radii of the reference set's total-count checks (criteria 7 and 11)
RADIUS_GRID = [10.0, 15.0, 20.0, 25.0, 30.0, 35.0, 40.0]


@dataclass
class CriterionResult:
    index: int
    name: str
    passed: bool
    detail: str
    seconds: float


@dataclass
class AcceptanceContext:
    threads: int = 1
    _cache: dict = field(default_factory=dict)

    @property
    def reference_potential(self) -> rs.RadialStepPotential:
        return rs.RadialStepPotential(a=1.0, v0=-20.0)

    def reference_set(self) -> rs.ResonanceSet:
        if "rset40" not in self._cache:
            self._cache["rset40"] = rs.find_resonances(
                self.reference_potential, 40.0, threads=self.threads)
        return self._cache["rset40"]

    def family(self) -> ct.FamilyExperiment:
        if "family" not in self._cache:
            exp = ct.FamilyExperiment.on_bump_grid(
                self.reference_potential,
                rs.RadialStepPotential(a=1.0, v0=complex(-12.0, 3.0)),
                r=25.0, n=5, bump_radius=0.5)
            exp.solve(threads=self.threads)
            self._cache["family"] = exp
        return self._cache["family"]


# --- criterion implementations ---------------------------------------------

def criterion_1(ctx: AcceptanceContext):
    """d=3 closed form vs quadrature on 50 angles, <= 1e-6."""
    del ctx
    thetas = np.linspace(0.05, math.pi - 0.05, 50)
    quad = dn._radial_integral(3, thetas, dn.DEFAULT_QUAD, "angular_density",
                               dn._minus_re_phase)  # the rows of angular_density(3, .)
    worst = float(np.max(abs(quad - dn.angular_density_d3_closed(thetas))))
    return worst <= 1e-6, f"max |quad - closed| = {worst:.3e} (tol 1e-6)"


def criterion_2(ctx: AcceptanceContext):
    """Density-table invariants at 1e-8."""
    del ctx
    table = dn.build_density_table(3, 81)
    errs = {
        "h(0)": abs(table.h[0]),
        "h(pi)": abs(table.h[-1]),
        "symmetry": float(np.max(np.abs(table.h - table.h[::-1]))),
        "h'(pi/2)": abs(table.h_prime[40]),
    }
    table.validate()
    detail = ", ".join(f"{k}={v:.2e}" for k, v in errs.items())
    return max(errs.values()) <= 1e-8, detail + " (tol 1e-8)"


def criterion_3(ctx: AcceptanceContext):
    """Derivative limit: quadrature at 1e-3 vs 4/3, and the integral form
    of the closed form for d in {3, 5, 7}."""
    del ctx
    near = abs(dn.angular_density_deriv(3, 1e-3) - 4.0 / 3.0)
    forms = {}
    for d in (3, 5, 7):
        # the integral of sqrt(t^2 - 1) t^-(d+1) over [1, inf), with t = 1/s
        integral = dn._integrate(lambda s, rows: s ** (d - 2) * np.sqrt(1.0 - s * s),
                                 0.0, 1.0, f"integral form (d={d})", 1e-12, 1e-12)
        forms[d] = abs(4.0 / math.factorial(d - 2) * integral
                       - dn.angular_density_deriv_at_zero(d))
    passed = near <= 1e-2 and all(v <= 1e-8 for v in forms.values())
    return passed, (f"|h'(1e-3) - 4/3| = {near:.3e} (tol 1e-2); integral-vs-Gamma "
                    + ", ".join(f"d={d}: {v:.2e}" for d, v in forms.items())
                    + " (tol 1e-8)")


def criterion_4(ctx: AcceptanceContext):
    """One- and two-dimensional Weyl-constant evaluations agree to 1e-5."""
    del ctx
    c1 = dn.weyl_constant(3)
    c2 = dn.weyl_constant_2d(3)
    return (abs(c1 - c2) <= 1e-5 and c1 > 0,
            f"c3(1d) = {c1:.9f}, c3(2d) = {c2:.9f}, |diff| = {abs(c1 - c2):.2e} (tol 1e-5)")


def criterion_5(ctx: AcceptanceContext):
    """Jensen identities: listed plus 20 randomized cases < 1e-6."""
    del ctx
    listed, sectors, randomized = jensen_suite()
    worst = max([res for _, res, _ in listed] + randomized)
    worst_sec = max(res for _, res in sectors)
    return (worst < 1e-6 and worst_sec < 1e-6,
            f"worst full residual = {worst:.3e}, worst sector "
            f"residual = {worst_sec:.3e} (tol 1e-6)")


def _mirror_miss(rset: rs.ResonanceSet, conj: rs.ResonanceSet) -> float:
    """The largest distance from -conj(lambda), lambda a resonance of
    ``rset``, to the nearest resonance of ``conj`` in its channel (inf when
    that channel of ``conj`` is empty)."""
    by_ell = {}
    for r in conj.resonances:
        by_ell.setdefault(r.ell, []).append(r.lam)
    return max((min((abs(-r.lam.conjugate() - lam) for lam in by_ell.get(r.ell, [])),
                    default=math.inf) for r in rset.resonances), default=0.0)


def criterion_6(ctx: AcceptanceContext):
    """Solver soundness: free emptiness, conjugation and dilation symmetry,
    polynomial fixtures.

    Two seeded complex wells and their conj(v0) twins are each solved on
    their own full frame: the two sets must have equal counts, and each
    resonance lambda of v0 must have -conj(lambda) among the resonances of
    conj(v0) in its channel, within 1e-8.  (A real well is solved on half
    its frame and mirrored, so its set is symmetric by construction.)"""
    issues, notes = [], []
    free = rs.RadialStepPotential(a=1.0, v0=0.0)
    for R in (10.0, 40.0):
        n = len(rs.find_resonances(free, R).resonances)
        if n:
            issues.append(f"free potential has {n} resonances at R={R}")
    rng = np.random.default_rng(42)
    for _ in range(2):
        v0 = complex(-rng.uniform(5.0, 25.0), rng.uniform(-3.0, 3.0))
        a = float(rng.uniform(0.5, 1.5))
        pot = rs.RadialStepPotential(a=a, v0=v0)
        R = 5.0 / a
        base = rs.find_resonances(pot, R, threads=ctx.threads)
        conj = rs.find_resonances(rs.RadialStepPotential(a=a, v0=v0.conjugate()), R,
                                  threads=ctx.threads)
        miss = _mirror_miss(base, conj)
        notes.append(f"conjugation at a={a:.3f}, v0={v0:.3f}: {len(base.resonances)} and "
                     f"{len(conj.resonances)} resonances, worst mirror miss {miss:.1e}")
        if len(conj.resonances) != len(base.resonances) or not miss <= 1e-8:
            issues.append(f"conjugation broken at v0={v0:.3f}")
        c = 2.0
        scaled = rs.find_resonances(
            rs.RadialStepPotential(a=c * a, v0=v0 / c ** 2), R / c,
            threads=ctx.threads)
        if len(scaled.resonances) != len(base.resonances):
            issues.append("dilation changed the resonance count")
        else:
            # each scaled resonance lies at lambda / c of one in its channel
            err = max(min(abs(s.lam - b.lam / c)
                          for b in base.resonances if b.ell == s.ell)
                      for s in scaled.resonances)
            if err > 1e-8:
                issues.append(f"dilation covariance broken by {err:.2e}")
    # winding / multiplicity on polynomial fixtures, exact
    w = winding_count(lambda z: (z - (1 - 1j)) ** 2, ContourBox(0 - 2j, 2 + 0j))
    if w != 2:
        issues.append(f"double-zero winding {w} != 2")
    zs = locate_zeros(lambda z: (z - (1 - 1j)) ** 2,
                      ContourBox(0 - 2j, 2 + 0j), tol=1e-9)
    if len(zs) != 1 or zs[0][1] != 2 or abs(zs[0][0] - (1 - 1j)) > 1e-9:
        issues.append(f"double-zero location failed: {zs}")
    coeffs = np.array([1.0, 0.3 - 0.2j, -0.5 + 0.1j, 0.2j, 1.1, -0.4])
    roots = np.roots(coeffs)
    box = ContourBox(complex(roots.real.min() - 0.5, roots.imag.min() - 0.5),
                     complex(roots.real.max() + 0.5, roots.imag.max() + 0.5))
    p = np.poly1d(coeffs)
    w = winding_count(lambda z: p(z), box)
    if w != 5:
        issues.append(f"degree-5 winding {w} != 5")
    return not issues, "; ".join((issues or ["all checks passed"]) + notes)


def criterion_7(ctx: AcceptanceContext):
    """Weyl-type total count for a=1, v0=-20 up to r=40: the full sector at
    each grid radius, read off ``compare_counts``."""
    reports = ct.compare_counts(
        ctx.reference_set(),
        [ct.SectorQuery(r, math.pi, 2.0 * math.pi) for r in RADIUS_GRID], RADIUS_GRID)
    ratios = [rep.ratio for rep in reports]
    fit = reports[-1].fit
    exponent = fit[0] if fit else math.nan
    upper_ok = not any(flag.startswith("stefanov") for flag in reports[-1].flags)
    monotone = all(abs(ratios[i + 1] - 1.0) <= abs(ratios[i] - 1.0) + 0.03
                   for i in range(len(ratios) - 1))
    passed = 2.7 <= exponent <= 3.3 and 0.8 <= ratios[-1] <= 1.2 and monotone and upper_ok
    return passed, (f"exponent = {exponent:.3f} (in [2.7, 3.3]), ratio(40) = "
                    f"{ratios[-1]:.3f} (in [0.8, 1.2]), monotone within 0.03: {monotone}, "
                    f"integrated bound with slack 0.1: {upper_ok}, "
                    f"ratios = {['%.3f' % r for r in ratios]}")


def criterion_8(ctx: AcceptanceContext):
    """Sector asymptotics at r = 40 for three sectors, ratios in [0.7, 1.3]."""
    sectors = [
        (math.pi + math.pi / 6, math.pi + math.pi / 3),
        (math.pi, math.pi + math.pi / 4),
        (math.pi + 3 * math.pi / 4, 2 * math.pi),
    ]
    reports = ct.compare_counts(
        ctx.reference_set(), [ct.SectorQuery(40.0, phi, theta) for phi, theta in sectors],
        [40.0])
    return (all(0.7 <= rep.ratio <= 1.3 for rep in reports),
            "; ".join(f"({rep.query.phi:.3f},{rep.query.theta:.3f}): {rep.empirical}/"
                      f"{rep.predicted:.1f} = {rep.ratio:.3f}" for rep in reports)
            + " (each in [0.7, 1.3])")


def criterion_9(ctx: AcceptanceContext):
    """Scattering-determinant growth bound and real-axis antisymmetry."""
    pot = ctx.reference_potential
    margins = []
    for theta in (math.pi / 4, math.pi / 2, 3 * math.pi / 4):
        bound = dn.angular_density_d3_closed(theta)
        for r in (20.0, 40.0):
            lam = r * complex(math.cos(theta), math.sin(theta))
            margins.append(rs.scattering_log_det(pot, lam) / r ** 3 - bound)
    anti = max(abs(rs.scattering_log_det(pot, x) + rs.scattering_log_det(pot, -x))
               for x in (3.0, 7.5, 18.0))
    worst = max(margins)
    return (worst <= 0.05 and anti <= 1e-8,
            f"worst (r^-3 ln|s| - h3) = {worst:+.4f} (slack 0.05); "
            f"antisymmetry = {anti:.2e} (tol 1e-8)")


def criterion_10(ctx: AcceptanceContext):
    """Averaged counting over the two-potential family at r = 25."""
    exp = ctx.family()
    rows = []
    for q in (ct.SectorQuery(25.0, math.pi, 2 * math.pi),
              ct.SectorQuery(25.0, math.pi, 1.5 * math.pi)):
        avg = ct.family_average(exp, q)
        pred = ct.family_prediction(exp, q)
        rows.append((q, avg, pred, avg / pred))
    return (all(0.75 <= row[3] <= 1.25 for row in rows),
            "; ".join(f"sector ({q.phi:.3f},{q.theta:.3f}): {avg:.3f}/{pred:.3f}"
                      f" = {ratio:.3f}" for q, avg, pred, ratio in rows)
            + " (each in [0.75, 1.25])")


def criterion_11(ctx: AcceptanceContext):
    """Equivalence of the two counting normalizations at desk scale."""
    rset = ctx.reference_set()
    n_fit = ct.fit_power_law(RADIUS_GRID, [ct.count_norm(rset, r) for r in RADIUS_GRID])
    big_n_fit = ct.fit_power_law(
        RADIUS_GRID, [ct.integrated_count(rset, r) for r in RADIUS_GRID])
    if n_fit is None or big_n_fit is None:
        return False, "insufficient points for fits"
    rel = abs(3.0 * big_n_fit[1] / n_fit[1] - 1.0)
    return rel <= 0.15, (f"coeff(n) = {n_fit[1]:.1f} (r^{n_fit[0]:.3f}), "
                         f"3*coeff(N) = {3 * big_n_fit[1]:.1f} (r^{big_n_fit[0]:.3f}), "
                         f"|3 coeff(N)/coeff(n) - 1| = {rel:.3f} (tol 0.15)")


# (name, criterion, budget): a budget maps the worker count to seconds
CRITERIA = [
    ("closed-form cross-check (d=3)", criterion_1, lambda threads: 30.0),
    ("table symmetry and endpoints", criterion_2, None),
    ("derivative at the axis", criterion_3, None),
    ("Weyl constant consistency", criterion_4, None),
    ("Jensen identities", criterion_5, lambda threads: 120.0),
    ("solver soundness", criterion_6, None),
    ("Weyl-type total count", criterion_7,
     lambda threads: 600.0 if threads == 1 else 960.0 / threads),
    ("sector asymptotics", criterion_8, None),
    ("scattering growth bound", criterion_9, None),
    ("averaged family counting", criterion_10, lambda threads: 14400.0 / threads),
    ("normalization equivalence", criterion_11, None),
]


def run_criterion(index: int, ctx: AcceptanceContext) -> CriterionResult:
    """Run row ``index`` (from 1) of CRITERIA: a NumericalError it raises is a
    failure naming the exception, and a budgeted criterion fails past it."""
    name, criterion, budget = CRITERIA[index - 1]
    t0 = time.perf_counter()
    try:
        passed, detail = criterion(ctx)
    except NumericalError as exc:
        passed, detail = False, f"raised {type(exc).__name__}: {exc}"
    secs = time.perf_counter() - t0
    if budget is not None:
        limit = budget(ctx.threads)
        passed = passed and secs <= limit
        detail += f", {secs:.1f}s (budget {limit:.0f}s)"
    return CriterionResult(index, name, passed, detail, secs)


def run_acceptance(threads: int = 1, only=None):
    """Run the acceptance criteria in order; returns the result list.

    A criterion that raises a NumericalError is recorded as a failure naming
    the exception, and the remaining criteria still run.
    """
    ctx = AcceptanceContext(threads=threads)
    results = []
    for idx in range(1, len(CRITERIA) + 1):
        if only is not None and idx not in only:
            continue
        result = run_criterion(idx, ctx)
        results.append(result)
        status = "PASS" if result.passed else "FAIL"
        print(f"{status} criterion {result.index} ({result.name}): {result.detail}")
    return results
