"""Acceptance suite: every criterion with its pinned tolerance.

Each criterion is a function taking a shared context (which caches the
expensive artifacts: the reference resonance set and the family experiment)
and returning a CriterionResult.  ``run_acceptance`` executes them in fixed
order, printing one PASS/FAIL line per criterion; the CLI ``verify``
subcommand and the pytest acceptance module both drive this code.
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

__all__ = ["CriterionResult", "AcceptanceContext", "run_acceptance", "CRITERIA"]


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
                rs.RadialStepPotential(a=1.0, v0=-20.0),
                rs.RadialStepPotential(a=1.0, v0=complex(-12.0, 3.0)),
                r=25.0, n=5, bump_radius=0.5)
            exp.solve(threads=self.threads)
            self._cache["family"] = exp
        return self._cache["family"]


def _timed(fn):
    t0 = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - t0


# --- criterion implementations ---------------------------------------------

def criterion_1(ctx: AcceptanceContext) -> CriterionResult:
    """d=3 closed form vs quadrature on 50 angles, <= 1e-6, within 30 s."""
    del ctx

    def work():
        worst = 0.0
        for th in np.linspace(0.05, math.pi - 0.05, 50):
            diff = abs(dn.angular_density(3, float(th))
                       - dn.angular_density_d3_closed(float(th)))
            worst = max(worst, diff)
        return worst

    worst, secs = _timed(work)
    passed = worst <= 1e-6 and secs <= 30.0
    return CriterionResult(1, "closed-form cross-check (d=3)", passed,
                           f"max |quad - closed| = {worst:.3e} (tol 1e-6), "
                           f"{secs:.1f}s (budget 30s)", secs)


def criterion_2(ctx: AcceptanceContext) -> CriterionResult:
    """Density-table invariants at 1e-8."""
    del ctx

    def work():
        table = dn.build_density_table(3, 81)
        errs = {
            "h(0)": abs(table.h[0]),
            "h(pi)": abs(table.h[-1]),
            "symmetry": float(np.max(np.abs(table.h - table.h[::-1]))),
            "h'(pi/2)": abs(table.h_prime[40]),
        }
        table.validate()
        return errs

    errs, secs = _timed(work)
    worst = max(errs.values())
    passed = worst <= 1e-8
    detail = ", ".join(f"{k}={v:.2e}" for k, v in errs.items())
    return CriterionResult(2, "table symmetry and endpoints", passed,
                           detail + " (tol 1e-8)", secs)


def criterion_3(ctx: AcceptanceContext) -> CriterionResult:
    """Derivative limit: quadrature at 1e-3 vs 4/3, and the integral form
    of the closed form for d in {3, 5, 7}."""
    del ctx

    def work():
        near = abs(dn.angular_density_deriv(3, 1e-3) - 4.0 / 3.0)
        forms = {}
        for d in (3, 5, 7):
            integral = dn._integrate(lambda t: math.sqrt(t * t - 1.0) * t ** (-(d + 1)),
                                     1.0, np.inf, f"integral form (d={d})", 1e-12, 1e-12)
            forms[d] = abs(4.0 / math.factorial(d - 2) * integral
                           - dn.angular_density_deriv_at_zero(d))
        return near, forms

    (near, forms), secs = _timed(work)
    passed = near <= 1e-2 and all(v <= 1e-8 for v in forms.values())
    detail = (f"|h'(1e-3) - 4/3| = {near:.3e} (tol 1e-2); integral-vs-Gamma "
              + ", ".join(f"d={d}: {v:.2e}" for d, v in forms.items())
              + " (tol 1e-8)")
    return CriterionResult(3, "derivative at the axis", passed, detail, secs)


def criterion_4(ctx: AcceptanceContext) -> CriterionResult:
    """One- and two-dimensional Weyl-constant evaluations agree to 1e-5."""
    del ctx

    def work():
        c1 = dn.weyl_constant(3)
        c2 = dn.weyl_constant_2d(3)
        return c1, c2

    (c1, c2), secs = _timed(work)
    passed = abs(c1 - c2) <= 1e-5 and c1 > 0
    return CriterionResult(4, "Weyl constant consistency", passed,
                           f"c3(1d) = {c1:.9f}, c3(2d) = {c2:.9f}, "
                           f"|diff| = {abs(c1 - c2):.2e} (tol 1e-5)", secs)


def criterion_5(ctx: AcceptanceContext) -> CriterionResult:
    """Jensen identities: listed plus 20 randomized cases < 1e-6, in 2 min."""
    del ctx

    def work():
        listed, sectors, randomized = jensen_suite()
        return (max([res for _, res, _ in listed] + randomized),
                max(res for _, res in sectors))

    (worst, worst_sec), secs = _timed(work)
    passed = worst < 1e-6 and worst_sec < 1e-6 and secs <= 120.0
    return CriterionResult(5, "Jensen identities", passed,
                           f"worst full residual = {worst:.3e}, worst sector "
                           f"residual = {worst_sec:.3e} (tol 1e-6), {secs:.1f}s",
                           secs)


def criterion_6(ctx: AcceptanceContext) -> CriterionResult:
    """Solver soundness: free emptiness, symmetries, polynomial fixtures."""

    def work():
        issues = []
        free = rs.RadialStepPotential(a=1.0, v0=0.0)
        for R in (10.0, 40.0):
            n = len(rs.find_resonances(free, R).resonances)
            if n:
                issues.append(f"free potential has {n} resonances at R={R}")
        rng = np.random.default_rng(42)
        for _ in range(2):
            v0 = -float(rng.uniform(5.0, 25.0))
            a = float(rng.uniform(0.5, 1.5))
            pot = rs.RadialStepPotential(a=a, v0=v0)
            R = 5.0 / a
            base = rs.find_resonances(pot, R, threads=ctx.threads)
            lams = [r.lam for r in base.resonances]
            for r in base.resonances:
                refl = complex(-r.lam.real, r.lam.imag)
                err = min(abs(refl - l) for l in lams)
                if err > 1e-8:
                    issues.append(f"reflection broken by {err:.2e} at {r.lam}")
                    break
            c = 2.0
            scaled = rs.find_resonances(
                rs.RadialStepPotential(a=c * a, v0=v0 / c ** 2), R / c,
                threads=ctx.threads)
            if len(scaled.resonances) != len(base.resonances):
                issues.append("dilation changed the resonance count")
            else:
                # multiset match: sort ties between mirror partners can swap
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
        return issues

    issues, secs = _timed(work)
    passed = not issues
    return CriterionResult(6, "solver soundness", passed,
                           "all checks passed" if passed else "; ".join(issues),
                           secs)


def criterion_7(ctx: AcceptanceContext) -> CriterionResult:
    """Weyl-type total count for a=1, v0=-20 up to r=40."""

    def work():
        rset = ctx.reference_set()
        grid = [10.0, 15.0, 20.0, 25.0, 30.0, 35.0, 40.0]
        counts = [ct.count_norm(rset, r) for r in grid]
        ratios = [n / ct.predict_total(3, 1.0, r) for n, r in zip(counts, grid)]
        fit = ct.fit_power_law(grid, counts)
        upper_ok = all(3.0 * ct.integrated_count(rset, r) <= ct.predict_total(3, 1.0, r) * 1.1
                       for r in grid if r >= 20.0)
        return grid, ratios, fit, upper_ok

    (grid, ratios, fit, upper_ok), secs = _timed(work)
    exponent = fit[0] if fit else math.nan
    ratio40 = ratios[-1]
    monotone = all(abs(ratios[i + 1] - 1.0) <= abs(ratios[i] - 1.0) + 0.03
                   for i in range(len(ratios) - 1))
    budget = 600.0 if ctx.threads == 1 else 120.0 * 8.0 / ctx.threads
    passed = (2.7 <= exponent <= 3.3 and 0.8 <= ratio40 <= 1.2
              and monotone and upper_ok and secs <= budget)
    detail = (f"exponent = {exponent:.3f} (in [2.7, 3.3]), ratio(40) = "
              f"{ratio40:.3f} (in [0.8, 1.2]), monotone within 0.03: {monotone}, "
              f"integrated bound with slack 0.1: {upper_ok}, "
              f"ratios = {['%.3f' % r for r in ratios]}, {secs:.0f}s "
              f"(budget {budget:.0f}s at {ctx.threads} threads)")
    return CriterionResult(7, "Weyl-type total count", passed, detail, secs)


def criterion_8(ctx: AcceptanceContext) -> CriterionResult:
    """Sector asymptotics at r = 40 for three sectors, ratios in [0.7, 1.3]."""

    def work():
        rset = ctx.reference_set()
        sectors = [
            (math.pi + math.pi / 6, math.pi + math.pi / 3),
            (math.pi, math.pi + math.pi / 4),
            (math.pi + 3 * math.pi / 4, 2 * math.pi),
        ]
        out = []
        for phi, theta in sectors:
            q = ct.SectorQuery(40.0, phi, theta)
            emp = ct.count_sector(rset, q)
            pred = ct.predict_sector(3, 1.0, q)
            out.append((phi, theta, emp, pred, emp / pred))
        return out

    rows, secs = _timed(work)
    passed = all(0.7 <= row[4] <= 1.3 for row in rows)
    detail = "; ".join(
        f"({row[0]:.3f},{row[1]:.3f}): {row[2]}/{row[3]:.1f} = {row[4]:.3f}"
        for row in rows) + " (each in [0.7, 1.3])"
    return CriterionResult(8, "sector asymptotics", passed, detail, secs)


def criterion_9(ctx: AcceptanceContext) -> CriterionResult:
    """Scattering-determinant growth bound and real-axis antisymmetry."""

    def work():
        pot = ctx.reference_potential
        margins = []
        for theta in (math.pi / 4, math.pi / 2, 3 * math.pi / 4):
            bound = dn.angular_density_d3_closed(theta)
            for r in (20.0, 40.0):
                lam = r * complex(math.cos(theta), math.sin(theta))
                val = rs.scattering_log_det(pot, lam) / r ** 3
                margins.append((theta, r, val, bound, val - bound))
        anti = 0.0
        for x in (3.0, 7.5, 18.0):
            anti = max(anti, abs(rs.scattering_log_det(pot, x)
                                 + rs.scattering_log_det(pot, -x)))
        return margins, anti

    (margins, anti), secs = _timed(work)
    passed = all(m[4] <= 0.05 for m in margins) and anti <= 1e-8
    worst = max(m[4] for m in margins)
    detail = (f"worst (r^-3 ln|s| - h3) = {worst:+.4f} (slack 0.05); "
              f"antisymmetry = {anti:.2e} (tol 1e-8)")
    return CriterionResult(9, "scattering growth bound", passed, detail, secs)


def criterion_10(ctx: AcceptanceContext) -> CriterionResult:
    """Averaged counting over the two-potential family at r = 25."""

    def work():
        exp = ctx.family()
        out = []
        for q in (ct.SectorQuery(25.0, math.pi, 2 * math.pi),
                  ct.SectorQuery(25.0, math.pi, 1.5 * math.pi)):
            avg = ct.family_average(exp, q)
            pred = ct.family_prediction(exp, q)
            out.append((q, avg, pred, avg / pred))
        return out

    rows, secs = _timed(work)
    budget = 1800.0 * 8.0 / ctx.threads
    passed = all(0.75 <= row[3] <= 1.25 for row in rows) and secs <= budget
    detail = "; ".join(
        f"sector ({row[0].phi:.3f},{row[0].theta:.3f}): {row[1]:.3f}/{row[2]:.3f}"
        f" = {row[3]:.3f}" for row in rows) + (
        f" (each in [0.75, 1.25]), {secs:.0f}s (budget {budget:.0f}s)")
    return CriterionResult(10, "averaged family counting", passed, detail, secs)


def criterion_11(ctx: AcceptanceContext) -> CriterionResult:
    """Equivalence of the two counting normalizations at desk scale."""

    def work():
        rset = ctx.reference_set()
        grid = [10.0, 15.0, 20.0, 25.0, 30.0, 35.0, 40.0]
        n_fit = ct.fit_power_law(grid, [ct.count_norm(rset, r) for r in grid])
        big_n_fit = ct.fit_power_law(
            grid, [ct.integrated_count(rset, r) for r in grid])
        return n_fit, big_n_fit

    (n_fit, big_n_fit), secs = _timed(work)
    if n_fit is None or big_n_fit is None:
        return CriterionResult(11, "normalization equivalence", False,
                               "insufficient points for fits", secs)
    rel = abs(3.0 * big_n_fit[1] / n_fit[1] - 1.0)
    passed = rel <= 0.15
    detail = (f"coeff(n) = {n_fit[1]:.1f} (r^{n_fit[0]:.3f}), "
              f"3*coeff(N) = {3 * big_n_fit[1]:.1f} (r^{big_n_fit[0]:.3f}), "
              f"|3 coeff(N)/coeff(n) - 1| = {rel:.3f} (tol 0.15)")
    return CriterionResult(11, "normalization equivalence", passed, detail, secs)


CRITERIA = [
    criterion_1, criterion_2, criterion_3, criterion_4, criterion_5,
    criterion_6, criterion_7, criterion_8, criterion_9, criterion_10,
    criterion_11,
]


def run_acceptance(threads: int = 1, only=None):
    """Run the acceptance criteria in order; returns the result list.

    A criterion that raises a NumericalError is recorded as a failure naming
    the exception, and the remaining criteria still run.
    """
    ctx = AcceptanceContext(threads=threads)
    results = []
    for idx, crit in enumerate(CRITERIA, start=1):
        if only is not None and idx not in only:
            continue
        t0 = time.perf_counter()
        try:
            result = crit(ctx)
        except NumericalError as exc:
            name = (crit.__doc__ or crit.__name__).strip().splitlines()[0].rstrip(".")
            result = CriterionResult(idx, name, False,
                                     f"raised {type(exc).__name__}: {exc}",
                                     time.perf_counter() - t0)
        results.append(result)
        status = "PASS" if result.passed else "FAIL"
        print(f"{status} criterion {result.index} ({result.name}): {result.detail}")
    return results
