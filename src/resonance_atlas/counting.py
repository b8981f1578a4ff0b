"""Counting functions, leading-term predictions, and family averaging.

Sector conventions follow the lower-half-plane picture: a resonance at
lambda has argument in (pi, 2*pi), and a SectorQuery carries angles
pi <= phi <= theta <= 2*pi with boundary-inclusive membership.  Predictions
map a query back to the density module's angles via phi' = phi - pi,
theta' = theta - pi in [0, pi].
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .density import near_axis_coefficient, sector_density, weyl_constant
from .resonances import (
    RadialStepPotential,
    ResonanceSet,
    arg_lower,
    find_resonances,
    map_ordered,
)

__all__ = [
    "SectorQuery",
    "CountReport",
    "FamilyExperiment",
    "count_norm",
    "count_sector",
    "integrated_count",
    "predict_total",
    "predict_sector",
    "compare_counts",
    "fit_power_law",
    "family_average",
    "family_prediction",
    "radial_bump",
]


def check_radius(r: float, search_radius: float = math.inf) -> float:
    """The one guard of a count or query radius: 0 < r < inf, and a count of a
    set never reaches past its search radius.  Returns r."""
    if not (0 < r < math.inf and r <= search_radius * (1 + 1e-12)):
        raise ValueError(
            f"count radius {r} must be positive, finite and within the search "
            f"radius ({search_radius}); never extrapolate")
    return r


@dataclass(frozen=True)
class SectorQuery:
    """Closed sector pi <= phi <= arg lambda <= theta <= 2 pi, |lambda| <= r."""

    r: float
    phi: float
    theta: float

    def __post_init__(self):
        check_radius(self.r)
        if not (math.pi <= self.phi <= self.theta <= 2.0 * math.pi + 1e-15):
            raise ValueError(
                "sector angles must satisfy pi <= phi <= theta <= 2*pi "
                f"(lower half plane); got ({self.phi}, {self.theta})")


@dataclass
class CountReport:
    query: SectorQuery
    empirical: int
    predicted: float
    ratio: float
    fit: tuple[float, float] | None = None  # (exponent, coefficient)
    flags: list[str] = field(default_factory=list)

    def to_dict(self):
        doc = {
            "query": {"r": self.query.r, "phi": self.query.phi,
                      "theta": self.query.theta},
            "empirical": self.empirical,
            "predicted": self.predicted,
            "ratio": self.ratio,
            "fit": (None if self.fit is None
                    else {"exponent": self.fit[0], "coefficient": self.fit[1]}),
        }
        if self.flags:
            doc["flags"] = list(self.flags)
        return doc


def count_norm(rset: ResonanceSet, r: float) -> int:
    """Multiplicity-weighted count with |lambda| <= r: the full sector."""
    return count_sector(rset, SectorQuery(r, math.pi, 2.0 * math.pi))


def count_sector(rset: ResonanceSet, q: SectorQuery) -> int:
    """Multiplicity-weighted count in the closed sector (boundary inclusive)."""
    check_radius(q.r, rset.search_radius)
    total = 0
    for res in rset.resonances:
        if abs(res.lam) <= q.r and q.phi <= arg_lower(res.lam) <= q.theta:
            total += res.multiplicity
    return total


def integrated_count(rset: ResonanceSet, r: float) -> float:
    """N(r) = sum of mult * ln(r/|lambda|) over |lambda| <= r.

    This is the closed form of the logarithmically integrated counting
    function; step potentials have no pole at the origin, so no subtraction
    is needed.
    """
    check_radius(r, rset.search_radius)
    return sum(res.multiplicity * math.log(r / abs(res.lam))
               for res in rset.resonances if abs(res.lam) <= r)


# ---------------------------------------------------------------------------
# Predictions
# ---------------------------------------------------------------------------

def predict_total(d: int, a: float, r: float) -> float:
    """c_d (a r)^d, the full sector's prediction; r must be positive and finite."""
    return predict_sector(d, a, SectorQuery(r, math.pi, 2.0 * math.pi))


_ANGLE_EPS = 1e-12


def predict_sector(d: int, a: float, q: SectorQuery) -> float:
    """Leading term of the sector count for the given query.

    Interior sectors use the sector density over (2 pi d); sectors touching
    the negative real axis (phi = pi) use the near-axis bracket; sectors
    touching the positive axis (theta = 2 pi) use its mirror image, which by
    the reflection symmetry of the density equals the near-axis coefficient
    at pi - phi'.
    """
    phi = q.phi - math.pi
    theta = q.theta - math.pi
    if abs(theta - phi) < _ANGLE_EPS:
        return 0.0
    scale = (a * q.r) ** d
    at_pi = phi < _ANGLE_EPS
    at_2pi = theta > math.pi - _ANGLE_EPS
    if at_pi and at_2pi:
        return weyl_constant(d) * scale
    if at_pi:
        return near_axis_coefficient(d, theta) * scale
    if at_2pi:
        return near_axis_coefficient(d, math.pi - phi) * scale
    return sector_density(d, phi, theta) / (2.0 * math.pi * d) * scale


def fit_power_law(rs, values):
    """Least-squares (exponent, coefficient) of values ~ coeff * r^exponent.

    Fitted in log-log coordinates over the upper half of the r-grid; returns
    None when fewer than three usable points remain.
    """
    rs = np.asarray(rs, dtype=float)
    values = np.asarray(values, dtype=float)
    half = rs >= np.median(rs)
    use = half & (values > 0)
    if np.count_nonzero(use) < 3:
        return None
    slope, intercept = np.polyfit(np.log(rs[use]), np.log(values[use]), 1)
    return float(slope), float(math.exp(intercept))


def compare_counts(rset: ResonanceSet, queries, r_grid) -> list[CountReport]:
    """Per-query reports with ratios, power-law fits, and bound flags; each
    sector's fit and the Stefanov flag (set and r-grid only) are computed once."""
    d = 3
    a = rset.potential.a
    r_grid = sorted(float(r) for r in r_grid)
    fits, stefanov, reports = {}, None, []
    for q in queries:
        empirical = count_sector(rset, q)
        predicted = predict_sector(d, a, q)
        ratio = empirical / predicted if predicted > 0 else math.nan
        if (q.phi, q.theta) not in fits:
            fits[q.phi, q.theta] = fit_power_law(
                r_grid, [count_sector(rset, SectorQuery(r, q.phi, q.theta)) for r in r_grid])
        if stefanov is None:
            stefanov = next(([f"stefanov_violation_at_r={r:g}"] for r in r_grid if r * a >= 20
                             and d * integrated_count(rset, r) > predict_total(d, a, r) * 1.1),
                            [])
        flags = ["no resonances"] if empirical == 0 else []
        reports.append(CountReport(query=q, empirical=empirical,
                                   predicted=predicted, ratio=ratio,
                                   fit=fits[q.phi, q.theta], flags=flags + stefanov))
    return reports


def reports_to_json(reports: list[CountReport], path) -> None:
    with open(path, "w") as f:
        json.dump([rep.to_dict() for rep in reports], f, indent=1)
        f.write("\n")


def reports_to_csv(reports: list[CountReport], path) -> None:
    with open(path, "w", newline="") as f:
        f.write("r,phi,theta,empirical,predicted,ratio,fit_exponent,fit_coefficient\n")
        for rep in reports:
            fe = "" if rep.fit is None else f"{rep.fit[0]:.17g}"
            fc = "" if rep.fit is None else f"{rep.fit[1]:.17g}"
            f.write(f"{rep.query.r:.17g},{rep.query.phi:.17g},"
                    f"{rep.query.theta:.17g},{rep.empirical},"
                    f"{rep.predicted:.17g},{rep.ratio:.17g},{fe},{fc}\n")


# ---------------------------------------------------------------------------
# Family averaging
# ---------------------------------------------------------------------------

def radial_bump(z: complex, radius: float) -> float:
    """Compactly supported smooth bump exp(-1/(1-|z/radius|^2)) on |z| < radius."""
    t = abs(z) / radius
    if t >= 1.0:
        return 0.0
    return math.exp(-1.0 / (1.0 - t * t))


@dataclass
class FamilyExperiment:
    """Line z -> z V1 + (1-z) V0 of step potentials with a weighted z-grid.

    The grid realizes the integral of psi(z) n_{V(z)} over the parameter
    plane by a tensor-product midpoint rule on the bump's bounding square;
    members with psi = 0 never need solving.
    """

    base: RadialStepPotential
    other: RadialStepPotential
    zs: np.ndarray
    weights: np.ndarray
    psi: np.ndarray
    r: float
    sets: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.base.a != self.other.a:
            raise ValueError("family endpoints must share the support radius")
        if np.any(self.psi < 0) or not float(np.dot(self.weights, self.psi)) > 0:
            raise ValueError("weights require psi >= 0 with positive total mass")

    @classmethod
    def on_bump_grid(cls, base: RadialStepPotential, other: RadialStepPotential,
                     r: float, n: int = 5, bump_radius: float = 0.5) -> "FamilyExperiment":
        """Midpoint rule with n x n nodes on [-b, b]^2, b = bump_radius."""
        if n < 1:
            raise ValueError(f"grid size n must be at least 1, got {n}")
        if not 0 < bump_radius < math.inf:
            raise ValueError(f"bump_radius must be positive and finite, got {bump_radius}")
        b = bump_radius
        step = 2.0 * b / n
        mids = -b + step * (np.arange(n) + 0.5)
        zs = np.array([complex(x, y) for x in mids for y in mids])
        weights = np.full(zs.size, step * step)
        psi = np.array([radial_bump(z, b) for z in zs])
        return cls(base=base, other=other, zs=zs, weights=weights, psi=psi, r=r)

    def potential_at(self, z: complex) -> RadialStepPotential:
        v0 = z * self.other.v0 + (1.0 - z) * self.base.v0
        return RadialStepPotential(a=self.base.a, v0=v0)

    def active_indices(self):
        return [i for i in range(self.zs.size) if self.psi[i] > 0.0]

    def solve(self, threads: int = 1) -> None:
        """Populate resonance sets for all members with positive weight."""
        todo = [i for i in self.active_indices() if i not in self.sets]
        sets = map_ordered(_solve_member,
                           [(self.potential_at(self.zs[i]), self.r) for i in todo],
                           threads)
        self.sets.update(zip(todo, sets))

    def to_json(self, path, sector_queries=()) -> None:
        members = []
        for i in range(self.zs.size):
            entry = {
                "z_re": float(self.zs[i].real), "z_im": float(self.zs[i].imag),
                "weight": float(self.weights[i]), "psi": float(self.psi[i]),
            }
            if i in self.sets:
                rset = self.sets[i]
                entry["n_resonances"] = len(rset.resonances)
                entry["ell_max"] = rset.ell_max
                entry["counts"] = {
                    f"{q.phi:.6f}:{q.theta:.6f}": count_sector(rset, q)
                    for q in sector_queries
                }
            members.append(entry)
        doc = {
            "base": self.base.to_dict(),
            "other": self.other.to_dict(),
            "r": self.r,
            "members": members,
        }
        with open(path, "w") as f:
            json.dump(doc, f, indent=1)
            f.write("\n")


def _solve_member(pot: RadialStepPotential, r: float) -> ResonanceSet:
    return find_resonances(pot, r)


def family_average(exp: FamilyExperiment, q: SectorQuery) -> float:
    """Quadrature value of the psi-weighted sector count over the family."""
    total = 0.0
    for i in exp.active_indices():
        if i not in exp.sets:
            raise ValueError(
                f"family member {i} (z={exp.zs[i]:.4f}) has not been solved")
        total += exp.weights[i] * exp.psi[i] * count_sector(exp.sets[i], q)
    return total


def family_prediction(exp: FamilyExperiment, q: SectorQuery) -> float:
    """The averaged-count leading term: sector coefficient times psi mass."""
    mass = float(np.dot(exp.weights, exp.psi))
    return predict_sector(3, exp.base.a, q) * mass
