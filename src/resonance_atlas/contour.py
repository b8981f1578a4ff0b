"""Argument-principle zero counting and Jensen-type identity verifiers.

Winding numbers are accumulated from phase increments along adaptively
sampled closed paths.  A step is rejected and refined whenever the phase
jumps by more than pi/2 between adjacent samples, which makes missing a full
turn impossible for analytic integrands: sneaking past a zero would force a
near-pi step on the neighbouring intervals first.  A minimum-modulus guard
converts "zero on the contour" into a typed error so callers can perturb.
A box boundary is four such sampled edges, so the zero-finding quadtree
samples only the cross through each split point: the children inherit the
halves of their parent's edges.

Functions are evaluated either directly or in "log form": a log-form
callable returns log f(z) (any branch per point); only phase differences and
log-magnitude differences are consumed, so the branch never matters.  Log
form lets the resonance solver count windings of channel functions whose
magnitudes span hundreds of decades.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import quad

from .errors import BoundaryConflictError, NumericalError, QuadratureError

__all__ = [
    "ContourBox",
    "winding_count",
    "locate_zeros",
    "JensenTestCase",
    "jensen_residual",
    "sector_jensen_residual",
]

_TWO_PI = 2.0 * math.pi


# ---------------------------------------------------------------------------
# Boxes
# ---------------------------------------------------------------------------

@dataclass
class ContourBox:
    """Axis-aligned rectangle in the complex plane."""

    lower_left: complex
    upper_right: complex
    winding: int | None = None
    depth: int = 0

    def __post_init__(self):
        if not (self.upper_right.real > self.lower_left.real
                and self.upper_right.imag > self.lower_left.imag):
            raise ValueError("corners must define a nonempty rectangle")

    @property
    def width(self) -> float:
        return self.upper_right.real - self.lower_left.real

    @property
    def height(self) -> float:
        return self.upper_right.imag - self.lower_left.imag

    @property
    def diameter(self) -> float:
        return math.hypot(self.width, self.height)

    @property
    def center(self) -> complex:
        return 0.5 * (self.lower_left + self.upper_right)

    def contains(self, z: complex, pad: float = 0.0) -> bool:
        return (self.lower_left.real - pad <= z.real <= self.upper_right.real + pad
                and self.lower_left.imag - pad <= z.imag <= self.upper_right.imag + pad)

    def corners(self):
        ll, ur = self.lower_left, self.upper_right
        return [ll, complex(ur.real, ll.imag), ur, complex(ll.real, ur.imag)]

    def expanded(self, margin: float) -> "ContourBox":
        """Grow outward by margin."""
        m = complex(margin, margin)
        return ContourBox(self.lower_left - m, self.upper_right + m, depth=self.depth)

    def quadrisect(self, jitter: float = 0.0):
        """Split into four children; jitter shifts the split point."""
        c = self.center + complex(jitter, jitter)
        ll, ur = self.lower_left, self.upper_right
        d = self.depth + 1
        return [
            ContourBox(ll, c, depth=d),
            ContourBox(complex(c.real, ll.imag), complex(ur.real, c.imag), depth=d),
            ContourBox(complex(ll.real, c.imag), complex(c.real, ur.imag), depth=d),
            ContourBox(c, ur, depth=d),
        ]


# ---------------------------------------------------------------------------
# Evaluation helpers
# ---------------------------------------------------------------------------

def _make_log_evaluator(f, log_form: bool):
    """Wrap f into a vectorized z-array -> log f(z) evaluator."""

    def evaluate(zs: np.ndarray) -> np.ndarray:
        try:
            vals = np.asarray(f(zs), dtype=complex)
            if vals.shape != zs.shape:
                raise TypeError
        except TypeError:
            vals = np.array([complex(f(complex(z))) for z in zs])
        if log_form:
            return vals
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.log(vals)

    return evaluate


def _wrap_phase(d: np.ndarray) -> np.ndarray:
    return (d + math.pi) % _TWO_PI - math.pi


def _wrap1(x: float) -> float:
    return (x + math.pi) % _TWO_PI - math.pi


def _steps(ws: np.ndarray) -> np.ndarray:
    """Log increments between adjacent samples, with wrapped phase steps."""
    return np.diff(ws.real) + 1j * _wrap_phase(np.diff(ws.imag))


def _refine(gamma, eval_w, ts, zs, ws, what: str, max_new: int = 200000):
    """Insert midpoints of gamma(t) until all phase steps are trustworthy.

    Rejects an interval when its wrapped phase step exceeds pi/2, and
    also when the full complex log-step of the interval *or a neighbour*
    is large: a zero of multiplicity m straddled symmetrically by one
    interval can carry a true phase step near 2 pi (invisible after
    wrapping), but its neighbours then necessarily see the approach to
    the zero as a large log-magnitude swing.  Returns the refined (zs, ws).
    """
    budget = max_new
    while True:
        if not np.all(np.isfinite(ws)):
            raise BoundaryConflictError(
                f"{what}: non-finite (or exactly zero) value on the contour")
        dphi = _wrap_phase(np.diff(ws.imag))
        steep = np.abs(np.diff(ws.real) + 1j * dphi) > 1.5
        bad = np.abs(dphi) > math.pi / 2.0
        bad |= steep
        bad[1:] |= steep[:-1]
        bad[:-1] |= steep[1:]
        if not np.any(bad):
            return zs, ws
        if np.min(np.diff(ts)[bad]) < 1e-12:
            raise BoundaryConflictError(
                f"{what}: phase step will not settle under refinement "
                "(zero on or almost on the contour)")
        mids = 0.5 * (ts[:-1][bad] + ts[1:][bad])
        budget -= mids.size
        if budget < 0:
            raise NumericalError(f"{what}: refinement budget exhausted")
        mz = gamma(mids)
        order = np.searchsorted(ts, mids)
        ts = np.insert(ts, order, mids)
        zs = np.insert(zs, order, mz)
        ws = np.insert(ws, order, eval_w(mz))


def _check_guard(zs, ws, guard_dist: float, what: str) -> None:
    """Raise when the smallest |f/f'| estimate along the samples, from
    finite differences, falls below guard_dist."""
    dz = np.abs(np.diff(zs))
    dw = np.abs(_steps(ws))
    mask = dw > 1e-9
    if np.any(mask) and np.min(dz[mask] / dw[mask]) < guard_dist:
        raise BoundaryConflictError(
            f"{what}: a zero lies within {guard_dist:.3g} of the contour; "
            "perturb the box and retry")


@dataclass(frozen=True)
class _Edge:
    """Refined samples (zs, ws) of log f along the segment zs[0] -> zs[-1]."""

    zs: np.ndarray
    ws: np.ndarray

    def increment(self) -> complex:
        """log f(end) - log f(start), continued along the samples."""
        return complex(np.sum(_steps(self.ws)))

    def moment(self) -> complex:
        """Midpoint-rule integral of z dlog f along the edge."""
        mid = 0.5 * (self.zs[:-1] + self.zs[1:])
        return complex(np.sum(mid * _steps(self.ws)))

    def reversed(self) -> "_Edge":
        return _Edge(self.zs[::-1], self.ws[::-1])

    def cut(self, z: complex, w: complex) -> tuple["_Edge", "_Edge"]:
        """The parts of the edge before and after its point z, which share
        the sample w = log f(z) there; every other sample is kept."""
        d = (self.zs[-1] - self.zs[0]).conjugate()
        pos = ((self.zs - self.zs[0]) * d).real
        i = int(np.searchsorted(pos, ((z - self.zs[0]) * d).real))
        return (_Edge(np.append(self.zs[:i], z), np.append(self.ws[:i], w)),
                _Edge(np.insert(self.zs[i:], 0, z), np.insert(self.ws[i:], 0, w)))


def _sampled_edges(eval_w, segments, spacing: float, guard_dist: float,
                   what: str) -> list[_Edge]:
    """Edges along the segments (z0, z1), first sampled at most ``spacing``
    apart in at least 8 intervals (all of them in one evaluation), then
    refined, then checked against the guard distance."""
    ts = [np.linspace(0.0, 1.0, max(8, math.ceil(abs(z1 - z0) / spacing)) + 1)
          for z0, z1 in segments]
    zs = [z0 + t * (z1 - z0) for (z0, z1), t in zip(segments, ts)]
    ws = np.split(eval_w(np.concatenate(zs)), np.cumsum([t.size for t in ts[:-1]]))
    edges = []
    for (z0, z1), t, z, w in zip(segments, ts, zs, ws):
        z, w = _refine(lambda s: z0 + s * (z1 - z0), eval_w, t, z, w, what)
        _check_guard(z, w, guard_dist, what)
        edges.append(_Edge(z, w))
    return edges


def _box_edges(eval_w, box: ContourBox, spacing: float, guard_dist: float,
               what: str) -> list[_Edge]:
    """The box's bottom, right, top and left edges, counterclockwise."""
    cs = box.corners()
    return _sampled_edges(eval_w, list(zip(cs, cs[1:] + cs[:1])), spacing,
                          guard_dist, what)


def _spacing(box: ContourBox, samples: int) -> float:
    return 2.0 * (box.width + box.height) / samples


def _winding(edges) -> int:
    """Winding number of the closed loop the edges make in turn.

    The wrapped phase steps of a closed sampled loop telescope, so their sum
    is 2 pi times an integer up to rounding.
    """
    return round(sum(e.increment() for e in edges).imag / _TWO_PI)


def _moment(edges, n_zeros: int) -> complex:
    """First moment (1/(2 pi i n)) * contour integral of z dlog f."""
    return sum(e.moment() for e in edges) / (2j * math.pi * n_zeros)


def winding_count(f, box: ContourBox, samples: int = 32, *,
                  log_form: bool = False, guard: float = 1e-3) -> int:
    """Number of zeros of f inside the box, counted with multiplicity.

    f must be holomorphic on a neighbourhood of the closed box with no zero
    within ``guard * diameter`` of the boundary; a suspected boundary zero
    raises BoundaryConflictError.  ``samples`` sets the initial sampling of
    the whole boundary loop.
    """
    eval_w = _make_log_evaluator(f, log_form)
    box.winding = _winding(_box_edges(
        eval_w, box, _spacing(box, samples), guard * box.diameter,
        f"winding over {box.lower_left}..{box.upper_right}"))
    return box.winding


# ---------------------------------------------------------------------------
# Zero localization
# ---------------------------------------------------------------------------

def _newton_polish(eval_w, z0: complex, mult: int, tol: float, bound_check):
    """Secant iteration on log f, exact for an isolated power (z - z*)^mult.

    From two iterates, rho = exp((log f_b - log f_a)/mult) equals
    (z_b - z*)/(z_a - z*), which solves for z* directly; for analytic f this
    converges superlinearly and, unlike derivative stencils, keeps working
    arbitrarily close to the zero (no stencil ever straddles it).  Returns
    (z, last_step) or None on failure.
    """
    scale = max(abs(z0), 1.0)
    za = z0
    values = eval_w(np.array([za]))
    wa = complex(values[0])
    if not np.isfinite(values[0]):
        return za, 0.0  # landed on an exact zero of f
    zb = z0 + 1e-5 * scale * complex(0.6, 0.8)
    values = eval_w(np.array([zb]))
    wb = complex(values[0])
    if not np.isfinite(values[0]):
        return zb, 0.0
    step = math.inf
    for _ in range(60):
        dw = wb - wa
        dw = complex(dw.real, _wrap1(dw.imag)) / mult
        rho = cmath.exp(dw)
        denom = 1.0 - rho
        if denom == 0:
            return None
        z_new = (zb - rho * za) / denom
        step = abs(z_new - zb)
        if not bound_check(z_new):
            return None
        za, wa = zb, wb
        zb = z_new
        values = eval_w(np.array([zb]))
        wb = complex(values[0])
        if not np.isfinite(values[0]):
            return zb, 0.0
        if step < 1e-14 * max(abs(z_new), 1.0):
            return zb, step
    return (zb, step) if step < tol else None


def _circle_winding(eval_w, center: complex, radius: float, what: str) -> int:
    def gamma(ts):
        return center + radius * np.exp(2j * math.pi * ts)

    ts = np.linspace(0.0, 1.0, 17)
    zs = gamma(ts)
    zs, ws = _refine(gamma, eval_w, ts, zs, eval_w(zs), what)
    _check_guard(zs, ws, radius * 1e-6, what)
    return round(float(np.sum(_wrap_phase(np.diff(ws.imag)))) / _TWO_PI)


def _winding_with_perturbation(eval_w, box: ContourBox, samples: int,
                               tol: float, what: str,
                               ceiling: float | None = None,
                               guard_dist: float | None = None):
    """Winding of a box, expanding it slightly on boundary conflicts.

    Returns (winding, effective_box, edges).  Expansion never loses interior
    zeros; it may capture a zero just outside the requested box.  The
    effective box's winding counts that zero, so ``locate_zeros``, which
    keeps exactly the zeros inside the effective box, returns it too.  A
    ceiling keeps the expanded top edge below a line
    the caller must not cross; guard_dist overrides the default minimum
    zero-to-contour distance of 1e-3 times the diameter (large sweep
    contours legitimately pass close to zeros they enclose).
    """
    margin0 = max(tol, 2e-3 * box.diameter)
    last = None
    for attempt in range(8):
        if attempt == 0:
            eff = box
        else:
            # expand outward and shift a little so retries do not keep
            # marching toward the same external zero
            m = margin0 * attempt * (math.sqrt(2) - 1.0)
            shift = complex(m / 3.0 * ((attempt % 3) - 1),
                            -m / 5.0 * (attempt % 2))
            ll = box.lower_left - complex(m, m) + shift
            ur = box.upper_right + complex(m, m) + shift
            if ceiling is not None:
                ur = complex(ur.real, min(ur.imag, ceiling))
            eff = ContourBox(ll, ur, depth=box.depth)
        try:
            edges = _box_edges(
                eval_w, eff, _spacing(eff, samples),
                guard_dist if guard_dist is not None else 1e-3 * eff.diameter,
                what)
            return _winding(edges), eff, edges
        except BoundaryConflictError as exc:
            last = exc
    raise BoundaryConflictError(
        f"{what}: persistent boundary conflicts after perturbation") from last


def locate_zeros(f, box: ContourBox, tol: float, *,
                 log_form: bool = False, samples: int = 32,
                 ceiling: float | None = None,
                 guard_dist: float | None = None):
    """All zeros of f inside the box, as (location, multiplicity) pairs.

    Quadrisects recursively until sub-boxes carry winding <= 1 or shrink
    below ``tol`` in diameter, refines isolated zeros by Newton iteration,
    and reads multiplicities off the winding of a small circle around each
    accepted zero.  Clusters tighter than ``tol`` are reported as one zero
    with the aggregate multiplicity at the cluster's winding centroid.

    The result is exact: it holds the distinct zeros that lie inside the top
    box actually wound (the box after any perturbation by
    ``_winding_with_perturbation``, which may have grown it slightly), and
    their multiplicities sum to that box's winding; otherwise
    NumericalError names both numbers and the box.

    Box boundaries are sampled edges of log f.  ``samples`` sets the initial
    sampling of the top box's boundary and, through its spacing (perimeter
    over ``samples``), that of the cross through every split point; child
    boxes inherit the halves of their parent's edges.  ``guard_dist`` is the
    minimum zero-to-contour distance of the top box and of every cross
    (default 1e-3 times the top box's diameter, and 1e-3 times a child's
    diameter for a cross).
    """
    eval_w = _make_log_evaluator(f, log_form)
    found: list[tuple[complex, int]] = []
    top_w, top_box, top_edges = _winding_with_perturbation(
        eval_w, box, samples, tol, "locate_zeros top box", ceiling, guard_dist)
    spacing = _spacing(top_box, samples)
    stack = [(top_box, top_w, top_edges)]
    while stack:
        b, w, edges = stack.pop()
        if w == 0:
            continue
        if w < 0:
            raise NumericalError(
                f"negative winding {w} over box at {b.center:.6g}: the "
                "integrand has a pole inside (not holomorphic)")
        if w == 1 or b.diameter < tol:
            z = _resolve_single_box(eval_w, b, w, tol, edges)
            if z is not None:
                found.append(z)
                continue
            # Newton failed: keep quadrisecting toward the cluster limit
            if b.diameter < tol:
                raise NumericalError(
                    f"could not resolve zero in box around {b.center:.6g}")
        stack.extend(_split_box(eval_w, b, w, edges, spacing, guard_dist))

    # a cluster's centroid may land just outside the box that found it
    zeros = [(z, m) for z, m in _dedup_zeros(found, tol) if top_box.contains(z)]
    count = sum(m for _, m in zeros)
    if count != top_w:
        raise NumericalError(
            f"located {count} zeros inside the box {top_box.lower_left:.6g}.."
            f"{top_box.upper_right:.6g} but its winding is {top_w}")
    return zeros


def _resolve_single_box(eval_w, b: ContourBox, w: int, tol, edges):
    """Newton (w == 1) or centroid (cluster) resolution inside one box.

    The first moment over the box's edges seeds Newton: for a winding-1 box
    the moment *is* the zero up to quadrature error, so the iteration
    converges in a couple of steps and does not wander off to a neighbouring
    zero.
    """
    what = f"multiplicity circle at box {b.center:.6g}"
    if w == 1:
        seed = b.center
        m1 = _moment(edges, 1)
        if b.contains(m1, pad=0.25 * b.diameter):
            seed = m1
        res = _newton_polish(eval_w, seed, 1, tol,
                             lambda z: b.contains(z, pad=0.75 * b.diameter))
        if res is not None:
            z, _ = res
            # accept only zeros strictly inside: Newton may slide to a
            # neighbouring zero outside, which belongs to another box
            if b.contains(z):
                mult = _circle_winding(eval_w, z, _mult_radius(z, tol), what)
                if mult >= 1:
                    return z, mult
        if b.diameter >= tol:
            return None
    # cluster (or stubborn) case: winding centroid plus multiplicity circle
    cluster = b.expanded(0.25 * tol)
    z = _moment(_box_edges(eval_w, cluster, _spacing(cluster, 64), 0.0,
                           f"cluster box at {b.center:.6g}"), max(w, 1))
    res = _newton_polish(eval_w, z, max(w, 1), tol,
                         lambda zz: b.contains(zz, pad=b.diameter))
    if res is not None and b.contains(res[0], pad=0.25 * b.diameter):
        z = res[0]
    mult = _circle_winding(eval_w, z, _mult_radius(z, tol), what)
    if mult < 1:
        mult = w
    return z, mult


def _mult_radius(z: complex, tol: float) -> float:
    return max(2.0 * tol, 1e-9 * max(abs(z), 1.0))


def _split_box(eval_w, b: ContourBox, w: int, edges, spacing: float,
               guard_dist: float | None = None):
    """Quadrisect b into (child, winding, edges) triples.

    Only the cross through the split point is sampled, at ``spacing``; the
    children inherit the halves of b's edges, which have passed their
    refinement and guard checks already, so only the cross can run into a
    zero, and then the split point is jittered.  Cutting an outer edge
    inserts one sample, whose two phase steps replace one trusted step; a
    wrong wrap there is the only way the children's windings can fail to
    sum to w, so that sum is checked, and a failing split jittered as well.
    """
    if b.depth > 60:
        raise NumericalError(f"subdivision depth exhausted at {b.center:.6g}")
    guard = guard_dist if guard_dist is not None else 0.5e-3 * b.diameter
    problem = None
    for attempt in range(5):
        children = b.quadrisect(b.width * (math.sqrt(2) - 1.0) / 16.0 * attempt)
        c = children[0].upper_right
        ends = [children[1].lower_left, children[1].upper_right,
                children[2].upper_right, children[2].lower_left]
        try:
            arms = _sampled_edges(eval_w, [(c, e) for e in ends], spacing, guard,
                                  f"cross of box at {b.center:.6g}")
        except BoundaryConflictError as exc:
            problem = exc
            continue
        ab, ar, at, al = arms
        (b1, b2), (r1, r2), (t1, t2), (l1, l2) = [
            edge.cut(arm.zs[-1], arm.ws[-1]) for edge, arm in zip(edges, arms)]
        loops = [(b1, ab.reversed(), al, l2), (b2, r1, ar.reversed(), ab),
                 (al.reversed(), at, t2, l1), (ar, r2, t1, at.reversed())]
        windings = [_winding(loop) for loop in loops]
        if sum(windings) == w:
            return list(zip(children, windings, loops))
        problem = f"its children's windings {windings} do not sum to {w}"
    raise NumericalError(f"could not split box at {b.center:.6g}: {problem}")


def _dedup_zeros(found, tol):
    """Merge zeros closer than tol / 2, keeping the larger multiplicity.

    Each zero is compared with every kept zero whose real part lies within
    the merge distance, not only the last one kept: a zero far away in the
    imaginary direction may sort between two duplicates.
    """
    eps = 0.5 * tol
    found.sort(key=lambda p: (p[0].real, p[0].imag))
    out: list[tuple[complex, int]] = []
    for z, m in found:
        for i in range(len(out) - 1, -1, -1):
            zp, mp = out[i]
            if z.real - zp.real > eps:
                out.append((z, m))
                break
            if abs(z - zp) < eps:
                out[i] = (zp, max(mp, m))
                break
        else:
            out.append((z, m))
    return out


# ---------------------------------------------------------------------------
# Jensen-type identity verifiers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class JensenTestCase:
    """Rational function with zeros in the open upper half plane, poles in
    the open lower half plane, scaled so that |f(0)| = 1."""

    zeros: tuple
    poles: tuple
    scale: float = field(default=1.0)

    @classmethod
    def make(cls, zeros, poles) -> "JensenTestCase":
        zeros = tuple(complex(z) for z in zeros)
        poles = tuple(complex(p) for p in poles)
        for z in zeros:
            if z.imag <= 0:
                raise ValueError(f"zero {z} is not in the open upper half plane")
        for p in poles:
            if p.imag >= 0:
                raise ValueError(f"pole {p} is not in the open lower half plane")
        if set(zeros) & set(poles):
            raise ValueError("zero and pole lists must be disjoint")
        log_scale = sum(math.log(abs(p)) for p in poles) - sum(
            math.log(abs(z)) for z in zeros)
        return cls(zeros=zeros, poles=poles, scale=math.exp(log_scale))

    def value(self, z):
        out = np.full(np.shape(z) or (1,), self.scale, dtype=complex)
        zz = np.atleast_1d(np.asarray(z, dtype=complex))
        for a in self.zeros:
            out = out * (zz - a)
        for p in self.poles:
            out = out / (zz - p)
        return out if np.shape(z) else complex(out[0])

    def log_abs(self, z) -> float:
        v = self.value(z)
        return float(np.log(np.abs(v)))

    def ray_log_increment(self, t: float, angle: float) -> complex:
        """Continuous log f(t e^{i angle}) - log f(0) along the ray.

        Each factor contributes Log((t e^{i angle} - a)/(-a)) with the
        principal branch, which is exact for straight paths because a segment
        never subtends an angle pi or more from an external point.
        """
        e = cmath.exp(1j * angle)
        acc = 0.0 + 0.0j
        for a in self.zeros:
            acc += cmath.log((t * e - a) / (-a))
        for p in self.poles:
            acc -= cmath.log((t * e - p) / (-p))
        return acc


def jensen_residual(tc: JensenTestCase, r: float, quad_tol: float = 1e-10) -> float:
    """Residual of the half-plane Jensen-type identity at radius r.

    Left side: sum of ln(r/|a|) over zeros with |a| <= r (closed form).
    Right side: (1/2pi) Im int_0^r (1/t) int_{-t}^{t} f'/f ds dt plus
    (1/2pi) int_0^pi ln|f(r e^{i theta})| d theta, both by quadrature.
    """
    if r <= 0:
        raise ValueError("radius must be positive")
    for a in tc.zeros + tc.poles:
        if abs(abs(a) - r) < 1e-12:
            raise ValueError(f"zero/pole {a} sits on the circle |z| = r; perturb r")
    lhs = sum(math.log(r / abs(a)) for a in tc.zeros if abs(a) <= r)

    def real_axis_term(t):
        if t == 0.0:
            return 0.0
        inner = tc.ray_log_increment(t, 0.0) - tc.ray_log_increment(t, math.pi)
        return inner.imag / t

    term1 = _quad(real_axis_term, 0.0, r, quad_tol, "jensen real-axis term") / _TWO_PI
    term2 = _quad(lambda th: tc.log_abs(r * cmath.exp(1j * th)), 0.0, math.pi,
                  quad_tol, "jensen arc term") / _TWO_PI
    return abs(lhs - (term1 + term2))


def sector_jensen_residual(tc: JensenTestCase, r: float, phi: float, theta: float,
                           quad_tol: float = 1e-10) -> float:
    """Residual of the sector zero-counting identity at radius r.

    The three right-hand terms: the theta-derivative of the logarithmic means
    J^t (differentiated under the integral), the argument variation along the
    ray at angle phi, and the angular log-magnitude integral from phi to
    theta.
    """
    if not 0.0 < phi < theta < math.pi:
        raise ValueError("sector angles must satisfy 0 < phi < theta < pi")
    for a in tc.zeros:
        if abs(a) <= r * (1 + 1e-12):
            ang = cmath.phase(a)
            if abs(ang - phi) < 1e-12 or abs(ang - theta) < 1e-12:
                raise ValueError(f"zero {a} lies on a sector boundary ray")
    for p in tc.poles:
        if phi <= cmath.phase(p) <= theta and abs(p) <= 1.5 * r:
            raise ValueError(f"pole {p} lies inside the closed sector")

    lhs = sum(math.log(r / abs(a)) for a in tc.zeros
              if abs(a) <= r and phi < cmath.phase(a) < theta)

    def dtheta_term(t):
        if t == 0.0:
            return 0.0
        return (1j * tc.ray_log_increment(t, theta)).real / t

    def argvar_term(t):
        if t == 0.0:
            return 0.0
        return tc.ray_log_increment(t, phi).imag / t

    term1 = _quad(dtheta_term, 0.0, r, quad_tol, "sector d/dtheta term") / _TWO_PI
    term2 = _quad(argvar_term, 0.0, r, quad_tol, "sector ray term") / _TWO_PI
    term3 = _quad(lambda om: tc.log_abs(r * cmath.exp(1j * om)), phi, theta,
                  quad_tol, "sector arc term") / _TWO_PI
    return abs(lhs - (term1 + term2 + term3))


def jensen_suite(cases: int = 20, seed: int = 20260809):
    """Residuals of the Jensen-identity suite.

    Returns (listed, sectors, randomized): (name, residual, analytic left
    side) for three listed full-plane cases, (name, residual) for three
    sector cases, and the residuals of ``cases`` randomized full-plane cases
    at r = 3 drawn from ``seed``.
    """
    listed = [
        ("(z-i)/(z+i), r=2", JensenTestCase.make([1j], [-1j]), 2.0, math.log(2.0)),
        ("constant 1, r=3", JensenTestCase.make([], []), 3.0, 0.0),
        ("(z-2i)(z-3i)/((z+2i)(z+3i)), r=4",
         JensenTestCase.make([2j, 3j], [-2j, -3j]), 4.0, math.log(8.0 / 3.0)),
    ]
    lam = math.sqrt(2) * complex(math.cos(math.pi / 4), math.sin(math.pi / 4))
    z2 = 3 * complex(math.cos(math.pi / 3), math.sin(math.pi / 3))
    one = JensenTestCase.make([lam], [-lam])
    sectors = [
        ("one zero, sector (pi/8, 3pi/8), r=2", one, 2.0, math.pi / 8, 3 * math.pi / 8),
        ("one zero, sector (pi/2, 3pi/4), r=2", one, 2.0, math.pi / 2, 3 * math.pi / 4),
        ("two zeros, sector (pi/8, 5pi/12), r=4",
         JensenTestCase.make([lam, z2], [-lam, -z2]), 4.0, math.pi / 8, 5 * math.pi / 12),
    ]
    rng = np.random.default_rng(seed)
    randomized = []
    for _ in range(cases):
        r = 3.0
        n = int(rng.integers(1, 5))
        zeros = []
        while len(zeros) < n:
            c = complex(rng.uniform(-r / 2, r / 2), rng.uniform(0.05, r / 2))
            if abs(c) < r / 2:
                zeros.append(c)
        poles = [complex(z.real, -abs(z.imag)) * rng.uniform(0.5, 1.5) for z in zeros]
        randomized.append(jensen_residual(JensenTestCase.make(zeros, poles), r))
    return ([(name, jensen_residual(tc, r), lhs) for name, tc, r, lhs in listed],
            [(name, sector_jensen_residual(tc, r, phi, theta))
             for name, tc, r, phi, theta in sectors],
            randomized)


def _quad(fn, a, b, tol, what):
    value, err, info, *rest = quad(fn, a, b, epsabs=tol, epsrel=tol,
                                   limit=300, full_output=1)
    if rest:
        raise QuadratureError(f"{what}: {rest[0].strip()}",
                              estimate=value, achieved_error=err)
    return value
