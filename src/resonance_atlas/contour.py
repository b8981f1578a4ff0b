"""Argument-principle zero counting and the Jensen-type identity verifier.

Winding numbers are accumulated from phase increments along adaptively
sampled closed paths.  A step is rejected and refined whenever the phase
jumps by more than pi/2 between adjacent samples, which makes missing a full
turn impossible for analytic integrands: sneaking past a zero would force a
near-pi step on the neighbouring intervals first.  A minimum-modulus guard
turns "zero on the contour" into a typed error; the locator then moves it.
A box boundary is one closed sample loop, so the zero-finding quadtree
samples only the cross through each split point: a child's loop is its part
of its parent's loop, closed by two arms of the cross.

The quadtree descends level by level, since its boxes are independent
(Delves & Lyness, Math. Comp. 21, 1967): one call samples the arms of every
cross of a level into one sample array, and each refinement round is one
set of array operations on it and one call for the midpoints of all its
rejected intervals.  A leaf holds up to three simple zeros, seeded by the
Hankel pencil of its loop's power sums (Kravanja & Van Barel, LNM 1727,
2000); a level's seeds are one array pass, its loops' power sums segmented
sums over one sample array and its pencils one batched linear-algebra
stack per winding.  The leaves are polished together once the descent has
no box left to split, by one secant iteration with one call per step over
the seeds still active; a leaf whose iterates fail splits and descends
again.  Keyed, one descent runs the quadtrees of several functions over one
top box in lockstep, so a group of channels makes a few calls per level.

Functions are evaluated either directly or in "log form": a log-form
callable returns log f(z) (any branch per point); only phase differences and
log-magnitude differences are consumed, so the branch never matters.  Log
form lets the resonance solver count windings of channel functions whose
magnitudes span hundreds of decades.

One verifier checks the Jensen-type sector identity on rational functions;
the half plane is its widest sector (0, pi).  Every term reads one ray log.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace

import numpy as np

from .density import _integrate
from .errors import BoundaryConflictError, NumericalError

__all__ = [
    "ContourBox",
    "winding_count",
    "locate_zeros",
    "JensenTestCase",
    "jensen_residual",
    "sector_jensen_residual",
]

_TWO_PI = 2.0 * math.pi
# absolute and relative tolerance of the Jensen verifier's quadratures
_JENSEN_TOL = 1e-10
_IRR = math.sqrt(2.0) - 1.0
_MOVES = 7  # a contour that runs into a zero is moved at most this often
_REFINE_BUDGET = 200000  # midpoints one segment may gain under refinement
_LEAF_ZEROS = 3  # a leaf of diameter tol or more holds at most this many zeros
_PENCIL_WEIGHT = 0.2  # each pencil seed's weight in the power sums is 1 within this
# a seed's secant steps, and the bound on its last over its box's diameter
_PENCIL_STEPS, _PENCIL_NOISE = 12, 1e-9


# ---------------------------------------------------------------------------
# Boxes
# ---------------------------------------------------------------------------

@dataclass
class ContourBox:
    """Axis-aligned rectangle in the complex plane; ``key`` names the function
    of a keyed ``locate_zeros`` call whose zeros it holds."""

    lower_left: complex
    upper_right: complex
    depth: int = 0
    key: int = 0

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

    def quadrisect(self, jitter: float = 0.0):
        """Split into four children; jitter shifts the split point."""
        c = self.center + complex(jitter, jitter)
        ll, ur = self.lower_left, self.upper_right
        d = self.depth + 1
        return [
            ContourBox(ll, c, d, self.key),
            ContourBox(complex(c.real, ll.imag), complex(ur.real, c.imag), d, self.key),
            ContourBox(complex(ll.real, c.imag), complex(c.real, ur.imag), d, self.key),
            ContourBox(c, ur, d, self.key),
        ]


# ---------------------------------------------------------------------------
# Evaluation helpers
# ---------------------------------------------------------------------------

def _make_log_evaluator(f, log_form: bool, keyed: bool = False):
    """Wrap f, which maps an array of points (and if ``keyed`` their keys) to
    an array of the same shape, into a (zs, keys) -> log f(zs) evaluator."""

    def evaluate(zs: np.ndarray, keys=None) -> np.ndarray:
        vals = np.asarray(f(zs, keys) if keyed else f(zs), dtype=complex)
        if vals.shape != zs.shape:
            raise TypeError("f must map an array of points to an array of "
                            f"the same shape; got shape {vals.shape} for {zs.shape}")
        if log_form:
            return vals
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.log(vals)

    return evaluate


def _wrap_phase(d: np.ndarray) -> np.ndarray:
    return (d + math.pi) % _TWO_PI - math.pi


def _steps(ws: np.ndarray) -> np.ndarray:
    """Log increments around the closed sampled loop ws, wrapped in phase."""
    d = np.diff(ws, append=ws[:1])
    return d.real + 1j * _wrap_phase(d.imag)


def _sampled_edges(eval_w, items, spacing, keys=0) -> list:
    """Per item (segments, guard, what), one box boundary or the four arms
    of one cross: the samples (zs, ws) of log f along each of its segments,
    or the first BoundaryConflictError among them, named by its ``what``.

    ``spacing`` and ``keys`` are one per item or one for all; an item is
    evaluated under its key.  Each segment (z0, z1) is first sampled at most
    its item's spacing apart in at least 8 intervals.  All the samples of a
    call live in one array with a segment index per sample, so a refinement
    round is one set of array operations and one evaluation of all the
    midpoints.  A round rejects an interval when its wrapped phase step
    exceeds pi/2, and also when the full complex log-step of the interval
    *or a neighbour on its segment* is large: a zero of multiplicity m
    straddled symmetrically by one interval can carry a true phase step near
    2 pi (invisible after wrapping), but its neighbours then see the
    approach to the zero as a large log-modulus swing.  A segment leaves on
    a non-finite value or an interval that will not settle, may gain
    ``_REFINE_BUDGET`` midpoints, and then fails its item's guard where a
    finite-difference |f/f'| falls below the guard.
    """
    sizes = [len(segs) for segs, _, _ in items]
    owner = np.repeat(np.arange(len(items)), sizes)
    segments = [s for segs, _, _ in items for s in segs]
    key = np.broadcast_to(keys, len(items))[owner]
    t = [np.linspace(0.0, 1.0, max(8, math.ceil(abs(z1 - z0) / h)) + 1) for (z0, z1), h
         in zip(segments, np.broadcast_to(spacing, len(items))[owner].tolist())]
    seg = np.repeat(np.arange(len(segments)), [x.size for x in t])
    t = np.concatenate(t)
    z0 = np.array([z0 for z0, _ in segments], dtype=complex)
    dz = np.array([z1 - z0 for z0, z1 in segments], dtype=complex)
    zs = z0[seg] + t * dz[seg]
    ws = eval_w(zs, key[seg])
    errors, live = {}, np.ones(len(segments), dtype=bool)
    budget = np.full(len(segments), _REFINE_BUDGET)

    def reject(rejected, message):
        for i in rejected[live[rejected]].tolist():
            errors[i] = BoundaryConflictError(f"{items[owner[i]][2]}: {message}")
        live[rejected] = False

    while True:
        reject(np.unique(seg[~np.isfinite(ws)]),
               "non-finite (or exactly zero) value on the contour")
        at = seg[:-1]
        inner = live[at] & (at == seg[1:])
        with np.errstate(invalid="ignore"):
            dphi = _wrap_phase(np.diff(ws.imag))
            dw = np.abs(np.diff(ws.real) + 1j * dphi)
            steep = inner & (dw > 1.5)
            bad = (np.abs(dphi) > math.pi / 2.0) | steep
        bad[1:] |= steep[:-1]
        bad[:-1] |= steep[1:]
        bad &= inner
        reject(np.unique(at[bad & (np.diff(t) < 1e-12)]),
               "phase step will not settle under refinement "
               "(zero on or almost on the contour)")
        bad &= live[at]
        if not np.any(bad):
            break
        gained = np.bincount(at[bad], minlength=len(segments))
        live, budget = gained > 0, budget - gained
        if np.any(budget < 0):
            i = np.argmax(budget < 0)
            raise NumericalError(f"{items[owner[i]][2]}: refinement budget exhausted",
                                 key=int(key[i]))
        k = np.flatnonzero(bad)
        mids = 0.5 * (t[k] + t[k + 1])
        mz = z0[at[k]] + mids * dz[at[k]]
        t, zs, ws, seg = [np.insert(a, k + 1, v) for a, v in
                          ((t, mids), (zs, mz), (ws, eval_w(mz, key[at[k]])), (seg, at[k]))]
    guard = np.array([g for _, g, _ in items], dtype=float)[owner]
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where((seg[:-1] == seg[1:]) & (dw > 1e-9),
                         np.abs(np.diff(zs)) / dw, np.inf)
    starts = np.flatnonzero(np.diff(seg, prepend=-1))
    for i in np.flatnonzero(np.minimum.reduceat(ratio, starts) < guard).tolist():
        errors.setdefault(i, BoundaryConflictError(
            f"{items[owner[i]][2]}: a zero lies within {guard[i]:.3g} of the "
            "contour; perturb the box and retry"))
    sampled = [errors.get(i) or pair for i, pair in
               enumerate(zip(np.split(zs, starts[1:]), np.split(ws, starts[1:])))]
    return [next((e for e in part if isinstance(e, BoundaryConflictError)), part)
            for part in (sampled[b - n:b] for n, b in zip(sizes, np.cumsum(sizes)))]


def _boundary(box: ContourBox) -> list:
    """The box's bottom, right, top and left sides, counterclockwise."""
    cs = box.corners()
    return list(zip(cs, cs[1:] + cs[:1]))


def _spacing(box: ContourBox, samples: int) -> float:
    return 2.0 * (box.width + box.height) / samples


def _loop(sides) -> tuple:
    """The closed loop (zs, ws) of a box's sampled sides, counterclockwise
    from its lower left corner, each shared corner kept once."""
    return tuple(np.concatenate([side[i][:-1] for side in sides]) for i in (0, 1))


def _winding(loop) -> int:
    """Winding number of the closed sampled loop (zs, ws): its wrapped phase
    steps telescope, so their sum is 2 pi times an integer up to rounding."""
    return round(float(np.sum(_steps(loop[1]).imag)) / _TWO_PI)


def winding_count(f, box: ContourBox, *, log_form: bool = False) -> int:
    """Number of zeros of f inside the box, counted with multiplicity.

    f maps an array of points to an array of the same shape (of log f with
    ``log_form``), holomorphic near the closed box with no zero within 1e-3
    times the diameter of the boundary; a suspected boundary zero raises
    BoundaryConflictError.  The loop is first sampled at 32 points.
    """
    sides = _sampled_edges(_make_log_evaluator(f, log_form), [(
        _boundary(box), 1e-3 * box.diameter,
        f"winding over {box.lower_left}..{box.upper_right}")], _spacing(box, 32))[0]
    if isinstance(sides, BoundaryConflictError):
        raise sides
    return _winding(_loop(sides))


# ---------------------------------------------------------------------------
# Zero localization
# ---------------------------------------------------------------------------

def _newton_polish(eval_w, seeds, boxes, tol: float):
    """Secant iterations on log f, one per seed and its leaf box, each exact
    for a simple zero: rho = exp(log f_b - log f_a) equals (z_b - z*)/(z_a - z*).

    For analytic f this converges superlinearly and, unlike derivative
    stencils, keeps working arbitrarily close to the zero.  The iterations
    run together: one call evaluates every seed's first two points, and one
    call per step the new iterates of the seeds still active, each under its
    box's key; each seed's arithmetic is its own.  Returns, per seed, (zero,
    last log f there) where it stopped on a tiny step, a non-finite log f
    or, after ``_PENCIL_STEPS`` steps, a step below ``tol`` and
    ``_PENCIL_NOISE`` times its box's diameter (at a multiple zero the
    secant converges only linearly); else None (it stalled or stepped 3/4
    of that diameter outside its box).
    """
    n = len(seeds)
    if not n:
        return []
    out = [None] * n
    keys = np.array([b.key for b in boxes])
    za = list(seeds)
    zb = [z0 + 1e-5 * max(abs(z0), 1.0) * complex(0.6, 0.8) for z0 in seeds]
    values = eval_w(np.array(za + zb), np.tile(keys, 2)).tolist()
    wa, wb = values[:n], values[n:]
    active = []
    for i in range(n):
        if not cmath.isfinite(wa[i]):
            out[i] = za[i], wa[i]  # landed on an exact zero of f
        elif not cmath.isfinite(wb[i]):
            out[i] = zb[i], wb[i]
        else:
            active.append(i)
    for k in range(_PENCIL_STEPS + 1):
        moved = []
        for i in active:
            dw = wb[i] - wa[i]
            rho = cmath.exp(complex(dw.real, _wrap_phase(dw.imag)))
            if rho == 1.0:
                continue
            z_new = (zb[i] - rho * za[i]) / (1.0 - rho)
            step, b = abs(z_new - zb[i]), boxes[i]
            if k == _PENCIL_STEPS:  # out of steps: keep an iterate at noise level
                if step < min(tol, _PENCIL_NOISE * b.diameter):
                    out[i] = zb[i], wb[i]
            elif b.contains(z_new, pad=0.75 * b.diameter):
                za[i], wa[i], zb[i] = zb[i], wb[i], z_new
                moved.append((i, step))
        active = []
        if moved:
            ws = eval_w(np.array([zb[i] for i, _ in moved]), keys[[i for i, _ in moved]])
            for (i, step), w in zip(moved, ws.tolist()):
                wb[i] = w
                if not cmath.isfinite(w) or step < 1e-14 * max(abs(zb[i]), 1.0):
                    out[i] = zb[i], w
                else:
                    active.append(i)
        if not active:
            break
    return out


def _moved(whats, keys, attempt):
    """Each item's result under its first move k = 0, 1, ..., _MOVES of its
    contour that meets no boundary conflict; move k shifts it by
    k (sqrt 2 - 1) steps.

    attempt(items, k) gives, for each listed item (an index into ``whats``),
    its result under move k or the BoundaryConflictError that rejects it.
    The items are tried together and only the conflicting ones move on, so
    an item's moves do not depend on the others; the first item still in
    conflict after the last move raises, with its ``whats`` and ``keys``.
    """
    results = [None] * len(whats)
    pending = list(range(len(whats)))
    for k in range(_MOVES + 1):
        for i, r in zip(pending, attempt(pending, k)):
            results[i] = r
        pending = [i for i in pending if isinstance(results[i], BoundaryConflictError)]
        if not pending:
            return results
    last = results[pending[0]]
    raise BoundaryConflictError(
        f"{whats[pending[0]]}: boundary conflicts persist after {_MOVES} moves; "
        f"last: {last}", key=keys[pending[0]]) from last


def _winding_with_perturbation(eval_w, boxes, samples: int, what: str,
                               ceiling: float = math.inf,
                               guard_dist: float | None = None):
    """Windings of boxes, each grown on its own boundary conflicts.

    Returns one (winding, effective_box, loop) per box; the boxes are
    sampled together, each under its key.  Move k (``_moved``) grows a box
    on every side by k (sqrt 2 - 1) times 2e-3 of its diameter, with its
    top edge clamped at ``ceiling``, a line the caller must not cross.
    Growth never loses interior zeros; it may capture a zero just outside
    the requested box.  The effective box's winding counts that zero, so
    ``locate_zeros``, which keeps exactly the zeros inside the effective
    box, returns it too.  guard_dist overrides the default minimum
    zero-to-contour distance of 1e-3 times the diameter (large sweep
    contours legitimately pass close to zeros they enclose).
    """
    def attempt(items, k):
        effs = []
        for b in (boxes[i] for i in items):
            m = complex(1.0, 1.0) * (2e-3 * b.diameter * k * _IRR)
            ur = b.upper_right + m
            effs.append(replace(b, lower_left=b.lower_left - m,
                                upper_right=complex(ur.real, min(ur.imag, ceiling))))
        guards = [1e-3 * e.diameter if guard_dist is None else guard_dist for e in effs]
        sides = _sampled_edges(eval_w, [(_boundary(e), g, what) for e, g in zip(effs, guards)],
                               [_spacing(e, samples) for e in effs], [e.key for e in effs])
        loops = [s if isinstance(s, BoundaryConflictError) else _loop(s) for s in sides]
        return [lp if isinstance(lp, BoundaryConflictError) else (_winding(lp), eff, lp)
                for lp, eff in zip(loops, effs)]

    return _moved([what] * len(boxes), [b.key for b in boxes], attempt)


def locate_zeros(f, box: ContourBox, tol: float, *,
                 log_form: bool = False, samples: int = 32,
                 ceiling: float = math.inf,
                 guard_dist: float | None = None, keys=None):
    """All zeros of f inside the box, as (location, multiplicity) pairs.

    f maps an array of points to an array of the same shape (of log f with
    ``log_form``).  Quadrisects level by level down to leaf boxes: boxes of
    diameter below ``tol``, or of winding at most ``_LEAF_ZEROS`` (three)
    that ``_seeds`` seeds from the Hankel pencil of their loops' power sums,
    all boxes of a level in one array pass.
    A leaf below ``tol`` reports its winding centroid as one zero of
    multiplicity w; any other holds w simple zeros (``_leaf_zeros``) or
    splits again.

    No two leaves report the same zero: leaves do not overlap, an accepted
    location lies inside its own leaf, the zeros of one leaf lie apart, and
    the guard checks keep every zero off the sides the leaves share.  The
    result is exact: it holds the zeros that lie inside the top box actually
    wound (the box after any perturbation by ``_winding_with_perturbation``,
    which may have grown it slightly), sorted by (real, imag), and their
    multiplicities sum to that box's winding; otherwise NumericalError names
    both numbers and the box.

    ``samples`` (at least 1; ``tol`` is finite and >= 0) sets the initial
    sampling of the top box's boundary and, through its spacing (perimeter
    over ``samples``), that of the cross through every split point; a child
    box's loop takes over its part of its parent's loop (``_children``).
    ``guard_dist`` is the minimum zero-to-contour distance of the top box
    and of every cross (default 1e-3 times the top box's diameter, and 1e-3
    times a child's diameter for a cross).

    The descent makes one call of f per level, refinement round and secant
    step (``_split_boxes``, ``_leaf_zeros``; module docstring), and every
    check of a box-by-box descent applies per segment, box or seed: a box's
    segmented power sums and its pencil do not depend on the other boxes
    of its level.  So where f's value at a point does not depend on the
    other points of its call (the resonance matcher's does not, bit for
    bit), the zeros are those of a box-by-box descent.

    With distinct integer ``keys``, f(zs, ks) evaluates each point of zs
    under its own key in ks, and one function per key descends over the same
    top box in lockstep: every box, leaf and seed carries its key, so each
    level of all the keys is one call of f.  Each key's top box moves on its
    own, and each key's zeros must match its own top box's winding exactly.
    Returns each key's zeros, in key order, as a call for that key alone
    would; a NumericalError raised for one key carries it as its ``key``.
    """
    if not (math.isfinite(tol) and tol >= 0):
        raise ValueError(f"tol must be finite and >= 0; got {tol}")
    if not samples >= 1:
        raise ValueError(f"samples must be >= 1; got {samples}")
    eval_w = _make_log_evaluator(f, log_form, keys is not None)
    tops = _winding_with_perturbation(
        eval_w, [replace(box, key=k) for k in ([0] if keys is None else keys)],
        samples, "locate_zeros top box", ceiling, guard_dist)
    spacing = {b.key: _spacing(b, samples) for _, b, _ in tops}
    found = []  # (zero, multiplicity, key)
    level, leaves = [(b, w, loop) for w, b, loop in tops], []
    while level or leaves:
        if level:
            for b, w, _ in level:
                if w < 0:
                    raise NumericalError(
                        f"negative winding {w} over box at {b.center:.6g}: the "
                        "integrand has a pole inside (not holomorphic)", key=b.key)
            wound = [x for x in level if x[1] > 0]
            seeded = list(zip(wound, _seeds(wound, tol)))
            split = [x for x, zs in seeded if not zs]
            leaves += [(*x, zs) for x, zs in seeded if zs]
        else:  # the descent is done: polish its leaves, split the failures
            zeros = _leaf_zeros(eval_w, leaves, tol)
            found += [(z, m, x[0].key) for x, zs in zip(leaves, zeros) for z, m in zs or ()]
            split = [x[:3] for x, zs in zip(leaves, zeros) if zs is None]
            leaves = []
        level = [child for children in _split_boxes(
            eval_w, split, [spacing[b.key] for b, _, _ in split], guard_dist)
                 for child in children]
    out = [_zeros_inside([x[:2] for x in found if x[2] == b.key], b, w) for w, b, _ in tops]
    return out[0] if keys is None else out


def _leaf_zeros(eval_w, leaves, tol: float):
    """The (zero, multiplicity) pairs in each leaf (box, w, loop, seeds),
    or None where the box must split.  Below ``tol`` its seed, the winding
    centroid, has multiplicity w.  Otherwise it holds w simple zeros, its
    seeds' secant iterates, each inside the closed box (an iterate may
    slide to a zero of another box), more than ``tol`` from the others, and
    below the smallest log |f| on the box's loop (the zero test: from a
    coarse seed the secant can stop on a tiny step off any zero).
    """
    flat = [(b, z) for b, _, _, zs in leaves if b.diameter >= tol for z in zs]
    polished = iter(_newton_polish(eval_w, [z for _, z in flat], [b for b, _ in flat], tol))
    out = []
    for b, w, (_, ws), zs in leaves:
        if b.diameter < tol:
            out.append([(zs[0], w)])
            continue
        floor = float(ws.real.min())
        got = [z for z, v in filter(None, [next(polished) for _ in zs])
               if b.contains(z) and v.real < floor]
        apart = all(abs(z - y) > tol for k, z in enumerate(got) for y in got[:k])
        out.append([(z, 1) for z in got] if len(got) == w and apart else None)
    return out


def _seeds(level, tol: float) -> list:
    """The secant seeds of each (box, w, loop) of a level, w > 0, or none
    where the box splits, from its loop's power sums s_p in u = (z - c)/h
    (c the centre, h half the diameter): below ``tol``, the winding
    centroid c + h s_1/s_0; for w up to ``_LEAF_ZEROS``, c + h eig(H1, H0)
    of the Hankel pencil of s_0 .. s_(2w-1) (the centroid at w = 1), unless
    a seed lies a quarter diameter outside the box or the seeds give
    s_0 .. s_(w-1) back with a weight off 1 by more than ``_PENCIL_WEIGHT``
    (a multiple or spurious seed).  One array pass seeds the level: the
    power sums are segmented sums over one concatenated sample array, and
    the pencils of each winding one stack for batched ``np.linalg``.
    """
    if not level:
        return []
    boxes = [b for b, _, _ in level]
    wind = np.array([0 if b.diameter < tol else w for b, w, _ in level])  # 0: below tol
    sizes = [loop[0].size for _, _, loop in level]
    zs, ws = (np.concatenate([loop[j] for _, _, loop in level]) for j in (0, 1))
    starts = np.cumsum(sizes) - sizes
    nxt = np.arange(1, zs.size + 1)
    nxt[starts + sizes - 1] = starts  # each loop closes on its first sample
    seg = np.repeat(np.arange(len(level)), sizes)
    c = np.array([b.center for b in boxes])
    h = 0.5 * np.array([b.diameter for b in boxes])
    d = ws[nxt] - ws
    term, u = d.real + 1j * _wrap_phase(d.imag), (0.5 * (zs + zs[nxt]) - c[seg]) / h[seg]
    s = np.empty((len(level), 2 * _LEAF_ZEROS), dtype=complex)
    for p in range(2 * _LEAF_ZEROS):  # midpoint rule for the loop integrals of u^p dlog f
        s[:, p] = np.add.reduceat(term, starts)
        term = term * u
    pad = 0.5 * h * (1 + 1j)  # a quarter diameter on each side
    lo, hi = (np.array([b.lower_left for b in boxes]) - pad,
              np.array([b.upper_right for b in boxes]) + pad)

    def inside(z, r):  # the rows r whose seeds z all lie within the pad of their box
        return ((lo[r, None].real <= z.real) & (z.real <= hi[r, None].real)
                & (lo[r, None].imag <= z.imag) & (z.imag <= hi[r, None].imag)).all(axis=1)

    out = [[] for _ in level]
    r = (wind == 0).nonzero()[0]
    m1 = (c[r] + h[r] * s[r, 1] / s[r, 0])[:, None]
    for i, z, keep in zip(r.tolist(), m1[:, 0].tolist(), inside(m1, r).tolist()):
        out[i] = [z if keep else boxes[i].center]
    for w in range(1, _LEAF_ZEROS + 1):
        r = (wind == w).nonzero()[0]
        if r.size:
            u, weights = _pencils(s[r, :2 * w], w)
            z = c[r, None] + h[r, None] * u
            good = (np.abs(weights - 1) <= _PENCIL_WEIGHT).all(axis=1) & inside(z, r)
            for i, zi in zip(r[good].tolist(), z[good].tolist()):
                out[i] = zi
    return out


def _pencils(s, w: int):
    """The eigenvalues u of the Hankel pencils (H1, H0) of the rows of power
    sums s, and the weights that give s_0 .. s_(w-1) back; batched
    ``np.linalg`` solves each row on its own, and a row whose pencil is
    singular gets NaN."""
    ij = np.add.outer(np.arange(w), np.arange(w))
    try:
        u = np.linalg.eigvals(np.linalg.solve(s[:, ij], s[:, ij + 1]))
        vander = u[:, None, :] ** np.arange(w)[:, None]
        return u, np.linalg.solve(vander, s[:, :w, None])[..., 0] / (2j * math.pi)
    except np.linalg.LinAlgError:
        if len(s) == 1:
            return (np.full((1, w), np.nan + 0j),) * 2
        return tuple(map(np.concatenate, zip(*(_pencils(s[i:i + 1], w) for i in range(len(s))))))


def _zeros_inside(found, box: ContourBox, winding: int):
    """The located zeros that lie inside the box, sorted by (real, imag);
    their multiplicities must sum to the box's winding.  The centroid of a
    leaf below the zero tolerance, the one location not confined to its
    leaf, may lie just outside the top box."""
    zeros = sorted(((z, m) for z, m in found if box.contains(z)),
                   key=lambda p: (p[0].real, p[0].imag))
    count = sum(m for _, m in zeros)
    if count != winding:
        raise NumericalError(
            f"located {count} zeros inside the box {box.lower_left:.6g}.."
            f"{box.upper_right:.6g} but its winding is {winding}", key=box.key)
    return zeros


def _split_boxes(eval_w, boxes, spacing, guard_dist: float | None = None):
    """Quadrisect each (box, winding, loop) of ``boxes`` into its
    (child, winding, loop) triples.

    Only the cross through a box's split point is sampled, under the box's
    key and at ``spacing`` (one per box, or one for all); the children take
    over the samples of the box's loop (``_children``), which have passed
    their refinement and guard checks already, so only the cross can run
    into a zero.  An arm's end cuts one step of the loop into two; a wrong
    wrap of either is the only way the children's windings can fail to sum
    to w, so that sum is checked too.  Either conflict moves that box's split
    point (``_moved``) by k (sqrt 2 - 1) sixteenths of its width along the
    diagonal.  The arms of all the crosses of one move are sampled and
    refined together, one item per cross (``_sampled_edges``).
    """
    if not boxes:
        return []
    for b, _, _ in boxes:
        if b.depth > 60:
            raise NumericalError(f"subdivision depth exhausted at {b.center:.6g}", key=b.key)
    whats = [f"cross of box at {b.center:.6g}" for b, _, _ in boxes]
    spacing = np.broadcast_to(spacing, len(boxes))

    def attempt(items, k):
        crosses, arms = [], []
        for i in items:
            b = boxes[i][0]
            children = b.quadrisect(b.width * _IRR / 16.0 * k)
            c = children[0].upper_right
            ends = [children[1].lower_left, children[1].upper_right,
                    children[2].upper_right, children[2].lower_left]
            crosses.append(children)
            arms.append(([(c, e) for e in ends],
                         guard_dist if guard_dist is not None else 0.5e-3 * b.diameter,
                         whats[i]))
        return [_children(boxes[i], children, a) for i, children, a in zip(
            items, crosses, _sampled_edges(eval_w, arms, spacing[items],
                                           [boxes[i][0].key for i in items]))]

    return _moved(whats, [b.key for b, _, _ in boxes], attempt)


def _children(box, children, arms):
    """The (child, winding, loop) triples of box = (b, w, loop) split by
    the cross of the four sampled ``arms``, or the BoundaryConflictError
    that rejects the cross (which ``arms`` may already be).

    Arm k runs from the split point to side k (bottom, right, top, left)
    and cuts the loop there.  The child at corner k is the loop's samples
    strictly between cuts k - 1 and k (a sample an arm ends on is the
    arm's), then arm k back to the split point and arm k - 1 out again.
    """
    if isinstance(arms, BoundaryConflictError):
        return arms
    _, w, (zs, ws) = box
    # an end's cut is i + t on the nearest segment i, from zs[i] by d[i]
    d = np.roll(zs, -1) - zs
    ends = np.array([z[-1] for z, _ in arms])[:, None]
    t = np.clip(((ends - zs) * d.conj()).real / (d * d.conj()).real, 0.0, 1.0)
    i = np.argmin(np.abs(zs + t * d - ends), axis=1)
    cuts = (i + t[np.arange(4), i]).tolist()
    loops = []
    for k in (0, 1, 3, 2):  # the corners of ``children``, in its order
        lo, hi = cuts[k - 1], cuts[k]
        inner = np.arange(math.floor(lo) + 1, math.ceil(hi + zs.size * (hi < lo))) % zs.size
        loops.append(tuple(np.concatenate((x[inner], arms[k][j][::-1], arms[k - 1][j][1:]))
                           for j, x in enumerate((zs, ws))))
    windings = [_winding(loop) for loop in loops]
    if sum(windings) != w:
        return BoundaryConflictError(
            f"its children's windings {windings} do not sum to {w}")
    return list(zip(children, windings, loops))


# ---------------------------------------------------------------------------
# Jensen-type identity verifiers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class JensenTestCase:
    """Rational f = prod(z - a) / prod(z - p), zeros a in the open upper half
    plane, poles p in the open lower; read as log(f(z) / f(0)), unnormalised."""

    zeros: tuple
    poles: tuple

    def __post_init__(self):
        for z in self.zeros:
            if z.imag <= 0:
                raise ValueError(f"zero {z} is not in the open upper half plane")
        for p in self.poles:
            if p.imag >= 0:
                raise ValueError(f"pole {p} is not in the open lower half plane")

    @classmethod
    def make(cls, zeros, poles) -> "JensenTestCase":
        return cls(zeros=tuple(complex(z) for z in zeros),
                   poles=tuple(complex(p) for p in poles))

    def ray_log_increment(self, t, angle):
        """Continuous log f(t e^{i angle}) - log f(0) along the ray; its real
        part is ln|f(t e^{i angle}) / f(0)| on every branch.  t and angle
        broadcast as arrays; scalars give a complex.

        Each factor contributes Log((t e^{i angle} - a)/(-a)) with the
        principal branch, which is exact for straight paths because a segment
        never subtends an angle pi or more from an external point.
        """
        z = np.multiply(t, np.exp(1j * np.asarray(angle, dtype=float)))
        acc = np.zeros(np.shape(z), dtype=complex)
        for a in self.zeros:
            acc += np.log((z - a) / (-a))
        for p in self.poles:
            acc -= np.log((z - p) / (-p))
        return acc if acc.shape else complex(acc)


def jensen_residual(tc: JensenTestCase, r: float) -> float:
    """Residual of the half-plane Jensen-type identity at radius r: the
    sector identity over (0, pi), whose two ray terms add up to the argument
    variation along the real axis."""
    return sector_jensen_residual(tc, r, 0.0, math.pi)


def sector_jensen_residual(tc: JensenTestCase, r: float, phi: float,
                           theta: float) -> float:
    """Residual of the sector zero-counting identity at radius r for
    0 <= phi < theta <= pi.

    Left side: sum of ln(r/|a|) over the zeros with |a| <= r and
    phi < arg a < theta.  The three right-hand terms, by quadrature to 1e-10
    of L(t, w) = ``ray_log_increment(t, w)``: the theta-derivative of the
    logarithmic means J^t, the argument variation along the ray at angle phi,
    and the integral of Re L(r, w) = ln|f(r e^{iw}) / f(0)| from phi to theta.
    Raises ValueError for r <= 0, a zero or pole on |z| = r, and a zero within
    1e-12 rad of a boundary ray (at phi = 0 and theta = pi: of the real
    axis); the poles lie in the lower half plane, outside every sector.
    """
    if not 0.0 <= phi < theta <= math.pi:
        raise ValueError("sector angles must satisfy 0 <= phi < theta <= pi")
    if not r > 0:
        raise ValueError("radius must be positive")
    for a in tc.zeros + tc.poles:
        if abs(abs(a) - r) < 1e-12:
            raise ValueError(f"zero/pole {a} sits on the circle |z| = r; perturb r")
    for a in tc.zeros:
        if abs(a) <= r * (1 + 1e-12):
            ang = cmath.phase(a)
            if abs(ang - phi) < 1e-12 or abs(ang - theta) < 1e-12:
                raise ValueError(f"zero {a} lies on a sector boundary ray")

    lhs = sum(math.log(r / abs(a)) for a in tc.zeros
              if abs(a) <= r and phi < cmath.phase(a) < theta)

    def ray_term(angle, sign):
        return lambda t, rows: sign * tc.ray_log_increment(t, angle).imag / t

    term1 = _integrate(ray_term(theta, -1.0), 0.0, r, "sector d/dtheta term",
                       _JENSEN_TOL, _JENSEN_TOL) / _TWO_PI
    term2 = _integrate(ray_term(phi, 1.0), 0.0, r, "sector ray term",
                       _JENSEN_TOL, _JENSEN_TOL) / _TWO_PI
    term3 = _integrate(lambda om, rows: tc.ray_log_increment(r, om).real, phi, theta,
                       "sector arc term", _JENSEN_TOL, _JENSEN_TOL) / _TWO_PI
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
    if cases < 0:
        raise ValueError(f"cases must be non-negative, got {cases}")
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
