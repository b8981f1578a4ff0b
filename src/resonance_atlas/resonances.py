"""Resonances of -Laplacian + V in dimension 3 for radial step potentials.

A step potential of depth v0 supported on |x| <= a scatters partial waves
independently; in channel ell the outgoing-matching condition is the
Wronskian-type function

    W_ell(lambda) = k j_ell'(k a) h_ell(lambda a) - lambda j_ell(k a) h_ell'(lambda a),
    k = sqrt(lambda^2 - v0),

whose zeros in the open lower half plane are the channel-ell resonances,
each carrying the spherical-harmonic weight 2 ell + 1.

The solver never works with W directly: W carries a removable factor k^ell
(so the naive function vanishes at lambda^2 = v0 for every ell >= 1 and, for
odd ell, is not even single-valued in lambda), and its magnitude spans
hundreds of decades over a search region.  Both problems disappear for

    g_ell(lambda) = (2 ell + 1)!! (lambda a)^(ell+1) W_ell(lambda) / k^ell,

which is analytic in lambda and is evaluated here in log form
(log-magnitude plus phase), the representation the contour machinery
consumes.  Zeros of g_ell in the open lower half plane coincide with the
resonances exactly.

Deep in the lower half plane the two products in W are each of size
e^(2 |Im lambda| a) while their difference, for a weak well, is close to the
free Wronskian -i / (lambda a^2); in double precision the difference is then
rounding noise (or exactly 0).  Integrating
d/dr [r^2 (f' g - f g')] = v0 r^2 f g for f = j_ell(k r), g = h_ell(lambda r)
from 0 to a gives the identity

    g_ell(lambda) = (2 ell + 1)!! a^(ell-1)
                    [ -i + v0 lambda^(ell+1) k^(-ell) int_0^a r^2 j_ell(k r) h_ell(lambda r) dr ],

in which the free value is exact and the potential enters only through an
explicit factor v0.  Expanding j_ell(k r) about j_ell(lambda r) by the
multiplication theorem (k^2 - lambda^2 = -v0) integrates the bracket term by
term in closed form:

    [ ... ] = sum_{n >= 0} (v0 a^2 / 2)^n / n!  z^(2-n)
              (j_(ell+n-1)(z) h_ell(z) - j_(ell+n)(z) h_(ell-1)(z)),   z = lambda a,

whose n = 0 term is exactly -i and whose terms lose at most a few digits
where the direct formula loses all of them.  ``channel_matcher_log`` uses
this series only at points where the direct Wronskian has lost digits, so
strong wells keep the one-Bessel-pair direct path.
"""

from __future__ import annotations

import cmath
import json
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .contour import _IRR, ContourBox, locate_zeros
# not called here; kept importable because perfbench/tracing.py wraps it by name
from .contour import _winding_with_perturbation  # noqa: F401
from .errors import EvaluationOverflowError, NumericalError
from .special import (_at, _log_double_factorial, _per_order, sph_h_pair_log, sph_j_pair_log,
                      sph_j_series)

__all__ = [
    "RadialStepPotential",
    "Resonance",
    "ResonanceSet",
    "channel_condition",
    "channel_matcher_log",
    "ell_cutoff",
    "find_resonances",
    "scattering_log_det",
]

# The direct Wronskian is trusted while its condition number stays below
# this (about 1e-11 relative error); beyond it the potential series is used.
_DIRECT_COND_MAX = 1e5
_SERIES_MAX_TERMS = 200
# every located resonance must satisfy |W_ell(lambda)| below this
_RESIDUAL_TOL = 1e-6
_MATCHER_PIECE = 8192  # points per matcher piece (``channel_matcher_log``)
_GROUP_SAMPLES = 2048  # frame samples per group of channels (``_solve_channels``)


@dataclass(frozen=True)
class RadialStepPotential:
    """V(x) = v0 on |x| <= a, zero outside, in dimension 3."""

    a: float
    v0: complex

    def __post_init__(self):
        if not (math.isfinite(self.a) and self.a > 0):
            raise ValueError(f"potential radius a must be positive and finite; got {self.a}")
        if not cmath.isfinite(self.v0):
            raise ValueError(f"potential depth v0 must be finite; got {self.v0}")

    @property
    def is_free(self) -> bool:
        return self.v0 == 0

    def to_dict(self):
        return {"a": self.a, "v0_re": self.v0.real, "v0_im": self.v0.imag}

    @classmethod
    def from_dict(cls, doc):
        return cls(a=doc["a"], v0=complex(doc["v0_re"], doc["v0_im"]))


@dataclass(frozen=True)
class Resonance:
    """A located pole: channel ell, weight 2*ell+1, residual |W_ell(lambda)|."""

    lam: complex
    ell: int
    residual: float

    def __post_init__(self):
        if self.lam.imag >= 0:
            raise ValueError("resonances lie strictly in the lower half plane")

    @property
    def multiplicity(self) -> int:
        return 2 * self.ell + 1


def arg_lower(lam: complex) -> float:
    """Argument in (pi, 2*pi) for a lower-half-plane point."""
    return math.atan2(lam.imag, lam.real) + 2.0 * math.pi


@dataclass
class ResonanceSet:
    potential: RadialStepPotential
    search_radius: float
    resonances: list[Resonance]
    ell_max: int
    tolerances: dict = field(default_factory=dict)

    def __post_init__(self):
        self.resonances = sorted(
            self.resonances, key=lambda r: (abs(r.lam), arg_lower(r.lam), r.ell))

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as f:
            f.write("ell,re_lambda,im_lambda,multiplicity,residual\n")
            for r in self.resonances:
                f.write(f"{r.ell},{r.lam.real:.17g},{r.lam.imag:.17g},"
                        f"{r.multiplicity},{r.residual:.17g}\n")

    def to_json(self, path) -> None:
        doc = {
            "potential": self.potential.to_dict(),
            "search_radius": self.search_radius,
            "ell_max": self.ell_max,
            "tolerances": self.tolerances,
            "resonances": [
                {"ell": r.ell, "re_lambda": r.lam.real, "im_lambda": r.lam.imag,
                 "multiplicity": r.multiplicity, "residual": r.residual}
                for r in self.resonances
            ],
        }
        with open(path, "w") as f:
            json.dump(doc, f, indent=1)
            f.write("\n")

    @classmethod
    def from_json(cls, path) -> "ResonanceSet":
        """The set ``to_json`` wrote to path; a malformed file raises
        ValueError naming the file and the entry."""
        entry = "top level"
        try:
            with open(path) as f:
                doc = json.load(f)
            if not isinstance(doc, dict):
                raise TypeError(f"expected a JSON object, got {type(doc).__name__}")
            resonances = []
            for i, r in enumerate(doc["resonances"]):
                entry = f"resonance {i}"
                res = Resonance(lam=complex(r["re_lambda"], r["im_lambda"]),
                                ell=r["ell"], residual=r["residual"])
                if not (isinstance(res.ell, int) and res.ell >= 0
                        and r["multiplicity"] == res.multiplicity):
                    raise ValueError("needs an integer ell >= 0 and multiplicity 2*ell + 1, "
                                     f"got ell {res.ell}, multiplicity {r['multiplicity']}")
                resonances.append(res)
            entry = "top level"
            radius, ell_max, tol = doc["search_radius"], doc["ell_max"], doc["tolerances"]
            if not (type(radius) in (int, float) and 0 < radius < math.inf
                    and type(ell_max) is int and ell_max >= 0 and isinstance(tol, dict)):
                raise ValueError("needs a positive finite search_radius, an integer ell_max "
                                 f">= 0 and a tolerances object, got {radius!r}, {ell_max!r} "
                                 f"and a {type(tol).__name__}")
            return cls(potential=RadialStepPotential.from_dict(doc["potential"]),
                       search_radius=radius, ell_max=ell_max, tolerances=tol, resonances=resonances)
        except KeyError as exc:
            raise ValueError(f"{path}: {entry}: missing key {exc}") from exc
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{path}: {entry}: {exc}") from exc


# ---------------------------------------------------------------------------
# Channel functions
# ---------------------------------------------------------------------------

def channel_condition(ell: int, pot: RadialStepPotential, lam):
    """The bare matching function W_ell(lambda) (scalar or array).

    Uses the principal branch of k = sqrt(lambda^2 - v0); flipping the branch
    multiplies W by (-1)^ell, which leaves the zero set unchanged.  The value
    is W = g_ell k^ell / ((2 ell + 1)!! (lambda a)^(ell+1)) from the
    cancellation-safe matcher, so it keeps its digits for weak wells deep in
    the lower half plane.  Raises EvaluationOverflowError when the value
    exceeds double range.
    """
    arr = np.atleast_1d(np.asarray(lam, dtype=complex))
    scalar = np.shape(lam) == ()
    if np.any(arr == 0):
        raise ValueError("channel condition requires lambda != 0")
    flat = arr.ravel()
    logw = (channel_matcher_log(ell, pot)(flat) - _log_double_factorial(2 * ell + 1)
            - (ell + 1) * np.log(flat * pot.a))
    if ell > 0:
        # lambda^2 = v0 makes k = 0; W carries the factor k^ell and vanishes
        k = np.sqrt(flat * flat - pot.v0)
        kz = k == 0
        with np.errstate(divide="ignore", invalid="ignore"):
            logw = logw + ell * np.log(np.where(kz, 1.0, k))
        logw[kz] = -np.inf
    if np.any(logw.real > 709.0):
        raise EvaluationOverflowError(
            f"channel condition overflows double range in channel {ell}")
    with np.errstate(under="ignore"):
        out = np.where(np.isneginf(logw.real), 0.0, np.exp(logw))
    return complex(out[0]) if scalar else out.reshape(np.shape(lam))


def _potential_series_log(ell, a: float, v0: complex, z: np.ndarray,
                          hm1: np.ndarray, hl: np.ndarray, sh: np.ndarray):
    """log of the bracket of the integral identity (module docstring), summed
    as the multiplication-theorem series.

    (hm1, hl, sh) is the scaled Hankel pair at z = lambda a.  The terms shrink
    like (|v0| a^2 / (2 |z|))^n / n!, so the sum is free of cancellation
    wherever the direct formula is flagged (|v0| small against |lambda|^2).
    Each point stops at its own first settled term (n >= 2) and adds its
    terms one by one in order, so its value depends neither on the other
    points of the call nor on their orders.  A point whose series has not
    settled within ``_SERIES_MAX_TERMS`` terms raises NumericalError.
    """
    # n = 0: z^2 (j_(ell-1) h_ell - j_ell h_(ell-1)) is -i
    logs = [np.full(z.shape, complex(0.0, -math.pi / 2))]
    last = np.zeros(z.shape, dtype=int)  # index of each point's last term
    if v0 != 0:
        settled = np.zeros(z.shape, dtype=bool)
        log_c = cmath.log(v0 * a * a / 2.0)
        peak = np.zeros(z.shape)
        log_z = np.log(z)
        for n in range(1, _SERIES_MAX_TERMS + 1):
            jm1, jn, sj = sph_j_pair_log(ell + n, z)
            with np.errstate(divide="ignore", invalid="ignore"):
                term = (n * log_c - math.lgamma(n + 1) + (2 - n) * log_z
                        + np.log(jm1 * hl - jn * hm1) + sj + sh)
            logs.append(term)
            last[~settled] = n
            peak = np.fmax(peak, term.real)
            if n >= 2:
                settled |= term.real < peak - 40.0  # below 4e-18 of the largest term
                if settled.all():
                    break
        else:
            i = np.flatnonzero(~settled)[0]
            raise NumericalError(
                f"potential series of order {int(_at(ell, i))} at lambda = "
                f"{complex(z[i] / a)} has not settled in {_SERIES_MAX_TERMS} terms",
                key=int(_at(ell, i)))
    terms = np.array(logs)
    used = np.arange(len(logs))[:, None] <= last
    top = np.where(used, terms.real, -np.inf).max(axis=0)
    with np.errstate(under="ignore", invalid="ignore"):
        parts = np.exp(terms - top)
    total = parts[0]
    for part, use in zip(parts[1:], used[1:]):
        np.add(total, part, out=total, where=use)
    with np.errstate(divide="ignore"):
        return np.log(total) + top


def channel_matcher_log(ell, pot: RadialStepPotential, kind: int = 1):
    """Vectorized lambda-array -> log g_ell(lambda) evaluator (log form).

    ``ell`` is an int order, or an integer array of orders of the shape of
    the lambda arrays the evaluator is given, one order per point.  A
    point's value does not depend, bit for bit, on the other points of its
    call or on their orders: an array call gives each point the value of an
    int call with its order, on that point alone or among any others, of
    any size: calls run in pieces of ``_MATCHER_PIECE`` points, below the
    16,384 complex values at which numpy turns a product into an in-place
    one, whose swapped operands change an FMA complex product's bits.

    g_ell = (2 ell + 1)!! (lambda a)^(ell+1) W_ell / k^ell is an entire
    function of lambda: the k^ell quotient removes the removable branch
    factor at lambda^2 = v0 (assembled from the even power series of
    j_ell(z)/z^ell near that point, so the square root never enters), and
    the (lambda a)^(ell+1) factor cancels the Hankel pole at the origin,
    which would otherwise sit a hair above the search region and poison
    winding counts on nearby boxes.  Zeros in the open lower half plane are
    exactly the channel resonances.

    Elsewhere W is first formed directly from one Bessel and one Hankel
    pair.  Its condition number -- the larger of the two products over the
    expected size of W, 1 / (|lambda| a^2) + |v0 j_ell h_ell| / (|k| + |lambda|),
    times 1 + a |lambda|^2 / (2 |k|) for the rounding of v0 in
    k = sqrt(lambda^2 - v0) -- flags the points where the difference has
    lost digits (weak wells deep in the lower half plane).  The expected size
    rather than |W| itself is used so that the ordinary loss of relative
    accuracy next to a zero does not trigger the series.  There g_ell is
    taken from the integral identity of the module docstring,

        g_ell = (2 ell + 1)!! a^(ell-1) [ -i + v0 lambda^(ell+1) k^(-ell)
                                          int_0^a r^2 j_ell(k r) h_ell(lambda r) dr ],

    with the integral summed in closed form as the multiplication-theorem
    series.  The free well's value -i (2 ell + 1)!! a^(ell-1) is then exact.

    ``kind=2`` gives the incoming matcher (h_ell^(2) for h_ell^(1)) as
    lambda -> conj(g_ell[conj v0](conj lambda)), g_ell[v] being the outgoing
    matcher of depth v.  This is exact: h_ell^(2)(z) = conj(h_ell^(1)(conj z))
    since spherical Hankel functions are finite sums in e^(+-iz)/z with no
    branch cut, j_ell(k a)/k^ell and k j_ell'(k a)/k^ell are power series in
    k^2 = lambda^2 - v0 with real coefficients, and so is the normalisation
    (2 ell + 1)!! (lambda a)^(ell+1) in lambda.
    """
    a = pot.a
    v0 = pot.v0.conjugate() if kind == 2 else pot.v0
    lndd = _per_order(lambda n: _log_double_factorial(2 * n + 1), ell)

    def evaluate(lam: np.ndarray) -> np.ndarray:
        lam = np.asarray(lam, dtype=complex)
        cuts = [slice(i, i + _MATCHER_PIECE) for i in range(0, max(lam.size, 1), _MATCHER_PIECE)]
        return np.concatenate([piece(lam[c], _at(ell, c), _at(lndd, c)) for c in cuts])

    def piece(lam: np.ndarray, ell, lndd) -> np.ndarray:
        k2 = lam * lam - v0
        k = np.sqrt(k2)
        la = lam * a
        pole_kill = (ell + 1) * np.log(la)
        hm1, hl, sh = sph_h_pair_log(ell, la)
        hp = hm1 - (ell + 1) / la * hl
        out = np.empty_like(lam)
        small = np.abs(k) * a < 0.5
        if np.any(small):
            es = _at(ell, small)
            u = k2[small] * (a * a)
            s, ds = sph_j_series(es, u)
            A = _per_order(lambda n: 2.0 * a ** (n + 1), es) * k2[small] * ds
            A = np.where(es > 0, A + _per_order(lambda n: n * a ** (n - 1), es) * s, A)
            B = lam[small] * _per_order(lambda n: a ** n, es) * s
            g = A * hl[small] - B * hp[small]
            with np.errstate(divide="ignore", invalid="ignore"):
                out[small] = np.log(g) + sh[small] + pole_kill[small]
        big = np.flatnonzero(~small)
        if big.size:
            eb = _at(ell, big)
            kb = k[big]
            jm1, jl, sj = sph_j_pair_log(eb, kb * a)
            jp = jm1 - (eb + 1) / (kb * a) * jl
            p1 = kb * jp * hl[big]
            p2 = lam[big] * jl * hp[big]
            wt = p1 - p2
            absl = np.abs(lam[big])
            absk = np.abs(kb)
            with np.errstate(divide="ignore", invalid="ignore", over="ignore",
                             under="ignore"):
                out[big] = (np.log(wt) + sj + sh[big] + _at(lndd, big)
                            - eb * np.log(kb) + pole_kill[big])
                # expected |W| (in the pair scaling): the free Wronskian plus
                # the leading v0 part (k - lambda) j h, with k - lambda =
                # -v0 / (k + lambda); unlike |wt| it does not dip at zeros
                w_scale = (np.exp(-(sj + sh[big])) / (absl * a * a)
                           + abs(v0) * np.abs(jl * hl[big]) / (absk + absl))
                cond = (np.maximum(np.abs(p1), np.abs(p2)) / w_scale
                        * (1.0 + a * absl ** 2 / (2.0 * absk)))
            flagged = ~(cond <= _DIRECT_COND_MAX)
            if np.any(flagged):
                lost = big[flagged]
                out[lost] = (_potential_series_log(_at(ell, lost), a, v0, la[lost],
                                                   hm1[lost], hl[lost], sh[lost])
                             + _at(lndd, lost) + (_at(ell, lost) - 1) * math.log(a))
        return out

    return (lambda lam: np.conj(evaluate(np.conj(lam)))) if kind == 2 else evaluate


# ---------------------------------------------------------------------------
# Search geometry
# ---------------------------------------------------------------------------

def _delta_axis(pot: RadialStepPotential) -> float:
    return 1e-6 / pot.a


def _default_zero_tol(pot: RadialStepPotential, R: float) -> float:
    return 1e-9 * max(1.0, R * pot.a) / pot.a


def _search_frame(pot: RadialStepPotential, R: float) -> ContourBox:
    """The box every channel's zeros are sought in.

    It covers the lower half disk |lambda| <= R from just below the real axis
    (Im lambda = -delta_axis), reaching at least one step
    min(1, R a / 16) / a beyond it, with width and height whole steps.  Its
    left edge carries an irrational-ratio offset so that it does not
    coincide with a symmetry axis of the zero set.
    """
    delta_axis = _delta_axis(pot)
    step = min(1.0, R * pot.a / 16.0) / pot.a
    x0 = -(R + step) + _IRR / 2.0 * step
    nx = int(math.ceil(((R + step) - x0) / step))
    ny = int(math.ceil((R + step - delta_axis) / step))
    return ContourBox(complex(x0, -delta_axis - ny * step),
                      complex(x0 + nx * step, -delta_axis))


def _frame_samples(pot: RadialStepPotential, R: float) -> int:
    # the near-free matcher turns about 2 a rad per unit of Re lambda along
    # the frame bottom; coarser sampling can wrap a step past the pi/2 test.
    # The frame's spacing, its perimeter over this count, is also the first
    # spacing of every cross that the channel's quadtree samples.
    return max(96, int(10 * R * pot.a))


def _group_zeros(ells, pot: RadialStepPotential, R: float):
    """Each channel's frame zeros (with multiplicity), for distinct channels
    ``ells``, from one keyed ``locate_zeros`` call: each channel's zeros must
    add up to its frame's winding exactly, and an error names its channel."""
    tol = _default_zero_tol(pot, R)
    try:  # the frame guard is below delta_axis / 2 while R a < 125
        return locate_zeros(
            lambda lam, orders: channel_matcher_log(orders, pot)(lam), _search_frame(pot, R),
            tol, log_form=True, samples=_frame_samples(pot, R), ceiling=0.0,
            guard_dist=max(0.4 * _delta_axis(pot), 4.0 * tol), keys=list(ells))
    except NumericalError as exc:
        raise NumericalError(f"channel {exc.key}: {exc}") from exc


def _cutoff_guess(pot: RadialStepPotential, R: float) -> int:
    """A generous guess at the highest nonempty channel."""
    return int(math.ceil(1.5 * R * pot.a + 2.0 * math.sqrt(abs(pot.v0)) * pot.a)) + 10


def map_ordered(fn, arg_tuples, workers: int) -> list:
    """[fn(*args) for args in arg_tuples], on a pool of ``workers``
    processes when there are at least two workers and two items; fn must
    be a module-level function."""
    arg_tuples = list(arg_tuples)
    if workers <= 1 or len(arg_tuples) <= 1:
        return [fn(*args) for args in arg_tuples]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, *zip(*arg_tuples)))


def _solve_channels(pot: RadialStepPotential, R: float, workers: int):
    """The frame zeros of every channel up to the cutoff, indexed by channel,
    and the cutoff: the highest channel with a frame zero (0 if none has one).

    Channels guess + 3 down to 0 are dealt in turn, highest first, to groups
    of at most ``_GROUP_SAMPLES`` frame samples, so deep low channels and
    cheap high ones share each group.  ``map_ordered`` hands the groups
    (``_group_zeros``) to the workers; the grouping, the sets and the error
    raised (the first failing group's) do not depend on the worker count.
    While any of the top three channels is nonempty, one more channel is
    solved alone above them, up to 50 channels past the guess.
    """
    if not (math.isfinite(R) and R > 0):
        raise ValueError(f"search radius R must be positive and finite; got {R}")
    guess = _cutoff_guess(pot, R)
    per_group = max(1, _GROUP_SAMPLES // _frame_samples(pot, R))
    n_groups = -(-(guess + 4) // per_group)
    groups = [list(range(guess + 3 - i, -1, -n_groups)) for i in range(n_groups)]
    solved = map_ordered(_group_zeros, [(g, pot, R) for g in groups], workers)
    by_ell = {ell: z for g, found in zip(groups, solved) for ell, z in zip(g, found)}
    zeros = [by_ell[ell] for ell in range(guess + 4)]
    while any(zeros[-3:]):
        if len(zeros) > guess + 53:
            raise NumericalError(
                f"channels remain nonempty 50 orders past the cutoff guess {guess}; "
                "suspected parameter pathology")
        zeros += _group_zeros([len(zeros)], pot, R)
    return zeros, max((ell for ell, found in enumerate(zeros) if found), default=0)


def ell_cutoff(pot: RadialStepPotential, R: float) -> int:
    """The highest channel with a zero in its search frame, or 0 if no
    channel has one: the ``ell_max`` of ``find_resonances``.

    The three channels above it are solved and empty.  Solves every channel
    (``_solve_channels``), so it costs as much as ``find_resonances``.
    """
    return _solve_channels(pot, R, 1)[1]


def find_resonances(pot: RadialStepPotential, R: float, *,
                    threads: int | None = None) -> ResonanceSet:
    """Locate all resonances with |lambda| <= R, Im lambda < -delta_axis.

    The search frame's top edge is at -delta_axis = -1e-6 / a and rises to
    the real axis only when the frame runs into a zero; the set does not
    depend on that while the frame guard stays below delta_axis / 2 (R a < 125).
    Past that the independence is not proved, but every channel's located
    zeros still match the winding of the frame it wound, exactly.

    Channels are solved in fixed groups, one work unit each for the
    ``threads`` worker processes (``_solve_channels``); the merged set, and
    the channel a NumericalError names, are identical for any thread count.
    ``ell_max`` is the highest channel with a zero in its search frame.  A
    located resonance whose residual |W_ell(lambda)| is not below the
    recorded ``residual_tol`` raises NumericalError naming the channel.
    """
    results, cutoff = _solve_channels(pot, R, threads or 1)
    delta = _delta_axis(pot)
    tolerances = {"zero_tol": _default_zero_tol(pot, R), "delta_axis": delta,
                  "residual_tol": _RESIDUAL_TOL}

    resonances: list[Resonance] = []
    for ell, zeros in enumerate(results):
        zs = [(z, m) for z, m in zeros if abs(z) <= R and z.imag < -delta]
        if not zs:
            continue
        lams = np.array([z for z, _ in zs])
        residuals = np.abs(channel_condition(ell, pot, lams))
        for (z, m), res in zip(zs, residuals):
            if not res < _RESIDUAL_TOL:
                raise NumericalError(
                    f"channel {ell}: residual |W_ell(lambda)| = {res:.3g} at "
                    f"lambda = {z:.12g} is not below {_RESIDUAL_TOL:g}")
            for _ in range(m):  # order-m zeros enter as m coincident poles
                resonances.append(Resonance(lam=z, ell=ell, residual=float(res)))
    return ResonanceSet(potential=pot, search_radius=R, resonances=resonances,
                        ell_max=cutoff, tolerances=tolerances)


# ---------------------------------------------------------------------------
# Scattering determinant
# ---------------------------------------------------------------------------

def scattering_log_det(pot: RadialStepPotential, lam: complex) -> float:
    """ln |det S_V(lambda)| for Im lambda >= 0, by channel summation.

    Each channel contributes (2 ell + 1) ln |S_ell| with
    S_ell = -W_ell^(2) / W_ell (the incoming-wave Wronskian over the outgoing
    one); the normalizing factors of the matcher cancel in the ratio.  The
    incoming matcher is the outgoing one of the conjugate well at
    conj(lambda), conjugated (``channel_matcher_log``, kind 2), so for a
    real well on the real axis |S_ell| = 1 and each term is 0 up to rounding.
    Summation stops once ten consecutive channels contribute less than 1e-10
    of the running total (only after ell has passed |lambda| a); a sum that
    has not settled by ell = 2000 raises NumericalError.

    Channels are evaluated in blocks: one outgoing matcher call on the three
    pole-test points of every channel of the block and one incoming call,
    with the block's orders as an array.  The first block is channels
    0 .. floor(|lambda| a) + 10, since no sum stops earlier; each later block
    is the 10 - q channels that the stopping rule still needs after q quiet
    channels.  The checks and the stopping rule then run channel by channel
    in order, so the sum evaluates exactly the channels, and adds exactly the
    terms, of a one-channel-at-a-time sum.

    Domain, measured at a = 1, v0 = -20 on the rays arg lambda = k pi / 32:
    the sum raises on no ray at |lambda| a = 56, 60 and 80.  The incoming
    matcher meets scaled-Hankel false zeros there (order 86 at |lambda| = 60,
    arg lambda = pi/8) and takes the Hankel fallback, which gives
    r^-3 ln|det S| = 0.46350 on both pi/8 and 7 pi/8.
    """
    lam = complex(lam)
    if lam == 0:
        raise ValueError("lambda must be nonzero")
    if lam.imag < 0:
        raise ValueError("scattering_log_det is defined for Im lambda >= 0")
    if pot.is_free:
        return 0.0
    # pole detection compares |W_ell| at lambda against nearby points: for
    # lambda far from the real axis |W^(1)| << |W^(2)| is ordinary
    # exponential asymmetry, so a ratio against W^(2) would misfire
    arr = np.array([lam, lam * (1.0 + 1e-4), lam * (1.0 - 1e-4)])
    total = 0.0
    quiet = 0
    first, last = 0, min(math.floor(abs(lam) * pot.a) + 10, 2000)
    while first <= last:
        orders = np.arange(first, last + 1)
        w1 = channel_matcher_log(orders.repeat(3), pot)(np.tile(arr, orders.size))
        w2 = channel_matcher_log(orders, pot, kind=2)(np.full(orders.size, lam))
        for ell, w1_ell, w2_ell in zip(orders.tolist(), w1.reshape(-1, 3), w2):
            if not (np.all(np.isfinite(w1_ell)) and np.isfinite(w2_ell)):
                raise NumericalError(f"channel {ell}: matcher not finite at {lam}")
            if w1_ell[0].real - max(w1_ell[1].real, w1_ell[2].real) < math.log(1e-12):
                raise NumericalError(
                    f"channel {ell}: |W_ell| vanishes at lambda={lam} (S-matrix pole)")
            term = (2 * ell + 1) * (w2_ell.real - w1_ell[0].real)
            total += term
            if ell > abs(lam) * pot.a and abs(term) < 1e-10 * max(abs(total), 1.0):
                quiet += 1
                if quiet >= 10:
                    return total
            else:
                quiet = 0
        first, last = last + 1, min(last + 10 - quiet, 2000)
    raise NumericalError("channel sum did not settle by ell = 2000")
