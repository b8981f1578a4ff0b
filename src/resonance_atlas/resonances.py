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
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .contour import _IRR, ContourBox, locate_zeros
# not called here; kept importable because perfbench/tracing.py wraps it by name
from .contour import _winding_with_perturbation  # noqa: F401
from .errors import EvaluationOverflowError, NumericalError
from .special import (_h_normal, _j_normal, _j_ratio_logs, _log_odd_double_factorials,
                      _matcher_members, _sph_factor, sph_h_pair_log, sph_j_pair_log)

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
_GROUP_SAMPLES = 2048  # box samples per group of channels (``_solve_channels``)
_SCAN_BLOCK = 8  # channels per later block of the cutoff scan (``ell_cutoff``)
_MAX_ORDER = 2000  # highest channel of a channel sum or the cutoff scan
_POLE_SCREEN = 1e-2  # |g_ell| / C_ell below which a det channel gets the pole check


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
    tolerances: dict = field(default_factory=dict)

    def __post_init__(self):
        self.resonances = sorted(
            self.resonances, key=lambda r: (abs(r.lam), arg_lower(r.lam), r.ell))

    @property
    def ell_max(self) -> int:
        """The highest channel of the set's resonances; -1 for an empty set."""
        return max((r.ell for r in self.resonances), default=-1)

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
        ValueError naming the file and the entry.  A stored ``ell_max`` is
        not read: the set derives it from its resonances."""
        entry = "top level"
        try:
            with open(path) as f:
                doc = json.load(f)
            if not isinstance(doc, dict):
                raise TypeError(f"expected a JSON object, got {type(doc).__name__}")
            resonances = []
            for i, r in enumerate(doc["resonances"]):
                entry = f"resonance {i}"
                ell, residual = r["ell"], r["residual"]
                if not (type(ell) is int and ell >= 0 and r["multiplicity"] == 2 * ell + 1):
                    raise ValueError("needs an integer ell >= 0 and multiplicity 2*ell + 1, "
                                     f"got ell {ell!r}, multiplicity {r['multiplicity']!r}")
                if not (type(residual) in (int, float) and 0 <= residual < math.inf):
                    raise ValueError(f"needs a finite residual >= 0, got {residual!r}")
                resonances.append(Resonance(complex(r["re_lambda"], r["im_lambda"]), ell, residual))
            entry = "top level"
            radius, tol = doc["search_radius"], doc["tolerances"]
            if not (type(radius) in (int, float) and 0 < radius < math.inf
                    and isinstance(tol, dict)):
                raise ValueError("needs a positive finite search_radius and a tolerances "
                                 f"object, got {radius!r} and a {type(tol).__name__}")
            return cls(potential=RadialStepPotential.from_dict(doc["potential"]),
                       search_radius=radius, tolerances=tol, resonances=resonances)
        except KeyError as exc:
            raise ValueError(f"{path}: {entry}: missing key {exc}") from exc
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{path}: {entry}: {exc}") from exc


# ---------------------------------------------------------------------------
# Channel functions
# ---------------------------------------------------------------------------

def channel_condition(ell, pot: RadialStepPotential, lam):
    """The bare matching function W_ell(lambda) (scalar or array).

    ``ell`` is an int order or an integer array of lam's shape, one order
    per point, as in ``channel_matcher_log``; a point's value does not
    depend on the other points of the call or on their orders.  Uses the
    principal branch of k = sqrt(lambda^2 - v0); flipping the branch
    multiplies W by (-1)^ell, which leaves the zero set unchanged.  The value
    is W = g_ell k^ell / ((2 ell + 1)!! (lambda a)^(ell+1)) from the
    cancellation-safe matcher, so it keeps its digits for weak wells deep in
    the lower half plane.  Raises EvaluationOverflowError, naming the channel
    of the first point whose value exceeds double range.
    """
    arr = np.atleast_1d(np.asarray(lam, dtype=complex))
    scalar = np.shape(lam) == ()
    if np.any(arr == 0):
        raise ValueError("channel condition requires lambda != 0")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"channel condition requires a finite lambda; got {lam}")
    flat = arr.ravel()
    ell = np.broadcast_to(ell, arr.shape).ravel()
    logw = (channel_matcher_log(ell, pot)(flat) - _log_odd_double_factorials(ell)
            - (ell + 1) * np.log(flat * pot.a))
    # W carries the factor k^ell, which vanishes at lambda^2 = v0 for ell > 0
    up = np.flatnonzero(ell > 0)
    k = np.sqrt(flat[up] * flat[up] - pot.v0)
    with np.errstate(divide="ignore", invalid="ignore"):
        logw[up] += ell[up] * np.log(np.where(k == 0, 1.0, k))
    logw[up[k == 0]] = -np.inf
    over = np.flatnonzero(logw.real > 709.0)
    if over.size:
        raise EvaluationOverflowError(
            f"channel condition overflows double range in channel {ell[over[0]]}",
            key=int(ell[over[0]]))
    with np.errstate(under="ignore"):
        out = np.where(np.isneginf(logw.real), 0.0, np.exp(logw))
    return complex(out[0]) if scalar else out.reshape(np.shape(lam))


def _potential_series_log(ell: np.ndarray, a: float, v0: complex, z: np.ndarray,
                          hm1: np.ndarray, hl: np.ndarray, sh: np.ndarray):
    """log of the bracket of the integral identity (module docstring), summed
    as the multiplication-theorem series.

    (hm1, hl, sh) is the scaled Hankel pair at z = lambda a, ``ell`` the
    order of each point.  The terms shrink
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
        live = np.arange(z.size)  # the points whose series has not settled
        log_c = cmath.log(v0 * a * a / 2.0)
        peak = np.zeros(z.shape)
        log_z = np.log(z)
        upper = None  # the last term's raw upper j members at the live points
        for n in range(1, _SERIES_MAX_TERMS + 1):
            lower, upper = upper, np.empty(live.size, dtype=complex)
            jm1, jn, sj = sph_j_pair_log(ell[live] + n, z[live], lower=lower, upper=upper)
            term = np.zeros(z.shape, dtype=complex)  # a settled point's term is not used
            with np.errstate(divide="ignore", invalid="ignore"):
                term[live] = (n * log_c - math.lgamma(n + 1) + (2 - n) * log_z[live]
                              + np.log(jm1 * hl[live] - jn * hm1[live]) + sj + sh[live])
            logs.append(term)
            last[live] = n
            peak[live] = np.fmax(peak[live], term.real[live])
            if n >= 2:
                # a term below 4e-18 of the largest settles its point
                keep = ~(term.real[live] < peak[live] - 40.0)
                live, upper = live[keep], upper[keep]
                if not live.size:
                    break
        else:
            i = live[0]
            raise NumericalError(
                f"potential series of order {ell[i]} at lambda = "
                f"{complex(z[i] / a)} has not settled in {_SERIES_MAX_TERMS} terms",
                key=int(ell[i]))
    terms = np.array(logs)
    top = terms.real.max(axis=0)  # a point's unused terms are 0, its first term's real part
    with np.errstate(under="ignore", invalid="ignore"):
        parts = np.exp(terms - top)
    total = parts[0]
    for part, use in zip(parts[1:], np.arange(1, len(logs))[:, None] <= last):
        np.add(total, part, out=total, where=use)
    with np.errstate(divide="ignore"):
        return np.log(total) + top


def channel_matcher_log(ell, pot: RadialStepPotential, kind: int = 1):
    """Vectorized lambda-array -> log g_ell(lambda) evaluator (log form).

    ``ell`` is an int order >= 0, or such orders in a signed integer array
    of the shape of the lambda arrays the evaluator is given, one per point
    (else ValueError); an int is every point's order.  The evaluator takes
    lambda of any shape, a scalar too, and returns log g in that shape.
    Each point is evaluated with its own order by one elementwise code
    path, so a point's value does not depend, bit for bit, on the other
    points of its call, on their orders or on the call's size: calls run in
    pieces of ``_MATCHER_PIECE`` points, below the 16,384 complex values at
    which numpy turns a product into an in-place one, whose swapped operands
    change an FMA complex product's bits.  A piece runs in (lambda, ell)
    order on lambda's bits, each distinct (lambda, ell) once (a call holds
    the corners two sides share and the split point of a cross several
    times), so that each point follows its lambda at the order below, whose
    upper AMOS members it copies (``special._matcher_members``); its values
    are put back in input order.

    g_ell = (2 ell + 1)!! (lambda a)^(ell+1) W_ell / k^ell is an entire
    function of lambda: the k^ell quotient removes the removable branch
    factor at lambda^2 = v0, and the (lambda a)^(ell+1) factor cancels the
    Hankel pole at the origin, which would otherwise sit a hair above the
    search region and poison winding counts on nearby boxes.  Zeros in the
    open lower half plane are exactly the channel resonances.

    Where |k| a < 0.5 the j side is taken in u = k^2 a^2, so the square
    root never enters: g_ell = a^(ell-1) (2 ell + 1)!! J_ell [(ell - u
    q_(ell+1)) h_ell - lambda a h_ell'], J_ell = j_ell(ka) / (ka)^ell =
    j_0(ka) q_1 ... q_ell, with the ratios q_n = j_n / (ka j_(n-1)) in u
    (``special._j_ratio_logs``).  This branch is never flagged for the
    potential series.

    Elsewhere W is first formed directly from one Bessel and one Hankel
    pair, in one pass over the piece: from the raw scaled AMOS members
    (hankel1e and jve under one run mask on lambda), with the exp(iz) and
    exp(|Im z|) that AMOS removes and the factors sqrt(pi / 2z) entered in
    the log.  The pairs' normal forms and fallbacks (``special._h_normal``,
    ``special._j_normal``) are taken only at the points whose members are 0
    or not finite or whose terms leave double range.  W's condition
    number -- the larger of the two products over the
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
    series, from the Hankel pair in normal form made of the members the
    direct path evaluated.  The free well's value -i (2 ell + 1)!! a^(ell-1)
    is then exact.

    ``kind=2`` gives the incoming matcher (h_ell^(2) for h_ell^(1)) as
    lambda -> conj(g_ell[conj v0](conj lambda)), g_ell[v] being the outgoing
    matcher of depth v.  This is exact: h_ell^(2)(z) = conj(h_ell^(1)(conj z))
    since spherical Hankel functions are finite sums in e^(+-iz)/z with no
    branch cut, j_ell(k a)/k^ell and k j_ell'(k a)/k^ell are power series in
    k^2 = lambda^2 - v0 with real coefficients, and so is the normalisation
    (2 ell + 1)!! (lambda a)^(ell+1) in lambda.  A -0.0 imaginary part of
    lambda^2 - v0 and of lambda a is taken as +0.0, so a real lambda and its
    conjugate give the same Re log g, bit for bit (g is even in k).
    """
    orders = np.asarray(ell)
    if orders.dtype.kind != "i" or orders.min(initial=0) < 0:
        bad = orders[orders < 0] if orders.dtype.kind == "i" else orders.ravel()
        raise ValueError(f"channel orders must be signed integers >= 0; got {bad[0]}")
    a = pot.a
    v0 = pot.v0.conjugate() if kind == 2 else pot.v0

    def evaluate(lam: np.ndarray) -> np.ndarray:
        lam = np.asarray(lam, dtype=complex)
        flat, orders = lam.ravel(), np.broadcast_to(ell, lam.shape).ravel()
        if flat.size <= _MATCHER_PIECE:
            return piece(flat, orders).reshape(lam.shape)
        return np.concatenate([piece(flat[i:i + _MATCHER_PIECE], orders[i:i + _MATCHER_PIECE])
                               for i in range(0, flat.size, _MATCHER_PIECE)]).reshape(lam.shape)

    def piece(lam: np.ndarray, ell: np.ndarray) -> np.ndarray:
        order = np.lexsort((ell, lam.imag.view(np.int64), lam.real.view(np.int64)))
        lam, ell = lam[order], ell[order]
        re, im = lam.real.view(np.int64), lam.imag.view(np.int64)
        new = np.ones(lam.size, dtype=bool)  # the first point of each distinct (lambda, ell)
        new[1:] = (ell[1:] != ell[:-1]) | (re[1:] != re[:-1]) | (im[1:] != im[:-1])
        first = new.nonzero()[0]
        out = np.empty_like(lam)
        out[order] = in_order(lam[first], ell[first])[new.cumsum() - 1]
        return out

    def in_order(lam: np.ndarray, ell: np.ndarray) -> np.ndarray:
        # + 0.0 turns a -0.0 imaginary part into +0.0: on the real axis k and
        # the branch of log(lambda a) do not depend on the sign of a zero
        k2 = lam * lam - v0 + 0.0
        k = np.sqrt(k2)
        la, ka = lam * a + 0.0, k * a
        up, absk = ell + 1, np.abs(k)
        small = absk * a < 0.5
        hm1, hl, jm1, jl = _matcher_members(ell, lam, la, ka, small)
        # both branches take g from A h_ell - B h_ell', from the raw scaled
        # AMOS members; the exp(iz) and exp(|Im z|) that AMOS removes and
        # sqrt(pi / 2z) = exp((log(pi / 2) - log z) / 2) enter the log
        with np.errstate(divide="ignore", invalid="ignore", over="ignore", under="ignore"):
            log_la, log_k = np.log(la), np.log(k)
            sh = 1j * la + 0.5 * (math.log(math.pi / 2.0) - log_la)
            sj = np.abs(ka.imag) + 0.5 * (math.log(math.pi / (2.0 * a)) - log_k)

            def direct(i):  # A, B and the rest of the log of the direct path's points i
                return (k[i] * (jm1[i] - up[i] / ka[i] * jl[i]), lam[i] * jl[i],
                        sj[i] - ell[i] * log_k[i])

            def bracket(i):  # A h_ell - B h_ell' and the larger modulus of its terms
                t1, t2 = A[i] * hl[i], B[i] * (hm1[i] - up[i] / la[i] * hl[i])
                return t1 - t2, np.maximum(np.abs(t1), np.abs(t2))

            def normal_h(i):  # the Hankel pair in normal form, from its members
                f = _sph_factor(la[i])
                hm1[i], hl[i], sh[i] = _h_normal(ell[i], la[i], f, f * hm1[i], f * hl[i])

            A, B, rest = direct(slice(None))
            few = small.nonzero()[0]
            if few.size:
                es, u = ell[few], k2[few] * (a * a)  # g from J and q (docstring)
                log_q, _, q_up = _j_ratio_logs(es, u, 1)
                sinc = [(-1) ** m / math.factorial(2 * m + 1) for m in range(9, -1, -1)]
                j0 = np.polyval(sinc, u)  # sin(ka) / (ka) as a series in u
                A[few], B[few] = es - u * q_up, la[few]
                rest[few] = np.log(j0) + log_q + (es - 1) * math.log(a)
            wt, top = bracket(slice(None))
            # the normal forms and fallbacks, where a pair's members are 0
            # (the j members of the small-|k| points are 1) or their product
            # underflows, or the terms are not finite (a member is not) or
            # leave double range
            normal = ~((hm1 * hl != 0) & (jm1 * jl != 0) & np.isfinite(wt)
                       & (top >= sys.float_info.min))
            lost = normal.nonzero()[0]
            if lost.size:
                normal_h(lost)
                b = lost[~small[lost]]
                f = _sph_factor(ka[b])
                jm1[b], jl[b], sj[b] = _j_normal(ell[b], ka[b], f, f * jm1[b], f * jl[b])
                A[b], B[b], rest[b] = direct(b)
                wt[lost], top[lost] = bracket(lost)
            out = np.log(wt) + rest + sh + _log_odd_double_factorials(ell) + up * log_la
            # expected |W| (in the members' scaling): the free Wronskian plus
            # the leading v0 part (k - lambda) j h, with k - lambda =
            # -v0 / (k + lambda); unlike |W| it does not dip at zeros
            absl = np.abs(lam)
            w_scale = (np.exp(-(sj + sh).real) / (absl * (a * a))
                       + abs(v0) * np.abs(jl * hl) / (absk + absl))
            cond = top / w_scale * (1.0 + a * absl ** 2 / (2.0 * absk))
        flagged = (~(small | (cond <= _DIRECT_COND_MAX))).nonzero()[0]
        if flagged.size:
            normal_h(flagged[~normal[flagged]])
            out[flagged] = (_potential_series_log(ell[flagged], a, v0, la[flagged], hm1[flagged],
                                                  hl[flagged], sh[flagged].real)
                            + _log_odd_double_factorials(ell[flagged])
                            + (ell[flagged] - 1) * math.log(a))
        return out

    return (lambda lam: np.conj(evaluate(np.conj(lam)))) if kind == 2 else evaluate


# ---------------------------------------------------------------------------
# Search geometry
# ---------------------------------------------------------------------------

def _delta_axis(pot: RadialStepPotential) -> float:
    return 1e-6 / pot.a


def _default_zero_tol(pot: RadialStepPotential, R: float) -> float:
    return 1e-9 * max(1.0, R * pot.a) / pot.a


def _frame_step(pot: RadialStepPotential, R: float) -> float:
    return min(1.0, R * pot.a / 16.0) / pot.a


def _search_frame(pot: RadialStepPotential, R: float) -> ContourBox:
    """The box a complex well's channel zeros are sought in.

    It covers the lower half disk |lambda| <= R from just below the real axis
    (Im lambda = -delta_axis), reaching at least one step
    min(1, R a / 16) / a beyond it, with width and height whole steps.  Its
    left edge carries an irrational-ratio offset so that it does not
    coincide with a symmetry axis of the zero set.  That offset matters only
    for complex wells: a real well winds the part of the frame right of the
    imaginary axis and mirrors it (``_channel_box``).
    """
    delta_axis = _delta_axis(pot)
    step = _frame_step(pot, R)
    x0 = -(R + step) + _IRR / 2.0 * step
    nx = int(math.ceil(((R + step) - x0) / step))
    ny = int(math.ceil((R + step - delta_axis) / step))
    return ContourBox(complex(x0, -delta_axis - ny * step),
                      complex(x0 + nx * step, -delta_axis))


def _channel_box(pot: RadialStepPotential, R: float):
    """The box a channel's zeros are located in, and its sample count: a
    complex well's search frame, or a real well's frame right of -eta, eta =
    (sqrt 2 - 1)/4 steps (its zero set is symmetric under lambda ->
    -conj(lambda)), with the count scaled to its perimeter and rounded up,
    so that both are sampled at the frame's spacing."""
    box = _search_frame(pot, R)
    # the near-free matcher turns about 2 a rad per unit of Re lambda along
    # the frame bottom; coarser sampling can wrap a step past the pi/2 test
    samples = max(96, int(10 * R * pot.a))
    if pot.v0.imag == 0:
        half = ContourBox(complex(-_IRR / 4.0 * _frame_step(pot, R), box.lower_left.imag),
                          box.upper_right)
        samples = math.ceil(samples * (half.width + half.height) / (box.width + box.height))
        box = half
    return box, samples


def _mirrored(zeros, tol: float) -> list:
    """A real well's channel zeros from those located in its half frame:
    each zero right of the axis by more than ``tol`` with its mirror
    -conj(z) of the same multiplicity, and each within ``tol`` of the axis
    on it (Re = 0.0 exactly).  A zero left of the axis by more than ``tol``
    is the mirror of a located zero and is dropped.  Sorted by (real, imag).
    """
    out = []
    for z, m in zeros:
        if z.real > tol:
            out += [(z, m), (complex(-z.real, z.imag), m)]
        elif z.real >= -tol:
            out.append((complex(0.0, z.imag), m))
    return sorted(out, key=lambda p: (p[0].real, p[0].imag))


def _group_zeros(ells, pot: RadialStepPotential, R: float):
    """Each channel's frame zeros (with multiplicity), for distinct channels
    ``ells``, from one keyed ``locate_zeros`` call: each channel's zeros must
    add up to its box's winding exactly, and an error names its channel.

    The box is ``_channel_box``'s; a real well's zeros in it are completed
    by the mirror (``_mirrored``) to those of the frame closed under
    lambda -> -conj(lambda), [-X, X] for the frame's right edge X.
    """
    tol = _default_zero_tol(pot, R)
    box, samples = _channel_box(pot, R)
    real = pot.v0.imag == 0
    try:  # the frame guard is below delta_axis / 2 while R a < 125
        found = locate_zeros(
            lambda lam, orders: channel_matcher_log(orders, pot)(lam), box,
            tol, log_form=True, samples=samples, ceiling=0.0,
            guard_dist=max(0.4 * _delta_axis(pot), 4.0 * tol), keys=list(ells))
    except NumericalError as exc:
        raise NumericalError(f"channel {exc.key}: {exc}", key=exc.key) from exc
    return [_mirrored(zeros, tol) for zeros in found] if real else found


def _rouche_term(ell, pot: RadialStepPotential, log_g: np.ndarray) -> np.ndarray:
    """|T_ell| from matcher values log g_ell (``ell`` an int or an integer
    array of log_g's shape, one order per point), for g_ell = C_ell (-i +
    T_ell) and C_ell = (2 ell + 1)!! a^(ell-1) (module docstring): |T_ell| < 1
    on a contour puts no zero of channel ell inside it (Rouché); T_ell = i at
    a zero."""
    with np.errstate(over="ignore"):
        return np.abs(np.exp(log_g - _log_c(np.broadcast_to(ell, log_g.shape), pot)) + 1j)


def _log_c(ell: np.ndarray, pot: RadialStepPotential) -> np.ndarray:
    """ln C_ell = ln((2 ell + 1)!! a^(ell-1)) (module docstring), elementwise."""
    return _log_odd_double_factorials(ell) + (ell - 1) * math.log(pot.a)


def ell_cutoff(pot: RadialStepPotential, R: float) -> int:
    """The highest channel whose |T_ell| (``_rouche_term``) reaches 1 at a
    corner of its box (``_channel_box``) or at the box bottom below the
    origin, near which weak wells' zeros lie; -1 if none does.  A prediction,
    not a bound: a zero close to the box edge can be missed, so the channel
    pass (``_solve_channels``) solves past it until three channels are empty.

    The scan runs upward, one matcher call per block of channels: 0 ..
    floor(r a) + ``_SCAN_BLOCK`` (r the largest |lambda| of the points), then
    ``_SCAN_BLOCK`` at a time, until a block has no hit, or to a cap that it
    returns: the former guess ceil(1.5 R a + 2 sqrt|v0| a) + 10, or
    ceil(1.5 r a) + 10 if larger, since strong barriers keep |T_ell| >= 1 far
    above their last nonempty channel.  A non-finite matcher value, or a hit
    at channel ``_MAX_ORDER`` below the cap, raises NumericalError naming the
    channel.
    """
    box = _channel_box(pot, R)[0]
    points = np.array(box.corners() + [complex(0.0, box.lower_left.imag)])
    r = np.abs(points).max()
    cap = max(math.ceil(1.5 * R * pot.a + 2.0 * math.sqrt(abs(pot.v0)) * pot.a),
              math.ceil(1.5 * r * pot.a)) + 10
    top = min(cap, _MAX_ORDER)
    guess, first, last = -1, 0, math.floor(r * pot.a) + _SCAN_BLOCK
    while first <= top:
        orders = np.arange(first, min(last, top) + 1).repeat(points.size)
        log_g = channel_matcher_log(orders, pot)(np.tile(points, orders.size // points.size))
        bad = np.flatnonzero(~np.isfinite(log_g))
        if bad.size:
            raise NumericalError(f"channel {orders[bad[0]]}: matcher not finite at lambda = "
                                 f"{points[bad[0] % points.size]} in the cutoff scan",
                                 key=int(orders[bad[0]]))
        hit = orders[_rouche_term(orders, pot, log_g) >= 1.0]
        if not hit.size:
            return guess
        guess, first, last = int(hit.max()), last + 1, last + _SCAN_BLOCK
    if cap <= _MAX_ORDER:
        return cap
    raise NumericalError(f"channel {guess}: |T_ell| still reaches 1 at the cutoff scan's last "
                         f"channel, {_MAX_ORDER}", key=guess)


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
    """The frame zeros of every channel up to the cutoff, indexed by channel.

    Channels 0 to guess + 3, for the guess predicted from the Rouché term
    (``ell_cutoff``), are cut into consecutive groups of at most
    ``_GROUP_SAMPLES`` box samples (``_channel_box``), whose channels wind
    the same samples in lockstep (a matcher piece shares their AMOS
    orders).  ``map_ordered`` hands the groups (``_group_zeros``) to the
    workers, lowest first; the grouping, the sets and the error raised (the
    first failing group's) do not depend on the worker count.  The guess
    sets only the work, since each channel's frame winding decides if it is
    empty: while any of the top three channels is nonempty, one more is
    solved alone above them, up to 50 channels past the guess.
    """
    if not (math.isfinite(R) and R > 0):
        raise ValueError(f"search radius R must be positive and finite; got {R}")
    guess = ell_cutoff(pot, R)
    per_group = max(1, _GROUP_SAMPLES // _channel_box(pot, R)[1])
    channels = list(range(guess + 4))
    groups = [(channels[i:i + per_group], pot, R) for i in range(0, guess + 4, per_group)]
    zeros = [z for found in map_ordered(_group_zeros, groups, workers) for z in found]
    while any(zeros[-3:]):
        if len(zeros) > guess + 53:
            raise NumericalError(
                f"channels remain nonempty 50 orders past the cutoff guess {guess}; "
                "suspected parameter pathology")
        zeros += _group_zeros([len(zeros)], pot, R)
    return zeros


def _expected_w(ell: np.ndarray, pot: RadialStepPotential, lam: np.ndarray) -> np.ndarray:
    """S = 1 / (|lambda| a^2) + |v0 j_ell(k a) h_ell(lambda a)| / (|k| + |lambda|),
    the expected size of |W_ell(lambda)| that the matcher's condition number
    uses (``channel_matcher_log``): the free Wronskian plus the leading v0
    part; unlike |W| it does not dip at zeros.  ValueError where k = 0."""
    k = np.sqrt(lam * lam - pot.v0)
    _, jl, sj = sph_j_pair_log(ell, k * pot.a)
    _, hl, sh = sph_h_pair_log(ell, lam * pot.a)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        return (1.0 / (np.abs(lam) * pot.a ** 2)
                + abs(pot.v0) * np.abs(jl * hl) * np.exp(sj + sh) / (np.abs(k) + np.abs(lam)))


def find_resonances(pot: RadialStepPotential, R: float, *,
                    threads: int | None = None) -> ResonanceSet:
    """Locate all resonances with |lambda| <= R, Im lambda < -delta_axis.

    The search frame's top edge is at -delta_axis = -1e-6 / a and rises to
    the real axis only when the frame runs into a zero; the set does not
    depend on that while the frame guard stays below delta_axis / 2 (R a < 125).
    Past that the independence is not proved, but every channel's located
    zeros still match the winding of the frame it wound, exactly.

    Channels 0 to three past the cutoff predicted from the Rouché term
    (``ell_cutoff``) are solved in fixed groups of consecutive channels,
    one work unit each for the ``threads`` worker processes
    (``_solve_channels``); the set, and the channel a NumericalError
    names, are identical for any thread count.  A real well's zeros within
    ``zero_tol`` of the imaginary axis are reported with Re lambda = 0
    exactly, the others in mirror pairs (``_group_zeros``).

    Every reported resonance, a mirrored one too, has its residual
    |W_ell(lambda)| checked at its own lambda, all in one
    ``channel_condition`` call: a residual that is not below the recorded
    ``residual_tol`` times max(1, S), S the expected size of |W_ell|
    (``_expected_w``), raises NumericalError naming the channel.  S
    grows with h_ell(lambda a) for strong wells, whose true zeros can have
    |W| of several units; for weak wells S < 1 and the bound is the plain
    ``residual_tol``.  The recorded ``residual`` is |W_ell(lambda)|.
    """
    results = _solve_channels(pot, R, threads or 1)
    delta = _delta_axis(pot)
    tolerances = {"zero_tol": _default_zero_tol(pot, R), "delta_axis": delta,
                  "residual_tol": _RESIDUAL_TOL}

    found = [(ell, z, m) for ell, zeros in enumerate(results)
             for z, m in zeros if abs(z) <= R and z.imag < -delta]
    ells = np.array([ell for ell, _, _ in found], dtype=int)
    lams = np.array([z for _, z, _ in found], dtype=complex)
    residuals = np.abs(channel_condition(ells, pot, lams))
    scales = np.ones(residuals.shape)
    high = ~(residuals < _RESIDUAL_TOL)
    scales[high] = np.fmax(1.0, _expected_w(ells[high], pot, lams[high]))
    resonances: list[Resonance] = []
    for (ell, z, m), res, scale in zip(found, residuals, scales):
        if not res < _RESIDUAL_TOL * scale:
            raise NumericalError(f"channel {ell}: residual |W_ell(lambda)| = {res:.3g} at "
                                 f"lambda = {z:.12g} is not below {_RESIDUAL_TOL:g} max(1, S) = "
                                 f"{_RESIDUAL_TOL * scale:.3g}", key=ell)
        for _ in range(m):  # order-m zeros enter as m coincident poles
            resonances.append(Resonance(lam=z, ell=ell, residual=float(res)))
    return ResonanceSet(potential=pot, search_radius=R, resonances=resonances,
                        tolerances=tolerances)


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
    real well on the real axis |S_ell| = 1 and the sum is 0, exactly (below
    a barrier's top too, where k is imaginary).
    Summation stops once ten consecutive channels contribute less than 1e-10
    of the running total (only after ell has passed |lambda| a); a sum that
    has not settled by ell = ``_MAX_ORDER`` raises NumericalError.

    Channels are evaluated in blocks, with the block's orders as an array.
    No sum stops before channel floor(|lambda| a) + 10, and the first block
    runs past it to where the sum is predicted to settle: 0 channels on a
    real well's real axis, where the terms vanish, else ceil(0.51 Im(lambda a)
    + 7 + ln(min(|v0| a^2, 1)) / 2.4), at least 0.  The sum settles
    (1/m - 1) |lambda| a channels past |lambda| a, m the critical-curve
    modulus at arg lambda (0.509 Im(lambda a) on pi/2), plus up to 7 for
    a = 1, v0 = -20 (9 on pi/16); a weak well's terms are |v0| a^2 times
    smaller and fall about e^2.4 a channel, so it settles sooner.  A
    complex v0's terms do not vanish on the real axis, where its sum settles
    3.3 (|lambda| a)^(1/3) + 1.5 channels past floor(|lambda| a) + 10: its
    first block reaches at least that far.  Each
    later block is the 10 - q channels that the stopping rule still needs
    after q quiet channels.  A real-typed v0 is conj(v0) bit for bit, so
    its kind 2 value is the conjugate of its outgoing value at conj(lambda):
    a block's outgoing call takes lambda and conj(lambda) per channel.  Any
    other v0 takes lambda only and adds a kind 2 call; a complex-typed real
    one must, as its conjugate's -0.0 can flip the branch of k and move
    last bits (channel 0 of complex(20, 0) at lambda = 2.5).  The checks,
    terms, sum, stop and first failing channel up to the stop are array
    operations; the sum runs in sequence, so it adds exactly the terms of a
    one-channel-at-a-time sum.  A channel past the stop is evaluated but
    never added, checked or raised on: the first block's reach moves the
    cost (a second call where it falls short), never a value.

    Domain, measured at a = 1, v0 = -20 on the rays arg lambda = k pi / 32:
    the sum raises on no ray at |lambda| a = 56, 60 and 80.  The incoming
    matcher meets scaled-Hankel false zeros there (order 86 at |lambda| = 60,
    arg lambda = pi/8) and takes the Hankel fallback, which gives
    r^-3 ln|det S| = 0.46350 on both pi/8 and 7 pi/8.  On pi/4, pi/2 and
    3 pi/4 it sums to |lambda| a = 1000 (2.162452 on pi/2).

    A channel whose |W_ell(lambda)| is below 1e-8 of the larger of its
    values at lambda (1 +- 1e-4) raises NumericalError (an S-matrix pole):
    that ratio is about 1e4 times the relative distance delta to a simple
    pole, so the check fires within about 1e-12 of one; a non-finite value
    raises first.  Only channels with |g_ell(lambda)| < tau C_ell, that is
    |-i + T_ell(lambda)| < tau (``_rouche_term``), tau = ``_POLE_SCREEN`` =
    1e-2, evaluate the two neighbours, in one more matcher call per block;
    a non-finite neighbour raises only for them.  This loses no pole: at
    relative distance delta from a simple zero |g_ell| / C_ell is about
    |lambda T_ell'| delta (0.30 delta at the bound state 3.682135i, 0.23 delta
    at 2.676552i, a = 1, v0 = -20), so a channel the check fires on is
    skipped only if |lambda T_ell'| exceeds about 1e10.
    """
    lam = complex(lam)
    if not cmath.isfinite(lam):
        raise ValueError(f"lambda must be finite; got {lam}")
    if lam == 0:
        raise ValueError("lambda must be nonzero")
    if lam.imag < 0:
        raise ValueError("scattering_log_det is defined for Im lambda >= 0")
    if pot.is_free:
        return 0.0
    # pole detection compares |W_ell| at lambda against nearby points: for
    # lambda far from the real axis |W^(1)| << |W^(2)| is ordinary
    # exponential asymmetry, so a ratio against W^(2) would misfire
    self_conjugate = (np.complex128(pot.v0.conjugate()).tobytes()
                      == np.complex128(pot.v0).tobytes())
    points = np.array([lam] + ([lam.conjugate()] if self_conjugate else []))
    total = 0.0
    quiet = 0
    margin = 0  # channels of the first block past floor(|lambda| a) + 10 (docstring)
    if lam.imag != 0 or pot.v0.imag != 0:
        strength = math.log(min(abs(pot.v0) * pot.a ** 2, 1.0))
        margin = max(math.ceil(0.51 * lam.imag * pot.a + 7.0 + strength / 2.4), 0)
    if pot.v0.imag != 0:
        margin = max(margin, math.ceil(3.3 * (abs(lam) * pot.a) ** (1 / 3) + 1.5))
    first, last = 0, min(math.floor(abs(lam) * pot.a) + 10 + margin, _MAX_ORDER)
    while first <= last:
        orders = np.arange(first, last + 1)
        w = channel_matcher_log(orders.repeat(points.size), pot)(
            points[None].repeat(orders.size, 0).ravel()).reshape(orders.size, points.size)
        # only Re w2 = ln |W^(2)| enters, and the conjugation keeps it
        w2 = (w[:, 1] if self_conjugate
              else channel_matcher_log(orders, pot, kind=2)(np.full(orders.size, lam)))
        finite = np.isfinite(w[:, 0]) & np.isfinite(w2)
        # finite channels near a zero of g_ell take the pole check (docstring)
        screened = np.flatnonzero(
            finite & (w[:, 0].real < _log_c(orders, pot) + math.log(_POLE_SCREEN)))
        pole = np.zeros(orders.size, dtype=bool)
        if screened.size:
            wn = channel_matcher_log(orders[screened].repeat(2), pot)(
                np.tile([lam * (1.0 + 1e-4), lam * (1.0 - 1e-4)], screened.size)
            ).reshape(screened.size, 2)
            finite[screened] = np.isfinite(wn).all(axis=1)
            pole[screened] = w[screened, 0].real - wn.real.max(axis=1) < math.log(1e-8)
        with np.errstate(invalid="ignore"):
            terms = (2 * orders + 1) * (w2.real - w[:, 0].real)
            totals = np.add.accumulate(np.concatenate(([total], terms)))  # adds in sequence
            quiet_at = np.abs(terms) < 1e-10 * np.maximum(np.abs(totals[1:]), 1.0)
        quiet_at[:max(math.floor(abs(lam) * pot.a) + 1 - first, 0)] = False  # ell <= |lambda| a
        # each channel's last loud channel, the last block's quiet run carried on
        last_loud = np.maximum.accumulate(np.where(quiet_at, first - 1 - quiet, orders))
        hits = (last_loud <= orders - 10).nonzero()[0]  # ten quiet channels end here
        stop = hits[0] if hits.size else orders.size
        failed = (~finite[:stop + 1] | pole[:stop + 1]).nonzero()[0]
        if failed.size:
            ell, ok = int(orders[failed[0]]), finite[failed[0]]
            raise NumericalError(f"channel {ell}: |W_ell| vanishes at lambda={lam} (S-matrix pole)"
                                 if ok else f"channel {ell}: matcher not finite at {lam}", key=ell)
        if hits.size:
            return float(totals[stop + 1])
        total, quiet = totals[-1], int(orders[-1] - last_loud[-1])
        first, last = last + 1, min(last + 10 - quiet, _MAX_ORDER)
    raise NumericalError(f"channel sum did not settle by ell = {_MAX_ORDER}")
