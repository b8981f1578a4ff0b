"""Branch-correct special functions used throughout the package.

Contents:

* ``bessel_phase`` -- the phase function from uniform Bessel-function
  asymptotics, continuous on the open upper half plane together with (0, 1].
  Scalar input stays in cmath: the density quadratures call it once per
  point, about 1e5 times per constant.
* ``coth_fixed_point`` / ``critical_curve_point`` / ``critical_curve_modulus``
  -- the curve separating the sign regions of ``Re bessel_phase``.
* ``sph_j_pair_log`` / ``sph_h_pair_log`` -- log-scaled pairs
  (f_(l-1), f_l) of the spherical Bessel ``j_l`` and the outgoing Hankel
  ``h_l^(1)`` for complex arguments and integer orders, backed by scipy's
  AMOS routines.  Where the scaled j pair underflows it takes the power
  series; where the scaled h pair overflows or is a false zero it takes its
  one fallback, the unscaled pair at the highest usable order recurred
  upward.  They are the evaluators the resonance
  solver's channel matcher calls, and they keep magnitudes that span
  hundreds of decades representable.  The incoming ``h_l^(2)`` is not
  evaluated: it is conj(h_l^(1)(conj z)), and the matcher takes it that way.
* ``sph_j_series`` -- the one power series S_l(u) of j_l, with
  j_l(z) = z^l S_l(z^2) / (2l+1)!!, and its derivative S_l'(u); the j pair's
  small-argument fallback and the matcher's small-|k| branch both use it.

All functions are pure.
"""

from __future__ import annotations

import cmath
import math
from functools import lru_cache

import numpy as np
from scipy import special as _ss
from scipy.optimize import brentq

from .errors import NumericalError

__all__ = [
    "bessel_phase",
    "coth_fixed_point",
    "critical_curve_point",
    "critical_curve_modulus",
]

_EPS = math.ulp(1.0)
_PHASE_DOMAIN = "bessel_phase is defined for Im z > 0 or real z in (0, 1]; got %r"
# Rescale threshold for the fallback recurrences.
_RESCALE = 1e250
_LOG_RESCALE = math.log(_RESCALE)


# ---------------------------------------------------------------------------
# Phase function and critical curve
# ---------------------------------------------------------------------------

def _branch_sqrt_one_minus_z2(z):
    """sqrt(1 - z^2) as sqrt(1-z)*sqrt(1+z) with principal square roots.

    This product is continuous on the closed upper half plane minus {-1, +1}
    and is positive on (-1, 1), which is the branch the phase function needs.
    """
    return np.sqrt(1.0 - z) * np.sqrt(1.0 + z)


def bessel_phase(z):
    """Evaluate ln((1 + w)/z) - w with w = sqrt(1-z^2) on the good branch.

    Accepts a complex scalar or array.  The domain is the open upper half
    plane together with the real interval (0, 1]; elsewhere the branch
    prescription is ambiguous and a ValueError is raised.

    A scalar (a Python or numpy complex, float or int, or a 0-d array) is
    checked and evaluated in cmath and returned as a Python complex: the
    density quadratures call this once per point, about 1e5 times per
    constant, and numpy's per-call cost would be most of the work.

    On (0, 1] all branches are principal, and the continuation to the upper
    half plane is realized by principal branches as well: writing
    z = sech(sigma + i*tau) with sigma > 0, -pi < tau < 0 one finds
    (1 + w)/z = exp(sigma + i*tau), whose argument stays inside (-pi, 0), so
    the principal logarithm never jumps.
    """
    if not isinstance(z, (complex, float, int)):
        arr = np.asarray(z, dtype=complex)
        if arr.shape:
            bad = ~((arr.imag > 0.0) | ((arr.imag == 0.0) & (arr.real > 0.0) & (arr.real <= 1.0)))
            if np.any(bad):
                raise ValueError(_PHASE_DOMAIN % (arr[bad].flat[0],))
            w = _branch_sqrt_one_minus_z2(arr)
            return np.log((1.0 + w) / arr) - w
        z = arr
    z = complex(z)
    if not (z.imag > 0.0 or (z.imag == 0.0 and 0.0 < z.real <= 1.0)):
        raise ValueError(_PHASE_DOMAIN % (z,))
    w = cmath.sqrt(1.0 - z) * cmath.sqrt(1.0 + z)
    return cmath.log((1.0 + w) / z) - w


@lru_cache(maxsize=1)
def coth_fixed_point() -> float:
    """The unique root of coth(s) = s in (1, 2).

    coth(1) - 1 > 0 and coth(2) - 2 < 0, so the bracket is guaranteed.
    """
    return float(brentq(lambda s: 1.0 / math.tanh(s) - s, 1.0, 2.0,
                        xtol=1e-15, rtol=8.9e-16))


def _im_radicand(s: float) -> float:
    """s^2 - s*tanh(s), with a series for small s to dodge cancellation."""
    if s < 0.1:
        s2 = s * s
        # s^2 - s*tanh s = s^4/3 - 2 s^6/15 + 17 s^8/315 - 62 s^10/2835 + ...
        return s2 * s2 * (1.0 / 3.0 + s2 * (-2.0 / 15.0 + s2 * (
            17.0 / 315.0 + s2 * (-62.0 / 2835.0 + s2 * (1382.0 / 155925.0)))))
    return s * s - s * math.tanh(s)


def critical_curve_point(s: float, sign: int = +1) -> complex:
    """Point of the critical curve at parameter s in (0, s0].

    Returns ``sign * sqrt(s*coth(s) - s^2) + i*sqrt(s^2 - s*tanh(s))``.
    Both radicands are nonnegative exactly on (0, s0]; outside that range a
    ValueError is raised.
    """
    s0 = coth_fixed_point()
    if not 0.0 < s <= s0 * (1.0 + 1e-12):
        raise ValueError(f"curve parameter must lie in (0, s0~{s0:.6f}]; got {s}")
    if sign not in (+1, -1):
        raise ValueError("sign must be +1 or -1")
    if abs(s - s0) <= 4.0 * _EPS * s0:
        # The real radicand vanishes identically at the fixed point; evaluating
        # it in doubles would leave an O(sqrt(eps)) residue.
        re2 = 0.0
    else:
        re2 = max(s / math.tanh(s) - s * s, 0.0)
    im2 = max(_im_radicand(s), 0.0)
    return complex(sign * math.sqrt(re2), math.sqrt(im2))


def _curve_arg_plus(s: float) -> float:
    """Argument of the + branch curve point; increases from 0 to pi/2."""
    p = critical_curve_point(s, +1)
    return math.atan2(p.imag, p.real)


def critical_curve_modulus(theta: float) -> float:
    """Modulus of the critical-curve point with argument theta in (0, pi).

    Uses the + branch for theta < pi/2 and the reflection symmetry for
    theta > pi/2.  Along the curve |z|^2 = 2 s / sinh(2 s), which is what is
    returned once the parameter is solved for.
    """
    if not 0.0 < theta < math.pi:
        raise ValueError(f"angle must lie in (0, pi); got {theta}")
    s0 = coth_fixed_point()
    if theta > math.pi / 2.0:
        theta = math.pi - theta
    if abs(theta - math.pi / 2.0) < 1e-15:
        return math.sqrt(s0 * s0 - 1.0)
    s_lo = 1e-9
    if theta <= _curve_arg_plus(s_lo):
        return 1.0  # indistinguishable from the curve endpoint at this angle
    s = brentq(lambda t: _curve_arg_plus(t) - theta, s_lo, s0 * (1.0 - 1e-14),
               xtol=1e-15, rtol=8.9e-16)
    return math.sqrt(2.0 * s / math.sinh(2.0 * s))


# ---------------------------------------------------------------------------
# Spherical Bessel and Hankel functions
# ---------------------------------------------------------------------------
#
# The pair evaluators go through scipy's AMOS routines (uniform asymptotics).
# The scaled Hankel pair overflows for |z| well below the order, and in the
# lower half plane it can be an exact 0 at large order (a false zero).  There
# the one fallback takes the unscaled pair at the highest order m <= ell where
# it is finite and nonzero and recurs upward: at a false zero m = ell and no
# step runs; on overflow m lies far above |z|, where h^(1) dominates and the
# recurrence is stable (from order 0 it gains up to e^(2 |Im z|) in rounding).
# On 68 seeded points (order <= 350, |z| in [1e-5, 200]; 36 false zeros, 16
# overflowing, 16 plain) log h_ell^(1) matches mpmath to 6e-14 (log|h|
# relative, phase absolute).
#
# Every evaluator below takes the order ``ell`` as an int or as an integer
# array of z's shape, one order per point.  Each point of an array call
# gets, bit for bit, the value of an int call with its order on the points
# of that order: per-order constants use Python scalar arithmetic
# (``_per_order``), and a sum that stops once all of a call's points have
# settled stops each order's points together.  That holds for calls of
# fewer than 16,384 points: at 256 KiB numpy computes ``fac * jve(...)`` as
# an in-place product with swapped operands, which FMA rounds differently.

@lru_cache(maxsize=1024)
def _log_double_factorial(n: int) -> float:
    """log(n!!) for odd n >= -1."""
    if n <= 0:
        return 0.0
    k = (n + 1) // 2  # n = 2k - 1
    return math.lgamma(2 * k + 1) - k * math.log(2.0) - math.lgamma(k + 1)


def _sph_factor(z):
    return np.sqrt(np.pi / (2.0 * z))


def _at(ell, rows):
    """The orders of the given points; an int order is every point's order."""
    return ell[rows] if isinstance(ell, np.ndarray) else ell


def _per_order(f, ell):
    """f(ell), or f of each element of an order array, evaluated once per
    distinct order in Python scalar arithmetic as an int call would."""
    if not isinstance(ell, np.ndarray):
        return f(ell)
    orders, index = np.unique(ell, return_inverse=True)
    return np.array([f(int(n)) for n in orders])[index]


# -- log-scaled pair evaluators (internal API) ------------------------------
#
# These return (f_(ell-1), f_ell, log_scale) with true value = f * exp(s),
# elementwise over a 1-D complex array.  They never overflow for arguments
# this package evaluates, which lets the resonance solver track winding
# phases of channel functions whose magnitudes span hundreds of decades.

def sph_j_pair_log(ell, z: np.ndarray):
    """Scaled (j_(ell-1), j_ell) pair; z must be a nonzero 1-D complex array."""
    z = np.asarray(z, dtype=complex)
    fac = _sph_factor(z)
    with np.errstate(invalid="ignore", over="ignore", divide="ignore", under="ignore"):
        jm1 = fac * _ss.jve(ell - 0.5, z)
        jl = fac * _ss.jve(ell + 0.5, z)
    s = np.abs(z.imag).astype(float)  # jve removes exp(|Im z|)
    # Underflow of the scaled form to 0.0 loses the log information; that can
    # only happen for |z| well below the order, where the series pair is both
    # convergent and exact in log form.  (An exact real-axis zero of j_ell at
    # large |z| stays a plain 0.0, which is the value, not an underflow.)
    bad = ~(np.isfinite(jm1) & np.isfinite(jl))
    bad |= ((jl == 0) | (jm1 == 0)) & (np.abs(z) ** 2 < 4.0 * (2 * ell + 3))
    if np.any(bad):
        bm1, bl, bs = _j_pair_series_log(_at(ell, bad), z[bad])
        jm1[bad], jl[bad], s[bad] = bm1, bl, bs
    return jm1, jl, s


def sph_j_series(ell, u: np.ndarray):
    """S_ell(u) and S_ell'(u), where j_ell(z) = z^ell S_ell(z^2) / (2 ell + 1)!!
    for ell >= -1 (S_(-1)(z^2) = cos z): S_ell(u) = sum c_m u^m, c_0 = 1,
    c_(m+1) = -c_m / (2 (m+1) (2 ell + 2 m + 3)).  Free of cancellation
    while |u| is small against the order.

    The sum stops once every point has settled, so an order array is
    summed one distinct order at a time."""
    if isinstance(ell, np.ndarray):
        s, ds = np.empty_like(u), np.empty_like(u)
        for n in np.unique(ell):
            rows = ell == n
            s[rows], ds[rows] = sph_j_series(int(n), u[rows])
        return s, ds
    s = np.ones_like(u)
    ds = np.zeros_like(u)
    c = np.ones_like(u)  # c_m u^m
    for m in range(80):
        c_next = c * (-0.5) / ((m + 1) * (2 * ell + 2 * m + 3))  # c_{m+1} u^m
        ds = ds + (m + 1) * c_next
        c = c_next * u                                            # c_{m+1} u^{m+1}
        s = s + c
        if np.all(np.abs(c) <= 1e-19 * np.abs(s)):
            break
    return s, ds


def _j_pair_series_log(ell, z: np.ndarray):
    """Power-series pair for |z| << ell, in mantissa/log form."""
    logz = np.log(z)
    u = z * z

    def one(l):
        lg = l * logz - _per_order(lambda n: _log_double_factorial(2 * n + 1), l)
        return sph_j_series(l, u)[0] * np.exp(1j * lg.imag), lg.real

    vm1, sm1 = one(ell - 1)
    vl, sl = one(ell)
    # unify scales on the larger one
    s = np.maximum(sm1, sl)
    with np.errstate(under="ignore"):
        return vm1 * np.exp(sm1 - s), vl * np.exp(sl - s), s


def sph_h_pair_log(ell, z: np.ndarray):
    """Scaled (h_(ell-1), h_ell) pair of the outgoing Hankel function h^(1);
    where the scaled AMOS pair is not usable (finite and nonzero), the one
    fallback; NumericalError where no order is usable."""
    z = np.asarray(z, dtype=complex)
    if np.any(z == 0):
        raise ValueError("Hankel functions require z != 0")
    fac = _sph_factor(z)
    with np.errstate(invalid="ignore", over="ignore", divide="ignore", under="ignore"):
        hm1 = fac * _ss.hankel1e(ell - 0.5, z)
        hl = fac * _ss.hankel1e(ell + 0.5, z)
    s = (1j * z).real.astype(float)            # hankel1e removes exp(iz)
    phase = np.exp(1j * (1j * z).imag)
    hm1, hl = hm1 * phase, hl * phase
    bad = ~(np.isfinite(hm1) & np.isfinite(hl)) | (hm1 == 0) | (hl == 0)
    if np.any(bad):
        hm1[bad], hl[bad], s[bad] = _h_pair_upward_log(_at(ell, bad), z[bad], fac[bad])
    return hm1, hl, s


def _h_pair_upward_log(ell, z: np.ndarray, fac: np.ndarray):
    """The unscaled pair at the highest usable order m <= ell (by bisection,
    m = ell first), over its larger modulus, recurred up to ell (DLMF 10.51.1)."""
    ell = np.broadcast_to(ell, z.shape)
    hm1, hl = np.empty_like(z), np.empty_like(z)

    def usable_at(m, rows):  # stores the pair where it is usable
        with np.errstate(invalid="ignore", over="ignore"):
            um1 = fac[rows] * _ss.hankel1(m - 0.5, z[rows])
            ul = fac[rows] * _ss.hankel1(m + 0.5, z[rows])
        good = np.isfinite(um1) & np.isfinite(ul) & (um1 != 0) & (ul != 0)
        hm1[rows[good]], hl[rows[good]] = um1[good], ul[good]
        return good

    # lo: the highest order found usable (-1: none), hi: one found unusable
    lo = np.where(usable_at(ell, np.arange(z.size)), ell, -1)
    hi = ell.copy()
    while (rows := np.flatnonzero(hi - lo > 1)).size:
        mid = (lo[rows] + hi[rows]) // 2
        good = usable_at(mid, rows)
        lo[rows[good]], hi[rows[~good]] = mid[good], mid[~good]
    if np.any(lo < 0):
        first = np.flatnonzero(lo < 0)[0]
        raise NumericalError(f"scaled-Hankel false zero: AMOS has no usable pair at the order "
                             f"{ell[first]} or below at z = {complex(z[first]):.12g}",
                             key=int(ell[first]))
    top = np.maximum(np.abs(hm1), np.abs(hl))
    hm1, hl, log_scale = hm1 / top, hl / top, np.log(top)
    for n in range(int(np.min(lo, initial=ell.max(), where=lo < ell)), int(ell.max())):
        live = (lo <= n) & (n < ell)  # points between their seed and their order
        with np.errstate(over="ignore", invalid="ignore"):
            step = (2 * n + 1) / z * hl - hm1
        hm1, hl = np.where(live, hl, hm1), np.where(live, step, hl)
        big = np.abs(hl) > _RESCALE
        if np.any(big):
            hm1[big] /= _RESCALE
            hl[big] /= _RESCALE
            log_scale[big] += _LOG_RESCALE
    return hm1, hl, log_scale
