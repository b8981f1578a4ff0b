"""Branch-correct special functions used throughout the package.

Contents:

* ``bessel_phase`` -- the phase function from uniform Bessel-function
  asymptotics, continuous on the open upper half plane together with (0, 1].
* ``coth_fixed_point`` / ``critical_curve_point`` / ``critical_curve_modulus``
  -- the curve separating the sign regions of ``Re bessel_phase``; the
  modulus takes an array of angles, solved by one elementwise Illinois
  root finder (``_root``), which the density layer's support edges use too.
* ``sph_j_pair_log`` / ``sph_h_pair_log`` -- log-scaled pairs
  (f_(l-1), f_l) of the spherical Bessel ``j_l`` and the outgoing Hankel
  ``h_l^(1)`` for complex arguments and integer orders, backed by scipy's
  AMOS routines, one AMOS order per point that follows its argument at the
  order below (the channel matcher lays its points out so); where the
  scaled pair is not usable, from a seed carried by the recurrence (the
  comment above them).  Both return their pair in one normal form, divided
  by its larger modulus, and so keep magnitudes that span hundreds of
  decades representable.  The resonance solver's channel matcher takes the
  raw scaled AMOS members of both at once (``_matcher_members``) and their
  normal forms and fallbacks (``_h_normal``, ``_j_normal``) only at the
  points that need them.  The incoming ``h_l^(2)`` is not evaluated: it is
  conj(h_l^(1)(conj z)), and the matcher takes it that way.

All functions are pure; ``sph_j_pair_log`` writes only to an ``upper`` array
it is handed, and ``_j_normal`` to the pair it is handed.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
from scipy import special as _ss

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
_J_CARRY_START = 40  # orders above ell + ceil|z| where the backward j ratios start


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

    Accepts a complex scalar or array; a scalar (a Python or numpy number or
    a 0-d array) is returned as a Python complex.  The domain is the open
    upper half plane together with the real interval (0, 1]; elsewhere the
    branch prescription is ambiguous and a ValueError is raised.

    On (0, 1] all branches are principal, and the continuation to the upper
    half plane is realized by principal branches as well: writing
    z = sech(sigma + i*tau) with sigma > 0, -pi < tau < 0 one finds
    (1 + w)/z = exp(sigma + i*tau), whose argument stays inside (-pi, 0), so
    the principal logarithm never jumps.
    """
    # a scalar is evaluated as a 1-element array: numpy's scalar arithmetic
    # rounds differently
    arr = np.asarray(z, dtype=complex)
    z1 = np.atleast_1d(arr)
    bad = ~((z1.imag > 0.0) | ((z1.imag == 0.0) & (z1.real > 0.0) & (z1.real <= 1.0)))
    if np.any(bad):
        raise ValueError(_PHASE_DOMAIN % (complex(z1[bad][0]),))
    w = _branch_sqrt_one_minus_z2(z1)
    tiny = (abs(z1.real) < 1e-300) & (z1.imag < 1e-300)
    if tiny.any():
        # (1 + w)/z overflows below |z| ~ 1e-308: there log z is taken apart;
        # arg(1 + w) - arg z stays in (-pi, 0], so the branch is the same
        out = (np.log((1.0 + w) / np.where(tiny, 1.0, z1))
               - np.log(np.where(tiny, z1, 1.0)) - w)
    else:
        out = np.log((1.0 + w) / z1) - w
    return out if arr.shape else complex(out[0])


def _root(f, a, b, xtol: float = 0.0):
    """Elementwise roots of the vectorised f on the brackets [a, b], by the
    Illinois variant of regula falsi: each secant step keeps the sign change
    bracketed, and an end kept twice running has its f value halved.  A
    step is held at least half the tolerance inside the bracket, so the
    bracket closes on the root; an element stops once its bracket is at
    most ``xtol + 4 eps |x|`` wide or f vanishes at its latest point x,
    which is returned.  A finished element stops moving, so its result does
    not depend on the others.  Where f has no sign change on [a, b], the
    end of smaller |f| is returned.
    """
    a, b = (np.array(v, dtype=float) for v in np.broadcast_arrays(a, b))
    fa, fb = f(a), f(b)
    flat = (fa < 0.0) == (fb < 0.0)
    b = np.where(flat & (abs(fa) < abs(fb)), a, b)
    a = np.where(flat, b, a)
    while True:
        tol = xtol + 4.0 * _EPS * abs(b)
        done = (abs(b - a) <= tol) | (fb == 0.0)
        if done.all():
            return b
        lo, hi = np.minimum(a, b) + 0.5 * tol, np.maximum(a, b) - 0.5 * tol
        with np.errstate(divide="ignore", invalid="ignore"):  # 0/0 where finished
            x = np.where(done, b, np.minimum(np.maximum(b - fb * ((b - a) / (fb - fa)), lo), hi))
        fx = f(x)
        flip = (fx < 0.0) != (fb < 0.0)
        a, fa = np.where(flip, b, a), np.where(flip, fb, 0.5 * fa)
        b, fb = x, fx


@lru_cache(maxsize=1)
def coth_fixed_point() -> float:
    """The unique root of coth(s) = s in (1, 2).

    coth(1) - 1 > 0 and coth(2) - 2 < 0, so the bracket is guaranteed.
    """
    return float(_root(lambda s: 1.0 / np.tanh(s) - s, 1.0, 2.0))


def _im_radicand(s):
    """s^2 - s*tanh(s), elementwise, with a series for small s to dodge
    cancellation."""
    s2 = s * s
    # s^2 - s*tanh s = s^4/3 - 2 s^6/15 + 17 s^8/315 - 62 s^10/2835 + ...
    series = s2 * s2 * (1.0 / 3.0 + s2 * (-2.0 / 15.0 + s2 * (
        17.0 / 315.0 + s2 * (-62.0 / 2835.0 + s2 * (1382.0 / 155925.0)))))
    return np.where(s < 0.1, series, s2 - s * np.tanh(s))


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
    im2 = max(float(_im_radicand(s)), 0.0)
    return complex(sign * math.sqrt(re2), math.sqrt(im2))


def _curve_s4(th, lo, hi):
    """v = s^4 of the + branch point with argument th in (0, pi/2], by
    ``_root`` on the brackets [lo, hi] of v."""
    cos2, sin2 = np.cos(th) ** 2, np.sin(th) ** 2

    def above(v):
        # > 0 where the point's argument exceeds theta: Im^2 cos^2 > Re^2 sin^2;
        # in v = s^4 it is near linear for small s, where Im^2 ~ s^4/3
        s = np.sqrt(np.sqrt(v))
        return _im_radicand(s) * cos2 - (s / np.tanh(s) - s * s) * sin2

    return _root(above, lo, hi)


@lru_cache(maxsize=1)
def _curve_table():
    """The angles k pi/512, k = 0 .. 256, and v = s^4 of the curve at each,
    solved once per process by ``_curve_s4`` on the whole range
    [1e-36, (s0 (1 - 1e-14))^4]; the end angles, where the test keeps its
    sign, take the range's ends."""
    grid = np.linspace(0.0, math.pi / 2.0, 257)
    return grid, _curve_s4(grid, 1e-36, (coth_fixed_point() * (1.0 - 1e-14)) ** 4)


def critical_curve_modulus(theta):
    """Modulus of the critical-curve point with argument theta in (0, pi).

    Takes a float or an array of angles and returns a float or an array.
    Uses the + branch for theta < pi/2 and the reflection symmetry for
    theta > pi/2.  The curve parameter s is solved for on (0, s0), where
    the + branch point's argument rises from 0 to pi/2, by ``_root`` in the
    variable s^4, from the bracket of the angle's cell in a coarse table of
    the curve (``_curve_table``); along the curve |z|^2 = 2 s / sinh(2 s),
    which is what is returned.  Below the argument at s = 1e-9 that is 1,
    the curve's endpoint to double precision.
    """
    th = np.atleast_1d(np.asarray(theta, dtype=float)).ravel()
    bad = ~((0.0 < th) & (th < math.pi))
    if np.any(bad):
        raise ValueError(f"angle must lie in (0, pi); got {th[bad][0]}")
    s0 = coth_fixed_point()
    th = np.where(th > math.pi / 2.0, math.pi - th, th)
    grid, v = _curve_table()
    cell = np.clip(np.searchsorted(grid, th) - 1, 0, grid.size - 2)
    s = np.sqrt(np.sqrt(_curve_s4(th, v[cell], v[cell + 1])))
    m = np.sqrt(2.0 * s / np.sinh(2.0 * s))
    m = np.where(abs(th - math.pi / 2.0) < 1e-15, math.sqrt(s0 * s0 - 1.0), m)
    return m.reshape(np.shape(theta)) if np.ndim(theta) else float(m[0])


# ---------------------------------------------------------------------------
# Spherical Bessel and Hankel functions
# ---------------------------------------------------------------------------
#
# The pair evaluators go through scipy's AMOS routines (uniform asymptotics),
# scaled: hankel1e removes exp(iz), jve exp(|Im z|).  The scaled Hankel pair
# overflows for |z| well below the order and can be an exact 0 at large order
# in the lower half plane (a false zero); the j mantissa underflows to 0 for
# orders well above |z| at large |Im z|, where j may be in range (from order
# 733 at z = 0.2 - 301i) or below it (j_1205(11.288 - 394.735i) = e^-950.8).
# There both pairs take the unscaled pair at ell where it is finite and
# nonzero, else a seed where the recurrence (DLMF 10.51.1) is stable,
# carried to ell with no search.  j, the minimal solution, is carried up
# from its closed forms by the ratios of a backward recurrence (Miller's
# algorithm, DLMF 3.6; ``_j_ratio_logs``, which the matcher's small-|k|
# branch takes too), their logs summed.  h^(1) is carried up from its
# closed forms where Im z >= 0; below the real axis |h_ell| falls with ell
# to a minimum near |z| / m(-arg z), m the critical-curve modulus, and
# rises after it, so the seed is the unscaled pair there, carried both ways
# (at z = -1500i from order 2263).  Against mpmath, log h_ell^(1)
# matches to 6e-14 on 68 seeded points (order <= 350, |z| in [1e-5, 200];
# log|h| relative, phase absolute; 8e-15 on the 20 carried ones) and log
# j_ell to 2e-14 of max(1, |log j|) on the 536 fallback points of 2,000
# draws (ell < 1000, |z| < 600; 411 carried).
#
# Every evaluator below takes one order per point: ``ell`` is an integer
# array of z's shape (the entry points of the matcher turn an int order into
# one), and every per-order constant is elementwise numpy.  A point right
# after the same z, bit for bit, at order ell - 1 copies its lower member
# AMOS(ell - 1/2, z) from that neighbour's upper one, the same bits
# (``_fresh``, ``_amos_members``), so a call in (z, ell) order, as the
# matcher's pieces are, makes one AMOS evaluation per order and argument.
# In any layout each point's value is a function of that point and its
# order alone, bit for bit: a sum over terms stops each point at its own
# settled term.  That
# holds for calls of fewer than 16,384 points: at 256 KiB numpy computes
# ``fac * jve(...)`` as an in-place product with swapped operands, which
# FMA rounds differently.

def _log_double_factorial(n: int) -> float:
    """log(n!!) for odd n >= -1."""
    if n <= 0:
        return 0.0
    k = (n + 1) // 2  # n = 2k - 1
    return math.lgamma(2 * k + 1) - k * math.log(2.0) - math.lgamma(k + 1)


def _sph_factor(z):
    return np.sqrt(np.pi / (2.0 * z))


_LOG_ODD_DF = np.zeros(0)  # entry ell + 1: log (2 ell + 1)!!, for ell = -1, 0, 1, ...


def _log_odd_double_factorials(ell: np.ndarray) -> np.ndarray:
    """log (2 ell + 1)!! of each order of an integer array (ell >= -1), read
    from a module table of ``_log_double_factorial(2 ell + 1)`` from ell = -1
    up, rebuilt at twice its length when an order passes its end."""
    global _LOG_ODD_DF
    top = int(ell.max(initial=-1))
    if top + 1 >= _LOG_ODD_DF.size:
        n = max(2 * _LOG_ODD_DF.size, top + 2)
        _LOG_ODD_DF = np.array([_log_double_factorial(2 * m - 1) for m in range(n)])
    return _LOG_ODD_DF[ell + 1]


# -- log-scaled pair evaluators (internal API) ------------------------------
#
# These return (f_(ell-1), f_ell, log_scale) with true value = f * exp(s),
# elementwise over a 1-D complex array, in one normal form: a finite,
# nonzero pair is divided by its larger modulus (``_normal_form``), so that
# products of two pairs' members and the derivative combination
# f_(ell-1) - (ell + 1) / z f_ell neither underflow nor overflow.  They never
# overflow for arguments this package evaluates, which lets the resonance
# solver track winding phases of channel functions whose magnitudes span
# hundreds of decades.

def _usable(fm1, fl):
    return np.isfinite(fm1) & np.isfinite(fl) & (fm1 != 0) & (fl != 0)


def _normal_form(fm1, fl, s):
    """The pair over its larger modulus, whose log is added to the scale,
    wherever that modulus is finite and nonzero."""
    top = np.maximum(np.abs(fm1), np.abs(fl))
    top = np.where(np.isfinite(top) & (top > 0), top, 1.0)
    return fm1 / top, fl / top, s + np.log(top)


def _fresh(ell, z):
    """Where each point evaluates its lower AMOS member: everywhere but
    right after the same z, bit for bit, at order ell - 1."""
    re, im = z.real.view(np.int64), z.imag.view(np.int64)
    fresh = np.ones(z.shape, dtype=bool)
    fresh[1:] = (ell[1:] != ell[:-1] + 1) | (re[1:] != re[:-1]) | (im[1:] != im[:-1])
    return fresh


def _amos_members(scaled, ell, z, fresh):
    """The raw members scaled(ell -+ 1/2, z) of an AMOS routine: the upper
    one evaluated, the lower one evaluated where ``fresh``, else a copy of
    the upper member of the point before."""
    with np.errstate(invalid="ignore", over="ignore", divide="ignore", under="ignore"):
        upper = scaled(ell + 0.5, z)
        lower = np.empty_like(upper)
        lower[1:] = upper[:-1]
        own = fresh.nonzero()[0]
        lower[own] = scaled(ell[own] - 0.5, z[own])
    return lower, upper


def _amos_pair(scaled, ell, z, fac, lower=None):
    """The raw pair fac * scaled(ell -+ 1/2, z) of an AMOS routine, scaled or
    not: the upper member evaluated, the lower one a copy of ``lower`` if
    given, else of the upper member of the point before if that has the
    same z, bit for bit, and the order ell - 1 (``_fresh``), else evaluated."""
    with np.errstate(invalid="ignore", over="ignore", divide="ignore", under="ignore"):
        if lower is None:
            return tuple(fac * m for m in _amos_members(scaled, ell, z, _fresh(ell, z)))
        return np.array(lower, dtype=complex), fac * scaled(ell + 0.5, z)


def _matcher_members(ell, lam, la, ka, small):
    """The channel matcher's raw scaled AMOS members, in its (lambda, ell)
    order: hankel1e(ell -+ 1/2, la) at every point and jve(ell -+ 1/2, ka)
    but at the points ``small`` (there 1), under one run mask on lambda's
    bits, so that a point right after the same lambda at order ell - 1
    copies both lower members (la, ka and ``small`` are functions of
    lambda)."""
    if (la == 0).any():
        raise ValueError("Hankel functions require z != 0")
    fresh = _fresh(ell, lam)
    hm1, hl = _amos_members(_ss.hankel1e, ell, la, fresh)
    if not small.any():
        return hm1, hl, *_amos_members(_ss.jve, ell, ka, fresh)
    big = (~small).nonzero()[0]
    jm1, jl = np.ones_like(hl), np.ones_like(hl)
    jm1[big], jl[big] = _amos_members(_ss.jve, ell[big], ka[big], fresh[big])
    return hm1, hl, jm1, jl


def sph_j_pair_log(ell, z: np.ndarray, lower=None, upper=None):
    """Scaled (j_(ell-1), j_ell) pair, ell an int or an integer array of z's
    shape; where the scaled AMOS pair is not usable (finite and nonzero),
    the fallback (``_j_pair_fallback_log``).  A point right after the same
    z at order ell - 1 copies its lower member (``_amos_pair``).  A chain of
    calls at the same points, each one order above the last, evaluates one
    order per point and call: a call receives its raw upper members
    fac jve(ell + 1/2, z) in ``upper`` (an array of z's shape) and hands
    them on as ``lower``."""
    z = np.asarray(z, dtype=complex)
    if (z == 0).any():
        raise ValueError("Bessel functions require z != 0")
    ell = np.broadcast_to(ell, z.shape)
    fac = _sph_factor(z)
    jm1, jl = _amos_pair(_ss.jve, ell, z, fac, lower)
    if upper is not None:
        upper[...] = jl
    return _j_normal(ell, z, fac, jm1, jl)


def _j_normal(ell, z, fac, jm1, jl):
    """The j pair in normal form from fac * jve(ell -+ 1/2, z); the
    fallback where that is not usable.  Writes to jm1 and jl."""
    s = np.abs(z.imag).astype(float)  # jve removes exp(|Im z|)
    bad = ~_usable(jm1, jl)
    if bad.any():
        jm1[bad], jl[bad], s[bad] = _j_pair_fallback_log(ell[bad], z[bad], fac[bad])
    return _normal_form(jm1, jl, s)


def sph_h_pair_log(ell, z: np.ndarray):
    """Scaled (h_(ell-1), h_ell) pair of the outgoing Hankel function h^(1),
    ell an int or an integer array of z's shape; where the scaled AMOS pair
    is not usable (finite and nonzero), the fallback
    (``_h_pair_fallback_log``).  A point right after the same z at order
    ell - 1 copies its lower member (``_amos_pair``)."""
    z = np.asarray(z, dtype=complex)
    if (z == 0).any():
        raise ValueError("Hankel functions require z != 0")
    ell = np.broadcast_to(ell, z.shape)
    fac = _sph_factor(z)
    return _h_normal(ell, z, fac, *_amos_pair(_ss.hankel1e, ell, z, fac))


def _h_normal(ell, z, fac, hm1, hl):
    """The Hankel pair in normal form from fac * hankel1e(ell -+ 1/2, z);
    the fallback where that is not usable."""
    s = (1j * z).real.astype(float)            # hankel1e removes exp(iz)
    phase = np.exp(1j * (1j * z).imag)
    hm1, hl = hm1 * phase, hl * phase
    bad = ~_usable(hm1, hl)
    if bad.any():
        hm1[bad], hl[bad], s[bad] = _h_pair_fallback_log(ell[bad], z[bad], fac[bad])
    return _normal_form(hm1, hl, s)


def _h_pair_fallback_log(ell: np.ndarray, z: np.ndarray, fac: np.ndarray):
    """The Hankel pair's fallback, over its larger modulus, and that
    modulus's log: the unscaled AMOS pair at ell where it is usable, else a
    seed carried to ell, the closed form (h_(-1), h_0) = (1, -i) e^(iz) / z
    where Im z >= 0 and the unscaled pair at the minimum's order
    ell* = max(0, round(|z| / m(-arg z) - 1/2)) below the real axis;
    NumericalError where that pair is not usable either."""
    hm1, hl = _amos_pair(_ss.hankel1, ell, z, fac)
    seed, log_scale = ell.copy(), np.zeros(z.shape)
    rows = np.flatnonzero(~_usable(hm1, hl))
    if rows.size:
        up, low = rows[z[rows].imag >= 0], rows[z[rows].imag < 0]
        seed[up] = 0  # e^(iz) / z = e^(-Im z) / |z| times a phase
        phase = np.exp(1j * (z[up].real - np.angle(z[up])))
        hm1[up], hl[up], log_scale[up] = phase, -1j * phase, -z[up].imag - np.log(np.abs(z[up]))
        m = critical_curve_modulus(-np.angle(z[low]))
        seed[low] = np.maximum(np.rint(np.abs(z[low]) / m - 0.5), 0.0)
        hm1[low], hl[low] = _amos_pair(_ss.hankel1, seed[low], z[low], fac[low])
        for i in low[~_usable(hm1[low], hl[low])][:1]:
            raise NumericalError(f"scaled-Hankel false zero: AMOS has no usable pair at the "
                                 f"order {ell[i]} or at the Hankel minimum's order {seed[i]} "
                                 f"at z = {complex(z[i]):.12g}", key=int(ell[i]))
    top = np.maximum(np.abs(hm1), np.abs(hl))
    hm1, hl, log_scale = hm1 / top, hl / top, log_scale + np.log(top)
    # (x, y) = (h_(n-1), h_n) going up, (h_(n+1), h_n) going down; both
    # directions step y to c / z y - x, c = 2n + 1
    steps, down = np.abs(ell - seed), ell < seed
    x, y = np.where(down, hl, hm1), np.where(down, hm1, hl)
    c, dc = 2 * np.where(down, seed - 1, seed) + 1, np.where(down, -2, 2)
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(int(steps.max(initial=0))):
            live = i < steps
            x, y = np.where(live, y, x), np.where(live, c / z * y - x, y)
            c += dc
            big = np.abs(y) > _RESCALE
            if big.any():
                x[big], y[big] = x[big] / _RESCALE, y[big] / _RESCALE
                log_scale[big] += _LOG_RESCALE
    return np.where(down, y, x), np.where(down, x, y), log_scale


def _j_ratio_logs(ell: np.ndarray, u: np.ndarray, first):
    """The sum of log q_k over first <= k <= ell, q_ell and q_(ell+1) of the
    ratios q_k = j_k(z) / (z j_(k-1)(z)) at u = z^2, elementwise, by the
    backward recurrence q_k = 1 / (2k + 1 - u q_(k+1)) from q = 0
    ``_J_CARRY_START`` + ceil|z| orders above ell, or, where |u| < 1, the n
    orders above ell (at least 1) at which (|u| / 15)^n falls below eps: a
    step down from k + 1 to k scales the error of q by u q_k q_(k+1), about
    u / ((2k + 1)(2k + 3)), at most |u| / 15 in size from k = 1 on.  Each
    point runs from its own start, so its values do not depend on the other
    points of the call."""
    mod = np.abs(u)
    with np.errstate(divide="ignore"):
        near = np.maximum(np.ceil(math.log(_EPS) / np.log(mod / 15.0)), 1.0)
    start = ell + np.where(mod < 1.0, near, _J_CARRY_START + np.ceil(np.sqrt(mod))).astype(int)
    top = int(ell.max(initial=0)) + 1
    table = np.zeros((top + 1, u.size), dtype=complex)  # row k: q_k, for k <= top
    q = np.zeros_like(u)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for k in range(int(start.max(initial=0)), -1, -1):
            np.divide(1.0, 2 * k + 1 - u * q, out=q, where=k <= start)
            if k <= top:
                table[k] = q
        k = np.arange(top + 1)[:, None]
        logs = np.log(table, out=np.zeros_like(table), where=(first <= k) & (k <= ell))
    at = np.arange(u.size)
    # accumulate adds each point's terms in order, whatever the other points
    return np.add.accumulate(logs)[-1], table[ell, at], table[ell + 1, at]


def _j_pair_fallback_log(ell: np.ndarray, z: np.ndarray, fac: np.ndarray):
    """The j pair's fallback, as (j_(ell-1), j_ell, log scale): the unscaled
    AMOS pair at ell where it is usable, else j_0 = sin z / z, or
    j_(-1) = cos z / z where |tan z| < 1, in log form, carried up to ell."""
    jm1, jl = _amos_pair(_ss.jv, ell, z, fac)
    s = np.zeros(z.shape)
    rows = np.flatnonzero(~_usable(jm1, jl))
    if rows.size:
        ell, z = ell[rows], z[rows]
        # cos z = e^t (1 + w) / 2 and sin z = e^t (1 - w) / 2c for t = cz, c = +-i,
        # Re t = |Im z|, and w = e^(-2t), |w| <= 1
        c = np.where(z.imag < 0, 1j, -1j)
        w = np.exp(-2.0 * c * z)
        first = np.where(w.real > 0, 0, 1)  # j_(first - 1) anchors; w.real > 0: |tan z| < 1
        log_sum, q_ell, _ = _j_ratio_logs(ell, z * z, first)
        log_z = np.log(z)
        log_jl = (c * z + np.log(np.where(first == 0, (1.0 + w) / 2.0, (1.0 - w) / (2.0 * c)))
                  + (ell - first) * log_z + log_sum)
        log_jm1 = log_jl - log_z - np.log(q_ell)
        top = np.maximum(log_jm1.real, log_jl.real)
        jm1[rows], jl[rows], s[rows] = np.exp(log_jm1 - top), np.exp(log_jl - top), top
    return jm1, jl, s
