"""Branch-correct special functions used throughout the package.

Contents:

* ``bessel_phase`` -- the phase function from uniform Bessel-function
  asymptotics, continuous on the open upper half plane together with (0, 1].
* ``coth_fixed_point`` / ``critical_curve_point`` / ``critical_curve_modulus``
  -- the curve separating the sign regions of ``Re bessel_phase``.
* ``sph_j_pair_log`` / ``sph_h_pair_log`` -- log-scaled pairs
  (f_(l-1), f_l) of the spherical Bessel ``j_l`` and Hankel ``h_l^(1)``,
  ``h_l^(2)`` for complex arguments and integer orders, backed by scipy's
  AMOS routines with a series or recurrence fallback where the scaled AMOS
  forms underflow or overflow.  They are the evaluators the resonance
  solver's channel matcher calls, and they keep magnitudes that span
  hundreds of decades representable.
* ``gamma_real`` -- Gamma at positive integer and half-integer arguments.

All functions are pure.
"""

from __future__ import annotations

import cmath
import math
from functools import lru_cache

import numpy as np
from scipy import special as _ss
from scipy.optimize import brentq

__all__ = [
    "bessel_phase",
    "coth_fixed_point",
    "critical_curve_point",
    "critical_curve_modulus",
    "gamma_real",
]

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

    On (0, 1] all branches are principal, and the continuation to the upper
    half plane is realized by principal branches as well: writing
    z = sech(sigma + i*tau) with sigma > 0, -pi < tau < 0 one finds
    (1 + w)/z = exp(sigma + i*tau), whose argument stays inside (-pi, 0), so
    the principal logarithm never jumps.
    """
    arr = np.asarray(z, dtype=complex)
    bad = ~((arr.imag > 0.0) | ((arr.imag == 0.0) & (arr.real > 0.0) & (arr.real <= 1.0)))
    if np.any(bad):
        raise ValueError(
            "bessel_phase is defined for Im z > 0 or real z in (0, 1]; got %r"
            % (arr[bad].flat[0] if arr.shape else complex(arr),)
        )
    if arr.shape == ():
        zz = complex(arr)
        w = cmath.sqrt(1.0 - zz) * cmath.sqrt(1.0 + zz)
        return cmath.log((1.0 + w) / zz) - w
    w = _branch_sqrt_one_minus_z2(arr)
    return np.log((1.0 + w) / arr) - w


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
    if abs(s - s0) <= 4.0 * np.finfo(float).eps * s0:
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
# The pair evaluators go through scipy's AMOS routines (uniform asymptotics,
# ~1e-13 relative over order <= 200 and |z| <= 1e3).  Naive up/down
# recurrences lose all digits once |Im z| is large because the two solutions
# swap dominant/recessive roles along the order axis, so they are kept only
# as a *fallback* in the one regime where they are provably stable and the
# scaled AMOS forms overflow: |z| much smaller than the order, where the
# Hankel magnitude grows like (2n-1)!!/|z|^(n+1) at every step.

@lru_cache(maxsize=1024)
def _log_double_factorial(n: int) -> float:
    """log(n!!) for odd n >= -1."""
    if n <= 0:
        return 0.0
    k = (n + 1) // 2  # n = 2k - 1
    return math.lgamma(2 * k + 1) - k * math.log(2.0) - math.lgamma(k + 1)


def _sph_factor(z):
    return np.sqrt(np.pi / (2.0 * z))


# -- log-scaled pair evaluators (internal API) ------------------------------
#
# These return (f_(ell-1), f_ell, log_scale) with true value = f * exp(s),
# elementwise over a 1-D complex array.  They never overflow for arguments
# this package evaluates, which lets the resonance solver track winding
# phases of channel functions whose magnitudes span hundreds of decades.

def sph_j_pair_log(ell: int, z: np.ndarray):
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
        bm1, bl, bs = _j_pair_series_log(ell, z[bad])
        jm1[bad], jl[bad], s[bad] = bm1, bl, bs
    return jm1, jl, s


def _j_pair_series_log(ell: int, z: np.ndarray):
    """Power-series pair for |z| << ell, in mantissa/log form."""
    logz = np.log(z)

    def one(l):
        if l < 0:
            # j_(-1) = cos(z)/z
            return np.cos(z) / z, np.zeros(z.shape)
        acc = np.ones_like(z)
        term = np.ones_like(z)
        w = -0.5 * z * z
        for m in range(60):
            term = term * w / ((m + 1) * (2 * l + 2 * m + 3))
            acc += term
            if np.all(np.abs(term) <= 1e-18 * np.abs(acc)):
                break
        lg = l * logz - _log_double_factorial(2 * l + 1)
        return acc * np.exp(1j * lg.imag), lg.real

    vm1, sm1 = one(ell - 1)
    vl, sl = one(ell)
    # unify scales on the larger one
    s = np.maximum(sm1, sl)
    with np.errstate(under="ignore"):
        return vm1 * np.exp(sm1 - s), vl * np.exp(sl - s), s


def sph_h_pair_log(ell: int, z: np.ndarray, kind: int = 1):
    """Scaled (h_(ell-1), h_ell) pair for Hankel of the given kind."""
    z = np.asarray(z, dtype=complex)
    if np.any(z == 0):
        raise ValueError("Hankel functions require z != 0")
    fac = _sph_factor(z)
    if kind == 1:
        with np.errstate(invalid="ignore", over="ignore", divide="ignore", under="ignore"):
            hm1 = fac * _ss.hankel1e(ell - 0.5, z)
            hl = fac * _ss.hankel1e(ell + 0.5, z)
        s = (1j * z).real.astype(float)            # hankel1e removes exp(iz)
        phase = np.exp(1j * (1j * z).imag)
    else:
        with np.errstate(invalid="ignore", over="ignore", divide="ignore", under="ignore"):
            hm1 = fac * _ss.hankel2e(ell - 0.5, z)
            hl = fac * _ss.hankel2e(ell + 0.5, z)
        s = (-1j * z).real.astype(float)
        phase = np.exp(1j * (-1j * z).imag)
    hm1 = hm1 * phase
    hl = hl * phase
    bad = ~(np.isfinite(hm1) & np.isfinite(hl))
    if np.any(bad):
        # |z| << ell: the scaled AMOS form overflows although the log-scaled
        # value is fine; upward recurrence is stable in this regime because
        # the Hankel function dominates at every step.
        bm1, bl, bs = _h_pair_recurrence_log(ell, z[bad], kind)
        hm1[bad], hl[bad], s[bad] = bm1, bl, bs
    return hm1, hl, s


def _h_pair_recurrence_log(ell: int, z: np.ndarray, kind: int):
    sgn = 1j if kind == 1 else -1j
    log_scale = (sgn * z).real.astype(float).copy()
    phase = np.exp(1j * (sgn * z).imag)
    hm1 = phase / z
    hl = (-sgn) * phase / z
    for n in range(0, ell):
        hm1, hl = hl, (2 * n + 1) / z * hl - hm1
        big = np.abs(hl) > _RESCALE
        if np.any(big):
            hm1[big] /= _RESCALE
            hl[big] /= _RESCALE
            log_scale[big] += _LOG_RESCALE
    return hm1, hl, log_scale


# ---------------------------------------------------------------------------
# Gamma at halves
# ---------------------------------------------------------------------------

def gamma_real(x: float) -> float:
    """Gamma(x) for positive integer or half-integer x.

    Built by the recurrence Gamma(x+1) = x*Gamma(x) from Gamma(1) = 1 and
    Gamma(1/2) = sqrt(pi); that pins the relative error near machine epsilon
    for every argument this package needs.
    """
    if x <= 0.0:
        raise ValueError(f"gamma_real requires x > 0; got {x}")
    n2 = round(2.0 * x)
    if abs(2.0 * x - n2) > 1e-12:
        raise ValueError(
            f"gamma_real supports integer and half-integer arguments only; got {x}")
    if n2 % 2 == 0:
        value, arg = 1.0, 1.0
    else:
        value, arg = math.sqrt(math.pi), 0.5
    while arg + 0.25 < x:
        value *= arg
        arg += 1.0
    return value
