"""Checks of the program's outputs that do not use the program's numerics.

The channel function is evaluated here with mpmath at 40 digits, straight
from its definition

    W_ell(lambda) = k j_ell'(k a) h_ell(lambda a) - lambda j_ell(k a) h_ell'(lambda a),
    k = sqrt(lambda^2 - v0),

and the remaining checks are properties every correct resonance set has
(reflection and conjugation symmetry, an empty free well).  Each check
returns ``(passed, detail)``.
"""

from __future__ import annotations

import cmath
import math

import mpmath as mp

DPS = 40
# lambda + SHIFT is the reference point of the zero check: at a simple zero
# the relative cancellation grows like |SHIFT| / |lambda - zero|
SHIFT = 1e-3 * (1 - 1j)
ZERO_RATIO_MAX = 1e-3
MATCH_TOL = 1e-8


def _sph(fn, ell, z):
    """Spherical Bessel-type function of order ell from its cylinder form."""
    return mp.sqrt(mp.pi / (2 * z)) * fn(ell + mp.mpf(1) / 2, z)


def matching_products(ell: int, a: float, v0: complex, lam: complex):
    """(p1, p2) with W_ell = p1 - p2, at DPS digits."""
    with mp.workdps(DPS):
        lam = mp.mpc(lam)
        a = mp.mpf(a)
        k = mp.sqrt(lam * lam - mp.mpc(v0))
        ka, la = k * a, lam * a
        jl, jm1 = _sph(mp.besselj, ell, ka), _sph(mp.besselj, ell - 1, ka)
        hl, hm1 = _sph(mp.hankel1, ell, la), _sph(mp.hankel1, ell - 1, la)
        jp = jm1 - (ell + 1) / ka * jl
        hp = hm1 - (ell + 1) / la * hl
        return k * jp * hl, lam * jl * hp


def cancellation(ell: int, a: float, v0: complex, lam: complex) -> float:
    """|p1 - p2| / max(|p1|, |p2|): 0 at an exact zero of W_ell."""
    with mp.workdps(DPS):
        p1, p2 = matching_products(ell, a, v0, lam)
        return float(abs(p1 - p2) / max(abs(p1), abs(p2)))


def zero_check(ell: int, a: float, v0: complex, lam: complex):
    """lambda is a zero of W_ell: its cancellation is far below that of a
    point 1.4e-3 away."""
    at = cancellation(ell, a, v0, lam)
    near = cancellation(ell, a, v0, lam + SHIFT)
    ratio = at / near
    return ratio <= ZERO_RATIO_MAX, (
        f"ell={ell} lambda={lam:.10g}: cancellation {at:.2e} vs {near:.2e} "
        f"at lambda+{SHIFT} (ratio {ratio:.1e}, max {ZERO_RATIO_MAX:g})")


def _entire_channel_function(ell: int, a: float, v0: complex):
    """lambda^(ell+1) W_ell / k^ell: entire, with the resonances as zeros.

    W_ell / k^ell is even in k, so the branch of the square root drops out;
    the power of lambda cancels the pole of h_ell at the origin.
    """
    def f(lam):
        with mp.workdps(DPS):
            lam = mp.mpc(lam)
            p1, p2 = matching_products(ell, a, v0, lam)
            k = mp.sqrt(lam * lam - mp.mpc(v0))
            return complex(lam ** (ell + 1) * (p1 - p2) / k ** ell)
    return f


# boundary sampling of the argument principle: initial points, the largest
# phase step in radians, and the most evaluations before giving up
AP_POINTS = 160
AP_MAX_STEP = 0.4
AP_MAX_POINTS = 20000


def argument_principle_count(ell: int, a: float, v0: complex, R: float,
                             eps: float) -> int:
    """Zeros of W_ell in {|lambda| <= R, Im lambda <= -eps}, by the winding of
    the entire channel function around that region's boundary.

    The boundary (a chord at Im lambda = -eps and the lower arc) is sampled
    at AP_POINTS points and bisected until every phase step is below
    AP_MAX_STEP radians and every log-modulus step below 1.
    """
    f = _entire_channel_function(ell, a, v0)
    x = math.sqrt(R * R - eps * eps)
    t_chord = math.asin(eps / R)  # the arc runs from -pi + t_chord to -t_chord

    def point(s: float) -> complex:
        # s in [0, 1): chord from -x to x, then arc from angle -t_chord
        # clockwise to -pi + t_chord
        if s < 0.5:
            return complex(-x + 4.0 * s * x, -eps)
        ang = -t_chord - (2.0 * s - 1.0) * (math.pi - 2.0 * t_chord)
        return R * cmath.exp(1j * ang)

    n0 = AP_POINTS
    ss = [i / n0 for i in range(n0)] + [1.0]
    vals = [f(point(s % 1.0)) for s in ss]
    total = 0.0
    evaluations = len(vals)
    stack = [(ss[i], ss[i + 1], vals[i], vals[i + 1]) for i in range(n0)]
    stack.reverse()
    while stack:
        sa, sb, fa, fb = stack.pop()
        d = cmath.phase(fb / fa)
        if abs(d) > AP_MAX_STEP or abs(math.log(abs(fb) / abs(fa))) > 1.0:
            if evaluations >= AP_MAX_POINTS:
                raise RuntimeError(f"argument principle for ell={ell} did not "
                                   f"resolve in {AP_MAX_POINTS} points")
            sm = 0.5 * (sa + sb)
            fm = f(point(sm))
            evaluations += 1
            stack.append((sm, sb, fm, fb))
            stack.append((sa, sm, fa, fm))
            continue
        total += d
    winding = total / (2.0 * math.pi)
    # the boundary is traversed clockwise for the lower region
    count = -winding
    n = round(count)
    if abs(count - n) > 0.05:
        raise RuntimeError(f"argument principle for ell={ell} gave {count}")
    return n


def _match(left, right, tol: float):
    """Greedy nearest matching of two lists of complex numbers; returns the
    unmatched entries of left and the worst matched distance."""
    pool = list(right)
    unmatched = []
    worst = 0.0
    for z in left:
        if not pool:
            unmatched.append(z)
            continue
        i = min(range(len(pool)), key=lambda j: abs(pool[j] - z))
        dist = abs(pool[i] - z)
        if dist <= tol * max(1.0, abs(z)):
            worst = max(worst, dist)
            pool.pop(i)
        else:
            unmatched.append(z)
    return unmatched + pool, worst


def _by_channel(pairs):
    out: dict[int, list[complex]] = {}
    for ell, lam in pairs:
        out.setdefault(ell, []).append(lam)
    return out


def reflection_check(pairs):
    """Real wells: in each channel, lambda -> -conj(lambda) maps the set onto
    itself.  ``pairs`` lists (ell, lambda)."""
    bad = []
    worst = 0.0
    for ell, lams in sorted(_by_channel(pairs).items()):
        left, w = _match(lams, [-z.conjugate() for z in lams], MATCH_TOL)
        worst = max(worst, w)
        if left:
            bad.append(f"ell={ell}: no mirror partner for {left[0]:.10g}")
    if bad:
        return False, "; ".join(bad[:3])
    return True, f"{len(pairs)} resonances mirror-paired, worst {worst:.1e}"


def conjugation_check(pairs, conj_pairs):
    """Resonances of conj(v0) are -conj(lambda) of those of v0, channel by
    channel."""
    a = _by_channel(pairs)
    b = _by_channel(conj_pairs)
    bad = []
    worst = 0.0
    for ell in sorted(set(a) | set(b)):
        left, w = _match([-z.conjugate() for z in a.get(ell, [])],
                         b.get(ell, []), MATCH_TOL)
        worst = max(worst, w)
        if left:
            bad.append(f"ell={ell}: unmatched {left[0]:.10g}")
    if bad:
        return False, "; ".join(bad[:3])
    return True, f"{len(pairs)} resonances conjugation-paired, worst {worst:.1e}"


def empty_check(pairs):
    """The free well has no resonances."""
    if pairs:
        return False, f"{len(pairs)} resonances, first {pairs[0][1]:.10g}"
    return True, "no resonances"


def density_quadrature(theta: float) -> float:
    """d = 3 angular density at theta by mpmath quadrature of its definition,
    4 int_{t >= |z0|} -Re rho(t e^(i theta)) / t^4 dt with
    rho(z) = log((1 + w)/z) - w, w = sqrt(1 - z) sqrt(1 + z).
    The lower limit is the root of Re rho on the ray."""
    with mp.workdps(20):
        e = mp.expj(theta)

        def re_rho(t):
            z = t * e
            w = mp.sqrt(1 - z) * mp.sqrt(1 + z)
            return mp.re(mp.log((1 + w) / z) - w)

        t0 = mp.findroot(re_rho, (mp.mpf("0.5"), mp.mpf(3)), solver="anderson")
        return float(4 * mp.quad(lambda t: -re_rho(t) / t ** 4, [t0, 2 * t0, mp.inf]))
