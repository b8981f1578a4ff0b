import cmath
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from scipy import special as _scipy_special
from scipy.special import spherical_jn, spherical_yn

from resonance_atlas import special as sp
from resonance_atlas.errors import BoundaryConflictError, NumericalError


def test_phase_at_branch_point():
    assert sp.bessel_phase(1.0) == 0


def test_phase_on_unit_interval():
    # ln(2 + sqrt(3)) - sqrt(3)/2 at z = 1/2
    expected = math.log(2.0 + math.sqrt(3.0)) - math.sqrt(3.0) / 2.0
    got = sp.bessel_phase(0.5)
    assert abs(got - expected) < 1e-12
    assert abs(got.imag) < 1e-15


def test_phase_domain_errors():
    for bad in [0.0, -0.5, 1.5, 2 - 1j, -3j]:
        with pytest.raises(ValueError):
            sp.bessel_phase(bad)


# Seeded points of the domain: the open upper half plane and (0, 1], as
# Python and numpy scalars.
_upper = st.builds(complex, st.floats(-50.0, 50.0), st.floats(1e-300, 50.0))
_unit = st.floats(0.0, 1.0, exclude_min=True)
_scalars = st.one_of(st.just(1), _upper, _upper.map(np.complex128),
                     _unit, _unit.map(np.float64), _unit.map(np.complex128))


def _bits(v):
    return v.real.hex(), v.imag.hex()


def _phase_via_0d_array(z):
    # the cmath evaluation a scalar got before it took the array path:
    # converted through a 0-d complex array, then the cmath expression
    z = complex(np.asarray(z, dtype=complex))
    w = cmath.sqrt(1.0 - z) * cmath.sqrt(1.0 + z)
    return cmath.log((1.0 + w) / z) - w


def _phase_near_zero(z):
    # ln(2/z) - 1: the phase to double precision for |z| < 1e-150
    return math.log(2.0) - cmath.log(complex(z)) - 1.0


@settings(max_examples=300, derandomize=True, deadline=None)
@given(_scalars)
def test_phase_scalar_matches_0d_bit_for_bit(z):
    # a scalar takes the array path: it equals the 0-d and the 1-element
    # array evaluations bit for bit, and the cmath expression to a few ulps
    # (below |z| ~ 1e-308 that expression overflows, and the small-z form
    # is the reference)
    got = sp.bessel_phase(z)
    assert type(got) is complex
    assert _bits(got) == _bits(complex(sp.bessel_phase(np.asarray(z))))
    assert _bits(got) == _bits(complex(sp.bessel_phase(np.asarray([z]))[0]))
    ref = _phase_via_0d_array(z) if abs(z) >= 1e-300 else _phase_near_zero(z)
    assert abs(got - ref) <= 4.0 * math.ulp(1.0) * max(abs(ref), 1.0)


@pytest.mark.parametrize("z", [5e-324, 1e-310, 1e-300, 1e-310j, 3e-320 + 1e-315j,
                               -2e-309 + 1e-309j])
def test_phase_is_finite_near_zero(z):
    # (1 + w)/z overflows here, so log z is taken apart; no warning is raised
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = sp.bessel_phase(z)
        arr = sp.bessel_phase(np.array([z, 0.5j]))
    assert got == arr[0]
    assert abs(got - _phase_near_zero(z)) <= 4.0 * math.ulp(1.0) * abs(got)
    assert arr[1] == sp.bessel_phase(np.array([0.5j]))[0]


@pytest.mark.parametrize("bad", [0, 0j, -0.5, 1.5, 1 - 1e-300j, math.nan,
                                 complex(0.5, math.nan)])
def test_phase_scalar_and_0d_reject_alike(bad):
    for z in (bad, np.asarray(bad), np.asarray([bad])):
        with pytest.raises(ValueError, match="bessel_phase is defined"):
            sp.bessel_phase(z)


def test_phase_vanishes_on_critical_curve():
    s0 = sp.coth_fixed_point()
    for s in np.linspace(0.05, s0 * 0.999, 25):
        for sign in (+1, -1):
            p = sp.critical_curve_point(float(s), sign)
            assert abs(sp.bessel_phase(p).real) < 1e-9


def test_phase_sign_structure_along_rays():
    for theta in np.linspace(0.05, math.pi - 0.05, 19):
        m = sp.critical_curve_modulus(float(theta))
        e = cmath.exp(1j * float(theta))
        assert sp.bessel_phase(0.7 * m * e).real > 0
        assert sp.bessel_phase(1.4 * m * e).real < 0


@pytest.mark.parametrize("radius", [0.3, 0.9, 1.0, 1.5, 7.0, 40.0])
def test_phase_continuity_along_arcs(radius):
    # no branch jumps: successive samples differ by O(arc step)
    thetas = np.linspace(1e-3, math.pi - 1e-3, 1001)
    vals = sp.bessel_phase(radius * np.exp(1j * thetas))
    steps = np.abs(np.diff(vals))
    arc_step = radius * (thetas[1] - thetas[0])
    # |d rho/dz| = |sqrt(1-z^2)/z| <= (1 + |z|)/|z| on the arc
    bound = 3.0 * (1.0 + 1.0 / radius) * arc_step
    assert steps.max() < bound


def test_coth_fixed_point():
    s0 = sp.coth_fixed_point()
    assert abs(1.0 / math.tanh(s0) - s0) < 1e-12
    assert abs(s0 - 1.19968) < 1e-4


def test_curve_point_at_fixed_point():
    s0 = sp.coth_fixed_point()
    p = sp.critical_curve_point(s0, +1)
    assert abs(p.real) < 1e-10
    assert abs(p.imag - math.sqrt(s0 * s0 - 1.0)) < 1e-12
    assert abs(p.imag - 0.662742) < 1e-5


def test_curve_point_small_parameter_limit():
    p = sp.critical_curve_point(1e-4, +1)
    assert abs(p - 1.0) < 1e-3


def test_curve_point_sign_symmetry():
    for s in [0.2, 0.7, 1.1]:
        plus = sp.critical_curve_point(s, +1)
        minus = sp.critical_curve_point(s, -1)
        assert minus.real == -plus.real
        assert minus.imag == plus.imag


def test_curve_point_domain():
    with pytest.raises(ValueError):
        sp.critical_curve_point(1.5, +1)
    with pytest.raises(ValueError):
        sp.critical_curve_point(0.0, +1)


def test_curve_modulus_values():
    s0 = sp.coth_fixed_point()
    assert abs(sp.critical_curve_modulus(math.pi / 2) - math.sqrt(s0 ** 2 - 1)) < 1e-12
    assert abs(sp.critical_curve_modulus(1e-3) - 1.0) < 1e-2
    for theta in np.linspace(0.1, math.pi / 2, 9):
        assert abs(sp.critical_curve_modulus(float(theta))
                   - sp.critical_curve_modulus(math.pi - float(theta))) < 1e-12
    with pytest.raises(ValueError):
        sp.critical_curve_modulus(0.0)
    with pytest.raises(ValueError):
        sp.critical_curve_modulus(math.pi)


def _curve_modulus_mp(theta):
    # 40-digit oracle: the + branch point's argument solved for in mpmath
    import mpmath as mp
    with mp.workdps(40):
        th = mp.mpf(theta)
        th = min(th, mp.pi - th)
        s0 = mp.findroot(lambda s: mp.coth(s) - s, 1.2)
        s = mp.findroot(lambda s: mp.atan2(mp.sqrt(s * s - s * mp.tanh(s)),
                                           mp.sqrt(s * mp.coth(s) - s * s)) - th,
                        (mp.mpf("1e-30"), s0), solver="anderson")
        return float(mp.sqrt(2 * s / mp.sinh(2 * s)))


@pytest.mark.parametrize("theta", [1e-6, 1e-3, 0.05, 0.4, 1.0, 1.4, 1.57, 2.0, 3.1])
def test_curve_modulus_matches_mpmath(theta):
    got = sp.critical_curve_modulus(theta)
    assert abs(got - _curve_modulus_mp(theta)) <= 4.0 * math.ulp(1.0) * got


def test_curve_modulus_of_an_array_equals_single_angle_calls_bit_for_bit():
    thetas = np.concatenate([np.geomspace(1e-12, 1e-2, 12), np.linspace(0.01, math.pi - 0.01, 60)])
    batch = sp.critical_curve_modulus(thetas)
    assert isinstance(sp.critical_curve_modulus(1.0), float)
    assert batch.shape == thetas.shape
    assert [float(m) for m in batch] == [sp.critical_curve_modulus(float(t)) for t in thetas]
    assert np.array_equal(sp.critical_curve_modulus(thetas.reshape(6, 12)), batch.reshape(6, 12))


def test_curve_modulus_root_search_is_short(monkeypatch):
    # one evaluation of the root function per _im_radicand call; plain
    # bisection took about 55 per angle, so a single-angle call paid 55
    # numpy rounds
    calls = [0]
    radicand = sp._im_radicand

    def counted(s):
        calls[0] += 1
        return radicand(s)

    monkeypatch.setattr(sp, "_im_radicand", counted)
    evals = []
    for theta in np.concatenate([np.geomspace(1e-12, 1e-2, 20),
                                 np.linspace(0.01, math.pi - 0.01, 200)]):
        calls[0] = 0
        sp.critical_curve_modulus(float(theta))
        evals.append(calls[0])
    assert max(evals) <= 25 and np.median(evals) <= 12


def test_root_brackets_and_stops():
    # cube roots of 2, 3, ... on brackets of different widths in one batch;
    # each matches its own call and the root to 4 eps
    k = np.arange(2.0, 9.0)
    hi = np.array([2.0, 3.0, 10.0, 2.0, 5.0, 2.5, 100.0])
    got = sp._root(lambda x: x ** 3 - k, 0.0, hi)
    assert np.all(abs(got - np.cbrt(k)) <= 4.0 * math.ulp(1.0) * np.cbrt(k))
    for i in range(k.size):
        assert got[i] == sp._root(lambda x: x ** 3 - k[i], 0.0, hi[i])[()]
    # xtol stops early, within xtol of the root
    loose = sp._root(lambda x: x ** 3 - k, 0.0, hi, xtol=1e-6)
    assert np.all(abs(loose - np.cbrt(k)) <= 1e-6)
    # no sign change: the end of smaller |f|; an exact zero: that point
    assert sp._root(lambda x: x - 5.0, 0.0, 1.0)[()] == 1.0
    assert sp._root(lambda x: x + 5.0, 0.0, 1.0)[()] == 0.0
    assert sp._root(lambda x: x - 0.5, 0.0, 1.0)[()] == 0.5


# --- spherical Bessel / Hankel pairs -----------------------------------------
#
# The pair evaluators return (f_(ell-1), f_ell, s) with value f * exp(s); the
# tests compare log values, whose difference (phase wrapped) is the relative
# error.

def _log_j(ell, z):
    jm1, jl, s = sp.sph_j_pair_log(ell, np.array([complex(z)]))
    return complex(np.log(jm1[0]) + s[0]), complex(np.log(jl[0]) + s[0])


def _log_h(ell, z):
    hm1, hl, s = sp.sph_h_pair_log(ell, np.array([complex(z)]))
    return complex(np.log(hm1[0]) + s[0]), complex(np.log(hl[0]) + s[0])


def _log_err(got, ref):
    d = complex(got) - complex(ref)
    return abs(complex(d.real, (d.imag + math.pi) % (2 * math.pi) - math.pi))


def test_bessel_closed_forms():
    z = 0.7 - 0.3j
    assert _log_err(_log_j(0, 1.0)[1], cmath.log(math.sin(1.0))) < 1e-14
    assert _log_err(_log_h(0, 1j)[1], cmath.log(-math.exp(-1.0))) < 1e-14
    assert _log_err(_log_h(0, z)[1], cmath.log(-1j * cmath.exp(1j * z) / z)) < 5e-14
    assert _log_err(_log_j(1, z)[1],
                    cmath.log(cmath.sin(z) / z ** 2 - cmath.cos(z) / z)) < 1e-13
    # the pairs' lower members: j_0 = sin z / z and h_0 = -i e^{iz} / z
    assert _log_err(_log_j(1, z)[0], cmath.log(cmath.sin(z) / z)) < 1e-13
    assert _log_err(_log_h(1, z)[0], cmath.log(-1j * cmath.exp(1j * z) / z)) < 1e-13


def test_wronskian_identity():
    # j h1' - j' h1 = i / z^2; with f' = f_(ell-1) - ((ell+1)/z) f_ell the
    # left side is j_ell h_(ell-1) - j_(ell-1) h_ell
    rng = np.random.default_rng(3)
    for ell in [0, 1, 2, 5, 11, 23, 37, 50]:
        z = complex(rng.uniform(-20, 20), rng.uniform(-8, 8))
        if abs(z) < 0.5:
            z += 2.0
        jm1, jl, sj = sp.sph_j_pair_log(ell, np.array([z]))
        hm1, hl, sh = sp.sph_h_pair_log(ell, np.array([z]))
        w = complex(np.log(jl[0] * hm1[0] - jm1[0] * hl[0]) + sj[0] + sh[0])
        assert _log_err(w, cmath.log(1j / z ** 2)) < 1e-8


def test_bessel_parity():
    rng = np.random.default_rng(5)
    for ell in [0, 1, 2, 7, 16]:
        z = complex(rng.uniform(0.5, 10), rng.uniform(-3, 3))
        # j_ell(-z) = (-1)^ell j_ell(z)
        assert _log_err(_log_j(ell, -z)[1], _log_j(ell, z)[1] + 1j * math.pi * ell) < 1e-12


def test_bessel_accuracy_against_mpmath():
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 40

    def ref(fn, order, z):
        z = mp.mpc(z)
        return complex(mp.log(mp.sqrt(mp.pi / (2 * z)) * fn(order + mp.mpf(1) / 2, z)))

    # in log form no value is out of range, so every point of the grid counts
    for ell in [0, 3, 20, 100, 200]:
        for z in [2.0 + 0.1j, 30 - 10j, 200 + 5j, 990 + 20j, 5 - 2j]:
            for order, got_j, got_h in zip((ell - 1, ell), _log_j(ell, z), _log_h(ell, z)):
                assert _log_err(got_j, ref(mp.besselj, order, z)) < 1e-10
                assert _log_err(got_h, ref(mp.hankel1, order, z)) < 1e-10


def test_log_pair_matches_plain_values():
    # scipy's spherical_jn / spherical_yn are an independent implementation
    z = np.array([0.5 - 2j, 3 + 1j, -4 - 0.5j])
    jm1, jl, s = sp.sph_j_pair_log(3, z)
    hm1, hl, sh = sp.sph_h_pair_log(3, z)
    for order, j, h in ((2, jm1, hm1), (3, jl, hl)):
        plain_j = spherical_jn(order, z)
        plain_h = plain_j + 1j * spherical_yn(order, z)
        assert max(map(_log_err, np.log(j) + s, np.log(plain_j))) < 1e-12
        assert max(map(_log_err, np.log(h) + sh, np.log(plain_h))) < 1e-12


def test_log_pair_survives_extreme_magnitudes():
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 60
    for ell, z in [(60, 1e-5 + 0j), (200, 3.0 + 0j), (100, 0.5 - 0.2j)]:
        hm1, hl, s = sp.sph_h_pair_log(ell, np.array([z]))
        mine = complex(np.log(hl[0]) + s[0])
        ref = mp.log(mp.sqrt(mp.pi / (2 * mp.mpc(z)))
                     * mp.hankel1(ell + mp.mpf(1) / 2, mp.mpc(z)))
        assert abs(mine.real - float(ref.real)) < 1e-10 * max(1, abs(mine.real))


def _hankel_pair_error(ell, z, mp):
    """Worst log error of sph_h_pair_log's pair against mpmath: relative in
    log|h|, absolute in phase.  In the upper half plane h^(1) = J + iY is
    recessive and mpmath's sum cancels about 2 Im z / ln 10 digits, which
    the working precision adds."""
    hm1, hl, s = sp.sph_h_pair_log(ell, np.array([z]))
    worst = 0.0
    for order, h in ((ell - 1, hm1[0]), (ell, hl[0])):
        got = complex(np.log(h) + s[0])
        with mp.workdps(mp.mp.dps + int(2 * max(z.imag, 0.0) / math.log(10))):
            ref = complex(mp.log(mp.sqrt(mp.pi / (2 * mp.mpc(z)))
                                 * mp.hankel1(order + mp.mpf(1) / 2, mp.mpc(z))))
        worst = max(worst, abs(got.real - ref.real) / abs(ref.real),
                    abs((got.imag - ref.imag + math.pi) % (2 * math.pi) - math.pi))
    return worst


def test_hankel_pair_rejects_scaled_hankel_false_zero(monkeypatch):
    # scipy's hankel1e returns an exact 0 here; the fallback's unscaled pair
    # at ell = 110 gives the true log h_110 = 17.0084-2.3282i.  Only where
    # the unscaled pair at the Hankel minimum's order, 89 here, is not
    # usable either does the pair raise, naming both orders.
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 40
    z = -60.79 - 35.09j
    assert _scipy_special.hankel1e(110.5, z) == 0
    assert _hankel_pair_error(110, z, mp) < 1e-12
    hm1, hl, s = sp.sph_h_pair_log(110, np.array([1.0 - 1.0j, z]))
    assert abs(complex(np.log(hl[1]) + s[1]) - (17.0084 - 2.3282j)) < 1e-4
    monkeypatch.setattr(sp._ss, "hankel1", lambda v, z: np.zeros_like(z))
    with pytest.raises(NumericalError,
                       match=r"scaled-Hankel false zero.* order 110 .* order 89 "
                             r".*-60\.79-35\.09j"
                       ) as info:
        sp.sph_h_pair_log(110, np.array([1.0 - 1.0j, z]))
    assert not isinstance(info.value, BoundaryConflictError) and info.value.key == 110


def _hankel_grid(rng):
    """Seeded points with order in [1, 350] and |z| log-uniform in [1e-5, 200]
    over both half planes: 16 each where scipy's scaled hankel1e pair
    overflows, where it has an exact 0, and where it is plain."""
    kinds = {"overflow": [], "zero": [], "plain": []}
    while min(map(len, kinds.values())) < 16:
        ell = int(rng.integers(1, 351))
        z = complex(cmath.rect(10 ** rng.uniform(-5.0, math.log10(200.0)),
                               rng.uniform(-math.pi, math.pi)))
        with np.errstate(all="ignore"):
            pair = _scipy_special.hankel1e([ell - 0.5, ell + 0.5], z)
        kind = ("overflow" if not np.all(np.isfinite(pair))
                else "zero" if np.any(pair == 0) else "plain")
        if len(kinds[kind]) < 16:
            kinds[kind].append((ell, z))
    return [p for points in kinds.values() for p in points]


def test_hankel_pair_matches_mpmath_at_scaled_false_zeros():
    # seeded points where scipy's scaled hankel1e is an exact 0 for one
    # order of the pair: order in [60, 250), |z| in [20, 200], lower half
    # plane (20 of the first 165 draws); then, at 60 digits, a grid where it
    # overflows, is 0 or is plain, and three points of order 322 where it
    # overflows near the negative imaginary axis (a recurrence from order 0
    # was off there by 0.098, 3.06 and 0.29)
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 40
    rng = np.random.default_rng(20261019)
    points = []
    while len(points) < 20:
        ell = int(rng.integers(60, 250))
        z = complex(cmath.rect(rng.uniform(20.0, 200.0), -rng.uniform(0.0, math.pi)))
        if np.any(_scipy_special.hankel1e([ell - 0.5, ell + 0.5], z) == 0):
            points.append((ell, z))
    assert max(_hankel_pair_error(ell, z, mp) for ell, z in points) < 1e-12
    mp.mp.dps = 60
    grid = _hankel_grid(np.random.default_rng(350))
    assert {z.imag > 0 for _, z in grid} == {True, False}
    grid += [(322, z) for z in (0.207 - 20j, 0.207 - 25j, 0.207 - 27j)]
    assert max(_hankel_pair_error(ell, z, mp) for ell, z in grid) < 1e-12


def test_hankel_pair_carries_down_from_its_minimum():
    # at z = -1500i no AMOS pair of order <= 1455 is usable; the pair is
    # seeded at the Hankel minimum ell* = 2263 (|z| / m(pi/2) - 1/2) and
    # carried down.  The oracle needs about 250 digits here: it is taken at
    # 300 and 400, which must agree first
    mp = pytest.importorskip("mpmath")
    z = -1500j
    for ell in (1455, 1000):
        refs = []
        for dps in (300, 400):
            with mp.workdps(dps):
                refs.append([mp.log(mp.sqrt(mp.pi / (2 * mp.mpc(z)))
                                    * mp.hankel1(order + mp.mpf(1) / 2, mp.mpc(z)))
                             for order in (ell - 1, ell)])
        assert all(abs(x - y) < 1e-30 for x, y in zip(*refs)), ell
        with mp.workdps(400):
            assert _hankel_pair_error(ell, z, mp) < 1e-14, ell


def _j_pair_error(ell, z, mp):
    """Worst log error of sph_j_pair_log's pair against mpmath, relative to
    max(1, |log j|)."""
    worst = 0.0
    for order, got in zip((ell - 1, ell), _log_j(ell, z)):
        ref = complex(mp.log(mp.sqrt(mp.pi / (2 * mp.mpc(z)))
                             * mp.besselj(order + mp.mpf(1) / 2, mp.mpc(z))))
        worst = max(worst, _log_err(got, ref) / max(1.0, abs(ref)))
    return worst


def test_j_pair_matches_mpmath_where_the_scaled_mantissa_underflows():
    # seeded points of order in [200, 1500], |z| / ell in [0.3, 1] and arg z
    # within 0.5 rad of -pi/2: jve's mantissa underflows to 0 at a good
    # share of them, and the fallback takes over, at m = ell where j is in
    # double range and by the carry where it is not
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 50
    rng = np.random.default_rng(20261019)
    underflows, worst = 0, 0.0
    for _ in range(60):
        ell = int(rng.integers(200, 1501))
        z = complex(cmath.rect(rng.uniform(0.3, 1.0) * ell,
                               -math.pi / 2 + rng.uniform(-0.5, 0.5)))
        with np.errstate(under="ignore"):
            underflows += bool(np.any(_scipy_special.jve([ell - 0.5, ell + 0.5], z) == 0))
        worst = max(worst, _j_pair_error(ell, z, mp))
    assert underflows >= 10
    assert worst < 1e-12


def test_j_pair_carries_where_no_amos_pair_at_its_order_is_usable():
    # j_1205 there is e^-950.8, j_429 at the small argument e^-2612 and
    # j_797 e^-2252, all below double range: the unscaled pair at the order
    # is 0 too, and the pair is carried up from the closed forms by the
    # backward ratios (it had been (0, 0) at the first point and a power
    # series at the others); at z = pi, where sin z is a rounding residue,
    # the carry starts from j_(-1) = cos z / z
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 50
    points = [(1205, 11.288 - 394.735j), (429, -0.6828 + 0.2518j),
              (797, -30.23419313229765 + 17.8539554036662j), (200, complex(math.pi, 0.0))]
    for ell, z in points:
        with np.errstate(under="ignore"):
            assert np.any(_scipy_special.jv([ell - 0.5, ell + 0.5], z) == 0)
        assert _j_pair_error(ell, z, mp) < 1e-12
    assert abs(_log_j(1205, 11.288 - 394.735j)[1] - (-950.8432595 - 3.0209323j)) < 1e-6


def test_j_pair_rejects_zero_and_carries_without_unscaled_amos(monkeypatch):
    # the carry from the closed forms needs no AMOS pair at any order: with
    # the unscaled jv returning zeros, j_1205 still matches mpmath
    with pytest.raises(ValueError, match="z != 0"):
        sp.sph_j_pair_log(3, np.array([1.0 + 0j, 0j]))
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 50
    monkeypatch.setattr(sp._ss, "jv", lambda v, z: np.zeros_like(z))
    assert _j_pair_error(1205, 11.288 - 394.735j, mp) < 1e-12


def test_pairs_leave_in_normal_form():
    # both pairs come finite, nonzero and divided by their larger modulus,
    # so that products of two pairs' members stay in double range; 536 of
    # the j pairs take the fallback, 411 of them by the carry
    rng = np.random.default_rng(11)
    ell = rng.integers(0, 1000, 2000)
    z = rng.uniform(0.01, 600.0, 2000) * np.exp(1j * rng.uniform(-math.pi, math.pi, 2000))
    for pair in (sp.sph_j_pair_log, sp.sph_h_pair_log):
        fm1, fl, s = pair(ell, z)
        top = np.maximum(np.abs(fm1), np.abs(fl))
        assert np.all(np.isfinite(s)) and np.all(fm1 != 0) and np.all(fl != 0)
        assert np.max(np.abs(top - 1.0)) <= 4 * sp._EPS


def _runs_of_orders(rng, n):
    """n seeded (ell, z) points, shuffled: runs of 1 to 11 consecutive orders
    below 310 at one z (|z| < 300, both half planes), so that most points
    have their (z, ell - 1) partner in the call and the first of each run
    has none; then the Hankel false zero at order 110 and the j fallback at
    order 1205, each with its partner, and order 7 at -5 - 0i and 8 at
    -5 + 0i, which are no partners: AMOS takes opposite sides of its cut."""
    ell, z = [], []
    while len(ell) < n - 6:
        run, start = int(rng.integers(1, 12)), int(rng.integers(0, 300))
        ell += range(start, start + run)
        z += [complex(cmath.rect(rng.uniform(0.05, 300.0), rng.uniform(-math.pi, math.pi)))] * run
    ell = ell[:n - 6] + [110, 111, 1205, 1206, 7, 8]
    z = z[:n - 6] + [-60.79 - 35.09j] * 2 + [11.288 - 394.735j] * 2 + [complex(-5.0, -0.0),
                                                                         complex(-5.0, 0.0)]
    shuffle = rng.permutation(n)
    return np.array(ell)[shuffle], np.array(z)[shuffle]


def test_pair_values_do_not_depend_on_sharing():
    # a point whose partner (z, ell - 1) is in the call takes its lower
    # member from the partner's upper one; every point's pair is still that
    # of its one-point call, bit for bit, in a call of 8,400 points
    ell, z = _runs_of_orders(np.random.default_rng(34), 8400)
    partner = sp._partners(ell, z)
    assert np.count_nonzero(partner >= 0) > 6000
    has = partner >= 0
    assert np.all((ell[has] == ell[partner[has]] + 1) & (z[has] == z[partner[has]]))
    for order, arg, first in ((111, -60.79 - 35.09j, 110), (1206, 11.288 - 394.735j, 1205)):
        at = np.flatnonzero((ell == order) & (z == arg))
        assert ell[partner[at]] == first
    assert partner[(ell == 8) & (z == -5.0)] == -1  # -5 + 0j is not -5 - 0j
    for pair in (sp.sph_j_pair_log, sp.sph_h_pair_log):
        got = np.column_stack(pair(ell, z))
        alone = np.concatenate([np.column_stack(pair(ell[i:i + 1], z[i:i + 1]))
                                for i in range(z.size)])
        assert np.array_equal(got.view(np.uint64), alone.view(np.uint64)), pair.__name__


def test_pairs_evaluate_each_order_once_per_point(amos_counts):
    # n consecutive orders at P points make (n + 1) P evaluations of each
    # scaled routine, in any layout; a pair called alone evaluates both
    # orders; the j pair handed its lower members evaluates the upper ones
    points = np.array([3.0 + 4.0j, 3.0 - 4.0j, -20.0 + 1.0j, 0.5j, 60.0 - 2.0j])
    orders = np.arange(40, 60)
    shuffle = np.random.default_rng(5).permutation(orders.size * points.size)
    for ell, z in ((orders.repeat(points.size), np.tile(points, orders.size)),
                   (np.tile(orders, points.size), points.repeat(orders.size)),
                   (orders.repeat(points.size)[shuffle],
                    np.tile(points, orders.size)[shuffle])):
        amos_counts.update(hankel1e=0, jve=0)
        sp.sph_h_pair_log(ell, z)
        sp.sph_j_pair_log(ell, z)
        assert amos_counts == {"hankel1e": 21 * 5, "jve": 21 * 5}
    amos_counts.update(hankel1e=0, jve=0)
    sp.sph_h_pair_log(7, points)
    upper = np.empty(points.size, dtype=complex)
    sp.sph_j_pair_log(7, points, upper=upper)
    assert amos_counts == {"hankel1e": 10, "jve": 10}
    pair = sp.sph_j_pair_log(8, points, lower=upper)
    assert amos_counts["jve"] == 15
    for got, want in zip(pair, sp.sph_j_pair_log(8, points)):
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
