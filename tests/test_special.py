import cmath
import math

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
    # the evaluation a scalar got before it had a path of its own: converted
    # through a 0-d complex array, then the cmath expression
    z = complex(np.asarray(z, dtype=complex))
    w = cmath.sqrt(1.0 - z) * cmath.sqrt(1.0 + z)
    return cmath.log((1.0 + w) / z) - w


@settings(max_examples=300, derandomize=True, deadline=None)
@given(_scalars)
def test_phase_scalar_matches_0d_bit_for_bit(z):
    got = sp.bessel_phase(z)
    assert type(got) is complex
    assert _bits(got) == _bits(complex(sp.bessel_phase(np.asarray(z))))
    assert _bits(got) == _bits(_phase_via_0d_array(z))


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


def test_j_series_closed_forms():
    # j_ell(z) = z^ell S_ell(z^2) / (2 ell + 1)!!: S_(-1)(z^2) = cos z and
    # S_0(z^2) = sin z / z; term by term, S_ell' = -S_(ell+1) / (2 (2 ell + 3))
    z = np.array([0.7 - 0.3j, 2.5 + 1.2j, -1.1 - 2.0j, 0.05 + 0.01j])
    u = z * z
    s_m1, _ = sp.sph_j_series(-1, u)
    s_0, _ = sp.sph_j_series(0, u)
    assert np.max(np.abs(s_m1 - np.cos(z))) < 1e-14
    assert np.max(np.abs(s_0 - np.sin(z) / z)) < 1e-14
    for ell in (-1, 0, 1, 4):
        _, ds = sp.sph_j_series(ell, u)
        s_next, _ = sp.sph_j_series(ell + 1, u)
        assert np.max(np.abs(ds + s_next / (2 * (2 * ell + 3)))) < 1e-14


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
    # at m = ell = 110 gives the true log h_110 = 17.0084-2.3282i.  Only
    # where no unscaled order m <= ell is usable does the pair raise.
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 40
    z = -60.79 - 35.09j
    assert _scipy_special.hankel1e(110.5, z) == 0
    assert _hankel_pair_error(110, z, mp) < 1e-12
    hm1, hl, s = sp.sph_h_pair_log(110, np.array([1.0 - 1.0j, z]))
    assert abs(complex(np.log(hl[1]) + s[1]) - (17.0084 - 2.3282j)) < 1e-4
    monkeypatch.setattr(sp._ss, "hankel1", lambda v, z: np.zeros_like(z))
    with pytest.raises(NumericalError,
                       match=r"scaled-Hankel false zero.* order 110 .*-60\.79-35\.09j"
                       ) as info:
        sp.sph_h_pair_log(110, np.array([1.0 - 1.0j, z]))
    assert not isinstance(info.value, BoundaryConflictError)


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
