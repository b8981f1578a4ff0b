import cmath
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from scipy.special import spherical_jn, spherical_yn

from resonance_atlas import contour as ct
from resonance_atlas import density
from resonance_atlas import resonances as rs
from resonance_atlas import special
from resonance_atlas.errors import BoundaryConflictError, NumericalError

WELL = rs.RadialStepPotential(a=1.0, v0=-20.0)


@pytest.fixture(scope="module")
def small_set():
    return rs.find_resonances(WELL, 6.0)


def _count_frame_windings(monkeypatch):
    # one entry per frame wound: a call winds the frames of a group together
    calls = []
    real = ct._winding_with_perturbation

    def counted(*args, **kwargs):
        calls.extend(args[1])
        return real(*args, **kwargs)

    monkeypatch.setattr(ct, "_winding_with_perturbation", counted)
    monkeypatch.setattr(rs, "_winding_with_perturbation", counted)
    return calls


def test_potential_validation():
    with pytest.raises(ValueError):
        rs.RadialStepPotential(a=-1.0, v0=-5.0)


@pytest.mark.parametrize("a, v0, name", [
    (math.nan, -5.0, "radius a"), (math.inf, -5.0, "radius a"),
    (1.0, complex(math.nan, 0.0), "depth v0"), (1.0, complex(-5.0, math.inf), "depth v0")])
def test_potential_rejects_non_finite_parameters(a, v0, name):
    with pytest.raises(ValueError, match=name):
        rs.RadialStepPotential(a=a, v0=v0)


@pytest.mark.parametrize("R", [math.inf, math.nan])
def test_solve_rejects_non_finite_radius(R):
    with pytest.raises(ValueError, match="search radius R"):
        rs.find_resonances(WELL, R)


def test_free_channel_condition_is_wronskian():
    pot = rs.RadialStepPotential(a=1.0, v0=0.0)
    for ell in [0, 1, 4]:
        for lam in [2 + 1j, -3 - 0.5j, 0.3 - 2j]:
            w = rs.channel_condition(ell, pot, lam)
            # principal k = sqrt(lam^2) equals -lam for Re lam < 0, which
            # flips odd channels by the documented (-1)^ell unit factor
            parity = 1.0 if (cmath.sqrt(lam * lam) == lam) else (-1.0) ** ell
            assert abs(w - parity * (-1j / lam)) < 1e-10


def test_channel_condition_branch_invariance():
    # flipping the k-branch multiplies W by (-1)^ell and keeps zeros fixed
    lam = 3.0 - 1.5j
    a = WELL.a
    for ell in [0, 1, 2, 5]:
        k = cmath.sqrt(lam * lam - WELL.v0)

        def h1(z, derivative=False):
            return (spherical_jn(ell, z, derivative)
                    + 1j * spherical_yn(ell, z, derivative))

        def w_of(kk):
            return (kk * spherical_jn(ell, kk * a, True) * h1(lam * a)
                    - lam * spherical_jn(ell, kk * a) * h1(lam * a, True))

        ratio = w_of(-k) / w_of(k)
        assert abs(ratio - (-1) ** ell) < 1e-10


def test_channel_condition_rejects_zero():
    with pytest.raises(ValueError):
        rs.channel_condition(0, WELL, 0.0)


def test_channel_condition_reports_overflow():
    from resonance_atlas.errors import EvaluationOverflowError
    with pytest.raises(EvaluationOverflowError):
        rs.channel_condition(0, WELL, -800j)


def test_matcher_consistent_with_bare_condition():
    # log matcher and bare W agree up to the declared normalization
    ell = 4
    ev = rs.channel_matcher_log(ell, WELL)
    lam = np.array([2.0 - 1.0j, -3.5 - 0.2j, 0.5 - 4.0j])
    k = np.sqrt(lam * lam - WELL.v0)
    from resonance_atlas.special import _log_double_factorial
    lndd = _log_double_factorial(2 * ell + 1)
    expected = (np.log(rs.channel_condition(ell, WELL, lam)) + lndd
                - ell * np.log(k) + (ell + 1) * np.log(lam * WELL.a))
    got = ev(lam)
    assert np.allclose(np.exp(got - expected), 1.0, atol=1e-10)


def test_matcher_finite_at_branch_point():
    # lambda^2 = v0 is a regular point of the normalized matcher
    ev = rs.channel_matcher_log(3, WELL)
    lam0 = -1j * math.sqrt(20.0)
    ring = lam0 + 1e-5 * np.exp(1j * np.linspace(0, 2 * math.pi, 17))
    vals = ev(ring)
    assert np.all(np.isfinite(vals))
    # log-magnitude is continuous around the ring
    assert np.max(np.abs(np.diff(vals.real))) < 1e-3


def test_oracle_channel0_roots(small_set):
    # independent oracle: k cot(k) = i lambda, Newton from a coarse grid
    def f0(lam):
        k = cmath.sqrt(lam * lam + 20.0)
        return k / cmath.tan(k) - 1j * lam

    roots = set()
    for re0 in np.linspace(-6, 6, 40):
        for im0 in np.linspace(-5, -0.05, 20):
            z = complex(re0, im0)
            for _ in range(60):
                h = 1e-7
                d = (f0(z + h) - f0(z - h)) / (2 * h)
                if d == 0:
                    break
                step = f0(z) / d
                z -= step
                if abs(step) < 1e-12:
                    break
            if abs(f0(z)) < 1e-9 and z.imag < -1e-6 and abs(z) <= 6:
                roots.add((round(z.real, 7), round(z.imag, 7)))
    got = sorted((round(r.lam.real, 7), round(r.lam.imag, 7))
                 for r in small_set.resonances if r.ell == 0)
    assert got == sorted(roots)


def test_free_potential_has_no_resonances():
    free = rs.RadialStepPotential(a=1.0, v0=0.0)
    out = rs.find_resonances(free, 12.0)
    assert out.resonances == []
    assert rs.ell_cutoff(free, 12.0) == 0


@pytest.mark.parametrize("R", [20.0, 30.0])
def test_free_frame_windings_vanish(R):
    # the free well has no resonances: every channel the cutoff search can
    # visit must wind 0 times around its search frame, so it holds no zero
    free = rs.RadialStepPotential(a=1.0, v0=0.0)
    last = int(math.ceil(1.5 * R * free.a)) + 13
    for ell in range(last + 1):
        assert rs._group_zeros([ell], free, R) == [[]], ell


def test_free_well_solves_at_r40(monkeypatch):
    # channels 0..73 (the cutoff guess 70 plus three) are each wound once
    calls = _count_frame_windings(monkeypatch)
    out = rs.find_resonances(rs.RadialStepPotential(a=1.0, v0=0.0), 40.0)
    assert out.resonances == []
    assert out.ell_max == 0
    assert len(calls) == 74


@pytest.mark.parametrize("kind", [1, 2])
@pytest.mark.parametrize("v0", [0.0, -1e-12, -0.1, complex(-0.1, 0.05)])
@pytest.mark.parametrize("ell", [0, 5])
def test_matcher_matches_mpmath_on_frame_bottom(v0, ell, kind):
    # deep in the lower half plane the direct Wronskian cancels to noise for
    # weak wells; the matcher must still carry g_ell to near full precision.
    # The incoming (kind 2) matcher has the same cancellation at the mirror
    # points in the upper half plane, where scattering_log_det evaluates it.
    mp = pytest.importorskip("mpmath")
    pot = rs.RadialStepPotential(a=1.0, v0=v0)
    frame = rs._search_frame(pot, 40.0)
    lams = (frame.lower_left.real + frame.width * np.linspace(0.03, 0.97, 7)
            + 1j * frame.lower_left.imag)
    if kind == 2:
        lams = lams.conj()
    got = rs.channel_matcher_log(ell, pot, kind=kind)(lams)
    free_log = math.log(math.prod(range(1, 2 * ell + 2, 2)))  # |g| for v0 = 0
    hankel = mp.hankel1 if kind == 1 else mp.hankel2
    with mp.workdps(50):
        for lam, g in zip(lams, got):
            z = mp.mpc(lam.real, lam.imag)
            k = mp.sqrt(z * z - mp.mpc(v0))

            def sj(n, x):
                return mp.sqrt(mp.pi / (2 * x)) * mp.besselj(n + 0.5, x)

            def sh(n, x):
                return mp.sqrt(mp.pi / (2 * x)) * hankel(n + 0.5, x)

            jp = sj(ell - 1, k) - (ell + 1) / k * sj(ell, k)
            hp = sh(ell - 1, z) - (ell + 1) / z * sh(ell, z)
            w = k * jp * sh(ell, z) - z * sj(ell, k) * hp
            ref = complex(mp.log(mp.fac2(2 * ell + 1) * z ** (ell + 1) * w / k ** ell))
            diff = g - ref
            err = abs(complex(diff.real, (diff.imag + math.pi) % (2 * math.pi) - math.pi))
            assert err < 1e-10, (lam, err)
            if v0 != 0:
                # the potential term, not the exact free value, dominates here
                assert ref.real - free_log > 1.0


def test_near_free_well_solves_symmetrically():
    out = rs.find_resonances(rs.RadialStepPotential(a=1.0, v0=-1e-12), 20.0)
    assert out.resonances
    for r in out.resonances:
        mirror = complex(-r.lam.real, r.lam.imag)
        assert min(abs(mirror - s.lam) for s in out.resonances
                   if s.ell == r.ell) < 1e-8


def test_resonances_lower_half_and_multiplicity(small_set):
    assert small_set.resonances
    for r in small_set.resonances:
        assert r.lam.imag < 0
        assert abs(r.lam) <= 6.0
        assert r.multiplicity == 2 * r.ell + 1
        assert r.residual < 1e-6


def test_located_zeros_have_unit_circle_winding(small_set):
    # each located resonance is a simple zero of the channel matcher
    for r in small_set.resonances[:6]:
        box = ct.ContourBox(r.lam - (1e-6 + 1e-6j), r.lam + (1e-6 + 1e-6j))
        assert ct.winding_count(rs.channel_matcher_log(r.ell, WELL), box,
                                log_form=True) == 1


def test_reflection_symmetry(small_set):
    lams = [r.lam for r in small_set.resonances]
    for r in small_set.resonances:
        refl = complex(-r.lam.real, r.lam.imag)
        assert min(abs(refl - l) for l in lams) < 1e-8


def test_sorted_by_modulus(small_set):
    mods = [abs(r.lam) for r in small_set.resonances]
    assert mods == sorted(mods)


def test_cutoff_verified_empty(small_set):
    cut = small_set.ell_max
    for ell in (cut + 1, cut + 2, cut + 3):
        assert rs._group_zeros([ell], WELL, 6.0) == [[]]


def test_channel_zeros_rejects_surplus_inside_frame(monkeypatch):
    # a zero more than the frame winding must not pass silently, and the
    # locator's message must name the channel
    real = ct._zeros_inside

    def surplus(found, box, winding):
        return real(found + [(found[0][0] + 1e-3, 1)], box, winding)

    monkeypatch.setattr(ct, "_zeros_inside", surplus)
    with pytest.raises(NumericalError, match="^channel 0: located 5 zeros.*winding is 4"):
        rs._group_zeros([0], WELL, 6.0)


def test_surplus_zero_names_its_channel_inside_a_group(monkeypatch):
    # channels 12 and 13 are empty and pass; channel 0's surplus zero fails
    # the group, and the error names channel 0
    real = ct._zeros_inside

    def surplus(found, box, winding):
        return real(found + [(found[0][0] + 1e-3, 1)] if found else found, box, winding)

    monkeypatch.setattr(ct, "_zeros_inside", surplus)
    with pytest.raises(NumericalError, match="^channel 0: located 5 zeros.*winding is 4"):
        rs._group_zeros([13, 0, 12], WELL, 6.0)


def test_failing_channel_named_does_not_depend_on_the_worker_count(monkeypatch):
    # every nonempty channel (0..9) fails its surplus check: the first
    # group, 31, 29, .., 1, fails first, at its first nonempty channel 9,
    # in one process and on two workers alike
    real = ct._zeros_inside

    def surplus(found, box, winding):
        return real(found + [(found[0][0] + 1e-3, 1)] if found else found, box, winding)

    monkeypatch.setattr(ct, "_zeros_inside", surplus)
    for threads in (1, 2):
        with pytest.raises(NumericalError, match="^channel 9: located 3 zeros"):
            rs.find_resonances(WELL, 6.0, threads=threads)


def test_solve_does_not_depend_on_the_worker_count(small_set):
    two = rs.find_resonances(WELL, 6.0, threads=2)
    assert two.ell_max == small_set.ell_max
    assert ([(r.ell, r.lam, r.residual) for r in two.resonances]
            == [(r.ell, r.lam, r.residual) for r in small_set.resonances])


def test_channel_zeros_winds_its_frame_once(monkeypatch):
    calls = _count_frame_windings(monkeypatch)
    assert len(rs._group_zeros([0], WELL, 6.0)[0]) == 4
    assert len(calls) == 1


def test_frame_rises_to_the_axis_past_a_resonance_near_its_top_edge():
    # the l = 2 pair near +-0.058 - 7.5e-7i is within the frame guard of both
    # the frame's top edge at -1e-6 and the line -5e-7: the grown frame must
    # reach the real axis, and zeros above -1e-6 stay unreported
    out = rs.find_resonances(rs.RadialStepPotential(1.0, -20.1851), 2.0)
    assert all(r.lam.imag < -1e-6 for r in out.resonances)
    # a pair just below the excluded band is still reported
    out = rs.find_resonances(rs.RadialStepPotential(1.0, -20.18), 2.0)
    for want in (-0.0802 - 2.75e-6j, 0.0802 - 2.75e-6j):
        assert any(abs(r.lam.real - want.real) < 1e-4
                   and abs(r.lam.imag - want.imag) < 1e-8
                   for r in out.resonances if r.ell == 2)


def test_find_resonances_rejects_residual_above_tolerance(monkeypatch):
    # a zero located 1e-3 off must fail the residual_tol the set records
    real = rs.locate_zeros

    def moved(*args, **kwargs):
        found = real(*args, **kwargs)
        for zeros in found:  # one list per channel of the group
            if zeros:  # the channels above the cutoff are solved too, and empty
                i = min(range(len(zeros)), key=lambda k: abs(zeros[k][0]))
                zeros[i] = (zeros[i][0] + 1e-3, zeros[i][1])
        return found

    monkeypatch.setattr(rs, "locate_zeros", moved)
    with pytest.raises(NumericalError, match=r"channel 0: residual .* not below 1e-06"):
        rs.find_resonances(WELL, 6.0)


def test_cutoff_monotone_in_radius():
    c1 = rs.ell_cutoff(WELL, 3.0)
    c2 = rs.ell_cutoff(WELL, 6.0)
    assert c2 >= c1


def test_cutoff_golden(small_set):
    # frozen after winding-count verification of channels 10..12 being empty
    assert small_set.ell_max == 9


def test_dilation_covariance(small_set):
    # multiset comparison: mirror-pair entries may swap their sort order
    # because equal-modulus ties break on location noise
    c = 2.0
    scaled = rs.find_resonances(
        rs.RadialStepPotential(a=c * WELL.a, v0=WELL.v0 / c ** 2), 6.0 / c)
    assert len(scaled.resonances) == len(small_set.resonances)
    by_ell = {}
    for b in small_set.resonances:
        by_ell.setdefault(b.ell, []).append(b.lam / c)
    for s in scaled.resonances:
        err = min(abs(s.lam - t) for t in by_ell[s.ell])
        assert err < 1e-8


def test_serialization_round_trip(tmp_path, small_set):
    path = tmp_path / "set.json"
    small_set.to_json(path)
    back = rs.ResonanceSet.from_json(path)
    assert back.ell_max == small_set.ell_max
    assert len(back.resonances) == len(small_set.resonances)
    for a, b in zip(back.resonances, small_set.resonances):
        assert a.lam == b.lam and a.ell == b.ell and a.multiplicity == b.multiplicity

    csv_path = tmp_path / "set.csv"
    small_set.to_csv(csv_path)
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "ell,re_lambda,im_lambda,multiplicity,residual"
    assert len(lines) == len(small_set.resonances) + 1


def test_scattering_log_det_free_is_zero():
    assert rs.scattering_log_det(rs.RadialStepPotential(1.0, 0.0), 5.0) == 0.0


def test_scattering_log_det_antisymmetry():
    for lam in [3.0, 7.5, 18.0]:
        s = rs.scattering_log_det(WELL, lam) + rs.scattering_log_det(WELL, -lam)
        assert abs(s) < 1e-8


@pytest.mark.parametrize("v0", [-20.0, 3.0])
def test_scattering_log_det_vanishes_on_the_real_axis(v0):
    # a real well is unitary there: the incoming matcher is the conjugate of
    # the outgoing one, so every channel's ln|S_ell| is 0 up to rounding
    pot = rs.RadialStepPotential(2.0, v0)
    for x in (0.3, 3.0, 7.5, 18.0, 35.0):
        for lam in (x, -x):
            assert abs(rs.scattering_log_det(pot, lam)) <= 1e-15


def test_scattering_log_det_rejects_lower_half():
    with pytest.raises(ValueError):
        rs.scattering_log_det(WELL, 1.0 - 1.0j)


def test_scattering_growth_bounded_by_density():
    from resonance_atlas.density import angular_density_d3_closed
    r = 20.0
    for theta in (math.pi / 4, math.pi / 2, 3 * math.pi / 4):
        lam = r * cmath.exp(1j * theta)
        val = rs.scattering_log_det(WELL, lam) / r ** 3
        assert val <= angular_density_d3_closed(theta) + 0.05


def _det_points(r, radii, n_angles, reals):
    """The ln|det S| points of the benchmark workloads: n_angles rays in the
    upper half plane at each radius, and +-x on the real axis."""
    upper = [rho * cmath.exp(1j * math.pi * k / (n_angles + 1))
             for rho in radii for k in range(1, n_angles + 1)]
    return upper + [complex(s * x, 0.0) for x in reals for s in (1, -1)]


# the solve workloads' points, and the asymptotics workload's (r = 40)
SOLVE_DET_POINTS = _det_points(20.0, (5.0, 10.0, 15.0, 20.0), 5, (3.0, 7.5, 18.0))
ASYMPTOTICS_DET_POINTS = _det_points(40.0, (10.0, 20.0, 30.0, 40.0), 7,
                                     (2.5, 5.0, 10.0, 20.0, 35.0))


def _det_channel_by_channel(pot, lam):
    """ln|det S| and its last channel, summed with one int-order matcher call
    per channel and kind, with the checks and stopping rule of
    scattering_log_det."""
    arr = np.array([lam, lam * (1.0 + 1e-4), lam * (1.0 - 1e-4)])
    total, quiet = 0.0, 0
    for ell in range(2001):
        w1 = rs.channel_matcher_log(ell, pot)(arr)
        w2 = rs.channel_matcher_log(ell, pot, kind=2)(np.array([lam]))[0]
        assert np.all(np.isfinite(w1)) and np.isfinite(w2)
        assert w1[0].real - max(w1[1].real, w1[2].real) >= math.log(1e-12)
        term = (2 * ell + 1) * (w2.real - w1[0].real)
        total += term
        if ell > abs(lam) * pot.a and abs(term) < 1e-10 * max(abs(total), 1.0):
            quiet += 1
            if quiet >= 10:
                return total, ell
        else:
            quiet = 0
    raise AssertionError(f"channel sum at {lam} did not settle")


@pytest.mark.parametrize("pot, points", [
    (WELL, ASYMPTOTICS_DET_POINTS), (WELL, SOLVE_DET_POINTS),
    (rs.RadialStepPotential(1.0, -1e-12), SOLVE_DET_POINTS),
    (rs.RadialStepPotential(1.0, complex(-16.0, 1.5)), SOLVE_DET_POINTS),
    (rs.RadialStepPotential(2.0, -20.0), SOLVE_DET_POINTS)],
    ids=["asymptotics", "solve", "weak", "complex", "a=2"])
def test_scattering_log_det_equals_channel_by_channel_sum(monkeypatch, pot, points):
    # blocks of channels evaluate exactly the channels 0..stop of the
    # one-channel-at-a-time sum, and add exactly its terms
    expected = [_det_channel_by_channel(pot, lam) for lam in points]
    orders = {1: [], 2: []}
    real = rs.channel_matcher_log

    def recorded(ell, pot, kind=1):
        orders[kind].append(np.atleast_1d(ell))
        return real(ell, pot, kind)

    monkeypatch.setattr(rs, "channel_matcher_log", recorded)
    for lam, (value, stop) in zip(points, expected):
        orders[1].clear()
        orders[2].clear()
        got = rs.scattering_log_det(pot, lam)
        assert got == value, lam
        if lam.imag == 0 and pot.v0.imag == 0:
            assert got == 0.0
        assert np.array_equal(np.concatenate(orders[2]), np.arange(stop + 1))
        assert np.array_equal(np.concatenate(orders[1]), np.arange(stop + 1).repeat(3))
        assert len(orders[2]) < stop + 1  # fewer calls than channels


@pytest.mark.parametrize("theta", [math.pi / 8, 7 * math.pi / 8])
def test_scattering_log_det_at_r60_mirrors_and_stays_below_h3(theta):
    # the incoming matcher meets a scaled-Hankel false zero at order 86 here
    # and takes the Hankel fallback (the unscaled pair at the highest usable
    # order m <= ell, recurred upward); r^-3 ln|det S| = 0.46350 agrees on
    # the mirror rays of a real well and stays below h_3(pi/8) = 0.610
    got, mirror = (rs.scattering_log_det(WELL, 60.0 * cmath.exp(1j * t)) / 60.0 ** 3
                   for t in (theta, math.pi - theta))
    assert abs(got - mirror) < 1e-12 * abs(got)
    assert abs(got - 0.46350) < 1e-5
    assert got < density.angular_density_d3_closed(math.pi / 8)


def _matcher_by_order(pot, ells, lams, kind=1):
    """The array-order matcher's values, and the int-order matcher's values
    on the points of each order."""
    ells, lams = np.asarray(ells), np.asarray(lams, dtype=complex)
    got = rs.channel_matcher_log(ells, pot, kind)(lams)
    want = np.empty_like(got)
    for ell in np.unique(ells):
        at = ells == ell
        want[at] = rs.channel_matcher_log(int(ell), pot, kind)(lams[at])
    return got, want


def _same_bits(got, want):
    return np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_array_order_matcher_small_k_branch():
    lams = 1j * math.sqrt(20.0) + np.array([1e-3, -2e-3j, 0.01 + 0.005j, 0.02j, 3.0])
    assert np.sum(np.abs(np.sqrt(lams ** 2 + 20.0)) < 0.5) == 4
    got, want = _matcher_by_order(WELL, np.repeat([0, 1, 3, 12], 5), np.tile(lams, 4))
    assert np.all(np.isfinite(got)) and _same_bits(got, want)


@pytest.mark.parametrize("kind", [1, 2])
@pytest.mark.parametrize("v0, ells, lams", [
    (-1e-12, np.repeat([0, 2, 5], 6),
     np.tile([-30 - 25j, 10 - 30j, 5 - 40j, -3 - 20j, 20 - 15j, 1 - 10j], 3)),
    # orders whose value changes in its last bit when its points sum as
    # part of a larger array (order 10) or sum more terms (order 7)
    (-0.1, np.array([10, 0, 11, 7, 3, 3]),
     np.array([-12.710026498282136 - 31.77968675891116j,
               -33.14806662851005 - 19.845079021380126j,
               34.256881836829564 - 10.19095797597192j,
               -34.366353907664255 - 42.933138131671j, 18.85 - 29.27j, 5 - 35j]))],
    ids=["weak", "v0=-0.1"])
def test_array_order_matcher_potential_series(monkeypatch, v0, ells, lams, kind):
    calls = []
    real = rs._potential_series_log
    monkeypatch.setattr(rs, "_potential_series_log",
                        lambda ell, *args: calls.append(ell) or real(ell, *args))
    lams = np.asarray(lams) if kind == 1 else np.conj(lams)
    got, want = _matcher_by_order(rs.RadialStepPotential(1.0, v0), ells, lams, kind)
    assert np.all(np.isfinite(got)) and _same_bits(got, want)
    assert np.size(calls[0]) == len(lams)  # one array call summed every series


def test_unsettled_potential_series_raises(monkeypatch):
    # 5 - 35j is flagged for v0 = -0.1, and its series needs more than 2 terms
    monkeypatch.setattr(rs, "_SERIES_MAX_TERMS", 2)
    evaluate = rs.channel_matcher_log(np.array([0, 3]), rs.RadialStepPotential(1.0, -0.1))
    with pytest.raises(NumericalError,
                       match=re.escape("order 3 at lambda = (5-35j) has not settled in 2")):
        evaluate(np.array([1 - 1j, 5 - 35j]))


def test_array_order_matcher_hankel_recurrence(monkeypatch):
    # at |z| = 0.5 the scaled AMOS Hankel overflows from order 150 on, not
    # at order 60; one array call seeds and recurs each point to its order
    calls = []
    real = special._h_pair_upward_log
    monkeypatch.setattr(special, "_h_pair_upward_log",
                        lambda ell, *args: calls.append(ell) or real(ell, *args))
    lams = 0.5 * np.exp(1j * np.linspace(-3.0, 3.0, 7))
    got, want = _matcher_by_order(WELL, np.repeat([0, 60, 150, 200], 7), np.tile(lams, 4))
    assert np.all(np.isfinite(got)) and _same_bits(got, want)
    assert sorted(set(calls[0].tolist())) == [150, 200]


@pytest.mark.parametrize("kind", [1, 2])
def test_array_order_matcher_complex_well(kind):
    pot = rs.RadialStepPotential(1.0, complex(-16.0, 1.5))
    lams = np.array([3 + 4j, -7 + 1j, 15 + 10j, 0.5 + 0.2j, 25 + 0.1j])
    if kind == 1:
        lams = lams.conj()
    got, want = _matcher_by_order(pot, np.repeat([0, 1, 10, 30], 5), np.tile(lams, 4), kind)
    assert np.all(np.isfinite(got)) and _same_bits(got, want)


@pytest.fixture(scope="module")
def weak_resonances():
    weak = rs.find_resonances(rs.RadialStepPotential(1.0, -1e-12), 20.0)
    return np.array([r.lam for r in weak.resonances])


@pytest.mark.parametrize("v0", [-20.0, -0.1, -1e-12, complex(-16.0, 1.5)])
def test_matcher_value_does_not_depend_on_the_call_layout(v0, weak_resonances):
    # a point's value is the same, bit for bit, in one call over many
    # points, in a call of its own and in a call with an order array:
    # points deep in the lower half plane (potential series for weak
    # wells), within 0.3 of +-sqrt(v0) (small-|k| series) and next to the
    # resonances of v0 = -1e-12 at R = 20
    rng = np.random.default_rng(1313)
    pot = rs.RadialStepPotential(1.0, v0)
    deep = rng.uniform(-40.0, 40.0, 100) + 1j * rng.uniform(-45.0, -5.0, 100)
    near_root = np.concatenate([
        c + 0.3 * np.sqrt(rng.uniform(size=20)) * np.exp(2j * np.pi * rng.uniform(size=20))
        for c in (cmath.sqrt(v0), -cmath.sqrt(v0))])
    n = 2 * weak_resonances.size
    near_weak = (np.repeat(weak_resonances, 2)
                 + 0.01 * (rng.normal(size=n) + 1j * rng.normal(size=n)))
    lams = np.concatenate([deep, near_root, near_weak])
    ells = [0, 3, 10, 40]
    many = [rs.channel_matcher_log(ell, pot)(lams) for ell in ells]
    for ell, got in zip(ells, many):
        alone = np.concatenate([rs.channel_matcher_log(ell, pot)(lams[i:i + 1])
                                for i in range(lams.size)])
        assert np.all(np.isfinite(got)) and _same_bits(got, alone), ell
    by_array = rs.channel_matcher_log(np.repeat(ells, lams.size), pot)(
        np.tile(lams, len(ells)))
    assert _same_bits(by_array, np.concatenate(many))


def test_matcher_value_does_not_depend_on_the_call_size():
    # numpy elides temporaries of 16,384 complex values and more; a
    # 20,000-point call gives its points the values of 1,000-point calls
    rng = np.random.default_rng(2020)
    lams = rng.uniform(-40.0, 40.0, 20000) + 1j * rng.uniform(-40.0, -1e-3, 20000)
    orders = rng.integers(0, 60, 20000)
    for v0 in (-20.0, -1e-12):
        pot = rs.RadialStepPotential(1.0, v0)
        for ell in (5, orders):
            whole = rs.channel_matcher_log(ell, pot)(lams)
            slices = [rs.channel_matcher_log(ell if np.isscalar(ell) else ell[i:i + 1000],
                                             pot)(lams[i:i + 1000])
                      for i in range(0, lams.size, 1000)]
            assert _same_bits(whole, np.concatenate(slices)), (v0, np.isscalar(ell))


def test_reference_well_past_r43_solves_or_names_the_false_zero(monkeypatch):
    # channels 86-92 of the R = 44 solve meet scipy's scaled-Hankel false
    # zeros (channel 88 at 45.207-25.541i) and solve through the Hankel
    # fallback, the unscaled pair at the highest usable order m <= ell recurred
    # upward; where no order is usable, the channel's error names the false
    # zero, never a boundary conflict on its frame
    hankel1, calls = special._ss.hankel1, []
    monkeypatch.setattr(special._ss, "hankel1",
                        lambda v, z: calls.append(z) or hankel1(v, z))
    assert rs._group_zeros([88], WELL, 44.0) == [[]] and calls
    zeros, = rs._group_zeros([82], WELL, 44.0)
    assert [m for _, m in zeros] == [1, 1]
    lams = np.array([z for z, _ in zeros])
    assert np.all(np.abs(rs.channel_condition(82, WELL, lams)) < rs._RESIDUAL_TOL)
    assert abs(lams[0] + lams[1].conjugate()) < 1e-9  # the mirror pair
    monkeypatch.setattr(special._ss, "hankel1", lambda v, z: np.zeros_like(z))
    with pytest.raises(NumericalError, match=r"^channel 88: scaled-Hankel false zero") as info:
        rs._group_zeros([88], WELL, 44.0)
    assert not isinstance(info.value, BoundaryConflictError)
    # in the solve's group of channel 88 the error still names channel 88
    with pytest.raises(NumericalError, match=r"^channel 88: scaled-Hankel false zero") as info:
        rs._group_zeros([88, 65, 42, 19], WELL, 44.0)
    assert not isinstance(info.value, BoundaryConflictError)


def test_channel_322_solves_at_r200():
    # scaled AMOS overflows on this frame near the negative imaginary axis,
    # where a Hankel recurrence from order 0 lost all digits and the cross of
    # the box at 0.207-100.5i exhausted its refinement budget
    zeros, = rs._group_zeros([322], WELL, 200.0)
    assert len(zeros) == 112 and all(abs(z) > 200.0 for z, _ in zeros)


def test_solve_winds_each_channel_frame_once(monkeypatch):
    # channels 0..31 (the cutoff guess 28 plus three) are each wound once
    calls = _count_frame_windings(monkeypatch)
    assert rs.find_resonances(WELL, 6.0).ell_max == 9
    assert len(calls) == 32


def test_solve_batches_the_matcher_calls_of_its_quadtrees(monkeypatch):
    # the quadtrees of a group of channels evaluate the crosses of a level,
    # a refinement round or a secant step over all their leaves in one call:
    # the R = 8 solve, two groups, makes 64 calls (229 one channel at a time,
    # 681 one box or leaf at a time) for the 6,989 points of the box-by-box
    # descent
    sizes = []
    real = rs.channel_matcher_log

    def counted(ell, pot, kind=1):
        evaluate = real(ell, pot, kind)
        return lambda lam: sizes.append(np.size(lam)) or evaluate(lam)

    monkeypatch.setattr(rs, "channel_matcher_log", counted)
    assert len(rs.find_resonances(WELL, 8.0).resonances) == 56
    assert len(sizes) <= 70
    assert sum(sizes) == 6989


def test_cutoff_extends_upward_past_a_low_guess(monkeypatch, small_set):
    # channels 4..6 hold frame zeros: the pass adds channels one at a time
    # until the top three (10..12) are empty
    monkeypatch.setattr(rs, "_cutoff_guess", lambda pot, R: 3)
    out = rs.find_resonances(WELL, 6.0)
    assert out.ell_max == 9
    assert ([(r.ell, r.lam, r.residual) for r in out.resonances]
            == [(r.ell, r.lam, r.residual) for r in small_set.resonances])


def test_cutoff_gives_up_50_channels_past_the_guess(monkeypatch):
    # every channel holds a zero: the pass solves the guess 28 plus three
    # down to 0, dealt in turn to two groups, then one channel at a time up
    # to 28 + 53
    solved = []

    def one_zero(ells, pot, R):
        solved.extend(ells)
        return [[(-1j, 1)] for _ in ells]

    monkeypatch.setattr(rs, "_group_zeros", one_zero)
    with pytest.raises(NumericalError,
                       match="channels remain nonempty 50 orders past the cutoff guess 28"):
        rs.find_resonances(WELL, 6.0)
    assert solved == list(range(31, -1, -2)) + list(range(30, -1, -2)) + list(range(32, 82))


@settings(max_examples=25)
@given(a=st.floats(0.5, 2.0), re=st.floats(-30.0, 10.0), im=st.floats(-5.0, 5.0))
@example(a=1.0, re=-16.0, im=1.5)
def test_conjugate_well_mirrors_the_resonances(a, re, im):
    # conj(V) has the resonances -conj(lambda) of V, channel by channel; the
    # disk |lambda| a <= 4 is the same size for every a, and holds resonances
    # for every |v0| >= 1 (at least 3 on a sweep of a and 24 phases at |v0| = 1)
    pot = rs.RadialStepPotential(a, complex(re, im))
    out = rs.find_resonances(pot, 4.0 / a)
    conj = rs.find_resonances(rs.RadialStepPotential(a, pot.v0.conjugate()), 4.0 / a)
    assert out.resonances or abs(pot.v0) < 1.0
    assert len(conj.resonances) == len(out.resonances)
    for mine, theirs in ((out, conj), (conj, out)):
        for r in mine.resonances:
            mirror = -r.lam.conjugate()
            assert min((abs(mirror - s.lam) for s in theirs.resonances
                        if s.ell == r.ell), default=math.inf) < 1e-8, (r.ell, r.lam)
