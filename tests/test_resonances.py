import cmath
import json
import math
import re
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from scipy.special import spherical_jn, spherical_yn

from resonance_atlas import contour as ct
from resonance_atlas import density
from resonance_atlas import resonances as rs
from resonance_atlas import special
from resonance_atlas.counting import SectorQuery, count_sector
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


@pytest.mark.parametrize("lam", [math.nan, complex(1.0, math.nan), math.inf, -math.inf * 1j])
def test_channel_condition_rejects_non_finite_lambda(lam):
    with pytest.raises(ValueError, match="finite lambda"):
        rs.channel_condition(0, WELL, lam)
    with pytest.raises(ValueError, match="finite lambda"):
        rs.channel_condition(3, WELL, np.array([1.0 - 1.0j, lam]))


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
    assert out.ell_max == rs.ell_cutoff(free, 12.0) == -1


@pytest.mark.parametrize("R", [20.0, 30.0])
def test_free_frame_windings_vanish(R):
    # the free well has no resonances: channels 0 .. ceil(1.5 R a) + 13 must
    # each wind 0 times around their search frame, so they hold no zero; a
    # free solve winds only channels 0..2, so this range keeps the free
    # matcher exercised on high orders
    free = rs.RadialStepPotential(a=1.0, v0=0.0)
    last = int(math.ceil(1.5 * R * free.a)) + 13
    for ell in range(last + 1):
        assert rs._group_zeros([ell], free, R) == [[]], ell


def test_free_well_solves_at_r40(monkeypatch):
    # T_ell vanishes for the free well, so the cutoff guess is -1 and only
    # channels 0..2 (the guess plus three) are wound, each once
    calls = _count_frame_windings(monkeypatch)
    out = rs.find_resonances(rs.RadialStepPotential(a=1.0, v0=0.0), 40.0)
    assert out.resonances == []
    assert out.ell_max == -1
    assert len(calls) == 3


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


def _frame_extent(zeros):
    """The highest channel of ``_solve_channels``' zeros with a frame zero."""
    return max((ell for ell, found in enumerate(zeros) if found), default=-1)


def test_cutoff_verified_empty():
    # channels 8 and 9 hold frame zeros outside the disk only
    cut = _frame_extent(rs._solve_channels(WELL, 6.0, 1))
    assert cut == 9
    for ell in (cut + 1, cut + 2, cut + 3):
        assert rs._group_zeros([ell], WELL, 6.0) == [[]]


def test_channel_zeros_rejects_surplus_inside_frame(monkeypatch):
    # a zero more than the frame winding must not pass silently, and the
    # locator's message must name the channel
    real = ct._zeros_inside

    def surplus(found, box, winding):
        return real(found + [(found[0][0] + 1e-3, 1)], box, winding)

    monkeypatch.setattr(ct, "_zeros_inside", surplus)
    with pytest.raises(NumericalError, match="^channel 0: located 3 zeros.*winding is 2"):
        rs._group_zeros([0], WELL, 6.0)


def test_surplus_zero_names_its_channel_inside_a_group(monkeypatch):
    # channels 12 and 13 are empty and pass; channel 0's surplus zero fails
    # the group, and the error names channel 0 in its message and its key
    real = ct._zeros_inside

    def surplus(found, box, winding):
        return real(found + [(found[0][0] + 1e-3, 1)] if found else found, box, winding)

    monkeypatch.setattr(ct, "_zeros_inside", surplus)
    with pytest.raises(NumericalError, match="^channel 0: located 3 zeros.*winding is 2"
                       ) as info:
        rs._group_zeros([13, 0, 12], WELL, 6.0)
    assert info.value.key == 0


def _two_groups(monkeypatch):
    # at R = 6 channels 0..13 fit in one group, which runs in-process for any
    # worker count: room for 7 channels per group cuts them into two groups,
    # 0..6 and 7..13; the group counts of each solve are recorded
    monkeypatch.setattr(rs, "_GROUP_SAMPLES", 7 * rs._channel_box(WELL, 6.0)[1])
    counts = []
    real = rs.map_ordered

    def counted(fn, arg_tuples, workers):
        counts.append(len(arg_tuples))
        return real(fn, arg_tuples, workers)

    monkeypatch.setattr(rs, "map_ordered", counted)
    return counts


def test_failing_channel_named_does_not_depend_on_the_worker_count(monkeypatch):
    # every nonempty channel (0..9) fails its surplus check: the first
    # group, 0..6, fails first, at its first nonempty channel 0, in one
    # process and on two workers alike
    counts = _two_groups(monkeypatch)
    real = ct._zeros_inside

    def surplus(found, box, winding):
        return real(found + [(found[0][0] + 1e-3, 1)] if found else found, box, winding)

    monkeypatch.setattr(ct, "_zeros_inside", surplus)
    for threads in (1, 2):
        with pytest.raises(NumericalError, match="^channel 0: located 3 zeros") as info:
            rs.find_resonances(WELL, 6.0, threads=threads)
        assert info.value.key == 0
    assert counts == [2, 2]


def test_channel_groups_are_consecutive_and_share_their_amos_orders(monkeypatch,
                                                                   amos_counts):
    # the pass hands the groups 0..6 and 7..13 to _group_zeros, lowest first;
    # the first matcher call of 0..6 winds its n = 7 channels on the P
    # samples of the top box's sides.  The D corners that two sides share
    # are sampled twice, but a call evaluates each distinct (lambda, ell)
    # once, with one AMOS evaluation per half-integer order and distinct
    # sample: (n + 1) (P - D) of hankel1e, where a group of no two
    # consecutive channels makes 2 n (P - D)
    _two_groups(monkeypatch)
    handed = []
    real_group = rs._group_zeros
    monkeypatch.setattr(rs, "_group_zeros",
                        lambda ells, pot, R: handed.append(ells) or real_group(ells, pot, R))
    rs._solve_channels(WELL, 6.0, 1)
    assert handed == [list(range(7)), list(range(7, 14))]

    calls = []
    real_matcher = rs.channel_matcher_log

    def counted(ell, pot, kind=1):
        evaluate = real_matcher(ell, pot, kind)

        def call(lam):
            before = amos_counts["hankel1e"]
            out = evaluate(lam)
            calls.append((lam, amos_counts["hankel1e"] - before))
            return out
        return call

    monkeypatch.setattr(rs, "channel_matcher_log", counted)
    real_group([*range(7)], WELL, 6.0)
    (lam, evaluated), n = calls[0], 7
    P = lam.size // n
    D = P - np.unique(lam).size
    assert lam.size == n * P and P > 50 and D == 2
    assert evaluated == (n + 1) * (P - D)


def test_solve_does_not_depend_on_the_worker_count(monkeypatch, small_set):
    # two groups on two workers give the one-group set, bit for bit
    counts = _two_groups(monkeypatch)
    two = rs.find_resonances(WELL, 6.0, threads=2)
    assert counts == [2]
    assert two.ell_max == small_set.ell_max
    assert ([(r.ell, r.lam, r.residual) for r in two.resonances]
            == [(r.ell, r.lam, r.residual) for r in small_set.resonances])


def test_channel_zeros_winds_its_frame_once(monkeypatch):
    calls = _count_frame_windings(monkeypatch)
    assert len(rs._group_zeros([0], WELL, 6.0)[0]) == 4
    assert len(calls) == 1


def test_polish_rounds_end_within_the_step_limit(monkeypatch):
    # at R = 60 the matcher's noise stops each secant above the tiny-step
    # test, so every seed, also a winding-1 leaf's, must end at the step
    # limit rather than hold its polish round open
    calls = []
    real = rs.channel_matcher_log

    def counted(ell, pot, kind=1):
        evaluate = real(ell, pot, kind)

        def call(lam):
            calls.append(lam.size)
            return evaluate(lam)
        return call

    monkeypatch.setattr(rs, "channel_matcher_log", counted)
    # 38 frame zeros: the frame closed under the mirror reaches 0.41 further
    # left than the complex wells' frame, to the mirror of one more zero,
    # outside the disk
    zeros, = rs._group_zeros([94], WELL, 60.0)
    assert sum(m for _, m in zeros) == len(zeros) == 38
    assert len(calls) <= 45


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
    with pytest.raises(NumericalError, match=r"channel 0: residual .* not below 1e-06") as info:
        rs.find_resonances(WELL, 6.0)
    assert info.value.key == 0


def test_cutoff_monotone_in_radius():
    c1 = rs.ell_cutoff(WELL, 3.0)
    c2 = rs.ell_cutoff(WELL, 6.0)
    assert c2 >= c1


def test_cutoff_golden(small_set):
    # the highest channel with a resonance in the disk; channels 8 and 9
    # hold frame zeros outside it
    assert small_set.ell_max == 7


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


def test_ell_max_is_read_off_the_resonances(tmp_path, small_set):
    # -1 for an empty set, so it differs from a set whose only channel is 0;
    # a stored ell_max (files written when it was the frame extent) is not
    # read back
    empty = rs.ResonanceSet(WELL, 6.0, [])
    assert empty.ell_max == -1
    only_zero = rs.ResonanceSet(WELL, 6.0, [r for r in small_set.resonances if r.ell == 0])
    assert only_zero.ell_max == 0
    path = tmp_path / "set.json"
    small_set.to_json(path)
    doc = json.loads(path.read_text())
    assert doc["ell_max"] == 7
    doc["ell_max"] = 9
    path.write_text(json.dumps(doc))
    assert rs.ResonanceSet.from_json(path).ell_max == 7
    empty.to_json(path)
    assert json.loads(path.read_text())["ell_max"] == -1
    assert rs.ResonanceSet.from_json(path).ell_max == -1


def test_scattering_log_det_free_is_zero():
    assert rs.scattering_log_det(rs.RadialStepPotential(1.0, 0.0), 5.0) == 0.0


def test_scattering_log_det_antisymmetry():
    for lam in [3.0, 7.5, 18.0]:
        s = rs.scattering_log_det(WELL, lam) + rs.scattering_log_det(WELL, -lam)
        assert abs(s) < 1e-8


@pytest.mark.parametrize("v0", [-20.0, 3.0])
def test_scattering_log_det_vanishes_on_the_real_axis(v0):
    # a real well is unitary there: the incoming matcher is the conjugate of
    # the outgoing one, so every channel's ln|S_ell| is 0, here exactly (a
    # barrier below its top can leave a rounding unit: 4.4e-16 at a = 1,
    # v0 = 20, lambda = 2.5)
    pot = rs.RadialStepPotential(2.0, v0)
    for x in (0.3, 3.0, 7.5, 18.0, 35.0):
        for lam in (x, -x):
            assert rs.scattering_log_det(pot, lam) == 0.0


def test_scattering_log_det_rejects_lower_half():
    with pytest.raises(ValueError):
        rs.scattering_log_det(WELL, 1.0 - 1.0j)


@pytest.mark.parametrize("lam", [math.inf, math.nan, complex(1.0, math.inf),
                                 complex(math.nan, 1.0)])
def test_scattering_log_det_rejects_non_finite_lambda(lam):
    with pytest.raises(ValueError, match="^lambda must be finite"):
        rs.scattering_log_det(WELL, lam)


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
    """(ln|det S|, its last channel, None), summed with one int-order
    matcher call per channel and kind, with the finiteness check and the
    stopping rule of scattering_log_det and the pole rule on every channel:
    |W_ell(lambda)| below 1e-8 of the larger of its values at
    lambda (1 +- 1e-4), four matcher points per channel.  A sum that the
    rule stops at channel ell gives (None, ell, ell)."""
    arr = np.array([lam, lam * (1.0 + 1e-4), lam * (1.0 - 1e-4)])
    total, quiet = 0.0, 0
    for ell in range(2001):
        w1 = rs.channel_matcher_log(ell, pot)(arr)
        w2 = rs.channel_matcher_log(ell, pot, kind=2)(np.array([lam]))[0]
        assert np.all(np.isfinite(w1)) and np.isfinite(w2)
        if w1[0].real - max(w1[1].real, w1[2].real) < math.log(1e-8):
            return None, ell, ell
        term = (2 * ell + 1) * (w2.real - w1[0].real)
        total += term
        if ell > abs(lam) * pot.a and abs(term) < 1e-10 * max(abs(total), 1.0):
            quiet += 1
            if quiet >= 10:
                return total, ell, None
        else:
            quiet = 0
    raise AssertionError(f"channel sum at {lam} did not settle")


IMAGINARY_POINTS = [20j, 40j]


@pytest.mark.parametrize("pot, points, merged", [
    (WELL, ASYMPTOTICS_DET_POINTS, True), (WELL, SOLVE_DET_POINTS, True),
    (rs.RadialStepPotential(1.0, -1e-12), SOLVE_DET_POINTS, True),
    (rs.RadialStepPotential(1.0, complex(-16.0, 1.5)), SOLVE_DET_POINTS, False),
    (rs.RadialStepPotential(2.0, -20.0), SOLVE_DET_POINTS, True),
    (rs.RadialStepPotential(1.0, complex(-20.0, 0.0)), SOLVE_DET_POINTS + IMAGINARY_POINTS,
     False),
    # below the barrier's top k is imaginary; merged, the -0.0 of conj(v0)
    # would flip its branch and move channel 0's term at 2.5
    (rs.RadialStepPotential(1.0, complex(20.0, 0.0)), [2.5 + 0j, -2.5 + 0j, 2.5j], False),
    (WELL, IMAGINARY_POINTS, True)],
    ids=["asymptotics", "solve", "weak", "complex", "a=2", "complex-typed real",
         "complex-typed barrier", "imaginary"])
def test_scattering_log_det_equals_channel_by_channel_sum(monkeypatch, pot, points, merged):
    # blocks of channels add exactly the terms of the one-channel-at-a-time
    # sum.  They evaluate channels 0..top: top is the stop, or the end of
    # the first block in a sum that stopped there.  A real-typed well makes
    # one outgoing call per block, on lambda and conj(lambda) of each
    # channel; a complex-typed v0, even one with a zero imaginary part,
    # makes one on lambda and adds one incoming (kind 2) call per block.
    # Only channels with |g_ell(lambda)| < 1e-2 C_ell evaluate the pole
    # check's neighbours lambda (1 +- 1e-4), in one more call per block:
    # channel 0 of a = 2 at 5i (1e-2.19 C_0) is the one such channel up to
    # the stops here
    expected = [_det_channel_by_channel(pot, lam) for lam in points]
    calls = []  # (kind, orders, points) of each call
    real = rs.channel_matcher_log

    def recorded(ell, pot, kind=1):
        evaluate = real(ell, pot, kind)
        return lambda lam: calls.append((kind, np.atleast_1d(ell), lam)) or evaluate(lam)

    monkeypatch.setattr(rs, "channel_matcher_log", recorded)
    screened_to_stop = 0
    for lam, (value, stop, pole) in zip(points, expected):
        calls.clear()
        got = rs.scattering_log_det(pot, lam)
        assert pole is None and got == value, lam
        if lam.imag == 0 and pot.v0.imag == 0:
            assert got == 0.0
        near = [orders for kind, orders, z in calls if kind == 1 and lam * (1.0 + 1e-4) in z]
        main = [orders for kind, orders, z in calls if kind == 1 and lam * (1.0 + 1e-4) not in z]
        incoming = [orders for kind, orders, _ in calls if kind == 2]
        top = int(main[-1].max())
        assert top == stop or (top > stop and len(main) == 1), lam
        channels = np.arange(top + 1)
        log_g = real(channels, pot)(np.full(channels.size, complex(lam)))
        screened = channels[log_g.real < rs._log_c(channels, pot) + math.log(1e-2)]
        screened_to_stop += np.count_nonzero(screened <= stop)
        assert np.array_equal(np.concatenate(near or [[]]), screened.repeat(2))
        if merged:
            assert incoming == []
            assert np.array_equal(np.concatenate(main), channels.repeat(2))
        else:
            assert np.array_equal(np.concatenate(incoming), channels)
            assert np.array_equal(np.concatenate(main), channels)
            assert len(main) == len(incoming)
        assert len(main) + len(near) < stop + 1  # fewer calls than channels
    assert screened_to_stop == (1 if pot.a == 2.0 else 0)


@settings(max_examples=60, deadline=None)
@given(a=st.floats(0.5, 2.0), v0=st.floats(-40.0, 40.0),
       x=st.floats(-30.0, 30.0), y=st.floats(0.0, 30.0))
@example(a=1.0, v0=-20.0, x=0.0, y=20.0)
@example(a=1.0, v0=-20.0, x=-0.0, y=40.0 / 3.0)
@example(a=1.0, v0=20.0, x=2.5, y=0.0)
@example(a=1.0, v0=20.0, x=-2.5, y=0.0)
def test_scattering_log_det_of_a_real_well_equals_channel_by_channel_sum(a, v0, x, y):
    # the merged outgoing call of a real-typed well gives the incoming
    # values of the kind 2 calls bit for bit, on the axes too (signed
    # zeros in k^2 and log v0); the free well returns 0 before any channel
    lam = complex(x, y)
    assume(v0 != 0.0 and 0.01 <= abs(lam) <= 30.0)
    pot = rs.RadialStepPotential(a, v0)
    assert rs.scattering_log_det(pot, lam) == _det_channel_by_channel(pot, lam)[0]


def _assert_raises_where_the_full_rule_does(pot, lam):
    value, _, pole = _det_channel_by_channel(pot, lam)
    if pole is None:
        assert rs.scattering_log_det(pot, lam) == value, lam
    else:
        with pytest.raises(NumericalError, match=rf"^channel {pole}: \|W_ell\| vanishes"):
            rs.scattering_log_det(pot, lam)
    return pole


@pytest.mark.parametrize("v0, lam, ell", [
    (-20.0, 3.6821352559107354j, 0), (-20.0, 2.676552411683095j, 1),
    (complex(-20.0, 2.0), None, 0)], ids=["bound ell=0", "bound ell=1", "complex ell=0"])
def test_pole_screen_raises_where_the_full_rule_raises(v0, lam, ell):
    # the screened check (neighbours only where |g_ell| < 1e-2 C_ell) raises
    # at exactly the channels and points where the 4-point rule on every
    # channel raises: at the zero itself and 1e-12 .. 1e-15 (relative) from
    # it, and at neither 1e-6 .. 1e-10 away.  The complex well's zero is
    # its channel 0 eigenvalue in the upper half plane
    pot = rs.RadialStepPotential(1.0, v0)
    if lam is None:
        (lam, mult), = ct.locate_zeros(lambda z: rs.channel_matcher_log(0, pot)(z),
                                       ct.ContourBox(-1.0 + 3.0j, 1.0 + 4.5j), 1e-13,
                                       log_form=True)
        assert mult == 1 and abs(lam - (0.252484 + 3.689553j)) < 1e-6
    poles = [_assert_raises_where_the_full_rule_does(pot, x)
             for x in [lam] + [lam * (1.0 + 10.0 ** -k) for k in range(6, 16)]]
    assert poles[0] == poles[-1] == ell and poles[1:6] == [None] * 5


@settings(max_examples=40, deadline=None)
@given(a=st.floats(0.5, 2.0), v0=st.one_of(
           st.floats(-40.0, 40.0),
           st.builds(complex, st.floats(-40.0, 40.0), st.floats(-5.0, 5.0))),
       x=st.floats(-30.0, 30.0), y=st.floats(0.0, 30.0, exclude_min=True))
def test_pole_screen_agrees_with_the_full_rule_in_the_upper_half_plane(a, v0, x, y):
    lam = complex(x, y)
    assume(v0 != 0.0 and 0.01 <= abs(lam) <= 30.0)
    _assert_raises_where_the_full_rule_does(rs.RadialStepPotential(a, v0), lam)


def _blocks_to_stop(terms, lam, reach):
    """(blocks, stop, last channel evaluated, sum) of the stopping rule of
    scattering_log_det replayed on its terms, with a first block that ends
    at channel reach and later blocks of the 10 - q channels it still needs."""
    total, quiet, blocks, last = 0.0, 0, 1, reach
    for ell, term in enumerate(terms):
        if ell > last:
            blocks, last = blocks + 1, last + 10 - quiet
        total += term
        if ell > abs(lam) and abs(term) < 1e-10 * max(abs(total), 1.0):
            quiet += 1
            if quiet >= 10:
                return blocks, ell, last, total
        else:
            quiet = 0
    raise AssertionError(f"the terms at {lam} end before the sum settles")


@pytest.mark.parametrize("v0, blocks, channels", [
    (-20.0, 90, 1649), (complex(-20.0, 0.0), 90, 1649), (complex(-16.0, 1.5), 104, 1739)])
def test_scattering_log_det_makes_one_matcher_call_per_block(monkeypatch, v0, blocks, channels):
    # the 38 points of the asymptotics workload sum 1,649 channels (1,739 at
    # -16+1.5i) up to their stops for the a = 1 well.  First blocks that end
    # at floor(|lambda| a) + 10 would take 90 (104) blocks; reaching to where
    # the sum is predicted to settle they take 38, one per point, on 1,726
    # (1,822) channels: a complex v0's first block reaches at least
    # ceil(3.3 (|lambda| a)^(1/3) + 1.5) past floor(|lambda| a) + 10, where
    # its sum settles on the real axis.  The stopping rule, replayed on the
    # terms the matcher calls returned, gives the stops, the block counts
    # and the value.  A real-typed v0 makes one call per block, on lambda and
    # conj(lambda) per channel; a complex-typed v0 makes an outgoing call on
    # lambda and an incoming one.  No channel is screened in for the pole
    # check, so no call evaluates the neighbours lambda (1 +- 1e-4)
    calls = []  # (kind, orders, points, values) of each call
    real = rs.channel_matcher_log

    def counted(ell, pot, kind=1):
        evaluate = real(ell, pot, kind)

        def record(lam):
            out = evaluate(lam)
            calls.append((kind, np.broadcast_to(ell, np.shape(lam)), np.asarray(lam), out))
            return out
        return record

    monkeypatch.setattr(rs, "channel_matcher_log", counted)
    pot = rs.RadialStepPotential(1.0, v0)
    fixed = ours = to_stop = evaluated = 0
    for lam in ASYMPTOTICS_DET_POINTS:
        calls.clear()
        value = rs.scattering_log_det(pot, lam)
        outgoing = [c for c in calls if c[0] == 1]
        incoming = [c for c in calls if c[0] == 2]
        orders = np.concatenate([c[1] for c in outgoing])
        points = np.concatenate([c[2] for c in outgoing])
        w1 = np.concatenate([c[3] for c in outgoing]).real
        if isinstance(v0, complex):
            assert len(incoming) == len(outgoing) and np.all(points == lam)
            assert np.array_equal(np.concatenate([c[1] for c in incoming]), orders)
            w2 = np.concatenate([c[3] for c in incoming]).real
        else:
            assert incoming == [] and np.all(points[0::2] == lam)
            assert np.all(points[1::2] == lam.conjugate())
            orders, w1, w2 = orders[0::2], w1[0::2], w1[1::2]
        assert np.array_equal(orders, np.arange(orders.size))
        terms = ((2 * orders + 1) * (w2 - w1)).tolist()
        margin = 0
        if lam.imag != 0 or pot.v0.imag != 0:
            margin = max(math.ceil(0.51 * lam.imag + 7.0), 0)  # |v0| a^2 >= 1
        if pot.v0.imag != 0:
            margin = max(margin, math.ceil(3.3 * abs(lam) ** (1 / 3) + 1.5))
        base = math.floor(abs(lam)) + 10
        n_fixed, stop, _, _ = _blocks_to_stop(terms, lam, base)
        n_ours, stop_ours, last, total = _blocks_to_stop(terms, lam, base + margin)
        assert (stop_ours, total) == (stop, value), lam
        assert (len(outgoing), orders.size) == (n_ours, last + 1), lam
        fixed, ours = fixed + n_fixed, ours + n_ours
        to_stop, evaluated = to_stop + stop + 1, evaluated + orders.size
    assert (fixed, to_stop) == (blocks, channels)
    n = len(ASYMPTOTICS_DET_POINTS)
    assert (ours, evaluated) == (n, 1726 if pot.v0.imag == 0 else 1822)


@pytest.mark.parametrize("v0", [-20.0, complex(-16.0, 1.5)], ids=["real", "complex"])
@pytest.mark.parametrize("marks, error", [
    ({2: "pole", 5: "nan"}, r"^channel 2: \|W_ell\| vanishes"),
    ({2: "nan", 5: "pole"}, r"^channel 2: matcher not finite"),
    ({2: "zero", 5: "nan"}, r"^channel 2: matcher not finite"),
], ids=["pole before nan", "nan before pole", "zero is nan first"])
def test_scattering_log_det_raises_for_its_first_failing_channel(monkeypatch, v0, marks,
                                                                 error):
    # a stand-in matcher with |W_ell| = 1 everywhere but at the marked
    # channels of the first block (0..22): a pole (W_ell(lambda) small
    # against its neighbours), a NaN at every point, or W_ell(lambda) = 0,
    # which is both a pole and not finite and raises as not finite
    lam = 3.0 + 2.0j

    def stand_in(ell, pot, kind=1):
        def evaluate(points):
            ells = np.broadcast_to(ell, points.shape)
            out = np.zeros(points.shape, dtype=complex)
            for order, mark in marks.items():
                at = ells == order
                if mark == "nan":
                    out[at] = np.nan
                else:
                    out[at & (points == lam)] = -30.0 if mark == "pole" else -np.inf
            return out
        return evaluate

    monkeypatch.setattr(rs, "channel_matcher_log", stand_in)
    with pytest.raises(NumericalError, match=error) as info:
        rs.scattering_log_det(rs.RadialStepPotential(1.0, v0), lam)
    assert info.value.key == 2


@pytest.mark.parametrize("v0", [-20.0, complex(-16.0, 1.5)], ids=["real", "complex"])
def test_channels_past_the_stop_are_never_added_checked_or_raised_on(monkeypatch, v0):
    # at 40i the sum stops at channel 73 and its first block runs to 78: a
    # NaN at every point of channel 74, a pole at 76 and W_ell(lambda) = 0 at
    # 78, each of which raises at or below the stop, leave the value alone
    pot, lam = rs.RadialStepPotential(1.0, v0), 40j
    value, stop, _ = _det_channel_by_channel(pot, lam)
    assert stop == 73
    real, top = rs.channel_matcher_log, []

    def marked(ell, pot, kind=1):
        evaluate = real(ell, pot, kind)

        def at_marks(points):
            out = evaluate(points)
            orders = np.broadcast_to(ell, points.shape)
            top.append(orders.max())
            out[orders == 74] = np.nan
            out[(orders == 76) & (points == lam)] = -30.0
            out[(orders == 78) & (points == lam)] = -np.inf
            return out
        return at_marks

    monkeypatch.setattr(rs, "channel_matcher_log", marked)
    assert rs.scattering_log_det(pot, lam) == value
    assert max(top) == 78


@settings(max_examples=40, deadline=None)
@given(a=st.floats(0.5, 2.0), v0=st.one_of(
           st.floats(-40.0, 40.0),
           st.builds(complex, st.floats(-40.0, 40.0), st.floats(-5.0, 5.0)),
           st.floats(-40.0, 40.0).map(lambda v: complex(v, 0.0))),
       x=st.floats(-60.0, 60.0), y=st.one_of(st.just(0.0), st.floats(0.0, 60.0)))
@example(a=1.0, v0=complex(-16.0, 1.5), x=35.0, y=0.0)
@example(a=2.0, v0=complex(-20.0, 0.0), x=0.0, y=30.0)
def test_first_block_keeps_every_value_to_lambda_a_60(a, v0, x, y):
    # real, complex and complex-typed real wells, the real axis of a complex
    # well included: the first block's margin moves no bit of the sum
    lam = complex(x, y)
    assume(v0 != 0.0 and 0.01 <= abs(lam) * a <= 60.0)
    _assert_raises_where_the_full_rule_does(rs.RadialStepPotential(a, v0), lam)


@pytest.mark.parametrize("r", [320.0, 1000.0])
@pytest.mark.parametrize("theta", [math.pi / 4, math.pi / 2], ids=["pi/4", "pi/2"])
def test_scattering_log_det_at_large_radii_settles_in_its_first_call(monkeypatch, r, theta):
    # a first block of floor(|lambda| a) + 10 channels took 13 and 38 calls
    # on pi/4 at r = 320 and 1000, and 18 and 52 on pi/2
    calls = []
    real = rs.channel_matcher_log
    monkeypatch.setattr(rs, "channel_matcher_log",
                        lambda ell, pot, kind=1: calls.append(kind) or real(ell, pot, kind))
    rs.scattering_log_det(WELL, r * cmath.exp(1j * theta))
    assert calls == [1]


def test_log_odd_double_factorials_read_a_table_that_grows(monkeypatch):
    # bit for bit _log_double_factorial(2 ell + 1), from ell = -1 to one
    # past _MAX_ORDER, before and after the table grows
    monkeypatch.setattr(special, "_LOG_ODD_DF", np.zeros(0))

    def check(ells):
        want = np.array([special._log_double_factorial(2 * ell + 1) for ell in ells])
        assert special._log_odd_double_factorials(ells).tobytes() == want.tobytes()

    check(np.arange(-1, 8))
    first = special._LOG_ODD_DF.size
    check(np.array([3, 9, -1, 9]))  # past the end: doubled
    assert special._LOG_ODD_DF.size == 2 * first
    check(np.arange(-1, rs._MAX_ORDER + 2))
    assert special._LOG_ODD_DF.size == rs._MAX_ORDER + 3
    check(np.arange(-1, 8))


@pytest.mark.parametrize("theta", [math.pi / 8, 7 * math.pi / 8])
def test_scattering_log_det_at_r60_mirrors_and_stays_below_h3(theta):
    # the incoming matcher meets a scaled-Hankel false zero at order 86 here
    # and takes the Hankel fallback (the unscaled pair at that order);
    # r^-3 ln|det S| = 0.46350 agrees on
    # the mirror rays of a real well and stays below h_3(pi/8) = 0.610
    got, mirror = (rs.scattering_log_det(WELL, 60.0 * cmath.exp(1j * t)) / 60.0 ** 3
                   for t in (theta, math.pi - theta))
    assert abs(got - mirror) < 1e-12 * abs(got)
    assert abs(got - 0.46350) < 1e-5
    assert got < density.angular_density_d3_closed(math.pi / 8)


@pytest.mark.parametrize("R", [300, 400, 500, 700])
def test_matcher_finite_to_3r_on_the_frame_bottom(R):
    # near the axis at the frame bottom the scaled j mantissas underflow to
    # 0 from channel 733 (R = 300) to 1055 (R = 700); the unscaled pair
    # keeps every channel up to 3R finite
    ells = np.arange(3 * R + 1)
    log_g = rs.channel_matcher_log(ells, WELL)(np.full(ells.size, 0.2 - (R + 1) * 1j))
    assert np.all(np.isfinite(log_g))


def test_channel_terms_at_640i_match_mpmath():
    # (2 ell + 1) ln |W_ell^(2) / W_ell^(1)| at lambda = 640i against 700-digit
    # mpmath (W from besselj, hankel1 and hankel2).  The incoming matcher's
    # potential series multiplies two j mantissas of about e^-372 in jve's
    # scaling; where that product underflowed, the series dropped the term
    # (8.5 at channel 712 and 9.0 at 900)
    for ell, want in ((706, 774181.42922913710), (712, 764393.37254685069),
                      (900, 252617.77179280865)):
        w1 = rs.channel_matcher_log(ell, WELL)(np.array([640j]))[0]
        w2 = rs.channel_matcher_log(ell, WELL, kind=2)(np.array([640j]))[0]
        assert abs((2 * ell + 1) * (w2.real - w1.real) - want) < 1e-10 * want, ell


@pytest.mark.parametrize("r, quarter, axis", [(640.0, 1.305390, 2.149196),
                                              (1000.0, 1.315895, 2.162452)])
def test_scattering_log_det_reaches_r1000(r, quarter, axis):
    # r^-3 ln|det S| on pi/4, its mirror 3 pi/4 and pi/2, with no warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = [rs.scattering_log_det(WELL, r * cmath.exp(1j * t)) / r ** 3
               for t in (math.pi / 4, 3 * math.pi / 4, math.pi / 2)]
    assert abs(got[0] - got[1]) < 1e-12 * got[0]
    assert abs(got[0] - quarter) < 1e-6 and abs(got[2] - axis) < 1e-6


def test_potential_series_exponentiates_only_used_terms(monkeypatch):
    # the point at 100 - 100i settles after 11 terms, the one at 2 - 2i
    # takes 16; the first point's terms past its 11th, made e^1000 larger
    # than its largest, must neither overflow nor move its value
    z, ell = np.array([100 - 100j, 2 - 2j]), np.array([3, 3])
    hm1, hl, sh = special.sph_h_pair_log(ell, z)
    alone = rs._potential_series_log(ell[:1], 1.0, -20.0, z[:1], hm1[:1], hl[:1], sh[:1])
    real = rs.sph_j_pair_log

    def inflated(orders, zs, **carry):
        jm1, jl, s = real(orders, zs, **carry)
        return jm1, jl, np.where((orders >= 3 + 12) & (np.abs(zs) > 100.0), s + 1000.0, s)

    monkeypatch.setattr(rs, "sph_j_pair_log", inflated)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        both = rs._potential_series_log(ell, 1.0, -20.0, z, hm1, hl, sh)
    assert both[0] == alone[0]


@pytest.mark.parametrize("ell, lam", [(0, 3.6821352559107354j), (1, 2.676552411683095j)])
def test_scattering_log_det_raises_at_a_bound_state(ell, lam):
    # the reference well's bound states are S-matrix poles; |W_ell| there is
    # 1e-12.9 and 1e-11.7 of its value at lambda (1 +- 1e-4), and about
    # 1e-5 of it 1e-9 (relative) away, where the sum is finite
    with pytest.raises(NumericalError, match=rf"^channel {ell}: \|W_ell\| vanishes"):
        rs.scattering_log_det(WELL, lam)
    assert math.isfinite(rs.scattering_log_det(WELL, lam * (1.0 + 1e-9)))


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
    real = special._h_pair_fallback_log
    monkeypatch.setattr(special, "_h_pair_fallback_log",
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


@pytest.mark.parametrize("kind", [1, 2])
@pytest.mark.parametrize("v0", [-20.0, -1e-12, complex(-16.0, 1.5)])
def test_array_order_matcher_det_layout(v0, kind):
    # consecutive channels at each point, as a det block, the cutoff scan
    # and a lockstep group lay them out: a point shares its lower AMOS
    # orders with channel ell - 1 at its lambda, on the direct path, in the
    # small-|k| branch (within 0.3 of +-sqrt(v0)) and in the potential
    # series, and keeps the value of its int-order call bit for bit
    pot = rs.RadialStepPotential(1.0, v0)
    root = cmath.sqrt(v0 if kind == 1 else v0.conjugate())  # kind 2 evaluates at conj(v0)
    lams = np.array([10 * cmath.exp(1j * math.pi / 4), 10 * cmath.exp(-1j * math.pi / 4),
                     -30 - 25j, 5 - 40j, 20 - 15j, root + 0.01, -root + 0.02j, 2.5 + 0j])
    lams = lams if kind == 1 else lams.conj()  # and at conj(lambda)
    orders = np.arange(25)
    got, want = _matcher_by_order(pot, orders.repeat(lams.size), np.tile(lams, orders.size),
                                  kind)
    assert np.all(np.isfinite(got)) and _same_bits(got, want)


@pytest.mark.parametrize("v0", [-20.0, -1e-12])
def test_matcher_value_does_not_depend_on_sharing(v0):
    # seeded runs of 1 to 11 consecutive channels at one lambda (|lambda| <
    # 60, both half planes), shuffled, and the scaled-Hankel false zero of
    # channel 110 with channel 111: a point keeps its one-point value bit
    # for bit, its partner (lambda, ell - 1) in its piece or not (8,400
    # points run in two pieces)
    rng = np.random.default_rng(3434)
    ells, lams = [110, 111], [-60.79 - 35.09j] * 2
    while len(ells) < 8400:
        run, start = int(rng.integers(1, 12)), int(rng.integers(0, 80))
        ells += range(start, start + run)
        lams += [complex(cmath.rect(rng.uniform(0.5, 60.0), rng.uniform(-math.pi, math.pi)))] * run
    shuffle = rng.permutation(8400)
    ells, lams = np.array(ells[:8400])[shuffle], np.array(lams[:8400])[shuffle]
    pot = rs.RadialStepPotential(1.0, v0)
    got, want = _matcher_by_order(pot, ells, lams)
    assert np.all(np.isfinite(got)) and _same_bits(got, want)
    few = np.flatnonzero(ells >= 110).tolist() + list(range(1500))
    alone = np.concatenate([rs.channel_matcher_log(ells[i:i + 1], pot)(lams[i:i + 1])
                            for i in few])
    assert _same_bits(got[few], alone)


def test_matcher_evaluates_each_amos_order_once_per_point(monkeypatch, amos_counts):
    # a block of n consecutive channels at P points makes (n + 1) P
    # evaluations of hankel1e and of jve; a point of the potential series
    # that settles after N terms makes N + 1 jve orders (11 terms at
    # 100 - 100i, 16 at 2 - 2i)
    points = np.array([10 * cmath.exp(3j * math.pi / 8), 10 * cmath.exp(-3j * math.pi / 8),
                       25j, 7.5 + 0j])
    n = 30
    log_g = rs.channel_matcher_log(np.arange(n).repeat(points.size), WELL)(
        np.tile(points, n))
    assert np.all(np.isfinite(log_g))
    assert amos_counts == {"hankel1e": (n + 1) * points.size, "jve": (n + 1) * points.size,
                           "hankel1": 0, "jv": 0}
    z, ell = np.array([100 - 100j, 2 - 2j]), np.array([3, 3])
    hm1, hl, sh = special.sph_h_pair_log(ell, z)
    terms = []
    real_pair = rs.sph_j_pair_log
    monkeypatch.setattr(rs, "sph_j_pair_log",
                        lambda orders, *args, **carry: terms.append(orders)
                        or real_pair(orders, *args, **carry))
    for i, settled in ((0, 11), (1, 16)):
        amos_counts["jve"], terms[:] = 0, []
        rs._potential_series_log(ell[i:i + 1], 1.0, -20.0, z[i:i + 1], hm1[i:i + 1],
                                 hl[i:i + 1], sh[i:i + 1])
        assert (len(terms), amos_counts["jve"]) == (settled, settled + 1)
    amos_counts["jve"] = 0
    rs._potential_series_log(ell, 1.0, -20.0, z, hm1, hl, sh)
    assert amos_counts["jve"] == 12 + 17


@pytest.mark.parametrize("ell, named", [(-1, "-1"), (1.5, "1.5"),
                                         (np.array([0, 1, -2]), "-2"),
                                         (np.array([0.0, 1.5, 2.0]), "0.0"),
                                         (np.array([2, 1, 0], dtype=np.uint8), "2")])
def test_matcher_entry_points_reject_bad_orders(ell, named):
    # an order that is not an integer >= 0 raises before any evaluation,
    # naming the first bad order; an array of a float or unsigned dtype is
    # rejected whole (the order arithmetic, from the double-factorial
    # table's ell.max(initial=-1) on, is signed), so its first element is
    # named
    lam = np.array([3 - 1j, 4 - 2j, 5 - 3j])
    message = f"channel orders must be signed integers >= 0; got {re.escape(named)}$"
    with pytest.raises(ValueError, match=message):
        rs.channel_matcher_log(ell, WELL)
    with pytest.raises(ValueError, match=message):
        rs.channel_condition(ell, WELL, lam)


def test_matcher_shares_amos_orders_across_the_small_k_split(amos_counts):
    # runs of n consecutive channels at P lambdas, shuffled into one call:
    # three lambdas with |k| a < 0.5, whose small-|k| branch takes no j
    # pair, and four on the direct path.  A piece runs in (lambda, ell)
    # order, and its direct-path subset keeps that order, so each order is
    # evaluated once per lambda: (n + 1) P of hankel1e and (n + 1) P_big of
    # jve, on the direct-path points alone
    root = 1j * math.sqrt(20.0)
    small = np.array([root + 0.01, -root + 0.02j, root - 0.005 + 0.01j])
    big = np.array([10 * cmath.exp(-3j * math.pi / 8), 25 - 3j, -7.5 - 2j, 3 + 4j])
    lams = np.concatenate([small, big])
    assert np.all(np.abs(np.sqrt(small ** 2 + 20.0)) < 0.5)
    assert np.all(np.abs(np.sqrt(big ** 2 + 20.0)) >= 0.5)
    n = 12
    shuffle = np.random.default_rng(38).permutation(n * lams.size)
    ells, points = np.tile(np.arange(n), lams.size)[shuffle], lams.repeat(n)[shuffle]
    got, want = _matcher_by_order(WELL, ells, points)
    assert np.all(np.isfinite(got)) and _same_bits(got, want)
    amos_counts.update(hankel1e=0, jve=0)
    rs.channel_matcher_log(ells, WELL)(points)
    assert amos_counts == {"hankel1e": (n + 1) * lams.size, "jve": (n + 1) * big.size,
                           "hankel1": 0, "jv": 0}


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
    # fallback, the unscaled pair at the channel's order; where neither it nor
    # the pair at the Hankel minimum's order is usable, the channel's error
    # names the false zero, never a boundary conflict on its frame
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
    # channels 0..13 (the cutoff guess 10 plus three) are each wound once
    calls = _count_frame_windings(monkeypatch)
    assert rs.find_resonances(WELL, 6.0).ell_max == 7
    assert len(calls) == 14


def test_solve_batches_the_matcher_calls_of_its_quadtrees(monkeypatch):
    # the quadtrees of a group of channels evaluate the crosses of a level,
    # a refinement round or a secant step over all their leaves in one call:
    # the R = 8 solve, channels 0..16 in one group, makes 28 calls for the
    # 2,425 points of the cutoff scan (2 calls, 145 points), the box-by-box
    # descent and the residual checks (two secant seeds from a level's
    # segmented power sums take one step more than from per-box sums)
    sizes = []
    real = rs.channel_matcher_log

    def counted(ell, pot, kind=1):
        evaluate = real(ell, pot, kind)
        return lambda lam: sizes.append(np.size(lam)) or evaluate(lam)

    monkeypatch.setattr(rs, "channel_matcher_log", counted)
    assert len(rs.find_resonances(WELL, 8.0).resonances) == 56
    assert len(sizes) <= 45
    assert sum(sizes) == 2425


@pytest.mark.parametrize("ell, v0", [(24, -22.8 + 2.6j), (19, -18.4 + 0.6j)])
def test_pencil_leaves_report_only_zeros_of_the_channel(ell, v0):
    # two criterion-10 members at r = 25 whose coarse pencil seeds lead the
    # secant to stop on a tiny step away from any zero; the zero test
    # rejects those leaves
    pot = rs.RadialStepPotential(1.0, v0)
    (zeros,) = rs._group_zeros([ell], pot, 25.0)
    assert zeros
    lams = np.array([z for z, _ in zeros])
    assert np.all(np.abs(rs.channel_condition(ell, pot, lams)) < rs._RESIDUAL_TOL)


def test_cutoff_extends_upward_past_a_low_guess(monkeypatch, small_set):
    # channels 4..6 hold frame zeros: the pass adds channels one at a time
    # until the top three (10..12) are empty
    monkeypatch.setattr(rs, "ell_cutoff", lambda pot, R: 3)
    out = rs.find_resonances(WELL, 6.0)
    assert out.ell_max == 7
    assert ([(r.ell, r.lam, r.residual) for r in out.resonances]
            == [(r.ell, r.lam, r.residual) for r in small_set.resonances])


def test_cutoff_gives_up_50_channels_past_the_guess(monkeypatch):
    # every channel holds a zero: the pass solves 0 to the guess 10 plus
    # three in one group, then one channel at a time up to 10 + 53
    solved = []

    def one_zero(ells, pot, R):
        solved.extend(ells)
        return [[(-1j, 1)] for _ in ells]

    monkeypatch.setattr(rs, "_group_zeros", one_zero)
    with pytest.raises(NumericalError,
                       match="channels remain nonempty 50 orders past the cutoff guess 10"):
        rs.find_resonances(WELL, 6.0)
    assert solved == list(range(64))


def _old_cutoff_guess(pot, R):
    # the formula the Rouché prediction replaced
    return int(math.ceil(1.5 * R * pot.a + 2.0 * math.sqrt(abs(pot.v0)) * pot.a)) + 10


def _well(kind, x, y):
    return {"real": complex(-40.0 * x, 0.0), "barrier": complex(40.0 * x, 0.0),
            "complex": complex(40.0 * x - 30.0, 10.0 * y - 5.0),
            "weak": complex(-(10.0 ** (-12.0 * x)), 0.0), "free": 0j}[kind]


@settings(max_examples=25)
@given(kind=st.sampled_from(["real", "barrier", "complex", "weak", "free"]),
       a=st.floats(0.5, 2.0), x=st.floats(0.0, 1.0), y=st.floats(0.0, 1.0),
       R=st.floats(0.1, 8.0))
@example(kind="complex", a=1.959, x=0.2195, y=0.1182, R=2.654)
def test_cutoff_prediction_keeps_the_set(kind, a, x, y, R):
    # the prediction only decides how many channels are solved: the set and
    # the frame extent are those of the old generous guess, bit for bit (the
    # example is a well whose prediction falls below the extent and is
    # extended)
    pot = rs.RadialStepPotential(a, _well(kind, x, y))
    extents = []
    real = rs._solve_channels

    def recorded(*args):
        zeros = real(*args)
        extents.append(_frame_extent(zeros))
        return zeros

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rs, "_solve_channels", recorded)
        new = rs.find_resonances(pot, R)
        mp.setattr(rs, "ell_cutoff", _old_cutoff_guess)
        old = rs.find_resonances(pot, R)
    assert extents[0] == extents[1]
    assert ([(r.ell, r.lam, r.residual) for r in new.resonances]
            == [(r.ell, r.lam, r.residual) for r in old.resonances])


@pytest.mark.parametrize("v0", [-20.0, 20.0, -5.0, -0.1, -1e-12, 0.0, complex(-20.0, 1.5),
                                complex(-12.0, 3.0), complex(5.0, -3.0), complex(-0.1, 0.05)])
@pytest.mark.parametrize("R", [1.0, 3.0, 6.0, 8.0])
def test_cutoff_prediction_covers_the_nonempty_channels(monkeypatch, v0, R):
    # on these wells every channel with a frame zero lies at or below the
    # guess, so the three channels above it are empty and the pass solves
    # channels 0..guess+3 only, with no channel added one at a time
    pot = rs.RadialStepPotential(1.0, v0)
    guess = rs.ell_cutoff(pot, R)
    solved = []
    real = rs._group_zeros
    monkeypatch.setattr(rs, "_group_zeros", lambda ells, *args: solved.extend(ells)
                        or real(ells, *args))
    zeros = rs._solve_channels(pot, R, 1)
    assert sorted(solved) == list(range(guess + 4))
    assert _frame_extent(zeros) <= guess


def test_cutoff_prediction_below_a_zero_hugging_the_frame_bottom():
    # the prediction is not a bound: channel 14's zeros lie 0.21 above the
    # frame bottom, where |T_14| peaks at 1.18 between the scanned points
    # (0.88 at most there), so the guess is 13 and the pass adds channel 17
    # alone to see three empty channels above 14
    assert rs.ell_cutoff(rs.RadialStepPotential(1.0, -100.0), 8.0) == 13
    zeros = rs._solve_channels(rs.RadialStepPotential(1.0, -100.0), 8.0, 1)
    assert _frame_extent(zeros) == 14 and len(zeros) == 18


def test_rouche_term_is_one_at_the_resonances(small_set):
    # g_ell = C_ell (-i + T_ell) vanishes where T_ell = i
    for pot, rset in [(WELL, small_set),
                      (rs.RadialStepPotential(1.0, complex(-12.0, 3.0)), None)]:
        rset = rset or rs.find_resonances(pot, 6.0)
        ells = np.array([r.ell for r in rset.resonances])
        lams = np.array([r.lam for r in rset.resonances])
        assert ells.size > 20
        term = rs._rouche_term(ells, pot, rs.channel_matcher_log(ells, pot)(lams))
        assert np.all(np.abs(term - 1.0) < 1e-8)


@pytest.mark.parametrize("R", [6.0, 40.0])
def test_rouche_term_vanishes_at_the_free_corners(R):
    # the free well's matcher is exactly -i C_ell, so T_ell is rounding only
    free = rs.RadialStepPotential(1.0, 0.0)
    corners = np.array(rs._channel_box(free, R)[0].corners())
    ells = np.arange(int(1.5 * R) + 10).repeat(4)
    log_g = rs.channel_matcher_log(ells, free)(np.tile(corners, ells.size // 4))
    assert rs._rouche_term(ells, free, log_g).max() <= 1e-10


def _matcher_of_rouche_term(term):
    # a stand-in matcher whose g_ell / C_ell is term(ell) at every point (a = 1)
    def matcher(ell, pot, kind=1):
        return lambda lam: special._log_odd_double_factorials(ell) + term(ell)
    return matcher


def test_cutoff_scan_raises_on_a_non_finite_corner(monkeypatch):
    monkeypatch.setattr(rs, "channel_matcher_log", _matcher_of_rouche_term(
        lambda ell: np.where(ell >= 5, np.nan, 0.0)))
    with pytest.raises(NumericalError, match=r"^channel 5: matcher not finite at lambda") as info:
        rs.ell_cutoff(WELL, 6.0)
    assert info.value.key == 5


def test_cutoff_scan_stops_at_its_cap(monkeypatch):
    # |T_ell| = |3 + i| > 1 at every corner of every channel: the scan ends
    # at the cap, here the former guess ceil(1.5 R a + 2 sqrt|v0| a) + 10 =
    # 28, and returns it; past channel 2000 (sqrt|v0| = 1000) it raises
    monkeypatch.setattr(rs, "channel_matcher_log", _matcher_of_rouche_term(
        lambda ell: np.log(3.0 - 1j) + np.zeros(np.shape(ell))))
    assert rs.ell_cutoff(WELL, 6.0) == 28
    with pytest.raises(NumericalError, match=r"^channel 2000: \|T_ell\| still reaches 1 at "
                       r"the cutoff scan's last channel, 2000") as info:
        rs.ell_cutoff(rs.RadialStepPotential(1.0, -1e6), 6.0)
    assert info.value.key == 2000


@pytest.mark.parametrize("v0, R, guess, last", [
    (-1e-12, 0.1, -1, 8), (-1e-12, 1.0, -1, 9), (-0.1, 0.1, -1, 8), (-0.1, 1.0, -1, 9),
    (-20.0, 0.1, 1, 16), (-20.0, 1.0, 2, 17), (20.0, 0.1, 6, 16), (20.0, 1.0, 6, 17),
    (400.0, 0.1, 51, 51), (400.0, 1.0, 52, 52)])
def test_cutoff_scan_order_limit_at_small_radii(monkeypatch, v0, R, guess, last):
    # the highest order the scan evaluates: at R = 0.1 the weak well's is 8,
    # far below order 62, where the matcher overflows at the half box's
    # top-left corner; the v0 = +400 barrier, whose |T_ell| reaches 1 up to
    # channel 143, stops at its cap (51 and 52, the former guesses; the
    # solve's ell_max is 0 and 1)
    orders = []
    real = rs.channel_matcher_log

    def recorded(ell, pot, kind=1):
        orders.extend(np.atleast_1d(ell).tolist())
        return real(ell, pot, kind)

    monkeypatch.setattr(rs, "channel_matcher_log", recorded)
    assert rs.ell_cutoff(rs.RadialStepPotential(1.0, v0), R) == guess
    assert max(orders) == last


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


@pytest.mark.parametrize("R", [6.0, 8.0])
def test_real_well_matches_the_full_frame_of_a_nearby_complex_well(R):
    # the real well solves half its frame and mirrors it; v0 = -20 + 1e-13i
    # takes the complex wells' full frame, so it checks the mirror from
    # outside: the same channels, and every zero paired within zero_tol
    real = rs.find_resonances(WELL, R)
    near = rs.find_resonances(rs.RadialStepPotential(1.0, complex(-20.0, 1e-13)), R)
    assert real.ell_max == near.ell_max
    assert Counter(r.ell for r in real.resonances) == Counter(r.ell for r in near.resonances)
    tol = real.tolerances["zero_tol"]
    unpaired = list(near.resonances)
    for r in real.resonances:
        i = min(range(len(unpaired)),
                key=lambda k: (unpaired[k].ell != r.ell, abs(unpaired[k].lam - r.lam)))
        partner = unpaired.pop(i)
        assert partner.ell == r.ell and abs(partner.lam - r.lam) <= tol, (r.ell, r.lam)


@pytest.fixture(scope="module")
def reference_sets():
    return {R: rs.find_resonances(WELL, R) for R in (25.0, 30.0, 40.0)}


def test_mirror_sectors_of_a_real_well_count_alike(reference_sets):
    rset = reference_sets[40.0]
    for r in (25.0, 40.0):
        left = count_sector(rset, SectorQuery(r, 1.25 * math.pi, 1.5 * math.pi))
        right = count_sector(rset, SectorQuery(r, 1.5 * math.pi, 1.75 * math.pi))
        assert left == right > 0, r


def test_axis_sector_count_does_not_depend_on_the_search_radius(reference_sets):
    # the closed sector (pi, 1.5 pi) takes every axis zero once, whichever
    # set it is read from
    counts = {R: count_sector(rset, SectorQuery(25.0, math.pi, 1.5 * math.pi))
              for R, rset in reference_sets.items()}
    assert len(set(counts.values())) == 1, counts


def test_axis_zeros_of_a_real_well_lie_on_the_axis(reference_sets):
    for R, rset in reference_sets.items():
        tol = rset.tolerances["zero_tol"]
        axis = [r.lam for r in rset.resonances if abs(r.lam.real) <= tol]
        assert axis and all(lam.real == 0.0 for lam in axis), R


def test_channel_condition_takes_one_order_per_point():
    # an order array gives each point, bit for bit, the value of an int
    # call with its order, in any shape; an overflow names the channel of
    # the first point that overflows
    lams = np.array([2.0 - 1.0j, -3.5 - 0.2j, 0.5 - 4.0j, 7.0 - 0.01j, -1e-3 - 2.0j])
    ells = np.array([0, 3, 7, 12])
    by_int = np.concatenate([rs.channel_condition(int(ell), WELL, lams) for ell in ells])
    by_array = rs.channel_condition(ells.repeat(lams.size), WELL, np.tile(lams, ells.size))
    assert _same_bits(by_array, by_int)
    grid = rs.channel_condition(ells.repeat(lams.size).reshape(4, -1), WELL,
                                np.tile(lams, ells.size).reshape(4, -1))
    assert grid.shape == (4, lams.size) and _same_bits(grid.ravel(), by_int)
    from resonance_atlas.errors import EvaluationOverflowError
    with pytest.raises(EvaluationOverflowError, match=r"in channel 5$") as info:
        rs.channel_condition(np.array([2, 5, 0]), WELL, np.array([1.0 - 1.0j, -800j, -800j]))
    assert info.value.key == 5


def _mpmath_log_g(mp, ell, pot, lam):
    """log g_ell(lambda) from its definition at 50 digits, or at k = 0 from
    its limit (lambda a)^(ell+1) a^(ell-1) (ell h_ell - lambda a h_ell')."""
    with mp.workdps(50):
        z = mp.mpc(lam) * pot.a
        k = mp.sqrt(mp.mpc(lam) ** 2 - mp.mpc(pot.v0))

        def sph(fn, n, x):
            return mp.sqrt(mp.pi / (2 * x)) * fn(n + mp.mpf(1) / 2, x)

        hl = sph(mp.hankel1, ell, z)
        hp = sph(mp.hankel1, ell - 1, z) - (ell + 1) / z * hl
        if k == 0:
            return complex(mp.log(z ** (ell + 1) * mp.mpf(pot.a) ** (ell - 1)
                                  * (ell * hl - z * hp)))
        jl, jm1 = sph(mp.besselj, ell, k * pot.a), sph(mp.besselj, ell - 1, k * pot.a)
        w = k * (jm1 - (ell + 1) / (k * pot.a) * jl) * hl - mp.mpc(lam) * jl * hp
        return complex(mp.log(mp.fac2(2 * ell + 1) * z ** (ell + 1) * w / k ** ell))


def _log_close(got, ref, tol):
    diff = got - ref
    return abs(complex(diff.real, (diff.imag + math.pi) % (2 * math.pi) - math.pi)) < tol


@pytest.mark.parametrize("a", [0.5, 2.0])
@pytest.mark.parametrize("ell", [0, 1, 5])
def test_small_k_branch_is_continuous_at_its_edge(a, ell):
    # the matcher takes the S_ell series where |k| a < 0.5 and the direct
    # Wronskian outside; just inside and just outside that circle both
    # match the definition, so the series carries the right power of a
    mp = pytest.importorskip("mpmath")
    pot = rs.RadialStepPotential(a, -20.0)
    for side in (1.0 - 1e-9, 1.0 + 1e-9):
        k = 0.5 / a * side * np.exp(1j * np.array([0.3, 1.9, 3.5, 5.1]))
        lams = -np.sqrt(k * k + pot.v0)
        assert np.all((np.abs(np.sqrt(lams * lams - pot.v0)) * a < 0.5) == (side < 1.0))
        for lam, got in zip(lams, rs.channel_matcher_log(ell, pot)(lams)):
            assert _log_close(got, _mpmath_log_g(mp, ell, pot, lam), 1e-10), (side, lam)


@pytest.mark.parametrize("a, v0", [(1.0, -4.0), (2.0, -1.0)])
def test_small_k_branch_matches_mpmath(a, v0):
    # the branch's backward ratio recurrence in u = k^2 a^2, anchored at
    # j_0: at k = 0 exactly (lambda = +-sqrt(-v0) i) and at |k| a = 1e-8,
    # 0.3 and 0.49 it matches 50-digit mpmath, and a point's value in one
    # call of mixed orders is that of its one-point call, bit for bit
    mp = pytest.importorskip("mpmath")
    pot = rs.RadialStepPotential(a, v0)
    root = 1j * math.sqrt(-v0)
    k = np.array([r / a * cmath.exp(1j * phi) for r in (1e-8, 0.3, 0.49)
                  for phi in (0.4, 2.0, 3.7, 5.5)])
    lams = np.concatenate([[root, -root], -np.sqrt(k * k + v0)])
    assert np.count_nonzero(lams * lams - v0 == 0) == 2
    assert np.all(np.abs(np.sqrt(lams * lams - v0)) * a < 0.5)
    ells, lams = np.repeat([0, 1, 10, 30], lams.size), np.tile(lams, 4)
    got = rs.channel_matcher_log(ells, pot)(lams)
    for ell, lam, value in zip(ells, lams, got):
        ref = _mpmath_log_g(mp, int(ell), pot, lam)
        assert _log_close(value, ref, 1e-14 * max(1.0, abs(ref))), (ell, lam)
    alone = np.concatenate([rs.channel_matcher_log(ells[i:i + 1], pot)(lams[i:i + 1])
                            for i in range(lams.size)])
    assert _same_bits(got, alone)


def test_matcher_is_finite_near_the_origin():
    # a scaled Hankel pair that is finite but near overflow (|h_62| = 8.5e303
    # at the point below) is divided by its larger modulus, so h_ell' and
    # the matcher stay finite at high order and small |lambda a|
    mp = pytest.importorskip("mpmath")
    weak = rs.RadialStepPotential(1.0, -1e-12)
    lam = -0.000647 - 1e-6j
    got = rs.channel_matcher_log(62, weak)(np.array([lam]))[0]
    assert _log_close(got, _mpmath_log_g(mp, 62, weak, lam), 1e-12)
    rays = np.exp(1j * np.array([-math.pi + 0.0015, -0.75 * math.pi, -0.5 * math.pi,
                                 -0.25 * math.pi, -0.0015]))
    lams = (np.logspace(-5.0, 0.0, 30)[:, None] * rays).ravel()
    orders = np.arange(200)
    for pot in (weak, WELL):
        log_g = rs.channel_matcher_log(orders.repeat(lams.size), pot)(np.tile(lams, orders.size))
        assert np.all(np.isfinite(log_g)), pot.v0


def _mpmath_log_g_at(mp, dps, ell, pot, lam):
    """_mpmath_log_g at dps digits."""
    with mp.workdps(dps):
        z, k = mp.mpc(lam) * pot.a, mp.sqrt(mp.mpc(lam) ** 2 - mp.mpc(pot.v0))

        def sph(fn, n, x):
            return mp.sqrt(mp.pi / (2 * x)) * fn(n + mp.mpf(1) / 2, x)

        hl = sph(mp.hankel1, ell, z)
        hp = sph(mp.hankel1, ell - 1, z) - (ell + 1) / z * hl
        jl, jm1 = sph(mp.besselj, ell, k * pot.a), sph(mp.besselj, ell - 1, k * pot.a)
        w = k * (jm1 - (ell + 1) / (k * pot.a) * jl) * hl - mp.mpc(lam) * jl * hp
        return complex(mp.log(mp.fac2(2 * ell + 1) * z ** (ell + 1) * w / k ** ell))


@pytest.mark.parametrize("R", [8.0, 40.0])
def test_matcher_matches_mpmath_where_raw_products_near_double_range(R):
    # the direct path forms W from the raw scaled AMOS members; at orders
    # 100 to 150 and |lambda| <= 1 the Hankel members reach 1e295 or
    # overflow, and where a member or a term leaves double range the point
    # takes the normal form and the fallbacks.  On the frame's top edge
    # both match mpmath at 50 and at 80 digits, which agree
    mp = pytest.importorskip("mpmath")
    box = rs._channel_box(WELL, R)[0]
    top = box.upper_right.imag
    lams = [complex(x, top) for x in (box.lower_left.real, 0.1, 0.4, 0.7, 0.95)]
    ells = np.array([100, 125, 140, 150])
    got = rs.channel_matcher_log(ells.repeat(len(lams)), WELL)(np.tile(lams, ells.size))
    for ell, lam, value in zip(ells.repeat(len(lams)), np.tile(lams, ells.size), got):
        ref = _mpmath_log_g_at(mp, 50, int(ell), WELL, lam)
        assert _log_close(ref, _mpmath_log_g_at(mp, 80, int(ell), WELL, lam), 1e-30 * abs(ref))
        assert _log_close(value, ref, 1e-13 * abs(ref)), (ell, lam)


def test_matcher_takes_lambda_of_any_shape():
    # a scalar lambda and 2-D arrays give the values of the flat call, bit
    # for bit, with an int order and with an order array of lambda's shape,
    # for both kinds; lambda = 0 raises
    lams = np.array([3 - 1j, 4 - 2j, -5 - 3j, 0.5 - 1e-6j, 3 - 1j, 7 - 8j])
    orders = np.array([0, 3, 5, 3, 9, 40])
    for kind in (1, 2):
        for ell in (3, orders):
            flat = rs.channel_matcher_log(ell, WELL, kind)(lams)
            grid = rs.channel_matcher_log(np.reshape(ell, np.shape(ell)[:1] and (2, 3)), WELL,
                                          kind)(lams.reshape(2, 3))
            assert grid.shape == (2, 3) and _same_bits(grid.ravel(), flat)
        scalar = rs.channel_matcher_log(3, WELL, kind)(3 - 1j)
        assert np.shape(scalar) == () and _same_bits(np.reshape(scalar, 1),
                                                     rs.channel_matcher_log(3, WELL, kind)(lams[:1]))
        with pytest.raises(ValueError, match="require z != 0"):
            rs.channel_matcher_log(3, WELL, kind)(np.zeros((2, 2), dtype=complex))


@pytest.mark.parametrize("v0, R", [(-1000.0, 8.0), (-2000.0, 8.0), (-5000.0, 4.0),
                                   (-5000.0, 8.0), (-1e4, 2.0), (-1e4, 4.0), (-1e4, 8.0)])
def test_strong_wells_pass_the_scale_aware_residual_check(v0, R):
    # |W| grows with h_ell(lambda a): the true zeros of these wells have
    # |W| up to several units, so the residual bound is residual_tol times
    # max(1, S), S the expected size of |W|; the recorded residual is |W|
    pot = rs.RadialStepPotential(1.0, v0)
    rset = rs.find_resonances(pot, R)
    ells = np.array([r.ell for r in rset.resonances])
    lams = np.array([r.lam for r in rset.resonances])
    residuals = np.array([r.residual for r in rset.resonances])
    assert rset.resonances and np.array_equal(residuals, np.abs(rs.channel_condition(ells, pot, lams)))
    assert np.all(residuals < 1e-12 * np.fmax(1.0, rs._expected_w(ells, pot, lams)))


def test_residual_check_rejects_a_strong_well_zero_moved_by_1e_4(monkeypatch):
    # channel 26 of v0 = -1000 has a zero at -4.335i with |W| = 5.96 and
    # S = 1.07e16, the size of each product of W there; moved off by 1e-4,
    # it fails the bound 1e-6 S
    pot = rs.RadialStepPotential(1.0, -1000.0)
    zero = -4.33503709736j
    ell = np.array([26])
    assert 1e15 < rs._expected_w(ell, pot, np.array([zero]))[0] < 1e17
    real = rs.locate_zeros

    def moved(*args, **kwargs):
        found = real(*args, **kwargs)
        for key, zeros in zip(kwargs["keys"], found):
            if key == 26:
                i = min(range(len(zeros)), key=lambda k: abs(zeros[k][0] - zero))
                zeros[i] = (zeros[i][0] + 1e-4j, zeros[i][1])
        return found

    monkeypatch.setattr(rs, "locate_zeros", moved)
    with pytest.raises(NumericalError, match=r"^channel 26: residual .* at lambda = "
                       r"0-4\.334937\d*j is not below 1e-06 max\(1, S\) = 1\.07e\+10$"
                       ) as info:
        rs.find_resonances(pot, 8.0)
    assert info.value.key == 26


def test_solve_checks_every_residual_in_one_call(monkeypatch, small_set):
    calls = []
    real = rs.channel_condition
    monkeypatch.setattr(rs, "channel_condition",
                        lambda ell, *args: calls.append(np.unique(ell)) or real(ell, *args))
    rset = rs.find_resonances(WELL, 6.0)
    assert len(calls) == 1 and calls[0].tolist() == sorted({r.ell for r in rset.resonances})
    assert [r.residual for r in rset.resonances] == [r.residual for r in small_set.resonances]
