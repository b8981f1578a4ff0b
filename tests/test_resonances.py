import cmath
import math
import re

import numpy as np
import pytest

from scipy.special import spherical_jn, spherical_yn

from resonance_atlas import contour as ct
from resonance_atlas import resonances as rs
from resonance_atlas.errors import BoundaryConflictError, NumericalError

WELL = rs.RadialStepPotential(a=1.0, v0=-20.0)


@pytest.fixture(scope="module")
def small_set():
    return rs.find_resonances(WELL, 6.0)


def _count_frame_windings(monkeypatch):
    calls = []
    real = ct._winding_with_perturbation

    def counted(*args, **kwargs):
        calls.append(args[1])
        return real(*args, **kwargs)

    monkeypatch.setattr(ct, "_winding_with_perturbation", counted)
    monkeypatch.setattr(rs, "_winding_with_perturbation", counted)
    return calls


def test_potential_validation():
    with pytest.raises(ValueError):
        rs.RadialStepPotential(a=-1.0, v0=-5.0)


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
        assert rs._channel_zeros(ell, free, R) == [], ell


def test_free_well_solves_at_r40(monkeypatch):
    # channels 0..73 (the cutoff guess 70 plus three) are each wound once
    calls = _count_frame_windings(monkeypatch)
    out = rs.find_resonances(rs.RadialStepPotential(a=1.0, v0=0.0), 40.0)
    assert out.resonances == []
    assert out.ell_max == 0
    assert len(calls) == 74


@pytest.mark.parametrize("kind", [1, 2])
@pytest.mark.parametrize("v0", [0.0, -1e-12, -0.1])
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
            k = mp.sqrt(z * z - mp.mpf(v0))

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
        assert rs._channel_zeros(ell, WELL, 6.0) == []


def test_channel_zeros_rejects_surplus_inside_frame(monkeypatch):
    # a zero more than the frame winding must not pass silently, and the
    # locator's message must name the channel
    real = ct._zeros_inside

    def surplus(found, box, winding):
        return real(found + [(found[0][0] + 1e-3, 1)], box, winding)

    monkeypatch.setattr(ct, "_zeros_inside", surplus)
    with pytest.raises(NumericalError, match="^channel 0: located 5 zeros.*winding is 4"):
        rs._channel_zeros(0, WELL, 6.0)


def test_channel_zeros_winds_its_frame_once(monkeypatch):
    calls = _count_frame_windings(monkeypatch)
    assert len(rs._channel_zeros(0, WELL, 6.0)) == 4
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
        zeros = real(*args, **kwargs)
        if zeros:  # the channels above the cutoff are solved too, and empty
            i = min(range(len(zeros)), key=lambda k: abs(zeros[k][0]))
            zeros[i] = (zeros[i][0] + 1e-3, zeros[i][1])
        return zeros

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


def test_reference_well_past_r43_solves_or_names_the_false_zero():
    # scipy's scaled Hankel routine returns false zeros at the orders and
    # arguments this solve needs; that must surface as the typed error that
    # names them and their channel, never as a boundary conflict on a
    # channel frame, in one process or on a pool
    for threads in (1, 2):
        try:
            rset = rs.find_resonances(WELL, 44.0, threads=threads)
        except NumericalError as exc:
            assert not isinstance(exc, BoundaryConflictError)
            assert re.match(r"^channel \d+: scaled-Hankel false zero", str(exc)), str(exc)
        else:
            assert rset.resonances


def test_solve_winds_each_channel_frame_once(monkeypatch):
    # channels 0..31 (the cutoff guess 28 plus three) are each wound once
    calls = _count_frame_windings(monkeypatch)
    assert rs.find_resonances(WELL, 6.0).ell_max == 9
    assert len(calls) == 32


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
    # down to 0, then one channel at a time up to 28 + 53
    solved = []

    def one_zero(ell, pot, R):
        solved.append(ell)
        return [(-1j, 1)]

    monkeypatch.setattr(rs, "_channel_zeros", one_zero)
    with pytest.raises(NumericalError,
                       match="channels remain nonempty 50 orders past the cutoff guess 28"):
        rs.find_resonances(WELL, 6.0)
    assert solved == list(range(31, -1, -1)) + list(range(32, 82))


def test_conjugate_well_mirrors_the_resonances():
    # conj(V) has the resonances -conj(lambda) of V, channel by channel
    pot = rs.RadialStepPotential(1.0, complex(-16.0, 1.5))
    out = rs.find_resonances(pot, 4.0)
    conj = rs.find_resonances(rs.RadialStepPotential(1.0, pot.v0.conjugate()), 4.0)
    assert out.resonances and len(conj.resonances) == len(out.resonances)
    for mine, theirs in ((out, conj), (conj, out)):
        for r in mine.resonances:
            mirror = -r.lam.conjugate()
            assert min((abs(mirror - s.lam) for s in theirs.resonances
                        if s.ell == r.ell), default=math.inf) < 1e-8, (r.ell, r.lam)
