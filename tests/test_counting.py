import math

import numpy as np
import pytest

from resonance_atlas import counting as ct
from resonance_atlas import density as dn
from resonance_atlas.resonances import RadialStepPotential, Resonance, ResonanceSet

PI = math.pi
# the one message of every rejected count or query radius
RADIUS_GUARD = r"count radius .* must be positive, finite and within the search radius"


def make_set(entries, radius=10.0, a=1.0, v0=-5.0):
    """Handcrafted resonance set: entries are (lam, ell)."""
    return ResonanceSet(
        potential=RadialStepPotential(a=a, v0=v0),
        search_radius=radius,
        resonances=[Resonance(lam, ell, 0.0) for lam, ell in entries],
    )


def test_count_norm_basics():
    empty = make_set([])
    assert ct.count_norm(empty, 5.0) == 0
    hand = make_set([(-0.5 - 1j, 0), (2 - 1j, 1)])
    # |−0.5−i| ≈ 1.118 <= 2 counts once; |2−i| ≈ 2.236 > 2 does not
    assert ct.count_norm(hand, 2.0) == 1
    assert ct.count_norm(hand, 3.0) == 4  # 1 + 3


def test_count_norm_monotone():
    hand = make_set([(-0.5 - 1j, 0), (2 - 1j, 1), (-3 - 3j, 2)])
    grid = np.linspace(0.5, 10.0, 41)
    counts = [ct.count_norm(hand, float(r)) for r in grid]
    assert all(b >= a for a, b in zip(counts, counts[1:]))


def test_count_norm_never_extrapolates():
    hand = make_set([(-0.5 - 1j, 0)], radius=5.0)
    with pytest.raises(ValueError):
        ct.count_norm(hand, 6.0)


@pytest.mark.parametrize("r", [math.nan, math.inf, 0.0, -1.0, 6.0])
def test_counts_share_one_radius_guard(r):
    hand = make_set([(-0.5 - 1j, 0)], radius=5.0)
    for count in (ct.count_norm, ct.integrated_count):
        with pytest.raises(ValueError, match=RADIUS_GUARD):
            count(hand, r)
    with pytest.raises(ValueError, match=RADIUS_GUARD):
        ct.count_sector(hand, ct.SectorQuery(r, PI, 2 * PI))


@pytest.mark.parametrize("r", [math.nan, math.inf, 0.0, -1.0])
def test_sector_query_rejects_radius_that_is_not_positive_and_finite(r):
    with pytest.raises(ValueError, match=RADIUS_GUARD):
        ct.SectorQuery(r, PI, 2 * PI)
    with pytest.raises(ValueError, match=RADIUS_GUARD):
        ct.predict_total(3, 1.0, r)


def test_count_sector_full_equals_norm():
    hand = make_set([(-0.5 - 1j, 0), (2 - 1j, 1), (1j * -3, 2)])
    q = ct.SectorQuery(5.0, PI, 2 * PI)
    assert ct.count_sector(hand, q) == ct.count_norm(hand, 5.0)


def test_count_sector_partition():
    hand = make_set([(-0.5 - 1j, 0), (2 - 1j, 1), (-1 - 2j, 2)])
    left = ct.count_sector(hand, ct.SectorQuery(5.0, PI, 1.5 * PI))
    right = ct.count_sector(hand, ct.SectorQuery(5.0, 1.5 * PI, 2 * PI))
    # no resonance sits exactly on arg = 3*pi/2, so the closed sectors split
    assert left + right == ct.count_norm(hand, 5.0)


def test_count_sector_boundary_inclusive():
    lam = -1 - 1j
    hand = make_set([(lam, 0)])
    from resonance_atlas.resonances import arg_lower
    phi = arg_lower(lam)
    q = ct.SectorQuery(5.0, phi, phi)
    assert ct.count_sector(hand, q) == 1


def test_sector_query_validation():
    with pytest.raises(ValueError):
        ct.SectorQuery(1.0, 0.5, 1.0)  # upper-half angles
    with pytest.raises(ValueError):
        ct.SectorQuery(-1.0, PI, 2 * PI)


def test_integrated_count_single():
    r = 2.0
    lam = complex(0, -r / math.e)
    hand = make_set([(lam, 0)])
    assert ct.integrated_count(hand, r) == pytest.approx(1.0, abs=1e-12)
    assert ct.integrated_count(make_set([]), 3.0) == 0.0


def test_integrated_count_matches_quadrature():
    rng = np.random.default_rng(8)
    entries = []
    while len(entries) < 12:
        z = complex(rng.uniform(-8, 8), rng.uniform(-8, -0.2))
        if 0.3 < abs(z) < 9:
            entries.append((z, int(rng.integers(0, 3))))
    hand = make_set(entries)
    r = 9.0
    direct = ct.integrated_count(hand, r)
    ts = np.linspace(1e-4, r, 200001)
    counts = np.array([0.0] * len(ts))
    for lam, ell in entries:
        counts += np.where(np.abs(lam) <= ts, 2 * ell + 1, 0)
    quadrature = np.trapezoid(counts / ts, ts)
    assert abs(direct - quadrature) < 1e-3 * max(1.0, abs(direct))


def test_predict_total_scaling():
    c3 = dn.weyl_constant(3)
    assert ct.predict_total(3, 1.0, 10.0) == pytest.approx(c3 * 1000.0)
    assert ct.predict_total(3, 2.0, 10.0) == pytest.approx(c3 * 8000.0)


def test_predict_sector_additivity():
    r = 10.0
    theta = PI + 0.8
    full = ct.predict_sector(3, 1.0, ct.SectorQuery(r, PI, 2 * PI))
    left = ct.predict_sector(3, 1.0, ct.SectorQuery(r, PI, theta))
    right = ct.predict_sector(3, 1.0, ct.SectorQuery(r, theta, 2 * PI))
    assert abs(left + right - full) < 1e-8 * full
    assert full == pytest.approx(ct.predict_total(3, 1.0, r))


def test_predict_sector_interior_telescoping():
    r = 10.0
    a_, b_, c_ = PI + 0.4, PI + 1.1, PI + 2.0
    left = ct.predict_sector(3, 1.0, ct.SectorQuery(r, a_, b_))
    right = ct.predict_sector(3, 1.0, ct.SectorQuery(r, b_, c_))
    both = ct.predict_sector(3, 1.0, ct.SectorQuery(r, a_, c_))
    assert abs(left + right - both) < 1e-8 * both


def test_mirror_sectors_share_one_near_axis_coefficient(monkeypatch):
    # (pi, 5pi/4) and (7pi/4, 2pi) read the near-axis coefficient at the
    # same theta, bit for bit: the second runs no quadrature, and both give
    # the values of a cleared cache.  The asymptotics workload's mirror
    # angles pi/8 differ by one ulp and stay two entries
    monkeypatch.setattr(dn, "_cd_cache", {})
    calls = []
    real = dn._integrate
    monkeypatch.setattr(dn, "_integrate", lambda *args: calls.append(args[3]) or real(*args))
    queries = [ct.SectorQuery(8.0, PI, PI + PI / 4), ct.SectorQuery(8.0, PI + 3 * PI / 4, 2 * PI)]
    left = ct.predict_sector(3, 1.0, queries[0])
    quadratures = len(calls)
    right = ct.predict_sector(3, 1.0, queries[1])
    assert quadratures > 0 and len(calls) == quadratures
    for q, value in zip(queries, (left, right)):
        dn._cd_cache.clear()
        assert ct.predict_sector(3, 1.0, q) == value
    dn._cd_cache.clear()
    for lo, hi in ((PI, PI + PI / 8), (PI + 7 * PI / 8, 2 * PI)):
        ct.predict_sector(3, 1.0, ct.SectorQuery(40.0, lo, hi))
    assert sum(key[0] == "near_axis_coefficient" for key in dn._cd_cache) == 2


def test_predict_sector_positive_touching_axis():
    for q in (ct.SectorQuery(5.0, PI, PI + 0.05),
              ct.SectorQuery(5.0, 2 * PI - 0.05, 2 * PI)):
        assert ct.predict_sector(3, 1.0, q) > 0


def test_predict_degenerate_sector_is_zero():
    assert ct.predict_sector(3, 1.0, ct.SectorQuery(5.0, PI + 1.0, PI + 1.0)) == 0.0


def test_fit_power_law_recovers_cubic():
    rs_ = np.linspace(5, 40, 8)
    vals = 1.9 * rs_ ** 3
    fit = ct.fit_power_law(rs_, vals)
    assert fit is not None
    assert fit[0] == pytest.approx(3.0, abs=1e-12)
    assert fit[1] == pytest.approx(1.9, rel=1e-12)


def test_compare_counts_free_flags():
    empty = make_set([], radius=40.0, v0=0.0)
    reports = ct.compare_counts(empty, [ct.SectorQuery(40.0, PI, 2 * PI)],
                                [10.0, 20.0, 30.0, 40.0])
    assert reports[0].empirical == 0
    assert "no resonances" in reports[0].flags


def test_compare_counts_serialization(tmp_path):
    hand = make_set([(-0.5 - 1j, 0), (2 - 2j, 1)], radius=40.0)
    reports = ct.compare_counts(hand, [ct.SectorQuery(40.0, PI, 2 * PI)],
                                [10.0, 20.0, 40.0])
    jpath = tmp_path / "reports.json"
    ct.reports_to_json(reports, jpath)
    import json
    doc = json.loads(jpath.read_text())
    assert doc[0]["query"]["r"] == 40.0
    assert "empirical" in doc[0] and "ratio" in doc[0]
    cpath = tmp_path / "reports.csv"
    ct.reports_to_csv(reports, cpath)
    assert cpath.read_text().splitlines()[0].startswith("r,phi,theta,empirical")


# --- family machinery (handcrafted sets; no solving) ------------------------

def _stub_family():
    base = RadialStepPotential(a=1.0, v0=-20.0)
    other = RadialStepPotential(a=1.0, v0=-12.0 + 3j)
    exp = ct.FamilyExperiment.on_bump_grid(base, other, r=5.0, n=3,
                                           bump_radius=0.5)
    hand = make_set([(-1 - 1j, 0), (2 - 1j, 1)], radius=5.0)
    for i in exp.active_indices():
        exp.sets[i] = hand
    return exp, hand


def test_family_constant_average():
    exp, hand = _stub_family()
    q = ct.SectorQuery(5.0, PI, 1.5 * PI)
    mass = float(np.dot(exp.weights, exp.psi))
    expected = ct.count_sector(hand, q) * mass
    assert ct.family_average(exp, q) == pytest.approx(expected, rel=1e-14)


def test_family_average_linear_in_weight():
    exp, _ = _stub_family()
    q = ct.SectorQuery(5.0, PI, 2 * PI)
    base_avg = ct.family_average(exp, q)
    exp2 = ct.FamilyExperiment(base=exp.base, other=exp.other, zs=exp.zs,
                               weights=exp.weights, psi=2.0 * exp.psi, r=exp.r,
                               sets=exp.sets)
    assert ct.family_average(exp2, q) == pytest.approx(2.0 * base_avg, rel=1e-14)


def test_family_requires_solved_members():
    base = RadialStepPotential(a=1.0, v0=-20.0)
    other = RadialStepPotential(a=1.0, v0=-12.0 + 3j)
    exp = ct.FamilyExperiment.on_bump_grid(base, other, r=5.0, n=3)
    with pytest.raises(ValueError):
        ct.family_average(exp, ct.SectorQuery(5.0, PI, 2 * PI))


def test_family_grid_geometry():
    base = RadialStepPotential(a=1.0, v0=-20.0)
    other = RadialStepPotential(a=1.0, v0=-12.0 + 3j)
    exp = ct.FamilyExperiment.on_bump_grid(base, other, r=5.0, n=5,
                                           bump_radius=0.5)
    assert exp.zs.size == 25
    # the four corner nodes fall outside the bump support
    assert len(exp.active_indices()) == 21
    assert np.all(exp.psi >= 0)
    # midpoint weights sum to the square's area
    assert float(np.sum(exp.weights)) == pytest.approx(1.0)


def test_family_potential_interpolation():
    base = RadialStepPotential(a=1.0, v0=-20.0)
    other = RadialStepPotential(a=1.0, v0=-12.0 + 3j)
    exp = ct.FamilyExperiment.on_bump_grid(base, other, r=5.0, n=3)
    assert exp.potential_at(0.0).v0 == base.v0
    assert exp.potential_at(1.0).v0 == other.v0
    z = 0.25 + 0.1j
    assert exp.potential_at(z).v0 == pytest.approx(z * other.v0 + (1 - z) * base.v0)


def test_family_radius_mismatch_rejected():
    with pytest.raises(ValueError):
        ct.FamilyExperiment.on_bump_grid(
            RadialStepPotential(a=1.0, v0=-20.0),
            RadialStepPotential(a=2.0, v0=-12.0), r=5.0)


@pytest.mark.parametrize("kwargs, named", [
    ({"n": 0}, "grid size n"), ({"bump_radius": math.nan}, "bump_radius"),
    ({"bump_radius": math.inf}, "bump_radius"), ({"bump_radius": 0.0}, "bump_radius"),
    ({"bump_radius": -0.5, "n": 3}, "bump_radius")])
def test_family_rejects_a_bad_bump_grid(kwargs, named):
    with pytest.raises(ValueError, match=named):
        ct.FamilyExperiment.on_bump_grid(
            RadialStepPotential(a=1.0, v0=-20.0),
            RadialStepPotential(a=1.0, v0=-12.0), r=5.0, **kwargs)


def test_family_rejects_nan_psi_mass():
    exp = ct.FamilyExperiment.on_bump_grid(
        RadialStepPotential(a=1.0, v0=-20.0), RadialStepPotential(a=1.0, v0=-12.0),
        r=5.0, n=3)
    with pytest.raises(ValueError, match="positive total mass"):
        ct.FamilyExperiment(base=exp.base, other=exp.other, zs=exp.zs,
                            weights=exp.weights, psi=np.full(exp.zs.size, math.nan),
                            r=exp.r)


def test_family_prediction_uses_psi_mass():
    exp, _ = _stub_family()
    q = ct.SectorQuery(5.0, PI, 2 * PI)
    mass = float(np.dot(exp.weights, exp.psi))
    assert ct.family_prediction(exp, q) == pytest.approx(
        ct.predict_sector(3, 1.0, q) * mass, rel=1e-12)
