import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad

from resonance_atlas import density as dn
from resonance_atlas.density import QuadratureSpec
from resonance_atlas.special import bessel_phase

# frozen after first computation; guards against silent regressions
C3_GOLDEN = 1.889806225643697


def test_endpoints_are_exactly_zero():
    assert dn.angular_density(3, 0.0) == 0.0
    assert dn.angular_density(3, math.pi) == 0.0


def test_symmetry_about_midpoint():
    for x in [0.1, 0.3, 0.7, 1.2]:
        a = dn.angular_density(3, math.pi / 2 + x)
        b = dn.angular_density(3, math.pi / 2 - x)
        assert abs(a - b) < 1e-8


def test_quadrature_matches_closed_form():
    worst = 0.0
    for th in np.linspace(0.05, math.pi - 0.05, 50):
        diff = abs(dn.angular_density(3, float(th))
                   - dn.angular_density_d3_closed(float(th)))
        worst = max(worst, diff)
    assert worst <= 1e-6


def test_closed_form_endpoint_limits():
    # the density vanishes linearly with slope 4/3, so 2e-3 at theta = 1e-3
    assert abs(dn.angular_density_d3_closed(1e-3)) < 2e-3
    assert abs(dn.angular_density_d3_closed(math.pi - 1e-3)) < 2e-3
    for x in [0.2, 0.9]:
        assert abs(dn.angular_density_d3_closed(math.pi / 2 + x)
                   - dn.angular_density_d3_closed(math.pi / 2 - x)) < 1e-10


def test_dimension_validation():
    for bad in [2, 4, 1]:
        with pytest.raises(ValueError):
            dn.angular_density(bad, 1.0)


def test_derivative_vanishes_at_midpoint():
    assert abs(dn.angular_density_deriv(3, math.pi / 2)) < 1e-8


def test_derivative_matches_finite_difference():
    step = 1e-4
    for theta in [0.3, 1.0, 1.9, 2.7]:
        fd = (dn.angular_density(3, theta + step)
              - dn.angular_density(3, theta - step)) / (2 * step)
        assert abs(dn.angular_density_deriv(3, theta) - fd) < 1e-5


def test_derivative_near_axis_limit():
    assert abs(dn.angular_density_deriv(3, 1e-3)
               - dn.angular_density_deriv_at_zero(3)) < 1e-2


def test_derivative_at_zero_closed_forms():
    assert dn.angular_density_deriv_at_zero(3) == pytest.approx(4.0 / 3.0, abs=1e-14)
    assert dn.angular_density_deriv_at_zero(5) == pytest.approx(4.0 / 45.0, abs=1e-14)


def test_derivative_at_zero_is_the_correctly_rounded_gamma_ratio():
    mp = pytest.importorskip("mpmath")
    assert dn.angular_density_deriv_at_zero(3) == 4.0 / 3.0
    with mp.workdps(50):
        for d in range(3, 41, 2):
            exact = (mp.sqrt(mp.pi) * mp.gamma(mp.mpf(d - 1) / 2)
                     / (mp.factorial(d - 2) * mp.gamma(1 + mp.mpf(d) / 2)))
            assert dn.angular_density_deriv_at_zero(d) == float(exact), d


@pytest.mark.parametrize("d", [3, 5, 7])
def test_derivative_at_zero_integral_form(d):
    integral = quad(lambda t: math.sqrt(t * t - 1.0) * t ** (-(d + 1)),
                    1.0, np.inf, epsabs=1e-12, epsrel=1e-12)[0]
    assert abs(4.0 / math.factorial(d - 2) * integral
               - dn.angular_density_deriv_at_zero(d)) < 1e-8


def test_weyl_constant_positive_and_frozen():
    c3 = dn.weyl_constant(3)
    assert c3 > 0
    assert abs(c3 - C3_GOLDEN) < 1e-7


def test_weyl_constant_2d_agreement():
    assert abs(dn.weyl_constant(3) - dn.weyl_constant_2d(3)) < 1e-5


def test_weyl_constant_2d_converges_at_tight_tolerance():
    # dblquad once returned 1.90465 here, with 1,906 IntegrationWarnings
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        c2 = dn.weyl_constant_2d(3, 1e-8)
    assert abs(c2 - dn.weyl_constant(3)) < 1e-7


@pytest.mark.parametrize("d", [5, 7])
def test_weyl_constant_2d_agreement_higher_dimensions(d):
    assert abs(dn.weyl_constant(d) - dn.weyl_constant_2d(d)) < 1e-6


def test_weyl_constant_2d_reports_unconverged_quadrature(monkeypatch):
    from resonance_atlas.errors import QuadratureError
    monkeypatch.setattr(dn, "_QUAD_LIMIT", 1)
    with pytest.raises(QuadratureError, match="weyl_constant_2d"):
        dn.weyl_constant_2d(3)


def test_weyl_constant_2d_names_x_without_support_edge(monkeypatch):
    from resonance_atlas.errors import NumericalError
    monkeypatch.setattr(dn, "bessel_phase", lambda z: np.ones(np.shape(z), dtype=complex))
    with pytest.raises(NumericalError, match=r"weyl_constant_2d.*at x = 0\."):
        dn.weyl_constant_2d(3)


def _count_phase_points(monkeypatch):
    points = [0]

    def counted(z):
        points[0] += np.size(z)
        return bessel_phase(z)

    monkeypatch.setattr(dn, "bessel_phase", counted)
    return points


def test_weyl_constant_2d_phase_calls_bounded(monkeypatch):
    # counted work, independent of the machine: 168,870 phase points under
    # dblquad, 32,802 in the batched rule
    points = _count_phase_points(monkeypatch)
    dn.weyl_constant_2d(3)
    assert 0 < points[0] <= 50_000


def test_density_table_phase_points_bounded(monkeypatch):
    # 36,162 phase points: 26,103 for the 179 h rows in one batch (the h'
    # rows take no phase) and 10,059 for c_3, as many as scipy's quad took
    monkeypatch.setattr(dn, "_cd_cache", {})
    points = _count_phase_points(monkeypatch)
    dn.build_density_table(3, 181)
    assert 0 < points[0] <= 40_000


@pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
def test_weyl_constant_2d_rejects_bad_abs_tol(bad):
    with pytest.raises(ValueError, match="abs_tol"):
        dn.weyl_constant_2d(3, abs_tol=bad)


def test_import_loads_neither_scipy_integrate_nor_optimize():
    code = ("import sys, resonance_atlas; "
            "print(sorted(m for m in ('scipy.integrate', 'scipy.optimize') if m in sys.modules))")
    src = str(Path(dn.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"


def test_tail_bound_controls_truncation():
    # the part of the angular density's radial integral beyond T
    for theta in [0.4, 1.0, math.pi / 2]:
        e = complex(math.cos(theta), math.sin(theta))
        for T in [30.0, 50.0]:
            tail = 4.0 * quad(lambda t: max(-bessel_phase(t * e).real, 0.0) / t ** 4,
                              T, np.inf, epsabs=1e-14, epsrel=1e-10)[0]
            assert 0.0 < tail <= dn.angular_density_tail_bound(3, T)


def test_sector_density_telescoping():
    v = (dn.sector_density(3, 0.3, 0.9) + dn.sector_density(3, 0.9, 1.7)
         - dn.sector_density(3, 0.3, 1.7))
    assert abs(v) < 1e-8


def test_sector_density_nonnegative():
    for phi, theta in [(0.2, 0.5), (0.5, 1.2), (1.2, 2.2), (2.2, 2.9)]:
        assert dn.sector_density(3, phi, theta) >= -1e-8


def test_sector_density_total_limit():
    eps = 1e-3
    total = dn.sector_density(3, eps, math.pi - eps)
    target = 2 * math.pi * 3 * dn.weyl_constant(3) - 2 * dn.angular_density_deriv_at_zero(3)
    assert abs(total - target) < 1e-2


def test_sector_density_argument_order():
    with pytest.raises(ValueError):
        dn.sector_density(3, 1.0, 0.5)


def test_near_axis_coefficient_relations():
    s = dn.sector_density(3, 0.3, 0.9) / (2 * math.pi * 3)
    diff = dn.near_axis_coefficient(3, 0.9) - dn.near_axis_coefficient(3, 0.3)
    assert abs(diff - s) < 1e-8


def test_near_axis_coefficient_limit_positive():
    target = dn.angular_density_deriv_at_zero(3) / (2 * math.pi * 3)
    assert abs(dn.near_axis_coefficient(3, 1e-3) - target) < 1e-3
    assert target > 0


def test_near_axis_coefficient_at_midpoint():
    # h'(pi/2) = 0 and the half-integral is half the full one, so the
    # coefficient collapses to c_3/2 -- the golden value for this operation
    assert abs(dn.near_axis_coefficient(3, math.pi / 2)
               - dn.weyl_constant(3) / 2.0) < 1e-8


def test_quadrature_spec_validation():
    with pytest.raises(ValueError):
        QuadratureSpec(abs_tol=-1.0)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="abs_tol"):
            QuadratureSpec(abs_tol=bad)
        with pytest.raises(ValueError, match="rel_tol"):
            QuadratureSpec(rel_tol=bad)


def test_quadrature_failure_carries_estimate():
    from resonance_atlas.errors import QuadratureError
    starved = QuadratureSpec(abs_tol=1e-16, rel_tol=1e-16)
    with pytest.raises(QuadratureError) as err:
        dn.angular_density(3, 1.0, starved)
    assert err.value.estimate == pytest.approx(0.4266579, abs=1e-4)
    assert err.value.achieved_error is not None


def test_density_table_rows_equal_single_angle_calls_bit_for_bit():
    table = dn.build_density_table(3, 181)
    for i in range(1, 180):
        theta = float(table.thetas[i])
        assert table.h[i] == dn.angular_density(3, theta), i
        assert table.h_prime[i] == dn.angular_density_deriv(3, theta), i


def test_integrate_rows_do_not_depend_on_the_batch():
    def fn(x, rows):
        k = np.array([1.0, 7.0, 40.0])[rows, None]
        return np.sin(k * x) * np.exp(-x) + np.sqrt(x)

    a, b, tol = np.array([0.0, 0.5, 0.0]), np.array([1.0, 3.0, 2.0]), np.array([1e-12, 1e-9, 1e-11])
    batch = dn._integrate(fn, a, b, "batch", tol, 1e-12)
    for i in range(3):
        alone = dn._integrate(lambda x, rows: fn(x, np.full_like(rows, i)), a[i], b[i],
                              "alone", tol[i], 1e-12)
        assert isinstance(alone, float) and alone == batch[i], i
        reference = quad(lambda x: fn(np.array([[x]]), np.array([i]))[0, 0], a[i], b[i],
                         epsabs=1e-13, epsrel=1e-13, limit=200)[0]
        assert abs(batch[i] - reference) <= max(tol[i], 1e-12 * abs(reference))


def test_integrate_names_the_row_that_fails(monkeypatch):
    from resonance_atlas.errors import QuadratureError
    monkeypatch.setattr(dn, "_QUAD_LIMIT", 3)
    with pytest.raises(QuadratureError, match="row 1 of 2") as err:
        dn._integrate(lambda x, rows: np.where(rows[:, None] == 1, np.sqrt(x), 1.0),
                      0.0, 1.0, lambda i: f"row {i} of 2", np.array([1e-12, 1e-12]), 0.0)
    assert err.value.estimate == pytest.approx(2.0 / 3.0, abs=1e-3)
    assert 0.0 < err.value.achieved_error


def test_density_table_build_and_invariants(tmp_path):
    table = dn.build_density_table(3, 21)
    table.validate()
    assert table.h[0] == 0.0 and table.h[-1] == 0.0
    assert table.h_prime[0] == pytest.approx(4.0 / 3.0)
    assert np.all(table.h >= -1e-12)

    csv_path = tmp_path / "t.csv"
    table.to_csv(csv_path)
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "theta,h,h_prime"
    assert len(lines) == 22

    json_path = tmp_path / "t.json"
    table.to_json(json_path)
    back = dn.DensityTable.from_json(json_path)
    assert back.d == 3
    assert np.allclose(back.h, table.h, atol=0)
    assert back.c_d == table.c_d
    back.validate()


def test_density_table_json_keeps_two_tolerances(tmp_path):
    table = dn.build_density_table(3, 5, QuadratureSpec(1e-6, 1e-7))
    path = tmp_path / "t.json"
    table.to_json(path)
    doc = json.loads(path.read_text())
    assert doc["quad"] == {"abs_tol": 1e-6, "rel_tol": 1e-7}
    # a table written with the former four-key spec still loads
    doc["quad"].update(truncation_radius=None, max_subdivisions=200)
    path.write_text(json.dumps(doc))
    assert dn.DensityTable.from_json(path).quad == QuadratureSpec(1e-6, 1e-7)
