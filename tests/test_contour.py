import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from resonance_atlas import contour as ct
from resonance_atlas.errors import BoundaryConflictError, NumericalError


def test_box_validation():
    with pytest.raises(ValueError):
        ct.ContourBox(1 + 1j, 1 + 2j)  # zero width


def test_winding_double_zero():
    box = ct.ContourBox(0 - 2j, 2 + 0j)
    assert ct.winding_count(lambda z: (z - (1 - 1j)) ** 2, box) == 2
    assert box.winding == 2


def test_winding_nonvanishing():
    assert ct.winding_count(np.exp, ct.ContourBox(-3 - 3j, 3 + 3j)) == 0


def test_winding_random_polynomial_against_companion_oracle():
    rng = np.random.default_rng(11)
    coeffs = rng.normal(size=6) + 1j * rng.normal(size=6)
    roots = np.roots(coeffs)  # companion-matrix eigenvalues
    p = np.poly1d(coeffs)
    box = ct.ContourBox(
        complex(roots.real.min() - 0.5, roots.imag.min() - 0.5),
        complex(roots.real.max() + 0.5, roots.imag.max() + 0.5))
    assert ct.winding_count(lambda z: p(z), box) == 5


def test_winding_boundary_zero_conflict():
    box = ct.ContourBox(-1 - 1j, 1 + 1j)
    with pytest.raises(BoundaryConflictError):
        ct.winding_count(lambda z: z - 1.0, box)  # zero on the edge


def test_winding_additive_under_subdivision():
    want = [0.5 + 0.5j, -0.52 + 0.25j, 0.8 - 0.6j, -0.7 - 0.4j]
    q = np.poly1d(np.poly(want))
    box = ct.ContourBox(-1.13 - 1.07j, 1.05 + 1.02j)
    total = ct.winding_count(lambda z: q(z), box)
    parts = sum(ct.winding_count(lambda z: q(z), child)
                for child in box.quadrisect())
    assert total == parts == 4


def test_locate_double_zero():
    f = lambda z: (z - (1 - 1j)) ** 2
    got = ct.locate_zeros(f, ct.ContourBox(0 - 2j, 2 + 0j), tol=1e-9)
    assert len(got) == 1
    z, mult = got[0]
    assert mult == 2
    assert abs(z - (1 - 1j)) < 1e-9
    assert abs(f(z)) < 1e-8


def test_locate_constructed_roots():
    want = [0.5 + 0.5j, -0.52 + 0.25j, 0.8 - 0.6j, -0.7 - 0.4j]
    q = np.poly1d(np.poly(want))
    got = ct.locate_zeros(lambda z: q(z), ct.ContourBox(-1.2 - 1.2j, 1.2 + 1.2j),
                          tol=1e-10)
    assert len(got) == 4
    for z, mult in got:
        assert mult == 1
        assert min(abs(z - w) for w in want) < 1e-10


def test_locate_multiplicity_consistent_with_winding():
    f = lambda z: (z + 0.3 - 0.4j) ** 3 * (z - 0.5)
    box = ct.ContourBox(-1 - 1j, 1 + 1j)
    total = ct.winding_count(f, box)
    got = ct.locate_zeros(f, box, tol=1e-9)
    assert sum(m for _, m in got) == total == 4


def test_locate_rejects_poles():
    with pytest.raises(NumericalError):
        ct.locate_zeros(lambda z: 1.0 / (z - 0.2 + 0.1j),
                        ct.ContourBox(-1 - 1j, 1 + 1j), tol=1e-9)


@pytest.mark.parametrize("change, located", [
    (lambda zeros: zeros + [(zeros[0][0] + 1e-3, 1)], 5),
    (lambda zeros: zeros[1:], 3),
], ids=["surplus", "missing"])
def test_locate_requires_zeros_to_match_the_winding(monkeypatch, change, located):
    real = ct._dedup_zeros
    monkeypatch.setattr(ct, "_dedup_zeros", lambda found, tol: change(real(found, tol)))
    q = np.poly1d(np.poly([0.5 + 0.5j, -0.52 + 0.25j, 0.8 - 0.6j, -0.7 - 0.4j]))
    with pytest.raises(NumericalError,
                       match=rf"^located {located} zeros inside the box .* winding is 4$"):
        ct.locate_zeros(lambda z: q(z), ct.ContourBox(-1.2 - 1.2j, 1.2 + 1.2j), tol=1e-10)


def test_locate_keeps_only_zeros_inside_the_box_it_wound(monkeypatch):
    # a zero located outside the top box (a cluster centroid may land there)
    # is dropped rather than counted against the winding
    real = ct._dedup_zeros
    monkeypatch.setattr(ct, "_dedup_zeros",
                        lambda found, tol: real(found, tol) + [(1.5 + 0j, 1)])
    q = np.poly1d(np.poly([0.5 + 0.5j, -0.52 + 0.25j]))
    got = ct.locate_zeros(lambda z: q(z), ct.ContourBox(-1.2 - 1.2j, 1.2 + 1.2j), tol=1e-10)
    assert sorted(m for _, m in got) == [1, 1]
    assert all(abs(z) < 1 for z, _ in got)


def test_locate_free_channel_is_empty():
    from resonance_atlas.resonances import RadialStepPotential, channel_matcher_log
    eval_w = channel_matcher_log(2, RadialStepPotential(a=1.0, v0=0.0))
    got = ct.locate_zeros(eval_w, ct.ContourBox(-3 - 3j, 3 - 1e-6j), tol=1e-9,
                          log_form=True)
    assert got == []


def test_locate_with_zero_just_above_pinned_top_edge():
    # the ceiling pins the top edge, so no nudge can move it away from the
    # zero 5e-4 above it; the caller's guard_dist must reach the child boxes
    want = [-0.5 - 1.0j, 0.4 - 0.6j, 0.2 - 1.5j]
    q = np.poly1d(np.poly(want + [0.3 + 5e-4j]))
    got = ct.locate_zeros(lambda z: q(z), ct.ContourBox(-1.0 - 2.0j, 1.0 + 0.0j),
                          tol=1e-10, ceiling=0.0, guard_dist=1e-5)
    assert len(got) == 3
    for z, mult in got:
        assert mult == 1
        assert min(abs(z - w) for w in want) < 1e-10


def test_cut_edge_keeps_its_log_increment():
    f = ct._make_log_evaluator(lambda z: (z - 0.3 - 0.2j) * (z + 0.7 + 0.1j), False)
    edge, = ct._sampled_edges(f, [(-1 - 0.5j, 1 - 0.5j)], 0.1, 0.0, "edge")
    z = 0.123 - 0.5j
    first, second = edge.cut(z, f(np.array([z]))[0])
    assert first.zs[0] == edge.zs[0] and second.zs[-1] == edge.zs[-1]
    assert first.zs[-1] == second.zs[0] == z
    assert first.zs.size + second.zs.size == edge.zs.size + 2
    assert abs(first.increment() + second.increment() - edge.increment()) < 1e-12


def test_locate_with_zero_at_box_centre_jitters_the_cross(monkeypatch):
    # the first cross starts on the zero at 0, so the split point must move
    jitters = []
    quadrisect = ct.ContourBox.quadrisect

    def spy(self, jitter=0.0):
        jitters.append(jitter)
        return quadrisect(self, jitter)

    monkeypatch.setattr(ct.ContourBox, "quadrisect", spy)
    want = [0.0, 0.5 - 0.3j, -0.4 - 0.2j]
    q = np.poly1d(np.poly(want))
    got = ct.locate_zeros(lambda z: q(z), ct.ContourBox(-1 - 1j, 1 + 1j), tol=1e-10)
    assert jitters[:2] == [0.0, pytest.approx(2 * (math.sqrt(2) - 1) / 16)]
    assert len(got) == 3
    for z, mult in got:
        assert mult == 1
        assert min(abs(z - w) for w in want) < 1e-10


def test_split_rejects_children_that_do_not_sum_to_the_parent():
    f = ct._make_log_evaluator(lambda z: (z - 0.3 - 0.2j) * (z + 0.4 - 0.3j), False)
    box = ct.ContourBox(-1 - 1j, 1 + 1j)
    edges = ct._box_edges(f, box, ct._spacing(box, 32), 1e-3, "box")
    assert ct._winding(edges) == 2
    assert [w for _, w, _ in ct._split_box(f, box, 2, edges, 0.25)] == [0, 0, 1, 1]
    with pytest.raises(NumericalError, match="do not sum to 3"):
        ct._split_box(f, box, 3, edges, 0.25)


_BOX = ct.ContourBox(-1 - 1j, 1 + 1j)
_coord = st.floats(-0.8, 0.8)


@st.composite
def _roots_for_box(draw):
    """Roots in and near _BOX: scattered, clustered, close to an edge (but
    outside the top box's guard of 1e-3 times its diameter) and on the
    imaginary axis, which the first cross runs along."""
    roots = [complex(draw(_coord), draw(_coord))
             for _ in range(draw(st.integers(1, 2)))]
    if draw(st.booleans()):
        centre = complex(draw(_coord), draw(_coord))
        sep = draw(st.floats(3e-3, 1e-2))
        n = draw(st.integers(2, 3))
        roots += [centre + sep * cmath.exp(2j * math.pi * k / n) for k in range(n)]
    for _ in range(draw(st.integers(0, 2))):
        along, gap = draw(_coord), draw(st.floats(-3e-2, 3e-2))
        edge = draw(st.sampled_from([-1, 1]))
        offset = edge + math.copysign(max(abs(gap), 1e-2), gap)
        roots.append(complex(offset, along) if draw(st.booleans())
                     else complex(along, offset))
    roots += [complex(0.0, draw(_coord)) for _ in range(draw(st.integers(0, 2)))]
    return roots


@settings(max_examples=60)
@given(_roots_for_box())
def test_locate_matches_companion_roots(roots):
    if any(abs(a - b) < 1e-3 for i, a in enumerate(roots) for b in roots[:i]):
        return
    coeffs = np.poly(roots)
    want = [z for z in np.roots(coeffs) if _BOX.contains(z)]
    got = ct.locate_zeros(lambda z: np.polyval(coeffs, z), _BOX, tol=1e-8)
    assert sum(m for _, m in got) == len(want)
    for z, mult in got:
        assert mult == 1
        assert min(abs(z - w) for w in want) < 1e-7


def test_dedup_merges_duplicates_split_by_a_distant_zero():
    # 1e-13+5j sorts between the two duplicates by real part
    got = ct._dedup_zeros([(0j, 1), (2e-13 + 1e-13j, 1), (1e-13 + 5j, 1)], 1e-9)
    assert sorted(z.imag for z, _ in got) == [0.0, 5.0]


# --- Jensen-type identities -------------------------------------------------

def test_case_normalization_and_validation():
    tc = ct.JensenTestCase.make([1 + 2j, -0.5 + 1j], [2 - 1j])
    z0 = tc.value(0.0)
    assert abs(abs(z0) - 1.0) < 1e-12
    with pytest.raises(ValueError):
        ct.JensenTestCase.make([1 - 1j], [])  # zero in lower half plane
    with pytest.raises(ValueError):
        ct.JensenTestCase.make([1j], [2 + 1j])  # pole in upper half plane


def test_jensen_single_zero():
    tc = ct.JensenTestCase.make([1j], [-1j])
    # analytic left side is ln 2 at r = 2
    lhs = sum(math.log(2.0 / abs(a)) for a in tc.zeros if abs(a) <= 2.0)
    assert abs(lhs - math.log(2.0)) < 1e-15
    assert ct.jensen_residual(tc, 2.0) < 1e-6


def test_jensen_trivial():
    assert ct.jensen_residual(ct.JensenTestCase.make([], []), 3.0) < 1e-12


def test_jensen_two_zero_pair():
    tc = ct.JensenTestCase.make([2j, 3j], [-2j, -3j])
    lhs = sum(math.log(4.0 / abs(a)) for a in tc.zeros)
    assert abs(lhs - math.log(8.0 / 3.0)) < 1e-15
    assert ct.jensen_residual(tc, 4.0) < 1e-6


def test_jensen_randomized_family():
    rng = np.random.default_rng(17)
    worst = 0.0
    for _ in range(20):
        r = 3.0
        n = int(rng.integers(1, 5))
        zeros = []
        while len(zeros) < n:
            c = complex(rng.uniform(-r / 2, r / 2), rng.uniform(0.05, r / 2))
            if abs(c) < r / 2:
                zeros.append(c)
        poles = [complex(z.real, -abs(z.imag)) * rng.uniform(0.5, 1.5)
                 for z in zeros]
        worst = max(worst, ct.jensen_residual(ct.JensenTestCase.make(zeros, poles), r))
    assert worst < 1e-6


def test_jensen_rejects_circle_hit():
    tc = ct.JensenTestCase.make([1j], [-1j])
    with pytest.raises(ValueError):
        ct.jensen_residual(tc, 1.0)


def _sector_case_one_zero():
    lam = math.sqrt(2) * cmath.exp(1j * math.pi / 4)
    return ct.JensenTestCase.make([lam], [-lam])


def test_sector_jensen_one_zero():
    tc = _sector_case_one_zero()
    lhs = math.log(2.0 / math.sqrt(2.0))
    assert abs(lhs - 0.5 * math.log(2.0)) < 1e-15
    assert ct.sector_jensen_residual(tc, 2.0, math.pi / 8, 3 * math.pi / 8) < 1e-6


def test_sector_jensen_empty_sector():
    tc = _sector_case_one_zero()
    assert ct.sector_jensen_residual(tc, 2.0, math.pi / 2, 3 * math.pi / 4) < 1e-6


def test_sector_jensen_two_zeros():
    lam = math.sqrt(2) * cmath.exp(1j * math.pi / 4)
    z2 = 3 * cmath.exp(1j * math.pi / 3)
    tc = ct.JensenTestCase.make([lam, z2], [-lam, -z2])
    lhs = math.log(4.0 / math.sqrt(2.0)) + math.log(4.0 / 3.0)
    got = sum(math.log(4.0 / abs(a)) for a in tc.zeros
              if abs(a) <= 4.0 and math.pi / 8 < cmath.phase(a) < 5 * math.pi / 12)
    assert abs(got - lhs) < 1e-15
    assert ct.sector_jensen_residual(tc, 4.0, math.pi / 8, 5 * math.pi / 12) < 1e-6


def test_sector_jensen_randomized():
    rng = np.random.default_rng(23)
    worst = 0.0
    for _ in range(10):
        r = 3.0
        n = int(rng.integers(1, 4))
        zeros = []
        while len(zeros) < n:
            c = complex(rng.uniform(-r / 2, r / 2), rng.uniform(0.08, r / 2))
            if 0.1 < abs(c) < r / 2:
                zeros.append(c)
        poles = [-z for z in zeros]
        tc = ct.JensenTestCase.make(zeros, poles)
        phi, theta = 0.3, 2.4
        if any(abs(cmath.phase(z) - phi) < 1e-6 or abs(cmath.phase(z) - theta) < 1e-6
               for z in zeros):
            continue
        worst = max(worst, ct.sector_jensen_residual(tc, r, phi, theta))
    assert worst < 1e-6


def test_sector_jensen_names_offending_pole():
    lam = math.sqrt(2) * cmath.exp(1j * math.pi / 4)
    tc = ct.JensenTestCase.make([lam], [-lam])
    # boundary ray through the zero: must refuse and name it
    with pytest.raises(ValueError, match="boundary"):
        ct.sector_jensen_residual(tc, 2.0, math.pi / 4, 3 * math.pi / 8)
