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


def test_winding_rejects_f_that_does_not_map_arrays():
    with pytest.raises(TypeError, match="array of the same shape"):
        ct.winding_count(lambda z: 1.0, ct.ContourBox(-1 - 1j, 1 + 1j))


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


@pytest.mark.parametrize("tol, samples, name", [
    (math.nan, 32, "tol"), (math.inf, 32, "tol"), (-1e-10, 32, "tol"),
    (1e-10, 0, "samples"), (1e-10, -4, "samples")])
def test_locate_rejects_a_bad_tol_or_sample_count(tol, samples, name):
    with pytest.raises(ValueError, match=f"^{name} must be"):
        ct.locate_zeros(lambda z: z - 0.1j, ct.ContourBox(-1 - 1j, 1 + 1j), tol,
                        samples=samples)


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
    real = ct._zeros_inside
    monkeypatch.setattr(ct, "_zeros_inside",
                        lambda found, box, winding: real(change(found), box, winding))
    q = np.poly1d(np.poly([0.5 + 0.5j, -0.52 + 0.25j, 0.8 - 0.6j, -0.7 - 0.4j]))
    with pytest.raises(NumericalError,
                       match=rf"^located {located} zeros inside the box .* winding is 4$"):
        ct.locate_zeros(lambda z: q(z), ct.ContourBox(-1.2 - 1.2j, 1.2 + 1.2j), tol=1e-10)


def test_locate_keeps_only_zeros_inside_the_box_it_wound(monkeypatch):
    # a zero located outside the top box (a cluster centroid may land there)
    # is dropped rather than counted against the winding
    real = ct._zeros_inside
    monkeypatch.setattr(ct, "_zeros_inside", lambda found, box, winding: real(
        found + [(1.5 + 0j, 1)], box, winding))
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


@pytest.mark.parametrize("on_edge", [-1 + 0.3j, 0.4 + 1j, 1 + 1j],
                         ids=["left edge", "top edge", "corner"])
def test_locate_grows_the_top_box_off_a_zero_on_its_boundary(on_edge):
    want = [on_edge, 0.2 + 0.1j, -0.3 - 0.5j]
    q = np.poly1d(np.poly(want))
    got = ct.locate_zeros(lambda z: q(z), ct.ContourBox(-1 - 1j, 1 + 1j), tol=1e-10)
    assert [m for _, m in got] == [1, 1, 1]
    for w in want:
        assert min(abs(z - w) for z, _ in got) < 1e-10


def test_locate_gives_up_after_the_last_move_of_the_top_box():
    with pytest.raises(BoundaryConflictError,
                       match=rf"^locate_zeros top box: .* after {ct._MOVES} moves"):
        ct.locate_zeros(lambda z: np.full(z.shape, np.nan),
                        ct.ContourBox(-1 - 1j, 1 + 1j), tol=1e-10)


def _cross(box, jitter):
    """The children of box split at its centre shifted by jitter, and the
    four arms from the split point to the bottom, right, top and left sides."""
    children = box.quadrisect(jitter)
    ends = [children[1].lower_left, children[1].upper_right,
            children[2].upper_right, children[2].lower_left]
    return children, [(children[0].upper_right, e) for e in ends]


def test_cut_edge_keeps_its_log_increment():
    # the arms' ends cut the box's loop: the children keep each of its
    # samples in loop order, each end lies in the two children that meet
    # there, and their log increments add up to the loop's, since every arm
    # is run once each way
    f = ct._make_log_evaluator(lambda z: (z - 0.3 - 0.2j) * (z + 0.7 + 0.1j), False)
    box = ct.ContourBox(-1 - 1j, 1 + 1j)
    sides, = ct._sampled_edges(f, [(ct._boundary(box), 0.0, "box")], 0.1)
    zs, ws = ct._loop(sides)
    assert zs.size == sum(z.size for z, _ in sides) - 4 and zs[0] == box.lower_left
    children, segments = _cross(box, 0.123)
    arms, = ct._sampled_edges(f, [(segments, 0.0, "cross")], 0.1)
    split = ct._children((box, 2, (zs, ws)), children, arms)
    assert [b for b, _, _ in split] == children
    assert [w for _, w, _ in split] == [1, 0, 0, 1]
    loops = [split[k][2] for k in (0, 1, 3, 2)]  # by corner, counterclockwise
    kept = []
    for k, (z, _) in enumerate(loops):
        n = z.size - arms[k][0].size - arms[k - 1][0].size + 1
        assert z[n] == arms[k][0][-1] and z[-1] == arms[k - 1][0][-1]
        kept.append(z[:n])
    kept = np.concatenate(kept)
    assert kept.tobytes() == np.roll(zs, -int(np.flatnonzero(zs == kept[0])[0])).tobytes()
    increment = sum(complex(np.sum(ct._steps(w))) for _, w in loops)
    assert abs(increment - complex(np.sum(ct._steps(ws)))) < 1e-12


def test_an_item_samples_the_same_edges_alone_as_in_a_batch():
    # all the segments of a call share one sample array; an item's edges,
    # or the conflict of an item that runs through or near a zero of f, do
    # not depend on the other items of the call
    f = ct._make_log_evaluator(
        lambda z: (z - 0.3 - 0.2j) * (z + 0.4 - 0.3j) ** 2 * (z - 0.6 + 0.5j), False)
    cs = ct.ContourBox(-1 - 1j, 1 + 1j).corners()
    arms = [(0.1 - 0.1j, e) for e in (0.1 - 1j, 1 - 0.1j, 0.1 + 1j, -1 - 0.1j)]
    items = [(list(zip(cs, cs[1:] + cs[:1])), 1e-3, "box"),
             ([(-1 + 0.2j, 1 + 0.2j)], 0.0, "through a simple zero"),
             (arms, 1e-4, "cross"),
             ([(-1 + 0.3001j, 1 + 0.3001j)], 1e-3, "near the double zero"),
             ([(0.6 - 1j, 0.6 + 1j), (-1 + 0.3j, 1 + 0.3j)], 0.0, "through two zeros"),
             ([(-0.9 + 0.8j, 0.9 + 0.8j)], 0.0, "segment")]
    batch = ct._sampled_edges(f, items, 0.05)
    assert [type(r).__name__ for r in batch] == [
        "list", "BoundaryConflictError", "list", "BoundaryConflictError",
        "BoundaryConflictError", "list"]
    assert "will not settle" in str(batch[1])
    assert "a zero lies within 0.001" in str(batch[3])
    assert "non-finite" in str(batch[4])  # its first segment's conflict
    for item, got in zip(items, batch):
        alone, = ct._sampled_edges(f, [item], 0.05)
        if isinstance(alone, BoundaryConflictError):
            assert str(got) == str(alone) and str(got).startswith(item[2] + ": ")
        else:
            assert len(got) == len(alone) == len(item[0])
            for (gz, gw), (az, aw) in zip(got, alone):
                assert gz.tobytes() == az.tobytes()
                assert gw.tobytes() == aw.tobytes()


def test_refinement_budget_names_the_first_item_over_it(monkeypatch):
    monkeypatch.setattr(ct, "_REFINE_BUDGET", 4)
    f = ct._make_log_evaluator(lambda z: (z - 0.3 - 0.2j) * (z + 0.4 - 0.3j), False)
    items = [([(-1 + 0.8j, 1 + 0.8j)], 0.0, "far"),
             ([(-1 + 0.21j, 1 + 0.21j)], 0.0, "near one zero"),
             ([(-1 + 0.31j, 1 + 0.31j)], 0.0, "near the other")]
    with pytest.raises(NumericalError, match="^near one zero: refinement budget exhausted$"):
        ct._sampled_edges(f, items, 0.05)


def test_locate_with_zero_at_box_centre_jitters_the_cross(monkeypatch):
    # the first cross starts on the zero at 0, so the split point must move;
    # the box holds four zeros, one more than a leaf may
    jitters = []
    quadrisect = ct.ContourBox.quadrisect

    def spy(self, jitter=0.0):
        jitters.append(jitter)
        return quadrisect(self, jitter)

    monkeypatch.setattr(ct.ContourBox, "quadrisect", spy)
    want = [0.0, 0.5 - 0.3j, -0.4 - 0.2j, 0.3 + 0.6j]
    q = np.poly1d(np.poly(want))
    got = ct.locate_zeros(lambda z: q(z), ct.ContourBox(-1 - 1j, 1 + 1j), tol=1e-10)
    assert jitters[:2] == [0.0, pytest.approx(2 * (math.sqrt(2) - 1) / 16)]
    assert len(got) == 4
    for z, mult in got:
        assert mult == 1
        assert min(abs(z - w) for w in want) < 1e-10


def _spy_quadrisect(monkeypatch):
    """The (lower left, upper right, jitter) of every quadrisect call."""
    calls = []
    quadrisect = ct.ContourBox.quadrisect

    def spy(self, jitter=0.0):
        calls.append((self.lower_left, self.upper_right, jitter))
        return quadrisect(self, jitter)

    monkeypatch.setattr(ct.ContourBox, "quadrisect", spy)
    return calls


def test_zero_on_one_split_point_of_a_level_moves_only_that_cross(monkeypatch):
    # level 1 splits the boxes (-1-1j, 0) and (0, 1+1j) together, each of
    # four zeros, one more than a leaf may hold; the zero at 0.5+0.5j sits
    # on the second one's split point, so that cross alone moves, by one step
    calls = _spy_quadrisect(monkeypatch)
    want = [0.5 + 0.5j, 0.2 + 0.8j, 0.8 + 0.3j, 0.3 + 0.2j,
            -0.3 - 0.6j, -0.7 - 0.2j, -0.2 - 0.3j, -0.8 - 0.7j, 0.6 - 0.4j]
    q = np.poly1d(np.poly(want))
    got = ct.locate_zeros(lambda z: q(z), ct.ContourBox(-1 - 1j, 1 + 1j), tol=1e-10)
    assert calls[:3] == [(-1 - 1j, 1 + 1j, 0.0), (-1 - 1j, 0j, 0.0), (0j, 1 + 1j, 0.0)]
    assert [c for c in calls if c[2] != 0.0] == [
        (0j, 1 + 1j, pytest.approx((math.sqrt(2) - 1) / 16))]
    assert len(got) == len(want)
    for z, mult in got:
        assert mult == 1
        assert min(abs(z - w) for w in want) < 1e-10


def test_leaf_whose_secant_leaves_its_box_splits_while_its_batch_converges(monkeypatch):
    # four winding-1 leaves are polished in one batch; the seed of the leaf
    # (0, 1+1j) is moved next to the zero just left of it, so its secant
    # converges outside the leaf: that leaf alone splits, and its child
    # reports the zero
    calls = _spy_quadrisect(monkeypatch)
    batches = []
    polish = ct._newton_polish

    def spy_polish(eval_w, seeds, *args):
        batches.append(len(seeds))
        return polish(eval_w, seeds, *args)

    pencil = ct._seeds
    moved = []

    def bad_seed(level, tol):
        seeds = pencil(level, tol)
        for i, zs in enumerate(seeds):
            if not moved and zs and abs(zs[0] - want[0]) < 0.05:
                moved.append(zs[0])
                seeds[i] = [0.02 + 0.45j]
        return seeds

    monkeypatch.setattr(ct, "_newton_polish", spy_polish)
    monkeypatch.setattr(ct, "_seeds", bad_seed)
    want = [0.45 + 0.45j, -0.05 + 0.45j, -0.5 - 0.5j, 0.5 - 0.5j]
    q = np.poly1d(np.poly(want))
    got = ct.locate_zeros(lambda z: q(z), ct.ContourBox(-1 - 1j, 1 + 1j), tol=1e-10)
    assert len(moved) == 1
    assert batches == [4, 1]
    assert [c[:2] for c in calls] == [(-1 - 1j, 1 + 1j), (0j, 1 + 1j)]
    assert [m for _, m in got] == [1, 1, 1, 1]
    for w in want:
        assert min(abs(z - w) for z, _ in got) < 1e-10


def test_box_of_three_zeros_is_one_leaf(monkeypatch):
    # the pencil of the top box's power sums seeds all three zeros at once
    calls = _spy_quadrisect(monkeypatch)
    want = [0.3 + 0.2j, -0.5 + 0.6j, -0.1 - 0.7j]
    got = ct.locate_zeros(lambda z: (z - want[0]) * (z - want[1]) * (z - want[2]),
                          ct.ContourBox(-1 - 1j, 1 + 1j), tol=1e-10)
    assert calls == []
    assert [m for _, m in got] == [1, 1, 1]
    for w in want:
        assert min(abs(z - w) for z, _ in got) < 1e-12


def test_zeros_1e8_apart_end_in_their_own_leaves():
    want = [0.3 + 0.2j, 0.3 + 0.2j + 1e-8 * cmath.exp(0.7j), -0.4 - 0.5j]
    got = ct.locate_zeros(lambda z: (z - want[0]) * (z - want[1]) * (z - want[2]),
                          ct.ContourBox(-1 - 1j, 1 + 1j), tol=1e-10)
    assert [m for _, m in got] == [1, 1, 1]
    assert sorted(min(range(3), key=lambda i: abs(z - want[i])) for z, _ in got) == [0, 1, 2]
    for z, _ in got:
        assert min(abs(z - w) for w in want) < 1e-10


@pytest.mark.parametrize("double, simple, expanded, tol", [
    (0.3 + 0.2j, -0.4 - 0.5j, False, 1e-9),
    # the expanded form cancels: rounding splits the double zero into two
    # about 1e-8 apart, so tol must lie above that to see one zero; here
    # the pencil seeds it twice, and the two secants, converging only
    # linearly, would stop more than tol apart after _PENCIL_STEPS steps
    (-0.07 + 0.34j, 0.65 - 0.2j, True, 1e-6)])
def test_double_zero_in_a_box_of_three_keeps_its_multiplicity(double, simple, expanded, tol):
    # no leaf reports a double zero as two simple ones, so the box splits
    # down to a leaf of winding 2 below tol
    q = np.poly1d(np.poly([double, double, simple]))
    f = q if expanded else (lambda z: (z - double) ** 2 * (z - simple))
    got = ct.locate_zeros(f, ct.ContourBox(-1 - 1j, 1 + 1j), tol=tol)
    assert sorted(m for _, m in got) == [1, 2]
    for z, m in got:
        assert abs(z - (double if m == 2 else simple)) < tol


def test_pencil_seeds_only_a_box_of_simple_zeros():
    # each seed must give the power sums back with weight 1: the seeds of a
    # double zero do not, so that box has none and splits in the descent
    box = ct.ContourBox(-1 - 1j, 1 + 1j)
    want = [0.3 + 0.2j, -0.5 + 0.6j, -0.1 - 0.7j]

    def seeds(g):
        f = ct._make_log_evaluator(g, False)
        sides, = ct._sampled_edges(f, [(ct._boundary(box), 1e-3, "box")], ct._spacing(box, 32))
        loop = ct._loop(sides)
        return ct._seeds([(box, ct._winding(loop), loop)], 1e-10)[0]

    got = seeds(lambda z: (z - want[0]) * (z - want[1]) * (z - want[2]))
    assert len(got) == 3
    for w in want:
        assert min(abs(z - w) for z in got) < 0.05
    assert seeds(lambda z: (z - want[0]) ** 2 * (z - want[2])) == []


@pytest.mark.parametrize("want", [[0.3 + 0.2j, -0.5 + 0.6j, -0.1 - 0.7j], [0.3 + 0.2j]],
                         ids=["winding3", "winding1"])
def test_leaf_whose_iterate_is_no_zero_splits(monkeypatch, want):
    # the secant may stop on a tiny step away from any zero: an iterate at
    # 0.9-0.9j, where |f| is above its minimum on the box's edges, fails
    # the zero test, so the leaf, of three zeros or of one, splits
    calls = _spy_quadrisect(monkeypatch)
    polish = ct._newton_polish
    moved = []

    def stop_off_the_zeros(eval_w, seeds, *args):
        out = polish(eval_w, seeds, *args)
        if not moved:
            moved.append(seeds[0])
            z = 0.9 - 0.9j
            out[0] = z, eval_w(np.array([z]), np.array([0]))[0]
        return out

    monkeypatch.setattr(ct, "_newton_polish", stop_off_the_zeros)
    got = ct.locate_zeros(lambda z: np.prod([z - w for w in want], axis=0),
                          ct.ContourBox(-1 - 1j, 1 + 1j), tol=1e-10)
    assert len(moved) == 1
    assert [c[:2] for c in calls[:1]] == [(-1 - 1j, 1 + 1j)]
    assert [m for _, m in got] == [1] * len(want)
    for w in want:
        assert min(abs(z - w) for z, _ in got) < 1e-10


def test_split_rejects_children_that_do_not_sum_to_the_parent():
    f = ct._make_log_evaluator(lambda z: (z - 0.3 - 0.2j) * (z + 0.4 - 0.3j), False)
    box = ct.ContourBox(-1 - 1j, 1 + 1j)
    sides, = ct._sampled_edges(f, [(ct._boundary(box), 1e-3, "box")], ct._spacing(box, 32))
    loop = ct._loop(sides)
    assert ct._winding(loop) == 2
    children, = ct._split_boxes(f, [(box, 2, loop)], 0.25)
    assert [w for _, w, _ in children] == [0, 0, 1, 1]
    with pytest.raises(NumericalError, match="do not sum to 3"):
        ct._split_boxes(f, [(box, 2, loop), (box, 3, loop)], 0.25)


@pytest.mark.parametrize("move", [0, 1])
@pytest.mark.parametrize("seed", range(4))
def test_split_children_wind_as_their_boxes(seed, move):
    # move 0 cuts each side, evenly sampled, at its centre: every arm ends
    # on a sample of the loop; move 1 ends every arm between two samples
    rng = np.random.default_rng(seed)
    box = ct.ContourBox(-1 - 1j, 1 + 1j)
    jitter = box.width * ct._IRR / 16.0 * move
    roots = []
    while len(roots) < 7:  # off the box's sides and its cross
        z = complex(*rng.uniform(-1.3, 1.3, 2))
        if min(abs(x - v) for x in (z.real, z.imag) for v in (-1.0, jitter, 1.0)) > 0.05:
            roots.append(z)
    q = np.poly1d(np.poly(roots))
    f = ct._make_log_evaluator(lambda z: q(z), False)
    spacing = ct._spacing(box, 32)
    sides, = ct._sampled_edges(f, [(ct._boundary(box), 1e-3, "box")], spacing)
    loop = ct._loop(sides)
    children, segments = _cross(box, jitter)
    assert [bool(np.any(loop[0] == e)) for _, e in segments] == [move == 0] * 4
    arms, = ct._sampled_edges(f, [(segments, 1e-3, "cross")], spacing)
    split = ct._children((box, ct._winding(loop), loop), children, arms)
    assert [b for b, _, _ in split] == children
    assert [w for _, w, _ in split] == [ct.winding_count(q, b) for b in children]
    for _, _, (zs, ws) in split:  # no step of length 0
        assert zs.shape == ws.shape and np.all(zs != np.roll(zs, -1))


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


def _one_box_seeds(box, w, loop, tol):
    """The one-box rule that ``_seeds`` applies to a whole level: this box's
    power sums by np.sum over its own loop, its pencil solved alone."""
    zs, ws = loop
    c, h = box.center, 0.5 * box.diameter
    u, term = (0.5 * (zs + np.roll(zs, -1)) - c) / h, ct._steps(ws)
    s = [complex(np.sum(term * u ** p)) for p in range(2 * max(w, 1))]
    if box.diameter < tol:
        m1 = c + h * s[1] / s[0]
        return [m1 if box.contains(m1, pad=0.25 * box.diameter) else c]
    if w > ct._LEAF_ZEROS:
        return []
    hankel = np.array([s[i:i + w] for i in range(w + 1)])
    try:
        u = np.linalg.eigvals(np.linalg.solve(hankel[:-1], hankel[1:]))
        weights = np.linalg.solve(np.vander(u, w, increasing=True).T, s[:w]) / (2j * math.pi)
    except np.linalg.LinAlgError:
        return []
    seeds = (c + h * u).tolist()
    good = np.all(np.abs(weights - 1) <= ct._PENCIL_WEIGHT)
    return seeds if good and all(box.contains(z, pad=0.25 * box.diameter) for z in seeds) else []


@settings(max_examples=60)
@given(_roots_for_box(), st.sampled_from([1e-8, 1.5]),
       st.tuples(st.floats(-0.6, 0.6), st.floats(-0.6, 0.6)), st.integers(1, 4))
def test_level_seeds_match_the_one_box_rule(roots, tol, shift, winding):
    # the loops of the top box and its four children, seeded as one level,
    # get the seeds (within 1e-9 of their diameter) and the accept or reject
    # decision of the one-box rule: each under its own box and winding, under
    # its box shifted by shift times its width (its zeros may lie outside)
    # and under a winding 1 to 4 that may not be its own (the weights
    # reject).  Below tol (1.5 lies between the children's diameter and the
    # top box's) the seed is the winding centroid, or the box centre
    if any(abs(a - b) < 1e-3 for i, a in enumerate(roots) for b in roots[:i]):
        return
    coeffs = np.poly(roots)
    f = ct._make_log_evaluator(lambda z: np.polyval(coeffs, z), False)
    level = []
    for box in [_BOX] + _BOX.quadrisect():
        sides, = ct._sampled_edges(f, [(ct._boundary(box), 1e-3 * box.diameter, "box")],
                                   ct._spacing(box, 32))
        if isinstance(sides, BoundaryConflictError):
            continue
        loop, move = ct._loop(sides), complex(*shift) * box.width
        w = ct._winding(loop)
        moved = ct.ContourBox(box.lower_left + move, box.upper_right + move)
        level += [(box, winding, loop), (moved, winding, loop)]
        if w > 0:
            level += [(box, w, loop), (moved, w, loop)]
    for (box, w, loop), got in zip(level, ct._seeds(level, tol)):
        want = _one_box_seeds(box, w, loop, tol)
        assert len(got) == len(want), (box, w)
        for z in want:
            assert min(abs(z - y) for y in got) < 1e-9 * box.diameter


def test_pencils_of_a_level_solve_each_row_alone():
    # a singular pencil (the power sums of one zero at 0, read as two) gets
    # NaN, and the other rows of its batch their own seeds and weights
    zeros = np.array([0.3 + 0.1j, -0.4 + 0.2j])
    good = [2j * math.pi * np.sum(zeros ** p) for p in range(4)]
    u, weights = ct._pencils(np.array([good, [2j * math.pi, 0, 0, 0], good]), 2)
    assert np.isnan(u[1]).all() and np.isnan(weights[1]).all()
    for row in (0, 2):
        assert np.allclose(np.sort_complex(u[row]), np.sort_complex(zeros), atol=1e-12)
        assert np.allclose(weights[row], 1.0, atol=1e-12)


@pytest.mark.parametrize("tol", [1e-8, 3.0])
def test_level_seeds_keep_a_quarter_diameter_pad(tol):
    # the zero 0.3+0.2j lies 0.24 or 0.26 diameters right of a box of
    # diameter 1 that the same loop is declared under: the pencil seed (or
    # below tol the centroid) is kept within the pad, and outside it the box
    # splits (below tol it reports its centre)
    loop = ct._loop(ct._sampled_edges(ct._make_log_evaluator(lambda z: z - 0.3 - 0.2j, False),
                                      [(ct._boundary(_BOX), 1e-3, "box")],
                                      ct._spacing(_BOX, 32))[0])
    side = 1.0 / math.sqrt(2.0)
    level = [(ct.ContourBox(complex(0.3 - side - gap, 0.0), complex(0.3 - gap, side)), 1, loop)
             for gap in (0.24, 0.26)]
    near, far = ct._seeds(level, tol)
    assert abs(near[0] - (0.3 + 0.2j)) < 1e-2
    assert far == ([] if tol < 1.0 else [level[1][0].center])


@pytest.mark.parametrize("gap", [0.6, 1.0, 1.9])
def test_locate_separates_simple_zeros_closer_than_two_tol(gap):
    # each zero's multiplicity is its leaf box's winding; a circle of radius
    # 2 tol around either zero would enclose both and count 2 for each
    tol = 1e-9
    want = [0.3 + 0.2j, 0.3 + 0.2j + gap * tol * cmath.exp(0.7j)]
    got = ct.locate_zeros(lambda z: (z - want[0]) * (z - want[1]),
                          ct.ContourBox(-1 - 1j, 1 + 1j), tol=tol)
    assert [m for _, m in got] == [1, 1]
    assert sorted(min(range(2), key=lambda i: abs(z - want[i])) for z, _ in got) == [0, 1]
    for z, _ in got:
        assert min(abs(z - w) for w in want) < tol


# --- Jensen-type identities -------------------------------------------------

def _log_abs_ratio(tc, z):
    """ln|f(z) / f(0)| of the test case, from a direct product of its factors."""
    ratio = 1.0 + 0.0j
    for a in tc.zeros:
        ratio *= (z - a) / (-a)
    for p in tc.poles:
        ratio /= (z - p) / (-p)
    return math.log(abs(ratio))


def test_case_normalization_and_validation():
    tc = ct.JensenTestCase.make([1 + 2j, -0.5 + 1j], [2 - 1j])
    for t in (0.3, 1.7, 4.0):
        for om in (0.0, 0.4, math.pi / 2, 2.9):
            got = tc.ray_log_increment(t, om).real
            assert abs(got - _log_abs_ratio(tc, t * cmath.exp(1j * om))) < 1e-14
    with pytest.raises(ValueError):
        ct.JensenTestCase.make([1 - 1j], [])  # zero in lower half plane
    with pytest.raises(ValueError):
        ct.JensenTestCase.make([1j], [2 + 1j])  # pole in upper half plane
    with pytest.raises(ValueError, match="pole 2j"):  # built without make
        ct.JensenTestCase(zeros=(1j,), poles=(2j,))


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


def test_jensen_quadrature_failure_carries_estimate(monkeypatch):
    from scipy.integrate import quad

    from resonance_atlas import density as dn
    from resonance_atlas.errors import QuadratureError

    tc = ct.JensenTestCase.make([1j], [-1j])
    arc = quad(lambda th: _log_abs_ratio(tc, 2.0 * cmath.exp(1j * th)), 0.0, math.pi)[0]
    # the batched GK21 rule meets the ray terms in one interval and the arc
    # term in two, so one interval leaves only the arc term short
    monkeypatch.setattr(dn, "_QUAD_LIMIT", 1)
    with pytest.raises(QuadratureError, match="sector arc term") as err:
        ct.jensen_residual(tc, 2.0)
    assert err.value.estimate == pytest.approx(arc, abs=1e-6)
    assert err.value.achieved_error is not None


def test_jensen_suite_rejects_negative_cases():
    with pytest.raises(ValueError, match="cases"):
        ct.jensen_suite(cases=-1)


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


def test_sector_jensen_takes_the_half_plane_and_its_checks():
    tc = ct.JensenTestCase.make([1j, -1 + 2j], [-1j, 0.5 - 1j])
    res = ct.sector_jensen_residual(tc, 3.0, 0.0, math.pi)
    assert res == ct.jensen_residual(tc, 3.0) and res < 1e-12
    lam = math.sqrt(2) * cmath.exp(1j * math.pi / 4)
    one = ct.JensenTestCase.make([lam], [-lam])
    with pytest.raises(ValueError, match="circle"):  # zero on the arc |z| = r
        ct.sector_jensen_residual(one, math.sqrt(2), math.pi / 8, 3 * math.pi / 8)
    with pytest.raises(ValueError, match="0 <= phi < theta <= pi"):
        ct.sector_jensen_residual(one, 2.0, math.pi / 8, math.pi + 0.1)
    with pytest.raises(ValueError, match="positive"):
        ct.sector_jensen_residual(one, 0.0, 0.0, math.pi)
    # a zero 1e-13 rad off the real axis lies on the half plane's boundary ray
    flat = ct.JensenTestCase.make([1 + 1e-13j], [-1j])
    with pytest.raises(ValueError, match="boundary ray"):
        ct.jensen_residual(flat, 2.0)
