import importlib.util
import json
import math
from pathlib import Path

import numpy as np
import pytest

from resonance_atlas import resonances as rs
from resonance_atlas.resonances import RadialStepPotential

_spec = importlib.util.spec_from_file_location(
    "solve_sets", Path(__file__).resolve().parents[1] / "tools" / "solve_sets.py")
solve_sets = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(solve_sets)


def test_all_sets_are_the_48_named_solves():
    names = [name for name, _, _ in solve_sets.all_sets()]
    assert len(names) == len(set(names)) == 48


def test_dump_compares_equal_to_itself_and_different_when_moved(tmp_path, capsys):
    dumped = tmp_path / "a.json"
    solve_sets.dump(dumped, [("v0=-20 R=3", RadialStepPotential(1.0, -20.0), 3.0)])
    assert solve_sets.main(["compare", str(dumped), str(dumped)]) == 0
    assert capsys.readouterr().out == "identical  v0=-20 R=3\n"

    doc = json.loads(dumped.read_text())
    assert doc["v0=-20 R=3"]["resonances"]
    doc["v0=-20 R=3"]["resonances"][0][1] += 1e-12
    moved = tmp_path / "b.json"
    moved.write_text(json.dumps(doc))
    assert solve_sets.main(["compare", str(dumped), str(moved)]) == 1
    assert capsys.readouterr().out == "different  v0=-20 R=3\n"


def _compare_names_the_differing_keys(tmp_path, capsys, name):
    entry = {"weyl_constant": [1.0, 2.0], "weyl_constant_2d": [3.0, 4.0]}
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps({"free R=1": {"zero_tol": 1e-9, "resonances": []}, name: entry}))
    b.write_text(json.dumps({"free R=1": {"zero_tol": 1e-9, "resonances": []}, name: entry}))
    assert solve_sets.main(["compare", str(a), str(b)]) == 0
    assert capsys.readouterr().out == f"identical  free R=1\nidentical  {name}\n"

    b.write_text(json.dumps({"free R=1": {"zero_tol": 1e-9, "resonances": []},
                             name: dict(entry, weyl_constant_2d=[3.0, 4.5])}))
    for args in (["compare"], ["compare", "--tol"]):  # an entry is always compared exactly
        assert solve_sets.main(args + [str(a), str(b)]) == 1
        assert capsys.readouterr().out == ("identical  free R=1\n"
                                           f"different  {name}\n"
                                           f"identical  {name}.weyl_constant\n"
                                           f"different  {name}.weyl_constant_2d"
                                           "  (max shift 5.0e-01 abs, 1.1e-01 rel)\n")


def test_compare_names_the_differing_density_keys(tmp_path, capsys):
    _compare_names_the_differing_keys(tmp_path, capsys, "density")


def test_compare_names_the_differing_det_keys(tmp_path, capsys):
    _compare_names_the_differing_keys(tmp_path, capsys, "det")


def test_compare_names_the_differing_pairs_keys(tmp_path, capsys):
    # rows (Re f_(l-1), Im f_(l-1), Re f_l, Im f_l, s): an imaginary part of
    # 1e-17 that becomes 1e-15 moves its log by about 1e-15 (not by 99 % of
    # that part), and a phase pi that becomes -pi moves log f + s = 40 + i pi
    # by 2e-300, or 5e-302 of its modulus (not by 2 pi)
    rows = [[1.0, 1e-17, 0.5, 0.0, 0.0], [-1.0, 1e-300, 0.25, 0.5, 40.0]]
    entry = {"j": rows, "h": rows}
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps({"pairs": entry}))
    b.write_text(json.dumps({"pairs": entry}))
    assert solve_sets.main(["compare", str(a), str(b)]) == 0
    assert capsys.readouterr().out == "identical  pairs\n"

    moved = {"j": [[1.0, 1e-15, 0.5, 0.0, 0.0], rows[1]],
             "h": [rows[0], [-1.0, -1e-300, 0.25, 0.5, 40.0]]}
    b.write_text(json.dumps({"pairs": moved}))
    assert solve_sets.main(["compare", str(a), str(b)]) == 1
    assert capsys.readouterr().out == ("different  pairs\n"
                                       "different  pairs.j  (max shift 9.9e-16 in log)\n"
                                       "different  pairs.h  (max shift 5.0e-302 in log)\n")


def test_pairs_entry_holds_both_pairs_at_the_seeded_points():
    entry = solve_sets.pairs_entry()
    ell, z = solve_sets.pair_points()
    assert list(entry) == ["j", "h"] and ell.size == z.size == 2006
    assert (ell[2000], z[2000]) == (1205, 11.288 - 394.735j)
    assert list(zip(ell[2001:], z[2001:])) == solve_sets.CARRIED_PAIRS
    for rows in entry.values():
        assert len(rows) == 2006
        values = np.array(rows)
        assert np.all(np.isfinite(values))
        # every pair is nonzero and in normal form: its larger member has modulus 1
        top = np.maximum(np.hypot(values[:, 0], values[:, 1]),
                         np.hypot(values[:, 2], values[:, 3]))
        assert np.max(np.abs(top - 1.0)) < 1e-15


def test_compare_gives_the_largest_shift_of_a_differing_key(tmp_path, capsys):
    table = {"c_d": 2.0, "rows": [[0.0, 100.0, 4.0], [1.0, 1e-3, -1.0]]}
    moved = {"c_d": 2.0, "rows": [[0.0, 100.0 + 2e-6, 4.0], [1.0, 1e-3 + 5e-10, -1.0]]}
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps({"density": {"table": table, "sizes": [1, 2]}}))
    b.write_text(json.dumps({"density": {"table": moved, "sizes": [1, 2, 3]}}))
    assert solve_sets.main(["compare", str(a), str(b)]) == 1
    # the largest absolute shift is that of 100 and the largest relative one
    # that of 1e-3; a key whose layout changed gets no shift
    assert capsys.readouterr().out == ("different  density\n"
                                       "different  density.table  (max shift 2.0e-06 abs, 5.0e-07 rel)\n"
                                       "different  density.sizes\n")


def test_det_entry_holds_the_bench_points_of_five_wells():
    entry = solve_sets.det_entry()
    # points per set, the last of them on the real axis
    sizes = {"solve": (26, 6), "asymptotics": (38, 10), "r=640,1000": (4, 0),
             "near-pole": (5, 0)}
    wells = ["v0=-20", "v0=complex(-20, 0)", "v0=-1e-12", "v0=-16+1.5j", "a=2 v0=-20"]
    assert list(entry) == ([f"{w} {tag}" for w in wells for tag in ("solve", "asymptotics")]
                           + ["v0=-20 r=640,1000", "v0=-20,-20+2j near-pole"])
    for key, values in entry.items():
        size, reals = sizes[key.rsplit(" ", 1)[1]]
        assert len(values) == size
        assert all(isinstance(v, float) and math.isfinite(v) for v in values)
        if "1.5j" not in key:  # a real well's ln|det S| is 0 at these real points
            assert values[size - reals:] == [0.0] * reals


def test_det_near_pole_points_take_the_pole_check():
    # the pole's channel has |g_ell| < 1e-2 C_ell at each near-pole point, so
    # the dump's key covers the path that evaluates the pole check's neighbours
    cases = ([(solve_sets.REFERENCE, lam * (1.0 + d), ell)
              for ell, lam in enumerate(solve_sets.BOUND_STATES) for d in (1e-9, 1e-6)]
             + [(RadialStepPotential(1.0, complex(-20.0, 2.0)),
                 solve_sets.COMPLEX_EIGENVALUE * (1.0 + 1e-9), 0)])
    for pot, lam, ell in cases:
        log_g = rs.channel_matcher_log(ell, pot)(np.array([lam]))[0]
        assert log_g.real < rs._log_c(np.array(ell), pot) + math.log(1e-2)


def _moved(doc, change):
    """A copy of the dump doc with its set's resonance list changed."""
    doc = json.loads(json.dumps(doc))
    change(doc["v0=-20 R=3"]["resonances"])
    return doc


def _shift(by):
    def change(resonances):
        resonances[0][1] += by
    return change


@pytest.mark.parametrize("change, exact, tolerant", [
    (_shift(1e-12), "different", "close    "),
    (_shift(1e-6), "different", "different"),
    (lambda resonances: resonances.pop(), "different", "different"),
], ids=["moved 1e-12", "moved 1e-6", "dropped"])
def test_tolerance_mode_passes_only_zeros_moved_within_zero_tol(tmp_path, capsys,
                                                              change, exact, tolerant):
    dumped = tmp_path / "a.json"
    solve_sets.dump(dumped, [("v0=-20 R=3", RadialStepPotential(1.0, -20.0), 3.0)])
    doc = json.loads(dumped.read_text())
    assert doc["v0=-20 R=3"]["zero_tol"] == pytest.approx(3e-9)
    assert solve_sets.main(["compare", "--tol", str(dumped), str(dumped)]) == 0
    assert capsys.readouterr().out == "identical  v0=-20 R=3\n"

    moved = tmp_path / "b.json"
    moved.write_text(json.dumps(_moved(doc, change)))
    assert solve_sets.main(["compare", str(dumped), str(moved)]) == 1
    assert capsys.readouterr().out == f"{exact}  v0=-20 R=3\n"
    for a, b in ((dumped, moved), (moved, dumped)):
        assert solve_sets.main(["compare", "--tol", str(a), str(b)]) == int(tolerant == "different")
        assert capsys.readouterr().out == f"{tolerant}  v0=-20 R=3\n"
