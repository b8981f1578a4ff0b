"""Negative controls for the benchmark's checks, and a quick harness run.

Each control feeds a check a resonance set with one known defect and
expects the check to fail; the same check passes on the undamaged set.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

pytest.importorskip("mpmath")

from perfbench import oracle, run, spec, workloads  # noqa: E402
from resonance_atlas import resonances as rs  # noqa: E402


@pytest.fixture(scope="module")
def small_set():
    return rs.find_resonances(rs.RadialStepPotential(1.0, -20.0), 4.0)


def _pairs(rset):
    return [(r.ell, r.lam) for r in rset.resonances]


def test_zero_check_rejects_moved_resonance(small_set):
    r = small_set.resonances[0]
    assert oracle.zero_check(r.ell, 1.0, -20.0, r.lam)[0]
    assert not oracle.zero_check(r.ell, 1.0, -20.0, r.lam + 1e-4)[0]


def test_reflection_check_rejects_dropped_mirror_partner(small_set):
    pairs = _pairs(small_set)
    assert oracle.reflection_check(pairs)[0]
    i = next(i for i, (_, lam) in enumerate(pairs) if abs(lam.real) > 1e-3)
    assert not oracle.reflection_check(pairs[:i] + pairs[i + 1:])[0]


def test_empty_check_rejects_spurious_free_resonance():
    pairs = _pairs(rs.find_resonances(rs.RadialStepPotential(1.0, 0.0), 10.0))
    assert oracle.empty_check(pairs)[0]
    assert not oracle.empty_check(pairs + [(0, complex(3.0, -1.0))])[0]


def test_argument_principle_matches_small_solve(small_set):
    for ell in (0, 2):
        reported = sum(1 for r in small_set.resonances if r.ell == ell)
        assert oracle.argument_principle_count(ell, 1.0, -20.0, 4.0, 5e-7) == reported


def test_harness_quick_run_at_small_radius():
    wl = workloads.reference_well(seed=3, R=4.0)
    wl.passes = dict.fromkeys(wl.passes, 1)
    traced = run.measure(wl, "reference_well", 3, seconds=0, trace=True)
    assert traced["correct"], traced["checks"]
    assert traced["failed"] == 0 and traced["attempted"] == 2 * len(wl.ops)
    assert set(traced["metrics"]) == {n for n, _, _ in spec.PER_LAYER}
    untraced = run.measure(wl, "reference_well", 3, seconds=0, trace=False)
    assert untraced["correct"], untraced["checks"]
    assert set(untraced["metrics"]) == {n for n, _, _, _ in spec.END_TO_END}
    assert all(m["value"] > 0 for m in untraced["metrics"].values())


def test_benchmark_json_matches_spec():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert doc == spec.benchmark_json()
