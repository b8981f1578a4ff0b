"""Acceptance criteria, one test per criterion, at their stated tolerances.

The heavy artifacts (the reference resonance set at R = 40 and the averaged
family at r = 25) are shared through a session-scoped context.  Each test
runs its criterion through ``run_criterion``, the runner ``verify`` uses, and
prints its PASS/FAIL line so `pytest -v -s` shows one line per criterion.
"""

import os

import pytest

from resonance_atlas import acceptance as acc


def _threads() -> int:
    env = os.environ.get("RESONANCE_ATLAS_THREADS")
    if env and env.isdigit():
        return max(1, int(env))
    return min(8, os.cpu_count() or 1)


@pytest.fixture(scope="session")
def ctx():
    return acc.AcceptanceContext(threads=_threads())


def _run(index, ctx):
    result = acc.run_criterion(index, ctx)
    status = "PASS" if result.passed else "FAIL"
    print(f"\n{status} criterion {result.index} ({result.name}): {result.detail}")
    assert result.passed, result.detail
    return result


def test_criterion_01_closed_form_cross_check(ctx):
    _run(1, ctx)


def test_criterion_02_symmetry_and_endpoints(ctx):
    _run(2, ctx)


def test_criterion_03_derivative_at_axis(ctx):
    _run(3, ctx)


def test_criterion_04_weyl_constant_consistency(ctx):
    _run(4, ctx)


def test_criterion_05_jensen_identities(ctx):
    _run(5, ctx)


def test_criterion_06_solver_soundness(ctx):
    _run(6, ctx)


def test_criterion_07_weyl_total_count(ctx):
    _run(7, ctx)


def test_criterion_08_sector_asymptotics(ctx):
    _run(8, ctx)


def test_criterion_09_scattering_bound(ctx):
    _run(9, ctx)


def test_criterion_10_family_average(ctx):
    _run(10, ctx)


def test_criterion_11_normalization_equivalence(ctx):
    _run(11, ctx)


def test_raising_criterion_keeps_its_name(monkeypatch):
    from resonance_atlas.errors import NumericalError

    def fail(*args, **kwargs):
        raise NumericalError("channel 3: no convergence")

    monkeypatch.setattr(acc.rs, "find_resonances", fail)
    result = acc.run_criterion(7, acc.AcceptanceContext())
    assert result.index == 7 and result.name == "Weyl-type total count"
    assert not result.passed
    assert result.detail.startswith(
        "raised NumericalError: channel 3: no convergence")


@pytest.mark.parametrize("which", ["v0", "conj(v0)"])
def test_conjugation_check_fails_when_a_zero_is_dropped(monkeypatch, which):
    # negative control of criterion 6: the first complex well's set, or
    # its conj(v0) twin's, loses its last resonance
    real = acc.rs.find_resonances
    dropped = []

    def losing_one(pot, R, **kwargs):
        rset = real(pot, R, **kwargs)
        if pot.v0.imag != 0 and not dropped and (pot.v0.imag < 0) == (which == "conj(v0)"):
            dropped.append(rset.resonances.pop())
        return rset

    monkeypatch.setattr(acc.rs, "find_resonances", losing_one)
    passed, detail = acc.criterion_6(acc.AcceptanceContext())
    assert dropped and not passed
    assert detail.startswith("conjugation broken at v0=-20.479")
