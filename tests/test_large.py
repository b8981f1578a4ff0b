"""Large-R solves: deselected by default, run with ``pytest -m large``."""

from collections import Counter

import pytest

from resonance_atlas import resonances as rs

WELL = rs.RadialStepPotential(a=1.0, v0=-20.0)


@pytest.mark.large
def test_r80_set_cut_to_r60_matches_the_r60_set_in_every_channel():
    # a larger search radius moves no zero of the smaller disk and drops
    # none; about 20 s on 2 workers of a 2-core VM
    wide = rs.find_resonances(WELL, 80.0, threads=2)
    narrow = rs.find_resonances(WELL, 60.0, threads=2)
    cut = Counter(r.ell for r in wide.resonances if abs(r.lam) <= 60.0)
    assert cut == Counter(r.ell for r in narrow.resonances)
    assert sum(cut.values()) == len(narrow.resonances) > 3000
