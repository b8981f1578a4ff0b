import numpy as np
import pytest
from hypothesis import settings

from resonance_atlas import special

# the same examples on every run, and no example database on disk
settings.register_profile("deterministic", derandomize=True, deadline=None,
                          database=None)
settings.load_profile("deterministic")


@pytest.fixture
def amos_counts(monkeypatch):
    """{name: orders evaluated} of scipy's scaled hankel1e and jve, counted
    by np.size of the orders of each call."""
    counts = {"hankel1e": 0, "jve": 0}
    for name in counts:
        real = getattr(special._ss, name)

        def counted(v, z, name=name, real=real):
            counts[name] += np.size(v)
            return real(v, z)
        monkeypatch.setattr(special._ss, name, counted)
    return counts
