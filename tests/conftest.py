"""Shared test settings.

The property tests run under a fixed hypothesis profile: derandomized, so
tier-1 draws the same examples on every run, with no per-example deadline
(a fuzzed CLI run can take longer than the default 200 ms on a loaded
machine) and a bounded number of examples so the property suite stays
well under 20 s.

The no_whole_spectrum fixture refuses scipy's eigvalsh_tridiagonal at its
select="a", so a test can show that a path asks for no whole spectrum
without vectors (it took 5.8 s at n = 20,000).
"""

import pytest
import scipy.linalg
from hypothesis import settings

settings.register_profile("tier1", derandomize=True, deadline=None, max_examples=25)
settings.load_profile("tier1")


@pytest.fixture
def no_whole_spectrum(monkeypatch):
    whole = scipy.linalg.eigvalsh_tridiagonal

    def partial_only(d, e, select="a", **kwargs):
        assert select != "a", "asked for the whole spectrum"
        return whole(d, e, select=select, **kwargs)

    monkeypatch.setattr(scipy.linalg, "eigvalsh_tridiagonal", partial_only)
