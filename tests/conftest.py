"""Shared test settings.

The property tests run under a fixed hypothesis profile: derandomized, so
tier-1 draws the same examples on every run, with no per-example deadline
(a fuzzed CLI run can take longer than the default 200 ms on a loaded
machine) and a bounded number of examples so the property suite stays
well under 20 s.
"""

from hypothesis import settings

settings.register_profile("tier1", derandomize=True, deadline=None, max_examples=25)
settings.load_profile("tier1")
