"""Hypothesis settings shared by the property tests.

Examples are derived from each test's own source, so every run checks the same
cases; no deadline applies, since one example's wall time says nothing about
its correctness; and the example count is fixed to keep the suite's runtime
bounded.
"""

from hypothesis import settings

settings.register_profile(
    "tubekit", derandomize=True, deadline=None, max_examples=100, database=None
)
settings.load_profile("tubekit")
