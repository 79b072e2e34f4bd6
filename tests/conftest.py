"""Hypothesis settings shared by the property tests.

Examples are derived from each test's own source, so every run checks the same
cases; no deadline applies, since one example's wall time says nothing about
its correctness; and the example count is fixed to keep the suite's runtime
bounded.

The CLI tests run ``python -m tubekit`` in child processes; ``src`` is put
first on their ``PYTHONPATH`` so that a plain ``python -m pytest`` from the
repository root tests this checkout.
"""

import os
from pathlib import Path

from hypothesis import settings

_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p
)

settings.register_profile(
    "tubekit", derandomize=True, deadline=None, max_examples=100, database=None
)
settings.load_profile("tubekit")
