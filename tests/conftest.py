"""Deterministic hypothesis for the test suite: every ``@given`` test draws
the same examples on every run, with no per-example deadline, and no result
depends on the ``.hypothesis/`` example database. Each test keeps its own
``max_examples``."""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, deadline=None, database=None)
settings.load_profile("deterministic")
