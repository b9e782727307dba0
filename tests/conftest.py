"""Fixtures shared by the test modules, and the hypothesis profiles.

`ci`, loaded by default, derandomizes every property: each run draws the
same examples, at each test's own `max_examples`, so a property fails on the
change that breaks it and not on whichever run draws the failing case.
`explore` (`pytest --hypothesis-profile=explore`) draws random examples,
EXPLORE_FACTOR times as many per test, to look for new failing cases.
"""

import pytest
from hypothesis import settings

from cohtrack import dynamics

EXPLORE_FACTOR = 20

settings.register_profile("ci", derandomize=True)
settings.register_profile("explore", derandomize=False)
settings.load_profile("ci")


def pytest_collection_modifyitems(items):
    """Under `explore`, give each property EXPLORE_FACTOR times its examples."""
    if settings.get_current_profile_name() != "explore":
        return
    scaled = set()
    for item in items:
        test = getattr(item.obj, "__func__", item.obj)
        # Set by @given (and @settings) on the test; hypothesis's own `seed`
        # decorator replaces it the same way. Parametrized items share it.
        current = getattr(test, "_hypothesis_internal_use_settings", None)
        if current is None or test in scaled:
            continue
        scaled.add(test)
        test._hypothesis_internal_use_settings = settings(
            current, max_examples=EXPLORE_FACTOR * current.max_examples)


@pytest.fixture
def no_solver(monkeypatch):
    """Fail the test if any route calls the ODE solver."""
    def fail(*args, **kwargs):
        raise AssertionError("the solver ran")

    monkeypatch.setattr(dynamics, "solve_ivp", fail)
