"""Fixtures shared by the test modules."""

import pytest

from cohtrack import dynamics


@pytest.fixture
def no_solver(monkeypatch):
    """Fail the test if any route calls the ODE solver."""
    def fail(*args, **kwargs):
        raise AssertionError("the solver ran")

    monkeypatch.setattr(dynamics, "solve_ivp", fail)
