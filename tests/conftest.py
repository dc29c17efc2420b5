"""Fixtures shared across the test suite."""

import pytest

import faceid.solver


@pytest.fixture
def gram_factorizations(monkeypatch):
    """List that grows by one for every Gram factorization faceid.solver runs."""
    calls = []
    real = faceid.solver.cho_factor

    def counting(*args, **kwargs):
        calls.append(None)
        return real(*args, **kwargs)

    monkeypatch.setattr(faceid.solver, "cho_factor", counting)
    return calls
