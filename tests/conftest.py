"""Fixtures shared across the test suite."""

import pytest

import faceid.solver


@pytest.fixture
def spy(monkeypatch):
    """spy(name) wraps faceid.solver.<name> for the test and returns the list
    of that function's return values, one entry per call, in call order.
    spy(name, with_args=True) records (args, kwargs, return value) instead.

    The solver looks its step functions up as module attributes, so this sees
    the calls it makes; it is how perfbench's tracer instruments them too.
    """

    def install(name, with_args=False):
        returns = []
        real = getattr(faceid.solver, name)

        def recording(*args, **kwargs):
            out = real(*args, **kwargs)
            returns.append((args, kwargs, out) if with_args else out)
            return out

        monkeypatch.setattr(faceid.solver, name, recording)
        return returns

    return install
