"""Fixtures shared across the test suite."""

import pytest

import faceid.solver
from oracle import pinned_logistic_weights


@pytest.fixture
def spy(monkeypatch):
    """spy(name) wraps faceid.solver.<name> for the test and returns the list
    of that function's return values, one entry per call, in call order.
    spy(name, with_args=True) records (args, kwargs, return value) instead,
    and spy(name, record=f) records f(args, kwargs, return value) as the call
    returns: a way to copy an argument the solver mutates later.

    The solver looks its step functions up as module attributes, so this sees
    the calls it makes; it is how perfbench's tracer instruments them too.
    """

    def install(name, with_args=False, record=None):
        returns = []
        real = getattr(faceid.solver, name)

        def recording(*args, **kwargs):
            out = real(*args, **kwargs)
            if record is not None:
                returns.append(record(args, kwargs, out))
            else:
                returns.append((args, kwargs, out) if with_args else out)
            return out

        monkeypatch.setattr(faceid.solver, name, recording)
        return returns

    return install


@pytest.fixture
def frozen_weights(monkeypatch):
    """frozen_weights(mu, eta) pins the logistic (mu, eta) of every weight
    update solve makes for the rest of the test (a later call re-pins), by
    replacing faceid.solver.weight_update with the oracle's
    pinned_logistic_weights. solve then runs its real outer loop under a fixed
    phi, so the oracle objective_value applies. Keep config.weights logistic:
    with the constant kind solve stops after one coding step.
    """

    def install(mu, eta):
        def pinned(residual, wf):
            return pinned_logistic_weights(residual, mu, eta)

        monkeypatch.setattr(faceid.solver, "weight_update", pinned)

    return install
