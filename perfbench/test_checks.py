"""Each benchmark check accepts the program's real output and rejects a wrong one.

Run with `PYTHONPATH=src python -m pytest perfbench`.
"""

import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from faceid import classify, experiment, model, solver

import checks
import tracing


@pytest.fixture(scope="module", params=["F-IRNNLS", "F-LR-IRNNLS"])
def outcome(request):
    ds = experiment.make_synthetic_benchmark(classes=3, per_class=5, geometry=model.ImageGeometry(8, 7), seed=3)
    T = model.build_dictionary(ds.train, ds.train_labels)
    config = solver.method_config(request.param, gamma=0.6)
    y = ds.test[4].normalized()
    result = solver.solve(y, T, config)
    predicted = classify.identify(y, T, result).predicted
    assert result.inner_converged[-1]
    return dict(
        y=y.values, columns=T.columns, labels=T.labels, a=result.a, e=result.e,
        w=result.w.values, predicted=predicted, last_step_converged=True, config=config,
    )


def test_real_output_passes(outcome):
    assert checks.check_probe(**outcome) == []


def test_wrong_prediction_rejected(outcome):
    wrong = (outcome["predicted"] + 1) % 3
    assert checks.check_probe(**{**outcome, "predicted": wrong})


@pytest.mark.parametrize("bad", [0.0, 1.5, np.nan, np.inf])
def test_weight_outside_unit_interval_rejected(outcome, bad):
    w = outcome["w"].copy()
    w[7] = bad
    assert checks.check_probe(**{**outcome, "w": w})


def test_unconverged_fit_rejected(outcome):
    e = outcome["e"].copy()
    e[0] += 2.0 * outcome["config"].eps1
    assert checks.check_probe(**{**outcome, "e": e})
    # An unconverged last step is not held to eps1.
    assert checks.check_probe(**{**outcome, "e": e, "last_step_converged": False}) == []


def test_negative_code_rejected_for_nonneg_only(outcome):
    a = outcome["a"].copy()
    a[-1] = -2.0 * outcome["config"].eps2
    e = outcome["y"] - outcome["columns"] @ a  # keep the fit exact
    assert any("min(a)" in m for m in checks.check_probe(**{**outcome, "a": a, "e": e}))
    l2 = replace(outcome["config"], regularizer="l2")
    assert not any("min(a)" in m for m in checks.check_probe(**{**outcome, "a": a, "e": e, "config": l2}))


def test_accuracy_floor():
    assert checks.check_accuracy(0.85, 0.85) == []
    assert checks.check_accuracy(0.845, 0.85)


def test_oracle_agreement_threshold():
    assert checks.check_oracle_agreement(14, 16) == []
    assert checks.check_oracle_agreement(13, 16)


def test_nnls_class_matches_full_nnls_and_program(outcome):
    y, columns, labels, w = outcome["y"], outcome["columns"], outcome["labels"], outcome["w"]
    from scipy.optimize import nnls

    sw = np.sqrt(w)
    a, _ = nnls(sw[:, None] * columns, sw * y)
    full = int(np.argmin(checks.class_residuals(y, columns, labels, a, w)))
    assert checks.nnls_class(y, columns, labels, w) == full
    if not outcome["config"].low_rank:
        assert full == outcome["predicted"]


def test_tracer_times_nested_calls_and_restores(outcome):
    before = solver.svt
    tracer = tracing.Tracer()
    T = model.Dictionary(outcome["columns"], outcome["labels"], model.ImageGeometry(8, 7), (0, 1, 2), 12)
    with tracer.installed():
        assert solver.svt is not before
        solver.solve(outcome["y"], T, outcome["config"])
    assert solver.svt is before
    assert tracer.absent == []
    assert tracer.calls["solver.solve"] == 1
    assert tracer.calls["solver.e_update"] == tracer.calls["solver.dual_update"] > 0
    assert (tracer.calls["prox.svt"] > 0) == outcome["config"].low_rank
    for name in tracer.calls:
        assert 0 <= tracer.self_ns[name] <= tracer.total_ns[name]
    assert tracer.total_ns["solver.solve"] >= tracer.total_ns["solver.coding_step"]


def test_missing_target_is_absent(monkeypatch):
    monkeypatch.setattr(tracing, "TARGETS", tracing.TARGETS + (("faceid.solver", "no_such_step", "solver.gone"),))
    tracer = tracing.Tracer()
    with tracer.installed():
        pass
    assert tracer.absent == ["solver.gone"]
