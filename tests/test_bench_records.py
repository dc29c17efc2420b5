"""Committed speed records: every root BENCH_*.json is complete and names only
what BENCHMARK.json declares.

A record holds, per gated workload, the medians of every end-to-end metric
before and after the change ("before"/"after"), optionally the runs behind
them ("runs"), their quartiles ("quartiles") and a traced run per side
("traced"), plus the environment the numbers came from. BENCHMARK.json is
only read here.
"""

import json
import math
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RECORDS = sorted(ROOT.glob("BENCH_*.json"))
SIDES = ("before", "after")
ENVIRONMENT = ("blas_threads", "python", "numpy", "scipy")


def _benchmark():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = {w["name"] for w in spec["workloads"]}
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    per_layer = {m["name"] for m in spec["per_layer"]}
    return workloads, end_to_end, end_to_end | per_layer


def _number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)


def _side_tables(entry):
    """(label, {metric: value or list}) for every per-side table of an entry."""
    for side in SIDES:
        yield side, entry.get(side, {})
        for group in ("runs", "quartiles", "traced"):
            if group in entry:
                yield f"{group}.{side}", entry[group].get(side, {})


@pytest.mark.parametrize("path", RECORDS, ids=[p.name for p in RECORDS])
def test_bench_record_is_complete(path):
    record = json.loads(path.read_text())
    workloads, end_to_end, metrics = _benchmark()

    env = record.get("environment", {})
    missing = [key for key in ENVIRONMENT if key not in env]
    assert not missing, f"environment lacks {missing}"
    assert isinstance(env["blas_threads"], int) and env["blas_threads"] >= 1
    for lib in ENVIRONMENT[1:]:
        assert isinstance(env[lib], str) and env[lib], f"no {lib} version"

    entries = record.get("workloads", {})
    assert set(entries) <= workloads, f"unknown workloads {sorted(set(entries) - workloads)}"
    assert workloads <= set(entries), f"gated workloads without values {sorted(workloads - set(entries))}"
    for name, entry in entries.items():
        for side in SIDES:
            values = entry.get(side, {})
            absent = sorted(end_to_end - set(values))
            assert not absent, f"{name}.{side} lacks {absent}"
            bad = [m for m in end_to_end if not _number(values[m])]
            assert not bad, f"{name}.{side} has non-numeric {bad}"
        for label, table in _side_tables(entry):
            unknown = sorted(set(table) - metrics)
            assert not unknown, f"{name}.{label} names metrics BENCHMARK.json lacks: {unknown}"
