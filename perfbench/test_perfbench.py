"""Benchmark self-test: one instance per workload through the timed and the
traced path, checking that every metric named in BENCHMARK.json is emitted
with its unit.  Run with ``python -m pytest perfbench``."""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from run import check_system  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    BENCH = json.load(_fh)


def _run(workload: str, trace: int) -> dict:
    argv = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
            "--seed", "1", "--seconds", "0", "--trace", str(trace)]
    out = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_every_metric_emitted_with_its_unit(workload, trace):
    result = _run(workload, trace)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == 1 + trace  # a traced run also solves untraced
    wanted = BENCH["per_layer" if trace else "end_to_end"]
    assert {k: m["unit"] for k, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted
    }
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    if trace and workload == "sc-audited":
        # the audit reaches the kernel through by-name imports in two modules
        assert result["metrics"]["connectivity.is_k_strong.calls"]["value"] >= 1
        assert result["metrics"]["kernel.local_connectivity.calls"]["value"] > 100


def test_checker_rejects_bad_path_systems():
    arcs = {(0, 1), (1, 2), (2, 3), (3, 0), (0, 2), (4, 5)}
    pairs = [(0, 2), (4, 5)]
    assert check_system(arcs, pairs, {"paths": [[0, 1, 2], [4, 5]]}) is None
    assert "not in the input" in check_system(arcs, pairs, {"paths": [[0, 3, 2], [4, 5]]})
    assert "no path" in check_system(arcs, pairs, {"paths": [[0, 1], [4, 5]]})
    assert "meets" in check_system(arcs, [(0, 2), (1, 3)], {"paths": [[0, 1, 2], [1, 2, 3]]})
    assert "not simple" in check_system(arcs, [(0, 2)], {"paths": [[0, 1, 2, 3, 0, 2]]})
    assert "paths for" in check_system(arcs, pairs, {"paths": [[0, 2]]})


def test_tracer_reports_missing_functions_as_absent(monkeypatch):
    import tracing
    from workloads import import_klinkage

    kl = import_klinkage()
    original = kl.connectivity.is_k_strong
    monkeypatch.setitem(tracing.TRACED, "digraph", ("spanning_tournament", "no_such_function"))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert kl.linkage_semicomplete.is_k_strong is not original
        kl.linkage_semicomplete.is_k_strong(kl.random_tournament(9, 1), 1)
    finally:
        tracer.uninstall()
    assert kl.connectivity.is_k_strong is original
    assert kl.linkage_semicomplete.is_k_strong is original
    metrics = tracer.metrics()
    assert metrics["connectivity.is_k_strong.calls"] == 1
    assert metrics["kernel.local_connectivity.calls"] >= 1
    assert metrics["digraph.spanning_tournament.calls"] == 0
    assert metrics["digraph.no_such_function.calls"] is None
    assert metrics["digraph.no_such_function.self_s"] is None
