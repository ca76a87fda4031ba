"""Tests of the benchmark itself: its checks, its tracer and its command.

    python3 -m pytest perfbench -q

Not part of the package's test suite (``pytest`` alone collects ``tests/``).
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import tracing  # noqa: E402
import workloads  # noqa: E402
from invbargraph import gfseries, recur  # noqa: E402
from invbargraph.mpoly import MPoly  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]

# Counters that must come out identical whenever the same inputs are traced.
EXACT = ("kernel.sequences", "recur.table_terms", "mpoly.eval_terms", "verify.checks",
         "gfseries.mul_calls", "gfseries.inv_calls", "gfseries.compose_calls",
         "mpoly.mul_calls", "mpoly.add_calls", "mpoly.eval_rational_calls",
         "invseq.stats_calls", "bijections.map_calls")


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """One untraced output per workload, shared by the check tests."""
    scratch = tmp_path_factory.mktemp("scratch")
    made = {}
    for name in NAMES:
        workload = workloads.WORKLOADS[name](scratch)
        made[name] = (workload, workload.run(workload.make_inputs(7)))
    return made


def _traced(name: str, seed: int, scratch: Path) -> dict:
    workload = workloads.WORKLOADS[name](scratch)
    inputs = workload.make_inputs(seed)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        workload.run(inputs)
    finally:
        tracer.uninstall()
    return tracer.layer_metrics()


def test_spec_names_match_the_code():
    assert sorted(NAMES) == sorted(workloads.WORKLOADS)
    per_layer = {m["name"] for m in SPEC["per_layer"]}
    assert per_layer == set(tracing.Tracer().layer_metrics()) | {"trace.overhead_ratio"}
    assert set(EXACT) <= per_layer


@pytest.mark.parametrize("name", NAMES)
def test_outputs_pass_their_checks(outputs, name):
    workload, out = outputs[name]
    failed = [check for check, ok in workload.check(out) if not ok]
    assert failed == []


@pytest.mark.parametrize("name", NAMES)
def test_negative_control_is_caught(outputs, name):
    workload, out = outputs[name]
    failed = [check for check, ok in workload.check(workload.corrupt(out)) if not ok]
    assert len(failed) == 1, failed


def test_backend_disagreement_is_caught(outputs, monkeypatch):
    """A compiled kernel whose counts differ from _kernel_py's must fail the check."""
    _, out = outputs["brute-oracle"]
    fresh = workloads.BruteOracle(Path("."))
    monkeypatch.setattr(workloads.kernel, "BACKEND", "compiled")
    monkeypatch.setattr(workloads.kernel, "lda_counts", lambda n: {})
    failed = [check for check, ok in fresh.check(out) if not ok]
    assert failed == ["compiled kernel = pure kernel"]


def test_tracer_restores_every_original():
    before = (MPoly.__dict__["__add__"], MPoly.__dict__["from_text"], recur.a_table_lemma,
              dict(gfseries._TOTAL_GF_BUILDERS))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert recur.a_table_lemma is not before[2]
        assert gfseries._TOTAL_GF_BUILDERS["area"][0] is not before[3]["area"][0]
        assert MPoly.from_text("p*q^2") == MPoly.monomial(1, p=1, q=2)
    finally:
        tracer.uninstall()
    after = (MPoly.__dict__["__add__"], MPoly.__dict__["from_text"], recur.a_table_lemma,
             dict(gfseries._TOTAL_GF_BUILDERS))
    assert after == before
    assert tracer.layer_metrics()["mpoly.text_s"] > 0


@pytest.mark.parametrize("name", NAMES)
def test_exact_counters_repeat_between_traced_runs(tmp_path, name):
    first = _traced(name, 11, tmp_path)
    second = _traced(name, 11, tmp_path)
    assert {k: first[k] for k in EXACT} == {k: second[k] for k in EXACT}
    if name == "brute-oracle":
        # Each brute table walks lengths 1..n; the totals walk length n once per kernel.
        n = workloads.BruteOracle.sizes["n"]
        walked = 2 * sum(math.factorial(m) for m in range(1, n + 1)) + 2 * math.factorial(n)
        assert first["kernel.sequences"] == walked
    if name == "verify-deep":
        assert first["verify.checks"] == len(workloads.VERIFY_FORMULA_IDS)
        assert first["mpoly.eval_terms"] > 0 and first["gfseries.compose_calls"] > 0
    if name == "tables-deep":
        assert first["kernel.sequences"] == 0 and first["gfseries.mul_calls"] == 0


def test_command_prints_the_end_to_end_metrics():
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "brute-oracle", "--seed", "3",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=170, check=False)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    for name in ("wall_s_tail", "checks_failed_ratio"):
        assert name in proc.stdout


def test_command_fails_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", NAMES[0], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170, check=False)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())
