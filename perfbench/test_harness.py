"""Self-test of the benchmark harness (run it by path; tier-1 does not collect it)::

    python -m pytest perfbench/test_harness.py -q

Every workload runs at its tiny size, untraced and traced, and must emit
exactly the metrics ``BENCHMARK.json`` declares, with their units.  After a
traced run every wrapped entry point must be the original object again.
"""

from __future__ import annotations

import io
import json
import shutil
import subprocess
import sys
from contextlib import redirect_stdout

import pytest

import run

if str(run.SRC) not in sys.path:
    sys.path.insert(0, str(run.SRC))

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [workload["name"] for workload in BENCHMARK["workloads"]]


def tiny_run(workload: str, trace: int) -> dict:
    stdout = io.StringIO()
    with redirect_stdout(stdout):
        code = run.main(
            ["--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace), "--tiny"]
        )
    assert code == 0
    return json.loads(stdout.getvalue().strip().splitlines()[-1])


def check_result(result: dict, declared: list[dict]) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert {name: metric["unit"] for name, metric in result["metrics"].items()} == {
        metric["name"]: metric["unit"] for metric in declared
    }
    assert all(isinstance(metric["value"], float) for metric in result["metrics"].values())


def entry_points() -> dict[tuple[type, str], object]:
    """Every class attribute the tracer wraps, as its class dict holds it."""
    from spans import Tracer, install_layer_wrappers

    tracer = Tracer()
    install_layer_wrappers(tracer)
    owners = tracer.installed
    assert tracer.uninstall() == []
    return {(owner, attr): owner.__dict__.get(attr) for owner, attr in owners}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_emits_every_end_to_end_metric(workload):
    result = tiny_run(workload, trace=0)
    check_result(result, BENCHMARK["end_to_end"])
    assert all(metric["value"] > 0 for metric in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_emits_every_layer_metric_and_unwraps(workload):
    before = entry_points()
    assert len(before) >= 12
    result = tiny_run(workload, trace=1)
    check_result(result, BENCHMARK["per_layer"])
    after = {key: key[0].__dict__.get(key[1]) for key in before}
    assert all(after[key] is before[key] for key in before)


def test_worker_layers_are_reported_not_visible():
    result = tiny_run("sweep", trace=1)
    metrics = result["metrics"]
    assert metrics["sim.self_s"]["value"] == -1.0
    assert metrics["sim.events"]["value"] > 0
    assert metrics["runner.run_s"]["value"] > 0


def test_exits_nonzero_without_the_library(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        run.ROOT / "perfbench", tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paper", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout
