"""Self-test of the benchmark: quick runs emit every named metric with its
unit, and a corrupted reference is reported as a failure.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN = HERE / "run.py"
REFERENCE = HERE / "reference" / "closed_forms.json"

sys.path.insert(0, str(HERE))

from layers import LAYER_METRICS  # noqa: E402
from run import E2E_UNITS  # noqa: E402
from workloads import GATED, WORKLOADS  # noqa: E402


def _run(workload: str, trace: int, *extra: str) -> tuple[int, dict, str]:
    done = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", "3", "--seconds", "1",
         "--trace", str(trace), "--quick", *extra],
        capture_output=True, text=True, timeout=300, cwd=ROOT,
    )
    lines = done.stdout.strip().splitlines()
    return done.returncode, json.loads(lines[-1]), done.stdout


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(GATED)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == E2E_UNITS
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == LAYER_METRICS


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_quick_run_emits_every_metric(workload, trace):
    rc, result, _ = _run(workload, trace)
    assert rc == 0
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    units = E2E_UNITS if trace == 0 else {name: unit for name, unit, _ in LAYER_METRICS}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == units
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_corrupted_reference_fails_the_run(tmp_path):
    reference = json.loads(REFERENCE.read_text(encoding="utf-8"))
    key = "analytic --policy scpr --buffered true --p 0.9 --mu 0.99 --x 5 --y 5 --tc 5"
    name, claim, value = reference[key]["lines"][0].split()
    reference[key]["lines"][0] = f"{name} {claim} {float(value) * (1 + 1e-6)!r}"
    corrupted = tmp_path / "closed_forms.json"
    corrupted.write_text(json.dumps(reference), encoding="utf-8")

    rc, result, stdout = _run("closed_forms", 0, "--reference", str(corrupted))
    assert rc != 0
    assert not result["correct"] and result["failed"] >= 1
    assert "CHECK FAILED" in stdout and key in stdout
