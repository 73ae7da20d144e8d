"""Smoke tests of the benchmark itself (tiny cases, a few seconds each).

Run from the repository root:  python3 -m pytest -q perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RUN = ROOT / "perfbench" / "run.py"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(cwd: Path, workload: str, trace: int):
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    done = _run(ROOT, workload, trace)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, done.stdout
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    assert emitted == {m["name"]: m["unit"] for m in declared}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    # fail_share is 0 when nothing fails, so it is printed for people and
    # carried in the result line as failed / attempted
    assert any(line.split()[:1] == ["fail_share"] and "ratio" in line for line in lines)


def test_all_runs_every_workload():
    done = _run(ROOT, "all", 0)
    assert done.returncode == 0, done.stderr
    results = [json.loads(line) for line in done.stdout.splitlines() if line.startswith("{")]
    assert len(results) == len(WORKLOADS)
    assert all(r["correct"] for r in results)


def test_same_seed_gives_same_masks(tmp_path):
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        import workloads
    finally:
        sys.path.pop(0)
    first = workloads.make_masks(3, tmp_path / "a", smoke=True)
    second = workloads.make_masks(3, tmp_path / "b", smoke=True)
    assert first == second
    for path in sorted((tmp_path / "a").glob("*.json")):
        assert path.read_bytes() == (tmp_path / "b" / path.name).read_bytes()
    assert sum("exact" in r for r in first.values()) == 2


def test_j01_literal_matches_scipy():
    from scipy.special import jn_zeros

    done = subprocess.run(
        [sys.executable, "-c",
         "import sys, workloads; print(repr(workloads.J01), 'scipy.special' in sys.modules)"],
        cwd=ROOT / "perfbench", capture_output=True, text=True, timeout=60, check=True,
    )
    literal, loaded = done.stdout.split()
    # the literal is j01 correctly rounded; jn_zeros may be one ulp off
    assert math.isclose(float(literal), jn_zeros(0, 1)[0], rel_tol=1e-15)
    # the worker imports workloads; it must not add to the program's memory
    assert loaded == "False"


def test_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _run(tmp_path, WORKLOADS[0], 0)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
