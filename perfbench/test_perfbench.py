"""Tests of the benchmark itself: its correctness gate and its contract.

    python3 -m pytest -q perfbench/test_perfbench.py

Each test starts the benchmark as a user would and reads the JSON result on
the last line of its stdout.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402
from worker import WORKLOADS  # noqa: E402


def bench(*args: str, cwd: Path = ROOT, script: Path = HERE / "run.py"):
    proc = subprocess.run([sys.executable, str(script), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if proc.returncode == 0 else None
    return proc, result


def copy_benchmark(tmp_path: Path, with_program: bool = True) -> Path:
    """A copy of the benchmark in ``tmp_path``, run from there; ``src`` is
    linked to this checkout's unless ``with_program`` is False.  Returns
    the copy's ``run.py``."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    if with_program:
        (tmp_path / "src").symlink_to(ROOT / "src", target_is_directory=True)
    return tmp_path / HERE.name / "run.py"


def tampered(tmp_path: Path, edit) -> Path:
    """A copy of the benchmark whose expected outputs ``edit`` changed."""
    script = copy_benchmark(tmp_path)
    edit(script.parent / "expected")
    return script


def test_gate_passes_on_the_committed_outputs():
    proc, result = bench("--workload", "verify-default", "--seed", "0",
                         "--seconds", "1", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    assert set(result["metrics"]) == {m["name"] for m in _benchmark()["end_to_end"]}


def test_gate_catches_a_wrong_verify_output(tmp_path):
    def edit(expected: Path) -> None:
        path = expected / "verify.json"
        runs = json.loads(path.read_text())
        runs["verify-default"][0][3] = "PASS counts n=4 max_m=23"
        path.write_text(json.dumps(runs))

    proc, result = bench("--workload", "verify-default", "--seed", "0",
                         "--seconds", "1", "--trace", "0", cwd=tmp_path,
                         script=tampered(tmp_path, edit))
    assert proc.returncode == 0, proc.stderr
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 2
    assert "differs from the expected output" in proc.stderr


def test_gate_catches_a_wrong_query_digest(tmp_path):
    def edit(expected: Path) -> None:
        path = expected / "query-mix-seed0.json"
        saved = json.loads(path.read_text())
        saved["stdout"][7] = "0" * 16
        path.write_text(json.dumps(saved))

    proc, result = bench("--workload", "query-mix", "--seed", "0",
                         "--seconds", "1", "--trace", "0", cwd=tmp_path,
                         script=tampered(tmp_path, edit))
    assert proc.returncode == 0, proc.stderr
    assert not result["correct"] and result["failed"] >= 1
    assert "digest differs from the committed one" in proc.stderr


def test_fails_without_the_program(tmp_path):
    proc, result = bench("--workload", "verify-default", "--seed", "0",
                         "--seconds", "1", "--trace", "0", cwd=tmp_path,
                         script=copy_benchmark(tmp_path, with_program=False))
    assert proc.returncode != 0 and result is None
    assert not proc.stdout.strip().startswith("{")


def _benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_names_what_the_runs_print():
    spec = _benchmark()
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    layer = [m["name"] for m in spec["per_layer"]]
    assert layer == tracer.metric_names() + ["trace_overhead_ratio",
                                             "verify.verify_euler.growth_exp"]
