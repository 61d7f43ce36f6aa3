"""Smoke test of the benchmark at tiny sizes; asserts no timings.

Run from the repository root with ``python3 -m pytest bench/test_bench.py``.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from pairs import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_all(trace: int) -> str:
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--seed", "3", "--seconds", "0.2",
         "--trace", str(trace)],
        capture_output=True, text=True, timeout=600, cwd=ROOT,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    return done.stdout


def printed_rows(stdout: str) -> dict[str, list[tuple[str, str]]]:
    """Per workload: the (name, unit) of every printed metric row."""
    rows: dict[str, list[tuple[str, str]]] = {}
    current = None
    for line in stdout.splitlines():
        if line.startswith("== "):
            current = rows.setdefault(line[3:], [])
        elif current is not None and not line.startswith(("env ", "{", "failure:", "output_sha256")):
            name, value, unit = line.split()[:3]
            float(value)
            current.append((name, unit))
    return rows


@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_every_workload_prints_every_metric_and_passes(trace, kind):
    stdout = run_all(trace)
    expected = {(m["name"], m["unit"]) for m in SPEC[kind]}
    rows = printed_rows(stdout)
    assert {w["name"] for w in SPEC["workloads"]} <= set(WORKLOADS)
    assert sorted(rows) == sorted(WORKLOADS)
    results = json.loads(stdout.splitlines()[-1])
    for name, printed in rows.items():
        assert expected | {("fail_rate", "ratio")} == set(printed), name
        result = results[name]
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert {(k, v["unit"]) for k, v in result["metrics"].items()} == expected
    for line in stdout.splitlines():
        if line.startswith("fail_rate"):
            assert float(line.split()[1]) == 0.0
    if trace:
        for name in rows:
            assert (BENCH / "out" / f"spans-{name}-seed3.jsonl").is_file()


def test_refuses_to_run_without_the_package(tmp_path):
    (tmp_path / "bench").mkdir()
    for path in BENCH.glob("*.py"):
        (tmp_path / "bench" / path.name).write_text(path.read_text())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "fuzz_full", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=120, cwd=tmp_path,
    )
    assert done.returncode != 0
    assert not done.stdout.strip()
