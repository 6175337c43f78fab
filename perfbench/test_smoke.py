"""Smoke test of the benchmark: every workload on tiny inputs, all checks on.

    python -m pytest perfbench/test_smoke.py
"""

import json
import os
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def test_smoke_runs_every_workload_with_checks():
    proc = bench("--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    # 4 workloads, traced and untraced: decoy 3 rows, montecarlo 4 channels,
    # finite-key 2 blocks x 2 error rates, verify 1 run
    assert result["attempted"] == 2 * (3 + 4 + 4 + 1)
    # the 250 km and 500 km decoy rows miss the 1e-9 reference tolerance
    assert result["failed"] == 2 * 2
    for workload in run.WORKLOADS:
        for metric in run.SPEC["end_to_end"] + run.SPEC["per_layer"]:
            value = result["metrics"][f"{workload}.{metric['name']}"]
            assert value["unit"] == metric["unit"]


def test_benchmark_json_matches_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        assert json.load(handle) == run.SPEC
    spec = run.SPEC
    assert 1 <= spec["run_seconds"] <= 60
    names = [w["name"] for w in spec["workloads"]]
    for metric in spec["end_to_end"] + spec["per_layer"]:
        names.append(metric["name"])
        assert UNIT.fullmatch(metric["unit"]) and metric["better"] in ("lower", "higher")
    assert all(NAME.fullmatch(n) for n in names) and len(set(names)) == len(names)
    assert all(len(w["why"]) <= 200 for w in spec["workloads"])
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])


def test_fails_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = bench("--workload", "montecarlo", "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout == ""
