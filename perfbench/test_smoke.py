"""Tests of the benchmark itself (kept apart from the package's suite under tests/).

    python3 -m pytest perfbench/test_smoke.py

The smoke run takes about a minute on two cores.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import run as bench
import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def test_declared_metrics_match_emitted_names():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="ascii"))
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.E2E_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        tracer.LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(bench.WORKLOADS)


def test_refuses_to_run_without_the_repository(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "reference",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_smoke_emits_every_metric_with_a_unit():
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--smoke"],
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-4000:]
    assert proc.stdout.strip().splitlines()[-1] == "smoke: PASS"
