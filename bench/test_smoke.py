"""Smoke test of the benchmark itself: ``pytest bench/`` (under 30 s).

Outside tier-1 ``testpaths``.  Runs every workload at 2% of its size
and checks that the benchmark and ``BENCHMARK.json`` agree.
"""

import json
import re
import shutil
import subprocess
import sys

import pytest

from bench import ROOT
from bench.harness import measure, rep
from bench.layers import per_layer
from bench.workloads import WORKLOADS

SCALE = 0.02
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def declared(group):
    return {m["name"] for m in SPEC[group]}


def test_spec_is_within_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert SPEC["command"] == ["python3", "bench/run.py"]
    assert SPEC["paths"] == ["bench"]
    assert 1 <= SPEC["run_seconds"] <= 60
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in SPEC["workloads"])
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    names = [m["name"] for g in ("workloads", "end_to_end", "per_layer")
             for m in SPEC[g]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names)
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s"
    assert setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_workload_emits_every_declared_metric(name):
    workload = WORKLOADS[name]
    run = measure(workload, workload.seed, scale=SCALE, reps=1)
    # More than BENCHMARK.json can list (README, "End-to-end metrics").
    assert set(run["metrics"]) == declared("end_to_end") | {
        "sim_lat_p50_ms", "sim_lat_p99_ms", "failed_ops_frac"}
    assert run["failed"] == 0 and run["attempted"] >= 1
    layers = per_layer(workload, workload.seed, SCALE)
    assert set(layers["metrics"]) == declared("per_layer")
    units = {m["name"]: m["unit"] for g in ("end_to_end", "per_layer")
             for m in SPEC[g]}
    for result in (run, layers):
        for metric, m in result["metrics"].items():
            assert NAME.fullmatch(metric)
            assert m["unit"] == units.get(metric, m["unit"])
    shares = sum(m["value"] for metric, m in layers["metrics"].items()
                 if metric.startswith("layer."))
    assert shares == pytest.approx(1.0, abs=0.01)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_digest_follows_the_seed(name):
    workload = WORKLOADS[name]
    first = rep(workload, workload.seed, SCALE)
    again = rep(workload, workload.seed, SCALE, verify=False)
    other = rep(workload, workload.seed + 1, SCALE, verify=False)
    assert first.digest == again.digest
    assert first.digest != other.digest


def run_py(cwd, *args):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "fs_create",
         "--seed", "3", "--seconds", "0.1", "--scale", str(SCALE), *args],
        cwd=cwd, capture_output=True, text=True, timeout=120)


def test_entry_point_prints_the_result_last():
    done = run_py(ROOT, "--trace", "0")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert set(result["metrics"]) == declared("end_to_end")


def test_entry_point_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", "results"))
    done = run_py(tmp_path, "--trace", "0")
    assert done.returncode != 0
    assert not done.stdout.strip()
