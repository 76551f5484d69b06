"""Smoke tests of the pipeline benchmark at tiny sizes.

Run from the repository root: python3 -m pytest -q perfbench/test_smoke.py
"""

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

TINY = {"wspd-exact": 200, "forest-lsh": 200, "cech-slices": 40}


def _units(result):
    return {name: m["unit"] for name, m in result["metrics"].items()}


@pytest.mark.parametrize("workload", sorted(TINY))
def test_end_to_end_metrics(workload):
    out = run.bench(workload, seed=3, seconds=0, trace=False, n=TINY[workload])
    result = out["result"]
    assert result["correct"], out["report"]["failures"]
    assert result["failed"] == 0 and result["attempted"] >= run.MIN_PASSES
    assert _units(result) == run.END_TO_END_UNITS
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", sorted(TINY))
def test_per_layer_metrics_and_counts_repeat(workload):
    out = run.bench(workload, seed=3, seconds=0, trace=True, n=TINY[workload])
    result, report = out["result"], out["report"]
    assert result["correct"], report["failures"]
    assert _units(result) == run.PER_LAYER_UNITS
    assert report["missing"] == []
    passes = report["per_pass"]
    assert len(passes) >= run.MIN_PASSES
    for name, unit in run.PER_LAYER_UNITS.items():
        if unit == "count":
            assert len({p.get(name, 0) for p in passes}) == 1, name
    metrics = result["metrics"]
    if workload == "forest-lsh":
        assert metrics["lsh.indexes"]["value"] == 2 and metrics["lsh.concat_k"]["value"] >= 1
        assert metrics["lsh.candidates_scanned"]["value"] > 0
    else:
        assert metrics["lsh.indexes"]["value"] == 0
    if workload == "cech-slices":
        assert metrics["geometry.exact_meb_calls"]["value"] > 0
        assert metrics["cech.slices"]["value"] == 8


def test_vanished_target_is_reported_missing(monkeypatch):
    pipeline, tracing = run.import_package()
    gone = ("forest.gone", tracing.SPAN, None, [("scalenets.forest", "no_such_function")])
    monkeypatch.setattr(tracing, "TARGETS", tracing.TARGETS + [gone])
    tracer = tracing.Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.missing == {"scalenets.forest:no_such_function"}
    assert tracer.missing_layers() == ["forest.gone"]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(Path(run.__file__).parent, tmp_path / "perfbench")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cech-slices", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())
