"""Smoke test for the benchmark itself, at a tiny frame count.

    python3 -m pytest -q bench/test_smoke.py
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import measure  # noqa: E402
import pipeline  # noqa: E402
import run  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)
    monkeypatch.setattr(measure, "SETUP_REPS", 1)
    monkeypatch.setattr(measure, "BUILD_REPS", 1)
    monkeypatch.setattr(measure, "MIN_LATENCY_SAMPLES", 1)
    for wl in run.WORKLOADS.values():
        monkeypatch.setitem(wl, "frames_per_call", 4)
        monkeypatch.setitem(wl, "count_calls", 1)


def _run(capsys, workload: str, trace: int):
    argv = ["--workload", workload, "--seed", "7", "--seconds", "0", "--trace", str(trace)]
    assert run.main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    return "\n".join(lines[:-1]), json.loads(lines[-1])


def _printed(report: str, metric: str, unit: str) -> float:
    match = re.search(rf"^\s+{re.escape(metric)}\s+(\S+)\s+{re.escape(unit)}(\s|$)", report, re.M)
    assert match, f"{metric} [{unit}] not printed"
    return float(match.group(1))


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_every_metric_is_printed_with_its_unit(tiny, capsys, workload, trace):
    report, result = _run(capsys, workload, trace)
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    for metric, unit in declared.items():
        _printed(report, metric, unit)
    assert _printed(report, "failed_frac", "ratio") == 0.0
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0


def test_corrupted_tally_makes_failed_frac_nonzero(tiny, capsys, monkeypatch):
    honest = pipeline.tally_frame

    def corrupted(tallies, frame, outcomes):
        honest(tallies, frame, outcomes)
        tallies[(frame.point, pipeline.L1)].bit_errors += 1

    monkeypatch.setattr(pipeline, "tally_frame", corrupted)
    report, result = _run(capsys, "mem4-sweep-1to3dB", 0)
    assert _printed(report, "failed_frac", "ratio") > 0
    assert not result["correct"] and result["failed"] > 0


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "mem6-L1-4dB", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
