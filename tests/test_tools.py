"""Tests of the helper scripts under tools/."""

import importlib.util
from pathlib import Path

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_ab_summary_reports_each_sides_checks():
    # a change that wins every pair on runs that failed their checks must
    # say so next to its medians
    bench_ab = _load("bench_ab")
    rows = []
    for seed, (parent, change) in enumerate([(100.0, 120.0), (110.0, 130.0), (90.0, 125.0)]):
        rows.append({"side": "parent", "seed": seed, "frames_per_s": parent,
                     "correct": True, "failed": 0, "attempted": 50})
        rows.append({"side": "change", "seed": seed, "frames_per_s": change,
                     "correct": seed != 1, "failed": 3 * (seed == 1), "attempted": 50})
    metric = {"name": "frames_per_s", "better": "higher", "bound": 0.2}
    summary = bench_ab.summarize(rows, [metric])
    assert summary["pairs"] == 3
    assert (summary["parent_failed"], summary["parent_all_correct"]) == (0, True)
    assert (summary["change_failed"], summary["change_all_correct"]) == (3, False)
    assert summary["frames_per_s"]["change_better_pairs"] == 3
    assert bench_ab.flat({"metrics": {"frames_per_s": {"value": 1.0}}, "correct": False,
                          "failed": 2, "attempted": 9}) == {
        "frames_per_s": 1.0, "correct": False, "failed": 2, "attempted": 9}
