"""Tests of the helper scripts under tools/."""

import importlib.util
import json
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


def _pairs(parent, change, name="frame_us_p99"):
    """Bench rows of pairs on seeds 0, 1, ... with these metric values."""
    rows = []
    for seed, (p, c) in enumerate(zip(parent, change)):
        rows += [{"side": side, "seed": seed, name: value, "correct": True, "failed": 0, "attempted": 9}
                 for side, value in (("parent", p), ("change", c))]
    return rows


def test_bench_ab_gain_holds_on_nine_tenths_of_pairs_beyond_the_parents_spread():
    bench_ab = _load("bench_ab")
    metric = {"name": "frame_us_p99", "better": "lower", "bound": 0.24}
    parent = [100.0, 101.0, 99.0, 100.5, 99.5, 100.0, 102.0, 98.0, 100.0, 101.0]  # IQR 1.625
    cases = {
        "ten of ten, well apart": ([p - 5 for p in parent], True),
        "nine of ten": ([p - 5 for p in parent[:9]] + [parent[9] + 1], True),
        "eight of ten": ([p - 5 for p in parent[:8]] + [p + 1 for p in parent[8:]], False),
        "ten of ten, within the spread": ([p - 0.5 for p in parent], False),
        "ten of ten the wrong way": ([p + 5 for p in parent], False),
    }
    for name, (change, holds) in cases.items():
        entry = bench_ab.summarize(_pairs(parent, change), [metric])["frame_us_p99"]
        assert entry["gain_holds"] is holds, name
        assert entry["unresolved"] is False, name
    higher = {"name": "frames_per_s", "better": "higher", "bound": 0.24}
    entry = bench_ab.summarize(_pairs(parent, [p + 5 for p in parent], "frames_per_s"), [higher])["frames_per_s"]
    assert entry["gain_holds"] is True


def test_bench_ab_unresolved_when_the_parents_spread_exceeds_the_bound():
    bench_ab = _load("bench_ab")
    metric = {"name": "frame_us_p99", "better": "lower", "bound": 0.1}
    parent = [80.0, 120.0, 90.0, 110.0, 100.0, 130.0, 70.0, 100.0]  # IQR 35, 35% of the median
    cases = {
        "overlapping runs": ([p + 1 for p in parent], True),
        "every change run beats every parent run": ([60.0 - i for i in range(8)], False),
        "every change run loses to every parent run": ([140.0 + i for i in range(8)], True),
    }
    for name, (change, unresolved) in cases.items():
        entry = bench_ab.summarize(_pairs(parent, change), [metric])["frame_us_p99"]
        assert entry["unresolved"] is unresolved, name
    quiet = {"name": "frame_us_p99", "better": "lower", "bound": 0.5}
    assert bench_ab.summarize(_pairs(parent, parent), [quiet])["frame_us_p99"]["unresolved"] is False


def test_timeit_ab_times_every_call_of_the_repo_against_itself(tmp_path, monkeypatch):
    # both sides load this checkout's package, each under its own module name
    timeit_ab = _load("timeit_ab")
    repo = TOOLS.parent
    out = tmp_path / "timeit.json"
    assert timeit_ab.main(["--parent", str(repo), "--change", str(repo), "--rounds", "2", "--frames", "1",
                           "--codes", "mem4-circle20", "--out", str(out)]) == 0
    results = json.loads(out.read_text(encoding="utf-8"))["results"]
    # mem4-circle20 has one bench workload, so simulate times one call a round
    assert [(r["code"], r["call"]) for r in results] == [("mem4-circle20", call) for call in timeit_ab.CALLS]
    assert [r.get("workload") for r in results if r["call"] == "simulate"] == ["mem4-sweep-1to3dB"]
    for r in results:
        for side in ("parent", "change"):
            assert 0 < r[f"{side}_min_us"] <= r[f"{side}_median_us"]
    # the pass is one call that decodes all the open frames as one batch
    tb = timeit_ab.load(repo, "tbtdec_calls")  # a name of its own: a reloaded package lacks its submodule attributes
    frames = timeit_ab.frame_samples(tb, "mem4-circle20", 1.0, 3)
    samples = frames["open"]
    calls = timeit_ab.bind(tb, "mem4-circle20", samples, "decode_frames_exact_ml")
    assert len(calls) == 1
    decoded = calls[0]()
    assert len(decoded) == 3
    ridx = tb.build_context("mem4-circle20").ridx
    for d, r in zip(decoded, samples):
        alone = tb.decode_exact_ml(ridx, tb.edge_weights(ridx.trellis, tb.ReceivedVector(r=r)))
        assert (d.outcomes["exact-ml"].weight, d.outcomes["exact-ml"].subtrellis) == (alone.weight, alone.subtrellis)
    # decode_two_phase is the L1 decoder on a frame phase 1 leaves open
    for call, r in zip(timeit_ab.bind(tb, "mem4-circle20", samples, "decode_two_phase"), samples):
        weights = tb.edge_weights(ridx.trellis, tb.ReceivedVector(r=r))
        assert tb.phase1_decision(ridx, tb.phase1(ridx, weights), weights) is None
        out, alone = call(), tb.decode_two_phase(ridx, weights)
        assert (out.weight, out.stage, out.subtrellis) == (alone.weight, alone.stage, alone.subtrellis)
    # phase1_frame sweeps a fresh one-frame state every call and stops its settled frame
    swept = []
    phase1 = tb.phase1
    monkeypatch.setattr(tb, "phase1", lambda *args: swept.append(phase1(*args)) or swept[-1])
    calls = timeit_ab.bind(tb, "mem4-circle20", frames["settled"], "phase1_frame")
    for _ in range(2):
        for call in calls:
            (stop,) = call()
            assert stop.stage == "phase1"
    assert len(swept) == 6 and len({id(p1) for p1 in swept}) == 6
    assert all(p1.delta_finals.ndim == 1 for p1 in swept)


def test_timeit_ab_times_a_phase1_batch_and_compares_simulate_outputs(tmp_path):
    timeit_ab = _load("timeit_ab")
    repo = TOOLS.parent
    tb = timeit_ab.load(repo, "tbtdec_batch")  # a name of its own: a reloaded package lacks its submodule attributes
    # phase1_batch sweeps one batch of batch_frames frames, open or not, and runs its stop test
    ridx = tb.build_context("mem4-circle20").ridx
    samples = timeit_ab.batch_samples(tb, "mem4-circle20", 3.0)
    assert len(samples) == tb.decoder.batch_frames(ridx)
    calls = timeit_ab.bind(tb, "mem4-circle20", samples, "phase1_batch")
    assert len(calls) == 1
    stops = calls[0]()
    assert len(stops) == len(samples) and 0 < sum(s is None for s in stops) < len(stops)
    # simulate runs the workload's own call in process, and a side whose bytes differ is told apart
    assert list(timeit_ab.workloads("mem4-circle20")) == ["mem4-sweep-1to3dB"]
    wl = timeit_ab.workloads("mem4-circle20")["mem4-sweep-1to3dB"]
    dirs = {side: tmp_path / side for side in ("parent", "change")}
    for side, d in dirs.items():
        d.mkdir()
        (call,) = timeit_ab.bind_simulate(tb, wl, d)
        call()
    assert sorted(p.name for p in dirs["change"].iterdir()) == ["mismatch.jsonl", "out.csv"]
    assert timeit_ab.same_outputs(dirs)
    csv = dirs["change"] / "out.csv"
    csv.write_text(csv.read_text(encoding="utf-8") + "# edited\n", encoding="utf-8")
    assert not timeit_ab.same_outputs(dirs)
