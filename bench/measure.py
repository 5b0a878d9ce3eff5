"""The two kinds of benchmark run: end-to-end (tracing off) and traced.

Both replay the frames of a sequence of ``tbtdec simulate`` calls.  Call i
uses seed ``pipeline.call_seed(seed, i)`` and ``frames_per_call`` frames at
each Eb/N0 point of the workload, so a run's inputs depend only on ``--seed``.
"""

from __future__ import annotations

import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

import tbtdec as tb
from tbtdec import cli

import pipeline as pl
from tracing import Tracer, null_span

SRC = Path(tb.__file__).resolve().parent.parent

SETUP_REPS = 9  # cold-process set-ups per run; setup_s is their median
BUILD_REPS = 5  # in-process trellis builds behind trellis.build_ms
MIN_LATENCY_SAMPLES = 1000  # so that at least 10 samples lie beyond p99
MIN_COVERAGE = 0.9  # spans must cover this share of the traced loop's wall

# Traced span names behind each per-layer time metric.
LAYER_SPANS = {
    "codes.encode": ("codes.encode_conv_tailbiting",),
    "channel.noise": ("channel.random_bits", "channel.bpsk_modulate", "channel.awgn_transmit"),
    "channel.edge_weights": ("channel.edge_weights",),
    "decoder.phase1": ("decoder.phase1",),
    "decoder.phase1_decision": ("decoder.phase1_decision",),
    "decoder.phase2": ("decoder.phase2",),
    "decoder.final_decision": ("decoder.final_decision",),
    "decoder.two_phase_L2": ("decoder.decode_two_phase_L2",),
    "decoder.exact_ml": ("decoder.decode_exact_ml",),
    "diagnostics.all_pairs": ("diagnostics.all_pairs_start_final_distances",),
    "diagnostics.witness": ("diagnostics.crossing_pair_witness",),
    "diagnostics.log_write": ("diagnostics.write_mismatch_reports",),
}


class Checks:
    """Frames checked, frames that failed a check, and run-level problems."""

    def __init__(self):
        self.attempted = 0
        self.failed: set = set()
        self.problems: list[str] = []

    def frame(self, ctx, frame: pl.Frame, outcomes: dict) -> None:
        self.attempted += 1
        failures = pl.check_frame(ctx, frame, outcomes)
        if failures:
            self.failed.add(frame.key)
            self.problems.append(f"frame {frame.key}: {', '.join(failures)}")

    def call(self, wl: dict, call: int, rows: list, tallies: dict, log_path) -> None:
        """Compare one simulate call's CSV and mismatch log with the recount."""
        for point, name, detail in pl.compare_rows(wl, rows, tallies):
            self.failed.update(tallies.get((point, name), pl.Tally()).frame_keys)
            self.problems.append(f"call {call} point {point} {name}: {detail}")
        if log_path is not None:
            lines = _count_lines(log_path)
            logged = sum(r.ml_mismatches for r in rows)
            if lines != logged:
                for t in tallies.values():
                    self.failed.update(t.frame_keys)
                self.problems.append(f"call {call}: mismatch log has {lines} lines, CSV {logged}")

    @property
    def correct(self) -> bool:
        return not self.failed and not self.problems


def _count_lines(path: Path) -> int:
    if not path.exists():
        return 0
    with open(path, encoding="utf-8") as fh:
        return sum(1 for _ in fh)


def simulate(wl: dict, seed: int, call: int, workdir: Path, tag: str, frames: int | None = None):
    """One ``tbtdec simulate`` through the CLI entry point; returns (wall s, rows, log path).

    Each call logs mismatches to a path that did not exist before, because
    ``--mismatch-log`` appends and a reused path would grow across calls (the
    append behaviour itself is left for ROADMAP item 5).
    """
    csv_path = workdir / f"{tag}-{call}.csv"
    log_path = workdir / f"{tag}-{call}.jsonl" if wl["mismatch_log"] else None
    argv = [
        "simulate", "--code", wl["code"],
        "--ebn0", ",".join(f"{x:g}" for x in wl["ebn0_db"]),
        "--frames", str(frames or wl["frames_per_call"]),
        "--seed", str(pl.call_seed(seed, call)),
        "--decoders", ",".join(wl["decoders"]),
        "--out", str(csv_path),
    ]
    if log_path is not None:
        if log_path.exists():
            raise FileExistsError(log_path)
        argv += ["--mismatch-log", str(log_path)]
    start = perf_counter()
    status = cli.main(argv)
    wall = perf_counter() - start
    if status != 0:
        raise RuntimeError(f"tbtdec simulate exited with {status}: {argv}")
    rows = tb.parse_results(csv_path.read_text(encoding="utf-8"))
    return wall, rows, log_path


def measure_setup(code: str, reps: int) -> list[float]:
    """``import tbtdec`` plus ``build_context`` in fresh interpreters, timed inside each."""
    child = (
        "import time\n"
        "t0 = time.perf_counter()\n"
        "import tbtdec\n"
        f"tbtdec.build_context({code!r})\n"
        "print(time.perf_counter() - t0)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(reps):
        proc = subprocess.run([sys.executable, "-c", child], env=env, capture_output=True,
                              text=True, timeout=120, check=True)
        times.append(float(proc.stdout.split()[-1]))
    return times


def _frames_of_call(wl: dict) -> int:
    return wl["frames_per_call"] * len(wl["ebn0_db"])


def _warm_up(wl: dict, seed: int, workdir: Path) -> None:
    """Fill build_context's cache and numpy's lazy state before anything is timed."""
    tb.build_context(wl["code"])
    simulate(wl, seed, 0, workdir, "warm", frames=min(10, wl["frames_per_call"]))


def _retime_tail(ctx, wl: dict, timed: list, earlier: list, checks: Checks) -> list[float]:
    """Latency samples of one call's frames, with the slow tail timed twice.

    A frame slower than the 95th percentile so far is decoded once more after
    the whole call and keeps the faster time.  Noise on a shared host only
    adds time, in bursts of up to a second, so a burst cannot pass for a slow
    frame at p99, while a frame that is slow by itself stays slow.
    """
    times = [t for t, _, _ in timed]
    cut = statistics.quantiles(earlier + times, n=20)[18] if len(earlier) + len(times) > 1 else 0.0
    for i, (t, frame, outcomes) in enumerate(timed):
        if t > cut:
            t0 = perf_counter()
            again = pl.decode_public(ctx, wl["decoders"], frame.received)
            times[i] = min(t, perf_counter() - t0)
            if any(again[name].weight != out.weight for name, out in outcomes.items()):
                checks.failed.add(frame.key)
                checks.problems.append(f"frame {frame.key}: decoding again changed the result")
    return times


def run_end_to_end(wl: dict, seed: int, seconds: float, workdir: Path) -> tuple[dict, dict, Checks]:
    """Tracing off: frames_per_s, frame_us_p50/p99, setup_s and peak_rss_mb."""
    _warm_up(wl, seed, workdir)
    ctx = tb.build_context(wl["code"])
    checks = Checks()

    # Each simulate call is followed by the library path over the same frames,
    # one frame at a time, and the set-ups are spread evenly over the run, so
    # every metric samples the whole run window (the machine's speed drifts
    # over seconds).  Frame generation and the checks stay outside the timed
    # regions.
    walls, samples, setup = [], [], []
    start = perf_counter()
    call = 0
    while len(samples) < MIN_LATENCY_SAMPLES or perf_counter() - start < seconds:
        if len(setup) < SETUP_REPS and perf_counter() - start >= len(setup) * seconds / SETUP_REPS:
            setup += measure_setup(wl["code"], 1)
        wall, rows, log_path = simulate(wl, seed, call, workdir, "sim")
        walls.append(wall)
        tallies: dict = {}
        timed = []
        for params, point, f in pl.call_frames(ctx, wl, seed, call):
            frame = pl.make_frame(ctx, params, call, point, f, null_span)
            t0 = perf_counter()
            outcomes = pl.decode_public(ctx, wl["decoders"], frame.received)
            timed.append((perf_counter() - t0, frame, outcomes))
            checks.frame(ctx, frame, outcomes)
            pl.tally_frame(tallies, frame, outcomes)
        samples += _retime_tail(ctx, wl, timed, samples, checks)
        checks.call(wl, call, rows, tallies, log_path)
        call += 1
    setup += measure_setup(wl["code"], SETUP_REPS - len(setup))

    micros = [s * 1e6 for s in samples]
    metrics = {
        "frames_per_s": (len(walls) * _frames_of_call(wl) / sum(walls), "frames/s"),
        "frame_us_p50": (statistics.median(micros), "us"),
        "frame_us_p99": (statistics.quantiles(micros, n=100)[98], "us"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    counts = {
        "frames_per_s": f"{len(walls)} simulate calls x {_frames_of_call(wl)} frames",
        "frame_us_p50": f"{len(samples)} frames, {len(wl['decoders'])} decoder(s) each",
        "frame_us_p99": f"{len(samples)} frames ({len(samples) // 100} beyond p99; tail timed twice)",
        "setup_s": f"median of {len(setup)} fresh processes",
        "peak_rss_mb": "ru_maxrss of this process",
        "simulate_walls_s": walls,
        "setup_walls_s": setup,
    }
    return metrics, counts, checks


def simulate_pass(ctx, wl: dict, seed: int, call: int, span, log_path):
    """The per-frame work of one simulate call, rebuilt from public functions."""
    records, reports = [], []
    for params, point, f in pl.call_frames(ctx, wl, seed, call):
        with span("frame", (call, point, f)):
            frame = pl.make_frame(ctx, params, call, point, f, span)
            weights, outcomes, stats = pl.decode_staged(ctx, wl["decoders"], frame.received, span)
            found = pl.mismatch_reports(ctx, frame, params.ebn0_db, weights, outcomes, span)
        reports.extend(found)
        records.append((frame, outcomes, stats, bool(found)))
    if log_path is not None and reports:
        with span("diagnostics.write_mismatch_reports"):
            tb.write_mismatch_reports(str(log_path), reports)
    return records


def _count_metrics(ctx, records) -> dict:
    """Exact counts over one pass of the fixed frame set."""
    budget = 2 * ctx.ridx.trellis.num_edges
    l1 = [outcomes[pl.L1] for _, outcomes, _, _ in records]
    phase2 = [stats for _, _, stats, _ in records if stats.phase2]
    visits = sum(s.p2_edge_visits for s in phase2)
    return {
        "decoder.phase1_stop_frac": (sum(o.stage == "phase1" for o in l1) / len(l1), "ratio"),
        "decoder.comparisons_L1": (
            sum(o.comparisons + o.fallback_comparisons for o in l1) / len(l1), "count"),
        "decoder.budget_ratio_max": (max(o.comparisons for o in l1) / budget, "ratio"),
        "decoder.fallbacks": (sum(o.stage == "fallback" for o in l1), "count"),
        "decoder.phase2_participants": (
            sum(s.participants for s in phase2) / len(phase2) if phase2 else 0.0, "count"),
        "decoder.membership_pass_frac": (
            sum(s.p2_comparisons for s in phase2) / visits if visits else 0.0, "ratio"),
        "diagnostics.mismatch_frames": (sum(m for _, _, _, m in records), "count"),
    }


def run_traced(wl: dict, seed: int, seconds: float, workdir: Path, spans_path: Path):
    """Tracing on: per-layer self times, exact counts and the tracing overhead.

    The frame set is fixed (calls 0..count_calls-1) and replayed until
    ``seconds`` have passed: simulate untraced, the same frames traced, then
    once more untraced to measure what tracing costs.
    """
    tracer = Tracer()
    spec = tb.get_code(wl["code"]).spec()
    builds = []
    for rep in range(BUILD_REPS):
        t0 = perf_counter()
        with tracer.span("trellis.build_tbt_conv", ("build", rep)):
            trellis = tb.build_tbt_conv(spec)
        with tracer.span("trellis.build_reach_index", ("build", rep)):
            tb.build_reach_index(trellis)
        builds.append(perf_counter() - t0)
    _warm_up(wl, seed, workdir)
    ctx = tb.build_context(wl["code"])
    checks = Checks()

    first_rep: list = []
    untraced_wall = 0.0
    reps = 0
    start = perf_counter()
    # Whole reps only: stop before one that would, at the average rep length, overrun.
    while reps == 0 or (perf_counter() - start) * (reps + 1) / reps <= seconds:
        for call in range(wl["count_calls"]):
            with tracer.span("cli.main", ("simulate", reps, call)):
                _, rows, sim_log = simulate(wl, seed, call, workdir, f"sim-r{reps}")
            log = workdir / f"traced-r{reps}-{call}.jsonl" if wl["mismatch_log"] else None
            with tracer.span("pass", ("pass", reps, call)):
                records = simulate_pass(ctx, wl, seed, call, tracer.span, log)
            t0 = perf_counter()
            simulate_pass(ctx, wl, seed, call, null_span,
                          workdir / f"untraced-r{reps}-{call}.jsonl" if log else None)
            untraced_wall += perf_counter() - t0

            tallies: dict = {}
            for frame, outcomes, _, _ in records:
                checks.frame(ctx, frame, outcomes)
                pl.tally_frame(tallies, frame, outcomes)
            checks.call(wl, call, rows, tallies, sim_log)
            if log is not None and _count_lines(log) != _count_lines(sim_log):
                checks.problems.append(f"call {call}: traced mismatch log differs in length")
            if reps == 0:
                first_rep.extend(records)
        reps += 1
    tracer.write(spans_path)

    frames = reps * wl["count_calls"] * _frames_of_call(wl)
    totals, calls = tracer.self_times()
    metrics = {"trellis.build_ms": (statistics.median(builds) * 1e3, "ms"),
               "trellis.build_calls": (len(builds), "count")}
    layer_us = 0.0
    for metric, names in LAYER_SPANS.items():
        us = 1e6 * sum(totals.get(n, 0.0) for n in names) / frames
        layer_us += us
        metrics[f"{metric}_us"] = (us, "us/frame")
        metrics[f"{metric}_calls"] = (sum(calls.get(n, 0) for n in names) // reps, "count")
    simulate_us = 1e6 * totals["cli.main"] / frames
    metrics["cli.simulate_us"] = (simulate_us, "us/frame")
    metrics["montecarlo.overhead_us"] = (simulate_us - layer_us, "us/frame")
    metrics.update(_count_metrics(ctx, first_rep))
    traced_wall, covered = tracer.covered(roots={"pass"}, structural={"frame"})
    metrics["trace.overhead_frac"] = (traced_wall / untraced_wall - 1.0, "ratio")
    metrics["trace.coverage_frac"] = (covered / traced_wall, "ratio")
    if covered / traced_wall < MIN_COVERAGE:
        checks.problems.append(f"spans cover {covered / traced_wall:.3f} of the traced loop")
    samples = {
        "frames_per_rep": frames // reps,
        "reps": reps,
        "trellis.build_ms": f"median of {len(builds)} builds",
        "counts": "first rep (the fixed frame set)",
        "spans": len(tracer.records),
    }
    return metrics, samples, checks


def manifest(name: str, wl: dict, seed: int, seconds: float, trace: int, root: Path) -> dict:
    commit = None
    if (root / ".git").exists():
        proc = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    return {
        "workload": name,
        "config": {k: v for k, v in wl.items() if k != "why"},
        "why": wl["why"],
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "tbtdec": tb.__version__,
        "git_commit": commit,
        "platform": platform.platform(),
    }
