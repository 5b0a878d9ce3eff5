"""Time decoder calls of two checkouts on the same frames, interleaved in one process.

    python3 tools/timeit_ab.py --parent DIR --change DIR [--rounds 200] \
        [--frames 4] [--ebn0 1] [--codes mem4-circle20,mem6-circle48] \
        [--calls phase1,phase1_frame,decode_two_phase,decode_exact_ml,viterbi_subtrellis,decode_frames_exact_ml,phase1_batch,simulate] \
        [--out FILE.json]

Each checkout is a directory holding ``src/tbtdec``, such as a ``git
archive`` of a commit.  Both packages are imported into this one process
under their own module names (``tbtdec_parent``, ``tbtdec_change``), so both
sides run on the same interpreter, numpy and machine state.  Per code, the
frames are the first ``--frames`` noisy all-zero frames at ``--ebn0`` that
phase 1 leaves open, so phase 2 runs and exact ML has subtrellises to
sweep, except for ``phase1_frame``, which takes the first that phase 1
settles.  ``phase1_frame`` is ``phase1`` and its stop test
(``_phase1_stops``) on a fresh one-frame state per call, so it pays for
all that a settled one-frame decode works out, and ``decode_two_phase`` is
the plain two-phase decoder (L1), the path of the open frames behind
``frame_us_p99``.  Each side builds its own trellis and edge weights from
the same samples.  Every call takes one frame, except:

* ``decode_frames_exact_ml``: one ``decode_frames`` call with exact ML alone
  on all the open frames as one batch, so one pass whose race sweeps every
  frame's rows together;
* ``phase1_batch``: ``phase1`` and ``_phase1_stops`` on one batch of the
  first ``batch_frames`` frames at ``--ebn0``, open or not, as ``simulate``
  sweeps them;
* ``simulate``: one in-process ``cli.main(["simulate", ...])`` per workload
  of ``bench/workloads.json`` whose code is named, with that workload's
  points, decoders, frames per call and mismatch log, at seed 7.  Both
  sides' CSV and log bytes must be equal, or the script exits.  Standalone
  stage timings need not predict what ``simulate`` spends.

Every named call is then timed ``--rounds`` times on every frame (the pass,
batch or simulate call once a round), one call at a time, the two sides
alternating and the side that goes first alternating by round, with the
garbage collector off.  The report gives, per code and call (and workload,
for ``simulate``), each side's min and median µs per call and the change's
median over the parent's.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import importlib.util
import json
import statistics
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

CALLS = (
    "phase1", "phase1_frame", "decode_two_phase", "decode_exact_ml", "viterbi_subtrellis", "decode_frames_exact_ml",
    "phase1_batch", "simulate",
)
CODES = ("mem4-circle20", "mem6-circle48")
WORKLOADS = Path(__file__).resolve().parent.parent / "bench" / "workloads.json"
SIMULATE_SEED = 7


def load(checkout: Path, name: str):
    """``checkout``'s ``src/tbtdec`` imported as the package ``name``."""
    package = checkout / "src" / "tbtdec"
    spec = importlib.util.spec_from_file_location(
        name, package / "__init__.py", submodule_search_locations=[str(package)]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # its relative imports resolve under ``name``
    spec.loader.exec_module(module)
    return module


def frame_samples(tb, code: str, ebn0: float, count: int, limit: int = 10_000) -> dict[str, list[np.ndarray]]:
    """The received samples of the first ``count`` all-zero frames at ``ebn0`` that phase 1 leaves open, and settles."""
    ctx = tb.build_context(code)
    params = tb.ChannelParams(ebn0_db=ebn0, rate=ctx.rate, seed=1)
    signal = tb.bpsk_modulate(np.zeros(ctx.ridx.trellis.n_sections * ctx.ridx.trellis.label_width, dtype=np.uint8))
    samples = {"open": [], "settled": []}
    for stream in range(limit):
        received = tb.awgn_transmit(signal, params, stream)
        weights = tb.edge_weights(ctx.ridx.trellis, received)
        kind = "open" if tb.phase1_decision(ctx.ridx, tb.phase1(ctx.ridx, weights), weights) is None else "settled"
        if len(samples[kind]) < count:
            samples[kind].append(received.r)
        if all(len(s) == count for s in samples.values()):
            return samples
    raise SystemExit(f"{code}: fewer than {count} open and {count} settled frames among {limit} at {ebn0} dB")


def batch_samples(tb, code: str, ebn0: float) -> np.ndarray:
    """The received samples of the first ``batch_frames`` noisy all-zero frames at ``ebn0``, (F, n)."""
    ctx = tb.build_context(code)
    params = tb.ChannelParams(ebn0_db=ebn0, rate=ctx.rate, seed=1)
    signal = tb.bpsk_modulate(np.zeros(ctx.ridx.trellis.n_sections * ctx.ridx.trellis.label_width, dtype=np.uint8))
    return np.stack([tb.awgn_transmit(signal, params, s).r for s in range(tb.decoder.batch_frames(ctx.ridx))])


def bind(tb, code: str, samples, name: str) -> list:
    """One zero-argument function per frame, making call ``name`` on that frame; one for all of them for a pass or batch."""
    ridx = tb.build_context(code).ridx
    if name in ("decode_frames_exact_ml", "phase1_batch"):
        weights = tb.edge_weights(ridx.trellis, tb.ReceivedVector(r=np.stack(samples)))
        if name == "phase1_batch":
            return [lambda: tb.decoder._phase1_stops(ridx, tb.phase1(ridx, weights))]
        return [lambda: list(tb.decode_frames(ridx, weights, ("exact-ml",)))]
    calls = []
    for r in samples:
        weights = tb.edge_weights(ridx.trellis, tb.ReceivedVector(r=r))
        if name == "phase1":
            calls.append(lambda w=weights: tb.phase1(ridx, w))
        elif name == "phase1_frame":
            calls.append(lambda w=weights: tb.decoder._phase1_stops(ridx, tb.phase1(ridx, w)))
        elif name == "decode_two_phase":
            calls.append(lambda w=weights: tb.decode_two_phase(ridx, w))
        elif name == "decode_exact_ml":
            calls.append(lambda w=weights: tb.decode_exact_ml(ridx, w))
        elif name == "viterbi_subtrellis":  # the subtrellis of the cheapest final, as a fallback sweeps
            i = int(np.argmin(tb.phase1(ridx, weights).delta_finals))
            calls.append(lambda w=weights, i=i: tb.viterbi_subtrellis(ridx, w, i))
        else:
            raise SystemExit(f"unknown call {name!r}; available: {', '.join(CALLS)}")
    return calls


def workloads(code: str) -> dict[str, dict]:
    """The workloads of ``bench/workloads.json`` on ``code``, by name."""
    named = json.loads(WORKLOADS.read_text(encoding="utf-8"))["workloads"]
    return {name: wl for name, wl in named.items() if wl["code"] == code}


def bind_simulate(tb, wl: dict, out: Path) -> list:
    """One zero-argument function making workload ``wl``'s simulate call in this process, writing under ``out``."""
    cli = importlib.import_module(f"{tb.__name__}.cli")
    argv = [
        "simulate", "--code", wl["code"], "--ebn0", ",".join(f"{x:g}" for x in wl["ebn0_db"]),
        "--frames", str(wl["frames_per_call"]), "--seed", str(SIMULATE_SEED),
        "--decoders", ",".join(wl["decoders"]), "--out", str(out / "out.csv"),
    ]
    if wl["mismatch_log"]:
        argv += ["--mismatch-log", str(out / "mismatch.jsonl")]

    def call():
        if cli.main(argv) != 0:
            raise SystemExit(f"simulate failed: {' '.join(argv)}")

    return [call]


def same_outputs(dirs: dict[str, Path]) -> bool:
    """Do both sides' simulate calls leave the same files with the same bytes?"""
    files = [{path.name: path.read_bytes() for path in sorted(d.iterdir())} for d in dirs.values()]
    return all(f == files[0] for f in files)


def interleave(sides: dict[str, list], rounds: int) -> dict[str, list[float]]:
    """µs per call of each side's calls, frame by frame, the sides taking turns to go first."""
    names = list(sides)
    times = {side: [] for side in names}
    gc.disable()
    try:
        for k in range(rounds):
            order = names if k % 2 == 0 else names[::-1]
            for frame in range(len(sides[names[0]])):
                for side in order:
                    call = sides[side][frame]
                    start = time.perf_counter_ns()
                    call()
                    times[side].append((time.perf_counter_ns() - start) / 1e3)
    finally:
        gc.enable()
    return times


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--rounds", type=int, default=200)
    parser.add_argument("--frames", type=int, default=4)
    parser.add_argument("--ebn0", type=float, default=1.0)
    parser.add_argument("--codes", default=",".join(CODES))
    parser.add_argument("--calls", default=",".join(CALLS))
    parser.add_argument("--out", type=Path, default=None, help="also write the report as JSON here")
    args = parser.parse_args(argv)
    packages = {side: load(path, f"tbtdec_{side}") for side, path in (("parent", args.parent), ("change", args.change))}
    report = {"what": f"{args.rounds} interleaved rounds over {args.frames} frames at {args.ebn0:g} dB",
              "results": []}
    with tempfile.TemporaryDirectory() as tmp:
        for code in args.codes.split(","):
            samples = frame_samples(packages["change"], code, args.ebn0, args.frames)
            for name in args.calls.split(","):
                if name == "simulate":
                    cases = []
                    for workload, wl in workloads(code).items():
                        dirs = {side: Path(tmp) / workload / side for side in packages}
                        for d in dirs.values():
                            d.mkdir(parents=True)
                        cases.append((workload, dirs, {side: bind_simulate(tb, wl, dirs[side])
                                                      for side, tb in packages.items()}))
                else:
                    frames = (batch_samples(packages["change"], code, args.ebn0) if name == "phase1_batch"
                              else samples["settled" if name == "phase1_frame" else "open"])
                    cases = [(None, None, {side: bind(tb, code, frames, name) for side, tb in packages.items()})]
                for workload, dirs, sides in cases:
                    for calls in sides.values():  # warm both sides' lazy state before timing
                        for call in calls:
                            call()
                    if dirs is not None and not same_outputs(dirs):
                        raise SystemExit(f"{workload}: the two sides' simulate outputs differ")
                    times = interleave(sides, args.rounds)
                    row = {"code": code, "call": name}
                    if workload is not None:
                        row["workload"] = workload
                    for side, values in times.items():
                        row[f"{side}_min_us"] = round(min(values), 1)
                        row[f"{side}_median_us"] = round(statistics.median(values), 1)
                    row["median_ratio"] = round(row["change_median_us"] / row["parent_median_us"], 3)
                    report["results"].append(row)
                    print(f"{code:16} {workload or name:20} parent min {row['parent_min_us']:9.1f}"
                          f" median {row['parent_median_us']:9.1f}  change min {row['change_min_us']:9.1f}"
                          f" median {row['change_median_us']:9.1f}  ratio {row['median_ratio']:.3f}", flush=True)
    if args.out is not None:
        args.out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
