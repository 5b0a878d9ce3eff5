"""tbtdec benchmark: one workload, one run, one JSON result line.

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run it from the root of a checkout; it imports the package from ``src/``.
With ``--trace 0`` it measures the end-to-end metrics with tracing off; with
``--trace 1`` it records spans around every call into tbtdec's modules and
reports per-layer self times and counts.  Every decoded frame is checked
against independent oracles, and every simulate CSV row against the
benchmark's own recount.  Workload configs, the reason for each, and which
layer metric should move which end-to-end metric live in ``workloads.json``.

The human-readable report goes first; the last line of stdout is
``{"correct", "attempted", "failed", "metrics"}``.  A full record with the
run manifest is written to ``bench/out/`` (and the spans, for traced runs).
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
WORKLOADS = json.loads((BENCH_DIR / "workloads.json").read_text(encoding="utf-8"))["workloads"]


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "tbtdec" / "__init__.py").is_file():
        print(f"bench: no tbtdec sources in {ROOT / 'src'}; run from a repository checkout",
              file=sys.stderr)
        return 2
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    import measure

    wl = WORKLOADS[args.workload]
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}"
    with tempfile.TemporaryDirectory(dir=OUT_DIR, prefix=".work-") as tmp:
        if args.trace:
            metrics, samples, checks = measure.run_traced(
                wl, args.seed, args.seconds, Path(tmp), OUT_DIR / f"{stem}-spans.jsonl")
        else:
            metrics, samples, checks = measure.run_end_to_end(wl, args.seed, args.seconds, Path(tmp))

    failed = len(checks.failed)
    record = {
        "manifest": measure.manifest(args.workload, wl, args.seed, args.seconds, args.trace, ROOT),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "samples": samples,
        "failed_frac": failed / checks.attempted,
        "problems": checks.problems,
    }
    (OUT_DIR / f"{stem}-trace{args.trace}.json").write_text(json.dumps(record, indent=2) + "\n")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for name, (value, unit) in metrics.items():
        note = samples.get(name, "")
        print(f"  {name:32s} {value:14.6g} {unit:10s} {note}")
    print(f"  {'failed_frac':32s} {failed / checks.attempted:14.6g} {'ratio':10s} "
          f"{failed} of {checks.attempted} frames checked")
    for problem in checks.problems[:20]:
        print(f"  FAIL {problem}")
    print("manifest " + json.dumps(record["manifest"]))
    print(json.dumps({
        "correct": checks.correct,
        "attempted": checks.attempted,
        "failed": failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
