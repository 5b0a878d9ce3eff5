"""Alternate ``bench/run.py`` between two checkouts and write one BENCH_*.json.

    python3 tools/bench_ab.py --parent DIR --change DIR --out BENCH_NAME.json \
        [--pairs 10] [--seconds 30] [--first-seed 9401] [--workloads A,B]

Each checkout is a directory holding ``bench/run.py`` and ``src/``, such as a
``git archive`` of a commit.  For every workload (by default all of the
change's ``BENCHMARK.json``) it runs ``--pairs`` pairs of ``--trace 0`` runs,
both sides of a pair on the same seed and the parent first in odd pairs, and
then one ``--trace 1 --seed 7`` run per side for the exact counts and the
per-layer times.  The summary gives, per workload and end-to-end metric, each
side's median and quartiles, the pairs the change won, and whether the
change's median is within the metric's bound of the parent's.  It also gives
two verdicts: ``gain_holds`` when the change won at least nine tenths of the
pairs and its median beats the parent's by more than the parent's
interquartile range, and ``unresolved`` when that range is wider than the
metric's bound, unless every change run beats every parent run.  Per side it
also gives the frames that failed their checks, summed over the pairs, and
whether every run reported itself correct, so a gain from runs that failed
their checks shows.  If ``--out`` exists, a workload run again keeps its
earlier set under ``earlier_sets``, so the file holds every run made.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One bench run; its last stdout line, the result record."""
    cmd = ["python3", "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, check=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def flat(record: dict) -> dict:
    """A result record as {metric: value} plus its check counts."""
    values = {name: m["value"] for name, m in record["metrics"].items()}
    values.update(correct=record["correct"], failed=record["failed"], attempted=record["attempted"])
    return values


def summarize(rows: list[dict], end_to_end: list[dict]) -> dict:
    """Per end-to-end metric: medians, quartiles, pairs won and the bound check; per side, the checks."""
    summary = {"pairs": len(rows) // 2}
    for side in ("parent", "change"):
        runs = [r for r in rows if r["side"] == side]
        summary[f"{side}_failed"] = sum(r["failed"] for r in runs)
        summary[f"{side}_all_correct"] = all(r["correct"] for r in runs)
    for metric in end_to_end:
        name, higher, bound = metric["name"], metric["better"] == "higher", metric["bound"]
        sides = {side: [r[name] for r in rows if r["side"] == side] for side in ("parent", "change")}
        pairs = zip(*(sorted((r["seed"], r[name]) for r in rows if r["side"] == side) for side in sides))
        won = sum((c > p) if higher else (c < p) for (_, p), (_, c) in pairs)
        parent, change = sorted(sides["parent"]), sorted(sides["change"])
        separated = change[0] > parent[-1] if higher else change[-1] < parent[0]
        entry = {}
        for side, values in sides.items():
            q1, median, q3 = statistics.quantiles(values, n=4)
            entry.update({f"{side}_median": median, f"{side}_q1": q1, f"{side}_q3": q3})
        p, c = entry["parent_median"], entry["change_median"]
        iqr = entry["parent_q3"] - entry["parent_q1"]
        entry.update(
            change_better_pairs=won,
            median_change_frac=c / p - 1,
            parent_iqr=iqr,
            parent_spread_frac=iqr / p,
            within_bound=c >= p * (1 - bound) if higher else c <= p * (1 + bound),
            gain_holds=won >= 0.9 * len(parent) and ((c - p) if higher else (p - c)) > iqr,
            unresolved=iqr / p > bound and not separated,
        )
        summary[name] = {k: round(v, 4) if isinstance(v, float) else v for k, v in entry.items()}
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--first-seed", type=int, default=9401)
    parser.add_argument("--workloads", default=None, help="comma-separated; default: all")
    args = parser.parse_args(argv)
    spec = json.loads((args.change / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    sides = {"parent": args.parent, "change": args.change}
    what = (
        f"{args.pairs} alternating --trace 0 pairs at --seconds {args.seconds:g} "
        f"(seeds {args.first_seed}-{args.first_seed + args.pairs - 1}, odd pairs parent first), "
        f"then one --trace 1 --seed 7 run per side"
    )
    result = {"what": {}, "end_to_end": {}, "summary": {}, "traced_seed7": {}, "earlier_sets": []}
    if args.out.exists():
        result = json.loads(args.out.read_text(encoding="utf-8"))
    for workload in workloads:
        if workload in result["what"]:
            result["earlier_sets"].append({
                key: result[key].pop(workload) for key in ("what", "end_to_end", "summary", "traced_seed7")
            } | {"workload": workload})
        result["what"][workload] = what
        rows = []
        for i in range(args.pairs):
            seed = args.first_seed + i
            for side in (("parent", "change") if i % 2 == 0 else ("change", "parent")):
                rows.append({"side": side, "seed": seed, **flat(run(sides[side], workload, seed, args.seconds, 0))})
                print(workload, json.dumps(rows[-1]), file=sys.stderr, flush=True)
        result["end_to_end"][workload] = rows
        result["summary"][workload] = summarize(rows, spec["end_to_end"])
        result["traced_seed7"][workload] = {
            side: flat(run(path, workload, 7, args.seconds, 1)) for side, path in sides.items()
        }
        args.out.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(result["summary"], indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
