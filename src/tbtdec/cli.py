"""Command-line front end: simulate, decode-frame, dump-trellis, check-lemmas."""

from __future__ import annotations

import argparse
import math
import sys
from functools import lru_cache

from .catalog import list_codes
from .channel import ChannelParams, edge_weights
from .codes import ConvCodeSpec, GeneratorSpec, bits_to_int, enumerate_codewords, parse_generator_file
from .decoder import DECODER_NAMES, decode_frame
from .diagnostics import audit_decode_invariants, verify_semi_codeword_space
from .errors import ToolkitError
from .montecarlo import (
    SimConfig,
    build_context,
    emit_results,
    run_monte_carlo,
    trace_frame,
    _make_frame,
)
from .trellis import subtrellis_labels

__all__ = ["main", "build_parser"]


def _add_code_args(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("code selection (pick one)")
    group.add_argument("--code", help=f"catalog name; one of: {', '.join(list_codes())}")
    group.add_argument("--gen-file", help="path to a generator file ('n k' header, then rows)")
    group.add_argument("--memory", type=int, help="convolutional memory m")
    group.add_argument("--taps0", help="first tap polynomial as a binary string, m+1 bits")
    group.add_argument("--taps1", help="second tap polynomial as a binary string, m+1 bits")
    group.add_argument("--circle", type=int, help="number of trellis sections")


def _code_from_args(args: argparse.Namespace):
    conv_flags = [args.memory, args.taps0, args.taps1, args.circle]
    picked = sum([args.code is not None, args.gen_file is not None, any(f is not None for f in conv_flags)])
    if picked != 1:
        raise ToolkitError("select a code with exactly one of --code, --gen-file, or --memory/--taps0/--taps1/--circle")
    if args.code is not None:
        return args.code
    if args.gen_file is not None:
        with open(args.gen_file, encoding="utf-8") as fh:
            return parse_generator_file(fh.read())
    if any(f is None for f in conv_flags):
        raise ToolkitError("convolutional selection needs all of --memory, --taps0, --taps1, --circle")
    return ConvCodeSpec(
        memory=args.memory,
        taps0=tuple(int(b) for b in args.taps0),
        taps1=tuple(int(b) for b in args.taps1),
        circle=args.circle,
    )


def _parse_ebn0(text: str, single: bool = False) -> tuple[float, ...]:
    """Comma-separated finite dB values; ``single`` allows exactly one."""
    try:
        points = tuple(float(x) for x in text.split(","))
    except ValueError:
        raise ToolkitError(f"--ebn0 {text!r}: not a comma-separated list of numbers") from None
    if not all(math.isfinite(x) for x in points):
        raise ToolkitError(f"--ebn0 {text!r}: every Eb/N0 point must be finite")
    if single and len(points) != 1:
        raise ToolkitError(f"--ebn0 {text!r}: this command takes a single dB value")
    return points


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="tbtdec", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="Monte-Carlo sweep over Eb/N0 points")
    _add_code_args(sim)
    sim.add_argument("--ebn0", default="0,1,2,3,4,5,6", help="comma-separated dB list")
    sim.add_argument("--frames", type=int, default=1000)
    sim.add_argument("--seed", type=int, default=1)
    sim.add_argument("--decoders", default="two-phase-L1,exact-ml",
                     help=f"comma-separated subset of: {', '.join(DECODER_NAMES)}")
    sim.add_argument("--genie-zero", action="store_true",
                     help="transmit the all-zero codeword every frame")
    sim.add_argument("--no-participation-prune", action="store_true",
                     help="let every crossed final seed the second phase")
    sim.add_argument("--workers", type=int, default=1)
    sim.add_argument("--out", help="CSV output path (default: stdout)")
    sim.add_argument("--mismatch-log", help="JSONL path for frames where a decoder missed exact ML")

    dec = sub.add_parser("decode-frame", help="decode one frame with a full trace")
    _add_code_args(dec)
    dec.add_argument("--ebn0", default="3", help="single dB value")
    dec.add_argument("--frame", type=int, default=0, help="frame number to replay")
    dec.add_argument("--seed", type=int, default=1)
    dec.add_argument("--list-size", type=int, default=1)
    dec.add_argument("--genie-zero", action="store_true")
    dec.add_argument("--no-participation-prune", action="store_true")
    dec.add_argument("--trace-out", help="write per-vertex trace records to this file")

    dump = sub.add_parser("dump-trellis", help="emit the built trellis as JSON")
    _add_code_args(dump)
    dump.add_argument("--out", help="output path (default: stdout)")

    check = sub.add_parser("check-lemmas", help="run structural and per-frame invariant checks")
    _add_code_args(check)
    check.add_argument("--ebn0", default="3", help="single dB value for the random-frame audit")
    check.add_argument("--frames", type=int, default=200)
    check.add_argument("--seed", type=int, default=1)
    return parser


def _cmd_simulate(args: argparse.Namespace) -> int:
    code = _code_from_args(args)
    config = SimConfig(
        code=code,
        ebn0_db=_parse_ebn0(args.ebn0),
        frames=args.frames,
        seed=args.seed,
        decoders=tuple(args.decoders.split(",")),
        genie_zero=args.genie_zero,
        participation_prune=not args.no_participation_prune,
        workers=args.workers,
        mismatch_log=args.mismatch_log,
    )
    if args.out:
        open(args.out, "a", encoding="utf-8").close()  # an unwritable path fails here, before any frame is decoded
    rows = run_monte_carlo(config)
    ctx = build_context(code)
    comments = (
        f"code={ctx.name}",
        f"error_bits={ctx.error_bits}",
        f"seed={config.seed} frames={config.frames} genie_zero={config.genie_zero}"
        f" participation_prune={config.participation_prune}",
    )
    text = emit_results(rows, args.out, comments)
    if not args.out:
        sys.stdout.write(text)
    return 0


def _cmd_decode_frame(args: argparse.Namespace) -> int:
    code = _code_from_args(args)
    config = SimConfig(
        code=code,
        ebn0_db=_parse_ebn0(args.ebn0, single=True),
        frames=max(1, args.frame + 1),
        seed=args.seed,
        genie_zero=args.genie_zero,
        participation_prune=not args.no_participation_prune,
    )
    outcome, text = trace_frame(config, args.frame, list_size=args.list_size, trace_path=args.trace_out)
    bits = "".join(str(int(b)) for b in outcome.codeword)
    print(f"stage={outcome.stage} subtrellis={outcome.subtrellis} weight={outcome.weight!r}")
    print(f"codeword={bits}")
    print(f"comparisons={outcome.comparisons} edge_visits={outcome.edge_visits}")
    if args.trace_out:
        print(f"trace written to {args.trace_out} ({len(text.splitlines())} lines)")
    return 0


def _cmd_dump_trellis(args: argparse.Namespace) -> int:
    code = _code_from_args(args)
    ctx = build_context(code)
    text = ctx.ridx.trellis.dump_json() + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_check_lemmas(args: argparse.Namespace) -> int:
    if args.frames < 1:
        raise ToolkitError(f"--frames {args.frames}: the audit needs at least 1 frame")
    code = _code_from_args(args)
    ctx = build_context(code)
    ridx = ctx.ridx
    (ebn0,) = _parse_ebn0(args.ebn0, single=True)
    failures = 0

    def emit(name: str, ok: bool, detail: str = "") -> None:
        nonlocal failures
        if not ok:
            failures += 1
        tail = f" ({detail})" if detail else ""
        print(f"{'PASS' if ok else 'FAIL'} {name}{tail}")

    spec = ctx.spec
    if isinstance(spec, GeneratorSpec) and spec.n <= 10:
        emit("semi-codeword-space", verify_semi_codeword_space(spec, ridx.trellis))
        sub0 = subtrellis_labels(ridx.trellis, 0)
        closure_ok = True
        union = set()
        for i in range(ridx.t):
            labels = subtrellis_labels(ridx.trellis, i)
            union |= labels
            shifted = {next(iter(labels)) ^ x for x in sub0}
            if shifted != labels:
                closure_ok = False
        emit("coset-closure", closure_ok)
        codebook = {int(bits_to_int(c)) for c in enumerate_codewords(spec)}
        emit("subtrellis-union-is-code", union == codebook)

    params = ChannelParams(ebn0_db=ebn0, rate=ctx.rate, seed=args.seed)
    violations = 0
    dominance_ok = True
    budget_ok = True
    for frame in range(args.frames):
        _, _, received = _make_frame(ctx, params, 0, frame, False)
        weights = edge_weights(ridx.trellis, received)
        decoded = decode_frame(ridx, weights, ("two-phase-L1", "exact-ml"))
        audit = audit_decode_invariants(ridx, weights, decoded.p1, decoded.p2, decoded.costs)
        violations += len(audit.violations)
        outcome, exact = decoded.outcomes["two-phase-L1"], decoded.outcomes["exact-ml"]
        if outcome.weight < exact.weight - 1e-9 * max(1.0, abs(exact.weight)):
            dominance_ok = False
        if outcome.comparisons > 2 * ridx.trellis.num_edges:
            budget_ok = False
    emit("invariant-audit", violations == 0, f"{args.frames} frames")
    emit("exact-ml-dominance", dominance_ok, f"{args.frames} frames")
    emit("comparison-budget", budget_ok)
    return 1 if failures else 0


@lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    """The parser ``main`` reuses: built on first use, once per process."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        if args.command == "simulate":
            return _cmd_simulate(args)
        if args.command == "decode-frame":
            return _cmd_decode_frame(args)
        if args.command == "dump-trellis":
            return _cmd_dump_trellis(args)
        if args.command == "check-lemmas":
            return _cmd_check_lemmas(args)
    except (ToolkitError, OSError) as exc:  # OSError: a path given on the command line cannot be read or written
        print(f"error: {exc}", file=sys.stderr)
        return 2
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
