"""Per-frame work of one ``simulate`` call, rebuilt from tbtdec's public API.

The benchmark replays exactly the frames ``tbtdec simulate`` decodes, so its
own tallies can be compared with the CSV row for row, and every decoded frame
can be checked against oracles that do not share code with the decoders.
Each call into a tbtdec module runs inside ``span(<module>.<function>)``; the
untraced loops pass ``tracing.null_span`` instead.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

import tbtdec as tb

L1, L2, EXACT = "two-phase-L1", "two-phase-L2", "exact-ml"


@dataclass
class Frame:
    call: int
    point: int
    frame: int
    msg: np.ndarray
    codeword: np.ndarray
    received: tb.ReceivedVector

    @property
    def key(self) -> tuple[int, int, int]:
        return (self.call, self.point, self.frame)


@dataclass
class L1Stats:
    """Phase-2 counts of one two-phase L1 decode (zeros when phase 1 stopped)."""

    phase2: bool = False
    participants: int = 0
    p2_comparisons: int = 0
    p2_edge_visits: int = 0


@dataclass
class Tally:
    """The integer columns of one CSV row, recounted by the benchmark."""

    frames: int = 0
    bit_errors: int = 0
    frame_errors: int = 0
    phase1_stops: int = 0
    fallbacks: int = 0
    comparisons: int = 0
    differs_from_exact: int = 0
    frame_keys: list = field(default_factory=list)


def call_seed(seed: int, call: int) -> int:
    """Seed of the ``call``-th simulate call; call 0 uses the workload seed itself."""
    return seed + (call << 32)


def make_frame(ctx, params: tb.ChannelParams, call: int, point: int, frame: int, span) -> Frame:
    """Same streams as the simulator's own frame generator."""
    noise_stream, msg_stream = tb.frame_streams(point, frame)
    with span("channel.random_bits"):
        msg = tb.random_bits(params.seed, msg_stream, ctx.spec.k)
    with span("codes.encode_conv_tailbiting"):
        codeword = tb.encode_conv_tailbiting(ctx.spec, msg)
    with span("channel.bpsk_modulate"):
        signal = tb.bpsk_modulate(codeword)
    with span("channel.awgn_transmit"):
        received = tb.awgn_transmit(signal, params, noise_stream)
    return Frame(call, point, frame, msg, codeword, received)


def call_frames(ctx, wl: dict, seed: int, call: int):
    """Yield (params, point, frame number) for one simulate call, in its frame order."""
    for point, ebn0 in enumerate(wl["ebn0_db"]):
        params = tb.ChannelParams(ebn0_db=ebn0, rate=ctx.rate, seed=call_seed(seed, call))
        for f in range(wl["frames_per_call"]):
            yield params, point, f


def decode_public(ctx, decoders, received) -> dict[str, tb.DecodeOutcome]:
    """The library path a user calls: edge weights, then each decoder."""
    ridx = ctx.ridx
    weights = tb.edge_weights(ridx.trellis, received)
    outcomes = {}
    for name in decoders:
        if name == L1:
            outcomes[name] = tb.decode_two_phase(ridx, weights, 1)
        elif name == L2:
            outcomes[name] = tb.decode_two_phase(ridx, weights, 2)
        else:
            outcomes[name] = tb.decode_exact_ml(ridx, weights)
    return outcomes


def decode_staged(ctx, decoders, received, span):
    """Like ``decode_public`` but with L1 split into its four stages.

    The stage sequence is the body of ``decode_two_phase`` at list size 1; the
    CSV comparison catches any drift between the two.
    """
    ridx = ctx.ridx
    with span("channel.edge_weights"):
        weights = tb.edge_weights(ridx.trellis, received)
    outcomes = {}
    stats = L1Stats()
    for name in decoders:
        if name == L1:
            with span("decoder.phase1"):
                p1 = tb.phase1(ridx, weights)
            with span("decoder.phase1_decision"):
                out = tb.phase1_decision(ridx, p1, weights)
            if out is None:
                with span("decoder.phase2"):
                    p2 = tb.phase2(ridx, weights, p1, True)
                with span("decoder.final_decision"):
                    out = tb.final_decision(ridx, weights, p1, p2)
                stats = L1Stats(True, int(p2.participants.sum()), p2.comparisons, p2.edge_visits)
            outcomes[name] = out
        elif name == L2:
            with span("decoder.decode_two_phase_L2"):
                outcomes[name] = tb.decode_two_phase(ridx, weights, 2)
        else:
            with span("decoder.decode_exact_ml"):
                outcomes[name] = tb.decode_exact_ml(ridx, weights)
    return weights, outcomes, stats


def mismatch_reports(ctx, frame: Frame, ebn0: float, weights, outcomes, span) -> list:
    """Reports for decoders whose codeword differs from exact ML (as simulate builds them)."""
    exact = outcomes.get(EXACT)
    if exact is None:
        return []
    reports = []
    table = None
    for name, out in outcomes.items():
        if name == EXACT or np.array_equal(out.codeword, exact.codeword):
            continue
        if table is None:
            with span("diagnostics.all_pairs_start_final_distances"):
                table = tb.all_pairs_start_final_distances(ctx.ridx, weights)
        with span("diagnostics.crossing_pair_witness"):
            witness = tb.crossing_pair_witness(table, exact.subtrellis)
        reports.append(tb.MismatchReport(
            frame=frame.frame, ebn0_db=ebn0, decoder=name,
            ml_subtrellis=exact.subtrellis, ml_weight=exact.weight,
            out_subtrellis=out.subtrellis, out_weight=out.weight,
            crossing_witness=witness,
            crossing_shares_ml_start=(witness[0] == exact.subtrellis) if witness else None,
        ))
    return reports


def tally_frame(tallies: dict, frame: Frame, outcomes: dict) -> None:
    """Add one frame to the per-(point, decoder) tallies, by the CSV's column rules."""
    exact = outcomes.get(EXACT)
    for name, out in outcomes.items():
        t = tallies.setdefault((frame.point, name), Tally())
        t.frames += 1
        t.frame_keys.append(frame.key)
        decoded_msg = (out.path[1:] & 1).astype(np.uint8)
        t.bit_errors += int(np.count_nonzero(decoded_msg != frame.msg))
        t.frame_errors += int(not np.array_equal(out.codeword, frame.codeword))
        t.phase1_stops += int(out.stage == "phase1")
        t.fallbacks += int(out.stage == "fallback")
        t.comparisons += out.comparisons + out.fallback_comparisons
        if exact is not None and name != EXACT:
            t.differs_from_exact += int(not np.array_equal(out.codeword, exact.codeword))


def check_frame(ctx, frame: Frame, outcomes: dict) -> list[str]:
    """Per-frame oracle checks; returns the names of those that failed."""
    failed = []
    budget = 2 * ctx.ridx.trellis.num_edges
    exact = outcomes.get(EXACT)
    for name, out in outcomes.items():
        true_weight = tb.euclidean_weight(frame.received, out.codeword)
        if abs(out.weight - true_weight) > 1e-9 * max(1.0, abs(true_weight)):
            failed.append(f"{name}:weight")
        message = (out.path[1:] & 1).astype(np.uint8)
        if not np.array_equal(tb.encode_conv_tailbiting(ctx.spec, message), out.codeword):
            failed.append(f"{name}:re-encode")
        if exact is not None and exact.weight > out.weight + 1e-9 * max(1.0, abs(out.weight)):
            failed.append(f"{name}:beats-exact")
        if name == L1 and out.comparisons > budget:
            failed.append(f"{name}:budget")
    return failed


def compare_rows(wl: dict, rows: list, tallies: dict) -> list[tuple[int, str, str]]:
    """Differences between simulate's CSV rows and the recounted tallies.

    ``ml_mismatches`` is only bounded by the frames whose codeword differs
    from exact ML: the rule for weight ties is still open (ROADMAP item 5).
    """
    problems = []
    expected = [(p, name) for p in range(len(wl["ebn0_db"])) for name in wl["decoders"]]
    if len(rows) != len(expected):
        return [(p, name, "row missing") for p, name in expected]
    for row, (p, name) in zip(rows, expected):
        t = tallies.get((p, name), Tally())
        got = (row.ebn0_db, row.decoder, row.frames, row.bit_errors, row.frame_errors,
               row.phase1_stops, row.fallbacks, row.avg_comparisons)
        want = (float(f"{wl['ebn0_db'][p]:.6g}"), name, t.frames, t.bit_errors, t.frame_errors,
                t.phase1_stops, t.fallbacks,
                float(f"{t.comparisons / max(t.frames, 1):.6g}"))
        if got != want:
            problems.append((p, name, f"csv {got} != recount {want}"))
        if row.ml_mismatches > t.differs_from_exact:
            problems.append((p, name, f"ml_mismatches {row.ml_mismatches} > {t.differs_from_exact}"))
    return problems
