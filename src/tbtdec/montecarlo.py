"""Monte-Carlo simulation harness: frame generation, decoding, tallies, CSV.

Every frame's randomness comes from counter-based streams keyed by
(seed, stream id), where the stream id encodes the Eb/N0 point and frame
number.  Results are therefore a pure function of the configuration: the same
seed gives byte-identical CSV and trace output at any worker count, and every
decoder sees exactly the same noisy frames.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import lru_cache
from typing import Union

import numpy as np

from .catalog import get_code
from .channel import (
    ChannelParams,
    ReceivedVector,
    awgn_transmit,
    bpsk_modulate,
    edge_weights,
    random_bits,
)
from .codes import (
    ConvCodeSpec,
    GeneratorSpec,
    SemiCodewordBasis,
    encode_block,
    encode_conv_tailbiting,
    semi_codeword_basis,
)
from .decoder import (
    DECODER_NAMES,
    DecodeOutcome,
    _decode_batches,
    batch_frames,
    decode_frame,
    two_phase_name,
)
from .diagnostics import (
    MismatchReport,
    audit_decode_invariants,
    crossing_pair_witness,
    semi_codeword_witness,
    write_mismatch_reports,
)
from .errors import CatalogError, LengthMismatchError, ToolkitError
from .trellis import ReachIndex, build_reach_index, build_tbt_conv, build_tbt_product

__all__ = [
    "SimConfig",
    "SimResultRow",
    "SimContext",
    "build_context",
    "run_monte_carlo",
    "emit_results",
    "parse_results",
    "trace_frame",
    "frame_streams",
    "CSV_HEADER",
]

CSV_HEADER = (
    "ebn0_db,decoder,frames,bit_errors,frame_errors,ber,fer,"
    "ml_mismatches,phase1_stops,fallbacks,avg_comparisons"
)
_FRAME_LIMIT = 1 << 32  # frame numbers fill 32 bits of a stream id
_POINT_LIMIT = 1 << 31  # point indices fill the other 31 of its 64 bits

CodeLike = Union[str, GeneratorSpec, ConvCodeSpec]


@dataclass(frozen=True)
class SimConfig:
    code: CodeLike
    ebn0_db: tuple[float, ...]
    frames: int
    seed: int
    decoders: tuple[str, ...] = ("two-phase-L1", "exact-ml")
    genie_zero: bool = False
    participation_prune: bool = True
    workers: int = 1
    mismatch_log: str | None = None

    def __post_init__(self):
        # sigma2 of a NaN or infinite point would reach the decoder as NaN samples
        if not all(np.isfinite(self.ebn0_db)):
            raise ToolkitError(f"Eb/N0 points must be finite, got {self.ebn0_db}")


@dataclass
class SimResultRow:
    ebn0_db: float
    decoder: str
    frames: int
    bit_errors: int
    frame_errors: int
    ber: float
    fer: float
    ml_mismatches: int
    phase1_stops: int
    fallbacks: int
    avg_comparisons: float


# ---------------------------------------------------------------------------
# Simulation context

@dataclass
class SimContext:
    name: str
    spec: CodeLike
    ridx: ReachIndex
    rate: float
    error_bits: str  # "message" | "codeword"
    bits_per_frame: int  # BER denominator contribution per frame
    basis: SemiCodewordBasis | None  # block codes only


def _resolve_spec(code: CodeLike) -> tuple[str, GeneratorSpec | ConvCodeSpec, str]:
    if isinstance(code, str):
        entry = get_code(code)
        return entry.name, entry.spec(), entry.error_bits
    if isinstance(code, ConvCodeSpec):
        return f"conv-m{code.memory}-l{code.circle}", code, "message"
    if isinstance(code, GeneratorSpec):
        return f"block-n{code.n}-k{code.k}", code, "codeword"
    raise CatalogError(f"cannot interpret code selector {code!r}")


@lru_cache(maxsize=8)
def build_context(code: CodeLike) -> SimContext:
    """Build (and cache) the trellis machinery for a code selector."""
    name, spec, error_bits = _resolve_spec(code)
    if isinstance(spec, ConvCodeSpec):
        trellis = build_tbt_conv(spec)
        ridx = build_reach_index(trellis)
        if list(ridx.trellis.v_counts) != list(trellis.v_counts):
            raise CatalogError(f"{name}: unreachable encoder states; cannot map paths to messages")
        rate = 0.5
        bits = spec.k
        basis = None
    else:
        trellis = build_tbt_product(spec)
        ridx = build_reach_index(trellis)
        rate = spec.k / spec.n
        bits = spec.n
        basis = semi_codeword_basis(spec)
    return SimContext(
        name=name,
        spec=spec,
        ridx=ridx,
        rate=rate,
        error_bits=error_bits,
        bits_per_frame=bits,
        basis=basis,
    )


def frame_streams(point_idx: int, frame: int) -> tuple[int, int]:
    """Noise and message stream ids for one frame of one Eb/N0 point."""
    if not 0 <= frame < _FRAME_LIMIT:
        # a larger number would reach into the point bits and share streams
        raise ToolkitError(f"frame number {frame} outside [0, 2**32)")
    if not 0 <= point_idx < _POINT_LIMIT:
        # stream ids are keyed as 64 bits, so a larger index would wrap onto another's
        raise ToolkitError(f"Eb/N0 point index {point_idx} outside [0, 2**31)")
    base = (point_idx << 33) | (frame << 1)
    return base, base | 1


def _make_frames(ctx: SimContext, params: ChannelParams, point_idx: int, frames, genie_zero: bool):
    """Messages (F, k), codewords (F, n) and received samples (F, n) of frames ``frames`` of one point.

    Every stream of the batch is drawn in one call, and row f equals the
    frame generated alone.
    """
    noise_streams, msg_streams = np.array([frame_streams(point_idx, f) for f in frames], dtype=np.uint64).T
    spec = ctx.spec
    if genie_zero:
        msgs = np.zeros((len(noise_streams), spec.k), dtype=np.uint8)
    else:
        msgs = random_bits(params.seed, msg_streams, spec.k)
    encode = encode_conv_tailbiting if isinstance(spec, ConvCodeSpec) else encode_block
    codewords = encode(spec, msgs)
    received = awgn_transmit(bpsk_modulate(codewords), params, noise_streams)
    return msgs, codewords, received


def _make_frame(ctx: SimContext, params: ChannelParams, point_idx: int, frame: int, genie_zero: bool):
    """Message, codeword and received samples of one frame: ``_make_frames`` on a batch of one."""
    msgs, codewords, received = _make_frames(ctx, params, point_idx, [frame], genie_zero)
    return msgs[0], codewords[0], ReceivedVector(r=received.r[0])


def _conv_message_from_path(path: np.ndarray) -> np.ndarray:
    """Input bits of a convolutional trellis path, or of each row of stacked paths: newest state bit per step."""
    return (path[..., 1:] & 1).astype(np.uint8)


# ---------------------------------------------------------------------------
# Core loop

@dataclass
class _Tally:
    frames: int = 0
    bit_errors: int = 0
    frame_errors: int = 0
    ml_mismatches: int = 0
    phase1_stops: int = 0
    fallbacks: int = 0
    comparisons: int = 0

    def merge(self, other: "_Tally") -> None:
        self.frames += other.frames
        self.bit_errors += other.bit_errors
        self.frame_errors += other.frame_errors
        self.ml_mismatches += other.ml_mismatches
        self.phase1_stops += other.phase1_stops
        self.fallbacks += other.fallbacks
        self.comparisons += other.comparisons


def _run_chunk(config: SimConfig, point_idx: int, lo: int, hi: int):
    """Simulate frames [lo, hi) of one Eb/N0 point; returns tallies and reports.

    Frames are generated and swept by phase 1 in batches of ``batch_frames``.
    ``_decode_batches`` yields each batch's settled frames at once and pools
    the open frames of successive batches, up to the same cap, for one pass
    of every decoder; each group it yields is tallied as it comes
    (``_tally``).  Every per-frame result is the same as decoding the frame
    alone, and tallies are integer sums, so the grouping changes no output.
    A batch's messages, codewords and samples are kept until the last of its
    frames is tallied, for the comparisons and the reports.
    """
    ctx = build_context(config.code)
    params = ChannelParams(ebn0_db=config.ebn0_db[point_idx], rate=ctx.rate, seed=config.seed)
    tallies = {name: _Tally() for name in config.decoders}
    reports: list[MismatchReport] = []
    size = batch_frames(ctx.ridx)
    made: dict[int, _Batch] = {}

    def batches():
        for b, first in enumerate(range(lo, hi, size)):
            frames = range(first, min(first + size, hi))
            msgs, codewords, received = _make_frames(ctx, params, point_idx, frames, config.genie_zero)
            made[b] = _Batch(frames, msgs, codewords, received.r, len(frames))
            yield edge_weights(ctx.ridx.trellis, received)

    for group in _decode_batches(ctx.ridx, batches(), config.decoders, config.participation_prune):
        rows = [(made[b], f) for b, f, _ in group]
        keys = [b for b, _, _ in group]
        _tally(ctx, config, params, rows, group, tallies, reports)
        for b in keys:
            made[b].left -= 1
            if not made[b].left:
                del made[b]
    return tallies, reports


@dataclass
class _Batch:
    """One batch's generated frames, kept until the last of them is tallied."""

    frames: range
    messages: np.ndarray  # (F, k)
    codewords: np.ndarray  # (F, n)
    samples: np.ndarray  # (F, n)
    left: int  # frames not yet tallied


def _tally(
    ctx: SimContext,
    config: SimConfig,
    params: ChannelParams,
    rows: list[tuple[_Batch, int]],
    group: list,
    tallies: dict[str, _Tally],
    reports: list[MismatchReport],
) -> None:
    """Add one group of decoded frames to the tallies and reports.

    ``group`` holds the (batch, row, FrameDecode) of each frame and ``rows``
    its batch's generated arrays and its row in them.  Every decoder's
    codewords (or, for message errors, paths) are stacked and compared with
    the group's codeword (message) matrix at once, and so are its codewords
    with exact ML's, which counts ``ml_mismatches``.  Reports are built only
    for the mismatch rows, in group order, and each frame's ``FrameDecode`` is
    dropped from ``group`` once its reports are written, so at most one
    frame's all-pairs table is alive at a time.
    """
    messages = np.stack([batch.messages[f] for batch, f in rows])
    sent = np.stack([batch.codewords[f] for batch, f in rows])
    words = {name: np.stack([d.outcomes[name].codeword for _, _, d in group]) for name in config.decoders}
    mismatched = {}  # per decoder other than exact ML: which frames it decoded differently
    for name in config.decoders:
        outcomes = [d.outcomes[name] for _, _, d in group]
        if ctx.error_bits == "message":
            wrong = _conv_message_from_path(np.stack([o.path for o in outcomes])) != messages
        else:
            wrong = words[name] != sent
        tally = tallies[name]
        tally.frames += len(outcomes)
        tally.bit_errors += int(np.count_nonzero(wrong))
        tally.frame_errors += int((words[name] != sent).any(axis=1).sum())
        tally.phase1_stops += sum(o.stage == "phase1" for o in outcomes)
        tally.fallbacks += sum(o.stage == "fallback" for o in outcomes)
        tally.comparisons += sum(o.comparisons + o.fallback_comparisons for o in outcomes)
        if "exact-ml" in words and name != "exact-ml":
            mismatched[name] = (words[name] != words["exact-ml"]).any(axis=1)
            tally.ml_mismatches += int(mismatched[name].sum())
    for k, (batch, f) in enumerate(rows):
        decoded = group[k][2]
        exact = decoded.outcomes.get("exact-ml")
        for name, wrong_rows in mismatched.items():
            if not wrong_rows[k]:
                continue
            outcome = decoded.outcomes[name]
            witness = crossing_pair_witness(decoded.table, exact.subtrellis)
            report = MismatchReport(
                frame=batch.frames[f],
                ebn0_db=params.ebn0_db,
                decoder=name,
                ml_subtrellis=exact.subtrellis,
                ml_weight=exact.weight,
                out_subtrellis=outcome.subtrellis,
                out_weight=outcome.weight,
                crossing_witness=witness,
                crossing_shares_ml_start=(witness[0] == exact.subtrellis) if witness else None,
            )
            if ctx.basis is not None and ctx.basis.matrix.shape[0] <= 20:
                received = ReceivedVector(r=batch.samples[f])
                semi = semi_codeword_witness(received, exact.codeword, ctx.spec, ctx.basis)
                if semi.witness is not None:
                    report.semi_witness = "".join(str(int(b)) for b in semi.witness)
                    report.semi_witness_start = semi.start
                    report.semi_witness_final = semi.final
            reports.append(report)
        decoded = group[k] = None  # drop this frame's all-pairs table before the next frame builds one


def _chunk_bounds(frames: int, workers: int) -> list[tuple[int, int]]:
    workers = max(1, min(workers, frames)) if frames else 1
    size, extra = divmod(frames, workers)
    bounds = []
    lo = 0
    for w in range(workers):
        hi = lo + size + (1 if w < extra else 0)
        bounds.append((lo, hi))
        lo = hi
    return bounds


def run_monte_carlo(config: SimConfig) -> list[SimResultRow]:
    """Simulate every (Eb/N0 point, decoder) pair in the configuration.

    Tallies are integer sums, so how frames are split across workers cannot
    change any output; mismatch reports are gathered and written in frame
    order at the end, replacing any earlier log at that path.  The log is
    opened for appending before any frame is decoded, so a path that cannot
    be written fails at once; this creates an empty file if there was none.
    """
    if not 1 <= config.frames <= _FRAME_LIMIT:
        raise LengthMismatchError("frames must be between 1 and 2**32")
    if not config.ebn0_db:
        raise LengthMismatchError("at least one Eb/N0 point required")
    if not config.decoders:
        raise LengthMismatchError("at least one decoder required")
    for name in config.decoders:
        if name not in DECODER_NAMES:
            raise CatalogError(f"unknown decoder {name!r}; available: {', '.join(DECODER_NAMES)}")
    if config.mismatch_log:
        open(config.mismatch_log, "a", encoding="utf-8").close()
    ctx = build_context(config.code)

    bounds = _chunk_bounds(config.frames, config.workers)
    jobs = [(point_idx, lo, hi) for point_idx in range(len(config.ebn0_db)) for lo, hi in bounds]
    if config.workers > 1 and len(bounds) > 1:
        with ProcessPoolExecutor(max_workers=config.workers) as pool:
            futures = [pool.submit(_run_chunk, config, *job) for job in jobs]
            chunk_results = [f.result() for f in futures]
    else:
        chunk_results = [_run_chunk(config, *job) for job in jobs]
    tallies = [{name: _Tally() for name in config.decoders} for _ in config.ebn0_db]
    all_reports: list[tuple[int, MismatchReport]] = []
    for (point_idx, _, _), (chunk_tallies, chunk_reports) in zip(jobs, chunk_results):
        for name in config.decoders:
            tallies[point_idx][name].merge(chunk_tallies[name])
        all_reports.extend((point_idx, r) for r in chunk_reports)

    rows: list[SimResultRow] = []
    for point_idx, ebn0 in enumerate(config.ebn0_db):
        for name in config.decoders:
            tally = tallies[point_idx][name]
            denom = tally.frames * ctx.bits_per_frame
            rows.append(
                SimResultRow(
                    ebn0_db=ebn0,
                    decoder=name,
                    frames=tally.frames,
                    bit_errors=tally.bit_errors,
                    frame_errors=tally.frame_errors,
                    ber=tally.bit_errors / denom,
                    fer=tally.frame_errors / tally.frames,
                    ml_mismatches=tally.ml_mismatches,
                    phase1_stops=tally.phase1_stops,
                    fallbacks=tally.fallbacks,
                    avg_comparisons=tally.comparisons / tally.frames,
                )
            )
    if config.mismatch_log:
        open(config.mismatch_log, "w", encoding="utf-8").close()  # the writer appends
        all_reports.sort(key=lambda item: (item[0], item[1].frame, item[1].decoder))
        write_mismatch_reports(config.mismatch_log, [r for _, r in all_reports])
    return rows


# ---------------------------------------------------------------------------
# CSV emission

def _fmt(x: float) -> str:
    return f"{x:.6g}"


def emit_results(rows: list[SimResultRow], path: str | None = None, comments: tuple[str, ...] = ()) -> str:
    """Render result rows as CSV (optional '#' metadata comments first)."""
    lines = [f"# {c}" for c in comments]
    lines.append(CSV_HEADER)
    for r in rows:
        lines.append(
            f"{_fmt(r.ebn0_db)},{r.decoder},{r.frames},{r.bit_errors},{r.frame_errors},"
            f"{_fmt(r.ber)},{_fmt(r.fer)},{r.ml_mismatches},{r.phase1_stops},"
            f"{r.fallbacks},{_fmt(r.avg_comparisons)}"
        )
    text = "\n".join(lines) + "\n"
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    return text


def parse_results(text: str) -> list[SimResultRow]:
    """Inverse of emit_results for values surviving the 6-significant-digit format."""
    rows = []
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    if not lines or lines[0] != CSV_HEADER:
        raise LengthMismatchError("missing or malformed CSV header")
    for ln in lines[1:]:
        parts = ln.split(",")
        rows.append(
            SimResultRow(
                ebn0_db=float(parts[0]),
                decoder=parts[1],
                frames=int(parts[2]),
                bit_errors=int(parts[3]),
                frame_errors=int(parts[4]),
                ber=float(parts[5]),
                fer=float(parts[6]),
                ml_mismatches=int(parts[7]),
                phase1_stops=int(parts[8]),
                fallbacks=int(parts[9]),
                avg_comparisons=float(parts[10]),
            )
        )
    return rows


# ---------------------------------------------------------------------------
# Single-frame tracing

def _trace_float(x: float) -> str:
    return repr(float(x))


def trace_frame(
    config: SimConfig,
    frame: int,
    point_idx: int = 0,
    list_size: int = 1,
    trace_path: str | None = None,
) -> tuple[DecodeOutcome, str]:
    """Replay one frame with per-vertex phase records and an invariant audit.

    The frame is reconstructed from the same streams the Monte-Carlo loop
    uses, so the outcome here equals the outcome inside a full run.
    """
    ctx = build_context(config.code)
    ridx = ctx.ridx
    trellis = ridx.trellis
    ebn0 = config.ebn0_db[point_idx]
    params = ChannelParams(ebn0_db=ebn0, rate=ctx.rate, seed=config.seed)
    msg, codeword, received = _make_frame(ctx, params, point_idx, frame, config.genie_zero)
    weights = edge_weights(trellis, received)

    name = two_phase_name(list_size)
    decoded = decode_frame(ridx, weights, (name,), config.participation_prune)
    p1, p2, outcome = decoded.p1, decoded.p2, decoded.outcomes[name]

    def pred(pred_edge: list[np.ndarray], p: int, v: int) -> int:
        """Global id of the survivor's predecessor of vertex v at index p (-1 at index 0)."""
        if p == 0:
            return -1
        return int(ridx.v_offsets[p - 1] + ridx.frm[p - 1][pred_edge[p - 1][v]])

    lines = [f"frame={frame} ebn0_db={_trace_float(ebn0)} seed={config.seed} code={ctx.name}"]
    for p in range(trellis.n_sections + 1):
        for v in range(trellis.v_counts[p]):
            gid = ridx.global_vertex(p, v)
            lines.append(
                f"phase=1 v={gid} cost={_trace_float(p1.cost[p][v])}"
                f" surv={int(p1.surv[p][v])} pred={pred(p1.pred_edge, p, v)}"
            )
    if p2 is not None:
        for p in range(trellis.n_sections + 1):
            for v in range(trellis.v_counts[p]):
                gid = ridx.global_vertex(p, v)
                if np.isfinite(p2.metric[p][v]):
                    lines.append(
                        f"phase=2 v={gid} metric={_trace_float(p2.metric[p][v])}"
                        f" trellis={int(p2.trellis[p][v])}"
                        f" dist={_trace_float(p2.dist[p][v])} pred={pred(p2.pred_edge, p, v)}"
                    )
                else:
                    lines.append(f"phase=2 v={gid} metric=inf trellis=-1 dist=inf pred=-1")
    bits = "".join(str(int(b)) for b in outcome.codeword)
    lines.append(
        f"outcome stage={outcome.stage} subtrellis={outcome.subtrellis}"
        f" weight={_trace_float(outcome.weight)} codeword={bits}"
    )
    audit = audit_decode_invariants(ridx, weights, p1, p2)
    lines.append(f"audit checks={len(audit.checks)} violations={len(audit.violations)}")
    for violation in audit.violations:
        lines.append(f"audit-violation {violation}")
    text = "\n".join(lines) + "\n"
    if trace_path:
        with open(trace_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    return outcome, text
