"""Two-phase decoding on tail-biting trellises.

The decoder makes two Viterbi-like passes over the trellis:

* Phase 1 (estimation) relaxes every edge once with *all* starts seeded at
  cost zero.  Afterwards ``cost[v]`` is the cheapest way to reach v from any
  start — a lower bound obtained on the semi-codeword space — and each vertex
  remembers which start its survivor came from.  If the cheapest final's
  survivor is its own paired start, that survivor is already the cheapest
  path overall and decoding stops: nothing, codeword or not, can beat it.

* Phase 2 (revision) re-walks the trellis restricted to paths that stay
  inside a single subtrellis, using the membership masks for an O(1) edge
  test.  Each surviving candidate carries the identity of its subtrellis and
  a corrected metric ``dist[u] + cost_to_come_lower_bound`` so that at a
  final state the metric equals the true path weight.  The final decision
  picks the best codeword seen by either phase.

Both passes do one cost comparison per scanned edge (phase 2 only for edges
that pass membership), so the comparison count is at most twice that of a
single full-trellis Viterbi sweep.

Exact maximum likelihood (``decode_exact_ml``) needs one restricted Viterbi
sweep per subtrellis at worst.  It starts from phase 1 instead: the final
costs bound every subtrellis's codeword weight from below, and a final that
closed its own loop already is that codeword's weight, so only the
subtrellises whose bound could still beat the cheapest closed final are
swept, and a frame phase 1 settled needs no sweep at all.  The full per-start
sweep (``parallel_start_costs``, ``all_pairs_start_final_distances``) stays
out of the decode path, as the oracle of the audits, witnesses and tests.

``decode_frames`` runs each phase at most once per frame and derives every
requested decoder's decision from that shared state.  Phase 1, its stop test
and the traceback of the frames it settles run over a whole batch of frames
at once.  Phase 2, its final decision and the list sweep then run once more,
batched, over just the frames phase 1 left open; the list sweep gives every
vertex a fixed number of candidate slots, so one kernel of sorts along that
axis serves every trellis.  ``decode_frame`` is the batch of one, and the
``decode_*`` functions are single-decoder calls into it.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, replace
from functools import cached_property
from math import prod
from typing import Iterator

import numpy as np

from .channel import ReceivedVector, WeightAssignment
from .errors import CatalogError, LengthMismatchError, NoPathError
from .trellis import ReachIndex

__all__ = [
    "Phase1State",
    "Phase2State",
    "ListState",
    "DecodeOutcome",
    "SubtrellisResult",
    "DistanceTable",
    "FrameDecode",
    "DECODER_NAMES",
    "phase1",
    "phase1_decision",
    "phase2",
    "final_decision",
    "decode_frame",
    "decode_frames",
    "two_phase_name",
    "decode_two_phase",
    "decode_phase1_only",
    "viterbi_subtrellis",
    "decode_exact_ml",
    "brute_force_ml",
    "euclidean_weight",
    "all_pairs_start_final_distances",
    "parallel_start_costs",
]


# ---------------------------------------------------------------------------
# State containers

@dataclass
class Phase1State:
    """Multi-source sweep results: per-index cost / survivor-start / pred arrays.

    Arrays of one frame's sweep are (V,) per index; a batch of F frames swept
    together has (F, V) arrays whose row f is frame f's state.  ``comparisons``
    and ``edge_visits`` count one frame's work.
    """

    cost: list[np.ndarray]
    surv: list[np.ndarray]
    pred_edge: list[np.ndarray]  # entry p is for time index p+1
    comparisons: int
    edge_visits: int
    delta_finals: np.ndarray  # (t,) cost at final i
    surv_finals: np.ndarray  # (t,) survivor start at final i

    def frame(self, f: int) -> "Phase1State":
        """Frame f of a batched sweep as row views; one frame's state is itself."""
        return self if self.delta_finals.ndim == 1 else self.take(f)

    def take(self, rows) -> "Phase1State":
        """Rows ``rows`` of a batched sweep: one frame's state for an int, a batch for an array."""
        return Phase1State(
            cost=[a[rows] for a in self.cost],
            surv=[a[rows] for a in self.surv],
            pred_edge=[a[rows] for a in self.pred_edge],
            comparisons=self.comparisons,
            edge_visits=self.edge_visits,
            delta_finals=self.delta_finals[rows],
            surv_finals=self.surv_finals[rows],
        )


@dataclass
class Phase2State:
    """Subtrellis-restricted sweep: metric / trellis id / path dist / pred arrays.

    Shaped as ``Phase1State``: (V,) per index for one frame, (F, V) for a
    batch.  ``comparisons`` counts one frame's work, so a batch holds one
    count per frame, (F,); ``edge_visits`` is the same for every frame.
    """

    metric: list[np.ndarray]
    trellis: list[np.ndarray]
    dist: list[np.ndarray]
    pred_edge: list[np.ndarray]
    participants: np.ndarray  # bool (t,)
    comparisons: int | np.ndarray
    edge_visits: int
    metric_finals: np.ndarray
    trellis_finals: np.ndarray

    def frame(self, f: int) -> "Phase2State":
        """Frame f of a batched sweep as row views; one frame's state is itself."""
        if self.metric_finals.ndim == 1:
            return self
        return Phase2State(
            metric=[a[f] for a in self.metric],
            trellis=[a[f] for a in self.trellis],
            dist=[a[f] for a in self.dist],
            pred_edge=[a[f] for a in self.pred_edge],
            participants=self.participants[f],
            comparisons=int(self.comparisons[f]),
            edge_visits=self.edge_visits,
            metric_finals=self.metric_finals[f],
            trellis_finals=self.trellis_finals[f],
        )


@dataclass
class ListState:
    """What the list variant's decision reads: final metrics and the pred arrays to trace.

    Entry [r, v] of ``pred_edge[p]`` and ``pred_rank[p]`` names the in-edge
    and the source rank of vertex v's rank-r candidate at index p+1, both 0 in
    an empty slot; ``metric_finals[r, i]`` is the rank-r metric at final i
    (inf if empty).  A batch adds a leading frame axis to every array, and
    ``comparisons`` then holds one count per frame.
    """

    pred_edge: list[np.ndarray]  # (L, V) per index past 0
    pred_rank: list[np.ndarray]
    metric_finals: np.ndarray  # (L, t)
    comparisons: int | np.ndarray


@dataclass
class DecodeOutcome:
    codeword: np.ndarray  # uint8 (n_sections * label_width,)
    path: np.ndarray  # int32 (n_sections + 1,) local vertex ids
    weight: float
    stage: str  # "phase1" | "phase2" | "fallback" | "exact"
    subtrellis: int
    comparisons: int
    edge_visits: int
    fallback_comparisons: int = 0


@dataclass
class SubtrellisResult:
    weight: float
    path: np.ndarray
    codeword: np.ndarray
    comparisons: int


@dataclass
class DistanceTable:
    """d[k, j] = weight of the cheapest start-k..final-j path (inf if none)."""

    d: np.ndarray


@dataclass
class FrameDecode:
    """One frame's decisions by decoder name, plus the state they came from."""

    outcomes: dict[str, DecodeOutcome] = field(default_factory=dict)
    p2: Phase2State | None = None  # None if phase 1 settled the frame or no two-phase decoder ran
    sweep: Phase1State | None = field(default=None, repr=False)  # the phase-1 sweep, maybe batched
    row: int = 0  # this frame's row in ``sweep`` and ``weights``
    ridx: ReachIndex | None = field(default=None, repr=False)
    weights: WeightAssignment | None = field(default=None, repr=False)  # maybe batched

    @cached_property
    def p1(self) -> Phase1State:
        """This frame's phase-1 state."""
        return self.sweep.frame(self.row)

    @cached_property
    def costs(self) -> list[np.ndarray]:
        """Per-start costs, (t, V) per index: the all-pairs oracle, swept on first access."""
        weights = self.weights
        if weights.sections[0].ndim > 1:
            weights = weights.frame(self.row)
        return parallel_start_costs(self.ridx, weights)

    @cached_property
    def table(self) -> DistanceTable:
        """The start-to-final distance table of ``costs``."""
        return DistanceTable(d=self.costs[-1][:, self.ridx.trellis.finals])


# ---------------------------------------------------------------------------
# Shared sweep machinery

def _check_weights(ridx: ReachIndex, weights: WeightAssignment) -> None:
    for p, sec in enumerate(ridx.trellis.sections):
        if weights.sections[p].shape[-1] != sec.num_edges:
            raise LengthMismatchError(f"weights for section {p + 1} do not match edge count")


def _group_min(cand: np.ndarray, ridx: ReachIndex, p: int) -> np.ndarray:
    """Minimum over each vertex's in-edges of section p, along the last axis.

    When every vertex has the same number g of in-edges (convolutional
    trellises), the groups are the strided slices k::g and g - 1 elementwise
    minima replace the much slower reduceat.
    """
    g = ridx.group_width[p]
    if not g:
        return np.minimum.reduceat(cand, ridx.group_starts[p], axis=-1)
    best = cand[..., 0::g]
    for k in range(1, g):
        best = np.minimum(best, cand[..., k::g])
    return best


def _grouped_first_min(values: np.ndarray, ridx: ReachIndex, p: int, starts=None):
    """Per-vertex minimum plus the first edge attaining it (ties: lowest edge id).

    ``values`` holds section p's candidates of one frame, or of several frames
    one after another with ``starts`` the first edge of every frame's vertex
    groups; the returned edges index ``values``.  When every vertex has the
    same number g of in-edges, the g strided slices are compared in turn, a
    later edge winning only when strictly cheaper.
    """
    g = ridx.group_width[p]
    if starts is None:
        starts = ridx.group_starts[p]
    if g:
        best, off = values[0::g], 0
        for k in range(1, g):
            cand = values[k::g]
            better = cand < best
            off = better if k == 1 else np.where(better, k, off)
            if k + 1 < g:
                best = np.minimum(best, cand)
        win = starts + off
    else:
        best = np.minimum.reduceat(values, starts)
        tie = values == np.repeat(best, np.diff(starts, append=len(values)))
        pos = np.where(tie, np.arange(len(values)), len(values))
        win = np.minimum.reduceat(pos, starts)
    return values[win], win


def _traceback(
    ridx: ReachIndex,
    pred_edge: list[np.ndarray],
    final_vertices,
    weights: WeightAssignment,
    frames: np.ndarray | None = None,
    pred_rank: list[np.ndarray] | None = None,
    ranks=None,
):
    """Walk pred edges from final vertices back to index 0: paths, labels, true weights.

    There is one walk per final vertex, all taken together, and row k of each
    result belongs to walk k.  ``pred_edge[p]`` is one sweep's (V,) array, or
    a batch's (F, V) with ``frames`` naming each walk's frame (``weights`` is
    then the batch's too), or a list sweep's (L, V) or (F, L, V) with
    ``pred_rank`` and each walk's starting rank in ``ranks``.

    The weight is re-accumulated left to right over the traced edges — the
    same float additions the sweep performed — so it is the exact path sum
    rather than a metric that went through a telescoping correction.
    """
    trellis = ridx.trellis
    n = trellis.n_sections
    v = np.asarray(final_vertices, dtype=np.intp)
    rows = frames
    if pred_rank is not None:  # a list's rows are frame * L + rank
        first = 0 if frames is None else frames * pred_rank[0].shape[-2]
        rows = first + np.asarray(ranks, dtype=np.intp)
    if rows is not None:  # index the flattened rows at row * V + v
        pred_edge = [a.reshape(-1) for a in pred_edge]
        if pred_rank is not None:
            pred_rank = [a.reshape(-1) for a in pred_rank]
    walk = [v]
    edges = []
    for p in range(n - 1, -1, -1):
        at = v if rows is None else rows * trellis.v_counts[p + 1] + v
        e = pred_edge[p][at].astype(np.intp)  # int32 indices gather slowly
        if pred_rank is not None:
            rows = first + pred_rank[p][at]
        v = ridx.frm[p][e]
        walk.append(v)
        edges.append(e)
    paths = np.concatenate(walk[::-1]).reshape(n + 1, -1).T.astype(np.int32, order="C")
    edges = np.concatenate(edges[::-1]).reshape(n, -1).T + trellis.edge_offsets[:-1]
    bits = ridx.label_bit_table[edges].reshape(len(paths), -1)
    table = weights.table
    if table is None:
        table = np.concatenate(weights.sections, axis=-1)
    steps = np.zeros((len(paths), n + 1))
    steps[:, 1:] = table[edges] if frames is None else table[frames[:, None], edges]
    return paths, bits, np.cumsum(steps, axis=1)[:, -1]


def _outcomes(
    ridx: ReachIndex,
    weights: WeightAssignment,
    stage: str,
    subtrellises,
    comparisons: int,
    edge_visits: int,
    pred_edge: list[np.ndarray] | None = None,
    frames: np.ndarray | None = None,
    pred_rank: list[np.ndarray] | None = None,
    ranks=None,
) -> list[DecodeOutcome]:
    """The decisions for subtrellises ``subtrellises``; every DecodeOutcome is built here.

    With ``pred_edge`` each codeword is traced back from its final, all in
    one walk (``frames``, ``pred_rank`` and ``ranks`` as in ``_traceback``).
    Without, a restricted Viterbi sweep of the one subtrellis finds it; only a
    fallback does that, and it reports the sweep's comparisons as
    ``fallback_comparisons``.  ``comparisons`` and ``edge_visits`` are one
    int for all, or a list of one per subtrellis.
    """
    if pred_edge is None:
        (i,) = subtrellises
        sub = viterbi_subtrellis(ridx, weights, i)
        traced, extra = [(sub.path, sub.codeword, sub.weight)], sub.comparisons
    elif len(subtrellises):
        finals = ridx.trellis.finals[np.asarray(subtrellises, dtype=np.intp)]
        paths, bits, weight = _traceback(ridx, pred_edge, finals, weights, frames, pred_rank, ranks)
        traced, extra = zip(paths, bits, weight.tolist()), 0
    else:
        return []
    counts, visits = ([c] * len(subtrellises) if isinstance(c, int) else c for c in (comparisons, edge_visits))
    return [
        DecodeOutcome(
            codeword=bits,
            path=path,
            weight=weight,
            stage=stage,
            subtrellis=int(i),
            comparisons=c,
            edge_visits=ev,
            fallback_comparisons=extra,
        )
        for i, (path, bits, weight), c, ev in zip(subtrellises, traced, counts, visits)
    ]


def _outcome(
    ridx: ReachIndex,
    weights: WeightAssignment,
    stage: str,
    i: int,
    comparisons: int,
    edge_visits: int,
    pred_edge: list[np.ndarray] | None = None,
    pred_rank: list[np.ndarray] | None = None,
    rank: int = 0,
) -> DecodeOutcome:
    """The decision for subtrellis ``i`` of one frame (see ``_outcomes``)."""
    ranks = None if pred_rank is None else [rank]
    return _outcomes(
        ridx, weights, stage, [i], comparisons, edge_visits, pred_edge, None, pred_rank, ranks
    )[0]


def _fallback(
    ridx: ReachIndex,
    weights: WeightAssignment,
    p1: Phase1State,
    comparisons: int,
    edge_visits: int,
) -> DecodeOutcome:
    """No codeword to trace: one restricted sweep on the most promising subtrellis."""
    i_star = int(np.argmin(p1.delta_finals))
    return _outcome(ridx, weights, "fallback", i_star, comparisons, edge_visits)


# ---------------------------------------------------------------------------
# Phase 1

PHASE1_BATCH_BYTES = 1 << 20  # phase-1 state of the frames one batch sweeps together


def batch_frames(ridx: ReachIndex) -> int:
    """Frames per batch: as many as keep their phase-1 state within PHASE1_BATCH_BYTES.

    A frame's state is a float64 cost and an int32 survivor per vertex, plus
    an int32 pred edge per vertex past index 0; the batch's (F, E) edge
    weights take about as much again.
    """
    v = ridx.trellis.v_counts
    per_frame = 12 * sum(v) + 4 * sum(v[1:])
    return max(1, PHASE1_BATCH_BYTES // per_frame)


def phase1(ridx: ReachIndex, weights: WeightAssignment) -> Phase1State:
    """One forward sweep with every start seeded at zero cost.

    Ties between equal-cost candidates go to the earliest edge in the
    section's canonical order, so results are deterministic and match a
    scalar edge-by-edge relaxation with strict-improvement updates.

    Batched weights, (F, E_p) per section, sweep F frames at once and give a
    batched state; row f is bit for bit the sweep of frame f alone, because
    the frames share no arithmetic.  The sweep runs on flat arrays holding
    the frames one after another, with each frame's indices shifted into its
    own block.
    """
    _check_weights(ridx, weights)
    trellis = ridx.trellis
    t = ridx.t
    batch = weights.sections[0].shape[:-1]
    n_frames = prod(batch)
    shift = np.arange(n_frames)[:, None]
    v0 = trellis.v_counts[0]
    cost = [np.full(n_frames * v0, np.inf)]
    surv = [np.zeros(n_frames * v0, dtype=np.int32)]
    pred_edge: list[np.ndarray] = []
    starts = (trellis.starts + v0 * shift).ravel()
    cost[0][starts] = 0.0
    surv[0][starts] = np.tile(np.arange(t, dtype=np.int32), n_frames)
    for p in range(trellis.n_sections):
        frm, groups = ridx.frm[p], ridx.group_starts[p]
        if n_frames > 1:
            frm = (frm + trellis.v_counts[p] * shift).ravel()
            groups = (groups + len(ridx.frm[p]) * shift).ravel()
        cand = cost[p][frm]
        cand += weights.sections[p].reshape(-1)
        best, win = _grouped_first_min(cand, ridx, p, groups)
        cost.append(best)
        surv.append(surv[p][frm[win]])
        if n_frames > 1:  # back to edge ids within each frame's section
            win = (win.reshape(n_frames, -1) - len(ridx.frm[p]) * shift).ravel()
        pred_edge.append(win.astype(np.int32))
    if batch:
        cost, surv, pred_edge = (
            [a.reshape(*batch, -1) for a in arrays] for arrays in (cost, surv, pred_edge)
        )
    num_edges = trellis.num_edges
    return Phase1State(
        cost=cost,
        surv=surv,
        pred_edge=pred_edge,
        comparisons=num_edges,
        edge_visits=num_edges,
        delta_finals=cost[-1][..., trellis.finals],
        surv_finals=surv[-1][..., trellis.finals],
    )


def _phase1_stops(
    ridx: ReachIndex, p1: Phase1State, weights: WeightAssignment
) -> list[DecodeOutcome | None]:
    """The stop test on every frame of a sweep, with one traceback for all that stop.

    A frame stops when the cheapest final's survivor closed its own
    subtrellis; its entry is that codeword's outcome, the others' are None.
    """
    delta = p1.delta_finals.reshape(-1, ridx.t)
    j = delta.argmin(axis=1)
    stopped = np.flatnonzero(p1.surv_finals.reshape(-1, ridx.t)[np.arange(len(j)), j] == j)
    frames = stopped if p1.delta_finals.ndim == 2 else None
    traced = _outcomes(
        ridx, weights, "phase1", j[stopped], p1.comparisons, p1.edge_visits, p1.pred_edge, frames
    )
    decisions: list[DecodeOutcome | None] = [None] * len(j)
    for f, outcome in zip(stopped, traced):
        decisions[f] = outcome
    return decisions


def phase1_decision(
    ridx: ReachIndex, p1: Phase1State, weights: WeightAssignment
) -> DecodeOutcome | None:
    """Stop if the cheapest final's survivor closed its own subtrellis (one frame)."""
    return _phase1_stops(ridx, p1, weights)[0]


# ---------------------------------------------------------------------------
# Phase 2

def _participants(p1: Phase1State, prune: bool) -> np.ndarray:
    own = p1.surv_finals == np.arange(p1.surv_finals.shape[-1])
    crossed = ~own
    if not prune:
        return crossed
    threshold = np.where(own, p1.delta_finals, np.inf).min(axis=-1, keepdims=True)
    return crossed & (p1.delta_finals <= threshold)


def phase2(
    ridx: ReachIndex,
    weights: WeightAssignment,
    p1: Phase1State,
    participation_prune: bool = True,
) -> Phase2State:
    """Second sweep restricted to membership-consistent paths.

    A subtrellis participates when phase 1 crossed its final (and, under the
    default pruning rule, when its phase-1 final cost does not exceed the best
    final that already closed as a codeword — such a subtrellis could never
    win).  Each start seeds metric = its final's phase-1 cost; the update for
    an edge (u, v) inside subtrellis j adds the edge weight to the path dist
    and corrects the heuristic part: metric = dist + cost(final j) - cost(v).
    At final j the correction telescopes away and metric is the exact weight
    of the traced path.

    Batched weights and phase-1 state, as ``phase1`` takes and gives them,
    sweep F frames at once on the same flat shifted-block arrays, with the
    same tie rule; row f is bit for bit the sweep of frame f alone.
    """
    trellis = ridx.trellis
    t = ridx.t
    batch = weights.sections[0].shape[:-1]
    n_frames = prod(batch)
    shift = np.arange(n_frames)[:, None]
    participants = _participants(p1, participation_prune)
    d_final = p1.delta_finals.reshape(-1)
    v0 = trellis.v_counts[0]
    metric = [np.full(n_frames * v0, np.inf)]
    tr = [np.zeros(n_frames * v0, dtype=np.int32)]
    dist = [np.full(n_frames * v0, np.inf)]
    pred_edge: list[np.ndarray] = []
    starts = (trellis.starts + v0 * shift).ravel()
    tr[0][starts] = np.tile(np.arange(t, dtype=np.int32), n_frames)
    active = participants.reshape(-1)
    metric[0][starts[active]] = d_final[active]
    dist[0][starts[active]] = 0.0
    comparisons = 0
    for p, sec in enumerate(trellis.sections):
        frm, groups, to = ridx.frm[p], ridx.group_starts[p], sec.to
        if n_frames > 1:
            frm = (frm + trellis.v_counts[p] * shift).ravel()
            groups = (groups + len(to) * shift).ravel()
        tr_u = tr[p][frm]
        ids = tr_u.reshape(n_frames, -1)  # each frame's subtrellises, for membership and final costs
        ok = np.isfinite(metric[p][frm]) & ridx.member_bit(p, ids).ravel()
        step = dist[p][frm] + weights.sections[p].reshape(-1)
        d_tr = d_final[(ids + t * shift).ravel()]
        cand = np.where(ok, (step + d_tr) - p1.cost[p + 1][..., to].ravel(), np.inf)
        best, win = _grouped_first_min(cand, ridx, p, groups)
        metric.append(best)
        tr.append(tr_u[win])
        dist.append(step[win])
        if n_frames > 1:  # back to edge ids within each frame's section
            win = (win.reshape(n_frames, -1) - len(to) * shift).ravel()
        pred_edge.append(win.astype(np.int32))
        comparisons = comparisons + ok.reshape(*batch, -1).sum(axis=-1)
    if batch:
        metric, tr, dist, pred_edge = (
            [a.reshape(*batch, -1) for a in arrays] for arrays in (metric, tr, dist, pred_edge)
        )
    return Phase2State(
        metric=metric,
        trellis=tr,
        dist=dist,
        pred_edge=pred_edge,
        participants=participants,
        comparisons=comparisons if batch else int(comparisons),
        edge_visits=trellis.num_edges,
        metric_finals=metric[-1][..., trellis.finals],
        trellis_finals=tr[-1][..., trellis.finals],
    )


def final_decision(
    ridx: ReachIndex,
    weights: WeightAssignment,
    p1: Phase1State,
    p2: Phase2State,
) -> DecodeOutcome:
    """Pick the best codeword either phase produced; fall back if neither did.

    Candidates: finals phase 1 closed as codewords (at their phase-1 cost) and
    finals phase 2 assigned a finite metric.  Ties prefer phase 1, then the
    lowest subtrellis index.  If the pool is empty — possible only when
    membership starves every participant — run a single restricted Viterbi
    sweep on the most promising subtrellis so a codeword is always returned.
    This decides one frame; ``_final_decisions`` decides a batch.
    """
    return _final_decisions(ridx, weights, p1, p2)[0]


def _final_decisions(
    ridx: ReachIndex,
    weights: WeightAssignment,
    p1: Phase1State,
    p2: Phase2State,
) -> list[DecodeOutcome]:
    """``final_decision`` for every frame of a sweep, one batch or one frame.

    Each frame's pool lists its closed phase-1 finals and then its finite
    phase-2 finals, by index, so the first minimum of the pool is its least
    (weight, phase, index).  The winners of each phase are traced together.
    """
    t = ridx.t
    valid = np.concatenate([p1.surv_finals == np.arange(t), np.isfinite(p2.metric_finals)], -1)
    pool = np.where(valid, np.concatenate([p1.delta_finals, p2.metric_finals], -1), np.inf)
    valid, pool = valid.reshape(-1, 2 * t), pool.reshape(-1, 2 * t)
    comparisons = (p1.comparisons + np.array(p2.comparisons, ndmin=1)).tolist()
    edge_visits = p1.edge_visits + p2.edge_visits
    batched = p1.delta_finals.ndim == 2
    decisions: list[DecodeOutcome | None] = [None] * len(pool)
    won: tuple[list, list] = ([], [])  # (frame, subtrellis) won by phase 1, by phase 2
    for f, k in enumerate(pool.argmin(axis=1).tolist()):
        if not valid[f, k]:  # every member of the pool weighs inf, or there is none
            if not valid[f].any():
                frame_weights = weights.frame(f) if batched else weights
                decisions[f] = _fallback(ridx, frame_weights, p1.frame(f), comparisons[f], edge_visits)
                continue
            k = int(valid[f].argmax())
        won[k >= t].append((f, k % t))
    for stage, pred_edge, pairs in (("phase1", p1.pred_edge, won[0]), ("phase2", p2.pred_edge, won[1])):
        if pairs:
            frames, finals = (list(x) for x in zip(*pairs))
            traced = _outcomes(
                ridx, weights, stage, finals, [comparisons[f] for f in frames], edge_visits,
                pred_edge, np.array(frames) if batched else None,
            )
            for f, outcome in zip(frames, traced):
                decisions[f] = outcome
    return decisions


# ---------------------------------------------------------------------------
# List variant

def _list_slots(ridx: ReachIndex, list_size: int) -> list[tuple[np.ndarray, ...]]:
    """Per section, the fixed-width candidate slots of the list sweep.

    Every vertex has W = L * g slots, g the section's largest in-degree: slot
    r * g + k holds in-edge k of the vertex (``ReachIndex.in_edges``) fed by
    rank r of its source, so the slots follow (rank, in-edge) order.  Each
    entry is (src, edges, pred, real): the slot's source in one frame's
    (V_prev, L) state, its edge, its int32 (edge, rank) flattened, and the
    (V, W) mask of slots that are real in-edges (None if all are).  They
    depend only on the trellis, so each list size's are built once and kept
    in ``ridx``.
    """
    if list_size in ridx.list_slots:
        return ridx.list_slots[list_size]
    slots = ridx.list_slots[list_size] = []
    for p, (in_edges, real) in enumerate(zip(ridx.in_edges, ridx.in_real)):
        g = in_edges.shape[1]
        edges = np.tile(in_edges, list_size)
        ranks = np.repeat(np.arange(list_size), g)
        pred = np.stack(np.broadcast_arrays(edges, ranks)).astype(np.int32).reshape(2, -1)
        slots.append((
            ridx.frm[p][edges] * list_size + ranks,
            edges,
            pred,
            None if real is None else np.tile(real, list_size),
        ))
    return slots


def _phase2_list(
    ridx: ReachIndex,
    weights: WeightAssignment,
    p1: Phase1State,
    list_size: int,
    participants: np.ndarray,
) -> ListState:
    """Keep the best `list_size` candidates per vertex instead of one.

    Candidate lists hold at most one entry per subtrellis first (each
    subtrellis's cheapest), then fill remaining slots with the next-best
    leftovers by metric.  Ordering ties follow (metric, source rank, edge io
    order), which reduces to the scalar rule on rank 0.

    Each vertex weighs its W candidate slots (``_list_slots``) at once.  A
    stable argsort orders them by (metric, slot), and a stable argsort of
    their subtrellises in that order groups each subtrellis's slots, cheapest
    first.  A slot is in stage 1 if it is dead (no finite metric) or not
    first in its group, and sorting by (stage, metric position) puts the
    first L slots in the list: O(W log W) work per vertex.  Dead slots leave
    their entries at the initial values.  Batched weights and phase-1 state
    sweep F frames at once, each frame's (V, L) state in its own block; only
    the pred arrays and final metrics are kept.
    """
    trellis = ridx.trellis
    t = ridx.t
    batch = weights.sections[0].shape[:-1]
    n_frames = prod(batch)
    shift = np.arange(n_frames)[:, None, None]
    d_final = p1.delta_finals.reshape(-1)
    v0 = trellis.v_counts[0]
    metric = np.full((n_frames, v0, list_size), np.inf)
    tr = np.zeros((n_frames, v0, list_size), dtype=np.int32)
    dist = np.full((n_frames, v0, list_size), np.inf)
    tr[:, trellis.starts, 0] = np.arange(t, dtype=np.int32)
    frames, i = np.nonzero(participants.reshape(n_frames, t))
    metric[frames, trellis.starts[i], 0] = d_final[frames * t + i]
    dist[frames, trellis.starts[i], 0] = 0.0
    comparisons = 0
    pred_edge: list[np.ndarray] = []
    pred_rank: list[np.ndarray] = []
    for p, (src, edges, pred, real) in enumerate(_list_slots(ridx, list_size)):
        v, width = edges.shape
        if n_frames > 1:
            src = src + trellis.v_counts[p] * list_size * shift
        tr_u = tr.reshape(-1)[src]
        ok = np.isfinite(metric.reshape(-1)[src]) & ridx.member_bit(p, tr_u, edges)
        if real is not None:
            ok &= real
        step = dist.reshape(-1)[src] + weights.sections[p][..., edges]
        d_tr = d_final[tr_u + t * shift]
        cand = np.where(ok, (step + d_tr) - p1.cost[p + 1][..., None], np.inf)
        comparisons = comparisons + ok.reshape(*batch, -1).sum(axis=-1)
        cand = cand.reshape(-1, width)  # one row of slots per (frame, vertex)
        base = np.arange(0, cand.size, width)[:, None]
        by_metric = cand.argsort(axis=1, kind="stable") + base
        # each row's metric positions in (subtrellis, metric) order: the first
        # of each run of equal subtrellises is stage 0 unless dead, the rest stage 1
        tr_sorted = tr_u.reshape(-1)[by_metric]
        by_tr = tr_sorted.argsort(axis=1, kind="stable") + base
        runs = tr_sorted.reshape(-1)[by_tr]
        late = ~np.isfinite(cand.reshape(-1)[by_metric.reshape(-1)[by_tr]])
        late[:, 1:] |= runs[:, 1:] == runs[:, :-1]
        # (stage, metric position) keys are distinct, so any sort orders them stably
        first = np.where(late, by_tr + width, by_tr).argsort(axis=1)[:, :list_size]
        keep = by_metric.reshape(-1)[by_tr.reshape(-1)[first + base]]
        kept = np.isfinite(cand.reshape(-1)[keep])
        metric = cand.reshape(-1)[keep]
        tr = np.where(kept, tr_u.reshape(-1)[keep], 0)
        dist = np.where(kept, step.reshape(-1)[keep], np.inf)
        at = keep % (v * width)  # slot within its frame's section
        for out, values in ((pred_edge, pred[0]), (pred_rank, pred[1])):
            out.append(np.where(kept, values[at], 0).reshape(*batch, v, list_size).swapaxes(-1, -2))
    finals = metric.reshape(*batch, -1, list_size)[..., trellis.finals, :]
    return ListState(
        pred_edge=pred_edge,
        pred_rank=pred_rank,
        metric_finals=finals.swapaxes(-1, -2),
        comparisons=comparisons if batch else int(comparisons),
    )


def _list_decisions(
    ridx: ReachIndex,
    weights: WeightAssignment,
    p1: Phase1State,
    p2: Phase2State,
    scalar: list[DecodeOutcome],
    list_size: int,
) -> list[DecodeOutcome]:
    """Pool each frame's list-sweep finals with its single-candidate decision."""
    ls = _phase2_list(ridx, weights, p1, list_size, p2.participants)
    pool = ls.metric_finals.swapaxes(-1, -2).reshape(len(scalar), -1)  # by (final, rank)
    best = pool.argmin(axis=1)
    frames = np.flatnonzero(np.isfinite(pool[np.arange(len(pool)), best]))
    comparisons = np.array([s.comparisons for s in scalar]) + ls.comparisons
    i, r = np.divmod(best[frames], list_size)
    traced = _outcomes(
        ridx, weights, "phase2", i, comparisons[frames].tolist(), [scalar[f].edge_visits for f in frames],
        ls.pred_edge, frames if p1.delta_finals.ndim == 2 else None, ls.pred_rank, r,
    )
    found = dict(zip(frames.tolist(), traced))
    decisions = []
    for f, single in enumerate(scalar):
        out = found.get(f)
        # Compare true path weights; the single-candidate result wins ties so
        # a larger list can only strictly improve the decision.
        if out is not None and (single.stage == "fallback" or out.weight < single.weight):
            decisions.append(out)
        else:
            decisions.append(replace(single, comparisons=int(comparisons[f])))
    return decisions


def _phase1_only(ridx: ReachIndex, weights: WeightAssignment, p1: Phase1State) -> DecodeOutcome:
    """Cheapest final that closed its loop in phase 1, else a fallback sweep."""
    own = p1.surv_finals == np.arange(ridx.t)
    if not own.any():
        return _fallback(ridx, weights, p1, p1.comparisons, p1.edge_visits)
    i = int(np.argmin(np.where(own, p1.delta_finals, np.inf)))
    return _outcome(ridx, weights, "phase1", i, p1.comparisons, p1.edge_visits, p1.pred_edge)


# ---------------------------------------------------------------------------
# The per-frame pipeline

DECODER_NAMES = ("two-phase-L1", "two-phase-L2", "exact-ml", "phase1-only")
_TWO_PHASE = re.compile(r"two-phase-L([1-9][0-9]*)")


def two_phase_name(list_size: int) -> str:
    """Decoder name of the two-phase decoder with this list size (<= 1: plain)."""
    return f"two-phase-L{max(list_size, 1)}"


def decode_frames(
    ridx: ReachIndex,
    weights: WeightAssignment,
    decoders: tuple[str, ...],
    participation_prune: bool = True,
) -> Iterator[FrameDecode]:
    """Decode a batch of frames with every named decoder; yields one FrameDecode per frame.

    ``weights`` holds one frame, or a batch as ``edge_weights`` builds it for
    (F, n) samples.  Names are those of ``DECODER_NAMES``, or
    "two-phase-L<k>" for any list size k, each at most once.  Phase 1 and its
    stop test run once for the whole batch.  A frame phase 1 settled takes
    that outcome for every decoder, exact ML included.  Phase 2, its final
    decision and one list sweep per list size above 1 then run once over all
    the frames phase 1 left open (``_decode_open``).  Exact ML and
    phase1-only go on one open frame at a time as it is reached; exact ML
    sweeps only the subtrellises phase 1's bounds leave in the race
    (``_exact_ml``).
    """
    for name in decoders:
        if name not in ("exact-ml", "phase1-only") and not _TWO_PHASE.fullmatch(name):
            raise CatalogError(f"unknown decoder {name!r}; available: {', '.join(DECODER_NAMES)}")
    if len(set(decoders)) != len(decoders):
        # outcomes are keyed by name, so a repeated name would be decoded once and reported once
        raise CatalogError(f"decoder names must be distinct, got {', '.join(decoders)}")
    single = weights.sections[0].ndim == 1
    p1 = phase1(ridx, weights)
    stops = _phase1_stops(ridx, p1, weights)
    open_frames = [f for f, stopped in enumerate(stops) if stopped is None]
    p2, two_phase = _decode_open(ridx, weights, p1, open_frames, decoders, participation_prune)
    exact_work = _exact_work(ridx) if "exact-ml" in decoders else None
    k = 0  # position among the open frames
    for f, stopped in enumerate(stops):
        decoded = FrameDecode(sweep=p1, row=f, ridx=ridx, weights=weights)
        if stopped is not None:
            decoded.outcomes = dict.fromkeys(decoders, stopped)
            if exact_work is not None:
                # the stop is on the cheapest final, so no subtrellis can beat it
                decoded.outcomes["exact-ml"] = replace(stopped, stage="exact", **exact_work)
            yield decoded
            continue
        if p2 is not None:
            decoded.p2 = p2.frame(k)
        frame_weights = weights if single else weights.frame(f)
        for name in decoders:
            if name == "exact-ml":
                decoded.outcomes[name] = _exact_ml(ridx, frame_weights, decoded.p1)
            elif name == "phase1-only":
                decoded.outcomes[name] = _phase1_only(ridx, frame_weights, decoded.p1)
            else:
                decoded.outcomes[name] = two_phase[name][k]
        k += 1
        yield decoded


def _decode_open(
    ridx: ReachIndex,
    weights: WeightAssignment,
    p1: Phase1State,
    frames: list[int],
    decoders: tuple[str, ...],
    participation_prune: bool,
) -> tuple[Phase2State | None, dict[str, list[DecodeOutcome]]]:
    """Phase 2 and every two-phase decision of the open frames ``frames``, all batched.

    Returns their batched phase-2 state (None if no two-phase decoder was
    named or no frame is open) and, per two-phase name, the open frames'
    outcomes in order.  Phase 2 and ``_final_decisions`` run once, and every
    list size above 1 adds one list sweep over the same frames.
    """
    sizes = {name: int(m.group(1)) for name in decoders if (m := _TWO_PHASE.fullmatch(name))} if frames else {}
    if not sizes:
        return None, {}
    if len(frames) < len(p1.delta_finals.reshape(-1, ridx.t)):
        weights, p1 = weights.take(frames), p1.take(frames)
    p2 = phase2(ridx, weights, p1, participation_prune)
    scalar = _final_decisions(ridx, weights, p1, p2)
    return p2, {
        name: scalar if size == 1 else _list_decisions(ridx, weights, p1, p2, scalar, size)
        for name, size in sizes.items()
    }


def decode_frame(
    ridx: ReachIndex,
    weights: WeightAssignment,
    decoders: tuple[str, ...],
    participation_prune: bool = True,
) -> FrameDecode:
    """Decode one frame with every named decoder: ``decode_frames`` on a batch of one."""
    return next(decode_frames(ridx, weights, decoders, participation_prune))


def decode_two_phase(
    ridx: ReachIndex,
    weights: WeightAssignment,
    list_size: int = 1,
    participation_prune: bool = True,
) -> DecodeOutcome:
    """Run both phases; with list_size > 1 also track top-L candidate lists.

    The list run keeps the single-candidate recursion alongside the lists and
    pools the finals of both, so enlarging the list can only improve (or tie)
    the returned weight, frame by frame.
    """
    name = two_phase_name(list_size)
    return decode_frame(ridx, weights, (name,), participation_prune).outcomes[name]


def decode_phase1_only(ridx: ReachIndex, weights: WeightAssignment) -> DecodeOutcome:
    """Decode using only the first sweep: cheapest final that closed its loop.

    Useful as a baseline showing how much the revision phase recovers.  When
    no final's survivor came from its own start there is no codeword to trace,
    so a single restricted sweep on the most promising subtrellis stands in
    (stage "fallback").
    """
    return decode_frame(ridx, weights, ("phase1-only",)).outcomes["phase1-only"]


# ---------------------------------------------------------------------------
# Exhaustive references

def viterbi_subtrellis(ridx: ReachIndex, weights: WeightAssignment, i: int) -> SubtrellisResult:
    """Standard Viterbi from start i over edges that belong to subtrellis i."""
    _check_weights(ridx, weights)
    trellis = ridx.trellis
    cost = np.full(trellis.v_counts[0], np.inf)
    cost[trellis.starts[i]] = 0.0
    preds: list[np.ndarray] = []
    comparisons = 0
    for p, sec in enumerate(trellis.sections):
        ok = ridx.member_bit(p, np.full(sec.num_edges, i, dtype=np.int64))
        cand = np.where(ok, cost[ridx.frm[p]] + weights.sections[p], np.inf)
        cost, win = _grouped_first_min(cand, ridx, p)
        preds.append(win.astype(np.int32))
        comparisons += int(ok.sum())
    if not np.isfinite(cost[trellis.finals[i]]):
        raise NoPathError(f"subtrellis {i} has no start-to-final path")
    paths, bits, weight = _traceback(ridx, preds, [trellis.finals[i]], weights)
    return SubtrellisResult(
        weight=float(weight[0]), path=paths[0], codeword=bits[0], comparisons=comparisons
    )


def parallel_start_costs(ridx: ReachIndex, weights: WeightAssignment) -> list[np.ndarray]:
    """Per-start shortest-path costs to every vertex, swept jointly.

    Row i of the returned per-index arrays is an independent single-source
    sweep from start i; used as the oracle for phase-1 exactness and for the
    per-subtrellis lower bounds in the invariant audits.
    """
    _check_weights(ridx, weights)
    return _start_costs(ridx, weights, np.arange(ridx.t))


def _start_costs(ridx: ReachIndex, weights: WeightAssignment, rows: np.ndarray) -> list[np.ndarray]:
    """The sweeps from starts ``rows``, row k from start rows[k]; each row is swept alone."""
    trellis = ridx.trellis
    cost = np.full((len(rows), trellis.v_counts[0]), np.inf)
    cost[np.arange(len(rows)), trellis.starts[rows]] = 0.0
    costs = [cost]
    for p in range(trellis.n_sections):
        cand = costs[p][:, ridx.frm[p]] + weights.sections[p][None, :]
        costs.append(_group_min(cand, ridx, p))
    return costs


def _start_pred_edges(
    ridx: ReachIndex, weights: WeightAssignment, costs: list[np.ndarray], k: int
) -> list[np.ndarray]:
    """Survivor edges of row k of a start sweep, recomputed from its costs.

    Along any start-i..final-i path every in-edge with a finite candidate is
    a member edge of subtrellis i, so tracing these back from final i, for
    the row swept from start i, gives the same path as
    ``viterbi_subtrellis(ridx, weights, i)``.
    """
    return [
        _grouped_first_min(costs[p][k, ridx.frm[p]] + weights.sections[p], ridx, p)[1]
        for p in range(ridx.trellis.n_sections)
    ]


def all_pairs_start_final_distances(
    ridx: ReachIndex, weights: WeightAssignment
) -> DistanceTable:
    """Start-to-final distance table; diagonal entries are codeword weights."""
    costs = parallel_start_costs(ridx, weights)
    return DistanceTable(d=costs[-1][:, ridx.trellis.finals])


def _exact_ml(ridx: ReachIndex, weights: WeightAssignment, p1: Phase1State) -> DecodeOutcome:
    """Exact ML of one frame from phase 1's lower bounds and as few sweeps as they allow.

    Every final cost ``delta_finals[i]`` bounds subtrellis i's codeword weight
    from below, and a final whose survivor closed its own loop weighs exactly
    that, bit for bit: float addition is monotone, so the sweep from start i
    can never beat phase 1 along phase 1's own path.  With (w*, j) the
    cheapest closed final, lowest index on ties, a subtrellis can win only if
    its (bound, index) sorts before (w*, j); those rows are swept jointly.
    The first argmin over the closed weights and swept diagonals is then the
    first argmin of the full diagonal, and phase 1's pred edges trace a closed
    winner along the path its own sweep would pick.
    """
    index = np.arange(ridx.t)
    bound = p1.delta_finals
    closed = p1.surv_finals == index
    weight = np.where(closed, bound, np.inf)  # exact for closed finals; the rest inf unless swept
    j = int(np.argmin(weight))
    ahead = (bound < weight[j]) | ((bound == weight[j]) & (index < j))
    rows = np.flatnonzero(ahead & ~closed)
    if len(rows):
        costs = _start_costs(ridx, weights, rows)
        weight[rows] = costs[-1][np.arange(len(rows)), ridx.trellis.finals[rows]]
    i = int(np.argmin(weight))
    if not np.isfinite(weight[i]):
        raise NoPathError("no subtrellis contains a start-to-final path")
    if closed[i]:
        pred_edge = p1.pred_edge
    else:
        pred_edge = _start_pred_edges(ridx, weights, costs, int(np.searchsorted(rows, i)))
    return _outcome(ridx, weights, "exact", i, pred_edge=pred_edge, **_exact_work(ridx))


def _exact_work(ridx: ReachIndex) -> dict[str, int]:
    """Exact ML's reported work: that of t restricted sweeps, whatever the bounds saved."""
    return {"comparisons": int(ridx.member_counts.sum()), "edge_visits": ridx.t * ridx.trellis.num_edges}


def decode_exact_ml(ridx: ReachIndex, weights: WeightAssignment) -> DecodeOutcome:
    """Maximum-likelihood decoding: best closed path over every subtrellis.

    Among equally heavy codewords the lowest subtrellis wins.  Phase 1 runs
    first; its final costs bound every subtrellis from below, so only the
    subtrellises that could still beat the cheapest closed final get a
    restricted sweep, jointly, and a frame phase 1 settled needs none.
    Comparison counts reflect the t restricted sweeps this is equivalent to,
    whatever the bounds saved.
    """
    return decode_frame(ridx, weights, ("exact-ml",)).outcomes["exact-ml"]


def euclidean_weight(received: ReceivedVector, codeword: np.ndarray) -> float:
    """Squared Euclidean distance between the received frame and a codeword."""
    return float(((received.r - (1.0 - 2.0 * codeword.astype(np.float64))) ** 2).sum())


def brute_force_ml(spec, received: ReceivedVector, table: np.ndarray | None = None) -> np.ndarray:
    """Exhaustive ML over the codebook; ties pick the lexicographically least.

    Pass a precomputed ``codeword_table(spec)`` to amortize enumeration over
    many frames.  Minimizing squared distance to the BPSK image is the same
    as minimizing the correlation-style score 4 * (c . r) + const, which is
    what gets computed.
    """
    from .codes import codeword_table

    if table is None:
        table = codeword_table(spec)
    score = table.astype(np.float64) @ received.r
    best = score.min()
    ties = np.flatnonzero(score == best)
    if len(ties) == 1:
        return table[ties[0]].copy()
    rows = sorted(tuple(int(b) for b in table[ix]) for ix in ties)
    return np.array(rows[0], dtype=np.uint8)
