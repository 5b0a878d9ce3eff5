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
at once; ``decode_frame`` is the batch of one, and the ``decode_*`` functions
are single-decoder calls into it.
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
        if self.delta_finals.ndim == 1:
            return self
        return Phase1State(
            cost=[a[f] for a in self.cost],
            surv=[a[f] for a in self.surv],
            pred_edge=[a[f] for a in self.pred_edge],
            comparisons=self.comparisons,
            edge_visits=self.edge_visits,
            delta_finals=self.delta_finals[f],
            surv_finals=self.surv_finals[f],
        )


@dataclass
class Phase2State:
    """Subtrellis-restricted sweep: metric / trellis id / path dist / pred arrays."""

    metric: list[np.ndarray]
    trellis: list[np.ndarray]
    dist: list[np.ndarray]
    pred_edge: list[np.ndarray]
    participants: np.ndarray  # bool (t,)
    comparisons: int
    edge_visits: int
    metric_finals: np.ndarray
    trellis_finals: np.ndarray


@dataclass
class ListState:
    """Per-vertex top-L candidate lists kept by the list-decoding variant."""

    metric: list[np.ndarray]  # (L, V) per index
    trellis: list[np.ndarray]
    dist: list[np.ndarray]
    pred_edge: list[np.ndarray]
    pred_rank: list[np.ndarray]
    comparisons: int


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
    then the batch's too), or a list sweep's (L, V) with ``pred_rank`` and
    each walk's starting rank in ``ranks``.

    The weight is re-accumulated left to right over the traced edges — the
    same float additions the sweep performed — so it is the exact path sum
    rather than a metric that went through a telescoping correction.
    """
    trellis = ridx.trellis
    n = trellis.n_sections
    v = np.asarray(final_vertices, dtype=np.intp)
    rows = frames if pred_rank is None else np.asarray(ranks, dtype=np.intp)
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
            rows = pred_rank[p][at]
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
    ``fallback_comparisons``.
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
    return [
        DecodeOutcome(
            codeword=bits,
            path=path,
            weight=weight,
            stage=stage,
            subtrellis=int(i),
            comparisons=comparisons,
            edge_visits=edge_visits,
            fallback_comparisons=extra,
        )
        for i, (path, bits, weight) in zip(subtrellises, traced)
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
    t = len(p1.delta_finals)
    own = p1.surv_finals == np.arange(t)
    crossed = ~own
    if not prune:
        return crossed
    threshold = p1.delta_finals[own].min() if own.any() else np.inf
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
    """
    trellis = ridx.trellis
    t = ridx.t
    participants = _participants(p1, participation_prune)
    metric = [np.full(v, np.inf) for v in trellis.v_counts]
    tr = [np.zeros(v, dtype=np.int32) for v in trellis.v_counts]
    dist = [np.full(v, np.inf) for v in trellis.v_counts]
    pred_edge: list[np.ndarray] = []
    tr[0][trellis.starts] = np.arange(t, dtype=np.int32)
    active = trellis.starts[participants]
    metric[0][active] = p1.delta_finals[participants]
    dist[0][active] = 0.0
    d_final = p1.delta_finals
    comparisons = 0
    edge_visits = 0
    for p, sec in enumerate(trellis.sections):
        frm = ridx.frm[p]
        tr_u = tr[p][frm]
        ok = np.isfinite(metric[p][frm]) & ridx.member_bit(p, tr_u)
        step = dist[p][frm] + weights.sections[p]
        cand = np.where(ok, (step + d_final[tr_u]) - p1.cost[p + 1][sec.to], np.inf)
        best, win = _grouped_first_min(cand, ridx, p)
        metric[p + 1] = best
        tr[p + 1] = tr_u[win]
        dist[p + 1] = step[win]
        pred_edge.append(win.astype(np.int32))
        comparisons += int(ok.sum())
        edge_visits += sec.num_edges
    return Phase2State(
        metric=metric,
        trellis=tr,
        dist=dist,
        pred_edge=pred_edge,
        participants=participants,
        comparisons=comparisons,
        edge_visits=edge_visits,
        metric_finals=metric[-1][trellis.finals],
        trellis_finals=tr[-1][trellis.finals],
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
    """
    own = p1.surv_finals == np.arange(ridx.t)
    pool = [(float(p1.delta_finals[i]), 0, i) for i in range(ridx.t) if own[i]]
    pool += [(float(m), 1, i) for i, m in enumerate(p2.metric_finals) if np.isfinite(m)]
    comparisons = p1.comparisons + p2.comparisons
    edge_visits = p1.edge_visits + p2.edge_visits
    if not pool:
        return _fallback(ridx, weights, p1, comparisons, edge_visits)
    _, stage_code, i = min(pool)
    stage, pred_edge = ("phase1", p1.pred_edge) if stage_code == 0 else ("phase2", p2.pred_edge)
    return _outcome(ridx, weights, stage, i, comparisons, edge_visits, pred_edge)


# ---------------------------------------------------------------------------
# List variant

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
    """
    trellis = ridx.trellis
    t = ridx.t
    L = list_size
    d_final = p1.delta_finals
    metric = [np.full((L, v), np.inf) for v in trellis.v_counts]
    tr = [np.zeros((L, v), dtype=np.int32) for v in trellis.v_counts]
    dist = [np.full((L, v), np.inf) for v in trellis.v_counts]
    pred_edge = [np.zeros((L, v), dtype=np.int32) for v in trellis.v_counts[1:]]
    pred_rank = [np.zeros((L, v), dtype=np.int32) for v in trellis.v_counts[1:]]
    tr[0][0, trellis.starts] = np.arange(t, dtype=np.int32)
    active = trellis.starts[participants]
    metric[0][0, active] = d_final[participants]
    dist[0][0, active] = 0.0
    comparisons = 0
    for p, sec in enumerate(trellis.sections):
        E = sec.num_edges
        frm = ridx.frm[p]
        tr_u = tr[p][:, frm]  # (L, E)
        ok = np.isfinite(metric[p][:, frm]) & ridx.member_bit(p, tr_u)
        step = dist[p][:, frm] + weights.sections[p][None, :]
        cand = np.where(
            ok, (step + d_final[tr_u]) - p1.cost[p + 1][sec.to][None, :], np.inf
        )
        comparisons += int(ok.sum())
        flat = cand.ravel()
        alive = np.flatnonzero(np.isfinite(flat))
        if len(alive) == 0:
            continue
        c_met = flat[alive]
        c_rank, c_edge = np.divmod(alive, E)  # flat index = rank * E + edge
        c_to = sec.to[c_edge]
        c_tr = tr_u.ravel()[alive]
        c_step = step.ravel()[alive]
        order_id = np.arange(len(alive))
        # Cheapest candidate of each (vertex, subtrellis) pair gets priority.
        by_pair = np.lexsort((order_id, c_met, c_tr, c_to))
        firsts = np.ones(len(alive), dtype=bool)
        firsts[1:] = (c_to[by_pair][1:] != c_to[by_pair][:-1]) | (
            c_tr[by_pair][1:] != c_tr[by_pair][:-1]
        )
        stage = np.ones(len(alive), dtype=np.int8)
        stage[by_pair[firsts]] = 0
        final_order = np.lexsort((order_id, c_met, stage, c_to))
        to_sorted = c_to[final_order]
        new_group = np.ones(len(alive), dtype=bool)
        new_group[1:] = to_sorted[1:] != to_sorted[:-1]
        group_anchor = np.repeat(
            np.flatnonzero(new_group),
            np.diff(np.append(np.flatnonzero(new_group), len(alive))),
        )
        slot = np.arange(len(alive)) - group_anchor
        take = slot < L
        sel = final_order[take]
        rows = slot[take]
        cols = to_sorted[take]
        metric[p + 1][rows, cols] = c_met[sel]
        tr[p + 1][rows, cols] = c_tr[sel]
        dist[p + 1][rows, cols] = c_step[sel]
        pred_edge[p][rows, cols] = c_edge[sel]
        pred_rank[p][rows, cols] = c_rank[sel]
    return ListState(
        metric=metric,
        trellis=tr,
        dist=dist,
        pred_edge=pred_edge,
        pred_rank=pred_rank,
        comparisons=comparisons,
    )


def _list_decision(
    ridx: ReachIndex,
    weights: WeightAssignment,
    p1: Phase1State,
    p2: Phase2State,
    scalar: DecodeOutcome,
    list_size: int,
) -> DecodeOutcome:
    """Pool the list sweep's finals with the single-candidate decision."""
    ls = _phase2_list(ridx, weights, p1, list_size, p2.participants)
    final_metrics = ls.metric[-1][:, ridx.trellis.finals]  # (L, t)
    pool = [
        (float(final_metrics[r, i]), i, r)
        for i in range(ridx.t)
        for r in range(list_size)
        if np.isfinite(final_metrics[r, i])
    ]
    comparisons = scalar.comparisons + ls.comparisons
    if pool:
        _, i, r = min(pool)
        out = _outcome(
            ridx, weights, "phase2", i, comparisons, scalar.edge_visits,
            ls.pred_edge, ls.pred_rank, r,
        )
        # Compare true path weights; the single-candidate result wins ties so
        # a larger list can only strictly improve the decision.
        if scalar.stage == "fallback" or out.weight < scalar.weight:
            return out
    return replace(scalar, comparisons=comparisons)


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
    "two-phase-L<k>" for any list size k.  Phase 1 and its stop test run once
    for the whole batch.  A frame phase 1 settled takes that outcome for
    every decoder, exact ML included; the others go on one at a time as they
    are reached.  Phase 2 runs at most once per frame, and every list size
    reuses it; exact ML sweeps only the subtrellises phase 1's bounds leave
    in the race (``_exact_ml``).
    """
    for name in decoders:
        if name not in ("exact-ml", "phase1-only") and not _TWO_PHASE.fullmatch(name):
            raise CatalogError(f"unknown decoder {name!r}; available: {', '.join(DECODER_NAMES)}")
    single = weights.sections[0].ndim == 1
    p1 = phase1(ridx, weights)
    stops = _phase1_stops(ridx, p1, weights)
    exact_work = _exact_work(ridx) if "exact-ml" in decoders else None
    for f, stopped in enumerate(stops):
        decoded = FrameDecode(sweep=p1, row=f, ridx=ridx, weights=weights)
        if stopped is not None:
            decoded.outcomes = dict.fromkeys(decoders, stopped)
            if exact_work is not None:
                # the stop is on the cheapest final, so no subtrellis can beat it
                decoded.outcomes["exact-ml"] = replace(stopped, stage="exact", **exact_work)
        else:
            frame_weights = weights if single else weights.frame(f)
            _decode_rest(ridx, frame_weights, decoders, participation_prune, decoded)
        yield decoded


def _decode_rest(
    ridx: ReachIndex,
    weights: WeightAssignment,
    decoders: tuple[str, ...],
    participation_prune: bool,
    decoded: FrameDecode,
) -> None:
    """Fill in the outcomes, in request order, of a frame phase 1 did not settle."""
    scalar = None
    for name in decoders:
        if name == "exact-ml":
            outcome = _exact_ml(ridx, weights, decoded.p1)
        elif name == "phase1-only":
            outcome = _phase1_only(ridx, weights, decoded.p1)
        else:
            if decoded.p2 is None:
                decoded.p2 = phase2(ridx, weights, decoded.p1, participation_prune)
                scalar = final_decision(ridx, weights, decoded.p1, decoded.p2)
            list_size = int(_TWO_PHASE.fullmatch(name).group(1))
            outcome = (
                scalar if list_size == 1
                else _list_decision(ridx, weights, decoded.p1, decoded.p2, scalar, list_size)
            )
        decoded.outcomes[name] = outcome


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
