"""Two-phase decoding on tail-biting trellises.

The decoder makes two Viterbi-like passes over the trellis:

* Phase 1 (estimation) relaxes every edge once with *all* starts seeded at
  cost zero.  Afterwards ``cost[v]`` is the cheapest way to reach v from any
  start — a lower bound obtained on the semi-codeword space — and each vertex
  remembers which start its survivor came from, the start at index 0 of its
  pred-edge path.  No sweep carries that start: it is traced back along the
  pred edges, for the finals on first read and for the stop test from each
  frame's cheapest final alone.  If the cheapest final's survivor is its own
  paired start, that survivor is already the cheapest path overall and
  decoding stops: nothing, codeword or not, can beat it.

* Phase 2 (revision) re-walks the trellis restricted to paths that stay
  inside a single subtrellis, using the membership table for an O(1) edge
  test.  Each surviving candidate carries the identity of its subtrellis and
  a corrected metric ``dist[u] + cost_to_come_lower_bound`` so that at a
  final state the metric equals the true path weight.  The final decision
  picks the best codeword seen by either phase.  The list variant is the
  same sweep keeping L candidates per vertex, and one kernel
  (``_phase2_list``) runs it for every L, phase 2 itself being L = 1.

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

Phase 1, ``viterbi_subtrellis``, the phase1-only fallbacks and exact ML's
winners run one sweep (``_sweep``), seeded at every start or at one start
per row: one row on (V,) arrays, and two or more rows on (V, R) arrays with
the rows last; both keep costs and pred edges only.  Exact ML's race
keeps costs only: ``_start_costs`` yields them index by index, the race
keeps the last index's and the oracle all of them.

``decode_frames`` runs each phase at most once per frame and derives every
requested decoder's decision from that shared state.  Phase 1, its stop test
and the traceback of the frames it settles run over a whole batch of frames
at once.  Every sweep reads its weights as a gather: a section's edge
weights are ``weights.values[..., weights.index[p]]``, taken from the
frames' label tables when the sweep reaches section p.  Every decoder then decides the frames phase 1 left open in one
batched pass over just those frames, pooled across successive batches by
``_decode_batches`` up to ``pool_frames`` frames a pass: phase 2, its final
decision and one list sweep per larger list size; exact ML, whose remaining
(frame, subtrellis) rows of all open frames are swept in one call, each over
its own frame's weights; and phase1-only.  Phase 1's closed decision, each
frame's cheapest final that closed its own loop, is made in one place
(``Phase1State.closed_finals``) for the stop test, phase 2's participants
and every decoder.  Every decoder decides by comparing weights its own
sweep already holds: phase 1's final cost, phase 2's and the list's path
dist at a final, a start sweep's cost at its final.  Each of those adds the
path's edge weights left to right, so it is the returned path's weight bit
for bit.  Only then are the returned codewords walked, each once, all
together in one pass over the sections (``_walk``).  The list sweep gives
every vertex a fixed number of candidate slots, so one kernel along that
axis serves every trellis and list size: it keeps each entry's subtrellis
and path dist, picks short lists by rounds of first minima and long ones by
sorting each vertex's slots, and decodes the pred arrays of its entries only
when a returned candidate is walked.  ``phase2`` wraps its L = 1 sweep as a
``Phase2State``, whose per-index arrays are decoded only when read: the pred
edges when a phase-2 winner is walked, the rest by traces, audits and tests.
``decode_frame`` is the batch of one, and the ``decode_*`` functions are
single-decoder calls into it.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import cached_property
from math import prod
from typing import Iterable, Iterator

import numpy as np

from .channel import ReceivedVector, WeightAssignment
from .errors import CatalogError, LengthMismatchError, NoPathError, ShapeMismatchError
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
    """Multi-source sweep results: per-index cost and pred-edge arrays, and the finals' costs.

    Arrays of one frame's sweep are (V,) per index; a batch of F frames swept
    together has (F, V) arrays whose row f is frame f's state, transposed
    views of the sweep's (V, F) arrays.  ``comparisons`` and ``edge_visits``
    count one frame's work.  No sweep carries survivor starts: the finals'
    (``surv_finals``) are traced back along the pred edges on first read, and
    ``surv`` works out every index's, for traces and tests.
    """

    cost: list[np.ndarray]
    pred_edge: list[np.ndarray]  # entry p is for time index p+1
    comparisons: int
    edge_visits: int
    delta_finals: np.ndarray  # (t,) cost at final i
    ridx: ReachIndex = field(repr=False)  # the trellis swept, whose ``frm`` the pred edges index

    def frame(self, f: int) -> "Phase1State":
        """Frame f of a batched sweep as row views; one frame's state is itself."""
        return self if self.delta_finals.ndim == 1 else self.take(f)

    def take(self, rows) -> "Phase1State":
        """Rows ``rows`` of a batched sweep: one frame's state for an int, a batch for an array."""
        return Phase1State(
            cost=[a[rows] for a in self.cost],
            pred_edge=[a[rows] for a in self.pred_edge],
            comparisons=self.comparisons,
            edge_visits=self.edge_visits,
            delta_finals=self.delta_finals[rows],
            ridx=self.ridx,
        )

    @staticmethod
    def concat(states: list["Phase1State"]) -> "Phase1State":
        """Sweeps of one frame or of a batch each, one after another as one batched sweep (copies)."""

        def stack(arrays):
            return np.concatenate([a.reshape(-1, a.shape[-1]) for a in arrays])

        return Phase1State(
            cost=[stack(a) for a in zip(*(s.cost for s in states))],
            pred_edge=[stack(a) for a in zip(*(s.pred_edge for s in states))],
            comparisons=states[0].comparisons,
            edge_visits=states[0].edge_visits,
            delta_finals=stack([s.delta_finals for s in states]),
            ridx=states[0].ridx,
        )

    @cached_property
    def surv(self) -> list[np.ndarray]:
        """Each vertex's survivor start, (V,) or (F, V) per index, worked out from the pred edges on first read.

        Index 0 holds each start's own number (0 elsewhere), and index p+1
        takes the survivor start of its pred edge's source:
        ``surv[p+1] = surv[p][frm[pred_edge[p]]]``.
        """
        surv = [np.tile(_start_numbers(self.ridx), (*self.delta_finals.shape[:-1], 1))]
        for frm, edge in zip(self.ridx.frm, self.pred_edge):
            surv.append(np.take_along_axis(surv[-1], frm[edge], axis=-1))
        return surv

    @cached_property
    def surv_finals(self) -> np.ndarray:
        """(t,) or (F, t): survivor start at final i, traced back along the pred edges on first read."""
        return self._trace(np.arange(self.ridx.t))

    def _trace(self, finals: np.ndarray) -> np.ndarray:
        """Survivor starts of the finals numbered ``finals``, walked back vertex by vertex along the pred edges.

        ``finals`` is (k,), the same finals for every frame, or, for a batch,
        (F, k), each frame's own; the result is (k,) for one frame's state
        and (F, k) for a batch's.  The start a vertex's survivor came from is
        the one at index 0 of its pred-edge path, since each index takes its
        pred edge's source's start (``surv``); a walk needs no edge ids or
        labels, only the vertices.
        """
        v = self.ridx.trellis.finals[finals]
        lead = () if self.delta_finals.ndim == 1 else (np.arange(len(self.delta_finals))[:, None],)
        for frm, edge in zip(self.ridx.frm[::-1], self.pred_edge[::-1]):
            v = frm[edge[(*lead, v)].astype(np.intp)]  # int32 indices gather slowly
        return _start_numbers(self.ridx)[v]

    @cached_property
    def closed_finals(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Phase 1's closed decision on every frame of the sweep: (closed, j, weight), worked out on first use.

        ``closed`` is the (F, t) mask of finals whose survivor came from their
        own start (F = 1 for one frame's state): codewords whose weight is
        ``delta_finals`` bit for bit, as the sweep added their edge weights
        left to right.  ``j`` (F,) is each frame's cheapest closed
        final in (cost, index) order, a closed final at cost inf still
        counting, and ``weight`` its cost: inf where no final closed, and
        ``j`` then names none.  Phase 2's participants and every decoder read
        it from here; the stop test reads neither it nor ``surv_finals``, so
        only the frames phase 1 leaves open pay for tracing every final.
        """
        t = self.ridx.t
        closed = self.surv_finals.reshape(-1, t) == np.arange(t, dtype=self.surv_finals.dtype)
        cost = np.where(closed, self.delta_finals.reshape(-1, t), np.inf)
        weight = cost.min(axis=1)
        # at weight inf every closed final costs inf, or none closed: take the first closed final, if any
        return closed, np.where(weight < np.inf, cost.argmin(axis=1), closed.argmax(axis=1)), weight


def _start_numbers(ridx: ReachIndex) -> np.ndarray:
    """Each index-0 vertex's survivor start before any section: a start's own number, 0 elsewhere (int32)."""
    first = np.zeros(ridx.trellis.v_counts[0], dtype=np.int32)
    first[ridx.trellis.starts] = np.arange(ridx.t, dtype=np.int32)
    return first


@dataclass
class ListState:
    """What the list variant's decision reads: final metrics and weights, and the pred arrays to walk.

    ``metric_finals[r, i]`` is the rank-r metric at final i (inf if empty),
    and ``dist_finals[r, i]`` the weight of that candidate's path, its edge
    weights added left to right as the sweep went.  The sweep keeps, per
    index past 0, only the slot each entry picked: ``picks[p]`` holds, per
    (frame, vertex) row, each rank's flat index into its frame's slots of
    that section (``_list_slots``), -1 if empty.  Entry [r, v] of
    ``pred_edge[p]`` and ``pred_rank[p]`` names the in-edge and the source
    rank of vertex v's rank-r candidate at index p+1, both 0 in an empty
    entry; they are decoded from the picks the first time either is read, so
    a sweep whose candidate nobody walks never decodes them.  A batch adds a
    leading frame axis to every array, and ``comparisons`` then holds one
    count per frame.
    """

    picks: list[np.ndarray] = field(repr=False)  # (F * V, L) per index past 0
    pred_tables: list[np.ndarray] = field(repr=False)  # ``_list_slots``' (edge, rank) of every slot
    metric_finals: np.ndarray  # (L, t)
    dist_finals: np.ndarray  # (L, t)
    comparisons: int | np.ndarray

    @cached_property
    def _preds(self) -> tuple[list[np.ndarray], list[np.ndarray]]:
        return _list_preds(self)

    @property
    def pred_edge(self) -> list[np.ndarray]:
        """(L, V) per index past 0."""
        return self._preds[0]

    @property
    def pred_rank(self) -> list[np.ndarray]:
        return self._preds[1]


@dataclass
class Phase2State:
    """Subtrellis-restricted sweep: the list sweep at list size 1, over ``inputs``, and its participants.

    ``inputs`` is the (ridx, weights, phase-1 state) swept, maybe a batch,
    and a frame's state (``frame``) shares its batch's sweep and names its
    ``row``.  Shaped as ``Phase1State``: (t,) finals and (V,) per index for
    one frame, (F, t) and (F, V) for a batch.  ``comparisons`` counts one
    frame's work, so a batch holds one count per frame, (F,).  The per-index
    arrays are decoded from the sweep the first time one is read: the pred
    edges, which walks read, alone, and the rest together, frame by frame
    (``_phase2_arrays``).  An entry with no live candidate has metric inf,
    dist inf, trellis -1 and pred edge 0.
    """

    sweep: ListState = field(repr=False)
    inputs: tuple = field(repr=False)
    participants: np.ndarray  # bool (t,)
    comparisons: int | np.ndarray
    edge_visits: int
    metric_finals: np.ndarray
    row: int | None = None

    def frame(self, f: int) -> "Phase2State":
        """Frame f of a batched sweep; one frame's state is itself."""
        if self.metric_finals.ndim == 1:
            return self
        return Phase2State(
            self.sweep, self.inputs, self.participants[f], int(self.comparisons[f]), self.edge_visits,
            self.metric_finals[f], f,
        )

    @cached_property
    def pred_edge(self) -> list[np.ndarray]:
        """Entry p is for time index p+1."""
        batch = self.sweep.metric_finals.shape[:-2]
        edges = [pred[0][picks].reshape(*batch, -1) for pred, picks in zip(self.sweep.pred_tables, self.sweep.picks)]
        return edges if self.row is None else [a[self.row] for a in edges]

    @cached_property
    def _arrays(self) -> list[list[np.ndarray]]:
        if self.metric_finals.ndim == 1:
            return _phase2_arrays(self)
        frames = [self.frame(f)._arrays for f in range(len(self.metric_finals))]  # a batch's, frame by frame
        return [[np.stack(a) for a in zip(*arrays)] for arrays in zip(*frames)]

    metric = property(lambda self: self._arrays[0])
    trellis = property(lambda self: self._arrays[1])
    dist = property(lambda self: self._arrays[2])
    trellis_finals = property(lambda self: self.trellis[-1][..., self.inputs[0].trellis.finals])


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
        if weights.values.ndim > 1:
            weights = weights.frame(self.row)
        return parallel_start_costs(self.ridx, weights)

    @cached_property
    def table(self) -> DistanceTable:
        """The start-to-final distance table of ``costs``."""
        return DistanceTable(d=self.costs[-1][:, self.ridx.trellis.finals])


# ---------------------------------------------------------------------------
# Shared sweep machinery

def _check_weights(ridx: ReachIndex, weights: WeightAssignment, batch: bool = True) -> None:
    """Every section's weights must be as wide as its edge count, and every section needs weights.

    The values must be one frame's, (K,), or with ``batch`` also a batch's, (F, K).
    """
    if weights.values.ndim > 1 + batch:
        expected = "one frame's or a batch's" if batch else "one frame's"
        raise ShapeMismatchError(f"expected {expected} weights, got values of shape {weights.values.shape}")
    widths = tuple([len(index) for index in weights.index])
    counts = ridx.trellis.edge_counts
    if widths != counts:
        p = next((p for p, (a, b) in enumerate(zip(widths, counts)) if a != b), min(len(widths), len(counts)))
        raise LengthMismatchError(f"weights for section {p + 1} do not match edge count")


def _group_min(cand: np.ndarray, ridx: ReachIndex, p: int) -> np.ndarray:
    """Minimum over each vertex's in-edges of section p, along the last axis (see ``_grouped_first_min``)."""
    in_edges = ridx.in_edges[p]
    g = in_edges.shape[1]
    slots = cand if ridx.in_real[p] is None else cand[..., in_edges.ravel()]
    best = slots[..., 0::g]
    for k in range(1, g):
        best = np.minimum(best, slots[..., k::g])
    return best


def _grouped_first_min(values: np.ndarray, ridx: ReachIndex, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Each vertex's least candidate and its first in-edge attaining it (ties: lowest edge id), along axis 0.

    The candidates are section p's, one per slot of the in-edge table
    ``in_edges[p]``: (E_p,) in edge order for one row, where slot k of every
    vertex is the strided slice k::g (after a gather by the table where
    in-degrees differ), or (g * V, R) for R rows, gathered slot by slot
    (``ReachIndex.in_slots``), where slot k of every vertex is the k-th block
    of V whole rows.  The results are (V,) or (V, R): the minima, and the
    edge ids within the section, int32 for R rows and intp for one row,
    whose sweep gathers with them.  The slots are compared in turn, a later
    one winning only when strictly cheaper, so a pad slot, a repeat of its
    row's first edge, never wins, and the winner is the row's first edge
    plus its slot.  For R rows the minimum of the slots is the winner's
    candidate, as costs are never NaN and never -0.0, so an equal slot is
    the same float; for one row, gathering the winners' candidates is
    cheaper.
    """
    in_edges = ridx.in_edges[p]
    v, g = in_edges.shape
    one_row = values.ndim == 1
    if g == 1:  # each vertex's one in-edge wins
        return values, in_edges[:, 0] if one_row else np.repeat(ridx.in_first[p][:, None], values.shape[1], axis=1)
    if one_row:  # slot k is slots[k::g]
        slots, block, step = (values if ridx.in_real[p] is None else values[in_edges.ravel()]), 1, g
    else:  # slot k is block k
        slots, block, step = values, v, 1
    best, off = slots[: v * step : step], 0
    for k in range(1, g):
        cand = slots[k * block : k * block + v * step : step]
        better = cand < best
        off = better if k == 1 else np.where(better, k, off)
        if k + 1 < g or not one_row:
            best = np.minimum(best, cand)
    if one_row:
        win = in_edges[:, 0] + off
        return values[win], win
    return best, np.add(ridx.in_first[p][:, None], off, dtype=np.int32)


def _walk(ridx: ReachIndex, sources) -> tuple[np.ndarray, np.ndarray]:
    """Walk pred edges back from final vertices to index 0: every source's walks in one pass over the sections.

    Each source is (pred_edge, pred_rank, lead, finals): a sweep's pred
    arrays, the index arrays that lead each walk's vertex into them, and the
    final vertices its walks leave from.  ``pred_edge[p]`` is one sweep's
    (V,) array with ``lead`` empty, a batch's (F, V) or swept rows' (K, V)
    with ``lead`` naming each walk's frame or row, or, with ``pred_rank``, a
    list sweep's (L, V) or (F, L, V) with the last of ``lead`` each walk's
    starting rank.  Returns the walks' paths, (W, n + 1) int32 vertex ids,
    and codewords, one row per walk, source after source.
    """
    trellis = ridx.trellis
    n = trellis.n_sections
    if not sources:
        return np.empty((0, n + 1), dtype=np.int32), np.empty((0, n * trellis.label_width), dtype=np.uint8)
    heads = [[edge, rank, tuple(lead), np.asarray(v, dtype=np.intp)] for edge, rank, lead, v in sources]
    walk = [v for *_, v in heads]
    edges = []
    for p in range(n - 1, -1, -1):
        for head in heads:
            pred_edge, pred_rank, lead, v = head
            at = (*lead, v)
            e = pred_edge[p][at].astype(np.intp)  # int32 indices gather slowly
            if pred_rank is not None:  # the next section is read at the rank this entry came from
                head[2] = (*lead[:-1], pred_rank[p][at])
            head[3] = ridx.frm[p][e]
            walk.append(head[3])
            edges.append(e)
    paths = np.concatenate(walk).reshape(n + 1, -1)[::-1].T.astype(np.int32, order="C")
    edges = np.concatenate(edges).reshape(n, -1)[::-1].T + trellis.edge_offsets[:-1]
    return paths, ridx.label_bit_table[edges].reshape(len(paths), -1)


class _Walks:
    """Decisions made at their sweeps' weights, each waiting for its path and codeword until ``run``.

    A decision waits on its sweep's pred arrays from a start: its frame (or
    swept row) if the sweep is batched, its rank if the sweep keeps lists,
    and its subtrellis, whose final the walk leaves from.  Decisions with one
    start share one walk, so no codeword is walked twice, and ``run`` walks
    them all in one pass (``_walk``).
    """

    def __init__(self):
        self.sources: dict[int, tuple] = {}  # id(pred_edge) -> (pred_edge, pred_rank, {start: outcomes})
        self.waiting: dict[int, list[DecodeOutcome]] = {}  # id(outcome) -> the outcomes of its walk

    def add(self, outcome: DecodeOutcome, pred_edge: list[np.ndarray], f: int, *start, pred_rank=None) -> DecodeOutcome:
        """Make ``outcome`` wait for the walk along ``pred_edge`` from frame or row f's ([rank,] subtrellis)."""
        if pred_edge[0].ndim > 1 + (pred_rank is not None):
            start = (f, *start)
        walks = self.sources.setdefault(id(pred_edge), (pred_edge, pred_rank, {}))[2]
        group = self.waiting[id(outcome)] = walks.setdefault(tuple(map(int, start)), [])
        group.append(outcome)
        return outcome

    def recount(self, outcome: DecodeOutcome, comparisons: int) -> DecodeOutcome:
        """A copy of ``outcome`` at ``comparisons``; the copy of a waiting outcome waits for the same walk."""
        copy = DecodeOutcome(
            outcome.codeword, outcome.path, outcome.weight, outcome.stage, outcome.subtrellis,
            comparisons, outcome.edge_visits, outcome.fallback_comparisons,
        )
        if id(outcome) in self.waiting:
            self.waiting[id(outcome)].append(copy)
        return copy

    def run(self, ridx: ReachIndex) -> None:
        """Walk every start once, all in one ``_walk``, and fill in the path and codeword of each waiting outcome."""
        sources = list(self.sources.values())
        starts = [np.array(list(walks), dtype=np.intp).T for *_, walks in sources]
        paths, bits = _walk(ridx, [
            (pred_edge, pred_rank, start[:-1], ridx.trellis.finals[start[-1]])
            for (pred_edge, pred_rank, _), start in zip(sources, starts)
        ])
        groups = [group for *_, walks in sources for group in walks.values()]
        for group, path, codeword in zip(groups, paths, bits):
            for outcome in group:
                outcome.path, outcome.codeword = path, codeword


# ---------------------------------------------------------------------------
# Phase 1

PHASE1_BATCH_BYTES = 3 << 20  # phase-1 state and weights of the frames one batch sweeps together
POOL_BYTES = 1 << 20  # one list rank's state of the open frames every decoder decides in one pass


def batch_frames(ridx: ReachIndex) -> int:
    """Frames per batch: as many as keep what the batch holds within PHASE1_BATCH_BYTES.

    A frame's phase-1 state is a float64 cost per vertex and an int32 pred
    edge per vertex past index 0, and its weights are a float64 label table
    of 2^width entries per section.  That is 39 KB per mem6-circle48 frame,
    80 frames a batch, and 4.5 KB per mem4-circle20 frame.
    """
    trellis = ridx.trellis
    v = trellis.v_counts
    per_frame = 8 * sum(v) + 4 * sum(v[1:]) + 8 * trellis.n_sections * (1 << trellis.label_width)
    return max(1, PHASE1_BATCH_BYTES // per_frame)


def pool_frames(ridx: ReachIndex) -> int:
    """Open frames per pass: as many as keep one list rank's state within POOL_BYTES, and at most a batch.

    A list sweep keeps an int64 pick per vertex and rank, and decodes an
    int32 pred edge and pred rank from it: 16 bytes per vertex, 20
    mem6-circle48 frames a pass and 195 mem4-circle20 frames.  A pass keeps
    that for every rank of every list size named, and a copy of each open
    frame's phase-1 state besides: simulate's peak memory grows by about
    230 KB per open mem6-circle48 frame a pass holds with all four of
    ``DECODER_NAMES``.  So a pass holds fewer
    frames than a phase-1 batch, whose state per frame is far smaller.
    """
    return max(1, min(batch_frames(ridx), POOL_BYTES // (16 * sum(ridx.trellis.v_counts))))


def phase1(ridx: ReachIndex, weights: WeightAssignment) -> Phase1State:
    """One forward sweep with every start seeded at zero cost.

    Ties between equal-cost candidates go to the earliest edge in the
    section's canonical order, so results are deterministic and match a
    scalar edge-by-edge relaxation with strict-improvement updates.

    Batched weights, (F, K) values, sweep F frames at once and give a
    batched state; row f is bit for bit the sweep of frame f alone, because
    the frames share no arithmetic (``_sweep``).  The sweep carries no
    survivor starts: ``surv_finals`` are traced on first read.
    """
    _check_weights(ridx, weights)
    finals, num_edges = ridx.trellis.finals, ridx.trellis.num_edges
    cost, pred_edge = _sweep(ridx, weights.values, weights.index, np.arange(ridx.t))
    return Phase1State(
        cost, pred_edge, comparisons=num_edges, edge_visits=num_edges,
        delta_finals=np.ascontiguousarray(cost[-1][..., finals]), ridx=ridx,
    )


def _sweep(
    ridx: ReachIndex, values: np.ndarray, index: list[np.ndarray], starts: np.ndarray
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """The min-plus forward sweep over one row or R rows at once.

    Row r adds the label table ``values[r]``, (R, K), or ``values``, (K,),
    for one row, gathered by ``index[p]`` at section p, and starts at cost 0
    from the starts numbered ``starts[r]``, (R, S), or ``starts``, (S,), for
    every row.  Each vertex keeps its first least candidate in edge order
    (``_grouped_first_min``), and the rows share no arithmetic.  Returns each
    index's costs and int32 pred edges, (V,) or (R, V); no sweep carries
    survivor starts, which ``Phase1State`` traces from the pred edges.

    One row is swept on (V,) arrays.  Any other number of rows is swept on
    (V, R) arrays with the rows last, over a (K, R) copy of their label
    tables, so every gather copies whole rows: a section's candidates are
    ``cost[frm]`` plus ``values.T[index[p]]``, taken in slot order
    (``ReachIndex.in_slots``), so that each in-edge slot of every vertex is
    one contiguous block, and the costs and pred edges are given as (R, V)
    transposed views.  The two forms differ only in layout.  A sweep from
    start i alone needs no membership mask: along a start-i..final-i path
    every in-edge with a finite candidate is a member edge of subtrellis i.
    """
    trellis = ridx.trellis
    batch = values.shape[:-1]
    n_rows = prod(batch)
    v0 = trellis.v_counts[0]
    seeds = trellis.starts[starts]
    pred_edge: list[np.ndarray] = []
    if n_rows == 1:
        values = values.reshape(-1)
        cost = [np.full(v0, np.inf)]
        cost[0][seeds] = 0.0
        for p, section in enumerate(index):
            cand = cost[p][ridx.frm[p]]
            cand += values[section]
            best, win = _grouped_first_min(cand, ridx, p)
            cost.append(best)
            pred_edge.append(win.astype(np.int32))
        if batch:
            cost, pred_edge = ([a.reshape(*batch, len(a)) for a in arrays] for arrays in (cost, pred_edge))
        return cost, pred_edge
    values_t = np.ascontiguousarray(values.reshape(n_rows, values.shape[-1]).T)  # (K, R): section weights are whole rows
    cost = [np.full((v0, n_rows), np.inf)]
    cost[0][seeds, np.arange(n_rows)[:, None]] = 0.0
    for p, section in enumerate(index):
        slots = ridx.in_slots[p]
        cand = cost[p].take(ridx.frm[p][slots], axis=0)  # take copies whole rows faster than indexing
        cand += values_t.take(section[slots], axis=0)
        best, win = _grouped_first_min(cand, ridx, p)
        cost.append(best)
        pred_edge.append(win)
    cost, pred_edge = ([a.T.reshape(*batch, len(a)) for a in arrays] for arrays in (cost, pred_edge))
    return cost, pred_edge


def _phase1_stops(ridx: ReachIndex, p1: Phase1State) -> list[DecodeOutcome | None]:
    """The stop test on every frame of a sweep, with one walk for all that stop.

    A frame stops when its cheapest final, the first argmin of its final
    costs, closed its own loop.  Then that final is also its cheapest closed
    final in (cost, index) order, ties and a closed final at cost inf
    included, so this is ``closed_finals``' test without working out every
    final's survivor: the survivor starts are traced back from the cheapest
    finals alone, vertex by vertex.  One frame's single final is walked over
    Python ints, which costs less than the array calls of a vectorised trace
    (``Phase1State._trace``).  A stopped frame's entry is that codeword's
    outcome, at its final's cost, and the others' are None.
    """
    cost = p1.delta_finals.reshape(-1, ridx.t)
    cheapest = cost.argmin(axis=1)
    if p1.delta_finals.ndim == 1:
        v = int(ridx.trellis.finals[cheapest[0]])
        for frm, edge in zip(ridx.frm[::-1], p1.pred_edge[::-1]):
            v = frm.item(edge.item(v))
        starts = _start_numbers(ridx)[[v]]
    else:
        starts = p1._trace(cheapest[:, None])[:, 0]
    stopped = np.flatnonzero(starts == cheapest)
    decisions: list[DecodeOutcome | None] = [None] * len(cheapest)
    if len(stopped):
        i = cheapest[stopped]
        lead = (stopped,) if p1.delta_finals.ndim == 2 else ()
        paths, bits = _walk(ridx, [(p1.pred_edge, None, lead, ridx.trellis.finals[i])])
        for f, k, w, path, codeword in zip(stopped.tolist(), i.tolist(), cost[stopped, i].tolist(), paths, bits):
            decisions[f] = DecodeOutcome(codeword, path, w, "phase1", k, p1.comparisons, p1.edge_visits)
    return decisions


def phase1_decision(
    ridx: ReachIndex, p1: Phase1State, weights: WeightAssignment
) -> DecodeOutcome | None:
    """Stop if the cheapest final's survivor closed its own subtrellis (one frame).

    The stop's weight is its final's phase-1 cost, so ``weights`` is not read;
    its survivor is traced from that final alone.
    """
    return _phase1_stops(ridx, p1)[0]


# ---------------------------------------------------------------------------
# Phase 2

def phase2(
    ridx: ReachIndex,
    weights: WeightAssignment,
    p1: Phase1State,
    participation_prune: bool = True,
) -> Phase2State:
    """Second sweep restricted to membership-consistent paths: the list sweep at list size 1.

    A subtrellis participates when phase 1 crossed its final (and, under the
    default pruning rule, when its phase-1 final cost does not exceed the best
    final that already closed as a codeword — such a subtrellis could never
    win).  Each start seeds metric = its final's phase-1 cost; the update for
    an edge (u, v) inside subtrellis j adds the edge weight to the path dist
    and corrects the heuristic part: metric = dist + cost(final j) - cost(v).
    At final j the correction telescopes away and metric is the exact weight
    of the traced path.  Each vertex keeps its first least candidate in edge
    order, so a later in-edge wins only when strictly cheaper.

    Batched weights and phase-1 state, as ``phase1`` takes and gives them,
    sweep F frames at once, with the same tie rule; row f is bit for bit the
    sweep of frame f alone.
    """
    closed, _, weight = p1.closed_finals
    participants = ~closed
    if participation_prune:
        participants &= p1.delta_finals.reshape(closed.shape) <= weight[:, None]
    participants = participants.reshape(p1.delta_finals.shape)
    sweep = _phase2_list(ridx, weights, p1, 1, participants)
    return Phase2State(
        sweep=sweep,
        inputs=(ridx, weights, p1),
        participants=participants,
        comparisons=sweep.comparisons,
        edge_visits=ridx.trellis.num_edges,
        metric_finals=sweep.metric_finals[..., 0, :],
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
    membership starves every participant — the frame falls back to the
    restricted Viterbi sweep from its cheapest final's start, so a codeword
    is always returned.  This decides one frame; ``_final_decisions``
    decides a batch.
    """
    walks = _Walks()
    decisions = _final_decisions(ridx, weights, p1, p2, walks)
    walks.run(ridx)
    return decisions[0]


def _final_decisions(
    ridx: ReachIndex,
    weights: WeightAssignment,
    p1: Phase1State,
    p2: Phase2State | None,
    walks: _Walks,
) -> list[DecodeOutcome]:
    """``final_decision`` for every frame of a sweep, one batch or one frame; phase1-only's without ``p2``.

    A frame's phase-1 candidate is its cheapest closed final
    (``Phase1State.closed_finals``) at its phase-1 cost.  Its phase-2
    candidate, the first least phase-2 final (rank 0 of the list sweep at
    L = 1), wins only if strictly cheaper, at the path dist the sweep carried
    to that final.  Both wait in ``walks`` for their codewords.  The frames
    with neither fall back to a restricted sweep from their cheapest final's
    start, one ``_sweep`` row each, all in one call, and each waits in
    ``walks`` like any other decision.  A fallback whose subtrellis has no
    start-to-final path raises NoPathError.
    """
    closed, j, weight = p1.closed_finals
    decisions: list[DecodeOutcome | None] = [None] * len(j)
    comparisons, edge_visits = [p1.comparisons] * len(j), p1.edge_visits
    if p2 is not None:
        metric = p2.metric_finals.reshape(len(j), -1)
        i = metric.argmin(axis=1)
        won = np.flatnonzero(metric[np.arange(len(i)), i] < weight)  # strictly cheaper, so finite
        comparisons = (p1.comparisons + np.array(p2.comparisons, ndmin=1)).tolist()
        edge_visits += p2.edge_visits
        dist = p2.sweep.dist_finals.reshape(len(j), -1)[won, i[won]]
        for f, k, w in zip(won.tolist(), i[won].tolist(), dist.tolist()):
            outcome = DecodeOutcome(None, None, w, "phase2", k, comparisons[f], edge_visits)
            decisions[f] = walks.add(outcome, p2.pred_edge, f, k)
    fallback = []
    for f in [f for f, d in enumerate(decisions) if d is None]:
        if closed[f].any():
            outcome = DecodeOutcome(None, None, float(weight[f]), "phase1", int(j[f]), comparisons[f], edge_visits)
            decisions[f] = walks.add(outcome, p1.pred_edge, f, j[f])
        else:
            fallback.append(f)
    if fallback:  # one restricted sweep per frame, from its cheapest final's start, all in one call
        i = p1.delta_finals.reshape(closed.shape)[fallback].argmin(axis=1)
        values = weights.values.reshape(len(j), -1)[fallback]
        cost, pred_edge = _sweep(ridx, values, weights.index, i[:, None])
        found = cost[-1][np.arange(len(i)), ridx.trellis.finals[i]]
        missing = ~np.isfinite(found)
        if missing.any():  # the first such frame's, as deciding the frames one by one would raise
            raise NoPathError(f"subtrellis {i[missing.argmax()]} has no start-to-final path")
        for row, (f, k, w) in enumerate(zip(fallback, i.tolist(), found.tolist())):
            outcome = DecodeOutcome(None, None, w, "fallback", k, comparisons[f], edge_visits, int(ridx.member_counts[k]))
            decisions[f] = walks.add(outcome, pred_edge, row, k)
    return decisions


# ---------------------------------------------------------------------------
# List variant

LIST_ROUNDS_MAX = 3  # longest list whose entries are picked by first-min rounds; longer lists sort each row
RADIX_WIDTH = 64  # slots per row from which the subtrellis sort runs on 16-bit keys


def _list_slots(ridx: ReachIndex, list_size: int) -> list[tuple[np.ndarray, ...]]:
    """Per section, the fixed-width candidate slots of the list sweep.

    Every vertex has W = L * g slots, g the section's largest in-degree: slot
    r * g + k holds in-edge k of the vertex (``ReachIndex.in_edges``) fed by
    rank r of its source, so the slots follow (rank, in-edge) order.  Each
    entry is (src, edges, vert, rows, members, pred), the first four (V, W):
    the slot's source in one frame's flat (V_prev, L) state, its edge, its
    vertex, and its row ``edge * t`` in the flat membership table
    ``members``; then the int32 (edge, rank) of every slot flattened,
    (2, V * W + 1), with a last column of zeros for empty entries.  A
    padding slot's row is an appended row of False, so membership alone
    keeps it dead.  They depend only on the trellis, so each list size's are
    built once and kept in ``ridx``.
    """
    if list_size in ridx.list_slots:
        return ridx.list_slots[list_size]
    slots = ridx.list_slots[list_size] = []
    t = ridx.t
    for p, (in_edges, real, members) in enumerate(zip(ridx.in_edges, ridx.in_real, ridx.membership)):
        g = in_edges.shape[1]
        edges = np.tile(in_edges, list_size)
        ranks = np.repeat(np.arange(list_size), g)
        rows = edges * t
        if real is not None:
            rows[~np.tile(real, list_size)] = len(members) * t
            members = np.vstack([members, np.zeros((1, t), dtype=bool)])
        pred = np.zeros((2, edges.size + 1), dtype=np.int32)
        pred[:, :-1] = np.stack(np.broadcast_arrays(edges, ranks)).reshape(2, -1)
        vert = np.repeat(np.arange(len(edges)), edges.shape[1]).reshape(edges.shape)
        slots.append((ridx.frm[p][edges] * list_size + ranks, edges, vert, rows, members.reshape(-1), pred))
    return slots


def _first_min_rounds(
    cand: np.ndarray, ids: np.ndarray, list_size: int, base: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Each row's list picks as flat indices into ``cand``, (R, L), and which of them are live.

    ``cand`` holds R rows of W slot metrics, inf where dead, and ``ids`` each
    slot's subtrellis.  Rank 0 is the row's first least slot.  Each later
    rank is the first least slot whose subtrellis is not yet listed or, if
    no live slot is left outside the listed subtrellises, the first least
    slot not yet taken.  A rank is live if its pick is; once a row's live
    slots run out, its later picks are arbitrary slots of the row.
    """
    flat = cand.reshape(-1)
    picks = np.empty((len(cand), list_size), dtype=np.intp)
    live = np.empty(picks.shape, dtype=bool)
    picks[:, 0] = last = cand.argmin(axis=1) + base
    live[:, 0] = np.isfinite(flat[last])
    fresh = cand
    taken = cand.copy() if list_size > 1 else None  # only ranks past 0 read it
    for k in range(1, list_size):
        fresh = np.where(ids == ids.reshape(-1)[last][:, None], np.inf, fresh)
        taken.reshape(-1)[last] = np.inf
        new = fresh.argmin(axis=1) + base
        again = taken.argmin(axis=1) + base
        picks[:, k] = last = np.where(np.isfinite(fresh.reshape(-1)[new]), new, again)
        live[:, k] = np.isfinite(taken.reshape(-1)[again])  # a live slot is left to pick
    return picks, live


def _sorted_picks(
    cand: np.ndarray, ids: np.ndarray, list_size: int, base: np.ndarray, t: int
) -> tuple[np.ndarray, np.ndarray]:
    """``_first_min_rounds`` by three stable argsorts per row, (R, L): cheaper for long lists.

    A stable argsort orders the slots by (metric, slot), and a stable
    argsort of their subtrellises in that order groups each subtrellis's
    slots, cheapest first.  A slot is in stage 1 if it is dead or not first
    in its group, and sorting by (stage, metric position) puts the picks
    first.
    """
    width = cand.shape[1]
    if width >= RADIX_WIDTH and t <= np.iinfo(np.int16).max:
        ids = ids.astype(np.int16)  # numpy's stable sort of 16-bit keys is a radix sort
    by_metric = cand.argsort(axis=1, kind="stable") + base
    ids_sorted = ids.reshape(-1)[by_metric]
    by_id = ids_sorted.argsort(axis=1, kind="stable") + base
    runs = ids_sorted.reshape(-1)[by_id]
    late = ~np.isfinite(cand.reshape(-1)[by_metric.reshape(-1)[by_id]])
    late[:, 1:] |= runs[:, 1:] == runs[:, :-1]
    # (stage, metric position) keys are distinct, so any sort gives one order;
    # the stable sort is the fastest on these short rows
    first = np.where(late, by_id + width, by_id).argsort(axis=1, kind="stable")[:, :list_size]
    picks = by_metric.reshape(-1)[by_id.reshape(-1)[first + base]]
    return picks, np.isfinite(cand.reshape(-1)[picks])


def _list_preds(ls: "ListState") -> tuple[list[np.ndarray], list[np.ndarray]]:
    """The in-edge and source rank of every entry of a list sweep, (..., L, V) per index past 0; 0 if empty."""
    batch = ls.metric_finals.shape[:-2]
    list_size = ls.metric_finals.shape[-2]
    pred_edge, pred_rank = [], []
    for picks, pred in zip(ls.picks, ls.pred_tables):
        for out, values in ((pred_edge, pred[0]), (pred_rank, pred[1])):  # an empty entry's -1 reads the zeros
            out.append(values[picks].reshape(*batch, -1, list_size).swapaxes(-1, -2))
    return pred_edge, pred_rank


@np.errstate(invalid="ignore")  # a dead entry's stand-in slot may compute inf - inf; it is masked
def _phase2_arrays(p2: Phase2State) -> list[list[np.ndarray]]:
    """Metric, trellis id and path dist of every entry of one frame's phase-2 state, (V,) per index.

    Past index 0, each live entry's values are worked out again from the slot
    it picked by the list sweep's own float operations in the same order, so
    they are the sweep's bit for bit.
    """
    ridx, weights, p1 = p2.inputs
    trellis, t = ridx.trellis, ridx.t
    n_frames, row = prod(p2.sweep.metric_finals.shape[:-2]), p2.row or 0

    def frame(a):  # this frame's row of a per-frame array of the sweep
        return a.reshape(n_frames, -1)[row]

    d_final = frame(p1.delta_finals)
    alive = p2.participants & np.isfinite(d_final)  # the seeded starts
    ids = np.full(trellis.v_counts[0], -1, dtype=np.int32)
    ids[trellis.starts] = np.where(alive, np.arange(t, dtype=np.int32), -1)
    dist = np.full(ids.shape, np.inf)
    dist[trellis.starts] = np.where(alive, 0.0, np.inf)
    metric = np.full(ids.shape, np.inf)
    metric[trellis.starts] = np.where(alive, d_final, np.inf)
    arrays = [[metric], [ids], [dist]]
    values = frame(weights.values)
    for frm, index, cost, edge, picks in zip(ridx.frm, weights.index, p1.cost[1:], p2.pred_edge, p2.sweep.picks):
        live = frame(picks) >= 0
        u = frm[edge]
        step = dist[u] + values[index[edge]]
        j = ids[u]
        cand = (step + d_final[j]) - frame(cost)
        metric, ids, dist = np.where(live, cand, np.inf), np.where(live, j, -1), np.where(live, step, np.inf)
        for out, a in zip(arrays, (metric, ids, dist)):
            out.append(a)
    return arrays


@np.errstate(invalid="ignore")  # a masked candidate lane may compute inf - inf
def _phase2_list(
    ridx: ReachIndex,
    weights: WeightAssignment,
    p1: Phase1State,
    list_size: int,
    participants: np.ndarray,
) -> ListState:
    """Phase 2 keeping the best `list_size` candidates per vertex; at L = 1 it is ``phase2``'s sweep.

    Candidate lists hold at most one entry per subtrellis first (each
    subtrellis's cheapest), then fill remaining slots with the next-best
    leftovers by metric.  Ordering ties follow (metric, source rank, edge io
    order), which reduces to the scalar rule on rank 0.

    The state is two arrays, each entry's subtrellis id and path dist; an
    entry is live iff its dist is finite, so a participant whose phase-1
    final cost is inf starts dead.  Each vertex weighs its W candidate slots
    (``_list_slots``) at once, a slot being live if its source is and its
    edge is a member of the source's subtrellis.  Its L entries follow
    (stage, metric, slot) order, stage 0 being the cheapest slot of each
    subtrellis and stage 1 the rest: for L <= ``LIST_ROUNDS_MAX`` by L
    rounds of first minima along the slot axis (``_first_min_rounds``),
    O(L * W) work per vertex in O(L) numpy calls per section, and for longer
    lists by three sorts of each vertex's slots (``_sorted_picks``), O(W log
    W) work per vertex.  Empty entries have dist inf and metric inf.
    Batched weights and phase-1 state sweep F frames at once, each frame's
    (V, L) state in its own block, and frame f's ids carry the offset t * f,
    so they index the frames' phase-1 final costs as they are; only each
    entry's chosen slot and the final metrics and dists are kept, and the
    pred arrays are decoded from the slots when first read.
    """
    trellis = ridx.trellis
    t = ridx.t
    batch = weights.values.shape[:-1]
    n_frames = prod(batch)
    if n_frames == 1:
        def take(a, index):  # slots of one frame's flat array
            return a.reshape(-1)[index]
    else:
        def take(a, index):  # slots of each frame's flat array
            return a.reshape(n_frames, -1).take(index, axis=1)
    d_final = p1.delta_finals.reshape(-1)
    starts = trellis.starts * list_size  # rank 0 of each start
    ids = np.zeros((n_frames, trellis.v_counts[0] * list_size), dtype=np.intp)
    ids[:, starts] = np.arange(t)
    dist = np.full(ids.shape, np.inf)
    alive = participants.reshape(n_frames, t) & np.isfinite(d_final.reshape(n_frames, t))
    dist[:, starts] = np.where(alive, 0.0, np.inf)
    offset = t * np.arange(n_frames)[:, None, None]  # frame f's ids start at t * f, so they index d_final
    if n_frames > 1:
        ids += offset[:, 0]
    comparisons = 0
    picks: list[np.ndarray] = []
    for p, (src, edges, vert, rows, members, pred) in enumerate(_list_slots(ridx, list_size)):
        width = edges.shape[1]
        ids_u, dist_u = take(ids, src), take(dist, src)
        local = ids_u if n_frames == 1 else ids_u - offset  # each frame's own subtrellis numbers
        ok = np.isfinite(dist_u) & members[rows + local]
        step = dist_u + take(weights.values, weights.index[p][edges])
        cand = np.where(ok, (step + d_final[ids_u]) - take(p1.cost[p + 1], vert), np.inf)
        comparisons = comparisons + (ok.reshape(*batch, -1).sum(axis=-1) if batch else np.count_nonzero(ok))
        cand = cand.reshape(-1, width)  # one row of slots per (frame, vertex)
        base = np.arange(0, cand.size, width)
        local = local.reshape(-1, width)
        if list_size <= LIST_ROUNDS_MAX:
            at, live = _first_min_rounds(cand, local, list_size, base)
        else:
            at, live = _sorted_picks(cand, local, list_size, base[:, None], t)
        ids = ids_u.reshape(-1)[at]
        dist = np.where(live, step.reshape(-1)[at], np.inf)
        picks.append(np.where(live, at if n_frames == 1 else at % edges.size, -1))  # each frame's own slots
    finals = [
        a.reshape(*batch, -1, list_size)[..., trellis.finals, :].swapaxes(-1, -2)
        for a in (np.where(live, cand.reshape(-1)[at], np.inf), dist)
    ]
    return ListState(
        picks=picks,
        pred_tables=[pred for *_, pred in _list_slots(ridx, list_size)],
        metric_finals=finals[0],
        dist_finals=finals[1],
        comparisons=comparisons if batch else int(comparisons),
    )


def _list_decisions(ls: ListState, scalar: list[DecodeOutcome], walks: _Walks) -> list[DecodeOutcome]:
    """Pool each frame's list-sweep finals with its single-candidate decision.

    Each frame's list candidate is its least (metric, final, rank) entry, at
    the path dist the sweep carried to it, and it is compared with the
    single-candidate decision by weight before any walk, so only a returned
    candidate waits in ``walks`` for its codeword.
    """
    list_size = ls.metric_finals.shape[-2]
    pool = ls.metric_finals.swapaxes(-1, -2).reshape(len(scalar), -1)  # by (final, rank)
    best = pool.argmin(axis=1)
    frames = np.arange(len(scalar))
    i, r = np.divmod(best, list_size)
    found = np.isfinite(pool[frames, best]).tolist()
    weight = ls.dist_finals.reshape(len(scalar), list_size, -1)[frames, r, i].tolist()
    comparisons = (np.array([s.comparisons for s in scalar]) + ls.comparisons).tolist()
    decisions = []
    for f, single in enumerate(scalar):
        # Compare true path weights; the single-candidate result wins ties so
        # a larger list can only strictly improve the decision.
        if found[f] and (single.stage == "fallback" or weight[f] < single.weight):
            outcome = DecodeOutcome(None, None, weight[f], "phase2", int(i[f]), comparisons[f], single.edge_visits)
            decisions.append(walks.add(outcome, ls.pred_edge, f, r[f], i[f], pred_rank=ls.pred_rank))
        else:
            decisions.append(walks.recount(single, comparisons[f]))
    return decisions


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
    """Decode a batch of frames with every named decoder; yields one FrameDecode per frame, in order.

    ``weights`` holds one frame, or a batch as ``edge_weights`` builds it for
    (F, n) samples.  Names are those of ``DECODER_NAMES``, or
    "two-phase-L<k>" for any list size k, each at most once.  This is
    ``_decode_batches`` on one batch, its pool capped at the batch: phase 1 and its stop test run once for
    the whole batch, and a frame phase 1 settled takes that outcome for every
    decoder, exact ML included.  Every decoder then decides all the frames
    phase 1 left open in one pass (``_decode_open``): phase 2, its final
    decision and one list sweep per list size above 1; phase1-only; and
    last exact ML, with one joint sweep of the subtrellises left in the race
    on every open frame (``_exact_decisions``): those whose phase-1 bound
    could beat the frame's cheapest closed final and, when other decoders
    are named, is no more than the least weight they decided.  The frames
    are put back in their order before the first is yielded.
    """
    decoded: list[FrameDecode | None] = [None] * prod(weights.values.shape[:-1])
    for group in _decode_batches(ridx, [weights], decoders, participation_prune, cap=len(decoded)):
        for _, row, frame in group:
            decoded[row] = frame
    for row in range(len(decoded)):
        yield decoded[row]
        decoded[row] = None  # hold no frame the caller is done with, nor any table it built


def _decode_batches(
    ridx: ReachIndex,
    batches: Iterable[WeightAssignment],
    decoders: tuple[str, ...],
    participation_prune: bool = True,
    cap: int | None = None,
) -> Iterator[list[tuple[int, int, FrameDecode]]]:
    """Decode a stream of batches, pooling the frames phase 1 leaves open across batches.

    Yields groups of decoded frames as lists of (batch, row, FrameDecode),
    ``batch`` counting the batches from 0 and ``row`` the frame's row in it.
    Phase 1, its stop test and the traceback of the frames it settles run per
    batch, and each batch's settled frames are yielded at once.  The rows of
    its open frames are copied out of its sweep and weights into a pool, and
    every decoder decides the pool in one pass (``_decode_open``) whenever it
    holds ``cap`` frames (``pool_frames`` if None), and once more after the
    last batch; a batch's open frames may straddle several passes.  A group's
    frames refer to no state but their own batch's sweep (settled) or their
    pass's (open), so each batch's sweep is freed once its settled frames
    are.
    """
    for name in decoders:
        if name not in ("exact-ml", "phase1-only") and not _TWO_PHASE.fullmatch(name):
            raise CatalogError(f"unknown decoder {name!r}; available: {', '.join(DECODER_NAMES)}")
    if len(set(decoders)) != len(decoders):
        # outcomes are keyed by name, so a repeated name would be decoded once and reported once
        raise CatalogError(f"decoder names must be distinct, got {', '.join(decoders)}")
    exact_work = _exact_work(ridx) if "exact-ml" in decoders else None
    cap = cap or pool_frames(ridx)
    pool: list[tuple[int, list[int], WeightAssignment, Phase1State]] = []  # (batch, rows, their weights and sweep)
    pooled = 0
    for b, weights in enumerate(batches):
        p1 = phase1(ridx, weights)
        stops = _phase1_stops(ridx, p1)
        settled = []
        for f, stopped in enumerate(stops):
            if stopped is not None:
                outcomes = dict.fromkeys(decoders, stopped)
                if exact_work is not None:
                    # the stop is on the cheapest final, so no subtrellis can beat it
                    outcomes["exact-ml"] = DecodeOutcome(
                        stopped.codeword, stopped.path, stopped.weight, "exact", stopped.subtrellis, **exact_work
                    )
                settled.append((b, f, FrameDecode(outcomes, sweep=p1, row=f, ridx=ridx, weights=weights)))
        if settled:
            yield settled
        open_rows = [f for f, stopped in enumerate(stops) if stopped is None]
        while open_rows:
            rows, open_rows = open_rows[: cap - pooled], open_rows[cap - pooled:]
            if len(rows) < len(stops):
                pool.append((b, rows, weights.take(rows), p1.take(rows)))
            else:  # the whole batch, or one frame's own sweep: nothing to copy
                pool.append((b, rows, weights, p1))
            pooled += len(rows)
            if pooled == cap:
                yield _decode_pool(ridx, pool, decoders, participation_prune)
                pool, pooled = [], 0
        weights = p1 = stops = settled = None  # the pool holds all of the batch it still needs
    if pool:
        yield _decode_pool(ridx, pool, decoders, participation_prune)


def _decode_pool(
    ridx: ReachIndex,
    pool: list[tuple[int, list[int], WeightAssignment, Phase1State]],
    decoders: tuple[str, ...],
    participation_prune: bool,
) -> list[tuple[int, int, FrameDecode]]:
    """Decide the pooled open frames in one pass; (batch, row, FrameDecode) per frame, in pool order."""
    if len(pool) == 1:
        _, _, weights, p1 = pool[0]
    else:
        weights = WeightAssignment.concat([w for _, _, w, _ in pool])
        p1 = Phase1State.concat([p for _, _, _, p in pool])
    p2, decided = _decode_open(ridx, weights, p1, decoders, participation_prune)
    group = []
    for k, (b, f) in enumerate((b, f) for b, rows, _, _ in pool for f in rows):
        frame = FrameDecode({name: decided[name][k] for name in decoders}, sweep=p1, row=k, ridx=ridx, weights=weights)
        if p2 is not None:
            frame.p2 = p2.frame(k)
        group.append((b, f, frame))
    return group


def _decode_open(
    ridx: ReachIndex,
    weights: WeightAssignment,
    p1: Phase1State,
    decoders: tuple[str, ...],
    participation_prune: bool,
) -> tuple[Phase2State | None, dict[str, list[DecodeOutcome]]]:
    """Every named decoder's decisions on open frames, all batched.

    ``weights`` and ``p1`` hold just the open frames, one frame or a batch.
    Returns their phase-2 state (None if no two-phase decoder was named) and,
    per decoder name, the frames' outcomes in order.  The list sweep runs
    once per list size over the same frames: at L = 1 it is phase 2, which
    ``_final_decisions`` reads once, and every larger size adds one sweep
    pooled with that decision.  Exact ML and phase1-only each decide all
    of them in one pass.  Exact ML goes last, whatever the order of the
    names: each frame's least weight among the other decoders' decisions is
    its ceiling, and a subtrellis whose phase-1 bound is above it is not
    swept.  Named alone, exact ML gets no ceiling; running phase 2 only to
    make one costs more than the sweeps it saves.  Every decision is made at
    its sweep's weight, with no path yet; once every decoder has decided, one
    pass over the sections walks each returned codeword once (``_Walks``).
    """
    sizes = {name: int(m.group(1)) for name in decoders if (m := _TWO_PHASE.fullmatch(name))}
    walks = _Walks()
    p2 = phase2(ridx, weights, p1, participation_prune) if sizes else None
    scalar = _final_decisions(ridx, weights, p1, p2, walks) if sizes else None
    decided = {}
    for name in decoders:
        if name == "phase1-only":
            decided[name] = _final_decisions(ridx, weights, p1, None, walks)
        elif sizes.get(name) == 1:
            decided[name] = scalar
        elif name in sizes:
            ls = _phase2_list(ridx, weights, p1, sizes[name], p2.participants)
            decided[name] = _list_decisions(ls, scalar, walks)
    if "exact-ml" in decoders:
        # every other decision is a codeword, so its weight bounds each frame's ML weight from above
        ceiling = np.array([[o.weight for o in d] for d in decided.values()]).min(axis=0) if decided else None
        decided["exact-ml"] = _exact_decisions(ridx, weights, p1, walks, ceiling)
    walks.run(ridx)
    return p2, decided


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
    so the restricted sweep from the cheapest final's start stands in (stage
    "fallback"), walked with the pass's other decisions; if that subtrellis
    has no start-to-final path, NoPathError.
    """
    return decode_frame(ridx, weights, ("phase1-only",)).outcomes["phase1-only"]


# ---------------------------------------------------------------------------
# Exhaustive references

def viterbi_subtrellis(ridx: ReachIndex, weights: WeightAssignment, i: int) -> SubtrellisResult:
    """Standard Viterbi from start i over edges that belong to subtrellis i: ``_sweep`` from start i alone."""
    _check_weights(ridx, weights, batch=False)
    final = ridx.trellis.finals[i]
    cost, pred_edge = _sweep(ridx, weights.values, weights.index, np.array([i]))
    if not np.isfinite(cost[-1][final]):
        raise NoPathError(f"subtrellis {i} has no start-to-final path")
    paths, bits = _walk(ridx, [(pred_edge, None, (), [final])])
    return SubtrellisResult(
        weight=float(cost[-1][final]), path=paths[0], codeword=bits[0], comparisons=int(ridx.member_counts[i])
    )


def parallel_start_costs(ridx: ReachIndex, weights: WeightAssignment) -> list[np.ndarray]:
    """Per-start shortest-path costs to every vertex, swept jointly.

    Row i of the returned per-index arrays is an independent single-source
    sweep from start i; used as the oracle for phase-1 exactness and for the
    per-subtrellis lower bounds in the invariant audits.
    """
    _check_weights(ridx, weights, batch=False)
    return list(_start_costs(ridx, weights, np.arange(ridx.t)))


def _start_costs(
    ridx: ReachIndex, weights: WeightAssignment, rows: np.ndarray, frames: np.ndarray | None = None
) -> Iterator[np.ndarray]:
    """The sweeps from starts ``rows``, row k from start rows[k]; yields each index's (rows, V) costs in turn.

    Each row is swept alone.  Row k adds the weights of frame frames[k] of a
    batch, or of the one frame ``weights`` holds when ``frames`` is None,
    gathered from the frames' label tables when the sweep reaches each
    section: every frame's section weights, then each row's frame's, so no
    row holds a copy of its frame's table.  Each index's costs are made from
    the previous index's only, so a caller that keeps just the last holds
    two indices' costs at a time.
    """
    trellis = ridx.trellis
    cost = np.full((len(rows), trellis.v_counts[0]), np.inf)
    cost[np.arange(len(rows)), trellis.starts[rows]] = 0.0
    yield cost
    for p, index in enumerate(weights.index):
        w = weights.values.take(index, axis=-1)
        cost = _group_min(cost[:, ridx.frm[p]] + (w if frames is None else w.take(frames, axis=0)), ridx, p)
        yield cost


def all_pairs_start_final_distances(
    ridx: ReachIndex, weights: WeightAssignment
) -> DistanceTable:
    """Start-to-final distance table; diagonal entries are codeword weights."""
    _check_weights(ridx, weights, batch=False)
    for cost in _start_costs(ridx, weights, np.arange(ridx.t)):  # only the last index is read
        pass
    return DistanceTable(d=cost[:, ridx.trellis.finals])


def _exact_decisions(
    ridx: ReachIndex, weights: WeightAssignment, p1: Phase1State, walks: _Walks, ceiling: np.ndarray | None = None
) -> list[DecodeOutcome]:
    """Exact ML of every frame of a sweep from phase 1's lower bounds and as few sweeps as they allow.

    Every final cost ``delta_finals[i]`` bounds subtrellis i's codeword weight
    from below, and a final whose survivor closed its own loop weighs exactly
    that, bit for bit: float addition is monotone, so the sweep from start i
    can never beat phase 1 along phase 1's own path.  With (w*, j) a frame's
    cheapest closed final (``Phase1State.closed_finals``), a subtrellis can
    win only if its (bound, index) sorts before (w*, j).  ``ceiling``, if
    given, holds each frame's weight of some codeword another decoder decided,
    and a row whose bound is above it is dropped too (a bound equal to it
    stays).  That weight adds the path's edge weights left to right, as the
    sweeps do, and the path runs from some start j to final j, so by the same
    monotonicity it is at least the sweep's weight at final j, itself at least
    the ML weight; a dropped row weighs more than the ceiling and cannot be
    the first argmin.  The remaining (frame, subtrellis) rows of every frame
    are swept in one ``_start_costs`` call, each over its own frame's weights,
    and only its last index's costs are kept.  Each frame's first argmin over
    its closed weights and swept diagonals is then the first argmin of its
    full diagonal, at that weight.  A closed winner is (w*, j) and waits in
    ``walks`` on phase 1's pred edges, the path its own sweep would pick.  The
    swept winners' rows are swept again, in one ``_sweep`` call, which keeps
    pred edges, and each waits on its row's.
    """
    t = ridx.t
    finals = ridx.trellis.finals
    index = np.arange(t)
    bound = p1.delta_finals.reshape(-1, t)
    closed, j, best = p1.closed_finals
    weight = np.where(closed, bound, np.inf)  # exact for closed finals; the rest inf unless swept
    # rows whose (bound, index) sorts before (best, j): below best, or level with it at a lower index
    race = np.where(index < j[:, None], bound <= best[:, None], bound < best[:, None]) & ~closed
    if ceiling is not None:
        race &= bound <= ceiling[:, None]
    frames, rows = np.nonzero(race)
    if len(rows):  # every race row in one sweep, of which only the last index's costs are read
        for cost in _start_costs(ridx, weights, rows, frames if p1.delta_finals.ndim == 2 else None):
            pass
        weight[frames, rows] = cost[np.arange(len(rows)), finals[rows]]
    least = weight.min(axis=1)
    if not np.isfinite(least).all():
        raise NoPathError("no subtrellis contains a start-to-final path")
    won = weight.argmin(axis=1)
    swept = race[np.arange(len(won)), won]
    if swept.any():  # the swept winners again, one row each in one call, keeping pred edges
        pred_edge = _sweep(ridx, weights.values.reshape(len(won), -1)[swept], weights.index, won[swept, None])[1]
    at = np.cumsum(swept) - 1  # each swept winner's row in that sweep
    work = _exact_work(ridx)
    decisions = []
    for f, (i, w) in enumerate(zip(won.tolist(), least.tolist())):
        source = (pred_edge, at[f]) if swept[f] else (p1.pred_edge, f)  # a closed winner is (w*, j), on phase 1's
        decisions.append(walks.add(DecodeOutcome(None, None, w, "exact", i, **work), *source, i))
    return decisions


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
