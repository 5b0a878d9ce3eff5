"""Tail-biting trellis construction and the reachability index.

A trellis here is a layered DAG: vertices live at time indices 0..n, edges of
section p (1-based) connect index p-1 to index p and carry a small packed
label of `label_width` bits.  Start states sit at index 0 and final states at
index n, paired by position: the code represented by the trellis is the set
of label sequences along paths from start i to final i.  Paths from start k
to final j with k != j read *semi-codewords* — they matter because the
decoder's first phase runs over all of them at once.

Edges of each section are kept sorted by (to, from, label); that fixed order
is the tie-breaking order everywhere a sweep keeps the first of equal-cost
candidates.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .codes import ConvCodeSpec, GeneratorRow, GeneratorSpec, validate_conv, validate_generator
from .errors import EmptyTrellisError, ShapeMismatchError, TooLargeError

__all__ = [
    "Section",
    "Trellis",
    "ReachIndex",
    "elementary_trellis",
    "trellis_product",
    "build_tbt_product",
    "build_tbt_conv",
    "build_reach_index",
    "label_bits",
    "subtrellis_labels",
    "semi_codeword_labels",
]

DEFAULT_MAX_SUBTRELLISES = 64
MAX_T_ENV = "TBT_MAX_T"


def label_bits(label: int, width: int) -> np.ndarray:
    """Unpack a section label into its bits, first transmitted bit first."""
    return np.array([(label >> (width - 1 - j)) & 1 for j in range(width)], dtype=np.uint8)


@dataclass
class Section:
    """Edges of one section, sorted by (to, from, label)."""

    frm: np.ndarray  # int32 (E,) vertex ids at the left index
    to: np.ndarray  # int32 (E,) vertex ids at the right index
    labels: np.ndarray  # uint8 (E,) packed label bits

    @property
    def num_edges(self) -> int:
        return len(self.frm)


class Trellis:
    """A layered labelled graph with paired start/final boundary states."""

    def __init__(self, label_width, v_counts, sections, starts, finals):
        self.label_width = int(label_width)
        self.v_counts = [int(v) for v in v_counts]
        self.sections = sections
        self.starts = np.asarray(starts, dtype=np.int32)
        self.finals = np.asarray(finals, dtype=np.int32)
        self.n_sections = len(sections)
        if len(self.v_counts) != self.n_sections + 1:
            raise ShapeMismatchError("v_counts must have one entry per time index")
        if len(self.starts) != len(self.finals):
            raise ShapeMismatchError("starts and finals must pair up")

    @property
    def num_starts(self) -> int:
        return len(self.starts)

    @property
    def num_edges(self) -> int:
        return int(self.edge_offsets[-1])

    @property
    def num_vertices(self) -> int:
        return sum(self.v_counts)

    @cached_property
    def edge_offsets(self) -> np.ndarray:
        """Where each section's edges begin when all sections' edges sit side by side."""
        return np.cumsum([0] + [s.num_edges for s in self.sections], dtype=np.intp)

    @cached_property
    def label_index(self) -> np.ndarray:
        """Every edge's entry in a flattened (n_sections, 2**label_width) label table."""
        size = 1 << self.label_width
        return np.concatenate(
            [p * size + sec.labels.astype(np.intp) for p, sec in enumerate(self.sections)]
        )

    @classmethod
    def from_edge_lists(cls, label_width, v_counts, edge_lists, starts, finals):
        """Normalize raw (frm, to, label) triples: sort canonically and dedupe."""
        sections = []
        for raw in edge_lists:
            # distinct (to, from, label) rows, in lexicographic order
            arr = np.unique(np.asarray(raw, dtype=np.int64).reshape(-1, 3)[:, [1, 0, 2]], axis=0)
            sections.append(
                Section(
                    frm=arr[:, 1].astype(np.int32),
                    to=arr[:, 0].astype(np.int32),
                    labels=arr[:, 2].astype(np.uint8),
                )
            )
        return cls(label_width, v_counts, sections, starts, finals)

    def to_json_dict(self) -> dict:
        return {
            "label_width": self.label_width,
            "v_counts": list(self.v_counts),
            "starts": [int(s) for s in self.starts],
            "finals": [int(f) for f in self.finals],
            "sections": [
                [
                    [int(f), int(t), "".join(map(str, label_bits(int(l), self.label_width)))]
                    for f, t, l in zip(sec.frm, sec.to, sec.labels)
                ]
                for sec in self.sections
            ],
        }

    def dump_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=1)


# ---------------------------------------------------------------------------
# Elementary trellis of a single generator row

def _active_indices(span, n: int) -> np.ndarray:
    """Boolean mask over time indices 0..n where the row's two paths split."""
    idx = np.arange(n + 1)
    if span.kind == "linear":
        return (idx >= span.lo) & (idx <= span.hi - 1)
    return (idx >= span.lo) | (idx <= span.hi - 1)


def elementary_trellis(row: GeneratorRow, n: int) -> Trellis:
    """Two-path trellis representing {0, row}.

    The zero path stays on vertex 0 throughout; the row path occupies a
    second vertex wherever the span keeps the two apart.  A circular span is
    split at the boundary, so both time index 0 and time index n carry two
    vertices and the trellis gets two paired start/final states.
    """
    active = _active_indices(row.span, n)
    v_counts = np.where(active, 2, 1)
    edge_lists = []
    for p in range(1, n + 1):
        zero_edge = (0, 0, 0)
        row_edge = (1 if active[p - 1] else 0, 1 if active[p] else 0, int(row.bits[p - 1]))
        edge_lists.append([zero_edge, row_edge])
    boundary = [0, 1] if active[0] else [0]
    return Trellis.from_edge_lists(1, v_counts, edge_lists, boundary, boundary)


# ---------------------------------------------------------------------------
# Sectionwise product

def trellis_product(a: Trellis, b: Trellis) -> Trellis:
    """Cartesian product per section; labels XOR, boundary states pair up."""
    if a.n_sections != b.n_sections:
        raise ShapeMismatchError(
            f"section counts differ: {a.n_sections} vs {b.n_sections}"
        )
    if a.label_width != b.label_width:
        raise ShapeMismatchError(
            f"label widths differ: {a.label_width} vs {b.label_width}"
        )
    v_counts = [va * vb for va, vb in zip(a.v_counts, b.v_counts)]
    edge_lists = []
    for p in range(a.n_sections):
        sa, sb = a.sections[p], b.sections[p]
        vb_l, vb_r = b.v_counts[p], b.v_counts[p + 1]
        frm = (sa.frm[:, None] * vb_l + sb.frm[None, :]).ravel()
        to = (sa.to[:, None] * vb_r + sb.to[None, :]).ravel()
        lab = (sa.labels[:, None] ^ sb.labels[None, :]).ravel()
        edge_lists.append(np.stack([frm, to, lab], axis=1))
    starts = (a.starts[:, None] * b.v_counts[0] + b.starts[None, :]).ravel()
    finals = (a.finals[:, None] * b.v_counts[-1] + b.finals[None, :]).ravel()
    return Trellis.from_edge_lists(a.label_width, v_counts, edge_lists, starts, finals)


def build_tbt_product(spec: GeneratorSpec) -> Trellis:
    """Fold the elementary trellises of all rows, in row order.

    With c circular rows the result has 2^c paired boundary states; start i's
    bits (first circular row most significant) say which circular rows take
    their split path across the boundary.
    """
    validate_generator(spec)
    trellis = elementary_trellis(spec.rows[0], spec.n)
    for row in spec.rows[1:]:
        trellis = trellis_product(trellis, elementary_trellis(row, spec.n))
    return trellis


# ---------------------------------------------------------------------------
# Convolutional tail-biting trellis

def build_tbt_conv(spec: ConvCodeSpec, max_size: int = 1 << 24) -> Trellis:
    """State trellis of the tail-bitten rate-1/2 encoder.

    States are the register contents (bit j-1 = input delayed j steps); every
    state appears at every time index and is both start j and final j.  Edge
    labels pack the two output bits as (out0 << 1) | out1.
    """
    validate_conv(spec)
    m, n = spec.memory, spec.circle
    num_states = 1 << m
    if num_states * n > max_size:
        raise TooLargeError(f"2^{m} states over {n} sections exceeds max_size={max_size}")
    mask = num_states - 1
    mask0 = sum(1 << (j - 1) for j in range(1, m + 1) if spec.taps0[j])
    mask1 = sum(1 << (j - 1) for j in range(1, m + 1) if spec.taps1[j])

    def parity(x: int) -> int:
        return bin(x).count("1") & 1

    edges = []
    for state in range(num_states):
        for u in (0, 1):
            nxt = ((state << 1) | u) & mask
            out0 = (spec.taps0[0] & u) ^ parity(state & mask0)
            out1 = (spec.taps1[0] & u) ^ parity(state & mask1)
            edges.append((state, nxt, (out0 << 1) | out1))
    boundary = np.arange(num_states, dtype=np.int32)
    # every section has the same edges: normalize them once and share the section
    section = Trellis.from_edge_lists(2, [num_states] * 2, [edges], boundary, boundary).sections[0]
    return Trellis(2, [num_states] * (n + 1), [section] * n, boundary, boundary)


# ---------------------------------------------------------------------------
# Reachability index: per-vertex bitmasks over subtrellises

class ReachIndex:
    """Per-vertex start/final reachability masks over a pruned trellis.

    fwd[idx][v] has bit i set iff some path from start i reaches v; bwd[idx][v]
    has bit i set iff v reaches final i.  An edge (u, w) belongs to subtrellis
    i exactly when bit i survives in fwd[u] & bwd[w]; those per-edge masks are
    precomputed, which is what makes the membership test O(1) during decoding.
    Masks are arrays of 64-bit words so more than 64 subtrellises still work
    (raise the cap via the TBT_MAX_T environment variable).  ``label_bit_table``
    unpacks every edge's label once, rows ordered as ``trellis.edge_offsets``,
    so tracebacks gather codeword bits instead of unpacking them per edge;
    ``frm`` holds each section's ``frm`` as intp, which numpy gathers with
    several times faster than int32.  ``in_edges[p]`` is section p's (V, g)
    in-edge table, g its largest in-degree: row v lists v's in-edges in edge
    order, and a vertex with fewer than g pads its row with its first edge,
    marked False in ``in_real[p]`` (None when no row needs padding).
    ``list_slots`` keeps the list sweep's slot grids, built from these
    tables on first use, by list size.
    """

    def __init__(self, trellis, fwd, bwd):
        self.trellis = trellis
        self.t = trellis.num_starts
        self.words = fwd[0].shape[1]
        self.fwd = fwd
        self.bwd = bwd
        self.v_offsets = np.concatenate([[0], np.cumsum(trellis.v_counts)]).astype(np.int64)
        self.edge_masks = []
        self.group_starts = []
        self.group_width = []  # in-edges per vertex when equal for all, else 0
        self.in_edges = []
        self.in_real = []
        self.list_slots = {}
        for p, sec in enumerate(trellis.sections):
            self.edge_masks.append(fwd[p][sec.frm] & bwd[p + 1][sec.to])
            v_next = trellis.v_counts[p + 1]
            if sec.num_edges == 0 or not np.array_equal(
                np.unique(sec.to), np.arange(v_next)
            ):
                raise EmptyTrellisError(f"section {p + 1} leaves vertices without in-edges")
            starts_ = np.concatenate([[0], np.flatnonzero(np.diff(sec.to)) + 1])
            self.group_starts.append(starts_.astype(np.int64))
            sizes = np.diff(np.concatenate([starts_, [sec.num_edges]]))
            self.group_width.append(int(sizes[0]) if np.all(sizes == sizes[0]) else 0)
            k = np.arange(sizes.max())
            real = k < sizes[:, None]
            self.in_edges.append(np.where(real, starts_[:, None] + k, starts_[:, None]))
            self.in_real.append(None if real.all() else real)
        counts = np.zeros(self.t, dtype=np.int64)
        for masks in self.edge_masks:
            for i in range(self.t):
                word, bit = divmod(i, 64)
                counts[i] += int(
                    ((masks[:, word] >> np.uint64(bit)) & np.uint64(1)).sum()
                )
        self.member_counts = counts
        self.frm = [sec.frm.astype(np.intp) for sec in trellis.sections]
        labels = np.concatenate([sec.labels for sec in trellis.sections]).astype(np.int64)
        shifts = np.arange(trellis.label_width - 1, -1, -1)
        self.label_bit_table = ((labels[:, None] >> shifts) & 1).astype(np.uint8)

    def member(self, section: int, edge: int, i: int) -> bool:
        """Does edge `edge` of 0-based `section` lie on some start-i..final-i path?"""
        word, bit = divmod(i, 64)
        return bool((self.edge_masks[section][edge, word] >> np.uint64(bit)) & np.uint64(1))

    def member_bit(self, section: int, trellis_ids: np.ndarray, edges=None) -> np.ndarray:
        """Vectorized membership of edges in `section` w.r.t. per-edge ids.

        Id k along the last axis is tested against edge k, or against edge
        ``edges[..., k]`` when an edge array (broadcasting with the ids) is given.
        """
        masks = self.edge_masks[section]
        ids = np.asarray(trellis_ids, dtype=np.int64)
        if edges is not None:
            words = masks[edges, 0] if self.words == 1 else masks[edges, ids >> 6]
        elif self.words == 1:
            words = masks[:, 0] if ids.ndim == 1 else masks[None, :, 0]
        else:
            words = masks[np.arange(masks.shape[0]), ids >> 6]
        return ((words >> (ids & 63).astype(np.uint64)) & np.uint64(1)).astype(bool)

    def global_vertex(self, index: int, local: int) -> int:
        return int(self.v_offsets[index]) + int(local)


def _max_subtrellises() -> int:
    return int(os.environ.get(MAX_T_ENV, DEFAULT_MAX_SUBTRELLISES))


def build_reach_index(trellis: Trellis, max_t: int | None = None) -> ReachIndex:
    """Sweep reachability masks, prune dead vertices, and index the result.

    Vertices from which no final is reachable — or that no start reaches —
    are removed along with their edges; that keeps every sweep total (every
    remaining vertex has a finite multi-source path cost).  Boundary states
    are never allowed to die: a trellis whose start cannot reach any final is
    rejected outright.
    """
    t = trellis.num_starts
    cap = max_t if max_t is not None else _max_subtrellises()
    if t > cap:
        raise TooLargeError(
            f"{t} subtrellises exceeds the cap {cap}; raise {MAX_T_ENV} to allow this"
        )
    if t == 0:
        raise EmptyTrellisError("trellis has no start states")
    words = (t + 63) // 64
    n = trellis.n_sections
    one = np.uint64(1)

    fwd = [np.zeros((v, words), dtype=np.uint64) for v in trellis.v_counts]
    for i, s in enumerate(trellis.starts):
        fwd[0][s, i >> 6] |= one << np.uint64(i & 63)
    for p, sec in enumerate(trellis.sections):
        np.bitwise_or.at(fwd[p + 1], sec.to, fwd[p][sec.frm])

    bwd = [np.zeros((v, words), dtype=np.uint64) for v in trellis.v_counts]
    for i, f in enumerate(trellis.finals):
        bwd[n][f, i >> 6] |= one << np.uint64(i & 63)
    for p in range(n - 1, -1, -1):
        sec = trellis.sections[p]
        np.bitwise_or.at(bwd[p], sec.frm, bwd[p + 1][sec.to])

    keep = [(f.any(axis=1)) & (b.any(axis=1)) for f, b in zip(fwd, bwd)]
    if not keep[0][trellis.starts].all() or not keep[n][trellis.finals].all():
        raise EmptyTrellisError("a boundary state reaches no matching boundary")

    if all(k.all() for k in keep):
        pruned = trellis
    else:
        remap = [np.cumsum(k) - 1 for k in keep]
        sections = []
        for p, sec in enumerate(trellis.sections):
            alive = keep[p][sec.frm] & keep[p + 1][sec.to]
            sections.append(
                Section(
                    frm=remap[p][sec.frm[alive]].astype(np.int32),
                    to=remap[p + 1][sec.to[alive]].astype(np.int32),
                    labels=sec.labels[alive],
                )
            )
        pruned = Trellis(
            trellis.label_width,
            [int(k.sum()) for k in keep],
            sections,
            remap[0][trellis.starts],
            remap[n][trellis.finals],
        )
        fwd = [f[k] for f, k in zip(fwd, keep)]
        bwd = [b[k] for b, k in zip(bwd, keep)]

    return ReachIndex(pruned, fwd, bwd)


# ---------------------------------------------------------------------------
# Exhaustive label enumeration (test-scale oracles)

def _forward_label_sets(trellis: Trellis, init: dict[int, set[int]], guard: int):
    """DP over sections: set of packed path labels reaching each vertex."""
    width = trellis.label_width
    sets: list[set[int]] = [init.get(v, set()) for v in range(trellis.v_counts[0])]
    for p, sec in enumerate(trellis.sections):
        nxt: list[set[int]] = [set() for _ in range(trellis.v_counts[p + 1])]
        for f, t_, lab in zip(sec.frm, sec.to, sec.labels):
            src = sets[f]
            if not src:
                continue
            dst = nxt[t_]
            for word in src:
                dst.add((word << width) | int(lab))
            if len(dst) > guard:
                raise TooLargeError("label enumeration exceeded its guard")
        sets = nxt
    return sets


def subtrellis_labels(trellis: Trellis, i: int, guard: int = 1 << 16) -> set[int]:
    """All packed label sequences of start-i..final-i paths."""
    init = {int(trellis.starts[i]): {0}}
    sets = _forward_label_sets(trellis, init, guard)
    final = int(trellis.finals[i])
    return sets[final] if final < len(sets) else set()


def semi_codeword_labels(trellis: Trellis, guard: int = 1 << 18) -> set[int]:
    """All packed label sequences readable from any start to any final."""
    init = {int(s): {0} for s in trellis.starts}
    sets = _forward_label_sets(trellis, init, guard)
    out: set[int] = set()
    for f in trellis.finals:
        if int(f) < len(sets):
            out |= sets[int(f)]
    return out
