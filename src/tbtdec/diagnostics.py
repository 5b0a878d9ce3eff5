"""Audits and failure forensics for the two-phase decoder.

Every quantity the decoder trusts has an independent oracle here: phase-1
costs are recomputed per start, phase-2 bounds are checked against the true
restricted distances, and frames where the approximation missed the exact
maximum-likelihood answer are explained by two witness searches:

* a *crossing pair*: a start/final pair (k, j) with k != j whose cheapest
  connecting path is no heavier than the best codeword — the structural
  condition under which phase 1 can lock onto a semi-codeword;
* a *semi-codeword witness*: after shifting the received vector by the signs
  of the ML codeword (which maps that codeword onto the all-zero word), a
  semi-codeword whose flip pattern scores no worse than the hard-decision
  pattern against the received magnitudes.

All checks are pure functions of frame-local data.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .channel import ReceivedVector, WeightAssignment
from .codes import (
    GeneratorSpec,
    SemiCodewordBasis,
    bits_to_int,
    codeword_table,
    semi_codeword_basis,
    _row_space_words,
)
from .decoder import DistanceTable, Phase1State, Phase2State, parallel_start_costs
from .errors import TooLargeError
from .trellis import ReachIndex, semi_codeword_labels

__all__ = [
    "crossing_pair_witness",
    "semi_codeword_witness",
    "SemiWitnessReport",
    "verify_semi_codeword_space",
    "audit_decode_invariants",
    "AuditReport",
    "MismatchReport",
    "write_mismatch_reports",
]


# ---------------------------------------------------------------------------
# Witness searches

def crossing_pair_witness(table: DistanceTable, i: int) -> tuple[int, int] | None:
    """Find (k, j), k != j != i, whose crossing path is at most the best codeword.

    ``table.d[k, j]`` holds the cheapest start-k..final-j weight and i is the
    exact-ML subtrellis, so a hit means some semi-codeword ties or beats the
    ML codeword — the precondition for the two-phase decoder to go wrong.
    Witnesses with k != i are preferred (lexicographically smallest first);
    pairs sharing the ML start are reported only when nothing else exists,
    since whether they "count" is a judgement call the caller may make.
    """
    d = table.d
    t = d.shape[0]
    bound = d[i, i]
    fallback: tuple[int, int] | None = None
    for k in range(t):
        for j in range(t):
            if k == j or j == i or d[k, j] > bound:
                continue
            if k != i:
                return (k, j)
            if fallback is None:
                fallback = (k, j)
    return fallback


@dataclass(frozen=True)
class SemiWitnessReport:
    """Result of the semi-codeword search on one mismatch frame."""

    witness: np.ndarray | None  # flip pattern C_s, or None
    start: int | None  # boundary-state index implied by the head coefficients
    final: int | None  # boundary-state index implied by the tail coefficients
    witness_is_codeword: bool
    ml_strictly_better: bool  # hard pattern scored strictly below every codeword


def semi_codeword_witness(
    received: ReceivedVector,
    c_ml: np.ndarray,
    spec: GeneratorSpec,
    basis: SemiCodewordBasis | None = None,
    max_coeff_bits: int = 20,
) -> SemiWitnessReport:
    """Search the semi-codeword space for a pattern that ties or beats ML.

    The received vector is first multiplied by the signs of the ML codeword,
    mapping that codeword onto the all-zero word without changing any weight
    differences.  With e the hard decisions of the shifted vector and r' the
    magnitudes, the score of flipping pattern x is (x xor e) . r'; the search
    returns the first nonzero semi-codeword scoring <= e . r' (coefficient
    order: linear rows, then circular heads, then circular tails).  The report
    also records whether every nonzero *codeword* scored strictly worse than
    e, i.e. whether the ML choice was unique.
    """
    if basis is None:
        basis = semi_codeword_basis(spec)
    b = basis.matrix.shape[0]
    if b > max_coeff_bits:
        raise TooLargeError(f"semi-codeword search over 2^{b} combinations refused")
    shifted = received.r * (1.0 - 2.0 * c_ml.astype(np.float64))
    magnitudes = np.abs(received.r)
    e = (shifted < 0).astype(np.uint8)
    e_score = float(e.astype(np.float64) @ magnitudes)

    coeffs = ((np.arange(1 << b)[:, None] >> np.arange(b - 1, -1, -1)) & 1).astype(np.uint8)
    labels = coeffs @ basis.matrix % 2
    scores = (labels ^ e).astype(np.float64) @ magnitudes
    nonzero = labels.any(axis=1)

    code_words = _row_space_words([int(bits_to_int(r)) for r in spec.matrix])
    strictly = True
    for word in code_words:
        if word == 0:
            continue
        cbits = np.array([(word >> (spec.n - 1 - i)) & 1 for i in range(spec.n)], dtype=np.uint8)
        if float((cbits ^ e).astype(np.float64) @ magnitudes) <= e_score:
            strictly = False
            break

    hits = np.flatnonzero(nonzero & (scores <= e_score))
    if len(hits) == 0:
        return SemiWitnessReport(None, None, None, False, strictly)
    hit = int(hits[0])
    c = basis.num_circular
    l = basis.num_linear
    head_coeffs = coeffs[hit, l : l + c]
    tail_coeffs = coeffs[hit, l + c : l + 2 * c]
    return SemiWitnessReport(
        witness=labels[hit].astype(np.uint8),
        start=int(bits_to_int(head_coeffs)),
        final=int(bits_to_int(tail_coeffs)),
        witness_is_codeword=int(bits_to_int(labels[hit])) in code_words,
        ml_strictly_better=strictly,
    )


def verify_semi_codeword_space(spec: GeneratorSpec, trellis, max_n: int = 10) -> bool:
    """Check that trellis start-to-final path labels equal the basis row space.

    Enumerates both sides, so refuses block lengths past ``max_n``.
    """
    if spec.n > max_n:
        raise TooLargeError(f"label enumeration refused for n={spec.n} > {max_n}")
    enumerated = semi_codeword_labels(trellis)
    basis = semi_codeword_basis(spec)
    space = _row_space_words([int(bits_to_int(r)) for r in basis.matrix])
    return enumerated == space


# ---------------------------------------------------------------------------
# Invariant audit

@dataclass
class AuditReport:
    """Outcome of one frame's invariant audit: named checks and violations."""

    checks: list[str] = field(default_factory=list)
    violations: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.violations


def audit_decode_invariants(
    ridx: ReachIndex,
    weights: WeightAssignment,
    p1: Phase1State,
    p2: Phase2State | None,
    costs: list[np.ndarray] | None = None,
    rtol: float = 1e-9,
) -> AuditReport:
    """Re-derive everything the decoder believes and flag discrepancies.

    The oracle is an independent per-start sweep (``parallel_start_costs``).
    Exactly representable relations are compared bit for bit; relations whose
    two sides accumulate roundings in different orders get a relative slack of
    ``rtol`` — far below any genuine violation, far above honest noise.
    """
    trellis = ridx.trellis
    report = AuditReport()
    if costs is None:
        costs = parallel_start_costs(ridx, weights)

    def check(name: str, ok: bool, detail: str = "") -> None:
        report.checks.append(name)
        if not ok:
            report.violations.append(f"{name}{': ' + detail if detail else ''}")

    for p in range(trellis.n_sections + 1):
        oracle = costs[p].min(axis=0)
        if not np.array_equal(p1.cost[p], oracle):
            check("multi-source-cost-exact", False, f"time index {p}")
            break
    else:
        check("multi-source-cost-exact", True)

    triangle_ok = True
    for p, sec in enumerate(trellis.sections):
        bound = p1.cost[p][sec.frm] + weights.values.take(weights.index[p], axis=-1)
        if np.any(p1.cost[p + 1][sec.to] > bound):
            triangle_ok = False
            check("edge-triangle", False, f"section {p + 1}")
            break
    if triangle_ok:
        check("edge-triangle", True)

    if p2 is not None:
        d_final = p1.delta_finals
        dist_ok = metric_lb_ok = floor_ok = chain_ok = True
        for p in range(trellis.n_sections + 1):
            finite = np.isfinite(p2.metric[p])
            if not finite.any():
                continue
            v_ids = np.flatnonzero(finite)
            j = p2.trellis[p][v_ids]
            restricted = costs[p][j, v_ids]
            if np.any(p2.dist[p][v_ids] < restricted):
                dist_ok = False
            floor_m = (restricted + d_final[j]) - p1.cost[p][v_ids]
            if np.any(p2.metric[p][v_ids] < floor_m):
                metric_lb_ok = False
            slack = rtol * np.maximum(1.0, np.abs(d_final[j]))
            if np.any(p2.metric[p][v_ids] < d_final[j] - slack):
                floor_ok = False
        for p, sec in enumerate(trellis.sections):
            finite = np.isfinite(p2.metric[p + 1])
            if not finite.any():
                continue
            v_ids = np.flatnonzero(finite)
            u = sec.frm[p2.pred_edge[p][v_ids]]
            prev = p2.metric[p][u]
            slack = rtol * np.maximum(1.0, np.abs(prev))
            if np.any(p2.metric[p + 1][v_ids] < prev - slack):
                chain_ok = False
        check("restricted-dist-lower-bound", dist_ok)
        check("metric-lower-bound", metric_lb_ok)
        check("metric-floor", floor_ok)
        check("metric-chain-monotone", chain_ok)

    diag = costs[-1][np.arange(ridx.t), trellis.finals]
    ml_weight = diag.min()
    best_final = p1.delta_finals.min()
    check(
        "semi-codeword-lower-bound",
        best_final <= ml_weight + rtol * max(1.0, abs(ml_weight)),
    )

    if p2 is not None:
        check(
            "comparison-budget",
            p1.comparisons + p2.comparisons <= 2 * trellis.num_edges,
            f"{p1.comparisons}+{p2.comparisons} vs {2 * trellis.num_edges}",
        )
    return report


# ---------------------------------------------------------------------------
# Mismatch reporting

@dataclass
class MismatchReport:
    """One frame where an approximate decoder differed from exact ML."""

    frame: int
    ebn0_db: float
    decoder: str
    ml_subtrellis: int
    ml_weight: float
    out_subtrellis: int
    out_weight: float
    crossing_witness: tuple[int, int] | None = None
    crossing_shares_ml_start: bool | None = None
    semi_witness: str | None = None  # witness bits, or None
    semi_witness_start: int | None = None
    semi_witness_final: int | None = None

    def to_json(self) -> str:
        payload = {
            "frame": self.frame,
            "ebn0_db": self.ebn0_db,
            "decoder": self.decoder,
            "ml_subtrellis": self.ml_subtrellis,
            "ml_weight": self.ml_weight,
            "out_subtrellis": self.out_subtrellis,
            "out_weight": self.out_weight,
            "crossing_witness": list(self.crossing_witness) if self.crossing_witness else None,
            "crossing_shares_ml_start": self.crossing_shares_ml_start,
            "semi_witness": self.semi_witness,
            "semi_witness_start": self.semi_witness_start,
            "semi_witness_final": self.semi_witness_final,
        }
        return json.dumps(payload, sort_keys=True)

    @classmethod
    def from_json(cls, line: str) -> "MismatchReport":
        raw = json.loads(line)
        witness = raw.get("crossing_witness")
        return cls(
            frame=raw["frame"],
            ebn0_db=raw["ebn0_db"],
            decoder=raw["decoder"],
            ml_subtrellis=raw["ml_subtrellis"],
            ml_weight=raw["ml_weight"],
            out_subtrellis=raw["out_subtrellis"],
            out_weight=raw["out_weight"],
            crossing_witness=tuple(witness) if witness else None,
            crossing_shares_ml_start=raw.get("crossing_shares_ml_start"),
            semi_witness=raw.get("semi_witness"),
            semi_witness_start=raw.get("semi_witness_start"),
            semi_witness_final=raw.get("semi_witness_final"),
        )


def write_mismatch_reports(path: str, reports: list[MismatchReport]) -> None:
    """Append one JSON object per report to a line-oriented log file."""
    with open(path, "a", encoding="utf-8") as fh:
        for report in reports:
            fh.write(report.to_json() + "\n")
