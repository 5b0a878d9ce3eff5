"""Binary linear block codes described by generator rows with declared spans.

Positions are 1-based on the wire (a row of length n covers positions 1..n);
arrays are 0-based.  A span is the interval of positions a row is allowed to
occupy: a *linear* span [lo, hi] with lo <= hi, or a *circular* span with
lo > hi that wraps through position n back to 1.  Rows with circular spans
are what make the corresponding trellis tail-biting rather than conventional.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import (
    CatalogError,
    DependentRowsError,
    LengthMismatchError,
    SpanMismatchError,
    TooLargeError,
    ZeroRowError,
)

__all__ = [
    "Span",
    "GeneratorRow",
    "GeneratorSpec",
    "ConvCodeSpec",
    "SemiCodewordBasis",
    "validate_generator",
    "validate_conv",
    "encode_block",
    "encode_conv_tailbiting",
    "conv_initial_state",
    "semi_codeword_basis",
    "enumerate_codewords",
    "codeword_table",
    "parse_generator_file",
    "format_generator_file",
    "taps_from_octal",
    "bits_to_int",
    "int_to_bits",
    "gf2_rank",
]


# ---------------------------------------------------------------------------
# GF(2) helpers on packed integers (leftmost bit = position 1 = MSB)

def bits_to_int(bits) -> int:
    """Pack a 0/1 sequence into an int, first element most significant."""
    out = 0
    for b in bits:
        out = (out << 1) | int(b)
    return out


def int_to_bits(word: int, n: int) -> np.ndarray:
    """Unpack an int into an (n,) uint8 array, MSB first."""
    return np.array([(word >> (n - 1 - i)) & 1 for i in range(n)], dtype=np.uint8)


def gf2_rank(words: list[int]) -> int:
    """Rank of a set of GF(2) row vectors given as packed ints."""
    pivots: list[int] = []
    for w in words:
        for p in pivots:
            w = min(w, w ^ p)
        if w:
            pivots.append(w)
    return len(pivots)


def _row_space_words(words: list[int]) -> set[int]:
    space = {0}
    for w in words:
        space |= {x ^ w for x in space}
    return space


# ---------------------------------------------------------------------------
# Spec types

@dataclass(frozen=True)
class Span:
    """Declared support interval of a generator row, 1-based inclusive."""

    lo: int
    hi: int
    kind: str  # "linear" (lo <= hi) or "circular" (lo > hi, wraps past n)

    def __post_init__(self):
        if self.kind not in ("linear", "circular"):
            raise SpanMismatchError(f"unknown span kind {self.kind!r}")
        if self.kind == "linear" and self.lo > self.hi:
            raise SpanMismatchError(f"linear span needs lo <= hi, got [{self.lo}, {self.hi}]")
        if self.kind == "circular" and self.lo <= self.hi:
            raise SpanMismatchError(f"circular span needs lo > hi, got [{self.lo}, {self.hi}]")

    def covers(self, pos: int) -> bool:
        """True if 1-based position pos lies inside the span."""
        if self.kind == "linear":
            return self.lo <= pos <= self.hi
        return pos >= self.lo or pos <= self.hi


@dataclass(frozen=True)
class GeneratorRow:
    bits: tuple[int, ...]  # length n, entries 0/1
    span: Span

    @property
    def array(self) -> np.ndarray:
        return np.array(self.bits, dtype=np.uint8)

    @property
    def word(self) -> int:
        return bits_to_int(self.bits)


@dataclass(frozen=True)
class GeneratorSpec:
    """A block code given by k independent rows of length n with spans."""

    n: int
    k: int
    rows: tuple[GeneratorRow, ...]

    @property
    def num_linear(self) -> int:
        return sum(1 for r in self.rows if r.span.kind == "linear")

    @property
    def num_circular(self) -> int:
        return sum(1 for r in self.rows if r.span.kind == "circular")

    @property
    def matrix(self) -> np.ndarray:
        return np.array([r.bits for r in self.rows], dtype=np.uint8)


@dataclass(frozen=True)
class ConvCodeSpec:
    """Rate-1/2 feedforward convolutional code, tail-bitten over `circle` steps.

    taps0/taps1 hold memory+1 coefficients each; taps[d] multiplies the input
    bit delayed by d steps.
    """

    memory: int
    taps0: tuple[int, ...]
    taps1: tuple[int, ...]
    circle: int

    @property
    def n(self) -> int:  # codeword length in bits
        return 2 * self.circle

    @property
    def k(self) -> int:  # message length in bits
        return self.circle


@dataclass(frozen=True)
class SemiCodewordBasis:
    """Generators of the semi-codeword space of a tail-biting trellis.

    Rows come in three blocks: the linear-span rows unchanged, then one "head"
    row per circular row (its support clipped to positions 1..hi), then one
    "tail" row per circular row (support clipped to positions lo..n).  The
    head/tail coefficients of a combination identify which start and final
    boundary states the corresponding path uses.
    """

    n: int
    matrix: np.ndarray  # (l + 2c, n) uint8
    num_linear: int
    num_circular: int

    @property
    def num_rows(self) -> int:
        return self.matrix.shape[0]

    def combine(self, coeffs: np.ndarray) -> np.ndarray:
        """XOR-combine rows selected by a 0/1 coefficient vector."""
        if len(coeffs) != self.num_rows:
            raise LengthMismatchError("coefficient count != basis rows")
        return (np.asarray(coeffs, dtype=np.uint8) @ self.matrix) % 2


# ---------------------------------------------------------------------------
# Validation

def validate_generator(spec: GeneratorSpec) -> GeneratorSpec:
    """Check row lengths, spans, and GF(2) independence; return spec unchanged."""
    if spec.k != len(spec.rows):
        raise LengthMismatchError(f"k={spec.k} but {len(spec.rows)} rows given")
    if spec.k == 0 or spec.n <= 0:
        raise LengthMismatchError("need n >= 1 and k >= 1")
    for idx, row in enumerate(spec.rows):
        if len(row.bits) != spec.n:
            raise LengthMismatchError(f"row {idx} has length {len(row.bits)}, expected {spec.n}")
        if not any(row.bits):
            raise ZeroRowError(f"row {idx} is all-zero")
        if not (1 <= row.span.lo <= spec.n and 1 <= row.span.hi <= spec.n):
            raise SpanMismatchError(f"row {idx} span [{row.span.lo}, {row.span.hi}] out of range")
        for pos in range(1, spec.n + 1):
            if row.bits[pos - 1] and not row.span.covers(pos):
                raise SpanMismatchError(
                    f"row {idx} has a nonzero at position {pos} outside span "
                    f"[{row.span.lo}, {row.span.hi}] ({row.span.kind})"
                )
    if gf2_rank([r.word for r in spec.rows]) != spec.k:
        raise DependentRowsError("generator rows are linearly dependent over GF(2)")
    return spec


def validate_conv(spec: ConvCodeSpec) -> ConvCodeSpec:
    """Check tap lengths and the tail-biting length constraint."""
    for name, taps in (("taps0", spec.taps0), ("taps1", spec.taps1)):
        if len(taps) != spec.memory + 1:
            raise LengthMismatchError(f"{name} has {len(taps)} coefficients, expected memory+1")
        if any(t not in (0, 1) for t in taps):
            raise CatalogError(f"{name} coefficients must be 0/1")
        if not any(taps):
            raise ZeroRowError(f"{name} is the zero polynomial")
    if not (spec.taps0[0] or spec.taps1[0]):
        raise CatalogError("at least one polynomial needs a leading (delay-0) tap of 1")
    if spec.circle < spec.memory:
        raise CatalogError(f"circle={spec.circle} shorter than memory={spec.memory}")
    return spec


# ---------------------------------------------------------------------------
# Encoding

def encode_block(spec: GeneratorSpec, message) -> np.ndarray:
    """XOR the rows selected by the 0/1 message vector, or by each row of stacked messages (..., k)."""
    msg = np.asarray(message, dtype=np.uint8)
    if msg.ndim == 0 or msg.shape[-1] != spec.k:
        raise LengthMismatchError(f"message length {msg.shape} != k={spec.k}")
    return (msg @ spec.matrix) % 2


def encode_conv_tailbiting(spec: ConvCodeSpec, message) -> np.ndarray:
    """Circularly convolve the message with both tap polynomials.

    The register starts loaded with the last `memory` message bits, so the
    encoder returns to its initial state after `circle` steps — every message
    maps to a closed path in the tail-biting trellis.  Output interleaves the
    two streams: (v0[0], v1[0], v0[1], v1[1], ...).  Stacked messages,
    (..., circle), give stacked codewords, (..., 2 * circle).
    """
    msg = np.asarray(message, dtype=np.uint8)
    if msg.ndim == 0 or msg.shape[-1] != spec.circle:
        raise LengthMismatchError(f"message length {msg.shape} != circle={spec.circle}")
    out = np.empty((*msg.shape[:-1], spec.circle, 2), dtype=np.uint8)
    for stream, gather in enumerate(_conv_gathers(spec)):
        out[..., stream] = np.bitwise_xor.reduce(msg[..., gather], axis=-2)
    return out.reshape(*msg.shape[:-1], 2 * spec.circle)


@lru_cache(maxsize=32)
def _conv_gathers(spec: ConvCodeSpec) -> tuple[np.ndarray, ...]:
    """Per stream, the circular gather of its taps: row i reads msg[(j - d_i) % circle].

    d_i runs over the delays with a nonzero coefficient, and np.roll(msg,
    d)[j] == msg[(j - d) % circle], so XOR over the rows is the circular
    convolution.
    """
    j = np.arange(spec.circle)
    gathers = tuple(
        (j - np.array([d for d, coeff in enumerate(taps) if coeff], dtype=np.intp)[:, None])
        % spec.circle
        for taps in (spec.taps0, spec.taps1)
    )
    for gather in gathers:
        gather.flags.writeable = False  # shared by every caller through the cache
    return gathers


def conv_initial_state(spec: ConvCodeSpec, message) -> int:
    """Register state before step 0: bit j-1 holds message[-j]."""
    msg = np.asarray(message, dtype=np.uint8)
    state = 0
    for j in range(1, spec.memory + 1):
        state |= int(msg[spec.circle - j]) << (j - 1)
    return state


# ---------------------------------------------------------------------------
# Semi-codeword space

def semi_codeword_basis(spec: GeneratorSpec) -> SemiCodewordBasis:
    """Split each circular row into clipped head and tail rows.

    The returned rows span every label sequence readable start-to-final in the
    tail-biting trellis built from `spec`, whether or not start and final are
    a matched pair.
    """
    validate_generator(spec)
    rows: list[np.ndarray] = [r.array for r in spec.rows if r.span.kind == "linear"]
    heads: list[np.ndarray] = []
    tails: list[np.ndarray] = []
    for row in spec.rows:
        if row.span.kind != "circular":
            continue
        arr = row.array
        head = np.zeros(spec.n, dtype=np.uint8)
        tail = np.zeros(spec.n, dtype=np.uint8)
        head[: row.span.hi] = arr[: row.span.hi]
        tail[row.span.lo - 1 :] = arr[row.span.lo - 1 :]
        heads.append(head)
        tails.append(tail)
    matrix = np.array(rows + heads + tails, dtype=np.uint8)
    return SemiCodewordBasis(
        n=spec.n,
        matrix=matrix,
        num_linear=len(rows),
        num_circular=len(heads),
    )


# ---------------------------------------------------------------------------
# Codeword enumeration

_ENUM_GUARD = 24  # refuse to stream more than 2**24 codewords


def enumerate_codewords(spec: GeneratorSpec | ConvCodeSpec):
    """Yield every codeword exactly once (Gray-code order over messages)."""
    if isinstance(spec, ConvCodeSpec):
        k = spec.circle
        rows = [encode_conv_tailbiting(spec, np.eye(k, dtype=np.uint8)[j]) for j in range(k)]
        if gf2_rank([bits_to_int(r) for r in rows]) != k:
            raise DependentRowsError("tail-biting encoder is non-injective at this circle length")
    else:
        validate_generator(spec)
        k = spec.k
        rows = [r.array for r in spec.rows]
    if k > _ENUM_GUARD:
        raise TooLargeError(f"2^{k} codewords exceeds the enumeration guard")
    current = np.zeros(len(rows[0]), dtype=np.uint8)
    yield current.copy()
    for m in range(1, 1 << k):
        flip = (m & -m).bit_length() - 1  # Gray code: lowest set bit of m
        current ^= rows[k - 1 - flip]
        yield current.copy()


def codeword_table(spec: GeneratorSpec | ConvCodeSpec) -> np.ndarray:
    """All codewords as a (2^k, n) uint8 matrix, row index = message integer.

    Message bit for generator row j (or message step j) sits at bit k-1-j of
    the row index, so row 0 is the all-zero codeword.
    """
    if isinstance(spec, ConvCodeSpec):
        k, n = spec.circle, spec.n
        gen = np.array(
            [encode_conv_tailbiting(spec, np.eye(k, dtype=np.uint8)[j]) for j in range(k)],
            dtype=np.uint8,
        )
    else:
        validate_generator(spec)
        k, n = spec.k, spec.n
        gen = spec.matrix
    if (1 << k) * n > 1 << 28:
        raise TooLargeError("codeword table would exceed the size guard")
    msgs = (np.arange(1 << k, dtype=np.uint32)[:, None] >> np.arange(k - 1, -1, -1)) & 1
    return (msgs.astype(np.uint8) @ gen) % 2


# ---------------------------------------------------------------------------
# Generator file format

def parse_generator_file(text: str) -> GeneratorSpec:
    """Parse the plain-text generator format.

    Line 1: "n k".  Then k lines "bitstring lo hi kind" with kind L or C.
    Blank lines and lines starting with '#' are skipped.
    """
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines:
        raise LengthMismatchError("empty generator file")
    header = lines[0].split()
    if len(header) != 2:
        raise LengthMismatchError(f"expected 'n k' header, got {lines[0]!r}")
    n, k = int(header[0]), int(header[1])
    if len(lines) - 1 != k:
        raise LengthMismatchError(f"header says k={k} but {len(lines) - 1} row lines follow")
    rows = []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 4:
            raise SpanMismatchError(f"expected 'bits lo hi kind', got {ln!r}")
        bits_s, lo_s, hi_s, kind_s = parts
        if len(bits_s) != n or set(bits_s) - {"0", "1"}:
            raise LengthMismatchError(f"bad bitstring {bits_s!r} for n={n}")
        kind = {"L": "linear", "C": "circular"}.get(kind_s.upper())
        if kind is None:
            raise SpanMismatchError(f"kind must be L or C, got {kind_s!r}")
        rows.append(
            GeneratorRow(
                bits=tuple(int(ch) for ch in bits_s),
                span=Span(lo=int(lo_s), hi=int(hi_s), kind=kind),
            )
        )
    return validate_generator(GeneratorSpec(n=n, k=k, rows=tuple(rows)))


def format_generator_file(spec: GeneratorSpec) -> str:
    lines = [f"{spec.n} {spec.k}"]
    for row in spec.rows:
        kind = "L" if row.span.kind == "linear" else "C"
        bits = "".join(str(b) for b in row.bits)
        lines.append(f"{bits} {row.span.lo} {row.span.hi} {kind}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Octal tap shorthand

def taps_from_octal(octal: str | int) -> tuple[int, ...]:
    """Expand octal digits to bits (MSB first) and drop trailing zeros.

    "72" -> 111010 -> (1, 1, 1, 0, 1); the resulting length fixes memory+1.
    """
    digits = str(octal)
    if set(digits) - set("01234567"):
        raise CatalogError(f"not an octal string: {octal!r}")
    bits = "".join(format(int(d, 8), "03b") for d in digits)
    bits = bits.rstrip("0")
    if not bits:
        raise ZeroRowError("octal taps expand to the zero polynomial")
    return tuple(int(b) for b in bits)
