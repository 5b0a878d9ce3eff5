"""BPSK over AWGN with counter-based, replayable noise streams.

Bit 0 maps to +1.0 and bit 1 to -1.0.  Every random draw comes from a
Philox4x64-10 counter-based generator keyed with (seed, stream id), so any
frame can be regenerated in isolation: results do not depend on how many
frames were drawn before it or on worker scheduling.  The generator is
computed here for a whole array of stream ids at once (``_philox``), without
``numpy.random``, and each stream's draws are the values of numpy's
``Philox(key=[seed, stream])``:
message bits are those of ``Generator.integers(0, 2, uint8)`` and noise is a
Box-Muller transform of ``Generator.random``.  ``random_bits``,
``gaussian_samples`` and ``awgn_transmit`` take one stream id and give one
stream's (count,) array, or an array of S ids and give (S, count), row s
bit for bit the call on stream s alone.

``edge_weights`` turns received samples into a ``WeightAssignment``: the
per-label table of every section, one float64 weight per possible label,
and ``trellis.label_index`` naming each edge's entry in it.  The decoders
gather a section's edge weights from it as they sweep that section, so a
batch of frames never holds an (F, E) per-edge array.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import LengthMismatchError, ToolkitError

__all__ = [
    "ChannelParams",
    "ReceivedVector",
    "WeightAssignment",
    "bpsk_modulate",
    "gaussian_samples",
    "random_bits",
    "awgn_transmit",
    "edge_weights",
]


@dataclass(frozen=True)
class ChannelParams:
    """AWGN operating point for a code of the given rate."""

    ebn0_db: float
    rate: float
    seed: int

    @property
    def sigma2(self) -> float:
        """Noise variance per real dimension: 1 / (2 * rate * 10^(EbN0/10))."""
        return 1.0 / (2.0 * self.rate * 10.0 ** (self.ebn0_db / 10.0))


@dataclass
class ReceivedVector:
    """Channel output with the derived views decoders and diagnostics need."""

    r: np.ndarray  # float64 (n,), or (F, n) for a batch of frames

    @property
    def magnitudes(self) -> np.ndarray:
        return np.abs(self.r)

    @property
    def hard_bits(self) -> np.ndarray:
        return (self.r < 0).astype(np.uint8)


class WeightAssignment:
    """Squared-Euclidean edge weights for one received frame or a batch of frames, as a gather.

    ``values`` holds float64 weights along its last axis, (K,) for one frame
    and (F, K) for a batch of F frames, and ``index`` holds one int array per
    section: section p's weights, aligned with its edge order, are
    ``values[..., index[p]]``.  ``edge_weights`` keeps the per-label table,
    K = n_sections * 2**label_width, with ``trellis.label_index`` as the
    index, so no (F, E) per-edge array is built; every sweep gathers a
    section's weights when it reaches that section.  ``sections``, given
    instead of ``values`` and ``index``, are one array per section,
    concatenated into ``values`` under an identity index.  ``sections`` as an
    attribute builds the per-edge arrays on first read, for oracles and
    tests; no sweep or audit reads it.
    """

    def __init__(
        self,
        sections: list[np.ndarray] | None = None,
        *,
        values: np.ndarray | None = None,
        index: list[np.ndarray] | None = None,
    ):
        if sections is not None:
            values = np.concatenate(sections, axis=-1)
            bounds = np.cumsum([0] + [np.shape(w)[-1] for w in sections])
            index = [np.arange(a, b) for a, b in zip(bounds[:-1], bounds[1:])]
        self.values = values
        self.index = index

    @cached_property
    def sections(self) -> list[np.ndarray]:
        """Each section's weights in its edge order: (E_p,), or (F, E_p) for a batch."""
        return [self.values[..., index] for index in self.index]

    @property
    def total_edges(self) -> int:
        return sum(len(index) for index in self.index)

    def frame(self, f: int) -> "WeightAssignment":
        """Frame f of a batch as a single-frame assignment (a view of its values)."""
        return WeightAssignment(values=self.values[f], index=self.index)

    def take(self, rows) -> "WeightAssignment":
        """Frames ``rows`` of a batch as a batch of their own (copies)."""
        return WeightAssignment(values=self.values[rows], index=self.index)

    @staticmethod
    def concat(parts: list["WeightAssignment"]) -> "WeightAssignment":
        """Assignments over one index, of one frame or a batch each, one after another as one batch (copies)."""
        values = np.concatenate([part.values.reshape(-1, part.values.shape[-1]) for part in parts])
        return WeightAssignment(values=values, index=parts[0].index)


def bpsk_modulate(bits) -> np.ndarray:
    arr = np.asarray(bits, dtype=np.float64)
    return 1.0 - 2.0 * arr


_MASK64 = (1 << 64) - 1
# Philox4x64's multipliers of counter words 0 and 2, and the Weyl increments of key words 0 and 1
_MULT0, _MULT1 = 0xD2E7470EE14C6C93, 0xCA5A826395121157
_WEYL0, _WEYL1 = 0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B
_ROUNDS = 10


def _stream_ids(stream) -> tuple[np.ndarray, bool]:
    """Stream ids as uint64 keys (two's complement, as 64-bit keys), and whether one id was given."""
    one = np.ndim(stream) == 0
    return np.array([int(s) & _MASK64 for s in ([stream] if one else stream)], dtype=np.uint64), one


def _philox(seed: int, streams: np.ndarray, count: int) -> np.ndarray:
    """The first ``count`` 64-bit draws of Philox4x64-10 keyed (seed, stream) per stream: (S, count) uint64.

    Block b of a stream encrypts the counter (b + 1, 0, 0, 0) and gives four
    draws, as numpy's ``Philox`` does from a zero counter.  Every (stream,
    block) pair has a 128-bit lane in each of four Python integers, one per
    counter word, so each operation of a round acts on all lanes at once: a
    lane's 64 x 64-bit product fills it without carrying into the next, and
    one integer multiply forms them all.  Words 1 and 3 keep the whole
    product, and words 0 and 2, the ones multiplied, are masked to 64 bits.
    On one or a few streams this costs a fifth of the same rounds on numpy
    arrays, whose per-call overhead would dominate them.  The lanes are
    filled and read through explicitly little-endian bytes.
    """
    blocks = -(-count // 4)
    n = len(streams) * blocks
    lanes = np.zeros((2, n, 2), dtype="<u8")  # (counter word 0, key word 1) per lane, high halves 0
    lanes[0, :, 0] = np.tile(np.arange(1, blocks + 1, dtype=np.uint64), len(streams))
    lanes[1, :, 0] = np.repeat(streams, blocks)
    both = int.from_bytes(lanes.tobytes(), "little")
    width = 128 * n
    ones = ((1 << width) - 1) // ((1 << 128) - 1)  # 1 in every lane
    low = ones * _MASK64
    w0, k1 = both & ((1 << width) - 1), both >> width
    w1 = w2 = w3 = 0
    k0, bump0, bump1 = (seed & _MASK64) * ones, _WEYL0 * ones, _WEYL1 * ones
    for r in range(_ROUNDS):
        if r:  # a key's carries out of 64 bits stay in its lanes' high halves, which the masks drop
            k0, k1 = k0 + bump0, k1 + bump1
        p0, p1 = w0 * _MULT0, w2 * _MULT1
        w0, w1, w2, w3 = ((p1 >> 64) ^ w1 ^ k0) & low, p1, ((p0 >> 64) ^ w3 ^ k1) & low, p0
    packed = w0 | (w1 << width) | (w2 << 2 * width) | (w3 << 3 * width)
    words = np.frombuffer(packed.to_bytes(64 * n, "little"), dtype="<u8")[0::2].astype(np.uint64)
    return words.reshape(4, n).T.reshape(len(streams), 4 * blocks)[:, :count]


def gaussian_samples(seed: int, stream, count: int) -> np.ndarray:
    """Standard normals via Box-Muller over the keyed Philox stream, or over each of an array of streams."""
    streams, one = _stream_ids(stream)
    pairs = (count + 1) // 2
    # Generator.random: the top 53 bits of a draw, scaled into [0, 1)
    u = (_philox(seed, streams, 2 * pairs) >> np.uint64(11)) * (1.0 / 9007199254740992.0)
    u = u.reshape(len(streams), 2, pairs)
    radius = np.sqrt(-2.0 * np.log1p(-u[:, 0]))  # 1-u to keep the log argument in (0, 1]
    angle = 2.0 * np.pi * u[:, 1]
    z = np.concatenate([radius * np.cos(angle), radius * np.sin(angle)], axis=1)[:, :count]
    return z[0] if one else z


def random_bits(seed: int, stream, count: int) -> np.ndarray:
    """Replayable uniform message bits from the same keyed-stream family, one stream or an array of them.

    ``Generator.integers(0, 2, uint8)`` takes each bit as the top bit of the
    next byte of its 32-bit draws, low byte first, and a 32-bit draw is the
    low half of a 64-bit one and then its high half: bit 8j + 7 of the
    draws, in order, with no rejection for this range.
    """
    streams, one = _stream_ids(stream)
    draws = _philox(seed, streams, (count + 7) // 8)
    tops = np.arange(7, 64, 8, dtype=np.uint64)
    bits = ((draws[..., None] >> tops) & np.uint64(1)).astype(np.uint8).reshape(len(streams), -1)[:, :count]
    return bits[0] if one else bits


def awgn_transmit(signal: np.ndarray, params: ChannelParams, stream) -> ReceivedVector:
    """Add noise to one (n,) signal from one stream, or to an (S, n) batch from S streams."""
    noise = gaussian_samples(params.seed, stream, np.shape(signal)[-1])
    return ReceivedVector(r=signal + np.sqrt(params.sigma2) * noise)


def edge_weights(trellis, received: ReceivedVector) -> WeightAssignment:
    """Edge weights as a per-label table: sum over the label's bits of (r_l - s(bit))^2.

    ``received.r`` is one frame, (n,), or a batch of F frames, (F, n).  The
    table holds every section's weight of each of the 2^width possible
    labels, (n_sections * 2^width,) per frame, and ``trellis.label_index``
    names each edge's entry in it.
    """
    width = trellis.label_width
    n_bits = trellis.n_sections * width
    r = received.r
    if r.ndim not in (1, 2) or r.shape[-1] != n_bits:
        raise LengthMismatchError(
            f"received vector has {r.shape[-1]} samples, trellis needs {n_bits}"
        )
    if not np.isfinite(r).all():
        raise ToolkitError("received vector has NaN or infinite samples")
    r = r.reshape(*r.shape[:-1], trellis.n_sections, width)
    # table[..., p, v] = weight of label value v in section p+1
    signs = 1.0 - 2.0 * (
        (np.arange(1 << width)[:, None] >> np.arange(width - 1, -1, -1)[None, :]) & 1
    )
    table = ((r[..., None, :] - signs) ** 2).sum(axis=-1)
    return WeightAssignment(values=table.reshape(*r.shape[:-2], trellis.n_sections << width), index=trellis.label_index)
