"""BPSK over AWGN with counter-based, replayable noise streams.

Bit 0 maps to +1.0 and bit 1 to -1.0.  Noise for a frame is generated by a
Philox counter-based generator keyed with (seed, stream id) and a Box-Muller
transform, so any frame can be regenerated in isolation: results do not
depend on how many frames were drawn before it or on worker scheduling.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    """Squared-Euclidean edge weights for one received frame or a batch of frames.

    One float64 array per section, aligned with that section's edge order:
    (E_p,) for one frame, (F, E_p) for a batch of F frames.  ``table``, when
    given, holds every section's weights side by side, (E,) or (F, E), with
    ``sections`` as its views; tracebacks gather path weights from it.
    """

    def __init__(self, sections: list[np.ndarray], table: np.ndarray | None = None):
        self.sections = sections
        self.table = table

    @property
    def total_edges(self) -> int:
        return sum(w.shape[-1] for w in self.sections)

    def frame(self, f: int) -> "WeightAssignment":
        """Frame f of a batch as a single-frame assignment (views, no copies)."""
        table = None if self.table is None else self.table[f]
        return WeightAssignment([w[f] for w in self.sections], table)

    def take(self, rows) -> "WeightAssignment":
        """Frames ``rows`` of a batch as a batch of their own (copies)."""
        if self.table is None:
            return WeightAssignment([w[rows] for w in self.sections])
        table = self.table[rows]
        bounds = np.cumsum([0] + [w.shape[-1] for w in self.sections])
        return WeightAssignment([table[..., a:b] for a, b in zip(bounds[:-1], bounds[1:])], table)


def bpsk_modulate(bits) -> np.ndarray:
    arr = np.asarray(bits, dtype=np.float64)
    return 1.0 - 2.0 * arr


def _generator(seed: int, stream: int) -> np.random.Generator:
    key = np.array([seed & 0xFFFFFFFFFFFFFFFF, stream & 0xFFFFFFFFFFFFFFFF], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def gaussian_samples(seed: int, stream: int, count: int) -> np.ndarray:
    """Standard normals via Box-Muller over the keyed Philox stream."""
    gen = _generator(seed, stream)
    pairs = (count + 1) // 2
    u = gen.random((2, pairs))
    radius = np.sqrt(-2.0 * np.log1p(-u[0]))  # 1-u to keep the log argument in (0, 1]
    angle = 2.0 * np.pi * u[1]
    z = np.concatenate([radius * np.cos(angle), radius * np.sin(angle)])
    return z[:count]


def random_bits(seed: int, stream: int, count: int) -> np.ndarray:
    """Replayable uniform message bits from the same keyed-stream family."""
    gen = _generator(seed, stream)
    return gen.integers(0, 2, size=count, dtype=np.uint8)


def awgn_transmit(signal: np.ndarray, params: ChannelParams, stream: int) -> ReceivedVector:
    noise = gaussian_samples(params.seed, stream, len(signal))
    return ReceivedVector(r=signal + np.sqrt(params.sigma2) * noise)


def edge_weights(trellis, received: ReceivedVector) -> WeightAssignment:
    """Per-edge weights: sum over the edge's bits of (r_l - s(bit))^2.

    ``received.r`` is one frame, (n,), or a batch of F frames, (F, n), which
    gives (F, E_p) weights per section.  A per-section lookup table over the
    2^width possible labels is built once per frame, and one gather over
    ``trellis.label_index`` reads every edge's weight from it.
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
    flat = table.reshape(*table.shape[:-2], -1)[..., trellis.label_index]
    bounds = trellis.edge_offsets
    return WeightAssignment(
        [flat[..., a:b] for a, b in zip(bounds[:-1], bounds[1:])], table=flat
    )
