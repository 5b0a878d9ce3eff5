"""Channel model and edge-weight tests."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

import tbtdec as tb
from tbtdec import channel

from conftest import enumerate_paths, path_weight, random_received, transmit_codeword


def test_bpsk_mapping():
    sig = tb.bpsk_modulate(np.array([0, 1, 0, 1], dtype=np.uint8))
    assert np.array_equal(sig, np.array([1.0, -1.0, 1.0, -1.0]))


def test_sigma2_frozen_value():
    params = tb.ChannelParams(ebn0_db=2.0, rate=0.5, seed=0)
    assert params.sigma2 == pytest.approx(0.6309573444801932, rel=1e-12)


def test_sigma2_decreases_with_snr():
    s = [tb.ChannelParams(ebn0_db=d, rate=0.5, seed=0).sigma2 for d in (0.0, 2.0, 4.0)]
    assert s[0] > s[1] > s[2]


def test_received_vector_hard_decisions():
    rec = tb.ReceivedVector(r=np.array([0.7, -0.1, 0.0, -2.0]))
    assert list(rec.hard_bits) == [0, 1, 0, 1]
    assert np.allclose(rec.magnitudes, [0.7, 0.1, 0.0, 2.0])


def test_awgn_transmit_deterministic():
    params = tb.ChannelParams(ebn0_db=1.0, rate=0.5, seed=7)
    sig = tb.bpsk_modulate(np.zeros(16, dtype=np.uint8))
    a = tb.awgn_transmit(sig, params, stream=3)
    b = tb.awgn_transmit(sig, params, stream=3)
    c = tb.awgn_transmit(sig, params, stream=4)
    assert np.array_equal(a.r, b.r)
    assert not np.array_equal(a.r, c.r)


def test_awgn_noise_statistics():
    params = tb.ChannelParams(ebn0_db=2.0, rate=0.5, seed=11)
    sig = tb.bpsk_modulate(np.zeros(1_000_000, dtype=np.uint8))
    rec = tb.awgn_transmit(sig, params, stream=0)
    noise = rec.r - sig
    assert abs(float(noise.mean())) < 0.01
    assert float(noise.var()) == pytest.approx(params.sigma2, rel=0.02)


def test_gaussian_samples_stream_independence():
    a = tb.gaussian_samples(seed=5, stream=0, count=64)
    b = tb.gaussian_samples(seed=5, stream=1, count=64)
    assert not np.array_equal(a, b)
    assert np.array_equal(a, tb.gaussian_samples(seed=5, stream=0, count=64))


def test_random_bits_balanced():
    bits = tb.random_bits(seed=9, stream=2, count=100_000)
    assert set(np.unique(bits)) <= {0, 1}
    assert abs(float(bits.mean()) - 0.5) < 0.01


# ---------------------------------------------------------------------------
# Keyed streams against numpy's own Philox and Generator

_SEEDS = (0, 7, 2**63 + 5, 2**64 - 1)
_STREAMS = (0, 1, 2**33 + 7, 2**63, 2**64 - 2, 2**64 - 1)
# 0, 1, odd counts, and counts that are no multiple of 4, 8 or 32
_COUNTS = (0, 1, 2, 3, 5, 6, 9, 12, 31, 33, 48, 97)


def _numpy_generator(seed, stream):
    return np.random.Generator(np.random.Philox(key=np.array([seed, stream], dtype=np.uint64)))


def _numpy_gaussian(seed, stream, count):
    """Box-Muller over ``Generator.random((2, pairs))``, the noise stream as numpy's Generator draws it."""
    pairs = (count + 1) // 2
    u = _numpy_generator(seed, stream).random((2, pairs))
    radius = np.sqrt(-2.0 * np.log1p(-u[0]))
    angle = 2.0 * np.pi * u[1]
    return np.concatenate([radius * np.cos(angle), radius * np.sin(angle)])[:count]


@pytest.mark.parametrize("seed", _SEEDS)
def test_philox_draws_equal_numpy_philox(seed):
    streams = np.array(_STREAMS, dtype=np.uint64)
    for count in _COUNTS:
        draws = channel._philox(seed, streams, count)
        assert draws.shape == (len(_STREAMS), count) and draws.dtype == np.uint64
        for stream, row in zip(_STREAMS, draws):
            bit_generator = np.random.Philox(key=np.array([seed, stream], dtype=np.uint64))
            assert np.array_equal(row, bit_generator.random_raw(count))


@pytest.mark.parametrize("seed", _SEEDS)
def test_random_bits_equal_generator_integers(seed):
    for count in _COUNTS:
        batch = tb.random_bits(seed, np.array(_STREAMS, dtype=np.uint64), count)
        assert batch.shape == (len(_STREAMS), count) and batch.dtype == np.uint8
        for stream, row in zip(_STREAMS, batch):
            want = _numpy_generator(seed, stream).integers(0, 2, size=count, dtype=np.uint8)
            one = tb.random_bits(seed, stream, count)
            assert one.shape == (count,) and one.dtype == np.uint8
            assert np.array_equal(one, want) and np.array_equal(row, want)


@pytest.mark.parametrize("seed", _SEEDS)
def test_gaussian_samples_equal_box_muller_over_generator_random(seed):
    for count in _COUNTS:
        batch = tb.gaussian_samples(seed, list(_STREAMS), count)
        assert batch.shape == (len(_STREAMS), count) and batch.dtype == np.float64
        for stream, row in zip(_STREAMS, batch):
            want = _numpy_gaussian(seed, stream, count)
            one = tb.gaussian_samples(seed, stream, count)
            assert one.shape == (count,)
            # bit for bit, not merely close
            assert one.tobytes() == want.tobytes() and row.tobytes() == want.tobytes()


def test_awgn_transmit_batch_rows_equal_one_stream_calls():
    params = tb.ChannelParams(ebn0_db=1.5, rate=0.5, seed=2**63 + 11)
    bits = tb.random_bits(3, np.arange(5), 37)
    batch = tb.awgn_transmit(tb.bpsk_modulate(bits), params, np.array(_STREAMS[:5], dtype=np.uint64))
    assert batch.r.shape == (5, 37)
    for stream, row, frame_bits in zip(_STREAMS, batch.r, bits):
        alone = tb.awgn_transmit(tb.bpsk_modulate(frame_bits), params, stream)
        assert row.tobytes() == alone.r.tobytes()


def test_negative_stream_ids_wrap_to_64_bits():
    # keys are 64-bit words, so -1 names the same stream as 2**64 - 1
    assert np.array_equal(tb.random_bits(5, -1, 40), tb.random_bits(5, 2**64 - 1, 40))
    assert np.array_equal(tb.gaussian_samples(-3, 4, 9), tb.gaussian_samples(2**64 - 3, 4, 9))


# ---------------------------------------------------------------------------
# Edge weights

def test_edge_weight_frozen_single_bit():
    # per-bit squared distance: a matched bit at r=+/-1 costs 0, a flipped
    # one costs (1-(-1))^2 = 4
    trellis = tb.elementary_trellis(
        tb.GeneratorRow(bits=(1, 0), span=tb.Span(1, 1, "linear")), 2
    )
    rec = tb.ReceivedVector(r=np.array([1.0, 1.0]))
    weights = tb.edge_weights(trellis, rec)
    sec = trellis.sections[0]
    one_edge = int(np.flatnonzero(sec.labels == 1)[0])
    zero_edge = int(np.flatnonzero(sec.labels == 0)[0])
    assert weights.sections[0][one_edge] == 4.0
    assert weights.sections[0][zero_edge] == 0.0


def test_edge_weight_matched_negative_sample():
    trellis = tb.elementary_trellis(
        tb.GeneratorRow(bits=(1, 0), span=tb.Span(1, 1, "linear")), 2
    )
    rec = tb.ReceivedVector(r=np.array([-1.0, 0.0]))
    weights = tb.edge_weights(trellis, rec)
    sec = trellis.sections[0]
    one_edge = int(np.flatnonzero(sec.labels == 1)[0])
    zero_edge = int(np.flatnonzero(sec.labels == 0)[0])
    assert weights.sections[0][one_edge] == 0.0
    assert weights.sections[0][zero_edge] == 4.0


def test_euclidean_weight_is_full_squared_distance(block6):
    ridx = tb.build_reach_index(tb.build_tbt_product(block6))
    rec = random_received(ridx, seed=3, frame=0)
    for c in tb.enumerate_codewords(block6):
        d = float(np.sum((rec.r - tb.bpsk_modulate(c)) ** 2))
        assert tb.euclidean_weight(rec, c) == pytest.approx(d, rel=1e-12)


@given(st.integers(min_value=0, max_value=10_000))
def test_weight_ranking_matches_distance_ranking(ridx_block6, frame):
    spec = tb.get_code("toy-block-n6-k3-c2").spec()
    rec = random_received(ridx_block6, seed=21, frame=frame)
    codewords = list(tb.enumerate_codewords(spec))
    dists = [float(np.sum((rec.r - tb.bpsk_modulate(c)) ** 2)) for c in codewords]
    weights = [tb.euclidean_weight(rec, c) for c in codewords]
    assert int(np.argmin(dists)) == int(np.argmin(weights))


def test_edge_weights_sum_to_path_weight(conv_m2, ridx_conv_m2):
    rec = random_received(ridx_conv_m2, seed=17, frame=5)
    weights = tb.edge_weights(ridx_conv_m2.trellis, rec)
    checked = 0
    for i, j, edges, label in enumerate_paths(ridx_conv_m2.trellis, limit=100_000):
        if i != j:
            continue
        total = path_weight(weights, edges)
        assert total == pytest.approx(
            tb.euclidean_weight(rec, np.array(label, dtype=np.uint8)), abs=1e-9
        )
        checked += 1
        if checked >= 64:
            break
    assert checked == 64


def test_edge_weights_length_mismatch(ridx_block4):
    rec = tb.ReceivedVector(r=np.zeros(7))
    with pytest.raises(tb.LengthMismatchError):
        tb.edge_weights(ridx_block4.trellis, rec)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_edge_weights_reject_non_finite_samples(bad):
    # a NaN sample used to reach phase 1 and fail there with an IndexError
    trellis = tb.build_context("mem4-circle20").ridx.trellis
    r = np.zeros(trellis.n_sections * trellis.label_width)
    r[5] = bad
    with pytest.raises(tb.ToolkitError, match="NaN or infinite"):
        tb.edge_weights(trellis, tb.ReceivedVector(r=r))


def test_transmit_codeword_helper(block4, ridx_block4):
    c = tb.encode_block(block4, np.array([1, 0], dtype=np.uint8))
    rec = transmit_codeword(ridx_block4, c, ebn0_db=60.0, rate=0.5, seed=1, stream=0)
    assert list(rec.hard_bits) == list(c)
