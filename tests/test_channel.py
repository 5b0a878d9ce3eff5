"""Channel model and edge-weight tests."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

import tbtdec as tb

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
