"""Trellis construction and reachability-index tests."""

import os

import numpy as np
import pytest

import tbtdec as tb
from tbtdec.codes import bits_to_int, int_to_bits
from tbtdec.trellis import label_bits

from conftest import enumerate_paths


def _row(bits, lo, hi, kind):
    return tb.GeneratorRow(bits=tuple(bits), span=tb.Span(lo, hi, kind))


# ---------------------------------------------------------------------------
# Elementary trellises

def test_elementary_linear_vertex_profile():
    t = tb.elementary_trellis(_row((0, 1, 1, 0), 2, 3, "linear"), 4)
    assert list(t.v_counts) == [1, 1, 2, 1, 1]
    assert len(t.starts) == 1


def test_elementary_circular_vertex_profile():
    t = tb.elementary_trellis(_row((1, 0, 0, 1), 4, 1, "circular"), 4)
    assert list(t.v_counts) == [2, 1, 1, 1, 2]
    assert len(t.starts) == 2


def test_elementary_path_labels_are_zero_and_row():
    t = tb.elementary_trellis(_row((1, 0, 0, 1), 4, 1, "circular"), 4)
    labels = {bits_to_int(lab) for _, _, _, lab in enumerate_paths(t)}
    # closed paths give {zero, row}; crossing paths give the head/tail pieces
    closed = set()
    for i, j, _, lab in enumerate_paths(t):
        if i == j:
            closed.add(bits_to_int(lab))
    assert closed == {0b0000, 0b1001}
    assert labels == {0b0000, 0b1001, 0b1000, 0b0001}


def test_elementary_span_endpoints_branch():
    t = tb.elementary_trellis(_row((0, 1, 1, 0), 2, 3, "linear"), 4)
    # the two paths separate right at the span ends and nowhere else
    assert [sec.num_edges for sec in t.sections] == [1, 2, 2, 1]


# ---------------------------------------------------------------------------
# Products

def test_product_vertex_counts_multiply():
    a = tb.elementary_trellis(_row((1, 1, 0, 0), 1, 2, "linear"), 4)
    b = tb.elementary_trellis(_row((1, 0, 0, 1), 4, 1, "circular"), 4)
    prod = tb.trellis_product(a, b)
    assert list(prod.v_counts) == [va * vb for va, vb in zip(a.v_counts, b.v_counts)]


def test_product_with_identity_keeps_labels():
    zero_row_trellis = tb.elementary_trellis(_row((1, 1, 0, 0), 1, 2, "linear"), 4)
    labels_before = sorted(bits_to_int(l) for _, _, _, l in enumerate_paths(zero_row_trellis))
    # the all-zero single-path trellis is the product identity
    identity = tb.Trellis.from_edge_lists(
        label_width=1,
        v_counts=[1] * 5,
        edge_lists=[[(0, 0, 0)]] * 4,
        starts=[0],
        finals=[0],
    )
    prod = tb.trellis_product(zero_row_trellis, identity)
    labels_after = sorted(bits_to_int(l) for _, _, _, l in enumerate_paths(prod))
    assert labels_before == labels_after


def test_product_labels_are_xor_sum_set():
    a = tb.elementary_trellis(_row((1, 1, 1, 0, 0, 0), 1, 3, "linear"), 6)
    b = tb.elementary_trellis(_row((1, 0, 0, 1, 0, 1), 4, 1, "circular"), 6)
    prod = tb.trellis_product(a, b)
    la = {bits_to_int(l) for _, _, _, l in enumerate_paths(a)}
    lb = {bits_to_int(l) for _, _, _, l in enumerate_paths(b)}
    lp = {bits_to_int(l) for _, _, _, l in enumerate_paths(prod)}
    assert lp == {x ^ y for x in la for y in lb}


def test_product_shape_mismatch():
    a = tb.elementary_trellis(_row((1, 1, 0, 0), 1, 2, "linear"), 4)
    b = tb.elementary_trellis(_row((1, 1, 0, 0, 0, 0), 1, 2, "linear"), 6)
    with pytest.raises(tb.ShapeMismatchError):
        tb.trellis_product(a, b)


def test_product_associative_in_counts(block6):
    rows = block6.rows
    ts = [tb.elementary_trellis(r, block6.n) for r in rows]
    left = tb.trellis_product(tb.trellis_product(ts[0], ts[1]), ts[2])
    right = tb.trellis_product(ts[0], tb.trellis_product(ts[1], ts[2]))
    assert list(left.v_counts) == list(right.v_counts)
    assert left.num_edges == right.num_edges


def test_build_tbt_product_start_count(block4, block6):
    assert len(tb.build_tbt_product(block4).starts) == 2  # one circular row
    assert len(tb.build_tbt_product(block6).starts) == 4  # two circular rows


def test_build_tbt_product_conventional_when_no_circular_rows():
    rows = (
        _row((1, 1, 0, 0), 1, 2, "linear"),
        _row((0, 0, 1, 1), 3, 4, "linear"),
    )
    spec = tb.validate_generator(tb.GeneratorSpec(n=4, k=2, rows=rows))
    t = tb.build_tbt_product(spec)
    assert len(t.starts) == 1


def test_subtrellis_labels_partition_code(block6):
    trellis = tb.build_tbt_product(block6)
    code = {int(bits_to_int(c)) for c in tb.enumerate_codewords(block6)}
    union = set()
    sub0 = tb.subtrellis_labels(trellis, 0)
    for i in range(len(trellis.starts)):
        labels = tb.subtrellis_labels(trellis, i)
        assert len(labels & union) == 0  # cosets are disjoint
        union |= labels
        shifted = {next(iter(labels)) ^ x for x in sub0}
        assert shifted == labels  # each subtrellis is a coset of subtrellis 0
    assert union == code


def test_semi_codeword_labels_match_basis_space(block4, block6, block8):
    for spec in (block4, block6, block8):
        trellis = tb.build_tbt_product(spec)
        assert tb.verify_semi_codeword_space(spec, trellis)


# ---------------------------------------------------------------------------
# Convolutional construction

def test_conv_tbt_structure(conv_m2):
    t = tb.build_tbt_conv(conv_m2)
    assert list(t.v_counts) == [4] * 9
    assert t.n_sections == 8
    assert t.label_width == 2
    assert len(t.starts) == 4
    assert list(t.starts) == list(t.finals)


def test_conv_tbt_production_scale_structure():
    spec = tb.get_code("mem4-circle20").spec()
    t = tb.build_tbt_conv(spec)
    assert list(t.v_counts) == [16] * 21
    assert len(t.starts) == 16


def test_conv_tbt_labels_match_encoder(conv_m1):
    trellis = tb.build_tbt_conv(conv_m1)
    encoded = {
        bits_to_int(tb.encode_conv_tailbiting(conv_m1, int_to_bits(m, 4))) for m in range(16)
    }
    closed = set()
    for i in range(len(trellis.starts)):
        closed |= tb.subtrellis_labels(trellis, i)
    assert closed == encoded


def test_conv_tbt_size_guard():
    spec = tb.ConvCodeSpec(memory=6, taps0=tb.taps_from_octal("554"),
                           taps1=tb.taps_from_octal("744"), circle=48)
    with pytest.raises(tb.TooLargeError):
        tb.build_tbt_conv(spec, max_size=100)


# ---------------------------------------------------------------------------
# Reach index

def test_reach_index_start_final_masks(ridx_conv_m2):
    ridx = ridx_conv_m2
    trellis = ridx.trellis
    for i, s in enumerate(trellis.starts):
        assert ridx.fwd[0][s] == 1 << i
    for j, f in enumerate(trellis.finals):
        assert ridx.bwd[trellis.n_sections][f] == 1 << j


def test_member_agrees_with_path_enumeration(ridx_block6):
    ridx = ridx_block6
    trellis = ridx.trellis
    t = len(trellis.starts)
    on_path = {
        (p, e, i)
        for i, j, edges, _ in enumerate_paths(trellis)
        if i == j
        for p, e in enumerate(edges)
    }
    for p, sec in enumerate(trellis.sections):
        for e in range(sec.num_edges):
            for i in range(t):
                assert ridx.member(p, e, i) == ((p, e, i) in on_path)


def test_membership_table_gather_matches_scalar(ridx_block6):
    ridx = ridx_block6
    for p, sec in enumerate(ridx.trellis.sections):
        ids = np.arange(sec.num_edges) % ridx.t
        vec = ridx.membership[p][np.arange(sec.num_edges), ids]
        scalar = [ridx.member(p, e, int(ids[e])) for e in range(sec.num_edges)]
        assert list(vec) == scalar


def test_pruning_keeps_only_path_vertices():
    # a dangling vertex with no continuation must be dropped
    trellis = tb.Trellis.from_edge_lists(
        label_width=1,
        v_counts=[1, 2, 1],
        edge_lists=[[(0, 0, 0), (0, 1, 1)], [(0, 0, 0)]],
        starts=[0],
        finals=[0],
    )
    ridx = tb.build_reach_index(trellis)
    assert list(ridx.trellis.v_counts) == [1, 1, 1]
    assert ridx.trellis.num_edges == 2


def test_in_edge_rows_pad_with_their_first_edge(ridx_conv_m2):
    # in-degrees 3, 1 and 2: each row lists its in-edges in edge order, then
    # repeats its first edge, which in_real marks as padding
    trellis = tb.Trellis.from_edge_lists(
        1, [3, 3], [[(0, 0, 0), (1, 0, 1), (2, 0, 0), (1, 1, 1), (0, 2, 0), (2, 2, 1)]], [0, 1, 2], [0, 1, 2]
    )
    ridx = tb.build_reach_index(trellis)
    assert ridx.in_edges[0].tolist() == [[0, 1, 2], [3, 3, 3], [4, 5, 4]]
    assert ridx.in_real[0].tolist() == [[True, True, True], [True, False, False], [True, True, False]]
    # equal in-degree: no padding, and row v holds edges v*g .. v*g + g - 1
    for in_edges, real in zip(ridx_conv_m2.in_edges, ridx_conv_m2.in_real):
        assert real is None
        assert np.array_equal(in_edges, np.arange(in_edges.size).reshape(-1, 2))


def test_every_retained_edge_has_a_member(ridx_block4, ridx_block6, ridx_conv_m2):
    for ridx in (ridx_block4, ridx_block6, ridx_conv_m2):
        for p, sec in enumerate(ridx.trellis.sections):
            assert ridx.membership[p].any(axis=1).all()


def test_membership_beyond_64_subtrellises():
    # a memory-7 code has 128 subtrellises, so its reachability masks take two
    # 64-bit words: membership must follow each subtrellis's reachability,
    # recomputed here one start at a time, in both words
    taps0, taps1 = (1, 0, 1, 0, 0, 1, 1, 1), (1, 1, 1, 1, 1, 0, 0, 1)  # octal 247 and 371
    spec = tb.validate_conv(tb.ConvCodeSpec(memory=7, taps0=taps0, taps1=taps1, circle=12))
    ridx = tb.build_reach_index(tb.build_tbt_conv(spec), max_t=128)
    trellis = ridx.trellis
    assert ridx.t == 128 and ridx.fwd[0].shape[1] == 2
    n = trellis.n_sections
    expected = [np.zeros((sec.num_edges, ridx.t), dtype=bool) for sec in trellis.sections]
    for i in range(ridx.t):
        fwd = [np.zeros(v, dtype=bool) for v in trellis.v_counts]
        bwd = [np.zeros(v, dtype=bool) for v in trellis.v_counts]
        fwd[0][trellis.starts[i]] = bwd[n][trellis.finals[i]] = True
        for p, sec in enumerate(trellis.sections):
            fwd[p + 1][sec.to[fwd[p][sec.frm]]] = True
        for p in range(n - 1, -1, -1):
            sec = trellis.sections[p]
            bwd[p][sec.frm[bwd[p + 1][sec.to]]] = True
        for p, sec in enumerate(trellis.sections):
            expected[p][:, i] = fwd[p][sec.frm] & bwd[p + 1][sec.to]
    for table, want in zip(ridx.membership, expected):
        assert table.dtype == bool and np.array_equal(table, want)
    assert np.array_equal(ridx.member_counts, sum(table.sum(axis=0) for table in expected))
    # exact ML is the first argmin of the all-pairs diagonal
    for frame in range(4):
        r = np.random.default_rng([7, frame]).normal(0.8, 1.0, trellis.n_sections * 2)
        weights = tb.edge_weights(trellis, tb.ReceivedVector(r=r))
        diag = np.diagonal(tb.all_pairs_start_final_distances(ridx, weights).d)
        out = tb.decode_exact_ml(ridx, weights)
        assert out.subtrellis == int(np.argmin(diag)) and out.weight == diag.min()


def test_reach_index_conventional_trellis():
    rows = (_row((1, 1, 0, 0), 1, 2, "linear"),)
    spec = tb.validate_generator(tb.GeneratorSpec(n=4, k=1, rows=rows))
    ridx = tb.build_reach_index(tb.build_tbt_product(spec))
    assert ridx.t == 1
    for p in range(ridx.trellis.n_sections + 1):
        assert np.all(ridx.fwd[p] == 1)
        assert np.all(ridx.bwd[p] == 1)


def test_reach_index_subtrellis_cap(monkeypatch):
    spec = tb.get_code("toy-conv-m2-l8").spec()
    trellis = tb.build_tbt_conv(spec)
    with pytest.raises(tb.TooLargeError):
        tb.build_reach_index(trellis, max_t=2)
    monkeypatch.setenv("TBT_MAX_T", "2")
    with pytest.raises(tb.TooLargeError):
        tb.build_reach_index(trellis)
    monkeypatch.setenv("TBT_MAX_T", "64")
    assert tb.build_reach_index(trellis).t == 4


def test_empty_trellis_rejected():
    trellis = tb.Trellis.from_edge_lists(
        label_width=1,
        v_counts=[2, 1, 2],
        edge_lists=[[(0, 0, 0)], [(0, 1, 1)]],
        starts=[0, 1],
        finals=[0, 1],
    )
    # start 0 only reaches final 1 and start 1 reaches nothing: boundary dies
    with pytest.raises(tb.EmptyTrellisError):
        tb.build_reach_index(trellis)


# ---------------------------------------------------------------------------
# Distance tables

def test_distance_table_matches_enumeration(ridx_block6):
    ridx = ridx_block6
    rec = tb.ReceivedVector(r=np.linspace(-1.2, 1.3, 6))
    weights = tb.edge_weights(ridx.trellis, rec)
    table = tb.all_pairs_start_final_distances(ridx, weights)
    t = ridx.t
    best = np.full((t, t), np.inf)
    for i, j, edges, _ in enumerate_paths(ridx.trellis):
        w = sum(float(weights.sections[p][e]) for p, e in enumerate(edges))
        best[i, j] = min(best[i, j], w)
    assert np.allclose(table.d, best, rtol=1e-12, atol=1e-12)


def test_distance_table_unit_weights_conv(ridx_conv_m1):
    ridx = ridx_conv_m1
    weights = tb.WeightAssignment(
        sections=[np.ones(sec.num_edges) for sec in ridx.trellis.sections]
    )
    table = tb.all_pairs_start_final_distances(ridx, weights)
    # every tail-biting path has exactly one unit-weight edge per section
    assert np.all(table.d == ridx.trellis.n_sections)


def test_single_start_table_is_viterbi():
    rows = (_row((1, 1, 0, 0), 1, 2, "linear"),)
    spec = tb.validate_generator(tb.GeneratorSpec(n=4, k=1, rows=rows))
    ridx = tb.build_reach_index(tb.build_tbt_product(spec))
    rec = tb.ReceivedVector(r=np.array([0.3, -0.4, 1.0, 0.9]))
    weights = tb.edge_weights(ridx.trellis, rec)
    table = tb.all_pairs_start_final_distances(ridx, weights)
    sub = tb.viterbi_subtrellis(ridx, weights, 0)
    assert table.d.shape == (1, 1)
    assert np.isclose(table.d[0, 0], sub.weight, rtol=1e-12)


# ---------------------------------------------------------------------------
# JSON dump

def test_json_dump_structure(ridx_block4):
    import json

    doc = json.loads(ridx_block4.trellis.dump_json())
    assert doc["label_width"] == 1
    assert doc["v_counts"][0] == len(doc["starts"])
    assert len(doc["sections"]) == 4
    frm, to, label = doc["sections"][0][0]
    assert isinstance(frm, int) and isinstance(to, int)
    assert set(label) <= {"0", "1"}


def test_canonical_edge_order(ridx_block6):
    for sec in ridx_block6.trellis.sections:
        order = np.lexsort((sec.labels, sec.frm, sec.to))
        assert np.array_equal(order, np.arange(sec.num_edges))
