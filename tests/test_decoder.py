"""Two-phase decoder tests: exactness, dominance, lists, fallback."""

import warnings
import weakref
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import Phase, assume, find, given, settings, strategies as st

import tbtdec as tb
from tbtdec.codes import bits_to_int, gf2_rank
from tbtdec import decoder, montecarlo
from tbtdec.decoder import _phase1_stops

from conftest import build_block, build_conv, enumerate_paths, random_received


def _weights_of(ridx, seed, frame):
    rec = random_received(ridx, seed=seed, frame=frame)
    return rec, tb.edge_weights(ridx.trellis, rec)


# ---------------------------------------------------------------------------
# Phase 1

def test_phase1_is_viterbi_when_single_start():
    rows = (
        tb.GeneratorRow(bits=(1, 1, 0, 0), span=tb.Span(1, 2, "linear")),
        tb.GeneratorRow(bits=(0, 1, 1, 0), span=tb.Span(2, 3, "linear")),
    )
    spec = tb.validate_generator(tb.GeneratorSpec(n=4, k=2, rows=rows))
    ridx = tb.build_reach_index(tb.build_tbt_product(spec))
    assert ridx.t == 1
    _, weights = _weights_of(ridx, seed=2, frame=0)
    p1 = tb.phase1(ridx, weights)
    sub = tb.viterbi_subtrellis(ridx, weights, 0)
    assert float(p1.delta_finals[0]) == sub.weight
    out = tb.decode_two_phase(ridx, weights)
    assert out.stage == "phase1"
    assert np.array_equal(out.codeword, sub.codeword)


@pytest.mark.parametrize("frame", range(25))
def test_phase1_cost_matches_per_start_sweeps(ridx_conv_m2, frame):
    ridx = ridx_conv_m2
    _, weights = _weights_of(ridx, seed=5, frame=frame)
    p1 = tb.phase1(ridx, weights)
    costs = tb.parallel_start_costs(ridx, weights)
    for p in range(ridx.trellis.n_sections + 1):
        joint = costs[p].min(axis=0)
        # bitwise equality: the multi-source sweep performs the same float
        # additions as the cheapest per-start sweep at every vertex
        assert np.array_equal(p1.cost[p], joint)


def test_phase1_unit_weights_count_sections(ridx_conv_m1):
    ridx = ridx_conv_m1
    weights = tb.WeightAssignment(
        sections=[np.ones(sec.num_edges) for sec in ridx.trellis.sections]
    )
    p1 = tb.phase1(ridx, weights)
    for p in range(ridx.trellis.n_sections + 1):
        finite = np.isfinite(p1.cost[p])
        assert np.all(p1.cost[p][finite] == p)


def test_phase1_survivor_is_reachable(ridx_block6):
    ridx = ridx_block6
    _, weights = _weights_of(ridx, seed=7, frame=1)
    p1 = tb.phase1(ridx, weights)
    for i, f in enumerate(ridx.trellis.finals):
        s = int(p1.surv_finals[i])
        assert ridx.fwd[-1][f] >> s & 1


def test_phase1_comparisons_equal_edge_count(ridx_block6, ridx_conv_m2):
    for ridx in (ridx_block6, ridx_conv_m2):
        _, weights = _weights_of(ridx, seed=11, frame=0)
        p1 = tb.phase1(ridx, weights)
        assert p1.comparisons == ridx.trellis.num_edges


def test_noiseless_frame_stops_in_phase1(conv_m2, ridx_conv_m2):
    msg = np.array([1, 0, 1, 1, 0, 0, 1, 0], dtype=np.uint8)
    c = tb.encode_conv_tailbiting(conv_m2, msg)
    rec = tb.ReceivedVector(r=tb.bpsk_modulate(c))
    weights = tb.edge_weights(ridx_conv_m2.trellis, rec)
    out = tb.decode_two_phase(ridx_conv_m2, weights)
    assert out.stage == "phase1"
    assert out.weight == 0.0
    assert np.array_equal(out.codeword, c)


def test_a_batch_that_all_stops_never_works_out_final_survivors(monkeypatch, conv_m2, ridx_conv_m2):
    # no sweep carries survivor starts, and the stop test traces each
    # frame's cheapest final alone, so a batch whose every frame stops never
    # reads surv_finals or closed_finals; a batch with an open frame works
    # them out for its pass, and so does a batch of one
    ridx = ridx_conv_m2
    reads = []
    for name in ("surv_finals", "closed_finals"):
        cached = vars(decoder.Phase1State).get(name)
        if cached is None:  # a field every sweep fills, not worked out on read
            continue
        monkeypatch.setattr(decoder.Phase1State, name, property(
            lambda self, name=name, cached=cached: reads.append(name) or cached.func(self)))
    messages = np.random.default_rng(5).integers(0, 2, (6, 8)).astype(np.uint8)
    codewords = [tb.encode_conv_tailbiting(conv_m2, m) for m in messages]
    weights = tb.edge_weights(ridx.trellis, tb.ReceivedVector(r=tb.bpsk_modulate(np.stack(codewords))))
    stops = _phase1_stops(ridx, tb.phase1(ridx, weights))
    decoded = list(tb.decode_frames(ridx, weights, ("two-phase-L1", "exact-ml")))
    assert all(s is not None and s.weight == 0.0 for s in stops)
    assert [d.outcomes["two-phase-L1"].stage for d in decoded] == ["phase1"] * 6
    for c, s, d in zip(codewords, stops, decoded):
        assert np.array_equal(s.codeword, c) and np.array_equal(d.outcomes["exact-ml"].codeword, c)
    assert reads == []
    noisy = next(w for w in (_weights_of(ridx, seed=23, frame=f)[1] for f in range(50))
                 if tb.phase1_decision(ridx, tb.phase1(ridx, w), w) is None)
    reads.clear()
    batch = tb.WeightAssignment(values=np.vstack([weights.values, noisy.values]), index=weights.index)
    list(tb.decode_frames(ridx, batch, ("two-phase-L1",)))
    assert "surv_finals" in reads and "closed_finals" in reads
    for one, settled in [(weights.frame(f), True) for f in range(6)] + [(noisy, False)]:
        reads.clear()
        out = tb.decode_frame(ridx, one, ("two-phase-L1", "exact-ml")).outcomes["two-phase-L1"]
        assert (out.stage == "phase1") is settled
        assert (reads == []) if settled else ({"surv_finals", "closed_finals"} <= set(reads))


def test_crossing_frame_defers_to_phase2(ridx_block4):
    _, weights = _weights_of(ridx_block4, seed=23, frame=0)
    p1 = tb.phase1(ridx_block4, weights)
    assert tb.phase1_decision(ridx_block4, p1, weights) is None
    out = tb.decode_two_phase(ridx_block4, weights)
    assert out.stage == "phase2"


# ---------------------------------------------------------------------------
# Phase 2

def test_phase2_seeds_participants_with_final_costs(ridx_block6):
    ridx = ridx_block6
    _, weights = _weights_of(ridx, seed=23, frame=0)
    p1 = tb.phase1(ridx, weights)
    p2 = tb.phase2(ridx, weights, p1)
    starts = ridx.trellis.starts
    for i in range(ridx.t):
        if p2.participants[i]:
            assert float(p2.metric[0][starts[i]]) == float(p1.delta_finals[i])
            assert float(p2.dist[0][starts[i]]) == 0.0
        else:
            assert not np.isfinite(p2.metric[0][starts[i]])


def test_phase2_prune_drops_expensive_crossed_finals(ridx_conv_m2):
    ridx = ridx_conv_m2
    for frame in range(40):
        _, weights = _weights_of(ridx, seed=31, frame=frame)
        p1 = tb.phase1(ridx, weights)
        own = p1.surv_finals == np.arange(ridx.t)
        if not own.any():
            continue
        pruned = tb.phase2(ridx, weights, p1, participation_prune=True).participants
        full = tb.phase2(ridx, weights, p1, participation_prune=False).participants
        threshold = p1.delta_finals[own].min()
        assert np.array_equal(pruned, full & (p1.delta_finals <= threshold))
        assert not pruned[own].any()


def test_phase2_metric_at_final_is_true_path_weight(ridx_block6):
    # at a participant's own final the correction telescopes away, up to
    # float rounding; the traced path weight must match to high precision
    ridx = ridx_block6
    checked = 0
    for frame in range(30):
        _, weights = _weights_of(ridx, seed=23, frame=frame)
        p1 = tb.phase1(ridx, weights)
        if tb.phase1_decision(ridx, p1, weights) is not None:
            continue
        p2 = tb.phase2(ridx, weights, p1)
        out = tb.final_decision(ridx, weights, p1, p2)
        if out.stage != "phase2":
            continue
        i = out.subtrellis
        assert float(p2.metric_finals[i]) == pytest.approx(out.weight, rel=1e-9)
        assert int(p2.trellis_finals[i]) == i
        checked += 1
    assert checked > 0


def test_disabling_prune_never_hurts(ridx_block6):
    ridx = ridx_block6
    for frame in range(60):
        _, weights = _weights_of(ridx, seed=37, frame=frame)
        a = tb.decode_two_phase(ridx, weights, participation_prune=True)
        b = tb.decode_two_phase(ridx, weights, participation_prune=False)
        assert b.weight <= a.weight + 1e-12
        assert b.comparisons >= a.comparisons


# ---------------------------------------------------------------------------
# Whole-decoder properties

@pytest.mark.parametrize("name", ["toy-block-n4-k2-c1", "toy-block-n6-k3-c2"])
def test_outcome_codeword_is_in_code(name):
    entry = tb.get_code(name)
    spec = entry.spec()
    ridx = tb.build_reach_index(tb.build_tbt_product(spec))
    code = {bits_to_int(c) for c in tb.enumerate_codewords(spec)}
    for frame in range(50):
        _, weights = _weights_of(ridx, seed=41, frame=frame)
        for out in (
            tb.decode_two_phase(ridx, weights),
            tb.decode_phase1_only(ridx, weights),
            tb.decode_exact_ml(ridx, weights),
        ):
            assert bits_to_int(out.codeword) in code


def test_two_phase_dominates_exact(ridx_block6, ridx_conv_m2):
    for ridx in (ridx_block6, ridx_conv_m2):
        for frame in range(60):
            _, weights = _weights_of(ridx, seed=43, frame=frame)
            exact = tb.decode_exact_ml(ridx, weights)
            out = tb.decode_two_phase(ridx, weights)
            only1 = tb.decode_phase1_only(ridx, weights)
            assert out.weight >= exact.weight - 1e-9
            assert only1.weight >= exact.weight - 1e-9
            if only1.stage == "phase1":
                # the final pool always contains every loop-closing final, so
                # the revised decision can only improve on the sweep-1 answer
                assert only1.weight >= out.weight - 1e-9


def test_exact_ml_matches_brute_force(block6, conv_m1, ridx_block6, ridx_conv_m1):
    for spec, ridx in ((block6, ridx_block6), (conv_m1, ridx_conv_m1)):
        table = tb.codeword_table(spec)
        for frame in range(80):
            rec, weights = _weights_of(ridx, seed=47, frame=frame)
            out = tb.decode_exact_ml(ridx, weights)
            ml = tb.brute_force_ml(spec, rec, table)
            assert np.array_equal(out.codeword, ml)
            assert out.weight == pytest.approx(tb.euclidean_weight(rec, ml), rel=1e-9)


def test_brute_force_all_tied_picks_lexicographic_least(block6):
    rec = tb.ReceivedVector(r=np.zeros(block6.n))
    ml = tb.brute_force_ml(block6, rec)
    assert not ml.any()


def test_exact_ml_counts_restricted_sweeps(ridx_block6):
    _, weights = _weights_of(ridx_block6, seed=53, frame=0)
    out = tb.decode_exact_ml(ridx_block6, weights)
    assert out.comparisons == int(ridx_block6.member_counts.sum())
    assert out.edge_visits == ridx_block6.t * ridx_block6.trellis.num_edges


def test_comparison_budget_two_sweeps(ridx_block6, ridx_conv_m2):
    for ridx in (ridx_block6, ridx_conv_m2):
        budget = 2 * ridx.trellis.num_edges
        for frame in range(60):
            _, weights = _weights_of(ridx, seed=59, frame=frame)
            out = tb.decode_two_phase(ridx, weights)
            assert out.comparisons <= budget


def test_viterbi_subtrellis_matches_enumeration(ridx_block6):
    ridx = ridx_block6
    _, weights = _weights_of(ridx, seed=61, frame=0)
    table = tb.all_pairs_start_final_distances(ridx, weights)
    for i in range(ridx.t):
        best = np.inf
        for a, b, edges, _ in enumerate_paths(ridx.trellis):
            if a == i and b == i:
                w = sum(float(weights.sections[p][e]) for p, e in enumerate(edges))
                best = min(best, w)
        sub = tb.viterbi_subtrellis(ridx, weights, i)
        assert sub.weight == pytest.approx(best, rel=1e-12)
        assert float(table.d[i, i]) == pytest.approx(best, rel=1e-12)


def test_exact_ml_traces_the_restricted_viterbi_path(ridx_block6, ridx_conv_m2):
    # exact ML sweeps its winner's row again to trace its codeword, with the
    # sweep ``viterbi_subtrellis`` runs too; both must find the path of the
    # scalar restricted sweep, which shares no code with them
    for ridx in (ridx_block6, ridx_conv_m2):
        for frame in range(40):
            _, weights = _weights_of(ridx, seed=71, frame=frame)
            out = tb.decode_exact_ml(ridx, weights)
            i = out.subtrellis
            sub = tb.viterbi_subtrellis(ridx, weights, i)
            assert np.array_equal(out.path, sub.path)
            assert np.array_equal(out.codeword, sub.codeword)
            assert out.weight == sub.weight
            final = ridx.trellis.finals[i]
            costs, preds, _ = _scalar_start_sweep(ridx, weights, i, restricted=True)
            path, edges = _scalar_walk(ridx, preds, final)
            assert out.path.tolist() == path
            assert np.array_equal(out.codeword, _codeword(ridx, edges))
            assert out.weight == costs[-1][final]


def _exact_rows(p1):
    """Subtrellises the bounds leave in the race: (delta, i) before the cheapest closed final."""
    t = len(p1.delta_finals)
    closed = [i for i in range(t) if p1.surv_finals[i] == i]
    best = min(((float(p1.delta_finals[i]), i) for i in closed), default=(np.inf, 0))
    return [i for i in range(t) if i not in closed and (float(p1.delta_finals[i]), i) < best]


def _recording_start_costs(monkeypatch, swept):
    """Patch ``_start_costs`` to record each joint sweep's (frame, subtrellis) rows in ``swept``."""
    start_costs = decoder._start_costs

    def recording(ridx, weights, rows, frames=None):
        at = np.zeros(len(rows), dtype=int) if frames is None else frames
        swept.append([(int(f), int(i)) for f, i in zip(at, rows)])
        return start_costs(ridx, weights, rows, frames)

    monkeypatch.setattr(decoder, "_start_costs", recording)


def test_exact_ml_sweeps_only_the_rows_its_bounds_leave(monkeypatch, ridx_block6, ridx_conv_m2):
    # a frame phase 1 settled runs no restricted sweep at all; on the open
    # frames of a batch of 1 or 7 exactly the subtrellises whose bound sorts
    # before their cheapest closed final are swept, all in one joint call
    # (rows are keyed by position among the open frames, which the sweep is given)
    swept = []
    _recording_start_costs(monkeypatch, swept)
    settled = open_frames = 0
    for ridx, batch in ((ridx, batch) for ridx in (ridx_block6, ridx_conv_m2) for batch in (1, 7)):
        for first in range(0, 63, batch):
            received = [random_received(ridx, seed=73, frame=f) for f in range(first, first + batch)]
            rows = np.stack([rec.r for rec in received]) if batch > 1 else received[0].r
            weights = tb.edge_weights(ridx.trellis, tb.ReceivedVector(r=rows))
            stops, expected = [], []
            for rec in received:
                alone = tb.edge_weights(ridx.trellis, rec)
                p1 = tb.phase1(ridx, alone)
                stops.append(tb.phase1_decision(ridx, p1, alone))
                if stops[-1] is None:
                    position = len(stops) - 1 - sum(stop is not None for stop in stops)
                    expected += [(position, i) for i in _exact_rows(p1)]
            open_frames += bool(expected)
            swept.clear()
            outs = [d.outcomes["exact-ml"] for d in tb.decode_frames(ridx, weights, ("exact-ml",))]
            assert swept == ([expected] if expected else [])
            for out, stop in zip(outs, stops):
                assert out.stage == "exact"
                if stop is not None:
                    settled += 1
                    assert out.subtrellis == stop.subtrellis and np.array_equal(out.path, stop.path)
                assert out.comparisons == int(ridx.member_counts.sum())
                assert out.edge_visits == ridx.t * ridx.trellis.num_edges
    assert settled and open_frames


def test_exact_ml_skips_rows_above_the_other_decoders_weights(
    monkeypatch, block6, conv_m2, ridx_block6, ridx_conv_m2
):
    # named with other decoders, exact ML decides last, whatever the order of
    # the names, and on each open frame sweeps only the rows its bounds leave
    # whose bound is at most the least weight the others decided; every
    # outcome still equals the one-frame exact decoder's, which sweeps without
    # that ceiling, and brute force's up to exact weight ties
    names = ("exact-ml", "two-phase-L1", "two-phase-L2", "phase1-only")
    dropped = 0
    for spec, ridx in ((block6, ridx_block6), (conv_m2, ridx_conv_m2)):
        table = tb.codeword_table(spec)
        for batch in (1, 7):
            for first in range(0, 63, batch):
                received = [random_received(ridx, seed=97, frame=f) for f in range(first, first + batch)]
                received = [tb.ReceivedVector(r=np.round(rec.r)) if (first + f) % 3 == 1 else rec
                            for f, rec in enumerate(received)]
                rows = np.stack([rec.r for rec in received]) if batch > 1 else received[0].r
                weights = tb.edge_weights(ridx.trellis, tb.ReceivedVector(r=rows))
                swept = []
                with monkeypatch.context() as patch:
                    _recording_start_costs(patch, swept)
                    decoded = list(tb.decode_frames(ridx, weights, names))
                assert [list(d.outcomes) for d in decoded] == [list(names)] * batch
                expected, position = [], 0
                for d in decoded:
                    if d.p2 is None:  # settled by phase 1: nothing to sweep
                        continue
                    p1 = d.p1
                    ceiling = min(d.outcomes[name].weight for name in names[1:])
                    race = _exact_rows(p1)
                    kept = [i for i in race if p1.delta_finals[i] <= ceiling]
                    expected += [(position, i) for i in kept]
                    dropped += len(race) - len(kept)
                    position += 1
                assert swept == ([expected] if expected else [])
                for rec, d in zip(received, decoded):
                    alone = tb.edge_weights(ridx.trellis, rec)
                    out = d.outcomes["exact-ml"]
                    _same_outcome(out, tb.decode_exact_ml(ridx, alone))
                    ml = tb.brute_force_ml(spec, rec, table)
                    if not np.array_equal(out.codeword, ml):  # only an exact weight tie may pick another
                        assert out.weight == pytest.approx(tb.euclidean_weight(rec, ml), rel=1e-12)
    assert dropped


@pytest.fixture(scope="module")
def mem6_open_pass():
    """Weights of 20 mem6-circle48 frames at 0 and 1 dB that phase 1 leaves open, as one batch."""
    ctx = montecarlo.build_context("mem6-circle48")
    points = np.repeat([0, 1], 20)
    sigma2 = np.array([tb.ChannelParams(ebn0_db=ebn0, rate=ctx.rate, seed=7).sigma2 for ebn0 in (0.0, 1.0)])
    _, _, received = montecarlo._make_frames(ctx, 7, sigma2[points], points, [*range(20)] * 2, False)
    weights = tb.edge_weights(ctx.ridx.trellis, received)
    stops = _phase1_stops(ctx.ridx, tb.phase1(ctx.ridx, weights))
    open_rows = [f for f, stop in enumerate(stops) if stop is None][:20]
    assert len(open_rows) == 20
    return ctx.ridx, weights.take(open_rows)


def test_exact_ml_races_a_whole_pass_in_one_call(monkeypatch, mem6_open_pass):
    # exact ML alone decides a pass of 20 open low-SNR frames with one start
    # sweep of all its race rows, over 41 of them, and each outcome equals its
    # frame's one-frame decode
    ridx, weights = mem6_open_pass
    swept = []
    with monkeypatch.context() as patch:
        _recording_start_costs(patch, swept)
        decoded = list(tb.decode_frames(ridx, weights, ("exact-ml",)))
    assert len(swept) == 1 and len(swept[0]) > 41
    for f, d in enumerate(decoded):
        _same_outcome(d.outcomes["exact-ml"], tb.decode_exact_ml(ridx, weights.frame(f)))


def test_exact_ml_race_keeps_two_indices_costs_at_most(monkeypatch, mem6_open_pass):
    # the race reads the last index's costs only: when the start sweep yields
    # an index's costs, those of the index before the previous one are gone
    ridx, weights = mem6_open_pass
    start_costs = decoder._start_costs
    alive = []

    def recording(*args):
        for cost in start_costs(*args):
            alive.append(weakref.ref(cost))
            assert sum(ref() is not None for ref in alive) <= 2
            yield cost

    monkeypatch.setattr(decoder, "_start_costs", recording)
    list(tb.decode_frames(ridx, weights, ("exact-ml",)))
    assert len(alive) == ridx.trellis.n_sections + 1


def test_open_frames_pool_across_batches(monkeypatch, ridx_block6, ridx_conv_m2):
    # with the cap at 3, each batch's settled frames come back as one group
    # and its open frames wait in a pool that every decoder decides in one
    # pass once it holds 3 frames (and once after the last batch): every pass
    # holds at most 3, there are ceil(open / 3) passes, and every frame's
    # outcomes equal its own one-frame decode
    names = ("two-phase-L1", "two-phase-L2", "exact-ml", "phase1-only")
    passes = []
    decode_open = decoder._decode_open

    def recording(ridx, weights, p1, *args):
        passes.append(p1.delta_finals.reshape(-1, ridx.t).shape[0])
        return decode_open(ridx, weights, p1, *args)

    monkeypatch.setattr(decoder, "_decode_open", recording)
    monkeypatch.setattr(decoder, "batch_frames", lambda ridx: 3)
    for ridx in (ridx_block6, ridx_conv_m2):
        passes.clear()
        received = [random_received(ridx, seed=89, frame=f, sigma=0.5) for f in range(25)]
        # batches of 3, 1 (one frame, unbatched), 3, 3, 1 (batched), ...
        sizes = [3, 1, 3, 3, 1, 3, 3, 3, 2, 3]
        bounds = np.cumsum([0] + sizes)
        samples = [np.stack([rec.r for rec in received[a:b]]) for a, b in zip(bounds[:-1], bounds[1:])]
        samples[1] = samples[1][0]
        frames = {}
        for b, r in enumerate(samples):
            frames.update({(b, f): rec for f, rec in enumerate(r.reshape(-1, r.shape[-1]))})
        batches = (tb.edge_weights(ridx.trellis, tb.ReceivedVector(r=r)) for r in samples)
        groups = list(decoder._decode_batches(ridx, batches, names))
        decoded = {(b, f): d for group in groups for b, f, d in group}
        assert sum(len(g) for g in groups) == len(decoded) == len(frames) == 25
        n_open = sum(d.p2 is not None for d in decoded.values())  # phase 2 runs on the open frames only
        assert 3 < n_open < 25
        assert passes and all(size <= 3 for size in passes)
        assert len(passes) == -(-n_open // 3) and sum(passes) == n_open
        # some pass pooled the open frames of more than one batch
        assert any(len({b for b, _, _ in group}) > 1 for group in groups)
        for key, d in decoded.items():
            alone = tb.decode_frame(ridx, tb.edge_weights(ridx.trellis, tb.ReceivedVector(r=frames[key])), names)
            for name in names:
                _same_outcome(d.outcomes[name], alone.outcomes[name])
            assert (d.p2 is None) == (alone.p2 is None)
            if d.p2 is not None:
                for a, c in zip(d.p2.metric + d.p2.pred_edge, alone.p2.metric + alone.p2.pred_edge):
                    assert np.array_equal(a, c)
            for a, c in zip(d.p1.cost + d.p1.pred_edge, alone.p1.cost + alone.p1.pred_edge):
                assert np.array_equal(a, c)


def _first_or_cheaper(best, v, c):
    """Edge-order relaxation rule: a vertex's first in-edge sets it, a later one must be strictly cheaper."""
    return v not in best or c < best[v]


def _scalar_phase1(ridx, weights):
    """Phase 1 as a scalar edge-by-edge relaxation, in each section's edge order."""
    trellis = ridx.trellis
    cost = [np.full(trellis.v_counts[0], np.inf)]
    surv = [np.zeros(trellis.v_counts[0], dtype=np.int32)]
    pred_edge = []
    for i, s in enumerate(trellis.starts):
        cost[0][s], surv[0][s] = 0.0, i
    for p, sec in enumerate(trellis.sections):
        best, src, pred = {}, {}, {}
        for e in range(sec.num_edges):
            u, v = int(sec.frm[e]), int(sec.to[e])
            c = cost[p][u] + weights.sections[p][e]
            if _first_or_cheaper(best, v, c):
                best[v], src[v], pred[v] = c, surv[p][u], e
        vs = range(trellis.v_counts[p + 1])
        cost.append(np.array([best[v] for v in vs]))
        surv.append(np.array([src[v] for v in vs], dtype=np.int32))
        pred_edge.append(np.array([pred[v] for v in vs], dtype=np.int32))
    return cost, surv, pred_edge


def _scalar_phase2(ridx, weights, p1, participants):
    """Phase 2 as a scalar edge-by-edge relaxation: metric, trellis, dist, pred_edge, comparisons."""
    trellis = ridx.trellis
    d_final = p1.delta_finals
    metric = [np.full(trellis.v_counts[0], np.inf)]
    tr = [np.zeros(trellis.v_counts[0], dtype=np.int32)]
    dist = [np.full(trellis.v_counts[0], np.inf)]
    pred_edge = []
    for i, s in enumerate(trellis.starts):
        tr[0][s] = i
        if participants[i]:
            metric[0][s], dist[0][s] = d_final[i], 0.0
    comparisons = 0
    for p, sec in enumerate(trellis.sections):
        best, state = {}, {}
        for e in range(sec.num_edges):
            u, v = int(sec.frm[e]), int(sec.to[e])
            j = int(tr[p][u])
            ok = bool(np.isfinite(metric[p][u])) and ridx.member(p, e, j)
            comparisons += ok
            step = dist[p][u] + weights.sections[p][e]
            c = (step + d_final[j]) - p1.cost[p + 1][v] if ok else np.inf
            if _first_or_cheaper(best, v, c):
                best[v], state[v] = c, (j, step, e)
        vs = range(trellis.v_counts[p + 1])
        metric.append(np.array([best[v] for v in vs]))
        tr.append(np.array([state[v][0] for v in vs], dtype=np.int32))
        dist.append(np.array([state[v][1] for v in vs]))
        pred_edge.append(np.array([state[v][2] for v in vs], dtype=np.int32))
    # a dead entry, one without a finite metric, reads metric inf, dist inf, trellis -1 and pred edge 0
    for p, m in enumerate(metric):
        dead = ~np.isfinite(m)
        m[dead], dist[p][dead], tr[p][dead] = np.inf, np.inf, -1
        if p:
            pred_edge[p - 1][dead] = 0
    return metric, tr, dist, pred_edge, comparisons


def _scalar_start_sweep(ridx, weights, i, restricted):
    """Costs and pred edges of the sweep from start i, over subtrellis i's edges if ``restricted``."""
    trellis = ridx.trellis
    cost = np.full(trellis.v_counts[0], np.inf)
    cost[trellis.starts[i]] = 0.0
    costs, preds, comparisons = [cost], [], 0
    for p, sec in enumerate(trellis.sections):
        best, pred = {}, {}
        for e in range(sec.num_edges):
            u, v = int(sec.frm[e]), int(sec.to[e])
            ok = not restricted or ridx.member(p, e, i)
            comparisons += ok
            c = costs[p][u] + weights.sections[p][e] if ok else np.inf
            if _first_or_cheaper(best, v, c):
                best[v], pred[v] = c, e
        vs = range(trellis.v_counts[p + 1])
        costs.append(np.array([best[v] for v in vs]))
        preds.append([pred[v] for v in vs])
    return costs, preds, comparisons


def _scalar_walk(ridx, pred_edge, v, pred_rank=None, rank=0):
    """One walk back from vertex v at the last index, a section at a time: its path and edges, index 0 first.

    Vertex v's in-edge at index p+1 is ``pred_edge[p][v]``, or, with
    ``pred_rank``, ``pred_edge[p][rank][v]``, and the next section is read at
    rank ``pred_rank[p][rank][v]``.
    """
    trellis = ridx.trellis
    path, edges = [int(v)], []
    for p in range(trellis.n_sections - 1, -1, -1):
        at = v if pred_rank is None else (rank, v)
        edges.append(int(pred_edge[p][at]))
        if pred_rank is not None:
            rank = int(pred_rank[p][at])
        v = int(trellis.sections[p].frm[edges[-1]])
        path.append(v)
    return path[::-1], edges[::-1]


def _codeword(ridx, edges):
    """The label bits of a path's edges, section after section."""
    trellis = ridx.trellis
    return np.concatenate([
        tb.trellis.label_bits(int(trellis.sections[p].labels[e]), trellis.label_width) for p, e in enumerate(edges)
    ])


def _added_left_to_right(weights, edges):
    """A path's weight: its edge weights added one at a time, first section first."""
    weight = 0.0
    for p, e in enumerate(edges):
        weight += weights.sections[p][e]
    return weight


def _reweighed(ridx, weights, outcome):
    """An outcome's weight re-added from its path and codeword alone.

    Each section's edge is the one from path[p] to path[p + 1] whose label
    is that section's codeword bits, and the edges' weights are added left to
    right, as the sweeps add them.
    """
    trellis = ridx.trellis
    width = trellis.label_width
    edges = []
    for p, sec in enumerate(trellis.sections):
        label = int("".join(str(int(b)) for b in outcome.codeword[p * width : (p + 1) * width]), 2)
        key = (int(outcome.path[p]), int(outcome.path[p + 1]), label)
        edges.append(next(e for e in range(sec.num_edges) if (sec.frm[e], sec.to[e], sec.labels[e]) == key))
    return _added_left_to_right(weights, edges)


def _check_sweeps_against_scalar(ridx, weights):
    """Every sweep equals its scalar edge-order relaxation bit for bit, dtypes included."""
    trellis = ridx.trellis
    p1 = tb.phase1(ridx, weights)
    cost, surv, pred_edge = _scalar_phase1(ridx, weights)
    _same_arrays(p1.cost + p1.surv + p1.pred_edge, cost + surv + pred_edge)
    _same_arrays([p1.surv_finals], [surv[-1][trellis.finals]])
    # two rows, the weights and their rounded copy (many ties), swept as a
    # batch: no sweep carries survivors, so each row's are traced
    rows = np.stack([weights.values, np.round(weights.values)])
    batch = tb.phase1(ridx, tb.WeightAssignment(values=rows, index=weights.index))
    for row, values in enumerate(rows):
        cost, surv, pred_edge = _scalar_phase1(ridx, tb.WeightAssignment(values=values, index=weights.index))
        state = batch.frame(row)
        _same_arrays(state.cost + state.pred_edge + state.surv, cost + pred_edge + surv)
        _same_arrays([batch.surv_finals[row], batch.delta_finals[row]], [surv[-1][trellis.finals], cost[-1][trellis.finals]])
    for prune in (True, False):
        p2 = tb.phase2(ridx, weights, p1, prune)
        metric, tr, dist, pred_edge, comparisons = _scalar_phase2(ridx, weights, p1, p2.participants)
        _same_arrays(p2.metric + p2.trellis + p2.dist + p2.pred_edge, metric + tr + dist + pred_edge)
        assert type(p2.comparisons) is int and p2.comparisons == comparisons
    swept = [_scalar_start_sweep(ridx, weights, i, restricted=False)[0] for i in range(ridx.t)]
    _same_arrays(tb.parallel_start_costs(ridx, weights), [np.stack(rows) for rows in zip(*swept)])
    for i in range(ridx.t):
        costs, preds, comparisons = _scalar_start_sweep(ridx, weights, i, restricted=True)
        path, edges = _scalar_walk(ridx, preds, trellis.finals[i])
        sub = tb.viterbi_subtrellis(ridx, weights, i)
        assert sub.path.dtype == np.int32 and sub.path.tolist() == path
        assert sub.codeword.dtype == np.uint8 and np.array_equal(sub.codeword, _codeword(ridx, edges))
        assert (sub.weight, sub.comparisons) == (_added_left_to_right(weights, edges), comparisons)


def test_sweeps_match_scalar_relaxation(ridx_conv_m2):
    # conv-m2 has two in-edges per vertex, so every row of the in-edge table
    # is real; coarse samples make many equal costs, so the tie rule decides
    for frame in range(16):
        rec = random_received(ridx_conv_m2, seed=73, frame=frame)
        if frame % 2:
            rec = tb.ReceivedVector(r=np.round(rec.r))
        _check_sweeps_against_scalar(ridx_conv_m2, tb.edge_weights(ridx_conv_m2.trellis, rec))


# ---------------------------------------------------------------------------
# List variant

def test_list_size_one_matches_scalar_pipeline(ridx_block6):
    ridx = ridx_block6
    for frame in range(40):
        _, weights = _weights_of(ridx, seed=67, frame=frame)
        a = tb.decode_two_phase(ridx, weights, list_size=1)
        p1 = tb.phase1(ridx, weights)
        stopped = tb.phase1_decision(ridx, p1, weights)
        if stopped is not None:
            b = stopped
        else:
            p2 = tb.phase2(ridx, weights, p1)
            b = tb.final_decision(ridx, weights, p1, p2)
        assert np.array_equal(a.codeword, b.codeword)
        assert a.weight == b.weight
        assert a.stage == b.stage


@given(st.integers(min_value=0, max_value=5_000))
def test_larger_list_never_worse(ridx_block6, frame):
    _, weights = _weights_of(ridx_block6, seed=71, frame=frame)
    w1 = tb.decode_two_phase(ridx_block6, weights, list_size=1).weight
    w2 = tb.decode_two_phase(ridx_block6, weights, list_size=2).weight
    assert w2 <= w1


def test_big_list_recovers_exact_ml(ridx_block4):
    ridx = ridx_block4
    for frame in range(60):
        _, weights = _weights_of(ridx, seed=73, frame=frame)
        exact = tb.decode_exact_ml(ridx, weights)
        out = tb.decode_two_phase(ridx, weights, list_size=8)
        assert out.weight == pytest.approx(exact.weight, rel=1e-12)


def test_list_comparisons_within_scaled_budget(ridx_block6):
    ridx = ridx_block6
    for frame in range(20):
        _, weights = _weights_of(ridx, seed=79, frame=frame)
        out = tb.decode_two_phase(ridx, weights, list_size=2)
        assert out.comparisons <= (1 + 2 * 2) * ridx.trellis.num_edges


# ---------------------------------------------------------------------------
# Fallback (requires an inconsistent reach index; a built one never starves)

def _square_trellis():
    """Vertices {s0, s1} -> {a, b} -> {f0, f1} with every edge between neighbouring indices."""
    return tb.Trellis.from_edge_lists(
        label_width=1,
        v_counts=[2, 2, 2],
        edge_lists=[
            [(0, 0, 0), (1, 0, 1), (0, 1, 1), (1, 1, 0)],
            [(0, 0, 0), (1, 0, 1), (0, 1, 1), (1, 1, 1)],
        ],
        starts=[0, 1],
        finals=[0, 1],
    )


def _doctored_ridx():
    """A reach index whose membership table starves the scalar second sweep.

    Vertices per index: {s0, s1} -> {a, b} -> {f0, f1}.  Membership is kept
    only on s0->a (subtrellis 0), s1->a (subtrellis 1) and a->f0 (subtrellis
    0).  The weights make the subtrellis-1 candidate win vertex a in the
    second sweep (0.5 < 1.0) and then dead-end on the subtrellis-0-only edge,
    while subtrellis 0 — which could have continued — was shadowed.  A built
    index never has such entries
    (every surviving candidate can reach its own final), so this is the only
    way to reach the fallback branch.
    """
    ridx = tb.build_reach_index(_square_trellis())
    # canonical per-section edge order is (to, frm):
    # section 1: s0->a, s1->a, s0->b, s1->b; section 2: a->f0, b->f0, a->f1, b->f1
    ridx.membership[0] = np.array([[1, 0], [0, 1], [0, 0], [0, 0]], dtype=bool)
    ridx.membership[1] = np.array([[1, 0], [0, 0], [0, 0], [0, 0]], dtype=bool)
    weights = tb.WeightAssignment(
        sections=[
            np.array([1.0, 0.0, 0.5, 1e6]),
            np.array([0.0, 1e6, 2e6, 0.0]),
        ]
    )
    return ridx, weights


def test_starved_pool_falls_back_to_restricted_viterbi():
    ridx, weights = _doctored_ridx()
    p1 = tb.phase1(ridx, weights)
    assert tb.phase1_decision(ridx, p1, weights) is None
    out = tb.decode_two_phase(ridx, weights)
    assert out.stage == "fallback"
    assert out.fallback_comparisons > 0
    assert np.isfinite(out.weight)
    # a larger list keeps the shadowed candidate alive and decodes normally
    out2 = tb.decode_two_phase(ridx, weights, list_size=2)
    assert out2.stage == "phase2"
    assert out2.weight <= out.weight


def test_phase1_only_fallback_on_starved_phase1():
    ridx, weights = _doctored_ridx()
    out = tb.decode_phase1_only(ridx, weights)
    assert out.stage in ("phase1", "fallback")
    assert np.isfinite(out.weight)


def test_batched_phase1_only_falls_back_mid_batch():
    # four open frames of the square trellis, the second and the fourth with
    # no final closed in phase 1: the batch traces the other two together and
    # sweeps one fallback row for each of those two, from final 0 and final 1,
    # each equal to decoding that frame alone and counting its subtrellis's
    # member edges
    ridx = tb.build_reach_index(_square_trellis())
    # edge order: s0->a, s1->a, s0->b, s1->b, then a->f0, b->f0, a->f1, b->f1
    frames = [
        ([2.0, 5.0, 0.0, 5.0], [0.0, 9.0, 9.0, 1.0]),  # f0 closes at 2, f1 crosses at 1
        ([1.0, 0.0, 0.0, 1.0], [0.0, 1.0, 1.0, 0.0]),  # both finals cross at 0: no codeword to trace
        ([5.0, 0.0, 5.0, 3.0], [0.5, 9.0, 9.0, 0.0]),  # f1 closes at 3, f0 crosses at 0.5
        ([1.0, 0.0, 0.0, 1.0], [0.5, 1.0, 1.0, 0.0]),  # both cross, f1 the cheaper at 0
    ]
    weights = tb.WeightAssignment(sections=[np.array(section) for section in zip(*frames)])
    names = ("phase1-only", "exact-ml", "two-phase-L1")
    decoded = list(tb.decode_frames(ridx, weights, names))
    outs = [d.outcomes["phase1-only"] for d in decoded]
    assert [out.stage for out in outs] == ["phase1", "fallback", "phase1", "fallback"]
    assert [out.subtrellis for out in outs] == [0, 0, 1, 1]
    for out in outs[1::2]:
        assert out.fallback_comparisons == ridx.member_counts[out.subtrellis] > 0
    for d, (first, second) in zip(decoded, frames):
        one = tb.decode_frame(ridx, tb.WeightAssignment(sections=[np.array(first), np.array(second)]), names)
        for name in names:
            _same_outcome(d.outcomes[name], one.outcomes[name])


def test_phase1_only_fallback_without_a_path_raises_no_path_error():
    # no final closes and the cheapest final, f0, has no path from s0 inside
    # subtrellis 0 (s0->b and a->f0 cost inf), so the fallback has nothing to
    # return: a NoPathError, alone or in a batch, never an IndexError
    ridx = tb.build_reach_index(_square_trellis())
    # edge order: s0->a, s1->a, s0->b, s1->b, then a->f0, b->f0, a->f1, b->f1
    starved = ([0.0, 0.0, np.inf, 0.0], [np.inf, 0.0, 0.0, 0.0])
    closed = ([2.0, 5.0, 0.0, 5.0], [0.0, 9.0, 9.0, 1.0])
    message = "subtrellis 0 has no start-to-final path"
    alone = tb.WeightAssignment(sections=[np.array(section) for section in starved])
    with pytest.raises(tb.NoPathError, match=message):
        tb.decode_phase1_only(ridx, alone)
    batch = tb.WeightAssignment(sections=[np.array(section) for section in zip(closed, starved, closed)])
    with pytest.raises(tb.NoPathError, match=message):
        list(tb.decode_frames(ridx, batch, ("phase1-only",)))


def test_closed_final_at_inf_cost_is_the_phase1_answer():
    # both finals cost inf and only final 1 closed: phase1-only and the
    # two-phase decoders, L1 and L2, return its codeword, start 1 to final 1,
    # not the path to final 0, which runs from start 1 and is no codeword; no
    # subtrellis has a finite codeword, so exact ML finds none.  The sweeps'
    # masked inf - inf lanes raise no RuntimeWarning.
    ridx = tb.build_reach_index(_square_trellis())
    # edge order: s0->a, s1->a, s0->b, s1->b, then a->f0, b->f0, a->f1, b->f1
    weights = tb.WeightAssignment(sections=[np.array([np.inf, 0.0, np.inf, np.inf]), np.full(4, np.inf)])
    p1 = tb.phase1(ridx, weights)
    assert p1.surv_finals.tolist() == [1, 1] and not np.isfinite(p1.delta_finals).any()
    for out in (tb.decode_phase1_only(ridx, weights), tb.decode_two_phase(ridx, weights),
                tb.decode_two_phase(ridx, weights, list_size=2)):
        assert (out.stage, out.subtrellis, out.path.tolist()) == ("phase1", 1, [1, 0, 1])
    with pytest.raises(tb.NoPathError):
        tb.decode_exact_ml(ridx, weights)


def _recording_walk(monkeypatch, calls):
    """Patch the walker to record each call in ``calls``: per walk, its pred arrays, start and path."""
    walk = decoder._walk

    def recording(ridx, sources):
        paths, bits = walk(ridx, sources)
        starts = [
            SimpleNamespace(pred_edge=pred_edge, pred_rank=pred_rank, lead=tuple(int(a[k]) for a in lead),
                            final=int(finals[k]))
            for pred_edge, pred_rank, lead, finals in sources for k in range(len(finals))
        ]
        for start, path in zip(starts, paths):
            start.path = path
        calls.append(SimpleNamespace(walks=starts))
        return paths, bits

    monkeypatch.setattr(decoder, "_walk", recording)


def test_no_closed_codeword_is_walked_twice(monkeypatch, ridx_block6, ridx_conv_m2):
    # phase 1's stop, the final decision, phase1-only and exact ML may all
    # return a frame's closed codeword, but in one decode of a batch of 1 or
    # 7 frames no (frame, final) walk through phase 1's pred arrays repeats
    calls, sweeps = [], []
    _recording_walk(monkeypatch, calls)
    phase1, decode_open = decoder.phase1, decoder._decode_open

    def recording_phase1(ridx, weights):
        sweeps.append(phase1(ridx, weights))
        return sweeps[-1]

    def recording_open(ridx, weights, p1, *args):
        sweeps.append(p1)
        return decode_open(ridx, weights, p1, *args)

    monkeypatch.setattr(decoder, "phase1", recording_phase1)
    monkeypatch.setattr(decoder, "_decode_open", recording_open)
    shared = walks = 0
    for ridx, batch in ((ridx, batch) for ridx in (ridx_block6, ridx_conv_m2) for batch in (1, 7)):
        for first in range(0, 35, batch):
            received = [random_received(ridx, seed=101, frame=f) for f in range(first, first + batch)]
            rows = np.stack([rec.r for rec in received]) if batch > 1 else received[0].r
            weights = tb.edge_weights(ridx.trellis, tb.ReceivedVector(r=rows))
            calls.clear()
            sweeps.clear()
            decoded = list(tb.decode_frames(ridx, weights, tb.DECODER_NAMES))
            # the frame of each row of the batch's phase-1 state and, if a frame was open, of the pool's
            batch_sweep, *pool = sweeps
            frames = {id(batch_sweep.pred_edge): list(range(batch))}
            if pool:
                frames[id(pool[0].pred_edge)] = [g for g, d in enumerate(decoded) if d.p2 is not None]
            walked = [(frames[id(walk.pred_edge)][walk.lead[0] if walk.lead else 0], walk.final)
                      for call in calls for walk in call.walks if id(walk.pred_edge) in frames]
            assert len(walked) == len(set(walked))
            walks += len(walked)
            for d in decoded:  # open frames where two decoders returned the closed codeword
                closed = [o for o in d.outcomes.values() if o.stage in ("phase1", "exact")]
                shared += d.p2 is not None and any(
                    o.stage == "exact" and o.subtrellis == c.subtrellis for o in closed for c in closed if c is not o
                )
    assert walks and shared


def test_each_pass_walks_once_and_only_returned_codewords(monkeypatch, ridx_block6, ridx_conv_m2):
    # every decoder decides on its sweep's weights before any walk, so each
    # pass over open frames calls the walker once, a phase1-only fallback's
    # restricted sweep included, a one-frame decode calls it once in all, and
    # every walk is the path some decoder returns: no list candidate that lost
    # to the single-candidate decision is walked
    calls, passes = [], []
    _recording_walk(monkeypatch, calls)
    decode_open = decoder._decode_open

    def recording_open(*args):
        before = len(calls)
        result = decode_open(*args)
        passes.append(len(calls) - before)
        return result

    monkeypatch.setattr(decoder, "_decode_open", recording_open)
    names = tb.DECODER_NAMES + ("two-phase-L3",)
    lost = fallbacks = 0
    for ridx, batch in ((ridx, batch) for ridx in (ridx_block6, ridx_conv_m2) for batch in (1, 7)):
        for first in range(0, 35, batch):
            received = [random_received(ridx, seed=107, frame=f) for f in range(first, first + batch)]
            rows = np.stack([rec.r for rec in received]) if batch > 1 else received[0].r
            weights = tb.edge_weights(ridx.trellis, tb.ReceivedVector(r=rows))
            calls.clear()
            passes.clear()
            decoded = list(tb.decode_frames(ridx, weights, names))
            assert passes == ([1] if any(d.p2 is not None for d in decoded) else [])
            if batch == 1:
                assert len(calls) == 1
            returned = {o.path.ctypes.data for d in decoded for o in d.outcomes.values()}
            assert all(walk.path.ctypes.data in returned for call in calls for walk in call.walks)
            lost += sum(d.p2 is not None and d.outcomes["two-phase-L3"].stage != "phase2" for d in decoded)
            fallbacks += sum(d.outcomes["phase1-only"].stage == "fallback" for d in decoded)
    assert lost  # some open frame's list candidate was not returned
    assert fallbacks  # and some frame fell back in phase1-only, walked in its pass's one walk


def test_open_frame_won_by_phase2_walks_once(monkeypatch, ridx_block6):
    # one frame that phase 1 leaves open with a closed final, and phase 2 beats
    # it: the two-phase decoder walks phase 2's winner only
    ridx = ridx_block6
    for frame in range(100):
        _, weights = _weights_of(ridx, seed=103, frame=frame)
        p1 = tb.phase1(ridx, weights)
        out = tb.decode_two_phase(ridx, weights)
        if out.stage == "phase2" and (p1.surv_finals == np.arange(ridx.t)).any():
            break
    else:
        pytest.fail("no open frame with a closed final that phase 2 wins")
    calls = []
    _recording_walk(monkeypatch, calls)
    decoded = tb.decode_frame(ridx, weights, ("two-phase-L1",))
    _same_outcome(decoded.outcomes["two-phase-L1"], out)
    assert len(calls) == 1 and len(calls[0].walks) == 1 and calls[0].walks[0].pred_edge is decoded.p2.pred_edge


def test_repeated_decoder_names_rejected(ridx_block4):
    # outcomes are keyed by name, so a repeat would silently come back once
    _, weights = _weights_of(ridx_block4, seed=3, frame=0)
    with pytest.raises(tb.CatalogError, match="distinct"):
        tb.decode_frame(ridx_block4, weights, ("exact-ml", "exact-ml"))


def test_weights_shape_checked(ridx_block4):
    bad = tb.WeightAssignment(sections=[np.zeros(3)] * 4)
    with pytest.raises(tb.LengthMismatchError):
        tb.phase1(ridx_block4, bad)


@pytest.mark.parametrize("n_frames", [16, 3])
def test_one_frame_entry_points_reject_batched_weights(n_frames):
    # mem4-circle20 has 16 starts, so with 16 frames a batch's sweep has the
    # shape of a one-frame all-pairs table, and only the check can tell them apart
    ridx = montecarlo.build_context("mem4-circle20").ridx
    assert ridx.t == 16
    rows = np.stack([random_received(ridx, seed=83, frame=f).r for f in range(n_frames)])
    weights = tb.edge_weights(ridx.trellis, tb.ReceivedVector(r=rows))
    p1 = tb.phase1(ridx, weights.frame(0))
    for call in (
        lambda: tb.viterbi_subtrellis(ridx, weights, 0),
        lambda: tb.parallel_start_costs(ridx, weights),
        lambda: tb.all_pairs_start_final_distances(ridx, weights),
        lambda: tb.audit_decode_invariants(ridx, weights, p1, None),
    ):
        with pytest.raises(tb.ShapeMismatchError, match="one frame's weights"):
            call()


def test_an_empty_batch_decodes_to_no_frames():
    ridx = montecarlo.build_context("mem4-circle20").ridx
    trellis = ridx.trellis
    weights = tb.edge_weights(trellis, tb.ReceivedVector(r=np.empty((0, trellis.n_sections * trellis.label_width))))
    assert weights.values.shape == (0, trellis.n_sections << trellis.label_width)
    p1 = tb.phase1(ridx, weights)
    assert p1.delta_finals.shape == p1.surv_finals.shape == (0, ridx.t)
    assert [a.shape for a in p1.cost] == [(0, v) for v in trellis.v_counts]
    assert _phase1_stops(ridx, p1) == []
    assert list(tb.decode_frames(ridx, weights, tb.DECODER_NAMES)) == []


def test_weights_with_two_batch_axes_rejected():
    # values are (K,) for one frame or (F, K) for a batch, nothing else
    ridx = montecarlo.build_context("mem4-circle20").ridx
    rows = np.stack([random_received(ridx, seed=89, frame=f).r for f in range(6)])
    weights = tb.edge_weights(ridx.trellis, tb.ReceivedVector(r=rows))
    stacked = tb.WeightAssignment(values=weights.values.reshape(2, 3, -1), index=weights.index)
    with pytest.raises(tb.ShapeMismatchError, match="one frame's or a batch's weights"):
        list(tb.decode_frames(ridx, stacked, ("two-phase-L1", "exact-ml")))


def test_weights_check_names_the_first_bad_section(ridx_block8):
    trellis = ridx_block8.trellis
    n = trellis.n_sections
    sections = tb.edge_weights(trellis, tb.ReceivedVector(r=np.zeros(n * trellis.label_width))).sections
    widen = [w if p not in (2, n - 1) else np.zeros(w.shape[-1] + 1) for p, w in enumerate(sections)]
    cases = {3: widen, n: sections[:-1], n + 1: [*sections, np.zeros(2)]}
    for bad_section, bad in cases.items():
        weights = tb.WeightAssignment(sections=bad)
        for call in (
            lambda: tb.phase1(ridx_block8, weights),
            lambda: tb.viterbi_subtrellis(ridx_block8, weights, 0),
            lambda: tb.parallel_start_costs(ridx_block8, weights),
        ):
            with pytest.raises(tb.LengthMismatchError, match=f"section {bad_section} do not match"):
                call()


# ---------------------------------------------------------------------------
# Frame-batched sweep

@st.composite
def generator_specs(draw):
    """Random valid generator specs (product trellises, equal in-degree per section)."""
    n = draw(st.integers(4, 8))
    k = draw(st.integers(1, 4))
    rows = []
    for _ in range(k):
        lo = draw(st.integers(1, n))
        hi = draw(st.integers(1, n))
        span = tb.Span(lo, hi, "linear" if lo <= hi else "circular")
        bits = [
            int(pos in (lo, hi) or (span.covers(pos) and draw(st.booleans())))
            for pos in range(1, n + 1)
        ]
        rows.append(tb.GeneratorRow(bits=tuple(bits), span=span))
    assume(gf2_rank([row.word for row in rows]) == k)
    return tb.GeneratorSpec(n=n, k=k, rows=tuple(rows))


@st.composite
def mixed_trellises(draw):
    """Random layered trellises whose vertices have 1-3 in-edges each.

    Vertex i < t is kept at every index with an edge i -> i, so every
    subtrellis holds a codeword; the other edges are random.
    """
    width = draw(st.integers(1, 2))
    n = draw(st.integers(2, 5))
    t = draw(st.integers(1, 3))
    v_counts = [draw(st.integers(t, 4)) for _ in range(n + 1)]
    label = st.integers(0, (1 << width) - 1)
    edge_lists = []
    for p in range(n):
        edges = [(to, to, draw(label)) for to in range(t)]
        for to in range(v_counts[p + 1]):
            for _ in range(draw(st.integers(0 if to < t else 1, 2))):
                edges.append((draw(st.integers(0, v_counts[p] - 1)), to, draw(label)))
        edge_lists.append(edges)
    return tb.build_reach_index(
        tb.Trellis.from_edge_lists(width, v_counts, edge_lists, range(t), range(t))
    )


def _same_arrays(a, b):
    assert len(a) == len(b)
    for x, y in zip(a, b):
        assert x.dtype == y.dtype and x.shape == y.shape and np.array_equal(x, y)


def _same_outcome(a, b):
    assert a.codeword.dtype == b.codeword.dtype and np.array_equal(a.codeword, b.codeword)
    assert a.path.dtype == b.path.dtype and np.array_equal(a.path, b.path)
    assert (a.weight, a.stage, a.subtrellis, a.comparisons, a.edge_visits, a.fallback_comparisons) == (
        b.weight, b.stage, b.subtrellis, b.comparisons, b.edge_visits, b.fallback_comparisons
    )


CONV_RIDX = {name: build_conv(tb.get_code(name).spec()) for name in ("toy-conv-m1-l4", "toy-conv-m2-l8")}


@given(
    ridx=st.one_of(
        generator_specs().map(build_block),
        mixed_trellises(),
        st.sampled_from(sorted(CONV_RIDX)).map(CONV_RIDX.get),
    ),
    seed=st.integers(0, 10_000),
    batch=st.sampled_from([1, 2, 3]),
    rounded=st.booleans(),
    prune=st.booleans(),
)
def test_batched_decode_matches_one_frame_calls(ridx, seed, batch, rounded, prune):
    # 7 frames in batches of 1, 2 or 3 (a non-divisor): every frame's phase-1
    # and phase-2 state, stop decision and decoder outcomes equal those of
    # decoding it alone; the list sweeps, batched and alone, equal the
    # lexsort reference; and exact ML equals the all-pairs oracle's decision
    received = [random_received(ridx, seed=seed, frame=f) for f in range(7)]
    if rounded:  # coarse samples: many equal costs, so the tie rule decides
        received = [tb.ReceivedVector(r=np.round(rec.r)) for rec in received]
    names = tb.DECODER_NAMES + ("two-phase-L3",)
    for first in range(0, 7, batch):
        rows = np.stack([rec.r for rec in received[first : first + batch]])
        weights = tb.edge_weights(ridx.trellis, tb.ReceivedVector(r=rows))
        p1 = tb.phase1(ridx, weights)
        stops = _phase1_stops(ridx, p1)
        p2 = tb.phase2(ridx, weights, p1, prune)
        lists = {size: decoder._phase2_list(ridx, weights, p1, size, p2.participants) for size in (2, 3)}
        decoded = list(tb.decode_frames(ridx, weights, names, prune))
        assert len(stops) == len(decoded) == len(rows)
        for row, rec in enumerate(received[first : first + batch]):
            alone = tb.edge_weights(ridx.trellis, rec)
            _same_arrays(weights.frame(row).sections, alone.sections)
            single = tb.phase1(ridx, alone)
            for state in (p1.frame(row), decoded[row].p1):
                for name in ("cost", "surv", "pred_edge"):
                    _same_arrays(getattr(state, name), getattr(single, name))
                _same_arrays([state.delta_finals, state.surv_finals],
                             [single.delta_finals, single.surv_finals])
                assert (state.comparisons, state.edge_visits) == (single.comparisons, single.edge_visits)
            single2 = tb.phase2(ridx, alone, single, prune)
            _same_phase2(p2.frame(row), single2)
            stop = tb.phase1_decision(ridx, single, alone)
            assert (stops[row] is None) == (stop is None)
            if stop is not None:
                _same_outcome(stops[row], stop)
            else:
                _same_phase2(decoded[row].p2, single2)
            one = tb.decode_frame(ridx, alone, names, prune)
            assert list(decoded[row].outcomes) == list(one.outcomes)
            for name in names:
                _same_outcome(decoded[row].outcomes[name], one.outcomes[name])
                # the weight is the sweep's, and must equal the returned path's, bit for bit
                out = decoded[row].outcomes[name]
                assert out.weight == _reweighed(ridx, alone, out)
            for size, batched in lists.items():
                ref = _lexsort_list_sweep(ridx, alone, single, size, single2.participants)
                for ls in (_list_row(batched, row), decoder._phase2_list(ridx, alone, single, size, single2.participants)):
                    _same_arrays([ls.metric_finals, ls.dist_finals],
                                 [ref.metric[-1][:, ridx.trellis.finals], ref.dist[-1][:, ridx.trellis.finals]])
                    _same_arrays(ls.pred_edge, ref.pred_edge)
                    _same_arrays(ls.pred_rank, ref.pred_rank)
                    assert type(ls.comparisons) is int and ls.comparisons == ref.comparisons
                if stop is None:
                    expected = _reference_list_outcome(ridx, alone, one.outcomes["two-phase-L1"], ref)
                    _same_outcome(one.outcomes[f"two-phase-L{size}"], expected)
            assert np.array_equal(decoded[row].table.d, one.table.d)
            _matches_all_pairs_oracle(ridx, alone, decoded[row].outcomes["exact-ml"])


@pytest.mark.parametrize("batch", [1, 3, 84])
def test_label_table_and_per_edge_weights_decode_alike(ridx_block6, batch):
    # every sweep gathers a section's weights from edge_weights' label table
    # through trellis.label_index; the same weights given per edge, as
    # sections under an identity index, give every phase-1 state (derived
    # survivors included), list sweep and decoder outcome bit for bit
    names = tb.DECODER_NAMES + ("two-phase-L4",)
    for code in ("mem6-circle48", "mem4-circle20", None):
        if code is None:
            ridx = ridx_block6
            samples = np.stack([random_received(ridx, seed=97, frame=f).r for f in range(batch)])
        else:
            ctx = tb.build_context(code)
            ridx = ctx.ridx
            params = tb.ChannelParams(ebn0_db=2.0, rate=ctx.rate, seed=97)
            sigma2 = np.full(batch, params.sigma2)
            samples = montecarlo._make_frames(ctx, params.seed, sigma2, [0] * batch, range(batch), False)[2].r
        table = tb.edge_weights(ridx.trellis, tb.ReceivedVector(r=samples[0] if batch == 1 else samples))
        per_edge = tb.WeightAssignment(sections=table.sections)
        assert per_edge.values.shape[-1] == ridx.trellis.num_edges
        states = [tb.phase1(ridx, w) for w in (table, per_edge)]
        _same_arrays(*(s.cost + s.surv + s.pred_edge + [s.delta_finals, s.surv_finals] for s in states))
        participants = tb.phase2(ridx, table, states[0]).participants
        for size in (1, 2, 4):
            a, b = (decoder._phase2_list(ridx, w, s, size, participants) for w, s in zip((table, per_edge), states))
            _same_arrays(a.picks + [a.metric_finals, a.dist_finals, np.asarray(a.comparisons)],
                         b.picks + [b.metric_finals, b.dist_finals, np.asarray(b.comparisons)])
        for a, b in zip(*(tb.decode_frames(ridx, w, names) for w in (table, per_edge))):
            for name in names:
                _same_outcome(a.outcomes[name], b.outcomes[name])


def _same_phase2(a, b):
    """Two phase-2 states are equal in every array, dtype included, and in their counts."""
    for name in ("metric", "trellis", "dist", "pred_edge"):
        _same_arrays(getattr(a, name), getattr(b, name))
    _same_arrays([a.participants, a.metric_finals, a.trellis_finals],
                 [b.participants, b.metric_finals, b.trellis_finals])
    assert type(a.comparisons) is int and type(b.comparisons) is int
    assert (a.comparisons, a.edge_visits) == (b.comparisons, b.edge_visits)


def _list_row(ls, row):
    """Frame ``row`` of a batched list state."""
    return SimpleNamespace(
        metric_finals=ls.metric_finals[row],
        dist_finals=ls.dist_finals[row],
        pred_edge=[a[row] for a in ls.pred_edge],
        pred_rank=[a[row] for a in ls.pred_rank],
        comparisons=int(ls.comparisons[row]),
    )


def _lexsort_list_sweep(ridx, weights, p1, list_size, participants):
    """One frame's list sweep written with two lexsorts per section: the reference.

    Candidates of section p are (rank, edge) pairs in flat order rank * E +
    edge.  Each (vertex, subtrellis) pair's cheapest candidate by (metric,
    flat order) is in stage 0, the rest in stage 1, and every vertex keeps
    its first L candidates by (stage, metric, flat order).
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
        ok = np.isfinite(metric[p][:, frm]) & ridx.membership[p][np.arange(E), tr_u]
        step = dist[p][:, frm] + weights.sections[p][None, :]
        cand = np.where(ok, (step + d_final[tr_u]) - p1.cost[p + 1][sec.to][None, :], np.inf)
        comparisons += int(ok.sum())
        flat = cand.ravel()
        alive = np.flatnonzero(np.isfinite(flat))
        if len(alive) == 0:
            continue
        c_met = flat[alive]
        c_rank, c_edge = np.divmod(alive, E)
        c_to = sec.to[c_edge]
        c_tr = tr_u.ravel()[alive]
        c_step = step.ravel()[alive]
        order_id = np.arange(len(alive))
        by_pair = np.lexsort((order_id, c_met, c_tr, c_to))
        firsts = np.ones(len(alive), dtype=bool)
        firsts[1:] = (c_to[by_pair][1:] != c_to[by_pair][:-1]) | (c_tr[by_pair][1:] != c_tr[by_pair][:-1])
        stage = np.ones(len(alive), dtype=np.int8)
        stage[by_pair[firsts]] = 0
        final_order = np.lexsort((order_id, c_met, stage, c_to))
        to_sorted = c_to[final_order]
        new_group = np.ones(len(alive), dtype=bool)
        new_group[1:] = to_sorted[1:] != to_sorted[:-1]
        group_anchor = np.repeat(
            np.flatnonzero(new_group), np.diff(np.append(np.flatnonzero(new_group), len(alive)))
        )
        slot = np.arange(len(alive)) - group_anchor
        take = slot < L
        sel, rows, cols = final_order[take], slot[take], to_sorted[take]
        metric[p + 1][rows, cols] = c_met[sel]
        tr[p + 1][rows, cols] = c_tr[sel]
        dist[p + 1][rows, cols] = c_step[sel]
        pred_edge[p][rows, cols] = c_edge[sel]
        pred_rank[p][rows, cols] = c_rank[sel]
    return SimpleNamespace(metric=metric, trellis=tr, dist=dist, pred_edge=pred_edge,
                           pred_rank=pred_rank, comparisons=comparisons)


def _reference_list_outcome(ridx, weights, scalar, ref):
    """The list decision from a reference sweep: least (metric, final, rank), walked here, if it beats ``scalar``."""
    L = ref.metric[-1].shape[0]
    final_metrics = ref.metric[-1][:, ridx.trellis.finals]
    pool = [(float(final_metrics[r, i]), i, r) for i in range(ridx.t) for r in range(L)
            if np.isfinite(final_metrics[r, i])]
    comparisons = scalar.comparisons + ref.comparisons
    if pool:
        _, i, r = min(pool)
        path, edges = _scalar_walk(ridx, ref.pred_edge, ridx.trellis.finals[i], ref.pred_rank, r)
        weight = float(_added_left_to_right(weights, edges))
        if scalar.stage == "fallback" or weight < scalar.weight:
            return tb.DecodeOutcome(_codeword(ridx, edges), np.array(path, dtype=np.int32), weight, "phase2", i,
                                    comparisons, scalar.edge_visits)
    return replace(scalar, comparisons=comparisons)


def _matches_all_pairs_oracle(ridx, weights, exact):
    """Exact ML is the first argmin of the all-pairs diagonal, walked along the scalar sweep from its start."""
    diag = np.diagonal(tb.all_pairs_start_final_distances(ridx, weights).d)
    i = int(np.argmin(diag))
    assert (exact.subtrellis, exact.stage) == (i, "exact")
    _, preds, _ = _scalar_start_sweep(ridx, weights, i, restricted=False)
    path, edges = _scalar_walk(ridx, preds, ridx.trellis.finals[i])
    sub = tb.viterbi_subtrellis(ridx, weights, i)
    for p, codeword, w in ((path, _codeword(ridx, edges), _added_left_to_right(weights, edges)),
                           (sub.path, sub.codeword, sub.weight)):
        assert np.array_equal(exact.path, p) and np.array_equal(exact.codeword, codeword)
        assert exact.weight == w


def test_mixed_trellises_have_padded_sections():
    # the batched-decode and scalar-relaxation tests cover padded in-edge rows
    # only if some drawn trellis has a section whose vertices differ in in-degree
    find(mixed_trellises(), lambda ridx: any(real is not None for real in ridx.in_real),
         settings=settings(phases=[Phase.generate], database=None))


@settings(max_examples=30)
@given(ridx=mixed_trellises(), seed=st.integers(0, 10_000))
def test_padded_sweeps_match_scalar_relaxation(ridx, seed):
    # in-degrees of 1-3 pad the in-edge table; rounded samples tie often
    for frame in range(2):
        rec = random_received(ridx, seed=seed, frame=frame)
        if frame:
            rec = tb.ReceivedVector(r=np.round(rec.r))
        _check_sweeps_against_scalar(ridx, tb.edge_weights(ridx.trellis, rec))


@pytest.mark.parametrize("list_size", [5, 16, 40])
def test_list_sweep_matches_reference_beyond_the_subtrellis_count(ridx_block6, ridx_conv_m2, list_size):
    # lists longer than the number of subtrellises fill with stage-1 slots and
    # dead ones; batched and alone, the sweep still equals the lexsort reference
    for ridx in (ridx_block6, ridx_conv_m2):
        received = [random_received(ridx, seed=83, frame=f) for f in range(6)]
        received[::2] = [tb.ReceivedVector(r=np.round(rec.r)) for rec in received[::2]]
        weights = tb.edge_weights(ridx.trellis, tb.ReceivedVector(r=np.stack([rec.r for rec in received])))
        p1 = tb.phase1(ridx, weights)
        p2 = tb.phase2(ridx, weights, p1)
        batched = decoder._phase2_list(ridx, weights, p1, list_size, p2.participants)
        for row, rec in enumerate(received):
            alone = tb.edge_weights(ridx.trellis, rec)
            single = tb.phase1(ridx, alone)
            participants = tb.phase2(ridx, alone, single).participants
            ref = _lexsort_list_sweep(ridx, alone, single, list_size, participants)
            for ls in (_list_row(batched, row), decoder._phase2_list(ridx, alone, single, list_size, participants)):
                _same_arrays([ls.metric_finals, ls.dist_finals],
                             [ref.metric[-1][:, ridx.trellis.finals], ref.dist[-1][:, ridx.trellis.finals]])
                _same_arrays(ls.pred_edge, ref.pred_edge)
                _same_arrays(ls.pred_rank, ref.pred_rank)
                assert ls.comparisons == ref.comparisons


def _padded_ridx():
    """Three starts and finals with 1-3 in-edges per vertex, so both sections pad their in-edge rows."""
    edge_lists = [  # (from, to, label); i -> i at each index keeps a codeword in every subtrellis
        [(0, 0, 0), (1, 0, 1), (1, 1, 0), (2, 1, 1), (0, 1, 1), (2, 2, 0)],
        [(0, 0, 1), (2, 0, 0), (1, 1, 1), (0, 1, 0), (2, 2, 1)],
    ]
    return tb.build_reach_index(tb.Trellis.from_edge_lists(1, [3, 3, 3], edge_lists, [0, 1, 2], [0, 1, 2]))


def _selection_cases(rows, list_size):
    """Which edge cases the recorded (metrics, subtrellises) slot rows of a list sweep reached."""
    seen = set()
    for cand, ids in rows:
        live = np.isfinite(cand)
        n = live.sum(axis=1)
        seen |= {name for name, hit in (("all dead", n == 0), ("one live", n == 1),
                                          ("fewer live than L", (0 < n) & (n < list_size))) if hit.any()}
        for c, i, m in zip(cand, ids, live):
            if m.sum() < 2:
                continue
            c, i = c[m], i[m]
            same, equal = i[:, None] == i, c[:, None] == c
            if (i == i[0]).all():
                seen.add("one subtrellis")
            if (same & equal & ~np.eye(len(i), dtype=bool)).any():
                seen.add("tie within")
            if (~same & equal).any():
                seen.add("tie across")
    return seen


@pytest.mark.parametrize("list_size", sorted({2, 3, decoder.LIST_ROUNDS_MAX - 1, decoder.LIST_ROUNDS_MAX + 1}))
def test_list_selection_edge_cases(monkeypatch, ridx_block6, ridx_conv_m2, list_size):
    # rows forced into every selection case, on block6 (in-degree 2 and 1), conv-m2 and a
    # trellis with padded in-edge rows, in batches of 1 and 7, at both sides of the
    # rounds/sorts crossover: every ListState field and the list decision equal the
    # lexsort reference, empty entries (pred 0, finals inf) included
    rows = []
    for name in ("_first_min_rounds", "_sorted_picks"):
        monkeypatch.setattr(decoder, name, lambda cand, ids, *args, _f=getattr(decoder, name): (
            rows.append((cand.copy(), ids.copy())) or _f(cand, ids, *args)))
    for ridx in (ridx_block6, ridx_conv_m2, _padded_ridx()):
        t, sections = ridx.t, len(ridx.trellis.sections)
        received = [random_received(ridx, seed=97, frame=f).r for f in range(7)]
        raw = [tb.edge_weights(ridx.trellis, tb.ReceivedVector(r=r)).sections for r in received]
        rounded = [tb.edge_weights(ridx.trellis, tb.ReceivedVector(r=np.round(r))).sections for r in received]
        zero = [np.zeros(n) for n in ridx.trellis.edge_counts]
        everyone, nobody, one = np.ones(t, bool), np.zeros(t, bool), np.arange(t) == 0
        frames = [  # (weights, participants)
            (zero, nobody),  # every slot dead
            (zero, everyone),  # all metrics equal, within and across subtrellises
            (zero, one),  # one live slot, all live slots in one subtrellis, fewer live slots than L
            (rounded[3], everyone),  # ties
            (raw[4], np.arange(t) == t - 1),
            (rounded[5], np.arange(t) < 2),
            (raw[6], everyone),
        ]
        weights = tb.WeightAssignment(sections=[np.stack([w[p] for w, _ in frames]) for p in range(sections)])
        participants = np.stack([part for _, part in frames])
        p1 = tb.phase1(ridx, weights)
        rows.clear()
        batched = decoder._phase2_list(ridx, weights, p1, list_size, participants)
        walks = decoder._Walks()
        scalar = decoder._final_decisions(ridx, weights, p1, tb.phase2(ridx, weights, p1), walks)
        decided = decoder._list_decisions(batched, scalar, walks)
        walks.run(ridx)
        empty = 0
        for f, part in enumerate(participants):
            alone = weights.frame(f)
            ref = _lexsort_list_sweep(ridx, alone, p1.frame(f), list_size, part)
            for ls in (_list_row(batched, f), decoder._phase2_list(ridx, alone, p1.frame(f), list_size, part)):
                _same_arrays([ls.metric_finals, ls.dist_finals],
                             [ref.metric[-1][:, ridx.trellis.finals], ref.dist[-1][:, ridx.trellis.finals]])
                _same_arrays(ls.pred_edge, ref.pred_edge)
                _same_arrays(ls.pred_rank, ref.pred_rank)
                assert type(ls.comparisons) is int and ls.comparisons == ref.comparisons
            dead = ~np.isfinite(ref.metric[-1][:, ridx.trellis.finals])
            assert np.isinf(_list_row(batched, f).dist_finals[dead]).all()
            empty += dead.sum()
            _same_outcome(decided[f], _reference_list_outcome(ridx, alone, scalar[f], ref))
        assert empty > 0
        assert _selection_cases(rows, list_size) == {
            "all dead", "one live", "fewer live than L", "one subtrellis", "tie within", "tie across"}


def test_phase2_dead_entries_have_no_path(ridx_block6):
    # inf edge weights without pruning, on padded in-edge rows: some participants
    # start at an inf final cost and some vertices no live candidate reaches;
    # batched and alone, every entry with metric inf has dist inf, trellis -1 and
    # pred edge 0, and every other entry is the one-frame sweep's
    started_dead = dead = 0
    for ridx in (_padded_ridx(), ridx_block6):
        rng = np.random.default_rng(11)
        sections = [rng.normal(size=(8, n)) for n in ridx.trellis.edge_counts]
        for w in sections:
            w[rng.random(w.shape) < 0.3] = np.inf
        weights = tb.WeightAssignment(sections=sections)
        p1 = tb.phase1(ridx, weights)
        batched = tb.phase2(ridx, weights, p1, participation_prune=False)
        for f in range(len(sections[0])):
            alone = tb.phase2(ridx, weights.frame(f), p1.frame(f), participation_prune=False)
            started_dead += (alone.participants & np.isinf(p1.frame(f).delta_finals)).sum()
            for p2 in (alone, batched.frame(f)):
                for p, metric in enumerate(p2.metric):
                    gone = np.isinf(metric)
                    assert np.isfinite(metric[~gone]).all() and np.isinf(p2.dist[p][gone]).all()
                    assert (p2.trellis[p][gone] == -1).all() and (p2.trellis[p][~gone] >= 0).all()
                    assert p == 0 or (p2.pred_edge[p - 1][gone] == 0).all()
                    dead += gone.sum()
            _same_phase2(batched.frame(f), alone)
            for name in ("metric", "trellis", "dist", "pred_edge"):  # the whole batch's arrays, row f
                _same_arrays([a[f] for a in getattr(batched, name)], getattr(alone, name))
    assert started_dead > 0 and dead > 0


@pytest.mark.parametrize("list_size", [2, 3])
def test_list_liveness_follows_the_path_dist(list_size):
    # inf edge weights without pruning: a participant whose phase-1 final cost is inf
    # starts dead, and a vertex no finite path reaches computes inf - inf on every
    # slot; liveness by path dist keeps the entries the old metric test kept, so the
    # sweep equals the lexsort reference, and no RuntimeWarning is raised
    ridx = tb.build_reach_index(_square_trellis())
    inf = np.inf
    # edge order: s0->a, s1->a, s0->b, s1->b, then a->f0, b->f0, a->f1, b->f1
    cases = [
        ([inf, 0.0, inf, inf], [inf] * 4),  # both finals cost inf; final 0 crossed, so it starts dead
        ([0.0, 0.0, 1.0, 2.0], [inf, inf, 0.0, 3.0]),  # f0 is reached at inf only
        ([1.0, inf, 0.0, 2.0], [0.0, inf, 1.0, 0.0]),
    ]
    started_dead = 0
    for first, second in cases:
        weights = tb.WeightAssignment(sections=[np.array(first), np.array(second)])
        names = ("two-phase-L1", f"two-phase-L{list_size}")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            p1 = tb.phase1(ridx, weights)
            participants = tb.phase2(ridx, weights, p1, participation_prune=False).participants
            ls = decoder._phase2_list(ridx, weights, p1, list_size, participants)
            one = tb.decode_frame(ridx, weights, names, participation_prune=False)
        started_dead += (participants & ~np.isfinite(p1.delta_finals)).sum()
        with np.errstate(invalid="ignore"):  # the reference computes the masked inf - inf lanes
            ref = _lexsort_list_sweep(ridx, weights, p1, list_size, participants)
        _same_arrays([ls.metric_finals, ls.dist_finals],
                     [ref.metric[-1][:, ridx.trellis.finals], ref.dist[-1][:, ridx.trellis.finals]])
        _same_arrays(ls.pred_edge, ref.pred_edge)
        _same_arrays(ls.pred_rank, ref.pred_rank)
        assert ls.comparisons == ref.comparisons
        if one.p2 is not None:  # phase 1 left the frame open
            _same_outcome(one.outcomes[names[1]], _reference_list_outcome(ridx, weights, one.outcomes[names[0]], ref))
    assert started_dead > 0


def test_phase2_arrays_are_decoded_only_when_read(monkeypatch, ridx_conv_m2):
    # deciding reads phase 2's finals only: a batch and a simulate run decode none
    # of its per-index arrays, and a trace, which prints and audits them, decodes
    # them once if phase 1 left its frame open
    decodes = []
    arrays = decoder._phase2_arrays
    monkeypatch.setattr(decoder, "_phase2_arrays", lambda p2: decodes.append(p2) or arrays(p2))
    ridx = ridx_conv_m2
    samples = np.stack([random_received(ridx, seed=89, frame=f).r for f in range(40)])
    decoded = list(tb.decode_frames(ridx, tb.edge_weights(ridx.trellis, tb.ReceivedVector(r=samples)),
                                    tb.DECODER_NAMES + ("two-phase-L3",)))
    assert sum(d.p2 is not None for d in decoded) > 1
    config = tb.SimConfig(code="toy-conv-m2-l8", ebn0_db=(1.0,), frames=40, seed=5, decoders=tb.DECODER_NAMES)
    tb.run_monte_carlo(config)
    assert decodes == []
    traced = 0
    for frame in range(20):
        _, text = tb.trace_frame(config, frame, list_size=2)
        traced += "phase=2 " in text
        assert len(decodes) == traced
    assert traced > 0


def test_list_pred_arrays_are_decoded_only_for_a_returned_candidate(monkeypatch, ridx_conv_m2):
    # the list sweep keeps each entry's slot; a pass decodes its pred arrays once
    # if it returns a list candidate, and never if every list candidate loses
    ridx = ridx_conv_m2
    names = ("two-phase-L1", "two-phase-L2")
    returned, lost = [], []
    for frame in range(100):
        rec = random_received(ridx, seed=89, frame=frame)
        d = tb.decode_frame(ridx, tb.edge_weights(ridx.trellis, rec), names)
        if d.p2 is not None:
            single, listed = (d.outcomes[name] for name in names)
            (returned if listed.weight < single.weight or single.stage == "fallback" else lost).append(rec.r)
    assert len(returned) >= 2 and len(lost) >= 2
    decodes = []
    list_preds = decoder._list_preds
    monkeypatch.setattr(decoder, "_list_preds", lambda ls: decodes.append(ls) or list_preds(ls))
    for samples, expected in ((lost[:1], 0), (lost, 0), (returned[:1], 1), (returned[:2] + lost, 1)):
        weights = tb.edge_weights(ridx.trellis, tb.ReceivedVector(r=np.stack(samples)))
        decodes.clear()
        decoded = list(tb.decode_frames(ridx, weights, names))
        assert len(decodes) == expected
        assert sum(d.outcomes[names[1]].stage == "phase2" and d.outcomes[names[1]].weight < d.outcomes[names[0]].weight
                   for d in decoded) == min(len(samples), 2) * expected
