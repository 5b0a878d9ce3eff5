"""Monte-Carlo driver, serialization, tracing, and CLI tests."""

import json
import os
import subprocess
import sys
import weakref
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import tbtdec as tb
from tbtdec import cli, decoder, diagnostics, montecarlo
from tbtdec.decoder import phase1
from tbtdec.montecarlo import CSV_HEADER, build_context, frame_streams


def _config(**kw):
    base = dict(
        code="toy-conv-m2-l8",
        ebn0_db=(1.0, 3.0),
        frames=200,
        seed=5,
        decoders=("two-phase-L1", "two-phase-L2", "exact-ml", "phase1-only"),
    )
    base.update(kw)
    return tb.SimConfig(**base)


def test_csv_header_frozen():
    assert CSV_HEADER == (
        "ebn0_db,decoder,frames,bit_errors,frame_errors,ber,fer,"
        "ml_mismatches,phase1_stops,fallbacks,avg_comparisons"
    )


def test_emit_and_parse_roundtrip(tmp_path):
    rows = tb.run_monte_carlo(_config(frames=50))
    path = tmp_path / "out.csv"
    text = tb.emit_results(rows, str(path), comments=("code=toy-conv-m2-l8", "seed=5"))
    assert path.read_text() == text
    assert text.splitlines()[0] == "# code=toy-conv-m2-l8"
    assert text.splitlines()[2] == CSV_HEADER
    parsed = tb.parse_results(text)
    assert len(parsed) == len(rows)
    for a, b in zip(parsed, rows):
        assert a.decoder == b.decoder
        assert a.frames == b.frames
        assert a.bit_errors == b.bit_errors
        assert a.frame_errors == b.frame_errors
        assert a.ml_mismatches == b.ml_mismatches
        assert a.ber == pytest.approx(b.ber, rel=1e-5)


def test_rows_ordered_by_point_then_decoder():
    rows = tb.run_monte_carlo(_config(frames=20))
    expected = [
        (e, d)
        for e in (1.0, 3.0)
        for d in ("two-phase-L1", "two-phase-L2", "exact-ml", "phase1-only")
    ]
    assert [(r.ebn0_db, r.decoder) for r in rows] == expected


def test_same_seed_reproduces_byte_identical_csv():
    a = tb.emit_results(tb.run_monte_carlo(_config(frames=80)))
    b = tb.emit_results(tb.run_monte_carlo(_config(frames=80)))
    assert a == b


def test_worker_count_invariance():
    base = _config(frames=120, workers=1)
    split = _config(frames=120, workers=3)
    assert tb.emit_results(tb.run_monte_carlo(base)) == tb.emit_results(
        tb.run_monte_carlo(split)
    )


def test_noiseless_point_has_zero_errors():
    rows = tb.run_monte_carlo(_config(ebn0_db=(40.0,), frames=25))
    for r in rows:
        assert r.bit_errors == 0
        assert r.frame_errors == 0
        assert r.ber == 0.0
        assert r.fer == 0.0
        if r.decoder != "exact-ml":
            assert r.ml_mismatches == 0


def test_exact_ml_never_counts_mismatches():
    rows = tb.run_monte_carlo(_config(frames=60, ebn0_db=(0.5,)))
    by = {r.decoder: r for r in rows}
    assert by["exact-ml"].ml_mismatches == 0
    assert by["two-phase-L2"].ml_mismatches <= by["two-phase-L1"].ml_mismatches


def test_error_ordering_moderate_noise():
    rows = tb.run_monte_carlo(_config(frames=400, ebn0_db=(2.0,)))
    by = {r.decoder: r for r in rows}
    assert by["exact-ml"].frame_errors <= by["two-phase-L1"].frame_errors
    assert by["two-phase-L2"].frame_errors <= by["two-phase-L1"].frame_errors
    assert by["phase1-only"].frame_errors >= by["two-phase-L1"].frame_errors
    assert by["two-phase-L1"].avg_comparisons <= 2 * 64  # two sweeps of the trellis
    assert by["phase1-only"].phase1_stops <= 400


def test_genie_zero_sends_all_zero(tmp_path):
    log = tmp_path / "mismatch.jsonl"
    config = _config(
        code="toy-block-n8-k4-c1",
        ebn0_db=(1.0,),
        frames=1500,
        seed=101,
        genie_zero=True,
        decoders=("two-phase-L1", "exact-ml"),
        mismatch_log=str(log),
    )
    rows = tb.run_monte_carlo(config)
    by = {r.decoder: r for r in rows}
    if by["two-phase-L1"].ml_mismatches:
        lines = log.read_text().splitlines()
        assert len(lines) == by["two-phase-L1"].ml_mismatches
        for line in lines:
            rep = tb.MismatchReport.from_json(line)
            assert rep.decoder == "two-phase-L1"
            assert rep.crossing_witness is not None
            assert rep.semi_witness is not None


def test_block_frame_errors_count_codeword_bits():
    ctx = build_context("toy-block-n8-k4-c1")
    assert ctx.error_bits == "codeword"
    assert build_context("toy-conv-m2-l8").error_bits == "message"


def test_frame_streams_disjoint():
    seen = set()
    for point in range(3):
        for frame in range(50):
            noise, msg = frame_streams(point, frame)
            assert noise != msg
            assert noise not in seen and msg not in seen
            seen.add(noise)
            seen.add(msg)


def test_frame_streams_reject_frames_outside_32_bits():
    # 2**32 would collide with frame 0 of the next Eb/N0 point
    assert frame_streams(0, 2**32 - 1) != frame_streams(1, 0)
    for frame in (-1, 2**32):
        with pytest.raises(tb.ToolkitError):
            frame_streams(0, frame)
    with pytest.raises(tb.ToolkitError):
        tb.run_monte_carlo(_config(frames=2**32 + 1))


def test_frame_streams_reject_point_indices_outside_31_bits():
    # stream ids are keyed as 64 bits: point 2**31 would draw point 0's noise
    # and a negative index would wrap onto another point's streams
    for point in (2**31, -1):
        with pytest.raises(tb.ToolkitError):
            frame_streams(point, 0)
    noise, msg = frame_streams(2**31 - 1, 2**32 - 1)
    assert msg == noise + 1 == 2**64 - 1


def test_rerun_replaces_mismatch_log(tmp_path):
    log = tmp_path / "mismatch.jsonl"
    config = _config(ebn0_db=(1.0,), frames=60, decoders=("phase1-only", "exact-ml"),
                     mismatch_log=str(log))
    rows = tb.run_monte_carlo(config)
    first = log.read_text()
    assert len(first.splitlines()) == rows[0].ml_mismatches > 0
    tb.run_monte_carlo(config)
    assert log.read_text() == first
    # a run without mismatches leaves an empty log, not the old one
    tb.run_monte_carlo(_config(ebn0_db=(40.0,), frames=5, mismatch_log=str(log)))
    assert log.read_text() == ""


def test_weight_tie_with_exact_ml_counts_as_mismatch(monkeypatch, tmp_path):
    # r = (-1, 0, 0, 0) gives the codewords 1100 and 1001 the same weight 3;
    # two-phase and exact ML break that tie differently, and the decoder's
    # different codeword is counted and logged although it is no heavier.
    received = tb.ReceivedVector(r=np.array([-1.0, 0.0, 0.0, 0.0]))

    def tied_frames(ctx, seed, sigma2, points, frames, genie_zero):
        msgs = np.zeros((len(frames), ctx.spec.k), dtype=np.uint8)
        sent = np.zeros((len(frames), ctx.spec.n), dtype=np.uint8)
        return msgs, sent, tb.ReceivedVector(r=np.tile(received.r, (len(frames), 1)))

    monkeypatch.setattr(montecarlo, "_make_frames", tied_frames)
    log = tmp_path / "mismatch.jsonl"
    rows = tb.run_monte_carlo(_config(code="toy-block-n4-k2-c1", ebn0_db=(2.0,), frames=1,
                                      decoders=("two-phase-L1", "exact-ml"), mismatch_log=str(log)))
    assert rows[0].ml_mismatches == 1
    report = tb.MismatchReport.from_json(log.read_text())
    assert report.out_weight == report.ml_weight == 3.0
    assert report.out_subtrellis != report.ml_subtrellis


def test_one_process_pool_per_run(monkeypatch):
    opened = []

    class CountingPool(ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            opened.append(kwargs.get("max_workers"))
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(montecarlo, "ProcessPoolExecutor", CountingPool)
    config = _config(ebn0_db=(1.0, 2.0, 3.0), frames=10, decoders=("two-phase-L1",))
    rows = tb.run_monte_carlo(replace(config, workers=2))
    assert opened == [2]
    assert tb.emit_results(rows) == tb.emit_results(tb.run_monte_carlo(config))


def test_batch_size_leaves_csv_and_log_unchanged(monkeypatch, tmp_path):
    # batches of 3 frames (a non-divisor of every chunk) at 1, 2 and 3 workers
    # give the same bytes as one batch per chunk
    config = _config(code="toy-block-n6-k3-c2", ebn0_db=(0.5, 2.0), frames=40)
    runs = {}
    for cap, workers in ((None, 1), (3, 1), (3, 2), (3, 3)):
        if cap is not None:
            monkeypatch.setattr(montecarlo, "batch_frames", lambda ridx: cap)
        log = tmp_path / f"mismatch-{cap}-{workers}.jsonl"
        rows = tb.run_monte_carlo(replace(config, workers=workers, mismatch_log=str(log)))
        runs[cap, workers] = (tb.emit_results(rows), log.read_text())
    assert sum(r.ml_mismatches for r in tb.parse_results(runs[None, 1][0])) > 0
    assert all(run == runs[None, 1] for run in runs.values())


def test_simulate_decodes_in_batches_of_the_cap(monkeypatch):
    sizes = []

    def counting(ridx, weights):
        sizes.append(len(weights.sections[0]))
        return phase1(ridx, weights)

    monkeypatch.setattr(decoder, "phase1", counting)
    monkeypatch.setattr(montecarlo, "batch_frames", lambda ridx: 3)
    tb.run_monte_carlo(_config(ebn0_db=(2.0,), frames=10))
    assert sizes == [3, 3, 3, 1]


def test_pooled_open_frames_leave_csv_and_log_unchanged(monkeypatch, tmp_path):
    # batches and open-frame pools of 3 (so most passes mix the open frames
    # of several batches and some batches straddle two passes), at 1 and 2
    # workers, give the bytes of one batch per chunk
    config = _config(ebn0_db=(1.0, 3.0), frames=50)
    runs = {}
    for cap, workers in ((None, 1), (3, 1), (3, 2)):
        if cap is not None:
            monkeypatch.setattr(montecarlo, "batch_frames", lambda ridx: cap)
            monkeypatch.setattr(decoder, "batch_frames", lambda ridx: cap)
        log = tmp_path / f"mismatch-{cap}-{workers}.jsonl"
        rows = tb.run_monte_carlo(replace(config, workers=workers, mismatch_log=str(log)))
        runs[cap, workers] = (tb.emit_results(rows), log.read_text())
    assert sum(r.ml_mismatches for r in tb.parse_results(runs[None, 1][0])) > 0
    assert all(run == runs[None, 1] for run in runs.values())


def test_no_batch_sweep_outlives_its_tally(monkeypatch):
    # settled frames are tallied as soon as their batch is swept and the
    # pool keeps copies of the open rows, so when phase 1 sweeps a batch no
    # earlier batch's sweep is alive any more
    alive = []

    def recording(ridx, weights):
        assert all(sweep() is None for sweep in alive)
        p1 = phase1(ridx, weights)
        alive.append(weakref.ref(p1))
        return p1

    monkeypatch.setattr(decoder, "phase1", recording)
    monkeypatch.setattr(montecarlo, "batch_frames", lambda ridx: 3)
    monkeypatch.setattr(decoder, "batch_frames", lambda ridx: 3)
    rows = tb.run_monte_carlo(_config(ebn0_db=(1.0, 3.0), frames=40))
    assert len(alive) == 27  # one stream of 80 frames in batches of 3
    assert 0 < rows[0].phase1_stops < rows[0].frames  # both settled and open frames


def test_multi_point_run_equals_its_one_point_runs(monkeypatch, tmp_path):
    # a worker's share of a run is one stream across Eb/N0 points, so batches
    # and pools mix points; at caps 3 and 7 batches straddle point boundaries,
    # and at 2 workers a share ends inside a point.  Each point's CSV rows and
    # log lines still equal a one-point run that draws that point's streams.
    config = _config(ebn0_db=(0.5, 1.5, 3.0), frames=25, seed=5)
    make_frames = montecarlo._make_frames
    single_csv, single_logs = [], []
    for k, ebn0 in enumerate(config.ebn0_db):
        with monkeypatch.context() as patch:
            patch.setattr(montecarlo, "_make_frames", lambda ctx, seed, sigma2, points, frames, genie_zero, k=k:
                          make_frames(ctx, seed, sigma2, points + k, frames, genie_zero))
            log = tmp_path / f"point-{k}.jsonl"
            single_csv += tb.run_monte_carlo(replace(config, ebn0_db=(ebn0,), mismatch_log=str(log)))
            single_logs += [(k, line) for line in log.read_text().splitlines()]
    assert len({k for k, _ in single_logs}) > 1  # the merge interleaves several points' reports
    single_logs.sort(key=lambda item: (item[0], json.loads(item[1])["frame"], json.loads(item[1])["decoder"]))
    expected = (tb.emit_results(single_csv), "".join(line + "\n" for _, line in single_logs))
    for cap in (None, 3, 7):
        if cap is not None:
            monkeypatch.setattr(montecarlo, "batch_frames", lambda ridx: cap)
            monkeypatch.setattr(decoder, "batch_frames", lambda ridx: cap)
        for workers in (1, 2, 3):
            log = tmp_path / f"mismatch-{cap}-{workers}.jsonl"
            rows = tb.run_monte_carlo(replace(config, workers=workers, mismatch_log=str(log)))
            assert (tb.emit_results(rows), log.read_text()) == expected, (cap, workers)


def test_simulate_batches_span_eb_n0_points(monkeypatch):
    # 2 points x 10 frames in batches of 4: the third batch holds frames 8
    # and 9 of the first point and frames 0 and 1 of the second
    sizes = []

    def counting(ridx, weights):
        sizes.append(len(weights.sections[0]))
        return phase1(ridx, weights)

    monkeypatch.setattr(decoder, "phase1", counting)
    monkeypatch.setattr(montecarlo, "batch_frames", lambda ridx: 4)
    tb.run_monte_carlo(_config(ebn0_db=(1.0, 3.0), frames=10))
    assert sizes == [4, 4, 4, 4, 4]


def test_a_batch_draws_its_frames_in_two_philox_calls(monkeypatch):
    # 3 points x 5 frames in batches of 7: the first two batches span two
    # points each, and every batch draws all its message streams in one
    # Philox pass and all its noise streams in another; each row is still
    # the frame drawn alone with its own point's channel
    ctx = build_context("toy-conv-m2-l8")
    channels = [tb.ChannelParams(ebn0_db=e, rate=ctx.rate, seed=5) for e in (1.0, 2.0, 3.0)]
    points, frames = [0, 0, 1, 2, 2], [3, 4, 0, 1, 9]
    sigma2 = np.array([channels[p].sigma2 for p in points])
    batched = montecarlo._make_frames(ctx, 5, sigma2, points, frames, False)
    for row, (point, f) in enumerate(zip(points, frames)):
        alone = montecarlo._make_frame(ctx, channels[point], point, f, False)
        for a, b in zip((batched[0], batched[1], batched[2].r), (alone[0], alone[1], alone[2].r)):
            assert a[row].dtype == b.dtype and np.array_equal(a[row], b)
    calls = []
    philox = tb.channel._philox
    monkeypatch.setattr(tb.channel, "_philox", lambda seed, streams, count: calls.append(len(streams))
                        or philox(seed, streams, count))
    monkeypatch.setattr(montecarlo, "batch_frames", lambda ridx: 7)
    tb.run_monte_carlo(_config(ebn0_db=(1.0, 2.0, 3.0), frames=5, decoders=("two-phase-L1",)))
    assert calls == [7, 7, 7, 7, 1, 1]


def test_simulate_builds_no_per_edge_weights(monkeypatch, tmp_path):
    # every sweep of simulate, the mismatch reports' all-pairs tables
    # included, gathers each section's weights from the label table, so no
    # run builds the (F, E) per-edge arrays of WeightAssignment.sections
    built = []
    sections = tb.WeightAssignment.sections
    monkeypatch.setattr(tb.WeightAssignment, "sections", property(lambda self: built.append(self) or sections.func(self)))
    log = tmp_path / "mismatch.jsonl"
    rows = tb.run_monte_carlo(_config(code="mem6-circle48", ebn0_db=(1.0, 4.0), frames=30, seed=7, mismatch_log=str(log)))
    assert rows[0].phase1_stops < rows[0].frames and log.read_text()  # open frames and mismatch reports
    assert not built


def test_batch_byte_model_counts_what_a_batch_keeps(monkeypatch):
    # a mem6 batch holds at least 80 frames, and the per-frame bytes of
    # batch_frames' model are within 10% of what a real batch keeps: its
    # phase-1 arrays and its weights' values, with no survivor per vertex
    ctx = build_context("mem6-circle48")
    ridx = ctx.ridx
    size = decoder.batch_frames(ridx)
    assert size >= 80
    params = tb.ChannelParams(ebn0_db=4.0, rate=ctx.rate, seed=5)
    sigma2 = np.full(size, params.sigma2)
    received = montecarlo._make_frames(ctx, params.seed, sigma2, [0] * size, range(size), False)[2]
    weights = tb.edge_weights(ridx.trellis, received)
    p1 = phase1(ridx, weights)
    assert "surv" not in vars(p1)
    kept = sum(a.nbytes for a in p1.cost + p1.pred_edge + [p1.delta_finals, p1.surv_finals, weights.values])
    monkeypatch.setattr(decoder, "PHASE1_BATCH_BYTES", 10**9)
    modelled = 10**9 / decoder.batch_frames(ridx)
    assert abs(kept / size - modelled) <= 0.1 * modelled


def test_simulate_passes_hold_fewer_open_frames_than_a_batch(monkeypatch):
    # a pass keeps list state per open frame that a phase-1 batch does not,
    # so a low-SNR mem6 run, whose 80-frame batches leave most frames open,
    # decides them in passes of pool_frames (20) frames
    ridx = build_context("mem6-circle48").ridx
    cap = decoder.pool_frames(ridx)
    assert cap == 20 < decoder.batch_frames(ridx)
    passes = []
    decode_open = decoder._decode_open

    def recording(ridx, weights, p1, *args):
        passes.append(p1.delta_finals.shape[0])
        return decode_open(ridx, weights, p1, *args)

    monkeypatch.setattr(decoder, "_decode_open", recording)
    tb.run_monte_carlo(_config(code="mem6-circle48", ebn0_db=(0.0,), frames=90, decoders=("two-phase-L1",)))
    assert sum(passes) > 2 * cap
    assert max(passes) == cap and passes[:-1] == [cap] * (len(passes) - 1)


@pytest.mark.parametrize("genie_zero", [False, True])
@pytest.mark.parametrize("code", ["mem4-circle20", "toy-block-n6-k3-c2"])
def test_batched_frames_equal_numpy_generator_frames(code, genie_zero):
    # a batch's messages, codewords and samples, drawn in one call, equal
    # each frame built alone from numpy Generators on its two streams
    ctx = build_context(code)
    params = tb.ChannelParams(ebn0_db=2.0, rate=ctx.rate, seed=2**63 + 3)
    frames = [0, 1, 7, 2**32 - 1]
    sigma2 = np.full(len(frames), params.sigma2)
    msgs, words, received = montecarlo._make_frames(ctx, params.seed, sigma2, [5] * len(frames), frames, genie_zero)
    encode = tb.encode_conv_tailbiting if ctx.error_bits == "message" else tb.encode_block

    def generator(stream):
        # an explicit uint64 key: numpy turns the list [2**63 + 3, stream] into float64
        return np.random.Generator(np.random.Philox(key=np.array([params.seed, stream], dtype=np.uint64)))

    for k, frame in enumerate(frames):
        noise_stream, msg_stream = frame_streams(5, frame)
        msg = generator(msg_stream).integers(0, 2, size=ctx.spec.k, dtype=np.uint8)
        if genie_zero:
            msg = np.zeros_like(msg)
        u = generator(noise_stream).random((2, ctx.spec.n // 2))
        radius, angle = np.sqrt(-2.0 * np.log1p(-u[0])), 2.0 * np.pi * u[1]
        noise = np.concatenate([radius * np.cos(angle), radius * np.sin(angle)])
        r = tb.bpsk_modulate(encode(ctx.spec, msg)) + np.sqrt(params.sigma2) * noise
        assert np.array_equal(msgs[k], msg) and np.array_equal(words[k], encode(ctx.spec, msg))
        assert received.r[k].tobytes() == r.tobytes()
        one = montecarlo._make_frame(ctx, params, 5, frame, genie_zero)
        assert np.array_equal(one[0], msg) and np.array_equal(one[1], words[k])
        assert one[2].r.tobytes() == r.tobytes()


def test_check_lemmas_builds_one_cost_table_per_frame(monkeypatch, capsys):
    calls = []

    def counting(ridx, weights):
        calls.append(1)
        return tb.parallel_start_costs(ridx, weights)

    monkeypatch.setattr(decoder, "parallel_start_costs", counting)
    monkeypatch.setattr(diagnostics, "parallel_start_costs", counting)
    assert cli.main(["check-lemmas", "--code", "toy-block-n6-k3-c2", "--frames", "20"]) == 0
    assert "FAIL" not in capsys.readouterr().out
    assert len(calls) == 20


def test_simulate_builds_cost_tables_only_for_mismatch_frames(monkeypatch, tmp_path):
    # exact ML decides from phase 1's bounds and a few restricted sweeps; the
    # all-pairs table is built only for a mismatch's crossing witness
    calls = []

    def counting(ridx, weights):
        calls.append(1)
        return tb.parallel_start_costs(ridx, weights)

    monkeypatch.setattr(decoder, "parallel_start_costs", counting)
    log = tmp_path / "mismatch.jsonl"
    config = _config(ebn0_db=(1.0, 2.0), frames=60, mismatch_log=str(log))
    tb.run_monte_carlo(config)
    reports = [tb.MismatchReport.from_json(line) for line in log.read_text().splitlines()]
    mismatch_frames = {(r.ebn0_db, r.frame) for r in reports}
    assert 0 < len(mismatch_frames) < 120
    assert len(calls) == len(mismatch_frames)


def test_simulate_builds_no_report_without_a_log(monkeypatch):
    # reports are written to a named log only, so a run without one builds no
    # all-pairs table and no crossing witness, though it counts mismatches
    calls = []

    def counting(name, function):
        def wrapped(*args):
            calls.append(name)
            return function(*args)
        return wrapped

    monkeypatch.setattr(decoder, "parallel_start_costs", counting("table", tb.parallel_start_costs))
    monkeypatch.setattr(montecarlo, "crossing_pair_witness", counting("witness", tb.crossing_pair_witness))
    rows = tb.run_monte_carlo(_config(ebn0_db=(1.0, 2.0), frames=60))
    assert sum(row.ml_mismatches for row in rows) > 0
    assert calls == []


def test_simulate_keeps_one_cost_table_alive_at_a_time(monkeypatch, tmp_path):
    # a batch's mismatch reports are written frame by frame, and each frame's
    # decode, with its all-pairs table, is dropped before the next one's table
    # is built
    alive = []

    def recording(ridx, weights):
        assert all(table() is None for table in alive)
        costs = tb.parallel_start_costs(ridx, weights)
        alive.append(weakref.ref(costs[-1]))
        return costs

    monkeypatch.setattr(decoder, "parallel_start_costs", recording)
    config = _config(ebn0_db=(1.0,), frames=60, mismatch_log=str(tmp_path / "mismatch.jsonl"))
    tb.run_monte_carlo(config)
    assert len(alive) > 1


def test_duplicate_decoder_names_rejected(capsys):
    # one tally per name: a repeated name would count its frames twice
    with pytest.raises(tb.CatalogError, match="distinct"):
        tb.run_monte_carlo(_config(decoders=("exact-ml", "exact-ml")))
    rc = cli.main(["simulate", "--code", "toy-conv-m2-l8", "--decoders", "exact-ml,exact-ml",
                   "--frames", "2"])
    assert rc == 2
    assert "distinct" in capsys.readouterr().err


@pytest.mark.parametrize("point", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_ebn0_rejected(point):
    with pytest.raises(tb.ToolkitError, match="Eb/N0"):
        tb.run_monte_carlo(_config(ebn0_db=(1.0, point)))


@pytest.mark.parametrize("point", [float("nan"), float("inf"), float("-inf")])
def test_sim_config_rejects_non_finite_ebn0(point):
    # the check sits in SimConfig, so trace_frame names Eb/N0 too, not the samples
    with pytest.raises(tb.ToolkitError, match="Eb/N0"):
        tb.trace_frame(_config(code="toy-block-n4-k2-c1", ebn0_db=(point,)), 0)


@pytest.mark.parametrize(
    "command, ebn0, message",
    [
        ("simulate", "abc", "not a comma-separated list"),
        ("simulate", "1,,2", "not a comma-separated list"),
        ("simulate", "nan", "must be finite"),
        ("simulate", "1,inf", "must be finite"),
        ("decode-frame", "abc", "not a comma-separated list"),
        ("decode-frame", "2,3", "single dB value"),
        ("check-lemmas", "2,3", "single dB value"),
        ("check-lemmas", "inf", "must be finite"),
    ],
)
def test_cli_rejects_bad_ebn0(capsys, command, ebn0, message):
    frames = [] if command == "decode-frame" else ["--frames", "2"]
    rc = cli.main([command, "--code", "toy-block-n4-k2-c1", "--ebn0", ebn0, *frames])
    assert rc == 2
    err = capsys.readouterr().err
    assert "--ebn0" in err and message in err


def test_cli_reports_a_missing_generator_file(capsys, tmp_path):
    missing = tmp_path / "missing.gen"
    rc = cli.main(["simulate", "--gen-file", str(missing), "--ebn0", "1", "--frames", "2"])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error: ") and str(missing) in err and "Traceback" not in err


@pytest.mark.parametrize("flag", ["--out", "--mismatch-log"])
def test_simulate_checks_output_paths_before_decoding(monkeypatch, capsys, tmp_path, flag):
    # a path under a missing directory fails at once, not after the whole run
    chunks = []
    monkeypatch.setattr(montecarlo, "_run_chunk", lambda *args: chunks.append(args))
    bad = tmp_path / "no-such-dir" / "out"
    rc = cli.main(["simulate", "--code", "toy-conv-m2-l8", "--ebn0", "1", "--frames", "2", flag, str(bad)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error: ") and str(bad) in err
    assert not chunks


def test_run_checks_the_mismatch_log_path_before_decoding(monkeypatch, tmp_path):
    # a library caller's log under a missing directory fails before any frame
    # is decoded, not after the whole run
    def no_chunk(*args):
        raise AssertionError("a chunk ran before the log path was checked")

    monkeypatch.setattr(montecarlo, "_run_chunk", no_chunk)
    with pytest.raises(FileNotFoundError):
        tb.run_monte_carlo(_config(frames=2, mismatch_log=str(tmp_path / "no-such-dir" / "mismatch.jsonl")))


@pytest.mark.parametrize("frames", ["-5", "0"])
def test_check_lemmas_rejects_frames_below_one(capsys, frames):
    rc = cli.main(["check-lemmas", "--code", "toy-block-n4-k2-c1", "--frames", frames])
    out, err = capsys.readouterr()
    assert rc == 2
    assert err.startswith("error: ") and f"--frames {frames}" in err
    assert "PASS" not in out


def test_decode_frame_has_no_frames_option(capsys):
    # decode-frame replays the one frame --frame names; a frame count is an argparse error
    with pytest.raises(SystemExit) as exc:
        cli.main(["decode-frame", "--code", "toy-block-n4-k2-c1", "--frames", "3"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --frames 3" in capsys.readouterr().err


def test_main_reuses_one_parser(monkeypatch, capsys):
    # main builds its parser on first use and parses every later call with it;
    # a simulate, a decode-frame and a rejected --ebn0 in one process print
    # what fresh processes print and exit as they do
    runs = [
        ["simulate", "--code", "toy-conv-m2-l8", "--ebn0", "1,3", "--frames", "20", "--seed", "4",
         "--decoders", "two-phase-L1,exact-ml,phase1-only"],
        ["decode-frame", "--code", "toy-conv-m2-l8", "--ebn0", "2", "--frame", "3", "--seed", "4"],
        ["simulate", "--code", "toy-conv-m2-l8", "--ebn0", "abc", "--frames", "2"],
    ]
    src = str(Path(tb.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    fresh = [subprocess.run([sys.executable, "-m", "tbtdec.cli", *argv], capture_output=True, text=True, env=env)
             for argv in runs]
    built = []
    build_parser = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build_parser())
    cli._parser.cache_clear()
    for argv, proc in zip(runs, fresh):
        rc = cli.main(argv)
        out, err = capsys.readouterr()
        assert (rc, out, err) == (proc.returncode, proc.stdout, proc.stderr)
    assert [proc.returncode for proc in fresh] == [0, 0, 2]
    assert len(built) == 1
    assert cli.build_parser() is not cli.build_parser()  # the public builder still gives a fresh parser


def test_config_validation():
    with pytest.raises(tb.LengthMismatchError):
        tb.run_monte_carlo(_config(frames=0))
    with pytest.raises(tb.LengthMismatchError):
        tb.run_monte_carlo(_config(ebn0_db=()))
    with pytest.raises(tb.CatalogError):
        tb.run_monte_carlo(_config(decoders=("viterbi",)))
    with pytest.raises(tb.CatalogError):
        tb.run_monte_carlo(_config(code="no-such-code"))


# ---------------------------------------------------------------------------
# Tracing

def test_trace_matches_monte_carlo_outcome():
    config = _config(frames=3, ebn0_db=(2.0,), decoders=("two-phase-L1",))
    outcome, text = tb.trace_frame(config, frame=2)
    lines = text.splitlines()
    assert lines[0] == "frame=2 ebn0_db=2.0 seed=5 code=toy-conv-m2-l8"
    assert any(line.startswith("phase=1 v=0 ") for line in lines)
    assert any(line.startswith("outcome stage=") for line in lines)
    audit_lines = [line for line in lines if line.startswith("audit ")]
    assert len(audit_lines) == 1
    assert audit_lines[0].endswith("violations=0")
    # outcome must equal a fresh decode of the same frame
    outcome2, text2 = tb.trace_frame(config, frame=2)
    assert text == text2
    assert np.array_equal(outcome.codeword, outcome2.codeword)


def test_trace_rejects_a_point_index_outside_the_ebn0_list():
    # two Eb/N0 points: index 2 is past the list
    with pytest.raises(tb.ToolkitError, match="point index 2"):
        tb.trace_frame(_config(ebn0_db=(1.0, 3.0)), 0, point_idx=2)


def test_trace_golden_noiseless_toy_block():
    config = tb.SimConfig(
        code="toy-block-n4-k2-c1",
        ebn0_db=(40.0,),
        frames=1,
        seed=1,
        genie_zero=True,
    )
    _, text = tb.trace_frame(config, frame=0)
    lines = text.splitlines()
    assert lines[0] == "frame=0 ebn0_db=40.0 seed=1 code=toy-block-n4-k2-c1"
    out_line = [line for line in lines if line.startswith("outcome ")][0]
    assert "stage=phase1" in out_line
    assert "codeword=0000" in out_line


def test_trace_file_output(tmp_path):
    config = _config(frames=1, ebn0_db=(3.0,))
    path = tmp_path / "trace.txt"
    _, text = tb.trace_frame(config, frame=0, trace_path=str(path))
    assert path.read_text() == text


# ---------------------------------------------------------------------------
# CLI

def test_cli_simulate_writes_csv(tmp_path):
    out = tmp_path / "res.csv"
    rc = cli.main(
        [
            "simulate",
            "--code",
            "toy-conv-m2-l8",
            "--ebn0",
            "1,3",
            "--frames",
            "40",
            "--seed",
            "5",
            "--decoders",
            "two-phase-L1,exact-ml",
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    text = out.read_text()
    assert CSV_HEADER in text
    assert "# code=toy-conv-m2-l8" in text
    rows = tb.parse_results(text)
    assert {r.decoder for r in rows} == {"two-phase-L1", "exact-ml"}


def test_cli_simulate_stdout(capsys):
    rc = cli.main(
        ["simulate", "--code", "toy-block-n4-k2-c1", "--ebn0", "2", "--frames", "10"]
    )
    assert rc == 0
    assert CSV_HEADER in capsys.readouterr().out


def test_cli_generator_file_route(tmp_path, capsys):
    spec = tb.get_code("toy-block-n6-k3-c2").spec()
    gen = tmp_path / "code.gen"
    gen.write_text(tb.format_generator_file(spec))
    rc = cli.main(
        ["simulate", "--gen-file", str(gen), "--ebn0", "3", "--frames", "10"]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert CSV_HEADER in out


def test_cli_conv_taps_route(capsys):
    rc = cli.main(
        [
            "simulate",
            "--memory",
            "2",
            "--taps0",
            "111",
            "--taps1",
            "101",
            "--circle",
            "8",
            "--ebn0",
            "3",
            "--frames",
            "5",
        ]
    )
    assert rc == 0
    assert CSV_HEADER in capsys.readouterr().out


def test_cli_decode_frame(capsys):
    rc = cli.main(
        [
            "decode-frame",
            "--code",
            "toy-conv-m2-l8",
            "--ebn0",
            "2",
            "--frame",
            "0",
            "--seed",
            "5",
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "stage=" in out
    assert "codeword=" in out


def test_cli_dump_trellis(capsys):
    rc = cli.main(["dump-trellis", "--code", "toy-block-n4-k2-c1"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["v_counts"] == [2, 2, 1, 1, 2]
    assert len(doc["starts"]) == 2


def test_cli_check_lemmas_passes(capsys):
    rc = cli.main(
        ["check-lemmas", "--code", "toy-block-n6-k3-c2", "--frames", "50", "--seed", "3"]
    )
    out = capsys.readouterr().out
    assert rc == 0
    assert "PASS" in out
    assert "FAIL" not in out


def test_cli_rejects_conflicting_code_sources(capsys):
    rc = cli.main(
        [
            "simulate",
            "--code",
            "toy-block-n4-k2-c1",
            "--memory",
            "2",
            "--taps0",
            "111",
            "--taps1",
            "101",
            "--circle",
            "8",
            "--ebn0",
            "1",
            "--frames",
            "5",
        ]
    )
    assert rc == 2


def test_cli_unknown_code(capsys):
    rc = cli.main(["simulate", "--code", "nope", "--ebn0", "1", "--frames", "5"])
    assert rc == 2


def test_cli_unknown_code_lists_catalog(capsys):
    rc = cli.main(["simulate", "--code", "nope", "--ebn0", "1", "--frames", "5"])
    err = capsys.readouterr().err
    assert rc == 2
    for name in ("mem4-circle20", "mem6-circle48", "toy-block-n8-k4-c1"):
        assert name in err
