"""Hunt for frames where the two-phase decoder misses ML, then dissect them.

Every miss should come with two certificates: a start/final pair whose
crossing path ties or beats the best codeword, and a nonzero semi-codeword
whose flip pattern scores at least as well as the ML decision.
"""

import numpy as np

import tbtdec as tb

CODE = "toy-block-n8-k4-c1"
EBN0_DB = 1.0
SEED = 2024
FRAMES = 4000
SHOW = 3

ctx = tb.build_context(CODE)
params = tb.ChannelParams(ebn0_db=EBN0_DB, rate=ctx.rate, seed=SEED)
basis = tb.semi_codeword_basis(ctx.spec)

shown = 0
mismatches = 0
for frame in range(FRAMES):
    # Same stream layout the simulator uses, so any frame here can be
    # replayed later through the CLI trace path.
    noise_stream, msg_stream = tb.frame_streams(0, frame)
    message = tb.random_bits(SEED, msg_stream, ctx.spec.k)
    codeword = tb.encode_block(ctx.spec, message)
    received = tb.awgn_transmit(tb.bpsk_modulate(codeword), params, noise_stream)
    weights = tb.edge_weights(ctx.ridx.trellis, received)

    decoded = tb.decode_frame(ctx.ridx, weights, ("two-phase-L1", "exact-ml"))
    out, exact = decoded.outcomes["two-phase-L1"], decoded.outcomes["exact-ml"]
    if np.array_equal(out.codeword, exact.codeword):
        continue
    mismatches += 1
    if shown >= SHOW:
        continue
    shown += 1

    print(f"frame {frame}: two-phase missed ML by {out.weight - exact.weight:.4f}")
    print(f"  two-phase: {''.join(map(str, out.codeword))}  w={out.weight:.4f} stage={out.stage}")
    print(f"  exact ML : {''.join(map(str, exact.codeword))}  w={exact.weight:.4f}")

    # Certificate 1: the full start-to-final distance table, which exact ML
    # built.  A miss needs a crossing entry d[k, j] at or below the diagonal
    # ML entry d[i, i].
    table = decoded.table
    print("  distance table:")
    for k in range(table.d.shape[0]):
        print("   ", np.array2string(table.d[k], precision=3))
    pair = tb.crossing_pair_witness(table, exact.subtrellis)
    print(f"  crossing pair (start k, final j): {pair} vs ML subtrellis {exact.subtrellis}")

    # Certificate 2: an explicit semi-codeword at least as close to the
    # received vector as the ML codeword.
    report = tb.semi_codeword_witness(received, exact.codeword, ctx.spec, basis)
    if report.witness is None:
        print("  no semi-codeword witness within the search budget")
    else:
        flips = "".join(map(str, report.witness))
        print(f"  semi-codeword flip pattern {flips} "
              f"(start {report.start}, final {report.final}, "
              f"proper codeword: {report.witness_is_codeword})")
    print()

print(f"{mismatches} mismatch frames in {FRAMES} "
      f"({mismatches / FRAMES:.2%}) at {EBN0_DB} dB")
