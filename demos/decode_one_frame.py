"""Decode a single noisy frame and walk through what each stage did."""

import numpy as np

import tbtdec as tb

# build_context assembles trellis, reach index, and rate for a catalog name.
ctx = tb.build_context("toy-conv-m2-l8")
spec = ctx.spec

# Encode a message and push it through an AWGN channel at a fairly low SNR,
# so the first sweep has a real chance of crossing between boundary states.
rng = np.random.default_rng(7)
message = rng.integers(0, 2, size=spec.k, dtype=np.uint8)
codeword = tb.encode_conv_tailbiting(spec, message)
params = tb.ChannelParams(ebn0_db=2.0, rate=ctx.rate, seed=7)
received = tb.awgn_transmit(tb.bpsk_modulate(codeword), params, stream=17)
weights = tb.edge_weights(ctx.ridx.trellis, received)

print("message :", "".join(map(str, message)))
print("codeword:", "".join(map(str, codeword)))
print("received:", np.array2string(received.r, precision=2, suppress_small=True))

# One pipeline call decodes the frame with both decoders: phase 1 runs once,
# phase 2 only if phase 1 could not settle the frame.
decoded = tb.decode_frame(ctx.ridx, weights, ("two-phase-L1", "exact-ml"))

# Phase 1: one Viterbi-style sweep seeded from every boundary state at once.
p1 = decoded.p1
print("\nper-final first-sweep costs:", np.array2string(p1.delta_finals, precision=3))
best = int(np.argmin(p1.delta_finals))
own = int(p1.surv_finals[best]) == best
print(f"cheapest final: {best}  survivor came from its own start: {own}")
if not own:
    print("-> the winning path crossed, so a second restricted sweep runs")

# The two-phase decision: both sweeps, traceback, and the early-stop test.
out = decoded.outcomes["two-phase-L1"]
print(f"\ndecoded  : {''.join(map(str, out.codeword))}  stage={out.stage}")
print(f"weight={out.weight:.4f} comparisons={out.comparisons}")

# Compare against the exact decoder (one restricted sweep per subtrellis).
exact = decoded.outcomes["exact-ml"]
print(f"exact ML : {''.join(map(str, exact.codeword))}  weight={exact.weight:.4f}")
print("two-phase found the ML word:", bool(np.array_equal(out.codeword, exact.codeword)))
print("frame decoded correctly   :", bool(np.array_equal(out.codeword, codeword)))
