"""Build a tail-biting trellis for a small block code and poke at it."""

import tbtdec as tb

# A length-6 code with two circular generator rows.  Circular spans wrap
# around the end of the block, which is what forces the paired start/final
# structure on the trellis.
spec = tb.get_code("toy-block-n6-k3-c2").spec()
print("generator matrix:")
for row in spec.rows:
    span = row.span
    print(f"  {''.join(map(str, row.bits))}  [{span.lo},{span.hi}] {span.kind}")

trellis = tb.build_tbt_product(spec)
print(f"\nsections={trellis.n_sections} label_width={trellis.label_width}")
print("vertices per time index:", list(trellis.v_counts))
print("paired boundary states:", len(trellis.starts))

# Each start/final pair spans a subtrellis; its closed paths carry one coset
# of the code.  Together the cosets partition the codebook.
code = {int("".join(map(str, c)), 2) for c in tb.enumerate_codewords(spec)}
union = set()
for i in range(len(trellis.starts)):
    labels = tb.subtrellis_labels(trellis, i)
    print(f"subtrellis {i}:", sorted(f"{w:0{spec.n}b}" for w in labels))
    union |= labels
print("union == codebook:", union == code)

# Start-to-final paths that may cross between different boundary states form
# a strictly larger linear space; the decoder's first sweep lives there.
cross = tb.semi_codeword_labels(trellis)
print(f"\ncross-path label space: {len(cross)} words vs {len(code)} codewords")

ridx = tb.build_reach_index(trellis)
print("edges:", trellis.num_edges)
print("closed-path memberships per subtrellis:", [int(x) for x in ridx.member_counts])
