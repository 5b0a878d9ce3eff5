"""Code-model tests: spans, validation, encoders, enumeration, file format."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import tbtdec as tb
from tbtdec.codes import bits_to_int, gf2_rank, int_to_bits

from conftest import scalar_block_encode, scalar_conv_encode


# ---------------------------------------------------------------------------
# Spans

def test_span_kinds():
    assert tb.Span(1, 3, "linear").covers(2)
    assert not tb.Span(1, 3, "linear").covers(4)
    circ = tb.Span(4, 1, "circular")
    assert circ.covers(4) and circ.covers(1)
    assert not circ.covers(2)


def test_span_validation_rejects_inverted_kinds():
    with pytest.raises(tb.SpanMismatchError):
        tb.Span(3, 1, "linear")
    with pytest.raises(tb.SpanMismatchError):
        tb.Span(1, 3, "circular")
    with pytest.raises(tb.SpanMismatchError):
        tb.Span(1, 3, "diagonal")


# ---------------------------------------------------------------------------
# Generator validation

def test_validate_generator_accepts_toy(block4):
    assert tb.validate_generator(block4) is block4
    assert block4.num_linear == 1
    assert block4.num_circular == 1


def test_validate_generator_rejects_bit_outside_span():
    rows = (tb.GeneratorRow(bits=(0, 1, 1, 0), span=tb.Span(1, 2, "linear")),)
    spec = tb.GeneratorSpec(n=4, k=1, rows=rows)
    with pytest.raises(tb.SpanMismatchError):
        tb.validate_generator(spec)


def test_validate_generator_rejects_dependent_rows():
    row = tb.GeneratorRow(bits=(1, 1, 0, 0), span=tb.Span(1, 2, "linear"))
    spec = tb.GeneratorSpec(n=4, k=2, rows=(row, row))
    with pytest.raises(tb.DependentRowsError):
        tb.validate_generator(spec)


def test_validate_generator_rejects_zero_row():
    rows = (tb.GeneratorRow(bits=(0, 0, 0, 0), span=tb.Span(1, 2, "linear")),)
    with pytest.raises(tb.ZeroRowError):
        tb.validate_generator(tb.GeneratorSpec(n=4, k=1, rows=rows))


def test_validate_conv_rules():
    with pytest.raises(tb.LengthMismatchError):
        tb.validate_conv(tb.ConvCodeSpec(memory=2, taps0=(1, 1), taps1=(1, 0, 1), circle=8))
    with pytest.raises(tb.ZeroRowError):
        tb.validate_conv(tb.ConvCodeSpec(memory=1, taps0=(0, 0), taps1=(1, 0), circle=4))
    # neither polynomial leading with 1 leaves the current bit unused
    with pytest.raises(tb.CatalogError):
        tb.validate_conv(tb.ConvCodeSpec(memory=1, taps0=(0, 1), taps1=(0, 1), circle=4))
    with pytest.raises(tb.CatalogError):
        tb.validate_conv(tb.ConvCodeSpec(memory=4, taps0=(1,) * 5, taps1=(1, 0, 0, 0, 1), circle=3))


# ---------------------------------------------------------------------------
# Block encoding

def test_encode_block_frozen_values(block4):
    assert "".join(map(str, tb.encode_block(block4, [0, 0]))) == "0000"
    assert "".join(map(str, tb.encode_block(block4, [1, 0]))) == "1100"
    assert "".join(map(str, tb.encode_block(block4, [1, 1]))) == "0101"


def test_encode_block_length_check(block4):
    with pytest.raises(tb.LengthMismatchError):
        tb.encode_block(block4, [1, 0, 1])


@given(st.lists(st.integers(0, 1), min_size=4, max_size=4))
def test_encode_block_matches_scalar_oracle(bits):
    spec = tb.get_code("toy-block-n8-k4-c1").spec()
    assert np.array_equal(tb.encode_block(spec, bits), scalar_block_encode(spec, bits))


@given(
    st.lists(st.integers(0, 1), min_size=3, max_size=3),
    st.lists(st.integers(0, 1), min_size=3, max_size=3),
)
def test_encode_block_linearity(m1, m2):
    spec = tb.get_code("toy-block-n6-k3-c2").spec()
    lhs = tb.encode_block(spec, np.bitwise_xor(m1, m2))
    rhs = tb.encode_block(spec, m1) ^ tb.encode_block(spec, m2)
    assert np.array_equal(lhs, rhs)


# ---------------------------------------------------------------------------
# Convolutional encoding

def test_encode_conv_hand_trace_memory1(conv_m1):
    cw = tb.encode_conv_tailbiting(conv_m1, [1, 0, 0, 0])
    assert "".join(map(str, cw)) == "11100000"


def test_encode_conv_hand_trace_memory2(conv_m2):
    cw = tb.encode_conv_tailbiting(conv_m2, [1, 0, 0, 0, 0, 0, 0, 0])
    assert "".join(map(str, cw)) == "1110110000000000"


def test_encode_conv_zero_message(conv_m2):
    assert not tb.encode_conv_tailbiting(conv_m2, np.zeros(8, dtype=np.uint8)).any()


def test_encode_conv_output_length(conv_m1, conv_m2):
    assert len(tb.encode_conv_tailbiting(conv_m1, [1, 1, 0, 1])) == 8
    assert len(tb.encode_conv_tailbiting(conv_m2, [1] * 8)) == 16


def test_encode_conv_length_check(conv_m1):
    with pytest.raises(tb.LengthMismatchError):
        tb.encode_conv_tailbiting(conv_m1, [1, 0, 0])


@given(st.lists(st.integers(0, 1), min_size=8, max_size=8))
def test_encode_conv_matches_shift_register(bits):
    spec = tb.get_code("toy-conv-m2-l8").spec()
    assert np.array_equal(tb.encode_conv_tailbiting(spec, bits), scalar_conv_encode(spec, bits))


@given(st.lists(st.integers(0, 1), min_size=20, max_size=20))
def test_encode_conv_matches_shift_register_mem4(bits):
    spec = tb.get_code("mem4-circle20").spec()
    assert np.array_equal(tb.encode_conv_tailbiting(spec, bits), scalar_conv_encode(spec, bits))


@given(
    st.lists(st.integers(0, 1), min_size=4, max_size=4),
    st.lists(st.integers(0, 1), min_size=4, max_size=4),
)
def test_encode_conv_linearity(m1, m2):
    spec = tb.get_code("toy-conv-m1-l4").spec()
    lhs = tb.encode_conv_tailbiting(spec, np.bitwise_xor(m1, m2))
    rhs = tb.encode_conv_tailbiting(spec, m1) ^ tb.encode_conv_tailbiting(spec, m2)
    assert np.array_equal(lhs, rhs)


@pytest.mark.parametrize("name", ["toy-block-n8-k4-c1", "toy-conv-m2-l8", "mem4-circle20"])
def test_stacked_messages_encode_row_by_row(name):
    spec = tb.get_code(name).spec()
    encode = tb.encode_conv_tailbiting if isinstance(spec, tb.ConvCodeSpec) else tb.encode_block
    msgs = np.random.default_rng(17).integers(0, 2, size=(2, 3, spec.k), dtype=np.uint8)
    words = encode(spec, msgs)
    assert words.shape == (2, 3, spec.n) and words.dtype == np.uint8
    for msg, word in zip(msgs.reshape(-1, spec.k), words.reshape(-1, spec.n)):
        assert np.array_equal(word, encode(spec, msg))
    assert encode(spec, msgs[:0, 0]).shape == (0, spec.n)
    with pytest.raises(tb.LengthMismatchError):
        encode(spec, msgs[..., :-1])
    with pytest.raises(tb.LengthMismatchError):
        encode(spec, 1)


def test_conv_initial_state_wraps(conv_m2):
    # state bit j-1 holds the message bit delayed by j steps at t=0
    assert tb.conv_initial_state(conv_m2, [0] * 6 + [1, 0]) == 0b10
    assert tb.conv_initial_state(conv_m2, [0] * 7 + [1]) == 0b01


def test_tailbiting_state_closure(conv_m2):
    # running the register over the message returns it to its initial state
    msg = [1, 0, 1, 1, 0, 0, 1, 0]
    state = tb.conv_initial_state(conv_m2, msg)
    mask = (1 << conv_m2.memory) - 1
    for u in msg:
        state = ((state << 1) | u) & mask
    assert state == tb.conv_initial_state(conv_m2, msg)


# ---------------------------------------------------------------------------
# Enumeration

def test_enumerate_codewords_toy_frozen(block4):
    words = {"".join(map(str, c)) for c in tb.enumerate_codewords(block4)}
    assert words == {"0000", "1100", "1001", "0101"}


def test_enumerate_codewords_count_and_uniqueness(block8):
    words = ["".join(map(str, c)) for c in tb.enumerate_codewords(block8)]
    assert len(words) == 16
    assert len(set(words)) == 16


def test_enumerate_codewords_conv_matches_encoder(conv_m1):
    enumerated = {"".join(map(str, c)) for c in tb.enumerate_codewords(conv_m1)}
    encoded = {
        "".join(map(str, tb.encode_conv_tailbiting(conv_m1, int_to_bits(m, 4))))
        for m in range(16)
    }
    assert enumerated == encoded


def test_enumerate_codewords_rejects_noninjective_conv():
    # identical polynomials with an even tap count annihilate the all-ones
    # message over any circle, so distinct messages share codewords
    spec = tb.ConvCodeSpec(memory=1, taps0=(1, 1), taps1=(1, 1), circle=4)
    with pytest.raises(tb.DependentRowsError):
        list(tb.enumerate_codewords(spec))


def test_enumerate_codewords_size_guard():
    n = 25
    rows = tuple(
        tb.GeneratorRow(
            bits=tuple(1 if i == j else 0 for i in range(n)),
            span=tb.Span(j + 1, j + 1, "linear"),
        )
        for j in range(n)
    )
    spec = tb.GeneratorSpec(n=n, k=n, rows=rows)
    with pytest.raises(tb.TooLargeError):
        list(tb.enumerate_codewords(spec))


def test_codeword_table_matches_encoding(block8):
    table = tb.codeword_table(block8)
    assert table.shape == (16, 8)
    for m in range(16):
        msg = int_to_bits(m, 4)
        assert np.array_equal(table[m], tb.encode_block(block8, msg))


# ---------------------------------------------------------------------------
# Semi-codeword basis

def test_semi_codeword_basis_head_tail_split(block4):
    basis = tb.semi_codeword_basis(block4)
    rows = ["".join(map(str, r)) for r in basis.matrix]
    assert rows == ["1100", "1000", "0001"]
    assert basis.num_linear == 1 and basis.num_circular == 1


def test_semi_codeword_basis_no_circular_rows():
    rows = (
        tb.GeneratorRow(bits=(1, 1, 0, 0), span=tb.Span(1, 2, "linear")),
        tb.GeneratorRow(bits=(0, 0, 1, 1), span=tb.Span(3, 4, "linear")),
    )
    spec = tb.validate_generator(tb.GeneratorSpec(n=4, k=2, rows=rows))
    basis = tb.semi_codeword_basis(spec)
    assert np.array_equal(basis.matrix, spec.matrix)


def test_generator_rows_inside_basis_row_space(block6):
    basis = tb.semi_codeword_basis(block6)
    basis_words = [int(bits_to_int(r)) for r in basis.matrix]
    rank_before = gf2_rank(basis_words)
    for row in block6.rows:
        assert gf2_rank(basis_words + [row.word]) == rank_before


# ---------------------------------------------------------------------------
# Generator file format

def test_generator_file_round_trip(block6):
    text = tb.format_generator_file(block6)
    parsed = tb.parse_generator_file(text)
    assert parsed == block6


def test_generator_file_parses_comments_and_blanks():
    text = "# toy code\n\n4 1\n1100 1 2 L\n"
    spec = tb.parse_generator_file(text)
    assert spec.n == 4 and spec.k == 1
    assert spec.rows[0].span.kind == "linear"


def test_generator_file_errors():
    with pytest.raises(tb.LengthMismatchError):
        tb.parse_generator_file("")
    with pytest.raises(tb.LengthMismatchError):
        tb.parse_generator_file("4\n1100 1 2 L\n")
    with pytest.raises(tb.LengthMismatchError):
        tb.parse_generator_file("4 2\n1100 1 2 L\n")
    with pytest.raises(tb.SpanMismatchError):
        tb.parse_generator_file("4 1\n1100 1 2 X\n")


# ---------------------------------------------------------------------------
# Octal tap shorthand

def test_taps_from_octal_frozen():
    assert tb.taps_from_octal("72") == (1, 1, 1, 0, 1)
    assert tb.taps_from_octal("62") == (1, 1, 0, 0, 1)
    assert tb.taps_from_octal("554") == (1, 0, 1, 1, 0, 1, 1)
    assert tb.taps_from_octal("744") == (1, 1, 1, 1, 0, 0, 1)


def test_taps_from_octal_memory_consistency():
    # the catalog's production entries really do have memory 4 and 6
    assert len(tb.taps_from_octal("72")) == 5
    assert len(tb.taps_from_octal("62")) == 5
    assert len(tb.taps_from_octal("554")) == 7
    assert len(tb.taps_from_octal("744")) == 7


def test_taps_from_octal_rejects_bad_digits():
    with pytest.raises(tb.CatalogError):
        tb.taps_from_octal("9")
    with pytest.raises(tb.ZeroRowError):
        tb.taps_from_octal("0")


def _roll_encode(spec: tb.ConvCodeSpec, msg) -> np.ndarray:
    """The circular convolution written with one np.roll per tap."""
    msg = np.asarray(msg, dtype=np.uint8)
    out = np.zeros((2, spec.circle), dtype=np.uint8)
    for stream, taps in enumerate((spec.taps0, spec.taps1)):
        for delay, coeff in enumerate(taps):
            if coeff:
                out[stream] ^= np.roll(msg, delay)
    return out.T.reshape(-1)


CONV_CODES = [name for name in tb.list_codes() if isinstance(tb.get_code(name).spec(), tb.ConvCodeSpec)]


@pytest.mark.parametrize("name", CONV_CODES)
@given(data=st.data())
def test_encode_conv_matches_roll_formula(name, data):
    spec = tb.get_code(name).spec()
    bits = data.draw(st.lists(st.integers(0, 1), min_size=spec.circle, max_size=spec.circle))
    out = tb.encode_conv_tailbiting(spec, bits)
    assert out.dtype == np.uint8
    assert np.array_equal(out, _roll_encode(spec, bits))
