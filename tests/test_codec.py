"""Round-trip properties of the payload codec.

Every channel encodes what it sends with ``encode_payload`` and every
reader decodes with ``decode_payload``, so decoding an encoding must give
back exactly the canonical form of the value sent (``canon`` below, a
reference written apart from the codec), for every payload kind and at
the edges: empty vectors, trimmed and zero polynomials, 0x0 and 1x1
matrices, and big integers past +-2^64.

The codec packs and reads vectors and matrices as whole arrays; the
differential tests below hold it to a per-entry ``struct`` reference of
the same wire format.
"""

import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vlac.errors import Malformed
from vlac.ff import Poly, field_new
from vlac.la import DenseMatrix
from vlac.proto import (
    KIND_BIGINT,
    KIND_BYTES,
    KIND_EMPTY,
    KIND_MATRIX,
    KIND_POLY,
    KIND_SCALAR,
    KIND_UINT,
    KIND_VEC,
    ROLE_PROVER,
    ROLE_VERIFIER,
    TAG_CHALLENGE,
    TAG_CLAIM,
    TAG_COMMIT,
    TAG_RESPONSE,
    Message,
    decode_message,
    decode_payload,
    encode_payload,
)

P_WORD = 3037000493  # int64 storage
P_BIG = 3037000507  # object storage
FIELDS = [field_new(3), field_new(P_WORD), field_new(P_BIG)]


def canon(kind, value):
    """The Python value a payload of this kind decodes to."""
    if kind == KIND_EMPTY:
        return None
    if kind in (KIND_SCALAR, KIND_UINT, KIND_BIGINT):
        return int(value)
    if kind in (KIND_VEC, KIND_POLY):
        return [int(v) for v in getattr(value, "coeffs", value)]
    if kind == KIND_MATRIX and isinstance(value, DenseMatrix):
        return (value.rows, value.cols, [int(v) for v in value.a.reshape(-1)])
    return value


u64 = st.integers(0, 2**64 - 1)
u64_vec = st.lists(u64, max_size=12)
trimmed = st.one_of(
    st.just([]),
    st.tuples(st.lists(u64, max_size=8), st.integers(1, 2**64 - 1)).map(
        lambda t: t[0] + [t[1]]
    ),
)


@st.composite
def poly_objects(draw):
    field = draw(st.sampled_from(FIELDS))
    coeffs = draw(st.lists(st.integers(0, field.p - 1), max_size=8))
    return Poly(field, coeffs)


@st.composite
def matrix_tuples(draw):
    rows, cols = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    flat = draw(st.lists(u64, min_size=rows * cols, max_size=rows * cols))
    return rows, cols, flat


@st.composite
def dense_matrices(draw):
    field = draw(st.sampled_from(FIELDS))
    rows, cols = draw(st.sampled_from([(0, 0), (1, 1), (1, 3), (3, 1), (2, 2), (4, 3)]))
    entries = draw(
        st.lists(st.integers(0, field.p - 1), min_size=rows * cols, max_size=rows * cols)
    )
    return DenseMatrix(field, np.array(entries, dtype=object).reshape(rows, cols))


PAYLOADS = st.one_of(
    st.tuples(st.just(KIND_EMPTY), st.none()),
    st.tuples(st.sampled_from([KIND_SCALAR, KIND_UINT]), u64),
    st.tuples(st.just(KIND_VEC), u64_vec),
    st.tuples(st.just(KIND_POLY), st.one_of(trimmed, poly_objects())),
    st.tuples(st.just(KIND_MATRIX), st.one_of(matrix_tuples(), dense_matrices())),
    st.tuples(
        st.just(KIND_BIGINT),
        st.one_of(
            st.integers(-(2**64) - 2, 2**64 + 2),
            st.integers(-(2**200), 2**200),
            st.sampled_from([0, 2**64, -(2**64), 2**64 - 1, -(2**64) + 1]),
        ),
    ),
    st.tuples(st.just(KIND_BYTES), st.binary(max_size=40)),
)


@settings(max_examples=300, deadline=None)
@given(PAYLOADS)
def test_payload_round_trip(payload):
    kind, value = payload
    want = canon(kind, value)
    blob = encode_payload(kind, value)
    assert decode_payload(kind, blob) == want
    assert encode_payload(kind, want) == blob


def test_matrix_edge_shapes():
    for field in FIELDS:
        for data, canon in (([[]], (1, 0, [])), ([[field.p - 1]], (1, 1, [field.p - 1]))):
            m = DenseMatrix(field, data)
            assert decode_payload(KIND_MATRIX, encode_payload(KIND_MATRIX, m)) == canon
        empty = DenseMatrix(field, field.zeros((0, 0)))
        assert decode_payload(KIND_MATRIX, encode_payload(KIND_MATRIX, empty)) == (0, 0, [])


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from([ROLE_PROVER, ROLE_VERIFIER]),
    st.sampled_from([TAG_COMMIT, TAG_CHALLENGE, TAG_RESPONSE, TAG_CLAIM]),
    PAYLOADS,
)
def test_message_round_trip(role, tag, payload):
    kind, value = payload
    m = Message(role, tag, kind, canon(kind, value))
    blob = m.encode()
    assert decode_message(blob) == m
    assert decode_message(blob).encode() == blob


# -- differential tests against a per-entry reference ---------------------------


def ref_encode(kind, value) -> bytes:
    """The wire format one entry at a time: u32 count (or u32 rows, u32
    cols), then one little-endian u64 per entry."""
    if kind == KIND_MATRIX:
        rows, cols, flat = value
        head = struct.pack("<II", rows, cols)
    else:
        flat = value
        head = struct.pack("<I", len(flat))
    return head + b"".join(struct.pack("<Q", v) for v in flat)


def ref_decode(kind, buf: bytes):
    pos = 0

    def unpack(fmt):
        nonlocal pos
        size = struct.calcsize(fmt)
        if pos + size > len(buf):
            raise Malformed("record truncated")
        pos += size
        return struct.unpack_from(fmt, buf, pos - size)

    if kind == KIND_MATRIX:
        rows, cols = unpack("<II")
        value = (rows, cols, [unpack("<Q")[0] for _ in range(rows * cols)])
    else:
        value = [unpack("<Q")[0] for _ in range(unpack("<I")[0])]
        if kind == KIND_POLY and value and value[-1] == 0:
            raise Malformed("polynomial encoding not canonical")
    if pos != len(buf):
        raise Malformed("payload has trailing bytes")
    return value


def edge_vectors(p):
    top = 2**64 - 1
    return [[], [0], [p - 1], [top], [0, p - 1, top], [p - 1, 0, 0, 1], [top] * 5]


def edge_matrices(p):
    top = 2**64 - 1
    return [(0, 0, []), (0, 3, []), (3, 0, []), (1, 1, [0]), (1, 1, [p - 1]),
            (1, 1, [top]), (2, 3, [0, p - 1, top, 1, 0, p - 1])]


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f"p={f.p}")
def test_vectors_match_the_reference(field):
    for vals in edge_vectors(field.p):
        for kind in (KIND_VEC, KIND_POLY):
            if kind == KIND_POLY and vals and vals[-1] == 0:
                continue
            blob = encode_payload(kind, vals)
            assert blob == ref_encode(kind, vals)
            assert decode_payload(kind, blob) == ref_decode(kind, blob) == vals
        # a field array encodes as its entries do
        in_field = [v for v in vals if v < field.p]
        assert encode_payload(KIND_VEC, field.arr(in_field)) == ref_encode(KIND_VEC, in_field)


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f"p={f.p}")
def test_matrices_match_the_reference(field):
    for rows, cols, flat in edge_matrices(field.p):
        blob = encode_payload(KIND_MATRIX, (rows, cols, flat))
        assert blob == ref_encode(KIND_MATRIX, (rows, cols, flat))
        assert decode_payload(KIND_MATRIX, blob) == ref_decode(KIND_MATRIX, blob)
        assert decode_payload(KIND_MATRIX, blob) == (rows, cols, flat)
        if all(v < field.p for v in flat):
            m = DenseMatrix(field, field.arr(flat).reshape(rows, cols))
            assert encode_payload(KIND_MATRIX, m) == blob


def test_polys_match_the_reference():
    for field in FIELDS:
        for coeffs in ([], [field.p - 1], [0, 0, 1], [5, field.p - 1]):
            poly = Poly(field, coeffs)
            assert encode_payload(KIND_POLY, poly) == ref_encode(KIND_POLY, poly.coeffs)


def _peak_bytes(fn) -> int:
    tracemalloc.start()
    try:
        fn()
    finally:
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    return peak


@pytest.mark.parametrize("count", [1, 2, 2**20, 2**32 - 1])
def test_count_past_the_end_is_truncated_without_allocating(count):
    head = struct.pack("<I", count)
    body = b"\x07" * 8 * min(count - 1, 2)  # fewer entries than counted
    cases = [(KIND_VEC, head + body), (KIND_POLY, head + body),
             (KIND_MATRIX, head + struct.pack("<I", count) + body),
             (KIND_MATRIX, struct.pack("<II", 1, count) + body)]
    for kind, blob in cases:
        def decode():
            with pytest.raises(Malformed, match="record truncated"):
                decode_payload(kind, blob)
            with pytest.raises(Malformed, match="record truncated"):
                ref_decode(kind, blob)

        assert _peak_bytes(decode) < 1 << 16


def test_trailing_bytes_and_untrimmed_polys_keep_their_messages():
    for kind, value in ((KIND_VEC, [1, 2]), (KIND_POLY, [1, 2]), (KIND_MATRIX, (1, 2, [1, 2]))):
        with pytest.raises(Malformed, match="payload has trailing bytes"):
            decode_payload(kind, encode_payload(kind, value) + b"\x00")
    untrimmed = encode_payload(KIND_VEC, [1, 0])
    with pytest.raises(Malformed, match="polynomial encoding not canonical"):
        decode_payload(KIND_POLY, untrimmed)
    with pytest.raises(Malformed, match="polynomial encoding must be trimmed"):
        encode_payload(KIND_POLY, [1, 0])


@pytest.mark.parametrize("bad", [-1, 2**64])
def test_entries_outside_u64_raise_malformed(bad):
    values = [
        (KIND_VEC, [0, bad]),
        (KIND_VEC, np.array([0, bad], dtype=object)),
        (KIND_POLY, [bad]),
        (KIND_MATRIX, (1, 2, [bad, 0])),
        (KIND_MATRIX, np.array([[bad, 0]], dtype=object)),
        (KIND_MATRIX, [[0], [bad]]),
    ]
    if bad == -1:
        values.append((KIND_VEC, np.array([3, -1], dtype=np.int64)))
    for kind, value in values:
        with pytest.raises(Malformed, match="does not fit a u64"):
            encode_payload(kind, value)
