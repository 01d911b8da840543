"""Round-trip properties of the payload codec.

Every channel encodes what it sends with ``encode_payload`` and every
reader decodes with ``decode_payload``, so decoding an encoding must give
back exactly the canonical form the sender recorded (``_canon_value``),
for every payload kind and at the edges: empty vectors, trimmed and zero
polynomials, 0x0 and 1x1 matrices, and big integers past +-2^64.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

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
    _canon_value,
    decode_message,
    decode_payload,
    encode_payload,
)

P_WORD = 3037000493  # int64 storage
P_BIG = 3037000507  # object storage
FIELDS = [field_new(3), field_new(P_WORD), field_new(P_BIG)]

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
    canon = _canon_value(kind, value)
    blob = encode_payload(kind, value)
    assert decode_payload(kind, blob) == canon
    assert encode_payload(kind, canon) == blob


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
    m = Message(role, tag, kind, _canon_value(kind, value))
    blob = m.encode()
    assert decode_message(blob) == m
    assert decode_message(blob).encode() == blob
