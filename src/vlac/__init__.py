"""Verifiable linear algebra certificates over prime fields.

Probabilistic certificates for matrix products, inverses,
nonsingularity, rank, minimal polynomials, and determinants (over prime
fields, the integers, and polynomial rings), each with an exact rational
error bound and a replayable transcript format.
"""

from .errors import (
    BothZero,
    BrokenReference,
    DimensionMismatch,
    DivisionByZero,
    EvenModulus,
    FieldMismatch,
    GeneratorMismatch,
    Malformed,
    NotPrime,
    NotSquare,
    ProtocolViolation,
    Timeout,
    TransportError,
    VersionUnsupported,
    VlacError,
)
from .ff import (
    Poly,
    PrimeField,
    SampleSet,
    field_new,
    full_sample_set,
    is_probable_prime,
)
from .la import (
    Blackbox,
    Butterfly,
    CostCounter,
    DenseMatrix,
    SparseMatrix,
    butterfly_padding,
    butterfly_param_count,
    compose,
    dense_matmul,
    det_dense,
    diagonal_scaling,
    invert_dense,
    kernel_vector,
    leading_projection,
    matvec,
    padded,
    rank_dense,
    solve_dense,
)
from .proto import (
    FiatShamirSource,
    InteractiveSource,
    Message,
    Transcript,
    Verdict,
    fs_prove,
    instance_digest,
    run_session,
    transcript_deserialize,
    transcript_serialize,
    verify_recorded,
)
from .certs_dense import (
    GEOMETRIC,
    ZERO_ONE,
    Literal,
    MatMulClaim,
    Ref,
    chain_certify,
    chain_epsilon,
    chain_verify,
    inverse_certify,
    inverse_epsilon,
    inverse_verify,
    matmul_certify,
    matmul_epsilon,
    matmul_verify,
)
from .certs_sparse import (
    det_certify,
    det_verify,
    minpoly_certify,
    minpoly_epsilon,
    minpoly_verify,
    nonsingular_certify,
    nonsingular_epsilon,
    nonsingular_verify,
    rank_certify,
    rank_epsilon,
    rank_upper_certify,
    rank_upper_epsilon,
    rank_upper_verify,
    rank_verify,
)
from .lift import (
    IntMatrix,
    PolyMatrix,
    hadamard_bound,
    int_det_crt,
    intdet_certify,
    intdet_epsilon,
    intdet_verify,
    poly_det_interp,
    polydet_certify,
    polydet_epsilon,
    polydet_verify,
)
from .matrixmarket import (
    MatrixFile,
    parse_matrix_market,
    write_dense,
    write_int,
    write_poly,
    write_sparse,
)

__version__ = "0.1.0"
