"""Benchmark instances and timing runs.

Three standard workloads: a dense product check where the honest prover
pays the full cubic multiplication and the verifier three matrix-vector
products, a sparse determinant where the prover runs Krylov sequences
while the verifier does one checked solve, and an integer determinant
where the prover also runs the CRT lift.  All report the verifier/prover
time ratio, which is the whole point of certifying.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from random import Random

from .certs_dense import matmul_certify
from .certs_sparse import PROTOCOL_DET, _det_parts, det_verify
from .ff import PrimeField, field_new
from .la import DenseMatrix, SparseMatrix, dense_matmul, det_dense
from .lift import DEFAULT_PRIME_BITS, PROTOCOL_INTDET, IntMatrix, _intdet_parts, intdet_verify
from .proto import FiatShamirSource, fs_prove, matrix_chunks, transcript_serialize

BENCH_MATMUL_SIZE = 1024
BENCH_MATMUL_MODULUS = 10007
BENCH_DET_SIZE = 4096
BENCH_DET_MODULUS = 536870909  # largest prime below 2**29, int64-safe
BENCH_DET_PER_ROW = 10
BENCH_INTDET_SIZE = 64
BENCH_INTDET_ENTRY = 100  # entries uniform in [-100, 100]


def random_dense(field: PrimeField, rows: int, cols: int, rng: Random) -> DenseMatrix:
    return DenseMatrix(
        field, [[rng.randrange(field.p) for _ in range(cols)] for _ in range(rows)]
    )


def random_nonsingular(field: PrimeField, n: int, rng: Random) -> DenseMatrix:
    while True:
        m = random_dense(field, n, n, rng)
        if det_dense(m) != 0:
            return m


def random_sparse(
    field: PrimeField, n: int, per_row: int, rng: Random, diagonal: bool = True
) -> SparseMatrix:
    """Roughly per_row entries per row; a nonzero diagonal keeps random
    instances comfortably nonsingular for determinant workloads."""
    triples = []
    for i in range(n):
        cols = set()
        if diagonal:
            cols.add(i)
        while len(cols) < min(per_row, n):
            cols.add(rng.randrange(n))
        for j in sorted(cols):
            triples.append((i, j, rng.randrange(1, field.p)))
    return SparseMatrix(field, n, n, triples)


def random_rank_deficient(
    field: PrimeField, m: int, n: int, r: int, rng: Random
) -> DenseMatrix:
    """Product of random m x r and r x n factors; rank r with high
    probability (exactly r once both factors have full rank)."""
    if r == 0:
        return DenseMatrix(field, [[0] * n for _ in range(m)])
    left = random_dense(field, m, r, rng)
    right = random_dense(field, r, n, rng)
    return dense_matmul(left, right)


CSV_HEADER = "name,n,prover_seconds,verifier_seconds,certificate_bytes,epsilon"


@dataclass
class BenchResult:
    name: str
    size: int
    prover_seconds: float
    verifier_seconds: float
    accepted: bool
    cert_bytes: int = 0
    epsilon: str = ""
    detail: str = ""

    @property
    def ratio(self) -> float:
        if self.prover_seconds == 0:
            return float("inf")
        return self.verifier_seconds / self.prover_seconds

    def csv(self) -> str:
        return (
            f"{self.name},{self.size},{self.prover_seconds:.4f},"
            f"{self.verifier_seconds:.4f},{self.cert_bytes},{self.epsilon}"
        )

    def render(self) -> str:
        return (
            f"{self.name} n={self.size}: prover {self.prover_seconds:.3f}s, "
            f"verifier {self.verifier_seconds:.3f}s, ratio {self.ratio:.5f}"
            + (f" ({self.detail})" if self.detail else "")
        )


def bench_matmul(
    n: int = BENCH_MATMUL_SIZE,
    modulus: int = BENCH_MATMUL_MODULUS,
    seed: int = 1,
) -> BenchResult:
    field = field_new(modulus)
    rng = Random(seed)
    a = random_dense(field, n, n, rng)
    b = random_dense(field, n, n, rng)

    t0 = time.perf_counter()
    c = dense_matmul(a, b)  # the honest prover's cubic workload
    prover_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    verdict = matmul_certify(a, b, c, FiatShamirSource())
    verifier_s = time.perf_counter() - t0
    # the claimed product is the certificate: the verifier cannot check a
    # product it was never shown, so its bytes count toward the bill
    cert = len(transcript_serialize(verdict.transcript)) + len(matrix_chunks(c, b"D"))
    return BenchResult(
        "matmul", n, prover_s, verifier_s, verdict.accepted,
        cert_bytes=cert,
        epsilon=str(verdict.error_bound),
        detail=f"eps={verdict.error_bound}",
    )


def _prove_then_verify(name, n, protocol_id, make_parts, verify, detail) -> BenchResult:
    """Time fs_prove from make_parts(), then verify(transcript) on a freshly
    built copy of the instance; detail is formatted with value and ops."""
    t0 = time.perf_counter()
    params, digest, prover, _ = make_parts()
    transcript = fs_prove(protocol_id, params, digest, prover)
    prover_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    verdict, value = verify(transcript)
    verifier_s = time.perf_counter() - t0
    return BenchResult(
        name, n, prover_s, verifier_s, verdict.accepted,
        cert_bytes=len(transcript_serialize(transcript)),
        epsilon=str(verdict.error_bound),
        detail=detail.format(value=value, ops=verdict.verifier_ops),
    )


def bench_sparse_det(
    n: int = BENCH_DET_SIZE,
    modulus: int = BENCH_DET_MODULUS,
    per_row: int = BENCH_DET_PER_ROW,
    seed: int = 1,
) -> BenchResult:
    field = field_new(modulus)
    a = random_sparse(field, n, per_row, Random(seed))
    fresh = SparseMatrix(field, n, n, a.triples())  # with no cached CSR
    return _prove_then_verify(
        "sparse-det", n, PROTOCOL_DET,
        lambda: _det_parts(a, None, None, seed),
        lambda t: det_verify(fresh, t),
        "det={value} ops={ops}",
    )


def bench_intdet(n: int = BENCH_INTDET_SIZE, seed: int = 1) -> BenchResult:
    rng = Random(seed)
    rows = [
        [rng.randint(-BENCH_INTDET_ENTRY, BENCH_INTDET_ENTRY) for _ in range(n)]
        for _ in range(n)
    ]
    m, fresh = IntMatrix(rows), IntMatrix(rows)
    return _prove_then_verify(
        "intdet", n, PROTOCOL_INTDET,
        lambda: _intdet_parts(m, DEFAULT_PRIME_BITS, seed),
        lambda t: intdet_verify(fresh, t, DEFAULT_PRIME_BITS),
        "ops={ops}",
    )


# suite name -> timing run, for ``vlac bench --suite``
SUITES = {"matmul": bench_matmul, "sparse-det": bench_sparse_det, "intdet": bench_intdet}
