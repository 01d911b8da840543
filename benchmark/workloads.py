"""The four workloads, as lists of protocol cases.

A case is one instance of one protocol.  It knows its Matrix Market text
(parsed in set-up), how the prover turns freshly parsed objects into
transcript bytes, how the verifier turns freshly built objects and those
bytes into a verdict, and how to check the outcome against an answer
computed apart from the program.  Every call into the program goes
through a module attribute (``la.dense_matmul``, not an imported name), so
the traced run's wrappers see it.
"""

from __future__ import annotations

from random import Random

import numpy as np

from vlac import certs_dense, certs_sparse, ff, la, lift, matrixmarket, oracle, proto

import instances as gen
from instances import P_BIG, P_DET, P_SMALL, P_WORD

PRIME_BITS = 62  # challenge prime size of the integer determinant


def _serialize(protocol_id: str, parts) -> bytes:
    params, digest, prover, _ = parts
    return proto.transcript_serialize(proto.fs_prove(protocol_id, params, digest, prover))


def _rows(m) -> list:
    """Claimed matrix as plain ints: what crosses to the verifier."""
    return [[int(v) for v in row] for row in m.a]


class Case:
    """One protocol instance.  Subclasses fill in the protocol."""

    name = ""
    has_wrong_claim = False

    def __init__(self, texts: list):
        self.texts = texts
        self._claim_bytes = None

    def parse(self) -> list:
        return [matrixmarket.parse_matrix_market(t) for t in self.texts]

    def prove(self, files):
        """Timed: parsed files -> (transcript bytes, claim sent beside it)."""
        raise NotImplementedError

    def fresh(self, claim):
        """Untimed: instance objects built anew through public constructors."""
        raise NotImplementedError

    def verify(self, objs, raw: bytes):
        """Timed: fresh objects and bytes -> (verdict, certified result)."""
        raise NotImplementedError

    def prover_output_ok(self, claim) -> bool:
        return True

    def result_ok(self, result) -> bool:
        return True

    def wrong_claim(self, claim):
        """(verdict, result) on a false claim of this instance; it must reject."""
        raise NotImplementedError

    def live(self, objs, seed: int):
        """Verdict and result of a live interactive session."""
        raise NotImplementedError

    def claim_bytes(self, claim) -> int:
        """Bytes the verifier receives outside the transcript."""
        return 0


# -- dense product checks -------------------------------------------------------


class Matmul(Case):
    def __init__(self, p: int, a: np.ndarray, b: np.ndarray, product: np.ndarray,
                 variant: str, rounds: int = certs_dense.DEFAULT_ZERO_ONE_ROUNDS):
        super().__init__([gen.mm_dense(a, p), gen.mm_dense(b, p), gen.mm_dense(product, p)])
        self.name = f"matmul-{variant}"
        self.p, self.a, self.b, self.product = p, a, b, product
        self.variant, self.rounds = variant, rounds
        # one changed entry in column 0 always fails the geometric check,
        # since v[0] = 1; the zero-one check would miss it now and then
        self.has_wrong_claim = variant == certs_dense.GEOMETRIC

    def _parts(self, a, b, c):
        return certs_dense._matmul_parts(a, b, c, None, self.variant, self.rounds)

    def prove(self, files):
        a, b = files[0].matrix, files[1].matrix
        c = la.dense_matmul(a, b)  # the prover's real work
        return _serialize(certs_dense.PROTOCOL_MATMUL, self._parts(a, b, c)), c.a.copy()

    def fresh(self, claim):
        field = ff.field_new(self.p)
        return (la.DenseMatrix(field, self.a), la.DenseMatrix(field, self.b),
                la.DenseMatrix(field, claim))

    def verify(self, objs, raw):
        a, b, c = objs
        t = proto.transcript_deserialize(raw)
        return certs_dense.matmul_verify(a, b, c, t, None, self.variant, self.rounds), None

    def prover_output_ok(self, claim) -> bool:
        return bool(np.array_equal(np.asarray(claim, dtype=np.int64), self.product))

    def wrong_claim(self, claim):
        bad = np.array(self.product, copy=True)
        bad[len(bad) // 2, 0] = (bad[len(bad) // 2, 0] + 1) % self.p
        a, b, c = self.fresh(bad)
        raw = _serialize(certs_dense.PROTOCOL_MATMUL, self._parts(a, b, c))
        return self.verify(self.fresh(bad), raw)

    def live(self, objs, seed):
        a, b, c = objs
        return certs_dense.matmul_certify(
            a, b, c, proto.InteractiveSource(seed), None, self.variant, self.rounds), None

    def claim_bytes(self, claim) -> int:
        if self._claim_bytes is None:
            self._claim_bytes = len(certs_dense.dense_bytes(self.fresh(claim)[2]))
        return self._claim_bytes


class Chain(Case):
    """Three links: M0 M1 = P0, P0 M2 = P1, P1 M3 = P2."""

    name = "chain"
    has_wrong_claim = True

    def __init__(self, p: int, mats: list):
        super().__init__([gen.mm_dense(m, p) for m in mats])
        self.p, self.mats = p, mats
        self.products = []
        acc = mats[0]
        for m in mats[1:]:
            acc = gen.int_matmul(acc, m, p)
            self.products.append(acc)

    def _claims(self, mats, products):
        c = certs_dense
        out = [c.MatMulClaim(c.Literal(mats[0]), c.Literal(mats[1]), products[0])]
        for k in range(1, len(products)):
            out.append(c.MatMulClaim(c.Ref(k - 1), c.Literal(mats[k + 1]), products[k]))
        return out

    def prove(self, files):
        mats = [f.matrix for f in files]
        products = [la.dense_matmul(mats[0], mats[1])]
        for m in mats[2:]:
            products.append(la.dense_matmul(products[-1], m))
        parts = certs_dense._chain_parts(self._claims(mats, products), None)
        return _serialize(certs_dense.PROTOCOL_CHAIN, parts), [_rows(m) for m in products]

    def fresh(self, claim):
        field = ff.field_new(self.p)
        mats = [la.DenseMatrix(field, m) for m in self.mats]
        return self._claims(mats, [la.DenseMatrix(field, m) for m in claim])

    def verify(self, objs, raw):
        return certs_dense.chain_verify(objs, proto.transcript_deserialize(raw)), None

    def prover_output_ok(self, claim) -> bool:
        return claim == self.products

    def wrong_claim(self, claim):
        bad = [[row[:] for row in m] for m in self.products]
        bad[-1][0][0] = (bad[-1][0][0] + 1) % self.p
        raw = _serialize(certs_dense.PROTOCOL_CHAIN,
                         certs_dense._chain_parts(self.fresh(bad), None))
        return self.verify(self.fresh(bad), raw)

    def live(self, objs, seed):
        return certs_dense.chain_certify(objs, proto.InteractiveSource(seed)), None

    def claim_bytes(self, claim) -> int:
        if self._claim_bytes is None:
            self._claim_bytes = sum(
                len(certs_dense.dense_bytes(link.product)) for link in self.fresh(claim))
        return self._claim_bytes


class Inverse(Case):
    name = "inverse"
    has_wrong_claim = True

    def __init__(self, p: int, rows: list):
        super().__init__([gen.mm_dense(rows, p)])
        self.p, self.rows = p, rows

    def prove(self, files):
        a = files[0].matrix
        w = la.invert_dense(a)  # the prover's real work
        return _serialize(certs_dense.PROTOCOL_INVERSE,
                          certs_dense._inverse_parts(a, w, None)), _rows(w)

    def fresh(self, claim):
        field = ff.field_new(self.p)
        return la.DenseMatrix(field, self.rows), la.DenseMatrix(field, claim)

    def verify(self, objs, raw):
        a, w = objs
        return certs_dense.inverse_verify(a, w, proto.transcript_deserialize(raw)), None

    def prover_output_ok(self, claim) -> bool:
        n = len(self.rows)
        eye = [[int(i == j) for j in range(n)] for i in range(n)]
        return gen.int_matmul(self.rows, claim, self.p) == eye

    def wrong_claim(self, claim):
        bad = [row[:] for row in claim]
        bad[0][0] = (bad[0][0] + 1) % self.p
        a, w = self.fresh(bad)
        raw = _serialize(certs_dense.PROTOCOL_INVERSE, certs_dense._inverse_parts(a, w, None))
        return self.verify(self.fresh(bad), raw)

    def live(self, objs, seed):
        a, w = objs
        return certs_dense.inverse_certify(a, w, proto.InteractiveSource(seed)), None

    def claim_bytes(self, claim) -> int:
        if self._claim_bytes is None:
            self._claim_bytes = len(certs_dense.dense_bytes(self.fresh(claim)[1]))
        return self._claim_bytes


# -- blackbox certificates --------------------------------------------------------


class FieldOperator(Case):
    """A square operator over GF(p), sparse (triples) or dense (rows)."""

    def __init__(self, p: int, n: int, triples=None, rows=None):
        if triples is not None:
            text = gen.mm_coordinate(n, n, triples, p)
        else:
            text = gen.mm_dense(rows, p)
        super().__init__([text])
        self.p, self.n, self.triples, self.rows = p, n, triples, rows

    def fresh(self, claim):
        field = ff.field_new(self.p)
        if self.triples is not None:
            return la.SparseMatrix(field, self.n, self.n, self.triples)
        return la.DenseMatrix(field, self.rows)

    def dense_rows(self) -> list:
        if self.rows is not None:
            return self.rows
        rows = [[0] * self.n for _ in range(self.n)]
        for i, j, v in self.triples:
            rows[i][j] = v
        return rows


class Nonsingular(FieldOperator):
    name = "nonsingular"

    def prove(self, files):
        parts = certs_sparse._nonsingular_parts(files[0].matrix, None, None)
        return _serialize(certs_sparse.PROTOCOL_NONSINGULAR, parts), None

    def verify(self, a, raw):
        return certs_sparse.nonsingular_verify(a, proto.transcript_deserialize(raw)), None

    def live(self, a, seed):
        return certs_sparse.nonsingular_certify(a, proto.InteractiveSource(seed)), None


class Rank(FieldOperator):
    name = "rank"

    def __init__(self, p: int, n: int, rows: list, rank: int):
        super().__init__(p, n, rows=rows)
        self.rank = rank

    def prove(self, files):
        parts = certs_sparse._rank_parts(files[0].matrix, self.rank, None, None)
        return _serialize(certs_sparse.PROTOCOL_RANK, parts), None

    def verify(self, a, raw):
        return certs_sparse.rank_verify(a, self.rank, proto.transcript_deserialize(raw)), None

    def live(self, a, seed):
        return certs_sparse.rank_certify(a, self.rank, proto.InteractiveSource(seed)), None


class RankUpper(Rank):
    name = "rank-upper"

    def prove(self, files):
        parts = certs_sparse._rank_upper_parts(files[0].matrix, self.rank, None, None)
        return _serialize(certs_sparse.PROTOCOL_RANK_UPPER, parts), None

    def verify(self, a, raw):
        t = proto.transcript_deserialize(raw)
        return certs_sparse.rank_upper_verify(a, self.rank, t), None

    def live(self, a, seed):
        return certs_sparse.rank_upper_certify(a, self.rank, proto.InteractiveSource(seed)), None


class Minpoly(FieldOperator):
    name = "minpoly"

    def __init__(self, p: int, n: int, triples: list, u: list, v: list):
        super().__init__(p, n, triples=triples)
        self.u, self.v = u, v
        gen_poly = oracle.brute_minpoly_fuv(ff.field_new(p), self.dense_rows(), u, v)
        self.expected = list(gen_poly.coeffs)

    def prove(self, files):
        parts = certs_sparse._minpoly_parts(files[0].matrix, self.u, self.v, None, None)
        return _serialize(certs_sparse.PROTOCOL_MINPOLY, parts), None

    def verify(self, a, raw):
        return certs_sparse.minpoly_verify(a, self.u, self.v, proto.transcript_deserialize(raw))

    def result_ok(self, result) -> bool:
        return result is not None and list(result.coeffs) == self.expected

    def live(self, a, seed):
        return certs_sparse.minpoly_certify(a, self.u, self.v, proto.InteractiveSource(seed))


class Det(FieldOperator):
    name = "det"

    def __init__(self, p: int, n: int, det: int, triples=None, rows=None):
        super().__init__(p, n, triples=triples, rows=rows)
        self.det = det

    def prove(self, files):
        parts = certs_sparse._det_parts(files[0].matrix, None, None, None)
        return _serialize(certs_sparse.PROTOCOL_DET, parts), None

    def verify(self, a, raw):
        return certs_sparse.det_verify(a, proto.transcript_deserialize(raw))

    def result_ok(self, result) -> bool:
        return result == self.det

    def live(self, a, seed):
        return certs_sparse.det_certify(a, proto.InteractiveSource(seed))


# -- lifts ------------------------------------------------------------------------------


class IntDet(Case):
    name = "intdet"

    def __init__(self, rows: list):
        super().__init__([gen.mm_dense(rows, None)])
        self.rows = rows
        self.det = oracle.brute_det_int(rows)  # fraction-free, independent of vlac.lift
        if not gen.hadamard_holds(rows, self.det):
            raise AssertionError("reference determinant breaks the Hadamard bound")

    def prove(self, files):
        parts = lift._intdet_parts(files[0].matrix, PRIME_BITS, None)
        return _serialize(lift.PROTOCOL_INTDET, parts), None

    def fresh(self, claim):
        return lift.IntMatrix(self.rows)

    def verify(self, m, raw):
        return lift.intdet_verify(m, proto.transcript_deserialize(raw), PRIME_BITS)

    def result_ok(self, result) -> bool:
        return result == self.det and gen.hadamard_holds(self.rows, result)

    def live(self, m, seed):
        return lift.intdet_certify(m, proto.InteractiveSource(seed), PRIME_BITS)


class PolyDet(Case):
    name = "polydet"

    def __init__(self, p: int, entries: list, degree: int):
        super().__init__([gen.mm_poly(entries, p, degree)])
        self.p, self.entries, self.degree = p, entries, degree
        field = ff.field_new(p)
        polys = [[ff.Poly(field, c) for c in row] for row in entries]
        self.expected = list(oracle.brute_det_poly(polys, field).coeffs)

    def prove(self, files):
        mf = files[0]
        parts = lift._polydet_parts(mf.matrix, mf.polydegree, None)
        return _serialize(lift.PROTOCOL_POLYDET, parts), None

    def fresh(self, claim):
        field = ff.field_new(self.p)
        return lift.PolyMatrix(field, [[ff.Poly(field, c) for c in row] for row in self.entries])

    def verify(self, m, raw):
        return lift.polydet_verify(m, proto.transcript_deserialize(raw), self.degree)

    def result_ok(self, result) -> bool:
        return result is not None and list(result.coeffs) == self.expected

    def live(self, m, seed):
        return lift.polydet_certify(m, proto.InteractiveSource(seed), self.degree)


# -- the workloads -----------------------------------------------------------------


SIZES = {
    # name: (full size, smoke size)
    "dense-product": (1024, 24),
    "sparse-det": (2048, 48),
    "intdet": (64, 8),
}

# verify replays per round and case; more where one replay is short
VERIFY_REPS = {"dense-product": 15, "sparse-det": 10, "intdet": 20, "protocol-mix": 5}

# Reported in wall seconds, not scaled by the calibration brackets: these
# calls stream arrays of 8 to 24 MB, whose speed follows the memory system,
# which the cache-sized blend does not track.  Scaling widened their
# run-to-run spreads (README.md, "Scaled seconds").
UNSCALED = {"dense-product"}

WORKLOADS = ("dense-product", "sparse-det", "intdet", "protocol-mix")


def dense_product(seed: int, smoke: bool) -> list:
    n = SIZES["dense-product"][smoke]
    rng = np.random.default_rng([seed, 1])
    a = rng.integers(0, P_SMALL, (n, n), dtype=np.int64)
    b = rng.integers(0, P_SMALL, (n, n), dtype=np.int64)
    return [Matmul(P_SMALL, a, b, gen.blas_matmul_mod(a, b, P_SMALL), certs_dense.GEOMETRIC)]


def sparse_det(seed: int, smoke: bool) -> list:
    n = SIZES["sparse-det"][smoke]
    triples, det = gen.sparse_permuted_triangular(gen.seeded("sparse-det", seed), P_DET, n, 10)
    return [Det(P_DET, n, det, triples=triples)]


def intdet(seed: int, smoke: bool) -> list:
    n = SIZES["intdet"][smoke]
    return [IntDet(gen.random_rows(gen.seeded("intdet", seed), n, n, -100, 100))]


def protocol_mix(seed: int, smoke: bool) -> list:
    """Fixed schedule over all ten protocol ids and three fields.

    GF(10007) is small enough for an exact float64 reference product;
    P_WORD is the largest prime whose products fit int64 (chunk 1 in the
    program's dot products); P_BIG is the first prime past it, which the
    program runs on object arrays.  Sparse instances stay off P_WORD: a
    row of two or more entries overflows the program's sparse matvec.
    """
    def size(full: int, tiny: int) -> int:
        return tiny if smoke else full

    def rng(part: str) -> Random:
        return gen.seeded("protocol-mix", seed, part)

    cases = []
    n = size(128, 12)
    r = np.random.default_rng([seed, 2])
    a = r.integers(0, P_SMALL, (n, n), dtype=np.int64)
    b = r.integers(0, P_SMALL, (n, n), dtype=np.int64)
    cases.append(Matmul(P_SMALL, a, b, gen.blas_matmul_mod(a, b, P_SMALL),
                        certs_dense.GEOMETRIC))

    n = size(48, 8)
    g = rng("matmul-zero-one")
    a = gen.random_rows(g, n, n, 0, P_WORD - 1)
    b = gen.random_rows(g, n, n, 0, P_WORD - 1)
    cases.append(Matmul(P_WORD, np.array(a, dtype=np.int64), np.array(b, dtype=np.int64),
                        np.array(gen.int_matmul(a, b, P_WORD), dtype=np.int64),
                        certs_dense.ZERO_ONE))

    n = size(24, 6)
    g = rng("chain")
    cases.append(Chain(P_BIG, [gen.random_rows(g, n, n, 0, P_BIG - 1) for _ in range(4)]))

    rows, _ = gen.dense_permuted_triangular(rng("inverse"), P_WORD, size(64, 8))
    cases.append(Inverse(P_WORD, rows))

    n = size(128, 12)
    triples, _ = gen.sparse_permuted_triangular(rng("nonsingular"), P_SMALL, n, 8)
    cases.append(Nonsingular(P_SMALL, n, triples=triples))

    n, k = size(64, 8), size(40, 5)
    cases.append(Rank(P_WORD, n, gen.dense_of_rank(rng("rank"), P_WORD, n, k), k))

    n, k = size(64, 8), size(24, 3)
    cases.append(RankUpper(P_SMALL, n, gen.dense_of_rank(rng("rank-upper"), P_SMALL, n, k), k))

    n = size(32, 6)
    g = rng("minpoly")
    triples, _ = gen.sparse_permuted_triangular(g, P_BIG, n, 6)
    u = [g.randrange(P_BIG) for _ in range(n)]
    v = [g.randrange(P_BIG) for _ in range(n)]
    cases.append(Minpoly(P_BIG, n, triples, u, v))

    n = size(64, 8)
    rows, det = gen.dense_permuted_triangular(rng("det"), P_WORD, n)
    cases.append(Det(P_WORD, n, det, rows=rows))

    cases.append(IntDet(gen.random_rows(rng("intdet"), size(16, 4), size(16, 4), -100, 100)))

    n, d = size(5, 3), 2
    g = rng("polydet")
    entries = [[[g.randrange(P_BIG) for _ in range(d + 1)] for _ in range(n)] for _ in range(n)]
    cases.append(PolyDet(P_BIG, entries, d))
    return cases


BUILDERS = {
    "dense-product": dense_product,
    "sparse-det": sparse_det,
    "intdet": intdet,
    "protocol-mix": protocol_mix,
}
