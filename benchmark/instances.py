"""Seeded instance generators and Matrix Market writers.

Everything here is the benchmark's own code: no generator of the program
(``vlac.bench``) is used, so a change to those cannot change the
instances.  Each generator returns plain Python or numpy data together
with the answer the construction implies, so the checks never need the
program to know what is right.
"""

from __future__ import annotations

from random import Random

import numpy as np

P_SMALL = 10007
P_DET = 536870909  # largest prime below 2**29, int64-safe
P_WORD = 3037000493  # largest prime whose products (p-1)**2 fit int64
P_BIG = 3037000507  # first prime past that limit: the program's object dtype


def seeded(workload: str, seed: int, part: str = "") -> Random:
    """Independent deterministic stream per workload, seed and purpose."""
    return Random(f"{workload}/{seed}/{part}")


# -- Matrix Market text ------------------------------------------------------


def mm_array(rows: int, cols: int, column_major: list, modulus: int | None) -> str:
    head = ["%%MatrixMarket matrix array integer general"]
    if modulus is not None:
        head.append(f"%%modulus={modulus}")
    head.append(f"{rows} {cols}")
    return "\n".join(head) + "\n" + "\n".join(map(str, column_major)) + "\n"


def mm_dense(matrix, modulus: int | None) -> str:
    """Array-layout text of a list-of-rows or 2-d numpy matrix."""
    if isinstance(matrix, np.ndarray):
        rows, cols = matrix.shape
        return mm_array(rows, cols, matrix.T.ravel().tolist(), modulus)
    rows, cols = len(matrix), len(matrix[0])
    flat = [matrix[i][j] for j in range(cols) for i in range(rows)]
    return mm_array(rows, cols, flat, modulus)


def mm_coordinate(rows: int, cols: int, triples: list, modulus: int) -> str:
    head = [
        "%%MatrixMarket matrix coordinate integer general",
        f"%%modulus={modulus}",
        f"{rows} {cols} {len(triples)}",
    ]
    body = [f"{i + 1} {j + 1} {v}" for i, j, v in sorted(triples)]
    return "\n".join(head + body) + "\n"


def mm_poly(entries: list, modulus: int, degree: int) -> str:
    """Array-layout polynomial matrix; entries are coefficient lists."""
    n = len(entries)
    head = [
        "%%MatrixMarket matrix array integer general",
        f"%%modulus={modulus}",
        f"%%polydegree={degree}",
        f"{n} {n}",
    ]
    body = [
        " ".join(str(c) for c in entries[i][j]) for j in range(n) for i in range(n)
    ]
    return "\n".join(head + body) + "\n"


# -- matrices with answers known from their construction --------------------


def permutation_sign(perm: list) -> int:
    seen = [False] * len(perm)
    sign = 1
    for start in range(len(perm)):
        if seen[start]:
            continue
        length = 0
        k = start
        while not seen[k]:
            seen[k] = True
            k = perm[k]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def sparse_permuted_triangular(rng: Random, p: int, n: int, per_row: int):
    """Rows of a lower-triangular matrix, each moved to a random place.

    Row i holds its nonzero diagonal and up to ``per_row - 1`` random
    entries left of it, so no row is wider than ``per_row``.  Returns
    ``(triples, det)`` with det = sign(perm) * prod(diagonal) mod p.
    """
    perm = list(range(n))
    rng.shuffle(perm)
    triples = []
    det = 1
    for i in range(n):
        diag = rng.randrange(1, p)
        det = det * diag % p
        triples.append((perm[i], i, diag))
        cols = set()
        while len(cols) < min(per_row - 1, i):
            cols.add(rng.randrange(i))
        for j in sorted(cols):
            triples.append((perm[i], j, rng.randrange(1, p)))
    return triples, det * permutation_sign(perm) % p


def dense_permuted_triangular(rng: Random, p: int, n: int):
    """Dense nonsingular matrix: a row-permuted lower-triangular matrix."""
    triples, det = sparse_permuted_triangular(rng, p, n, n)
    rows = [[0] * n for _ in range(n)]
    for i, j, v in triples:
        rows[i][j] = v
    return rows, det


def dense_of_rank(rng: Random, p: int, n: int, r: int):
    """n x n matrix of rank exactly r: L[:, :r] @ U[:r, :] with unit
    triangular factors, then rows and columns shuffled."""
    left = [[1 if i == j else (rng.randrange(p) if i > j else 0) for j in range(r)]
            for i in range(n)]
    right = [[1 if i == j else (rng.randrange(p) if j > i else 0) for j in range(n)]
             for i in range(r)]
    prod = int_matmul(left, right, p)
    row_order = list(range(n))
    col_order = list(range(n))
    rng.shuffle(row_order)
    rng.shuffle(col_order)
    return [[prod[i][j] for j in col_order] for i in row_order]


def random_rows(rng: Random, rows: int, cols: int, lo: int, hi: int) -> list:
    return [[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)]


# -- independent arithmetic ---------------------------------------------------


def int_matmul(a, b, p: int | None = None) -> list:
    """Product with Python integers; reduced mod p when p is given."""
    bt = list(zip(*b))
    out = []
    for row in a:
        vals = [sum(x * y for x, y in zip(row, col)) for col in bt]
        out.append([v % p for v in vals] if p is not None else vals)
    return out


def blas_matmul_mod(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """Exact product mod p through float64 BLAS.

    Exact because every dot product stays below 2**53, which
    inner * (p - 1)**2 < 2**53 guarantees; other shapes are refused.
    """
    if a.shape[1] * (p - 1) ** 2 >= 2**53:
        raise ValueError("float64 product would not be exact")
    prod = a.astype(np.float64) @ b.astype(np.float64)
    return np.fmod(prod, p).astype(np.int64)


def hadamard_holds(rows: list, det: int) -> bool:
    """det**2 <= product of the squared row norms (exact integers)."""
    bound_sq = 1
    for row in rows:
        bound_sq *= sum(v * v for v in row)
    return det * det <= bound_sq


def flip_byte(raw: bytes, rng: Random) -> bytes:
    bad = bytearray(raw)
    bad[rng.randrange(len(bad))] ^= rng.randrange(1, 256)
    return bytes(bad)
