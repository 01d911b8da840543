"""Every ``--problem`` pinned end to end: the exact lines of a prove and
verify round trip, the file-count message, the up-front refusal of an
unachievable ``--epsilon`` and the wrong-file-kind messages."""

import pytest

from vlac.cli import main
from vlac.ff import Poly, field_new
from vlac.la import DenseMatrix, SparseMatrix, dense_matmul, invert_dense
from vlac.lift import IntMatrix, PolyMatrix
from vlac.matrixmarket import write_dense, write_int, write_poly, write_sparse

GF101 = field_new(101)
GF10007 = field_new(10007)


def _instance(name):
    """Matrix Market texts of a small true claim for the problem."""
    if name == "matmul":
        a = DenseMatrix(GF101, [[1, 2, 3], [4, 5, 6], [7, 8, 10]])
        b = DenseMatrix(GF101, [[2, 0, 1], [1, 3, 0], [0, 1, 4]])
        return [write_dense(m) for m in (a, b, dense_matmul(a, b))]
    if name == "inverse":
        a = DenseMatrix(GF101, [[2, 1], [1, 1]])
        return [write_dense(a), write_dense(invert_dense(a))]
    if name == "nonsingular":
        return [write_dense(DenseMatrix(GF101, [[2, 1, 0], [1, 1, 0], [0, 3, 4]]))]
    if name == "rank":
        return [write_sparse(SparseMatrix(GF101, 4, 4, [(0, 0, 1), (1, 1, 2), (2, 2, 3)]))]
    if name in ("minpoly", "det"):
        triples = [(0, 0, 2), (0, 1, 1), (1, 0, 1), (1, 1, 1), (2, 2, 4)]
        return [write_sparse(SparseMatrix(GF101, 3, 3, triples))]
    if name == "intdet":
        return [write_int(IntMatrix([[1, 2, 3], [4, 5, 6], [7, 8, 10]]))]
    if name == "polydet":
        x, one = Poly.x(GF10007), Poly.one(GF10007)
        return [write_poly(PolyMatrix(GF10007, [[x, one], [one, x]]))]
    raise AssertionError(name)


def _files(tmp_path, name, texts=None):
    paths = []
    for i, text in enumerate(texts if texts is not None else _instance(name)):
        p = tmp_path / f"{name}{i}.mtx"
        p.write_text(text)
        paths.append(str(p))
    return paths


# name -> (extra flags, ACCEPT line, rendered lines, transcript bytes)
ROUND_TRIPS = {
    "matmul": ([], "ACCEPT eps=2/101 ops=56 heuristics=fiat-shamir", [], 118),
    "inverse": ([], "ACCEPT eps=1/101 ops=17 heuristics=fiat-shamir", [], 114),
    "nonsingular": ([], "ACCEPT eps=1/101 ops=18 heuristics=fiat-shamir", [], 178),
    "rank": (
        ["--rank", "3"],
        "ACCEPT eps=12/101 ops=76 heuristics=fiat-shamir,butterfly-preconditioner",
        [],
        527,
    ),
    "minpoly": (
        [],
        "ACCEPT eps=10/101 ops=52 heuristics=fiat-shamir",
        ["coefficients (constant first) = [97, 13, 94, 1]"],
        314,
    ),
    "det": (
        [],
        "ACCEPT eps=10/101 ops=60 heuristics=fiat-shamir",
        ["determinant = 4"],
        418,
    ),
    "intdet": (
        [],
        "ACCEPT eps=3283060527701832273/55515106057689622335417612277061942 "
        "ops=68 heuristics=fiat-shamir",
        ["determinant = -3"],
        431,
    ),
    "polydet": (
        [],
        "ACCEPT eps=8/10007 ops=44 heuristics=fiat-shamir",
        ["coefficients (constant first) = [10006, 0, 1]"],
        398,
    ),
}

FILE_COUNTS = {
    "matmul": 3,
    "inverse": 2,
    "nonsingular": 1,
    "rank": 1,
    "minpoly": 1,
    "det": 1,
    "intdet": 1,
    "polydet": 1,
}


@pytest.mark.parametrize("name", sorted(ROUND_TRIPS))
def test_prove_then_verify_prints_exact_lines(tmp_path, capsys, name):
    flags, accept, rendered, size = ROUND_TRIPS[name]
    paths = _files(tmp_path, name)
    out = str(tmp_path / "t.vlac")
    argv = ["--problem", name, *paths, *flags, "--seed", "5"]
    assert main(["prove", *argv, "--output", out]) == 0
    assert capsys.readouterr().out.splitlines() == [
        accept, *rendered, f"wrote {size} byte transcript to {out}"
    ]
    assert main(["verify", *argv, "--transcript", out]) == 0
    assert capsys.readouterr().out.splitlines() == [accept, *rendered]


@pytest.mark.parametrize("name", sorted(FILE_COUNTS))
def test_wrong_file_count_is_named(tmp_path, capsys, name):
    want = FILE_COUNTS[name]
    paths = _files(tmp_path, name)
    given = paths + paths[:1]
    code = main(["prove", "--problem", name, *given, "--output", str(tmp_path / "t")])
    assert code == 2
    assert capsys.readouterr().err == (
        f"error: {name} expects {want} matrix file(s), got {want + 1}\n"
    )
    assert not (tmp_path / "t").exists()


@pytest.mark.parametrize(
    "name, flags, bound",
    [
        ("matmul", [], "2/101"),
        ("inverse", [], "1/101"),
        ("nonsingular", [], "1/101"),
        ("rank", ["--rank", "3"], "12/101"),
    ],
)
def test_unachievable_epsilon_is_refused_before_proving(tmp_path, capsys, name, flags, bound):
    paths = _files(tmp_path, name)
    out = tmp_path / "t.vlac"
    code = main(
        ["prove", "--problem", name, *paths, *flags, "--output", str(out),
         "--epsilon", "1/1000000"]
    )
    assert code == 2
    assert capsys.readouterr().err == (
        "error: --epsilon 1/1000000 is unachievable here: "
        f"this instance's error bound is {bound}\n"
    )
    assert not out.exists()


@pytest.mark.parametrize(
    "name, bound", [("minpoly", "10/101"), ("det", "10/101"), ("polydet", "8/10007")]
)
def test_instance_dependent_bounds_are_judged_after_the_run(tmp_path, capsys, name, bound):
    paths = _files(tmp_path, name)
    out = tmp_path / "t.vlac"
    code = main(
        ["prove", "--problem", name, *paths, "--output", str(out),
         "--epsilon", "1/1000000", "--seed", "5"]
    )
    assert code == 1
    assert capsys.readouterr().out == (
        f"REJECT reason=ErrorBoundExceeded (bound {bound} > limit 1/1000000)\n"
    )
    assert not out.exists()


@pytest.mark.parametrize(
    "name, other, message",
    [
        ("intdet", "det", "intdet expects an integer matrix file (no %%modulus)"),
        ("polydet", "intdet", "polydet expects %%modulus and %%polydegree"),
        ("polydet", "det", "polydet expects %%modulus and %%polydegree"),
        ("det", "intdet", "operator: expected a matrix over GF(p) with %%modulus"),
        ("matmul", None, "matmul operand: expected a matrix over GF(p) with %%modulus"),
    ],
)
def test_wrong_file_kind_is_named(tmp_path, capsys, name, other, message):
    if other is None:
        texts = [write_int(IntMatrix([[1, 0], [0, 1]]))] * FILE_COUNTS[name]
    else:
        texts = _instance(other)
    paths = _files(tmp_path, name, texts)
    code = main(["prove", "--problem", name, *paths, "--output", str(tmp_path / "t")])
    assert code == 2
    assert capsys.readouterr().err == f"error: {message}\n"
