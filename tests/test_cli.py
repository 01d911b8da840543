"""Command-line interface, file formats, and the TCP delegation path."""

import contextlib
import re
import socket
import struct
import subprocess
import sys
import threading
import time

import pytest

from vlac.certs_sparse import PROTOCOL_DET, _det_parts
from vlac.cli import MAX_SESSIONS, main
from vlac.errors import Malformed, TransportError
from vlac.ff import Poly, field_new, full_sample_set
from vlac.la import DenseMatrix, SparseMatrix, dense_matmul, rank_dense
from vlac.proto import FRAME_HELLO, HELLO_OK, MAX_HELLO, hello_frame
from vlac.lift import IntMatrix, PolyMatrix
from vlac.matrixmarket import (
    parse_matrix_market,
    write_dense,
    write_int,
    write_poly,
    write_sparse,
)
from vlac.proto import (
    KIND_VEC,
    ROLE_PROVER,
    TAG_RESPONSE,
    Message,
    SocketTransport,
    lp,
    transcript_deserialize,
)

from test_proto import UNASSIGNED_CODES, with_first_message


# -- matrix market parsing ------------------------------------------------------


def test_parse_array_is_column_major(gf101):
    text = (
        "%%MatrixMarket matrix array integer general\n"
        "%%modulus=101\n"
        "2 2\n1\n2\n3\n4\n"
    )
    mf = parse_matrix_market(text)
    m = mf.matrix
    assert isinstance(m, DenseMatrix)
    assert m.a.tolist() == [[1, 3], [2, 4]]
    assert mf.modulus == 101 and mf.layout == "array"


def test_parse_coordinate_sparse(gf101):
    text = (
        "%%MatrixMarket matrix coordinate integer general\n"
        "% a free comment\n"
        "%%modulus=101\n"
        "3 3 2\n"
        "1 1 5\n"
        "3 2 -1\n"
    )
    m = parse_matrix_market(text).matrix
    assert isinstance(m, SparseMatrix)
    assert sorted(m.triples()) == [(0, 0, 5), (2, 1, 100)]


def test_parse_without_modulus_is_integer():
    text = "%%MatrixMarket matrix array integer general\n2 2\n2 1 1 1\n"
    m = parse_matrix_market(text).matrix
    assert isinstance(m, IntMatrix)
    assert [list(r) for r in m.a] == [[2, 1], [1, 1]]


def test_parse_poly_entries(gf101):
    text = (
        "%%MatrixMarket matrix array integer general\n"
        "%%modulus=101\n"
        "%%polydegree=1\n"
        "2 2\n"
        "0 1\n"  # column 1: x, 1
        "1 0\n"
        "1 0\n"  # column 2: 1, x
        "0 1\n"
    )
    mf = parse_matrix_market(text)
    m = mf.matrix
    assert isinstance(m, PolyMatrix)
    x = Poly.x(gf101)
    assert m.entries[0][0] == x and m.entries[1][1] == x
    assert mf.polydegree == 1


@pytest.mark.parametrize(
    "text",
    [
        "",
        "%%MatrixMarket vector array integer general\n1 1\n0\n",
        "%%MatrixMarket matrix array real general\n1 1\n0.5\n",
        "%%MatrixMarket matrix array integer symmetric\n1 1\n0\n",
        # duplicate coordinate entry
        "%%MatrixMarket matrix coordinate integer general\n%%modulus=7\n"
        "2 2 2\n1 1 3\n1 1 4\n",
        # entry outside the declared shape
        "%%MatrixMarket matrix coordinate integer general\n%%modulus=7\n"
        "2 2 1\n3 1 3\n",
        # wrong value count
        "%%MatrixMarket matrix array integer general\n%%modulus=7\n2 2\n1 2 3\n",
        # polynomial entries without a modulus
        "%%MatrixMarket matrix array integer general\n%%polydegree=1\n"
        "1 1\n1 1\n",
    ],
)
def test_parse_rejects_malformed(text):
    with pytest.raises(Malformed):
        parse_matrix_market(text)


def test_writers_round_trip(gf101, gf10007):
    dense = DenseMatrix(gf101, [[1, 2], [3, 4]])
    back = parse_matrix_market(write_dense(dense)).matrix
    assert back.a.tolist() == dense.a.tolist()

    sparse = SparseMatrix(gf101, 3, 4, [(0, 1, 7), (2, 3, 9)])
    back = parse_matrix_market(write_sparse(sparse)).matrix
    assert sorted(back.triples()) == sorted(sparse.triples())

    ints = IntMatrix([[10**20, -3], [0, 7]])
    back = parse_matrix_market(write_int(ints)).matrix
    assert [list(r) for r in back.a] == [list(r) for r in ints.a]

    x = Poly.x(gf10007)
    pm = PolyMatrix(gf10007, [[x, Poly.one(gf10007)], [Poly.one(gf10007), x]])
    mf = parse_matrix_market(write_poly(pm))
    assert mf.matrix.entries == pm.entries and mf.polydegree == 1


# -- prove / verify round trips --------------------------------------------------


def matmul_files(tmp_path, gf101, n=4, seed=0):
    from random import Random

    rng = Random(seed)
    a = DenseMatrix(gf101, [[rng.randrange(101) for _ in range(n)] for _ in range(n)])
    b = DenseMatrix(gf101, [[rng.randrange(101) for _ in range(n)] for _ in range(n)])
    c = dense_matmul(a, b)
    paths = []
    for name, m in (("a", a), ("b", b), ("c", c)):
        p = tmp_path / f"{name}.mtx"
        p.write_text(write_dense(m))
        paths.append(str(p))
    return paths


def test_cli_matmul_prove_then_verify(tmp_path, gf101, capsys):
    paths = matmul_files(tmp_path, gf101)
    out = str(tmp_path / "t.vlac")
    assert main(["prove", "--problem", "matmul", *paths, "--output", out]) == 0
    text = capsys.readouterr().out
    assert "ACCEPT eps=3/101" in text and "wrote" in text
    assert main(["verify", "--problem", "matmul", *paths, "--transcript", out]) == 0
    assert "ACCEPT eps=3/101" in capsys.readouterr().out


def test_cli_matmul_rejects_bad_product(tmp_path, gf101, capsys):
    paths = matmul_files(tmp_path, gf101)
    bad = parse_matrix_market((tmp_path / "c.mtx").read_text()).matrix
    rows = bad.a.tolist()
    rows[0][0] = (rows[0][0] + 1) % 101
    (tmp_path / "c.mtx").write_text(write_dense(DenseMatrix(gf101, rows)))
    code = main(["prove", "--problem", "matmul", *paths, "--output", str(tmp_path / "t")])
    assert code == 1
    assert "REJECT reason=CheckFailed:product" in capsys.readouterr().out
    assert not (tmp_path / "t").exists()


def test_cli_digest_mismatch_exit_4(tmp_path, gf101, capsys):
    paths = matmul_files(tmp_path, gf101)
    out = str(tmp_path / "t.vlac")
    assert main(["prove", "--problem", "matmul", *paths, "--output", out]) == 0
    (tmp_path / "other").mkdir()
    other = matmul_files(tmp_path / "other", gf101, seed=1)
    capsys.readouterr()
    code = main(["verify", "--problem", "matmul", *other, "--transcript", out])
    assert code == 4
    assert "InstanceDigestMismatch" in capsys.readouterr().out


def test_cli_corrupt_transcript_never_accepts(tmp_path, gf101, capsys):
    paths = matmul_files(tmp_path, gf101)
    out = tmp_path / "t.vlac"
    assert main(["prove", "--problem", "matmul", *paths, "--output", str(out)]) == 0
    data = bytearray(out.read_bytes())
    data[len(data) // 2] ^= 0xFF
    out.write_bytes(bytes(data))
    capsys.readouterr()
    code = main(["verify", "--problem", "matmul", *paths, "--transcript", str(out)])
    assert code in (1, 2, 4)


def test_cli_missing_transcript_exit_2(tmp_path, gf101, capsys):
    paths = matmul_files(tmp_path, gf101)
    code = main(
        ["verify", "--problem", "matmul", *paths, "--transcript", str(tmp_path / "no")]
    )
    assert code == 2


@pytest.mark.parametrize("raw", UNASSIGNED_CODES)
def test_cli_verify_exits_2_on_an_unassigned_code(tmp_path, gf101, capsys, raw):
    path = sparse_det_file(tmp_path, gf101, n=4)
    out = tmp_path / "det.vlac"
    assert main(["prove", "--problem", "det", path, "--output", str(out)]) == 0
    out.write_bytes(with_first_message(transcript_deserialize(out.read_bytes()), raw))
    capsys.readouterr()
    assert main(["verify", "--problem", "det", path, "--transcript", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_cli_det_and_friends_round_trip(tmp_path, gf101, capsys):
    p = tmp_path / "m.mtx"
    p.write_text(write_sparse(SparseMatrix(gf101, 3, 3, [(0, 0, 2), (0, 1, 1), (1, 0, 1), (1, 1, 1), (2, 2, 4)])))
    out = str(tmp_path / "det.vlac")
    assert main(["prove", "--problem", "det", str(p), "--output", out, "--seed", "5"]) == 0
    text = capsys.readouterr().out
    assert "determinant = 4" in text
    assert main(["verify", "--problem", "det", str(p), "--transcript", out]) == 0
    assert "determinant = 4" in capsys.readouterr().out

    assert main(["prove", "--problem", "nonsingular", str(p), "--output", out]) == 0
    assert "ACCEPT eps=1/101" in capsys.readouterr().out

    assert main(["prove", "--problem", "minpoly", str(p), "--output", out]) == 0
    assert "coefficients (constant first)" in capsys.readouterr().out


def test_cli_rank_needs_flag_and_accepts(tmp_path, gf101, capsys):
    p = tmp_path / "r.mtx"
    p.write_text(write_sparse(SparseMatrix(gf101, 4, 4, [(0, 0, 1), (1, 1, 2), (2, 2, 3)])))
    assert main(["prove", "--problem", "rank", str(p), "--output", str(tmp_path / "t")]) == 2
    assert "needs --rank" in capsys.readouterr().err
    code = main(
        ["prove", "--problem", "rank", str(p), "--rank", "3",
         "--output", str(tmp_path / "t"), "--seed", "3"]
    )
    assert code == 0
    assert "heuristics=fiat-shamir,butterfly-preconditioner" in capsys.readouterr().out


def test_cli_inverse_round_trip(tmp_path, gf101, capsys):
    from vlac.la import invert_dense

    a = DenseMatrix(gf101, [[2, 1], [1, 1]])
    w = invert_dense(a)
    pa, pw = tmp_path / "a.mtx", tmp_path / "w.mtx"
    pa.write_text(write_dense(a))
    pw.write_text(write_dense(w))
    out = str(tmp_path / "inv.vlac")
    assert main(["prove", "--problem", "inverse", str(pa), str(pw), "--output", out]) == 0
    assert main(["verify", "--problem", "inverse", str(pa), str(pw), "--transcript", out]) == 0


def test_cli_intdet_round_trip(tmp_path, capsys):
    p = tmp_path / "i.mtx"
    p.write_text(write_int(IntMatrix([[1, 2, 3], [4, 5, 6], [7, 8, 10]])))
    out = str(tmp_path / "i.vlac")
    assert main(["prove", "--problem", "intdet", str(p), "--output", out]) == 0
    assert "determinant = -3" in capsys.readouterr().out
    assert main(["verify", "--problem", "intdet", str(p), "--transcript", out]) == 0
    assert "determinant = -3" in capsys.readouterr().out


def test_cli_polydet_round_trip(tmp_path, gf10007, capsys):
    x = Poly.x(gf10007)
    one = Poly.one(gf10007)
    p = tmp_path / "p.mtx"
    p.write_text(write_poly(PolyMatrix(gf10007, [[x, one], [one, x]])))
    out = str(tmp_path / "p.vlac")
    assert main(["prove", "--problem", "polydet", str(p), "--output", out]) == 0
    assert "coefficients (constant first) = [10006, 0, 1]" in capsys.readouterr().out
    assert main(["verify", "--problem", "polydet", str(p), "--transcript", out]) == 0


def test_cli_prover_failure_exit_3(tmp_path, gf101, capsys):
    p = tmp_path / "s.mtx"
    p.write_text(write_dense(DenseMatrix(gf101, [[1, 2], [2, 4]])))  # singular
    out = tmp_path / "t.vlac"
    code = main(["prove", "--problem", "nonsingular", str(p), "--output", str(out)])
    assert code == 3
    assert "prover failed" in capsys.readouterr().err
    assert not out.exists()


def test_cli_epsilon_gates(tmp_path, gf101, capsys):
    paths = matmul_files(tmp_path, gf101)
    out = str(tmp_path / "t.vlac")
    # refused up front: the bound is known before any proving happens
    code = main(
        ["prove", "--problem", "matmul", *paths, "--output", out,
         "--epsilon", "1/1000000"]
    )
    assert code == 2
    assert "unachievable" in capsys.readouterr().err

    # judged after the run for instance-dependent bounds
    p = tmp_path / "d.mtx"
    p.write_text(write_dense(DenseMatrix(gf101, [[2, 1], [1, 1]])))
    code = main(
        ["prove", "--problem", "det", str(p), "--output", out, "--epsilon", "1/1000"]
    )
    assert code == 1
    assert "ErrorBoundExceeded" in capsys.readouterr().out

    code = main(["prove", "--problem", "det", str(p), "--output", out, "--epsilon", "bogus"])
    assert code == 2


def test_cli_mode_and_modulus_guards(tmp_path, gf101, capsys):
    paths = matmul_files(tmp_path, gf101)
    out = str(tmp_path / "t.vlac")
    with pytest.raises(SystemExit) as exc:
        main(["prove", "--problem", "matmul", *paths, "--output", out,
              "--mode", "interactive"])
    assert exc.value.code == 2
    assert main(["prove", "--problem", "matmul", *paths, "--output", out,
                 "--modulus", "103"]) == 2
    with pytest.raises(SystemExit) as exc:
        main(["delegate", "--problem", "matmul", *paths, "--port", "1",
              "--mode", "fiat-shamir"])
    assert exc.value.code == 2


# -- live TCP sessions ------------------------------------------------------------


@contextlib.contextmanager
def spawn_server(argv, stderr=subprocess.DEVNULL):
    """A ``vlac`` server process and the port it announces; on leaving,
    the server is killed and waited for and its pipes are closed."""
    with subprocess.Popen(
        [sys.executable, "-m", "vlac.cli", *argv],
        stdout=subprocess.PIPE,
        stderr=stderr,
        text=True,
    ) as proc:
        try:
            line = proc.stdout.readline()
            m = re.search(r"serving .* on .*:(\d+)", line)
            if not m:
                raise AssertionError(f"no port announcement in {line!r}")
            yield proc, int(m.group(1))
        finally:
            proc.kill()


def sparse_det_file(tmp_path, gf101, n=64, seed=2):
    from random import Random

    rng = Random(seed)
    cells = {}
    for i in range(n):
        cells[(i, i)] = rng.randrange(1, 101)
        for _ in range(3):
            cells[(i, rng.randrange(n))] = rng.randrange(101)
    triples = [(i, j, v) for (i, j), v in cells.items() if v]
    p = tmp_path / "big.mtx"
    p.write_text(write_sparse(SparseMatrix(gf101, n, n, triples)))
    return str(p)


def test_cli_delegate_round_trip(tmp_path, gf101, capsys):
    path = sparse_det_file(tmp_path, gf101)
    with spawn_server(["serve", "--problem", "det", path, "--once", "--seed", "7"]) as (proc, port):
        code = main(
            ["delegate", "--problem", "det", path, "--port", str(port), "--seed", "7"]
        )
        text = capsys.readouterr().out
        assert code == 0, text
        assert "ACCEPT" in text and "determinant = " in text
        m = re.search(r"prover (\d+\.\d+)s, verifier (\d+\.\d+)s", text)
        assert m, text
        # delegation only makes sense if checking is cheaper than proving
        assert float(m.group(2)) < float(m.group(1))
        proc.wait(timeout=10)


def live_instance(tmp_path, name):
    """Files and flags of an instance whose honest prover messages hold
    more entries than the slack of a frame limit covers."""
    from random import Random

    rng = Random(name)
    gf101 = field_new(101)
    if name in ("det", "minpoly"):
        return [sparse_det_file(tmp_path, gf101, n=40)], []
    if name == "rank":
        triples = [(i, i, rng.randrange(1, 101)) for i in range(39)]
        text, flags = write_sparse(SparseMatrix(gf101, 40, 40, triples)), ["--rank", "39"]
    elif name == "nonsingular":
        a = DenseMatrix(gf101, [[rng.randrange(101) for _ in range(40)] for _ in range(40)])
        while rank_dense(a) < 40:
            a = DenseMatrix(gf101, [[rng.randrange(101) for _ in range(40)] for _ in range(40)])
        text, flags = write_dense(a), []
    elif name == "intdet":
        rows = [[rng.randrange(-100, 101) for _ in range(40)] for _ in range(40)]
        text, flags = write_int(IntMatrix(rows)), []
    else:  # polydet: a determinant of degree up to 6 * 6
        gf = field_new(10007)
        entries = [[Poly(gf, [rng.randrange(10007) for _ in range(7)]) for _ in range(6)]
                   for _ in range(6)]
        text, flags = write_poly(PolyMatrix(gf, entries)), []
    path = tmp_path / f"{name}.mtx"
    path.write_text(text)
    return [str(path)], flags


@pytest.mark.parametrize("name", ["det", "minpoly", "rank", "nonsingular", "intdet", "polydet"])
def test_cli_delegate_long_messages_fit_their_frame_limits(tmp_path, name, capsys):
    files, flags = live_instance(tmp_path, name)
    args = ["--problem", name, *files, *flags, "--seed", "3"]
    with spawn_server(["serve", *args, "--once"]) as (proc, port):
        code = main(["delegate", *args, "--port", str(port)])
        text = capsys.readouterr().out
        assert code == 0 and "ACCEPT" in text, text
        proc.wait(timeout=30)


def test_cli_delegate_instance_mismatch(tmp_path, gf101, capsys):
    path = sparse_det_file(tmp_path, gf101)
    with spawn_server(["serve", "--problem", "det", path, "--once"]) as (proc, port):
        code = main(
            ["delegate", "--problem", "nonsingular", path, "--port", str(port)]
        )
        assert code == 1
        assert "REJECT reason=ProtocolViolation" in capsys.readouterr().out
        proc.wait(timeout=10)


def test_cli_delegate_no_server_exit_5(tmp_path, gf101, capsys):
    path = sparse_det_file(tmp_path, gf101, n=4)
    with socket.socket() as s:  # grab a port, then free it
        s.bind(("127.0.0.1", 0))
        port = s.getsockname()[1]
    code = main(
        ["delegate", "--problem", "det", path, "--port", str(port), "--timeout", "2"]
    )
    assert code == 5
    assert "transport failure" in capsys.readouterr().err


def test_cli_concurrent_delegations(tmp_path, gf101):
    path = sparse_det_file(tmp_path, gf101, n=16)
    codes = []

    def delegate(seed):
        r = subprocess.run(
            [sys.executable, "-m", "vlac.cli", "delegate", "--problem", "det",
             path, "--port", str(port), "--seed", str(seed)],
            capture_output=True,
            text=True,
            timeout=60,
        )
        codes.append((r.returncode, r.stdout))

    with spawn_server(["serve", "--problem", "det", path]) as (proc, port):
        threads = [threading.Thread(target=delegate, args=(s,)) for s in (1, 2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert [c for c, _ in codes] == [0, 0], codes


def test_socket_transport_refuses_a_frame_over_its_limit():
    a, b = socket.socketpair()
    tr = SocketTransport(a, timeout=30)
    try:
        b.sendall(struct.pack(">I", MAX_HELLO + 1))
        start = time.monotonic()
        with pytest.raises(TransportError, match="refused"):
            tr.recv_frame(MAX_HELLO)
        assert time.monotonic() - start < 5
        # the default limit still takes the same frame
        b.sendall(struct.pack(">I", MAX_HELLO + 1) + bytes(MAX_HELLO + 1))
        assert tr.recv_frame() == bytes(MAX_HELLO + 1)
    finally:
        tr.close()
        b.close()


def test_cli_serve_drops_an_oversized_hello_at_once(tmp_path, gf101):
    path = sparse_det_file(tmp_path, gf101, n=4)
    argv = ["serve", "--problem", "det", path, "--once", "--timeout", "60"]
    with spawn_server(argv) as (proc, port):
        with socket.create_connection(("127.0.0.1", port), timeout=10) as s:
            # announces a frame far past a hello, then sends nothing more
            s.sendall(struct.pack(">I", MAX_HELLO + 1))
            assert s.recv(1) == b""
        assert proc.wait(timeout=10) == 5


def test_cli_serve_logs_a_hello_whose_id_is_not_utf8(tmp_path, gf101):
    path = sparse_det_file(tmp_path, gf101, n=4)
    a = parse_matrix_market((tmp_path / "big.mtx").read_text()).matrix
    params, digest, _, _ = _det_parts(a, full_sample_set(gf101), None, None)
    argv = ["serve", "--problem", "det", path, "--once", "--timeout", "60"]
    with spawn_server(argv, stderr=subprocess.PIPE) as (proc, port):
        with socket.create_connection(("127.0.0.1", port), timeout=10) as s:
            tr = SocketTransport(s, timeout=10)
            tr.send_frame(bytes([FRAME_HELLO]) + lp(b"\xff") + lp(params) + digest)
            assert s.recv(1) == b""
        assert proc.wait(timeout=10) == 1
        assert proc.stderr.read() == "session failed: unreadable handshake\n"


@pytest.mark.parametrize("case, code, log", [
    ("mismatch", 1, "instance or protocol mismatch"),
    ("silent", 5, "peer did not respond within the round deadline"),
    ("aborted", 1, "peer aborted: bye"),
    ("unknown-kind", 2, "unknown payload kind 9"),
])
def test_cli_serve_once_exits_with_the_code_of_its_fault(tmp_path, gf101, case, code, log):
    path = sparse_det_file(tmp_path, gf101, n=4)
    a = parse_matrix_market((tmp_path / "big.mtx").read_text()).matrix
    params, digest, _, _ = _det_parts(a, full_sample_set(gf101), None, None)
    argv = ["serve", "--problem", "det", path, "--once", "--timeout", "1"]
    with spawn_server(argv, stderr=subprocess.PIPE) as (proc, port):
        # the client stays connected until the server has exited
        with socket.create_connection(("127.0.0.1", port), timeout=10) as s:
            tr = SocketTransport(s, timeout=10)
            if case == "mismatch":
                tr.send_frame(hello_frame(PROTOCOL_DET, params, bytes(32)))
            else:
                tr.send_frame(hello_frame(PROTOCOL_DET, params, digest))
                assert tr.recv_frame(MAX_HELLO) == HELLO_OK
            if case == "aborted":
                tr.send_frame(b"\x01bye")
            if case == "unknown-kind":
                tr.send_frame(b"\x00" + bytes([1, 1, 9]))
            assert proc.wait(timeout=10) == code
        assert proc.stderr.read() == f"session failed: {log}\n"


def test_cli_serve_drops_an_oversized_frame_after_the_hello(tmp_path, gf101):
    path = sparse_det_file(tmp_path, gf101, n=4)
    a = parse_matrix_market((tmp_path / "big.mtx").read_text()).matrix
    params, digest, _, _ = _det_parts(a, full_sample_set(gf101), None, None)
    argv = ["serve", "--problem", "det", path, "--once", "--timeout", "60"]
    with spawn_server(argv) as (proc, port):
        with socket.create_connection(("127.0.0.1", port), timeout=10) as s:
            tr = SocketTransport(s, timeout=10)
            tr.send_frame(hello_frame(PROTOCOL_DET, params, digest))
            assert tr.recv_frame(MAX_HELLO) == HELLO_OK
            # where a challenge is due, announce a frame of 2^30 - 1 bytes
            # and send nothing more; the prover's frames are read to EOF
            start = time.monotonic()
            s.sendall(struct.pack(">I", (1 << 30) - 1))
            while s.recv(1 << 16):
                pass
            assert time.monotonic() - start < 5
        proc.wait(timeout=10)


@pytest.mark.parametrize("kind", [5, 9])
def test_cli_serve_logs_an_unknown_kind_and_serves_on(tmp_path, gf101, capsys, kind):
    path = sparse_det_file(tmp_path, gf101, n=4)
    a = parse_matrix_market((tmp_path / "big.mtx").read_text()).matrix
    params, digest, _, _ = _det_parts(a, full_sample_set(gf101), None, None)
    argv = ["serve", "--problem", "det", path, "--timeout", "60"]
    with spawn_server(argv, stderr=subprocess.PIPE) as (proc, port):
        with socket.create_connection(("127.0.0.1", port), timeout=10) as s:
            tr = SocketTransport(s, timeout=10)
            tr.send_frame(hello_frame(PROTOCOL_DET, params, digest))
            assert tr.recv_frame(MAX_HELLO) == HELLO_OK
            # a message frame of an unassigned kind where a challenge is due
            tr.send_frame(b"\x00" + bytes([1, 1, kind]) + struct.pack("<IIQ", 1, 1, 1))
            while s.recv(1 << 16):
                pass
        code = main(["delegate", "--problem", "det", path, "--port", str(port)])
        assert code == 0 and "ACCEPT" in capsys.readouterr().out
        proc.kill()
        proc.wait(timeout=10)
        assert proc.stderr.read() == f"session failed: unknown payload kind {kind}\n"


def crashing_polydet_file(tmp_path):
    """A 3x3 degree-3 polynomial matrix over GF(7): its determinant has
    degree up to 9, and the prover cannot interpolate it from 7 points."""
    gf7 = field_new(7)
    rows = [[Poly(gf7, [(i + j) % 7, 0, 0, 1]) for j in range(3)] for i in range(3)]
    path = tmp_path / "pd.mtx"
    path.write_text(write_poly(PolyMatrix(gf7, rows)))
    return str(path)


CRASH_LOG = "session failed: prover failed: field too small to interpolate the determinant\n"


def test_cli_serve_logs_a_prover_crash_and_exits_3_once(tmp_path, capsys):
    path = crashing_polydet_file(tmp_path)
    argv = ["serve", "--problem", "polydet", path, "--once"]
    with spawn_server(argv, stderr=subprocess.PIPE) as (proc, port):
        code = main(["delegate", "--problem", "polydet", path, "--port", str(port)])
        assert code == 1 and "peer aborted" in capsys.readouterr().err
        assert proc.wait(timeout=10) == 3
        assert proc.stderr.read() == CRASH_LOG


def test_cli_serve_logs_a_prover_crash_and_serves_on(tmp_path, capsys):
    path = crashing_polydet_file(tmp_path)
    argv = ["serve", "--problem", "polydet", path]
    with spawn_server(argv, stderr=subprocess.PIPE) as (proc, port):
        for _ in range(2):
            assert main(["delegate", "--problem", "polydet", path, "--port", str(port)]) == 1
            assert proc.stderr.readline() == CRASH_LOG


def framed(data: bytes) -> bytes:
    return struct.pack(">I", len(data)) + data


def delegate_against(tmp_path, gf101, capsys, sent: bytes, delay: float = 0.0):
    """Run ``vlac delegate`` on a 4x4 det against a fake prover that, after
    reading the hello and waiting ``delay`` seconds, sends ``sent``; returns
    the exit code, stdout and stderr."""
    path = sparse_det_file(tmp_path, gf101, n=4)
    server = socket.create_server(("127.0.0.1", 0))
    port = server.getsockname()[1]
    done = threading.Event()

    def fake_prover():
        conn, _ = server.accept()
        with conn:
            SocketTransport(conn, timeout=30).recv_frame(MAX_HELLO)
            time.sleep(delay)
            conn.sendall(sent)
            done.wait(30)

    worker = threading.Thread(target=fake_prover, daemon=True)
    worker.start()
    try:
        start = time.monotonic()
        code = main(
            ["delegate", "--problem", "det", path, "--port", str(port), "--timeout", "30"]
        )
        assert time.monotonic() - start < 5
        return (code, *capsys.readouterr())
    finally:
        done.set()
        worker.join(timeout=10)
        server.close()


# a frame header announcing 2^30 - 1 bytes, with nothing after it
HUGE_FRAME = struct.pack(">I", (1 << 30) - 1)


def test_cli_delegate_refuses_an_oversized_hello_reply(tmp_path, gf101, capsys):
    code, _, err = delegate_against(tmp_path, gf101, capsys, HUGE_FRAME)
    assert code == 5
    assert "frame of 1073741823 bytes refused" in err


def test_cli_delegate_refuses_an_oversized_prover_message(tmp_path, gf101, capsys):
    # the verifier's first read after the hello is a length-4 vector
    code, _, err = delegate_against(tmp_path, gf101, capsys, framed(HELLO_OK) + HUGE_FRAME)
    assert code == 5
    assert "frame of 1073741823 bytes refused" in err


def test_cli_delegate_rejects_a_first_message_under_the_wrong_tag(tmp_path, gf101, capsys):
    # the det verifier's first read is the row scaling, sent as a commitment
    first = Message(ROLE_PROVER, TAG_RESPONSE, KIND_VEC, [1, 2, 3, 4]).encode()
    sent = framed(HELLO_OK) + framed(b"\x00" + first)
    code, out, _ = delegate_against(tmp_path, gf101, capsys, sent)
    assert code == 1
    assert "REJECT reason=ProtocolViolation:unexpected-message" in out


def test_cli_delegate_does_not_count_the_hello_as_prover_time(tmp_path, gf101, capsys):
    first = Message(ROLE_PROVER, TAG_RESPONSE, KIND_VEC, [1, 2, 3, 4]).encode()
    sent = framed(HELLO_OK) + framed(b"\x00" + first)
    code, out, _ = delegate_against(tmp_path, gf101, capsys, sent, delay=0.5)
    assert code == 1
    prover_s = float(re.search(r"prover ([0-9.]+)s", out).group(1))
    assert prover_s < 0.4, out


def test_cli_serve_caps_live_sessions(tmp_path, gf101):
    path = sparse_det_file(tmp_path, gf101, n=4)
    a = parse_matrix_market((tmp_path / "big.mtx").read_text()).matrix
    params, digest, _, _ = _det_parts(a, full_sample_set(gf101), None, None)
    with spawn_server(["serve", "--problem", "det", path, "--timeout", "60"]) as (proc, port):
        idle = []
        try:
            # each idle client holds a session, waiting for its hello
            idle = [socket.create_connection(("127.0.0.1", port), timeout=10)
                    for _ in range(MAX_SESSIONS)]
            with socket.create_connection(("127.0.0.1", port), timeout=10) as extra:
                start = time.monotonic()
                assert extra.recv(1) == b""
                assert time.monotonic() - start < 5
            idle.pop().close()  # its session ends on the early EOF
            deadline = time.monotonic() + 10
            while True:
                with socket.create_connection(("127.0.0.1", port), timeout=10) as s:
                    tr = SocketTransport(s, timeout=10)
                    tr.send_frame(hello_frame(PROTOCOL_DET, params, digest))
                    try:
                        assert tr.recv_frame(MAX_HELLO) == HELLO_OK
                        break
                    except TransportError:
                        # closed before the freed session slot was seen
                        assert time.monotonic() < deadline
                        time.sleep(0.05)
        finally:
            for s in idle:
                s.close()


def test_cli_serve_drops_a_silent_client_after_the_hello_wait(tmp_path, gf101):
    from vlac import proto

    path = sparse_det_file(tmp_path, gf101, n=4)
    a = parse_matrix_market((tmp_path / "big.mtx").read_text()).matrix
    params, digest, _, _ = _det_parts(a, full_sample_set(gf101), None, None)
    with spawn_server(["serve", "--problem", "det", path, "--timeout", "60"]) as (proc, port):
        idle = []
        try:
            # every slot is taken by a client that never sends its hello
            start = time.monotonic()
            idle = [socket.create_connection(("127.0.0.1", port), timeout=proto.HELLO_SECONDS + 10)
                    for _ in range(MAX_SESSIONS)]
            for s in idle:
                assert s.recv(1) == b""  # dropped by the server, not by this timeout
            assert time.monotonic() - start < proto.HELLO_SECONDS + 5
            time.sleep(0.5)  # a session releases its slot just after it closes
            # the freed slots serve the next client, while the round timeout is 60 s
            with socket.create_connection(("127.0.0.1", port), timeout=10) as s:
                tr = SocketTransport(s, timeout=10)
                tr.send_frame(hello_frame(PROTOCOL_DET, params, digest))
                assert tr.recv_frame(MAX_HELLO) == HELLO_OK
        finally:
            for s in idle:
                s.close()


def test_cli_serve_bounds_the_whole_hello(tmp_path, gf101):
    from vlac import proto

    path = sparse_det_file(tmp_path, gf101, n=4)
    a = parse_matrix_market((tmp_path / "big.mtx").read_text()).matrix
    params, digest, _, _ = _det_parts(a, full_sample_set(gf101), None, None)
    hello = hello_frame(PROTOCOL_DET, params, digest)
    frame = struct.pack(">I", len(hello)) + hello
    limit = proto.HELLO_SECONDS + 2
    assert len(frame) > 2 * limit  # one byte a second cannot finish it in time
    argv = ["serve", "--problem", "det", path, "--once", "--timeout", "60"]
    with spawn_server(argv) as (proc, port):
        with socket.create_connection(("127.0.0.1", port), timeout=10) as s:
            s.settimeout(1.0)
            start = time.monotonic()
            closed = False
            # a valid hello, one byte a second: each read is prompt, the
            # whole hello is not
            for byte in frame:
                try:
                    s.sendall(bytes([byte]))
                    closed = s.recv(1) == b""
                except socket.timeout:
                    pass
                except OSError:
                    closed = True
                if closed or time.monotonic() - start > limit:
                    break
            assert closed
            assert time.monotonic() - start < limit


# -- bench ------------------------------------------------------------------------


def test_cli_bench_matmul_csv(capsys):
    assert main(["bench", "--suite", "matmul", "--size", "64"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "name,n,prover_seconds,verifier_seconds,certificate_bytes,epsilon"
    assert out[1].startswith("matmul,64,")


def test_cli_bench_sparse_det_csv(capsys):
    assert main(["bench", "--suite", "sparse-det", "--size", "128"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[1].startswith("sparse-det,128,")


def test_cli_bench_intdet_csv(capsys):
    assert main(["bench", "--suite", "intdet", "--size", "8"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[1].startswith("intdet,8,")


def test_cli_bench_size_zero_is_refused_not_replaced_by_the_default(capsys):
    # a given size reaches the suite, so 0 is refused as -3 is
    for size in ("0", "-3"):
        assert main(["bench", "--suite", "intdet", "--size", size]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "at least 1x1" in captured.err
