"""Command-line interface.

Subcommands:

* ``prove``     run the prover alone (hash-compiled) and write a transcript
* ``verify``    replay a transcript against the instance files
* ``serve``     host a live prover on a TCP port
* ``delegate``  act as the verifier against a remote prover
* ``bench``     run a standard timing workload

Exit codes: 0 accepted, 1 rejected or protocol violation, 2 unreadable
input, 3 prover failure, 4 instance digest mismatch, 5 transport error
or timeout.
"""

from __future__ import annotations

import argparse
import socket
import sys
import threading
import time
from fractions import Fraction
from pathlib import Path
from random import Random
from typing import Optional

from . import bench as bench_mod
from .certs_dense import (
    GEOMETRIC,
    PROTOCOL_INVERSE,
    PROTOCOL_MATMUL,
    ZERO_ONE,
    _inverse_parts,
    _matmul_parts,
    inverse_epsilon,
    matmul_epsilon,
)
from .certs_sparse import (
    PROTOCOL_DET,
    PROTOCOL_MINPOLY,
    PROTOCOL_NONSINGULAR,
    PROTOCOL_RANK,
    _det_parts,
    _minpoly_parts,
    _nonsingular_parts,
    _rank_parts,
    nonsingular_epsilon,
    rank_epsilon,
)
from .errors import (
    Malformed,
    ProtocolViolation,
    Timeout,
    TransportError,
    VlacError,
)
from .ff import Poly, SampleSet, field_new, full_sample_set
from .la import DenseMatrix, SparseMatrix
from .lift import (
    PROTOCOL_INTDET,
    PROTOCOL_POLYDET,
    IntMatrix,
    PolyMatrix,
    _intdet_parts,
    _polydet_parts,
)
from .matrixmarket import MatrixFile, parse_matrix_market
from .net import HELLO_OK, MAX_HELLO, SocketTransport, hello_frame, parse_hello
from .proto import (
    FiatShamirSource,
    InteractiveSource,
    Verdict,
    _abort_frame,
    fs_prove,
    replay,
    run_remote_session,
    serve_session,
    transcript_deserialize,
    transcript_serialize,
)

EXIT_ACCEPT = 0
EXIT_REJECT = 1
EXIT_MALFORMED = 2
EXIT_PROVER = 3
EXIT_DIGEST = 4
EXIT_TRANSPORT = 5

PROBLEMS = (
    "matmul",
    "inverse",
    "nonsingular",
    "rank",
    "minpoly",
    "det",
    "intdet",
    "polydet",
)

_ARITY = {"matmul": 3, "inverse": 2}


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="vlac", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    def common(p, files=True):
        p.add_argument("--problem", required=True, choices=PROBLEMS)
        p.add_argument("--modulus", type=int, help="assert the field modulus")
        p.add_argument(
            "--sample-size",
            type=int,
            help="challenge set size (default: the whole field)",
        )
        p.add_argument(
            "--epsilon",
            help="largest acceptable error bound, e.g. 1/1000 or 0.001",
        )
        p.add_argument(
            "--mode",
            choices=("interactive", "fiat-shamir"),
            help="challenge provenance; prove/verify are hash-compiled "
            "(fiat-shamir), serve/delegate run live (interactive)",
        )
        p.add_argument("--seed", type=int, help="challenge / derivation seed")
        p.add_argument("--timeout", type=float, default=60.0, help="round timeout (s)")
        p.add_argument("--rank", type=int, help="claimed rank (rank problem)")
        p.add_argument(
            "--variant",
            choices=(GEOMETRIC, ZERO_ONE),
            default=GEOMETRIC,
            help="product-check variant (matmul)",
        )
        p.add_argument(
            "--rounds", type=int, default=32, help="zero-one variant repetitions"
        )
        p.add_argument(
            "--prime-bits", type=int, default=62, help="prime size for intdet"
        )
        if files:
            p.add_argument("files", nargs="+", help="Matrix Market instance files")

    prove = sub.add_parser("prove", help="write a hash-compiled transcript")
    common(prove)
    prove.add_argument("--output", default="transcript.vlac")

    verify = sub.add_parser("verify", help="replay a transcript")
    common(verify)
    verify.add_argument("--transcript", required=True)

    serve = sub.add_parser("serve", help="host a live prover over TCP")
    common(serve)
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=0)
    serve.add_argument("--once", action="store_true", help="serve one session and exit")

    delegate = sub.add_parser("delegate", help="verify against a remote prover")
    common(delegate)
    delegate.add_argument("--host", default="127.0.0.1")
    delegate.add_argument("--port", type=int, required=True)

    bench = sub.add_parser("bench", help="run a timing workload")
    bench.add_argument("--suite", choices=("matmul", "sparse-det", "intdet"), required=True)
    bench.add_argument("--size", type=int)
    bench.add_argument("--bench-seed", type=int, default=1)
    return top


# -- instance assembly ---------------------------------------------------------


def _read_files(paths) -> list[MatrixFile]:
    return [parse_matrix_market(Path(p).read_text()) for p in paths]


def _as_dense(m, what: str) -> DenseMatrix:
    if isinstance(m, DenseMatrix):
        return m
    if isinstance(m, SparseMatrix):
        return m.to_dense()
    raise Malformed(f"{what}: expected a field matrix")


def _field_operands(args, files: list[MatrixFile], what: str):
    """The files' matrices, all over one GF(p) that agrees with --modulus,
    and the sample set: --sample-size elements, or the whole field."""
    for mf in files:
        if mf.modulus is None or mf.polydegree is not None:
            raise Malformed(f"{what}: expected a matrix over GF(p) with %%modulus")
    mats = [mf.matrix for mf in files]
    moduli = {m.field.p for m in mats}
    if len(moduli) != 1:
        raise Malformed(f"instance files disagree on the modulus: {sorted(moduli)}")
    if args.modulus is not None and args.modulus not in moduli:
        raise Malformed(
            f"--modulus {args.modulus} does not match the file modulus {moduli.pop()}"
        )
    field = mats[0].field
    if args.sample_size is None:
        return mats, full_sample_set(field)
    return mats, SampleSet(field, args.sample_size)


def _instance_seed(args) -> int:
    return args.seed if args.seed is not None else 0


class _Problem:
    """Bundle of protocol id, session parts, and result rendering."""

    def __init__(self, protocol_id, parts, render=None, eps_worst=None):
        self.protocol_id = protocol_id
        self.parts = parts
        self.params, self.digest, self.prover, self.verifier = parts
        self.render = render or (lambda r: None)
        # instance-independent error bound, when one is known up front
        self.eps_worst = eps_worst


def _refuse_unachievable(args, problem: _Problem) -> _Problem:
    limit = _epsilon_limit(args)
    if (
        limit is not None
        and problem.eps_worst is not None
        and problem.eps_worst > limit
    ):
        raise Malformed(
            f"--epsilon {limit} is unachievable here: "
            f"this instance's error bound is {problem.eps_worst}"
        )
    return problem


def _build_problem(args) -> _Problem:
    name = args.problem
    files = _read_files(args.files)
    want = _ARITY.get(name, 1)
    if len(files) != want:
        raise Malformed(f"{name} expects {want} matrix file(s), got {len(files)}")

    if name == "matmul":
        mats, s = _field_operands(args, files, "matmul operand")
        a, b, c = (_as_dense(m, "matmul operand") for m in mats)
        eps = matmul_epsilon(args.variant, c.cols, s, args.rounds)
        return _Problem(
            PROTOCOL_MATMUL,
            _matmul_parts(a, b, c, s, args.variant, args.rounds),
            eps_worst=eps,
        )
    if name == "inverse":
        mats, s = _field_operands(args, files, "inverse operand")
        a, w = (_as_dense(m, "inverse operand") for m in mats)
        eps = inverse_epsilon(a.rows, s)
        return _Problem(PROTOCOL_INVERSE, _inverse_parts(a, w, s), eps_worst=eps)
    if name == "nonsingular":
        (a,), s = _field_operands(args, files, "operator")
        eps = nonsingular_epsilon(s)
        return _Problem(
            PROTOCOL_NONSINGULAR, _nonsingular_parts(a, s, None), eps_worst=eps
        )
    if name == "rank":
        if args.rank is None:
            raise Malformed("rank problem needs --rank")
        (a,), s = _field_operands(args, files, "operator")
        eps = rank_epsilon(a.rows, a.cols, args.rank, s)
        return _Problem(
            PROTOCOL_RANK, _rank_parts(a, args.rank, s, None), eps_worst=eps
        )
    if name == "minpoly":
        (a,), s = _field_operands(args, files, "operator")
        rng = Random(_instance_seed(args))
        u = [rng.randrange(a.field.p) for _ in range(a.rows)]
        v = [rng.randrange(a.field.p) for _ in range(a.rows)]
        return _Problem(
            PROTOCOL_MINPOLY,
            _minpoly_parts(a, u, v, s, None),
            render=_render_poly,
        )
    if name == "det":
        (a,), s = _field_operands(args, files, "operator")
        return _Problem(
            PROTOCOL_DET,
            _det_parts(a, s, None, args.seed),
            render=_render_det,
        )
    if name == "intdet":
        m = files[0].matrix
        if not isinstance(m, IntMatrix):
            raise Malformed("intdet expects an integer matrix file (no %%modulus)")
        return _Problem(
            PROTOCOL_INTDET,
            _intdet_parts(m, args.prime_bits, args.seed),
            render=_render_det,
        )
    if name == "polydet":
        mf = files[0]
        if not isinstance(mf.matrix, PolyMatrix):
            raise Malformed("polydet expects %%modulus and %%polydegree")
        return _Problem(
            PROTOCOL_POLYDET,
            _polydet_parts(mf.matrix, mf.polydegree, args.seed),
            render=_render_poly,
        )
    raise Malformed(f"unknown problem {name!r}")


def _assemble(args) -> _Problem:
    return _refuse_unachievable(args, _build_problem(args))


def _render_det(r) -> None:
    print(f"determinant = {r}")


def _render_poly(r) -> None:
    if isinstance(r, Poly):
        print(f"coefficients (constant first) = {r.coeffs}")


# -- verdict handling ----------------------------------------------------------


def _epsilon_limit(args) -> Optional[Fraction]:
    if args.epsilon is None:
        return None
    try:
        return Fraction(args.epsilon)
    except (ValueError, ZeroDivisionError):
        raise Malformed(f"unreadable --epsilon {args.epsilon!r}")


def _finish(verdict: Verdict, result, problem: _Problem, limit) -> int:
    if not verdict.accepted:
        print(f"REJECT reason={verdict.reason}")
        if verdict.reason == "InstanceDigestMismatch":
            return EXIT_DIGEST
        return EXIT_REJECT
    if limit is not None and verdict.error_bound > limit:
        print(
            f"REJECT reason=ErrorBoundExceeded "
            f"(bound {verdict.error_bound} > limit {limit})"
        )
        return EXIT_REJECT
    tags = f" heuristics={','.join(verdict.heuristics)}" if verdict.heuristics else ""
    print(f"ACCEPT eps={verdict.error_bound} ops={verdict.verifier_ops}{tags}")
    if result is not None:
        problem.render(result)
    return EXIT_ACCEPT


# -- subcommands ----------------------------------------------------------------


def _want_mode(args, required: str) -> None:
    if args.mode is not None and args.mode != required:
        raise Malformed(f"{args.command} only runs in {required} mode")


def _prover_fault(reason: Optional[str]) -> bool:
    return reason in ("ProverFailed", "DegreeDeficient", "SingularShift")


def _cmd_prove(args) -> int:
    _want_mode(args, "fiat-shamir")
    problem = _assemble(args)
    try:
        transcript = fs_prove(
            problem.protocol_id, problem.params, problem.digest, problem.prover
        )
    except VlacError:
        raise
    except Exception as exc:
        print(f"prover failed: {exc}", file=sys.stderr)
        return EXIT_PROVER
    verdict, result = replay(transcript, problem.protocol_id, problem.parts)
    if not verdict.accepted and _prover_fault(verdict.reason):
        print(f"prover failed: {verdict.reason}", file=sys.stderr)
        return EXIT_PROVER
    code = _finish(verdict, result, problem, _epsilon_limit(args))
    if code == EXIT_ACCEPT:
        data = transcript_serialize(transcript)
        Path(args.output).write_bytes(data)
        print(f"wrote {len(data)} byte transcript to {args.output}")
    return code


def _cmd_verify(args) -> int:
    _want_mode(args, "fiat-shamir")
    problem = _assemble(args)
    transcript = transcript_deserialize(Path(args.transcript).read_bytes())
    verdict, result = replay(transcript, problem.protocol_id, problem.parts)
    return _finish(verdict, result, problem, _epsilon_limit(args))


def _cmd_serve(args) -> int:
    _want_mode(args, "interactive")
    problem = _assemble(args)
    server = socket.create_server((args.host, args.port))
    host, port = server.getsockname()[:2]
    print(f"serving {args.problem} on {host}:{port}", flush=True)

    def handle(conn) -> None:
        tr = SocketTransport(conn, args.timeout)
        try:
            their = parse_hello(tr.recv_frame(MAX_HELLO))
            if their != (problem.protocol_id, problem.params, problem.digest):
                tr.send_frame(_abort_frame("instance or protocol mismatch"))
                return
            tr.send_frame(HELLO_OK)
            serve_session(tr, problem.prover)
        except (Timeout, TransportError, ProtocolViolation) as exc:
            print(f"session failed: {exc}", file=sys.stderr)
        finally:
            tr.close()

    try:
        while True:
            conn, _ = server.accept()
            if args.once:
                handle(conn)
                return EXIT_ACCEPT
            threading.Thread(target=handle, args=(conn,), daemon=True).start()
    finally:
        server.close()


def _cmd_delegate(args) -> int:
    _want_mode(args, "interactive")
    problem = _assemble(args)
    try:
        sock = socket.create_connection((args.host, args.port), timeout=args.timeout)
    except OSError as exc:
        raise TransportError(f"cannot reach {args.host}:{args.port}: {exc}") from exc
    tr = SocketTransport(sock, args.timeout)
    try:
        tr.send_frame(
            hello_frame(problem.protocol_id, problem.params, problem.digest)
        )
        reply = tr.recv_frame()
        if reply != HELLO_OK:
            if reply and reply[0] == 1:
                print(
                    f"REJECT reason=ProtocolViolation:"
                    f"{reply[1:].decode(errors='replace')}"
                )
                return EXIT_REJECT
            raise TransportError("unreadable handshake reply")
        source = InteractiveSource(args.seed)
        start = time.monotonic()
        verdict, result, _ = run_remote_session(
            problem.protocol_id, problem.params, problem.digest, tr, problem.verifier, source
        )
        total = time.monotonic() - start
        code = _finish(verdict, result, problem, _epsilon_limit(args))
        prover_s = tr.recv_seconds
        print(f"prover {prover_s:.3f}s, verifier {max(total - prover_s, 0.0):.3f}s")
        return code
    finally:
        tr.close()


def _cmd_bench(args) -> int:
    kwargs = {"seed": args.bench_seed}
    if args.size:
        kwargs["n"] = args.size
    run = {
        "matmul": bench_mod.bench_matmul,
        "sparse-det": bench_mod.bench_sparse_det,
        "intdet": bench_mod.bench_intdet,
    }[args.suite]
    result = run(**kwargs)
    print(bench_mod.CSV_HEADER)
    print(result.csv())
    print(result.render(), file=sys.stderr)
    return EXIT_ACCEPT if result.accepted else EXIT_REJECT


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handler = {
        "prove": _cmd_prove,
        "verify": _cmd_verify,
        "serve": _cmd_serve,
        "delegate": _cmd_delegate,
        "bench": _cmd_bench,
    }[args.command]
    try:
        return handler(args)
    except (Timeout, TransportError) as exc:
        print(f"transport failure: {exc}", file=sys.stderr)
        return EXIT_TRANSPORT
    except ProtocolViolation as exc:
        print(f"protocol violation: {exc}", file=sys.stderr)
        return EXIT_REJECT
    except (Malformed, VlacError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MALFORMED


if __name__ == "__main__":
    sys.exit(main())
