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

Each ``--problem`` is one row of ``PROBLEMS``: the protocol id, the number
of instance files, a builder of the session parts (and of the error bound,
when it is known before proving) and the renderer of the verified result.
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
from .ff import Poly, SampleSet, full_sample_set
from .lift import (
    PROTOCOL_INTDET,
    PROTOCOL_POLYDET,
    IntMatrix,
    PolyMatrix,
    _intdet_parts,
    _polydet_parts,
)
from .matrixmarket import MatrixFile, parse_matrix_market
from .proto import (
    InteractiveSource,
    SocketTransport,
    Verdict,
    accept_hello,
    fs_prove,
    offer_hello,
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

# Live sessions one ``vlac serve`` runs at a time; a connection past them
# is closed at once.
MAX_SESSIONS = 4


def _build_parser() -> argparse.ArgumentParser:
    # the module docstring, less its last paragraph, is the top-level help
    top = argparse.ArgumentParser(prog="vlac", description=__doc__.rsplit("\n\n", 1)[0])
    sub = top.add_subparsers(dest="command", required=True)

    def common(p):
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
    bench.add_argument("--suite", choices=bench_mod.SUITES, required=True)
    bench.add_argument("--size", type=int)
    bench.add_argument("--bench-seed", type=int, default=1)
    return top


# -- instance assembly ---------------------------------------------------------


def _read_files(paths) -> list[MatrixFile]:
    return [parse_matrix_market(Path(p).read_text()) for p in paths]


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


def _matmul(args, files):
    mats, s = _field_operands(args, files, "matmul operand")
    a, b, c = (m.to_dense() for m in mats)
    eps = matmul_epsilon(args.variant, c.cols, s, args.rounds)
    return _matmul_parts(a, b, c, s, args.variant, args.rounds), eps


def _inverse(args, files):
    mats, s = _field_operands(args, files, "inverse operand")
    a, w = (m.to_dense() for m in mats)
    eps = inverse_epsilon(a.rows, s)
    return _inverse_parts(a, w, s), eps


def _nonsingular(args, files):
    (a,), s = _field_operands(args, files, "operator")
    eps = nonsingular_epsilon(s)
    return _nonsingular_parts(a, s, None), eps


def _rank(args, files):
    if args.rank is None:
        raise Malformed("rank problem needs --rank")
    (a,), s = _field_operands(args, files, "operator")
    eps = rank_epsilon(a.rows, a.cols, args.rank, s)
    return _rank_parts(a, args.rank, s, None), eps


def _minpoly(args, files):
    (a,), s = _field_operands(args, files, "operator")
    rng = Random(args.seed or 0)
    u = [rng.randrange(a.field.p) for _ in range(a.rows)]
    v = [rng.randrange(a.field.p) for _ in range(a.rows)]
    return _minpoly_parts(a, u, v, s, None), None


def _det(args, files):
    (a,), s = _field_operands(args, files, "operator")
    return _det_parts(a, s, None, args.seed), None


def _intdet(args, files):
    m = files[0].matrix
    if not isinstance(m, IntMatrix):
        raise Malformed("intdet expects an integer matrix file (no %%modulus)")
    return _intdet_parts(m, args.prime_bits, args.seed), None


def _polydet(args, files):
    mf = files[0]
    if not isinstance(mf.matrix, PolyMatrix):
        raise Malformed("polydet expects %%modulus and %%polydegree")
    return _polydet_parts(mf.matrix, mf.polydegree, args.seed), None


def _render_det(r) -> None:
    print(f"determinant = {r}")


def _render_poly(r) -> None:
    if isinstance(r, Poly):
        print(f"coefficients (constant first) = {r.coeffs}")


# name -> (protocol id, file count, builder, renderer).  A builder maps
# (args, files) to (parts, eps_worst): the _X_parts 4-tuple, and the error
# bound known before proving, or None.  It calls _X_parts by its module-global
# name, so a caller that swaps that global swaps it here too.
PROBLEMS = {
    "matmul": (PROTOCOL_MATMUL, 3, _matmul, None),
    "inverse": (PROTOCOL_INVERSE, 2, _inverse, None),
    "nonsingular": (PROTOCOL_NONSINGULAR, 1, _nonsingular, None),
    "rank": (PROTOCOL_RANK, 1, _rank, None),
    "minpoly": (PROTOCOL_MINPOLY, 1, _minpoly, _render_poly),
    "det": (PROTOCOL_DET, 1, _det, _render_det),
    "intdet": (PROTOCOL_INTDET, 1, _intdet, _render_det),
    "polydet": (PROTOCOL_POLYDET, 1, _polydet, _render_poly),
}


def _assemble(args):
    """(protocol id, parts, renderer) from the problem's PROBLEMS row: read
    and count the files, build, and refuse an --epsilon the known bound
    cannot meet."""
    protocol_id, count, build, render = PROBLEMS[args.problem]
    files = _read_files(args.files)
    if len(files) != count:
        raise Malformed(f"{args.problem} expects {count} matrix file(s), got {len(files)}")
    parts, eps_worst = build(args, files)
    limit = _epsilon_limit(args)
    if limit is not None and eps_worst is not None and eps_worst > limit:
        raise Malformed(
            f"--epsilon {limit} is unachievable here: "
            f"this instance's error bound is {eps_worst}"
        )
    return protocol_id, parts, render


# -- verdict handling ----------------------------------------------------------


def _epsilon_limit(args) -> Optional[Fraction]:
    if args.epsilon is None:
        return None
    try:
        return Fraction(args.epsilon)
    except (ValueError, ZeroDivisionError):
        raise Malformed(f"unreadable --epsilon {args.epsilon!r}")


def _finish(verdict: Verdict, result, render, limit) -> int:
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
    if result is not None and render is not None:
        render(result)
    return EXIT_ACCEPT


# -- subcommands ----------------------------------------------------------------


def _prover_fault(reason: Optional[str]) -> bool:
    return reason in ("ProverFailed", "DegreeDeficient", "SingularShift")


def _cmd_prove(args) -> int:
    protocol_id, parts, render = _assemble(args)
    params, digest, prover, _ = parts
    try:
        transcript = fs_prove(protocol_id, params, digest, prover)
    except VlacError:
        raise
    except Exception as exc:
        print(f"prover failed: {exc}", file=sys.stderr)
        return EXIT_PROVER
    verdict, result = replay(transcript, protocol_id, parts)
    if not verdict.accepted and _prover_fault(verdict.reason):
        print(f"prover failed: {verdict.reason}", file=sys.stderr)
        return EXIT_PROVER
    code = _finish(verdict, result, render, _epsilon_limit(args))
    if code == EXIT_ACCEPT:
        data = transcript_serialize(transcript)
        Path(args.output).write_bytes(data)
        print(f"wrote {len(data)} byte transcript to {args.output}")
    return code


def _cmd_verify(args) -> int:
    protocol_id, parts, render = _assemble(args)
    transcript = transcript_deserialize(Path(args.transcript).read_bytes())
    verdict, result = replay(transcript, protocol_id, parts)
    return _finish(verdict, result, render, _epsilon_limit(args))


def _cmd_serve(args) -> int:
    protocol_id, (params, digest, prover, _), _ = _assemble(args)
    server = socket.create_server((args.host, args.port))
    host, port = server.getsockname()[:2]
    print(f"serving {args.problem} on {host}:{port}", flush=True)

    def failed(why, code: int) -> int:
        print(f"session failed: {why}", file=sys.stderr)
        return code

    def handle(conn) -> int:
        """Serve one connection; the exit code main gives its fault, or 0."""
        tr = SocketTransport(conn, args.timeout)
        try:
            accept_hello(tr, protocol_id, params, digest)
            serve_session(tr, prover)
        except (Timeout, TransportError) as exc:
            return failed(exc, EXIT_TRANSPORT)
        except ProtocolViolation as exc:
            return failed(exc, EXIT_REJECT)
        except Malformed as exc:
            return failed(exc, EXIT_MALFORMED)
        except Exception as exc:  # serve_session has sent the abort
            return failed(f"prover failed: {exc}", EXIT_PROVER)
        finally:
            tr.close()
        return EXIT_ACCEPT

    slots = threading.BoundedSemaphore(MAX_SESSIONS)

    def session(conn) -> None:
        try:
            handle(conn)
        finally:
            slots.release()

    try:
        while True:
            conn, _ = server.accept()
            if args.once:
                return handle(conn)
            if not slots.acquire(blocking=False):
                print(f"session refused: {MAX_SESSIONS} sessions running", file=sys.stderr)
                conn.close()
                continue
            threading.Thread(target=session, args=(conn,), daemon=True).start()
    finally:
        server.close()


def _cmd_delegate(args) -> int:
    protocol_id, (params, digest, _, verifier), render = _assemble(args)
    try:
        sock = socket.create_connection((args.host, args.port), timeout=args.timeout)
    except OSError as exc:
        raise TransportError(f"cannot reach {args.host}:{args.port}: {exc}") from exc
    tr = SocketTransport(sock, args.timeout)
    try:
        try:
            offer_hello(tr, protocol_id, params, digest)
        except ProtocolViolation as exc:
            print(f"REJECT reason=ProtocolViolation:{exc}")
            return EXIT_REJECT
        tr.recv_seconds = 0.0  # prover time is the session's reads, not the hello's
        source = InteractiveSource(args.seed)
        start = time.monotonic()
        verdict, result, _ = run_remote_session(
            protocol_id, params, digest, tr, verifier, source
        )
        total = time.monotonic() - start
        code = _finish(verdict, result, render, _epsilon_limit(args))
        prover_s = tr.recv_seconds
        print(f"prover {prover_s:.3f}s, verifier {max(total - prover_s, 0.0):.3f}s")
        return code
    finally:
        tr.close()


def _cmd_bench(args) -> int:
    kwargs = {"seed": args.bench_seed}
    if args.size:
        kwargs["n"] = args.size
    result = bench_mod.SUITES[args.suite](**kwargs)
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
